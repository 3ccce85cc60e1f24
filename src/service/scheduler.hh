/**
 * @file
 * Pluggable deterministic scheduling policies for the traversal
 * service's DeviceGroup dispatcher (service/service.hh).
 *
 * PR 9's dispatcher was pure least-loaded-first over batch counts: a
 * ready batch goes to the free device that has been idle longest. That
 * ignores three things this layer models explicitly:
 *
 *   1. **Size-aware batching** — batches have wildly different service
 *      times (a full lane of B-Tree lookups vs. a lane of BVH rays).
 *      The scheduler keeps a per-tenant online EWMA of cycles per
 *      query — integer fixed-point (Q8), seeded by a calibration probe
 *      launched before traffic starts and updated from every retired
 *      batch — and derives per-tenant dispatch thresholds so a lane
 *      becomes dispatchable by estimated service *time* instead of
 *      query count, and placement balances estimated load, not batch
 *      tallies.
 *
 *   2. **Tenant-to-device affinity** — after a device serves a
 *      tenant's batch, that tenant's tree is hot in the device's L2
 *      (device clocks are continuous across launches, so simulated
 *      cache warmth persists exactly as on real hardware). The warmth
 *      score predicts the cache state the batch will actually meet: a
 *      device with planned work is warm for the tenant of its *last
 *      queued* batch, a busy device for the tenant in flight, and an
 *      idle device for recently retired tenants with the bonus — a
 *      fraction of the batch's estimated cost — decayed linearly on
 *      the virtual clock and zero past a staleness bound. Placement
 *      subtracts the bonus from a device's estimated-ready score, and
 *      tenant selection for the next device to free uses the same
 *      score (queue.hh's bounded-lateness EDF), so batches chase their
 *      warm device but never starve waiting for it: the bonus is
 *      bounded, and the EDF slack window is too.
 *
 *   3. **Deterministic work stealing** — non-lld policies may plan a
 *      batch onto a busy device (bounded per-device backlog), which is
 *      what affinity wants — but imbalance can then idle a neighbor.
 *      At every dispatch tick the steal pass repeatedly moves the
 *      *tail* batch of the most-loaded device to the least-loaded one,
 *      but only while the move strictly reduces that batch's estimated
 *      start cycle. Thief and victim selection tie-break on the lowest
 *      device index and every event is logged as (cycle, batch id,
 *      victim -> thief), so the steal schedule is a pure function of
 *      the virtual clock — bit-identical across simulation kernels
 *      and staging modes. Tail-only steals that must
 *      strictly help are also what rules out SLO-priority inversion:
 *      no batch's estimated start ever increases because of a steal.
 *      A priority (latency-sensitive) tail is the one case where the
 *      thief-side insert is not an append — it would jump ahead of
 *      the thief's queued throughput plans and delay them — so it is
 *      only stolen onto an *empty* backlog, where insert and append
 *      coincide (tests/test_service_queue.cc fuzzes the invariant
 *      against a shadow model).
 *
 * Policy selection: SchedPolicy::LeastLoaded ("lld") reproduces PR 9
 * decision-for-decision; "size", "affinity" and "steal" enable one
 * mechanism each (affinity and steal imply the size-aware estimator
 * they score with); "full" enables all three. Benches select via
 * `--sched=` or the TTA_SCHED environment variable.
 *
 * Everything here is integer state driven by explicit cycle
 * timestamps; the scheduler never reads a host clock, so identical
 * call sequences produce identical placements on any host.
 */

#ifndef TTA_SERVICE_SCHEDULER_HH
#define TTA_SERVICE_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "service/queue.hh"
#include "sim/ticked.hh"

namespace tta::service {

/** Dispatcher policy. LeastLoaded is PR 9's dispatcher, bit-exact. */
enum class SchedPolicy : uint8_t
{
    LeastLoaded, //!< "lld": idle device, longest idle first
    SizeAware,   //!< "size": + EWMA cost model, quotas, est-load placement
    Affinity,    //!< "affinity": + (tenant, device) warmth bonus
    Steal,       //!< "steal": + deterministic tail-batch stealing
    Full,        //!< "full": size + affinity + steal
};

const char *schedPolicyName(SchedPolicy p);

/** Parse "lld|size|affinity|steal|full". @return false on unknown. */
bool parseSchedPolicy(const std::string &name, SchedPolicy &out);

/** TTA_SCHED environment override; fatals on an unparseable value. */
SchedPolicy schedPolicyFromEnv(SchedPolicy fallback);

/** Tuning knobs; defaults hold for every test and bench scenario. */
struct SchedParams
{
    /** EWMA step for the cost model: alpha = 1 / 2^ewmaShift. */
    uint32_t ewmaShift = 2;
    /** Cycles/query assumed before any observation (quota math needs a
     *  nonzero estimate even with calibration disabled). */
    uint64_t seedCostCyclesPerQuery = 64;
    /** Calibration probe batch size per tenant (clamped to maxBatch);
     *  0 disables the probe. Probes run on every device before traffic
     *  so the group stays symmetric. */
    uint32_t probeQueries = 64;
    /** Smallest size-aware dispatch threshold (a floor keeps a very
     *  pricey tenant from dispatching near-singleton batches under
     *  light load). */
    uint32_t minQuota = 64;
    /** Planned-but-unlaunched batches a device may hold. */
    uint32_t maxBacklog = 2;
    /** Warmth bonus at batch-age 1, in 1/256ths of the placed batch's
     *  estimated cost (256 = one batch). The default exceeds one
     *  batch on purpose: in steady state the device that just freed a
     *  backlog slot is exactly one batch lighter than its peers, and
     *  the bonus must bridge that gap for a batch to wait for its
     *  warm device instead of landing on whichever freed first. */
    uint32_t warmthBonusFrac256 = 384;
    /** Residency window, in batches: a tenant counts as warm on a
     *  device while at most this many batches will have run there
     *  since its last one (age 1 = back-to-back). A device's L2 keeps
     *  a tenant's tree hot across a few intervening batches of its
     *  other resident tenants, so warmth must look further back than
     *  the immediately preceding batch or device "homes" drift; the
     *  bonus decays linearly to zero past the window. */
    uint32_t warmthResidencyBatches = 3;
    /** Staleness bound on the virtual clock: a tenant inside the
     *  residency window still counts as cold once this many cycles
     *  pass without it retiring on the device, so affinity never
     *  starves a long-idle (but batch-age-warm) device of fresh
     *  placements. */
    sim::Cycle warmthStalenessCycles = 1u << 20;
    /** Bounded-lateness EDF window for affinity tenant selection:
     *  among expired lanes, warmth may prefer a lane whose front
     *  deadline is at most this far behind the earliest (0 = exact
     *  EDF). Under sustained overload every front deadline is expired,
     *  so without slack EDF order alone dictates dispatch and warmth
     *  never gets a say. */
    sim::Cycle deadlineSlackCycles = 50000;
    /** A device qualifies as a thief while its estimated load is below
     *  this; 0 = auto (one full batch of the cheapest tenant). */
    sim::Cycle stealThresholdCycles = 0;
};

class Scheduler
{
  public:
    /** One planned (popped-from-queue, not yet launched) batch. */
    struct Batch
    {
        uint64_t id = 0;       //!< placement order, globally unique
        uint32_t tenant = 0;
        uint64_t estCost = 0;  //!< estimated service cycles
        bool expired = false;  //!< deadline rule pulled it
        bool priority = false; //!< latency-sensitive SLO class
        std::shared_ptr<std::vector<QueryTicket>> queries;
    };

    Scheduler(SchedPolicy policy, const SchedParams &params,
              uint32_t num_devices, uint32_t num_tenants,
              uint32_t max_batch);

    SchedPolicy policy() const { return policy_; }
    bool leastLoaded() const
    {
        return policy_ == SchedPolicy::LeastLoaded;
    }
    bool sizeAware() const
    {
        return policy_ != SchedPolicy::LeastLoaded;
    }
    bool affinity() const
    {
        return policy_ == SchedPolicy::Affinity ||
               policy_ == SchedPolicy::Full;
    }
    bool stealing() const
    {
        return policy_ == SchedPolicy::Steal ||
               policy_ == SchedPolicy::Full;
    }

    // --- cost model ------------------------------------------------------

    /** Seed tenant @p t's estimate from a calibration probe. */
    void calibrate(uint32_t t, uint64_t queries, sim::Cycle elapsed);

    /** Current cycles/query estimate, Q8 fixed point. */
    uint64_t costPerQueryQ8(uint32_t t) const { return costQ8_[t]; }

    /** Estimated service cycles of @p n queries of tenant @p t. */
    uint64_t estBatchCost(uint32_t t, uint64_t n) const;

    /** Per-tenant dispatch threshold: maxBatch under lld; otherwise
     *  sized so a lane becomes dispatchable once its queued queries
     *  cost about what a maxBatch batch of the cheapest tenant costs.
     *  A pricier tenant therefore launches *sooner*, not smaller: the
     *  pop itself always takes up to maxBatch, so under backlog every
     *  batch is still full-size and throughput is unaffected. */
    uint32_t batchQuota(uint32_t t) const { return quota_[t]; }
    const std::vector<uint32_t> &quotas() const { return quota_; }

    /** Recompute quotas from the current estimates (call once per
     *  dispatch tick; estimates only move at retire). */
    void refreshQuotas();

    // --- placement -------------------------------------------------------

    /** Can some device accept another planned batch right now? Under
     *  lld: an idle device with no plan (PR 9's dispatch condition). */
    bool hasRoom() const;

    /** Is some device idle with an empty backlog — i.e. a popped
     *  batch would launch immediately? The service defers partial
     *  (sub-quota) throughput pops until this holds, so a partial
     *  lane keeps coalescing toward a full batch while the devices
     *  have work, and is popped exactly when capacity would otherwise
     *  sit idle — lld's timing. (Priority batches are never deferred:
     *  they jump the backlog at placement.) */
    bool hasIdleDevice() const;

    /** The device the next placed batch lands on absent any warmth
     *  bonus: lowest estimated load, ties to the lowest index, among
     *  devices with backlog room. The service orients affinity tenant
     *  selection around this device. Requires hasRoom(). */
    uint32_t nextPlacementDevice(sim::Cycle now) const;

    /** Per-tenant warmth scores for device @p d (quota-sized batch
     *  cost basis) — the preference vector for
     *  AdmissionQueue::selectTenant's affinity overload. */
    std::vector<uint64_t> warmthKeys(uint32_t d, sim::Cycle now) const;

    /** Rule-1 slack for the affinity selectTenant overload. */
    sim::Cycle deadlineSlack() const
    {
        return affinity() ? params_.deadlineSlackCycles : 0;
    }

    /** Plan a popped batch onto a device (see file header for the
     *  per-policy scoring). A @p priority (latency-sensitive) batch is
     *  planned ahead of the device's queued throughput batches —
     *  behind its in-flight launch and earlier priority plans — so
     *  backlog planning never inverts the queue's strict SLO-class
     *  order. @return the chosen device. */
    uint32_t place(uint32_t tenant,
                   std::shared_ptr<std::vector<QueryTicket>> queries,
                   bool expired, bool priority, sim::Cycle now);

    /** The deterministic steal pass; no-op unless stealing(). */
    void rebalance(sim::Cycle now);

    bool hasReady(uint32_t d) const { return !backlog_[d].empty(); }
    /** Pop device @p d's next planned batch for launching. */
    Batch takeReady(uint32_t d);

    /** Planned-but-unlaunched batches across all devices. */
    uint64_t plannedBatches() const { return planned_; }

    // --- device lifecycle hooks -----------------------------------------

    void onLaunch(uint32_t d, const Batch &b, sim::Cycle now);
    void onRetire(uint32_t d, uint32_t tenant, uint64_t queries,
                  sim::Cycle complete, sim::Cycle elapsed);

    // --- telemetry -------------------------------------------------------

    uint64_t dispatches(uint32_t d) const { return dispatches_[d]; }
    uint64_t steals(uint32_t d) const { return steals_[d]; }
    uint64_t stealsTotal() const { return stealsTotal_; }
    /** "s<k> c=<cycle> b=<id> d<victim>-><thief>\n" per steal, capped
     *  at kMaxLoggedSteals lines: part of the determinism oracle. */
    const std::string &stealLog() const { return stealLog_; }

    static constexpr uint64_t kMaxLoggedSteals = 8192;

    /** Estimated load of device @p d at @p now: remaining estimated
     *  cycles of the in-flight batch plus every planned batch. */
    sim::Cycle estLoad(uint32_t d, sim::Cycle now) const;

  private:
    sim::Cycle warmthBonus(uint32_t t, uint32_t d, uint64_t est_cost,
                           sim::Cycle now) const;
    /** Warmth a batch of tenant @p t would have on device @p d if it
     *  ran right after the first @p upto planned backlog entries (so
     *  upto == backlog size scores an appended batch; upto == pos
     *  scores the batch at backlog position pos). */
    sim::Cycle warmthAt(uint32_t t, uint32_t d, uint64_t est_cost,
                        sim::Cycle now, size_t upto) const;
    sim::Cycle stealThreshold() const;
    /** Backlog insert keeping priority batches ahead of throughput
     *  ones (used by place and the steal pass). */
    void enqueuePlanned(uint32_t d, Batch &&b);

    const SchedPolicy policy_;
    const SchedParams params_;
    const uint32_t maxBatch_;

    std::vector<std::deque<Batch>> backlog_;   //!< per device, FIFO
    std::vector<uint64_t> backlogCost_;        //!< sum of estCost
    std::vector<bool> busy_;                   //!< launch in flight
    std::vector<sim::Cycle> freeAt_;           //!< last completion
    std::vector<sim::Cycle> busyUntilEst_;     //!< est completion
    std::vector<uint64_t> costQ8_;             //!< per tenant
    std::vector<bool> calibrated_;             //!< per tenant
    std::vector<uint32_t> quota_;              //!< per tenant
    std::vector<sim::Cycle> lastUse_;          //!< [t * D + d], kNoCycle
    std::vector<uint64_t> servedSeq_;          //!< launches so far, per dev
    std::vector<uint64_t> lastServedSeq_;      //!< [t * D + d], 0 = never
    std::vector<uint64_t> dispatches_;         //!< per device
    std::vector<uint64_t> steals_;             //!< per (thief) device
    uint64_t stealsTotal_ = 0;
    uint64_t planned_ = 0;
    uint64_t nextBatchId_ = 0;
    std::string stealLog_;
};

} // namespace tta::service

#endif // TTA_SERVICE_SCHEDULER_HH
