/**
 * @file
 * Deterministic scheduling policies for the traversal service's
 * DeviceGroup dispatcher (service/service.hh). There are two:
 *
 *   - **lld** (least-loaded-first, the default): a ready batch goes to
 *     the idle device that has been idle longest (smallest
 *     last-completion cycle, ties to the lowest index), and only idle
 *     devices take batches. This is PR 9's dispatcher, decision for
 *     decision.
 *
 *   - **affinity**: tenant-to-device cache affinity on top of a
 *     service-time estimate. Tree traversal is memory-latency-bound, so
 *     what placement can win is L2 locality: after a device serves a
 *     tenant's batch, that tenant's tree is hot in the device's L2
 *     (device clocks are continuous across launches, so simulated cache
 *     warmth persists exactly as on real hardware).
 *
 *       * Cost model: a per-tenant online EWMA of cycles per query —
 *         integer fixed-point (Q8), seeded by a calibration probe
 *         launched before traffic and updated from every retired batch.
 *         It drives per-tenant dispatch thresholds (a lane becomes
 *         dispatchable by estimated service *time*, not query count)
 *         and estimated-completion-time placement.
 *       * Planning: a batch may be planned onto a busy device (a
 *         backlog of at most two batches), so it can wait for its warm
 *         device instead of landing on whichever frees first.
 *       * Warmth: the score predicts the cache state the batch will
 *         actually meet — a device with planned work is warm for the
 *         tenants of its queued batches, a busy device for the tenant
 *         in flight, an idle device for recently retired tenants — with
 *         the bonus, a fraction of the batch's estimated cost, decayed
 *         linearly over a residency window of batches and zero past a
 *         staleness bound on the virtual clock. Placement subtracts the
 *         bonus from a device's estimated-ready score, and tenant
 *         selection for the next device to take a batch uses the same
 *         score (queue.hh's bounded-lateness EDF), so batches chase
 *         their warm device but never starve waiting for it: the bonus
 *         is bounded, and the EDF slack window is too.
 *
 * Benches select a policy with `--sched=lld|affinity`. The tuning
 * values are constants in scheduler.cc, each with the reason for its
 * value.
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
    Affinity,    //!< "affinity": cost model + (tenant, device) warmth
};

const char *schedPolicyName(SchedPolicy p);

/** Parse "lld|affinity". @return false on unknown. */
bool parseSchedPolicy(const std::string &name, SchedPolicy &out);

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

    Scheduler(SchedPolicy policy, uint32_t num_devices,
              uint32_t num_tenants, uint32_t max_batch);

    SchedPolicy policy() const { return policy_; }
    bool affinity() const { return policy_ == SchedPolicy::Affinity; }

    // --- cost model ------------------------------------------------------

    /** Queries per calibration probe batch: one probe per (tenant,
     *  device) runs before traffic so the group stays symmetric. 0
     *  under lld, which has no cost model to seed. */
    uint32_t probeQueries() const;

    /** Seed tenant @p t's estimate from a calibration probe. */
    void calibrate(uint32_t t, uint64_t queries, sim::Cycle elapsed);

    /** Current cycles/query estimate, Q8 fixed point. */
    uint64_t costPerQueryQ8(uint32_t t) const { return costQ8_[t]; }

    /** Estimated service cycles of @p n queries of tenant @p t. */
    uint64_t estBatchCost(uint32_t t, uint64_t n) const;

    /** Per-tenant dispatch threshold: maxBatch under lld; under
     *  affinity sized so a lane becomes dispatchable once its queued queries
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
     *  lld: an idle device with no plan (PR 9's dispatch condition);
     *  under affinity: a device whose backlog is not full. */
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
    static sim::Cycle deadlineSlack();

    /** Plan a popped batch onto a device (see file header for the
     *  per-policy placement). A @p priority (latency-sensitive) batch is
     *  planned ahead of the device's queued throughput batches —
     *  behind its in-flight launch and earlier priority plans — so
     *  backlog planning never inverts the queue's strict SLO-class
     *  order. @return the chosen device. */
    uint32_t place(uint32_t tenant,
                   std::shared_ptr<std::vector<QueryTicket>> queries,
                   bool expired, bool priority, sim::Cycle now);

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

    /** Estimated load of device @p d at @p now: remaining estimated
     *  cycles of the in-flight batch plus every planned batch. */
    sim::Cycle estLoad(uint32_t d, sim::Cycle now) const;

  private:
    /** Warmth bonus of a batch of tenant @p t (estimated cost
     *  @p est_cost) appended to device @p d's backlog. */
    sim::Cycle warmthBonus(uint32_t t, uint32_t d, uint64_t est_cost,
                           sim::Cycle now) const;
    /** Backlog insert keeping priority batches ahead of throughput
     *  ones. */
    void enqueuePlanned(uint32_t d, Batch &&b);

    const SchedPolicy policy_;
    const uint32_t maxBatch_;

    std::vector<std::deque<Batch>> backlog_;   //!< per device, FIFO
    std::vector<uint64_t> backlogCost_;        //!< sum of estCost
    std::vector<bool> busy_;                   //!< launch in flight
    std::vector<sim::Cycle> freeAt_;           //!< last completion
    std::vector<sim::Cycle> busyUntilEst_;     //!< est completion
    std::vector<uint64_t> costQ8_;             //!< per tenant
    std::vector<uint32_t> quota_;              //!< per tenant
    std::vector<sim::Cycle> lastUse_;          //!< [t * D + d], kNoCycle
    std::vector<uint64_t> servedSeq_;          //!< launches so far, per dev
    std::vector<uint64_t> lastServedSeq_;      //!< [t * D + d], 0 = never
    std::vector<uint64_t> dispatches_;         //!< per device
    uint64_t planned_ = 0;
    uint64_t nextBatchId_ = 0;
};

} // namespace tta::service

#endif // TTA_SERVICE_SCHEDULER_HH
