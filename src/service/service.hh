/**
 * @file
 * TraversalService: a persistent query-serving layer on a DeviceGroup.
 *
 * One admission queue (queue.hh) feeds N long-lived simulated devices
 * (device_group.hh). Tenants (B-Tree lookups, radius searches, rays —
 * see tenants.hh) serialize their trees into every device and bind
 * dual-parity pipeline slots; a stream of client arrivals is admitted
 * into per-tenant FIFO lanes and dispatched as coalesced batches:
 *
 *   - a lane launches when it holds a full batch (policy.maxBatch),
 *   - or when its oldest query hits its SLO class's max-wait deadline
 *     (policy.maxWaitCycles / policy.lsMaxWaitCycles) — earliest
 *     deadline preempts the round-robin so no tenant starves behind
 *     another's full lanes in its class,
 *   - latency-sensitive lanes take strict priority over throughput
 *     lanes (queue.hh documents the full policy),
 *   - partial lanes flush once the traffic source is exhausted.
 *
 * Dispatcher: batch placement is delegated to the scheduler
 * (scheduler.hh), which has two policies (policy.sched). The default,
 * "lld", reproduces the original least-loaded-first dispatcher
 * decision-for-decision: a ready batch goes to the free device that
 * has been idle longest (smallest last-completion cycle, ties to the
 * lowest device index). "affinity" adds an EWMA service-time estimator
 * (seeded by a calibration probe run before traffic) and plans batches
 * onto the device whose L2 still holds their tenant's tree — a pure
 * function of the virtual clock too.
 *
 * Time model: the service keeps a virtual clock `now` in simulated
 * device cycles. Each device serves one batch at a time; a launch
 * issued at `now` on device d completes at `now + elapsed`, where
 * elapsed is the simulated cycle count returned by cmdTraverseTree
 * (each device's own clock is continuous across launches, so cache
 * warmth carries over exactly as it would on persistent hardware).
 * While devices are busy, later arrivals keep coalescing into lanes;
 * completed batches retire in (completion cycle, device index) order,
 * which fixes the order of latency recording, batch logging and
 * closed-loop feedback regardless of host timing.
 *
 * Host execution: with policy.pipelinedStaging, each device gets a
 * worker thread (DeviceGroup) so devices simulate concurrently and
 * batch verification never blocks the next launch; the scheduler
 * stages batch k+1 into the opposite staging parity while batch k is
 * in flight. With pipelinedStaging off, the identical protocol runs
 * inline on one thread.
 *
 * Determinism: every dispatch decision is a pure function of the
 * arrival trace and per-launch elapsed cycles. Arrival traces come
 * from seeded sim::Rng generators, and elapsed cycles are
 * bit-identical across simulation kernels and thread counts, so batch
 * composition, completion order, per-device logs and the latency
 * histograms are too — for any device count, staging mode and host
 * interleaving (tests/test_service.cc, tests/test_service_multidev.cc
 * hold the service to that).
 */

#ifndef TTA_SERVICE_SERVICE_HH
#define TTA_SERVICE_SERVICE_HH

#include <array>
#include <atomic>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "service/device_group.hh"
#include "service/latency.hh"
#include "service/queue.hh"
#include "service/scheduler.hh"
#include "service/tenants.hh"
#include "service/traffic.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace tta::service {

struct ServicePolicy
{
    /** Dispatch a lane once it holds this many queries. */
    uint32_t maxBatch = 256;
    /** ... or once its oldest query has waited this long
     *  (throughput-class lanes). */
    sim::Cycle maxWaitCycles = 50000;
    /** Max wait for latency-sensitive lanes; 0 = same as
     *  maxWaitCycles. */
    sim::Cycle lsMaxWaitCycles = 0;
    /** Devices in the group, one admission queue across all. */
    uint32_t numDevices = 1;
    /** Per-device worker threads with double-buffered staging/verify
     *  (bit-identical to the serial path, and no faster in the wall
     *  clock measured so far). */
    bool pipelinedStaging = true;
    /** Dispatch policy; LeastLoaded reproduces the pre-scheduler
     *  dispatcher bit-exactly (scheduler.hh). */
    SchedPolicy sched = SchedPolicy::LeastLoaded;
};

struct TenantReport
{
    std::string name;
    SloClass slo = SloClass::Throughput;
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t canceled = 0;
    uint64_t batches = 0;
    uint64_t verifySoftMismatches = 0;
    LatencyHistogram latency;   //!< completion - arrival, cycles
    LatencyHistogram queueWait; //!< dispatch - arrival, cycles
};

struct DeviceReport
{
    uint64_t batches = 0;
    uint64_t completed = 0;
    sim::Cycle busy = 0;     //!< sum of launch elapsed cycles
    sim::Cycle lastDone = 0; //!< last completion cycle
    LatencyHistogram latency;
    /** Per-device batch log, numbered per device: the per-device
     *  determinism oracle. */
    std::string batchLog;
};

struct ClassReport
{
    uint64_t completed = 0;
    LatencyHistogram latency;
    LatencyHistogram queueWait;
};

struct ServiceReport
{
    std::vector<TenantReport> tenants;
    std::vector<DeviceReport> devices;
    std::array<ClassReport, kNumSloClasses> classes;
    LatencyHistogram latency; //!< all tenants/devices merged
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t canceled = 0;
    uint64_t batches = 0;
    uint64_t expiredDispatches = 0; //!< launched by the deadline rule
    sim::Cycle makespan = 0;        //!< last completion cycle
    sim::Cycle deviceBusy = 0;      //!< sum over devices of busy
    /** Compact per-batch log (tenant, start, size, seq range, device)
     *  in retirement order for the first kMaxLoggedBatches batches:
     *  the determinism oracle. */
    std::string batchLog;

    /** Completed queries per million simulated cycles (aggregate
     *  across devices; the makespan is the shared virtual clock). */
    double throughputQpmc() const
    {
        return makespan
                   ? 1e6 * static_cast<double>(completed) / makespan
                   : 0.0;
    }
};

class TraversalService
{
  public:
    static constexpr uint64_t kMaxLoggedBatches = 8192;

    TraversalService(const sim::Config &cfg, sim::StatRegistry &stats,
                     const ServicePolicy &policy);

    /** Install a tenant on every device (serialize + bind dual-parity
     *  slots) in SLO class @p slo.
     *  @return tenant id (index into the queue lanes). */
    uint32_t addTenant(std::unique_ptr<Tenant> tenant,
                       SloClass slo = SloClass::Throughput);

    uint32_t numTenants() const
    {
        return static_cast<uint32_t>(tenants_.size());
    }
    Tenant &tenant(uint32_t id) { return *tenants_[id]; }
    uint32_t numDevices() const { return group_->size(); }
    ServiceDevice &device(uint32_t d = 0) { return group_->device(d); }
    const ServicePolicy &policy() const { return policy_; }

    /**
     * Serve one arrival trace to completion (admit, batch, launch,
     * verify, drain) and publish summary stats — including each
     * device's absorbed registry — into the service registry.
     * Call once per service instance.
     */
    ServiceReport run(TrafficSource &src);

  private:
    struct CancelEvent
    {
        sim::Cycle cycle;
        uint64_t seq;
        uint32_t tenant;
        bool operator>(const CancelEvent &o) const
        {
            return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
        }
    };

    /** One launched-but-not-retired batch on a device. */
    struct Inflight
    {
        bool active = false;
        uint32_t tenant = 0;
        uint32_t parity = 0;
        bool expired = false;         //!< deadline rule triggered it
        sim::Cycle start = 0;         //!< dispatch cycle
        sim::Cycle complete = kNoCycle; //!< kNoCycle until collected
        std::shared_ptr<std::vector<QueryTicket>> batch;
    };

    void admitUpTo(TrafficSource &src, sim::Cycle now,
                   ServiceReport &report);
    /** Stage + submit device @p d's next planned batch at now_. */
    void launchReady(uint32_t d, ServiceReport &report);
    /** Seed the scheduler's cost model: one unverified probe batch per
     *  (tenant, device) before traffic, so every device is uniformly
     *  warmed and tenant estimates start from a measurement instead of
     *  the static seed. No-op under lld. */
    void runCalibrationProbe();
    /** Block until device @p d's in-flight launch has a completion
     *  cycle (no-op when already known). */
    void ensureElapsed(uint32_t d, ServiceReport &report);
    /** Retire every in-flight batch with complete <= @p now in
     *  (completion, device) order. */
    void retireDue(sim::Cycle now, TrafficSource &src,
                   ServiceReport &report);
    void publishStats(const ServiceReport &report);
    sim::Cycle classMaxWait(SloClass cls) const;

    const sim::Config cfg_;
    sim::StatRegistry &stats_;
    ServicePolicy policy_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    std::vector<uint64_t> tenantSubmitted_; //!< payload round-robin
    AdmissionQueue queue_;
    std::priority_queue<CancelEvent, std::vector<CancelEvent>,
                        std::greater<CancelEvent>>
        cancels_;
    std::unique_ptr<Scheduler> scheduler_; //!< created in run()
    std::vector<Inflight> inflight_;      //!< per device
    std::vector<uint64_t> deviceLaunches_; //!< parity alternation
    //! worker-side verify mismatch tallies, summed after drain
    std::unique_ptr<std::atomic<uint64_t>[]> verifyMismatches_;
    uint64_t nextSeq_ = 0;
    sim::Cycle now_ = 0;
    bool ran_ = false;
    //! Declared last, so destroyed first: ~DeviceGroup joins the staging
    //! workers, and the verifies still queued on them (after a fatal in
    //! run(), say) read tenants_ and verifyMismatches_.
    std::unique_ptr<DeviceGroup> group_;
};

} // namespace tta::service

#endif // TTA_SERVICE_SERVICE_HH
