/**
 * @file
 * Admission queue for the traversal service (src/service/service.hh).
 *
 * One FIFO lane per tenant; every lane belongs to an SLO class
 * (latency-sensitive or throughput). The dispatch policy walks the
 * classes in strict priority order (latency-sensitive first) and,
 * within the first class that has dispatchable work, selects a tenant
 * when
 *
 *  1. any tenant's oldest live query has an expired max-wait deadline —
 *     earliest deadline first (ties to the lowest tenant id), or
 *  2. any tenant has a full batch pending — round-robin among them, or
 *  3. the traffic source is drained — round-robin among the non-empty
 *     lanes, flushing partial batches.
 *
 * Each class keeps its own round-robin cursor, so a burst on one class
 * never perturbs the other class's fairness rotation. With every lane
 * in a single class the policy reduces exactly to the original
 * classless queue (one EDF scan, one cursor).
 *
 * Rule 1 bounds starvation within a class: a query's wait is never
 * extended past its deadline by another tenant's full batches in the
 * same class (the fuzz suite in tests/test_service_queue.cc asserts
 * this under randomized enqueue/cancel interleavings, including mixed
 * classes). Across classes the priority is strict: throughput lanes
 * only launch while no latency-sensitive lane has dispatchable work,
 * so their bound additionally depends on the latency-sensitive load
 * leaving device capacity. Cancels are lazy — entries stay in place
 * flagged canceled and are skipped by dispatch — so live order within
 * a tenant is submission order, always.
 *
 * Everything here is plain integer state driven by explicit cycle
 * timestamps: identical call sequences produce identical batches on
 * any host, thread count or simulation kernel.
 */

#ifndef TTA_SERVICE_QUEUE_HH
#define TTA_SERVICE_QUEUE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/ticked.hh"

namespace tta::service {

/** "No cycle": sorts after every real cycle. */
inline constexpr sim::Cycle kNoCycle = ~sim::Cycle{0};

/** Per-tenant SLO class. Order is dispatch priority (lower = first). */
enum class SloClass : uint8_t
{
    LatencySensitive = 0,
    Throughput = 1,
};

inline constexpr uint32_t kNumSloClasses = 2;

const char *sloClassName(SloClass c);

/** One admitted query, queued until it joins a batch. */
struct QueryTicket
{
    uint64_t seq = 0;     //!< global submission sequence, unique
    uint32_t tenant = 0;  //!< tenant lane
    uint32_t client = 0;  //!< issuing simulated client
    uint32_t payload = 0; //!< index into the tenant's payload pool
    sim::Cycle arrival = 0;
    sim::Cycle deadline = 0; //!< arrival + the class's max-wait
};

class AdmissionQueue
{
  public:
    AdmissionQueue() = default;
    /** All lanes in the throughput class (the classless legacy shape). */
    explicit AdmissionQueue(uint32_t num_tenants);

    /** Append an empty lane in @p cls; @return its tenant id. */
    uint32_t addLane(SloClass cls = SloClass::Throughput);

    SloClass laneClass(uint32_t tenant) const
    {
        return laneClass_[tenant];
    }

    /** Append to the tenant's lane. Arrival times must be
     *  nondecreasing per tenant (FIFO == arrival order). */
    void enqueue(const QueryTicket &t);

    /**
     * Cancel a still-queued query by (tenant, seq).
     * @return true if it was live (now dropped from dispatch), false
     *         if it already left in a batch or was already canceled.
     */
    bool cancel(uint32_t tenant, uint64_t seq);

    /** Live (non-canceled) queued entries for one tenant / overall. */
    uint64_t pending(uint32_t tenant) const { return live_[tenant]; }
    uint64_t pendingTotal() const;

    /** Earliest deadline among the live front entries, or kNoCycle. */
    sim::Cycle earliestDeadline() const;

    /** Deadline of the tenant's oldest live entry, or kNoCycle when
     *  the lane is empty. */
    sim::Cycle frontDeadline(uint32_t tenant) const;

    /**
     * Dispatch decision at time @p now (see file header for the
     * policy). @return tenant id, or -1 when nothing should launch.
     */
    int selectTenant(sim::Cycle now, uint32_t max_batch, bool drain);

    /**
     * Affinity variant. Rule 2's "full batch" test uses a per-tenant
     * @p quota (service::Scheduler derives quotas from estimated
     * service cost) instead of one shared max_batch. The class priority
     * walk is unchanged, but the highest @p prefer score wins among the
     * candidates of the rule that fires — rule 1 becomes
     * bounded-lateness EDF (candidates are the expired lanes whose
     * front deadline is within @p slack of the earliest; equal scores
     * fall back to earliest-deadline, lowest id), rules 2/3 replace
     * plain round-robin (ties resolve in round-robin scan order). With
     * an all-zero @p prefer, @p slack == 0 and every quota equal to
     * max_batch this is byte-identical to the scalar overload. The
     * service passes per-(tenant, device) cache-warmth scores so a
     * device re-pulls the tenant whose tree it has hot. Starvation
     * stays bounded: a lane can only be passed over for other lanes
     * inside the slack window, each pass-over pops one of them past
     * it, and new arrivals only append later deadlines.
     */
    int selectTenant(sim::Cycle now, const std::vector<uint32_t> &quota,
                     bool drain, const std::vector<uint64_t> &prefer,
                     sim::Cycle slack);

    /**
     * Pop up to @p max_batch live tickets from the tenant's lane in
     * submission order, discarding canceled entries as they surface.
     * Advances the tenant's class round-robin cursor past @p tenant.
     */
    std::vector<QueryTicket> popBatch(uint32_t tenant,
                                      uint32_t max_batch);

    uint32_t numTenants() const
    {
        return static_cast<uint32_t>(lanes_.size());
    }

  private:
    struct Entry
    {
        QueryTicket ticket;
        bool canceled = false;
    };

    /** Shared policy walk; @p quota maps tenant -> rule-2 threshold,
     *  @p prefer maps tenant -> selection score (higher wins), and
     *  @p slack widens rule 1's candidate window (bounded-lateness
     *  EDF). */
    template <typename QuotaFn, typename PreferFn>
    int selectTenantWith(sim::Cycle now, QuotaFn quota, PreferFn prefer,
                         bool drain, sim::Cycle slack);

    /** Index of the first live entry in a lane, or SIZE_MAX. */
    size_t frontLive(uint32_t tenant) const;
    void dropDeadFront(uint32_t tenant);

    std::vector<std::deque<Entry>> lanes_;
    std::vector<uint64_t> live_;
    std::vector<SloClass> laneClass_;
    uint32_t rrCursor_[kNumSloClasses] = {0, 0};
};

} // namespace tta::service

#endif // TTA_SERVICE_QUEUE_HH
