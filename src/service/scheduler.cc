#include "service/scheduler.hh"

#include "sim/logging.hh"

namespace tta::service {

namespace {

/** EWMA step for the cost model: alpha = 1 / 2^kEwmaShift. */
constexpr uint32_t kEwmaShift = 2;

/** Cycles/query assumed before any observation (quota math needs a
 *  nonzero estimate before the calibration probe lands). */
constexpr uint64_t kSeedCostCyclesPerQuery = 64;

/** Calibration probe batch size per tenant (clamped to maxBatch).
 *  Without the probe the estimates start from the static seed, and the
 *  first placements and quotas are made blind. */
constexpr uint32_t kProbeQueries = 64;

/** Smallest affinity dispatch threshold: the floor keeps a very pricey
 *  tenant from dispatching near-singleton batches under light load. */
constexpr uint32_t kMinQuota = 64;

/** Planned-but-unlaunched batches a device may hold. */
constexpr uint32_t kMaxBacklog = 2;

/** Warmth bonus at batch-age 1, in 1/256ths of the placed batch's
 *  estimated cost (256 = one batch). It exceeds one batch on purpose:
 *  in steady state the device that just freed a backlog slot is exactly
 *  one batch lighter than its peers, and the bonus must bridge that gap
 *  for a batch to wait for its warm device instead of landing on
 *  whichever freed first. */
constexpr uint32_t kWarmthBonusFrac256 = 384;

/** Residency window, in batches: a tenant counts as warm on a device
 *  while at most this many batches will have run there since its last
 *  one (age 1 = back-to-back). A device's L2 keeps a tenant's tree hot
 *  across a few intervening batches of its other resident tenants, so
 *  warmth must look further back than the immediately preceding batch
 *  or device "homes" drift; the bonus decays linearly to zero past the
 *  window. */
constexpr uint32_t kWarmthResidencyBatches = 3;

/** Staleness bound on the virtual clock: a tenant inside the residency
 *  window still counts as cold once this many cycles pass without it
 *  retiring on the device, so affinity never starves a long-idle (but
 *  batch-age-warm) device of fresh placements. */
constexpr sim::Cycle kWarmthStalenessCycles = 1u << 20;

/** Bounded-lateness EDF window for affinity tenant selection: among
 *  expired lanes, warmth may prefer a lane whose front deadline is at
 *  most this far behind the earliest. Under sustained overload every
 *  front deadline is expired, so without slack EDF order alone dictates
 *  dispatch and warmth never gets a say. */
constexpr sim::Cycle kDeadlineSlackCycles = 50000;

} // namespace

const char *
schedPolicyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::LeastLoaded:
        return "lld";
      case SchedPolicy::Affinity:
        return "affinity";
    }
    return "?";
}

bool
parseSchedPolicy(const std::string &name, SchedPolicy &out)
{
    for (SchedPolicy p : {SchedPolicy::LeastLoaded, SchedPolicy::Affinity}) {
        if (name == schedPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

Scheduler::Scheduler(SchedPolicy policy, uint32_t num_devices,
                     uint32_t num_tenants, uint32_t max_batch)
    : policy_(policy), maxBatch_(max_batch), backlog_(num_devices),
      backlogCost_(num_devices, 0), busy_(num_devices, false),
      freeAt_(num_devices, 0), busyUntilEst_(num_devices, 0),
      costQ8_(num_tenants, kSeedCostCyclesPerQuery << 8),
      quota_(num_tenants, max_batch),
      lastUse_(static_cast<size_t>(num_tenants) * num_devices,
               kNoCycle),
      servedSeq_(num_devices, 0),
      lastServedSeq_(static_cast<size_t>(num_tenants) * num_devices,
                     0),
      dispatches_(num_devices, 0)
{
    fatal_if(num_devices == 0, "Scheduler with zero devices");
    fatal_if(num_tenants == 0, "Scheduler with zero tenants");
    fatal_if(max_batch == 0, "Scheduler with maxBatch == 0");
}

uint32_t
Scheduler::probeQueries() const
{
    if (!affinity())
        return 0;
    return kProbeQueries < maxBatch_ ? kProbeQueries : maxBatch_;
}

void
Scheduler::calibrate(uint32_t t, uint64_t queries, sim::Cycle elapsed)
{
    fatal_if(queries == 0, "calibrate with zero queries");
    uint64_t q8 = (static_cast<uint64_t>(elapsed) << 8) / queries;
    costQ8_[t] = q8 ? q8 : 1;
}

uint64_t
Scheduler::estBatchCost(uint32_t t, uint64_t n) const
{
    uint64_t est = (costQ8_[t] * n) >> 8;
    return est ? est : 1;
}

void
Scheduler::refreshQuotas()
{
    if (!affinity())
        return; // lld: quotas stay pinned at maxBatch
    uint64_t minQ8 = costQ8_[0];
    for (uint64_t c : costQ8_)
        minQ8 = c < minQ8 ? c : minQ8;
    // Target dispatch threshold: a lane becomes dispatchable once its
    // queued queries cost about what a full (maxBatch) batch of the
    // cheapest tenant costs, so a pricey tenant launches sooner
    // instead of waiting to amass maxBatch queries. (The service pops
    // up to maxBatch regardless — see batchQuota's doc.)
    for (size_t t = 0; t < quota_.size(); ++t) {
        uint64_t q = (static_cast<uint64_t>(maxBatch_) * minQ8) /
                     costQ8_[t];
        if (q < kMinQuota)
            q = kMinQuota;
        if (q > maxBatch_)
            q = maxBatch_;
        quota_[t] = static_cast<uint32_t>(q);
    }
}

bool
Scheduler::hasRoom() const
{
    if (!affinity())
        return hasIdleDevice();
    for (uint32_t d = 0; d < backlog_.size(); ++d)
        if (backlog_[d].size() < kMaxBacklog)
            return true;
    return false;
}

bool
Scheduler::hasIdleDevice() const
{
    for (uint32_t d = 0; d < backlog_.size(); ++d)
        if (!busy_[d] && backlog_[d].empty())
            return true;
    return false;
}

uint32_t
Scheduler::nextPlacementDevice(sim::Cycle now) const
{
    int best = -1;
    sim::Cycle bestLoad = 0;
    for (uint32_t d = 0; d < backlog_.size(); ++d) {
        if (backlog_[d].size() >= kMaxBacklog)
            continue;
        sim::Cycle load = estLoad(d, now);
        if (best < 0 || load < bestLoad) {
            best = static_cast<int>(d);
            bestLoad = load;
        }
    }
    fatal_if(best < 0, "nextPlacementDevice called without room");
    return static_cast<uint32_t>(best);
}

std::vector<uint64_t>
Scheduler::warmthKeys(uint32_t d, sim::Cycle now) const
{
    std::vector<uint64_t> keys(costQ8_.size(), 0);
    for (uint32_t t = 0; t < keys.size(); ++t)
        keys[t] = warmthBonus(t, d, estBatchCost(t, quota_[t]), now);
    return keys;
}

sim::Cycle
Scheduler::deadlineSlack()
{
    return kDeadlineSlackCycles;
}

sim::Cycle
Scheduler::estLoad(uint32_t d, sim::Cycle now) const
{
    sim::Cycle load = backlogCost_[d];
    if (busy_[d] && busyUntilEst_[d] > now)
        load += busyUntilEst_[d] - now;
    return load;
}

sim::Cycle
Scheduler::warmthBonus(uint32_t t, uint32_t d, uint64_t est_cost,
                       sim::Cycle now) const
{
    // Predict the cache state the batch will meet, not the state now:
    // number the device's service sequence (launches so far, then the
    // planned backlog), find the most recent slot tenant t occupies
    // before the candidate's, and score by the batch distance. A
    // device's L2 keeps a tenant's tree hot across a few intervening
    // batches of its other resident tenants, so warmth reaches
    // kWarmthResidencyBatches back, decaying linearly with distance.
    const std::deque<Batch> &plan = backlog_[d];
    uint64_t cand = servedSeq_[d] + plan.size() + 1;
    uint64_t last =
        lastServedSeq_[static_cast<size_t>(t) * backlog_.size() + d];
    bool planned = false;
    for (size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].tenant == t) {
            last = servedSeq_[d] + i + 1;
            planned = true;
        }
    }
    if (last == 0 || cand - last > kWarmthResidencyBatches)
        return 0;
    if (!planned) {
        // Historical warmth additionally honors the staleness bound:
        // a long-idle device is cold no matter the batch distance. A
        // launch still in flight (no retire yet) is fresh by
        // construction.
        sim::Cycle used = lastUse_[static_cast<size_t>(t) *
                                       backlog_.size() + d];
        if (used != kNoCycle && now - used >= kWarmthStalenessCycles)
            return 0;
    }
    uint64_t base = (est_cost * kWarmthBonusFrac256) >> 8;
    uint64_t age = cand - last; // in [1, kWarmthResidencyBatches]
    return static_cast<sim::Cycle>(
        base - (age - 1) * (base / kWarmthResidencyBatches));
}

uint32_t
Scheduler::place(uint32_t tenant,
                 std::shared_ptr<std::vector<QueryTicket>> queries,
                 bool expired, bool priority, sim::Cycle now)
{
    fatal_if(!queries || queries->empty(), "place of an empty batch");
    Batch b;
    b.id = nextBatchId_++;
    b.tenant = tenant;
    b.estCost = estBatchCost(tenant, queries->size());
    b.expired = expired;
    b.priority = priority;
    b.queries = std::move(queries);

    int best = -1;
    if (!affinity()) {
        // PR 9's dispatcher: the idle unplanned device that has been
        // idle longest (smallest last-completion cycle, ties to the
        // lowest index).
        for (uint32_t d = 0; d < backlog_.size(); ++d) {
            if (busy_[d] || !backlog_[d].empty())
                continue;
            if (best < 0 ||
                freeAt_[d] < freeAt_[static_cast<uint32_t>(best)])
                best = static_cast<int>(d);
        }
    } else {
        // Estimated-ready score minus the (bounded, decayed) warmth
        // bonus. Ties to the lowest index.
        uint64_t bestScore = 0;
        for (uint32_t d = 0; d < backlog_.size(); ++d) {
            if (backlog_[d].size() >= kMaxBacklog)
                continue;
            uint64_t ready = now + estLoad(d, now);
            sim::Cycle bonus = warmthBonus(tenant, d, b.estCost, now);
            ready = ready > bonus ? ready - bonus : 0;
            if (best < 0 || ready < bestScore) {
                best = static_cast<int>(d);
                bestScore = ready;
            }
        }
    }
    fatal_if(best < 0, "place called without room");
    uint32_t d = static_cast<uint32_t>(best);
    enqueuePlanned(d, std::move(b));
    ++planned_;
    return d;
}

void
Scheduler::enqueuePlanned(uint32_t d, Batch &&b)
{
    backlogCost_[d] += b.estCost;
    if (b.priority) {
        // Keep the queue's strict SLO-class order through planning: a
        // latency-sensitive batch runs before the device's queued
        // throughput batches (but after earlier priority plans).
        auto it = backlog_[d].begin();
        while (it != backlog_[d].end() && it->priority)
            ++it;
        backlog_[d].insert(it, std::move(b));
    } else {
        backlog_[d].push_back(std::move(b));
    }
}

Scheduler::Batch
Scheduler::takeReady(uint32_t d)
{
    fatal_if(backlog_[d].empty(), "takeReady on an empty backlog");
    Batch b = std::move(backlog_[d].front());
    backlog_[d].pop_front();
    backlogCost_[d] -= b.estCost;
    --planned_;
    return b;
}

void
Scheduler::onLaunch(uint32_t d, const Batch &b, sim::Cycle now)
{
    fatal_if(busy_[d], "launch on a busy device");
    busy_[d] = true;
    busyUntilEst_[d] = now + b.estCost;
    ++servedSeq_[d];
    lastServedSeq_[static_cast<size_t>(b.tenant) * backlog_.size() +
                   d] = servedSeq_[d];
    ++dispatches_[d];
}

void
Scheduler::onRetire(uint32_t d, uint32_t tenant, uint64_t queries,
                    sim::Cycle complete, sim::Cycle elapsed)
{
    fatal_if(!busy_[d], "retire on an idle device");
    busy_[d] = false;
    freeAt_[d] = complete;
    busyUntilEst_[d] = complete;
    lastUse_[static_cast<size_t>(tenant) * backlog_.size() + d] =
        complete;
    if (!affinity() || queries == 0)
        return;
    // Integer EWMA on the Q8 cycles/query estimate: signed step toward
    // the sample, alpha = 1 / 2^kEwmaShift.
    int64_t sample =
        static_cast<int64_t>((static_cast<uint64_t>(elapsed) << 8) /
                             queries);
    int64_t cur = static_cast<int64_t>(costQ8_[tenant]);
    int64_t next = cur + ((sample - cur) >> kEwmaShift);
    costQ8_[tenant] = next > 0 ? static_cast<uint64_t>(next) : 1;
}

} // namespace tta::service
