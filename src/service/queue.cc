#include "service/queue.hh"

#include "sim/logging.hh"

namespace tta::service {

const char *
sloClassName(SloClass c)
{
    switch (c) {
      case SloClass::LatencySensitive:
        return "latency";
      case SloClass::Throughput:
        return "throughput";
    }
    return "?";
}

AdmissionQueue::AdmissionQueue(uint32_t num_tenants)
    : lanes_(num_tenants), live_(num_tenants, 0),
      laneClass_(num_tenants, SloClass::Throughput)
{
    fatal_if(num_tenants == 0, "AdmissionQueue with zero tenants");
}

uint32_t
AdmissionQueue::addLane(SloClass cls)
{
    lanes_.emplace_back();
    live_.push_back(0);
    laneClass_.push_back(cls);
    return static_cast<uint32_t>(lanes_.size() - 1);
}

void
AdmissionQueue::enqueue(const QueryTicket &t)
{
    fatal_if(t.tenant >= lanes_.size(), "enqueue to unknown tenant %u",
             t.tenant);
    auto &lane = lanes_[t.tenant];
    fatal_if(!lane.empty() && lane.back().ticket.arrival > t.arrival,
             "tenant %u: arrivals out of order (%llu after %llu)",
             t.tenant, (unsigned long long)t.arrival,
             (unsigned long long)lane.back().ticket.arrival);
    lane.push_back({t, false});
    ++live_[t.tenant];
}

bool
AdmissionQueue::cancel(uint32_t tenant, uint64_t seq)
{
    fatal_if(tenant >= lanes_.size(), "cancel on unknown tenant %u",
             tenant);
    for (auto &e : lanes_[tenant]) {
        if (e.ticket.seq != seq)
            continue;
        if (e.canceled)
            return false;
        e.canceled = true;
        --live_[tenant];
        dropDeadFront(tenant);
        return true;
    }
    return false; // already dispatched
}

uint64_t
AdmissionQueue::pendingTotal() const
{
    uint64_t total = 0;
    for (uint64_t n : live_)
        total += n;
    return total;
}

size_t
AdmissionQueue::frontLive(uint32_t tenant) const
{
    const auto &lane = lanes_[tenant];
    for (size_t i = 0; i < lane.size(); ++i)
        if (!lane[i].canceled)
            return i;
    return SIZE_MAX;
}

void
AdmissionQueue::dropDeadFront(uint32_t tenant)
{
    auto &lane = lanes_[tenant];
    while (!lane.empty() && lane.front().canceled)
        lane.pop_front();
}

sim::Cycle
AdmissionQueue::frontDeadline(uint32_t tenant) const
{
    size_t i = frontLive(tenant);
    return i == SIZE_MAX ? kNoCycle : lanes_[tenant][i].ticket.deadline;
}

sim::Cycle
AdmissionQueue::earliestDeadline() const
{
    sim::Cycle best = kNoCycle;
    for (uint32_t t = 0; t < lanes_.size(); ++t) {
        size_t i = frontLive(t);
        if (i != SIZE_MAX && lanes_[t][i].ticket.deadline < best)
            best = lanes_[t][i].ticket.deadline;
    }
    return best;
}

template <typename QuotaFn, typename PreferFn>
int
AdmissionQueue::selectTenantWith(sim::Cycle now, QuotaFn quota,
                                 PreferFn prefer, bool drain,
                                 sim::Cycle slack)
{
    // Classes in strict priority order; the first class with any
    // dispatchable work (expired deadline, full lane, or drain flush)
    // wins outright.
    for (uint32_t c = 0; c < kNumSloClasses; ++c) {
        SloClass cls = static_cast<SloClass>(c);

        // Rule 1: earliest expired deadline in the class wins (ties ->
        // lowest tenant id). With a nonzero slack this is
        // bounded-lateness EDF: among the expired lanes whose front
        // deadline is within @p slack of the earliest, the highest
        // preference score wins (equal scores fall back to earliest
        // deadline, then lowest id — so slack == 0 or an all-zero
        // preference is exact EDF). Lateness stays bounded: every
        // pass-over pops some lane whose deadline is inside the
        // window, and arrivals only ever append later deadlines, so
        // after at most one pop per other lane in the class the
        // earliest lane is the only candidate left.
        sim::Cycle earliest = kNoCycle;
        for (uint32_t t = 0; t < lanes_.size(); ++t) {
            if (laneClass_[t] != cls)
                continue;
            size_t i = frontLive(t);
            if (i == SIZE_MAX)
                continue;
            sim::Cycle d = lanes_[t][i].ticket.deadline;
            if (d <= now && d < earliest)
                earliest = d;
        }
        if (earliest != kNoCycle) {
            int edf = -1;
            sim::Cycle edf_deadline = kNoCycle;
            uint64_t edf_pref = 0;
            for (uint32_t t = 0; t < lanes_.size(); ++t) {
                if (laneClass_[t] != cls)
                    continue;
                size_t i = frontLive(t);
                if (i == SIZE_MAX)
                    continue;
                sim::Cycle d = lanes_[t][i].ticket.deadline;
                if (d > now || d - earliest > slack)
                    continue;
                uint64_t p = prefer(t);
                if (edf < 0 || p > edf_pref ||
                    (p == edf_pref && d < edf_deadline)) {
                    edf = static_cast<int>(t);
                    edf_deadline = d;
                    edf_pref = p;
                }
            }
            return edf;
        }

        // Rule 2 (full batches) / rule 3 (drain): round-robin scan on
        // the class's own cursor; the highest preference score among
        // the candidates wins (only a strictly greater score displaces
        // an earlier candidate, so a constant preference reduces to
        // plain round-robin).
        int best = -1;
        uint64_t best_pref = 0;
        for (uint32_t k = 0; k < lanes_.size(); ++k) {
            uint32_t t = (rrCursor_[c] + k) %
                         static_cast<uint32_t>(lanes_.size());
            if (laneClass_[t] != cls)
                continue;
            if (live_[t] < quota(t) && !(drain && live_[t] > 0))
                continue;
            uint64_t p = prefer(t);
            if (best < 0 || p > best_pref) {
                best = static_cast<int>(t);
                best_pref = p;
            }
        }
        if (best >= 0)
            return best;
    }
    return -1;
}

int
AdmissionQueue::selectTenant(sim::Cycle now, uint32_t max_batch,
                             bool drain)
{
    fatal_if(max_batch == 0, "selectTenant with max_batch == 0");
    return selectTenantWith(
        now, [max_batch](uint32_t) { return max_batch; },
        [](uint32_t) { return uint64_t{0}; }, drain, 0);
}

int
AdmissionQueue::selectTenant(sim::Cycle now,
                             const std::vector<uint32_t> &quota,
                             bool drain,
                             const std::vector<uint64_t> &prefer,
                             sim::Cycle slack)
{
    fatal_if(quota.size() != lanes_.size(),
             "selectTenant quota vector has %zu entries for %zu lanes",
             quota.size(), lanes_.size());
    fatal_if(prefer.size() != lanes_.size(),
             "selectTenant prefer vector has %zu entries for %zu lanes",
             prefer.size(), lanes_.size());
    for (uint32_t q : quota)
        fatal_if(q == 0, "selectTenant with a zero quota");
    return selectTenantWith(
        now, [&quota](uint32_t t) { return quota[t]; },
        [&prefer](uint32_t t) { return prefer[t]; }, drain, slack);
}

std::vector<QueryTicket>
AdmissionQueue::popBatch(uint32_t tenant, uint32_t max_batch)
{
    fatal_if(tenant >= lanes_.size(), "popBatch on unknown tenant %u",
             tenant);
    std::vector<QueryTicket> batch;
    auto &lane = lanes_[tenant];
    while (!lane.empty() && batch.size() < max_batch) {
        Entry e = lane.front();
        lane.pop_front();
        if (e.canceled)
            continue;
        batch.push_back(e.ticket);
        --live_[tenant];
    }
    rrCursor_[static_cast<uint32_t>(laneClass_[tenant])] =
        (tenant + 1) % static_cast<uint32_t>(lanes_.size());
    return batch;
}

} // namespace tta::service
