/**
 * @file
 * Property/fuzz tests for the service admission queue
 * (service/queue.hh) under randomized enqueue/cancel/deadline
 * interleavings, checked against an independently written shadow model
 * of the dispatch policy. 500+ seeds; per seed we assert:
 *
 *  - no query is dropped or duplicated: every enqueued seq is either
 *    dispatched exactly once or successfully canceled exactly once,
 *  - batches preserve submission order within a tenant,
 *  - with an always-free device, no dispatch happens after the front
 *    query's deadline (rule 1 bounds starvation),
 *  - every selectTenant decision matches the shadow policy (strict
 *    SLO-class priority; within a class EDF with lowest-id ties, then
 *    round-robin full lanes / round-robin drain on per-class cursors),
 *  - a throughput lane never launches while any latency-sensitive lane
 *    has dispatchable work (strict class priority).
 *
 * Two thirds of the seeds mix latency-sensitive and throughput lanes
 * (with a tighter latency-class deadline); the rest keep every lane in
 * the throughput class, pinning the single-class reduction to the
 * original classless policy. The seeds also rotate through both
 * selectTenant overloads: the affinity overload with per-tenant quota
 * vectors alone (zero preferences, zero slack), with preference scores
 * under a bounded-lateness slack, or both, and the scalar path, so
 * every overload is checked against the one generalized shadow policy.
 *
 * A second fuzz (SchedulerFuzz) drives two identical
 * service/scheduler.hh instances, alternating the lld and affinity
 * policies, through random place / launch / retire traces and asserts:
 * replay identity (placements and launch order are pure functions of
 * the call sequence), conservation (every placed batch launches exactly
 * once), quota bounds and monotonicity, the documented backlog order
 * via a mirror (priority batches ahead of throughput ones), and that a
 * throughput launch never bypasses a planned priority batch — no SLO
 * inversion through backlog planning.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <queue>
#include <vector>

#include "service/queue.hh"
#include "service/scheduler.hh"
#include "sim/rng.hh"

using namespace tta::service;
using tta::sim::Cycle;
using tta::sim::Rng;

namespace {

/** Independent reimplementation of the lane state + dispatch policy. */
class ShadowQueue
{
  public:
    explicit ShadowQueue(std::vector<SloClass> classes)
        : classes_(std::move(classes)), lanes_(classes_.size())
    {
    }

    void
    enqueue(const QueryTicket &t)
    {
        lanes_[t.tenant].push_back({t.seq, t.deadline, false});
    }

    bool
    cancel(uint32_t tenant, uint64_t seq)
    {
        for (auto &e : lanes_[tenant])
            if (e.seq == seq)
                return e.canceled ? false : (e.canceled = true, true);
        return false;
    }

    uint64_t
    live(uint32_t tenant) const
    {
        uint64_t n = 0;
        for (const auto &e : lanes_[tenant])
            n += !e.canceled;
        return n;
    }

    uint64_t
    liveTotal() const
    {
        uint64_t n = 0;
        for (uint32_t t = 0; t < lanes_.size(); ++t)
            n += live(t);
        return n;
    }

    /** Deadline of the oldest live entry, or kNoCycle. */
    Cycle
    frontDeadline(uint32_t tenant) const
    {
        for (const auto &e : lanes_[tenant])
            if (!e.canceled)
                return e.deadline;
        return kNoCycle;
    }

    Cycle
    earliestDeadline() const
    {
        Cycle best = kNoCycle;
        for (uint32_t t = 0; t < lanes_.size(); ++t)
            best = std::min(best, frontDeadline(t));
        return best;
    }

    int
    selectTenant(Cycle now, uint32_t max_batch, bool drain) const
    {
        return selectTenant(
            now, std::vector<uint32_t>(lanes_.size(), max_batch), drain,
            std::vector<uint64_t>(lanes_.size(), 0), 0);
    }

    int
    selectTenant(Cycle now, const std::vector<uint32_t> &quota,
                 bool drain, const std::vector<uint64_t> &prefer,
                 Cycle slack) const
    {
        // Strict class priority: the first class (by enum order) with
        // any dispatchable work wins outright.
        for (uint32_t c = 0; c < kNumSloClasses; ++c) {
            SloClass cls = static_cast<SloClass>(c);
            // Rule 1, bounded-lateness EDF: among the expired fronts
            // within @p slack of the earliest, the highest preference
            // wins, then the earliest deadline, then the lowest id —
            // so zero slack / all-zero preference is exact EDF.
            Cycle earliest = kNoCycle;
            for (uint32_t t = 0; t < lanes_.size(); ++t) {
                if (classes_[t] != cls)
                    continue;
                Cycle dl = frontDeadline(t);
                if (dl <= now && dl < earliest)
                    earliest = dl;
            }
            if (earliest != kNoCycle) {
                int best = -1;
                Cycle best_dl = kNoCycle;
                uint64_t best_p = 0;
                for (uint32_t t = 0; t < lanes_.size(); ++t) {
                    if (classes_[t] != cls)
                        continue;
                    Cycle dl = frontDeadline(t);
                    if (dl > now || dl - earliest > slack)
                        continue;
                    if (best < 0 || prefer[t] > best_p ||
                        (prefer[t] == best_p && dl < best_dl)) {
                        best = static_cast<int>(t);
                        best_dl = dl;
                        best_p = prefer[t];
                    }
                }
                return best;
            }
            // Rules 2+3 share one round-robin scan on the class's own
            // cursor: a lane is dispatchable when it meets its quota,
            // or is merely non-empty once the source is drained; the
            // highest preference among the candidates wins, and only a
            // strictly greater score displaces an earlier candidate
            // (so a constant preference is plain round-robin).
            int best = -1;
            uint64_t best_p = 0;
            for (uint32_t i = 0; i < lanes_.size(); ++i) {
                uint32_t t = (cursor_[c] + i) % lanes_.size();
                if (classes_[t] != cls)
                    continue;
                if (live(t) >= quota[t] || (drain && live(t) > 0)) {
                    if (best < 0 || prefer[t] > best_p) {
                        best = static_cast<int>(t);
                        best_p = prefer[t];
                    }
                }
            }
            if (best >= 0)
                return best;
        }
        return -1;
    }

    std::vector<uint64_t>
    popBatch(uint32_t tenant, uint32_t max_batch)
    {
        std::vector<uint64_t> seqs;
        auto &lane = lanes_[tenant];
        while (!lane.empty() && seqs.size() < max_batch) {
            Entry e = lane.front();
            lane.pop_front();
            if (!e.canceled)
                seqs.push_back(e.seq);
        }
        // Trim canceled leftovers so frontDeadline stays O(live).
        while (!lane.empty() && lane.front().canceled)
            lane.pop_front();
        cursor_[static_cast<uint32_t>(classes_[tenant])] =
            (tenant + 1) % static_cast<uint32_t>(lanes_.size());
        return seqs;
    }

  private:
    struct Entry
    {
        uint64_t seq;
        Cycle deadline;
        bool canceled;
    };
    std::vector<SloClass> classes_;
    std::vector<std::deque<Entry>> lanes_;
    uint32_t cursor_[kNumSloClasses] = {0, 0};
};

struct FuzzResult
{
    uint64_t dispatched = 0;
    uint64_t canceled = 0;
};

/** Drive AdmissionQueue + ShadowQueue through one random trace.
 *  (void so ASSERT_* may bail out; totals accumulate into @p res.) */
void
fuzzOne(uint64_t seed, FuzzResult &res)
{
    Rng rng(seed);
    const uint32_t numTenants = 1 + static_cast<uint32_t>(
        rng.nextBounded(4));
    const uint32_t maxBatch = 1 + static_cast<uint32_t>(
        rng.nextBounded(8));
    const Cycle maxWait = 10 + rng.nextBounded(100);
    const uint64_t numArrivals = 50 + rng.nextBounded(400);
    const bool instantService = (seed % 2) == 0;

    // Rotate the selectTenant overloads: some seeds drive per-tenant
    // quota vectors alone through the affinity overload (zero
    // preferences, zero slack), some add preference scores under a
    // bounded-lateness slack, and the rest stay on the scalar path so
    // its reduction keeps getting pinned.
    const uint32_t mode = seed % 5;
    const bool useQuota = mode == 1 || mode == 3;
    const bool usePrefer = mode == 3 || mode == 4;
    const Cycle slack = usePrefer ? rng.nextBounded(2 * maxWait) : 0;

    // 2/3 of seeds mix SLO classes; the rest stay all-throughput and
    // pin the single-class reduction to the classless policy.
    const bool mixedClasses = seed % 3 != 0;
    std::vector<SloClass> classes(numTenants, SloClass::Throughput);
    if (mixedClasses) {
        for (auto &c : classes)
            c = rng.nextBounded(2) ? SloClass::LatencySensitive
                                   : SloClass::Throughput;
    }
    // Latency-sensitive lanes get a tighter deadline, like the service.
    const Cycle lsWait = 1 + maxWait / 5;
    auto waitOf = [&](uint32_t tenant) {
        return classes[tenant] == SloClass::LatencySensitive ? lsWait
                                                             : maxWait;
    };

    // Pre-generate the arrival trace (nondecreasing cycles) and the
    // cancel requests keyed off each arrival.
    struct Arr
    {
        Cycle cycle;
        uint32_t tenant;
        Cycle cancelAt; //!< kNoCycle = never
    };
    std::vector<Arr> arrivals;
    Cycle t = 0;
    for (uint64_t i = 0; i < numArrivals; ++i) {
        t += rng.nextBounded(20);
        Arr a;
        a.cycle = t;
        a.tenant = static_cast<uint32_t>(rng.nextBounded(numTenants));
        a.cancelAt = rng.nextBounded(10) < 3
                         ? t + rng.nextBounded(2 * maxWait)
                         : kNoCycle;
        arrivals.push_back(a);
    }

    AdmissionQueue q;
    for (SloClass c : classes)
        q.addLane(c);
    ShadowQueue shadow(classes);

    struct Cancel
    {
        Cycle cycle;
        uint64_t seq;
        uint32_t tenant;
        bool operator>(const Cancel &o) const
        {
            return cycle != o.cycle ? cycle > o.cycle : seq > o.seq;
        }
    };
    std::priority_queue<Cancel, std::vector<Cancel>, std::greater<Cancel>>
        cancels;

    std::map<uint64_t, Cycle> deadlineOf;
    std::map<uint64_t, uint32_t> tenantOf;
    std::map<uint64_t, int> timesDispatched;
    std::map<uint64_t, int> timesCanceled;
    std::vector<uint64_t> lastSeq(numTenants, 0);
    std::vector<bool> lastSeqValid(numTenants, false);

    size_t idx = 0;
    uint64_t nextSeq = 0;
    uint64_t dispatched = 0, canceled = 0;
    Cycle now = 0, freeAt = 0;

    for (int guard = 0; guard < 1000000; ++guard) {
        while (idx < arrivals.size() && arrivals[idx].cycle <= now) {
            const Arr &a = arrivals[idx++];
            QueryTicket ticket;
            ticket.seq = nextSeq++;
            ticket.tenant = a.tenant;
            ticket.arrival = a.cycle;
            ticket.deadline = a.cycle + waitOf(a.tenant);
            q.enqueue(ticket);
            shadow.enqueue(ticket);
            deadlineOf[ticket.seq] = ticket.deadline;
            tenantOf[ticket.seq] = a.tenant;
            if (a.cancelAt != kNoCycle)
                cancels.push({a.cancelAt, ticket.seq, a.tenant});
        }
        while (!cancels.empty() && cancels.top().cycle <= now) {
            Cancel c = cancels.top();
            cancels.pop();
            bool ok = q.cancel(c.tenant, c.seq);
            bool shadowOk = shadow.cancel(c.tenant, c.seq);
            EXPECT_EQ(ok, shadowOk) << "seed " << seed << " seq "
                                    << c.seq;
            if (ok) {
                ++timesCanceled[c.seq];
                ++canceled;
            }
        }

        // The two implementations must agree on all observable state.
        EXPECT_EQ(q.pendingTotal(), shadow.liveTotal());
        EXPECT_EQ(q.earliestDeadline(), shadow.earliestDeadline());
        for (uint32_t tn = 0; tn < numTenants; ++tn)
            EXPECT_EQ(q.pending(tn), shadow.live(tn));

        bool drain = idx == arrivals.size();
        bool dispatchedThisIter = false;
        if (now >= freeAt) {
            // Fresh quota/preference vectors each dispatch tick, like
            // the scheduler refreshing them from moving estimates.
            std::vector<uint32_t> quota(numTenants, maxBatch);
            if (useQuota)
                for (auto &qt : quota)
                    qt = 1 + static_cast<uint32_t>(
                             rng.nextBounded(maxBatch));
            std::vector<uint64_t> prefer(numTenants, 0);
            if (usePrefer)
                for (auto &p : prefer)
                    p = rng.nextBounded(4); // small range: exercise ties
            int sel =
                useQuota || usePrefer
                    ? q.selectTenant(now, quota, drain, prefer, slack)
                    : q.selectTenant(now, maxBatch, drain);
            EXPECT_EQ(sel,
                      shadow.selectTenant(now, quota, drain, prefer,
                                          slack))
                << "seed " << seed << " now " << now;
            if (sel >= 0) {
                uint32_t tenant = static_cast<uint32_t>(sel);
                Cycle frontDl = shadow.frontDeadline(tenant);
                std::vector<QueryTicket> batch =
                    q.popBatch(tenant, maxBatch);
                std::vector<uint64_t> expect =
                    shadow.popBatch(tenant, maxBatch);
                ASSERT_EQ(batch.size(), expect.size()) << "seed "
                                                       << seed;
                for (size_t i = 0; i < batch.size(); ++i) {
                    const QueryTicket &ticket = batch[i];
                    EXPECT_EQ(ticket.seq, expect[i]);
                    EXPECT_EQ(ticket.tenant, tenant);
                    EXPECT_EQ(ticket.deadline, deadlineOf[ticket.seq]);
                    // Submission order within a tenant, across batches.
                    if (lastSeqValid[tenant]) {
                        EXPECT_GT(ticket.seq, lastSeq[tenant]);
                    }
                    lastSeq[tenant] = ticket.seq;
                    lastSeqValid[tenant] = true;
                    ++timesDispatched[ticket.seq];
                    ++dispatched;
                    // Rule 1 starvation bound: with the device always
                    // free, nothing launches past its deadline.
                    if (instantService) {
                        EXPECT_LE(now, ticket.deadline)
                            << "seed " << seed << " seq " << ticket.seq;
                    }
                }
                ASSERT_FALSE(batch.empty());
                // If the dispatch was deadline-driven, bounded-lateness
                // EDF within the class: no same-class tenant can hold a
                // live expired deadline more than the slack earlier.
                if (frontDl <= now) {
                    Cycle floor = frontDl > slack ? frontDl - slack : 0;
                    for (uint32_t o = 0; o < numTenants; ++o) {
                        if (o != tenant &&
                            classes[o] == classes[tenant]) {
                            EXPECT_GE(shadow.frontDeadline(o), floor)
                                << "seed " << seed;
                        }
                    }
                }
                // Strict class priority: a throughput launch implies
                // no latency-sensitive lane had dispatchable work
                // (against its own quota).
                if (classes[tenant] == SloClass::Throughput) {
                    for (uint32_t o = 0; o < numTenants; ++o) {
                        if (classes[o] != SloClass::LatencySensitive)
                            continue;
                        EXPECT_FALSE(shadow.frontDeadline(o) <= now ||
                                     shadow.live(o) >= quota[o] ||
                                     (drain && shadow.live(o) > 0))
                            << "seed " << seed << ": throughput lane "
                            << tenant
                            << " launched past dispatchable "
                               "latency-sensitive lane "
                            << o;
                    }
                }
                freeAt = instantService ? now
                                        : now + rng.nextBounded(40);
                dispatchedThisIter = true;
            }
        }
        if (dispatchedThisIter)
            continue;

        if (idx == arrivals.size() && cancels.empty() &&
            q.pendingTotal() == 0)
            break;

        Cycle next = kNoCycle;
        if (idx < arrivals.size())
            next = std::min(next, arrivals[idx].cycle);
        if (!cancels.empty())
            next = std::min(next, cancels.top().cycle);
        if (now < freeAt)
            next = std::min(next, freeAt);
        else
            next = std::min(next, q.earliestDeadline());
        ASSERT_NE(next, kNoCycle) << "seed " << seed << " stuck at "
                                  << now;
        ASSERT_GT(next, now) << "seed " << seed;
        now = next;
    }

    // Conservation: every admitted query left exactly once.
    EXPECT_EQ(q.pendingTotal(), 0u) << "seed " << seed;
    for (uint64_t s = 0; s < nextSeq; ++s) {
        int d = timesDispatched.count(s) ? timesDispatched[s] : 0;
        int c = timesCanceled.count(s) ? timesCanceled[s] : 0;
        EXPECT_EQ(d + c, 1) << "seed " << seed << " seq " << s
                            << " dispatched " << d << " canceled " << c;
    }
    EXPECT_EQ(dispatched + canceled, nextSeq);
    res.dispatched += dispatched;
    res.canceled += canceled;
}

/** Make a batch of @p n minimal tickets for tenant @p t. */
std::shared_ptr<std::vector<QueryTicket>>
makeBatch(uint32_t t, uint32_t n, Cycle now, uint64_t &seq)
{
    auto qs = std::make_shared<std::vector<QueryTicket>>();
    for (uint32_t i = 0; i < n; ++i) {
        QueryTicket tk;
        tk.seq = seq++;
        tk.tenant = t;
        tk.arrival = now;
        tk.deadline = now + 100;
        qs->push_back(tk);
    }
    return qs;
}

/** The affinity quota floor (scheduler.cc's kMinQuota). */
constexpr uint32_t kQuotaFloor = 64;

/** Drive two identical Schedulers through one random place / launch /
 *  retire trace; assert replay identity, conservation, quota bounds,
 *  the documented backlog order via a mirror, and no SLO inversion. */
void
schedFuzzOne(uint64_t seed)
{
    Rng rng(seed);
    const uint32_t numDevices = 1 + static_cast<uint32_t>(
        rng.nextBounded(4));
    const uint32_t numTenants = 1 + static_cast<uint32_t>(
        rng.nextBounded(5));
    // Mostly above the quota floor, so affinity quotas spread between
    // the floor and maxBatch; the rest pin the clamp to maxBatch.
    const uint32_t maxBatch = 8 + static_cast<uint32_t>(
        rng.nextBounded(505));
    const SchedPolicy policy =
        seed % 2 ? SchedPolicy::Affinity : SchedPolicy::LeastLoaded;
    Scheduler sched(policy, numDevices, numTenants, maxBatch);
    Scheduler replay(policy, numDevices, numTenants, maxBatch);

    // Half the seeds of each policy start from a calibration probe,
    // spreading the cost estimates so quotas and placement scores
    // diverge per tenant.
    if ((seed / 2) % 2) {
        for (uint32_t t = 0; t < numTenants; ++t) {
            Cycle elapsed = (1 + rng.nextBounded(200)) * 64;
            sched.calibrate(t, 64, elapsed);
            replay.calibrate(t, 64, elapsed);
        }
    }

    // Mirror of every device's planned backlog, maintained by the
    // *documented* rules only: place() return values and
    // priority-ahead insertion.
    struct Pending
    {
        uint64_t id;
        bool priority;
    };
    std::vector<std::deque<Pending>> mirror(numDevices);
    auto mirrorInsert = [&](uint32_t d, uint64_t id, bool prio) {
        if (prio) {
            auto it = mirror[d].begin();
            while (it != mirror[d].end() && it->priority)
                ++it;
            mirror[d].insert(it, {id, prio});
        } else {
            mirror[d].push_back({id, prio});
        }
    };

    std::vector<bool> busy(numDevices, false);
    std::vector<Cycle> completeAt(numDevices, 0);
    std::vector<Cycle> launchedAt(numDevices, 0);
    std::vector<uint32_t> inflightTenant(numDevices, 0);
    std::vector<uint64_t> inflightQueries(numDevices, 0);
    std::map<uint64_t, int> timesLaunched;

    const uint64_t numBatches = 60 + rng.nextBounded(100);
    uint64_t placed = 0, launched = 0, seq = 0;
    Cycle now = 0;

    for (int guard = 0; guard < 1000000 && launched < numBatches;
         ++guard) {
        sched.refreshQuotas();
        replay.refreshQuotas();
        ASSERT_EQ(sched.quotas(), replay.quotas()) << "seed " << seed;
        for (uint32_t a = 0; a < numTenants; ++a) {
            EXPECT_GE(sched.batchQuota(a), std::min(kQuotaFloor, maxBatch))
                << "seed " << seed;
            EXPECT_LE(sched.batchQuota(a), maxBatch);
            // Quotas are monotone in the cost estimate: a pricier
            // tenant never waits for more queries.
            for (uint32_t b = 0; b < numTenants; ++b) {
                if (sched.costPerQueryQ8(a) >= sched.costPerQueryQ8(b)) {
                    EXPECT_LE(sched.batchQuota(a), sched.batchQuota(b))
                        << "seed " << seed;
                }
            }
        }

        while (placed < numBatches && sched.hasRoom()) {
            uint32_t t = static_cast<uint32_t>(
                rng.nextBounded(numTenants));
            uint32_t n = 1 + static_cast<uint32_t>(
                rng.nextBounded(maxBatch));
            bool prio = rng.nextBounded(4) == 0;
            bool expired = rng.nextBounded(4) == 0;
            auto qs = makeBatch(t, n, now, seq);
            uint32_t d = sched.place(t, qs, expired, prio, now);
            uint32_t d2 = replay.place(t, qs, expired, prio, now);
            ASSERT_EQ(d, d2) << "seed " << seed << ": replay placed "
                                "batch " << placed << " elsewhere";
            ASSERT_LT(d, numDevices);
            mirrorInsert(d, placed, prio); // ids are placement order
            ++placed;
            if (rng.nextBounded(3) == 0)
                break; // vary the place/launch interleaving
        }

        for (uint32_t d = 0; d < numDevices; ++d) {
            if (busy[d] || !sched.hasReady(d))
                continue;
            Scheduler::Batch b = sched.takeReady(d);
            Scheduler::Batch rb = replay.takeReady(d);
            EXPECT_EQ(b.id, rb.id)
                << "seed " << seed << ": replay launch order diverged";
            ASSERT_FALSE(mirror[d].empty()) << "seed " << seed;
            // Launches must follow the mirror exactly: priority ahead
            // of throughput, FIFO within a class.
            EXPECT_EQ(b.id, mirror[d].front().id) << "seed " << seed;
            EXPECT_EQ(b.priority, mirror[d].front().priority);
            mirror[d].pop_front();
            // No SLO inversion: a throughput launch means no planned
            // priority batch was waiting on this device.
            if (!b.priority) {
                for (const Pending &p : mirror[d]) {
                    EXPECT_FALSE(p.priority)
                        << "seed " << seed << ": throughput batch "
                        << b.id << " launched past priority batch "
                        << p.id;
                }
            }
            sched.onLaunch(d, b, now);
            replay.onLaunch(d, rb, now);
            ++timesLaunched[b.id];
            ++launched;
            busy[d] = true;
            launchedAt[d] = now;
            inflightTenant[d] = b.tenant;
            inflightQueries[d] = b.queries->size();
            // Actual service time is independent of the estimate, so
            // the EWMA keeps moving.
            completeAt[d] = now + 1 + rng.nextBounded(4000);
        }

        Cycle next = kNoCycle;
        for (uint32_t d = 0; d < numDevices; ++d)
            if (busy[d])
                next = std::min(next, completeAt[d]);
        if (next == kNoCycle) {
            now += 1 + rng.nextBounded(100);
            continue;
        }
        now = next;
        for (uint32_t d = 0; d < numDevices; ++d) {
            if (!busy[d] || completeAt[d] != now)
                continue;
            busy[d] = false;
            sched.onRetire(d, inflightTenant[d], inflightQueries[d],
                           now, now - launchedAt[d]);
            replay.onRetire(d, inflightTenant[d], inflightQueries[d],
                            now, now - launchedAt[d]);
        }
    }

    ASSERT_EQ(launched, numBatches) << "seed " << seed << " stalled";
    EXPECT_EQ(sched.plannedBatches(), 0u) << "seed " << seed;
    // Conservation: every placed batch launched exactly once, on the
    // real scheduler and (via id equality above) on the replay.
    for (uint64_t id = 0; id < placed; ++id)
        EXPECT_EQ(timesLaunched[id], 1)
            << "seed " << seed << " batch " << id;
    uint64_t dispatches = 0;
    for (uint32_t d = 0; d < numDevices; ++d)
        dispatches += sched.dispatches(d);
    EXPECT_EQ(dispatches, launched) << "seed " << seed;
}

} // namespace

TEST(ServiceQueueFuzz, RandomTraces)
{
    FuzzResult totals;
    for (uint64_t seed = 1; seed <= 512; ++seed) {
        fuzzOne(seed, totals);
        if (::testing::Test::HasFailure())
            FAIL() << "first failing seed: " << seed;
    }
    // Sanity: the trace generator exercised both paths heavily.
    EXPECT_GT(totals.dispatched, 50000u);
    EXPECT_GT(totals.canceled, 5000u);
}

TEST(ServiceQueue, CancelSemantics)
{
    AdmissionQueue q(2);
    QueryTicket t;
    t.seq = 7;
    t.tenant = 1;
    t.arrival = 10;
    t.deadline = 60;
    q.enqueue(t);
    EXPECT_EQ(q.pending(1), 1u);
    EXPECT_FALSE(q.cancel(1, 99)); // unknown seq
    EXPECT_TRUE(q.cancel(1, 7));
    EXPECT_FALSE(q.cancel(1, 7)); // double-cancel
    EXPECT_EQ(q.pending(1), 0u);
    EXPECT_EQ(q.earliestDeadline(), kNoCycle);
    // Canceled front never dispatches, even on drain.
    EXPECT_EQ(q.selectTenant(1000, 4, /*drain=*/true), -1);
}

TEST(ServiceQueue, DeadlinePreemptsRoundRobin)
{
    // Tenant 1 has a full batch; tenant 0 holds a single expired query.
    AdmissionQueue q(2);
    QueryTicket a;
    a.seq = 0;
    a.tenant = 0;
    a.arrival = 0;
    a.deadline = 50;
    q.enqueue(a);
    for (uint64_t i = 0; i < 4; ++i) {
        QueryTicket b;
        b.seq = 1 + i;
        b.tenant = 1;
        b.arrival = 5;
        b.deadline = 500;
        q.enqueue(b);
    }
    // Before the deadline, the full lane wins (rule 2)...
    EXPECT_EQ(q.selectTenant(/*now=*/40, /*max_batch=*/4, false), 1);
    // ...after it, the expired front preempts (rule 1).
    auto popped = q.popBatch(1, 4);
    ASSERT_EQ(popped.size(), 4u);
    for (uint64_t i = 0; i < 4; ++i) {
        QueryTicket b;
        b.seq = 5 + i;
        b.tenant = 1;
        b.arrival = 55;
        b.deadline = 555;
        q.enqueue(b);
    }
    EXPECT_EQ(q.selectTenant(/*now=*/60, /*max_batch=*/4, false), 0);
}

TEST(ServiceQueue, LatencyClassPreemptsThroughput)
{
    AdmissionQueue q;
    const uint32_t ls = q.addLane(SloClass::LatencySensitive);
    const uint32_t tp = q.addLane(SloClass::Throughput);
    EXPECT_EQ(q.laneClass(ls), SloClass::LatencySensitive);
    EXPECT_EQ(q.laneClass(tp), SloClass::Throughput);

    // One unexpired latency query; a full throughput batch with an
    // *earlier* deadline.
    QueryTicket a;
    a.seq = 0;
    a.tenant = ls;
    a.arrival = 0;
    a.deadline = 100;
    q.enqueue(a);
    for (uint64_t i = 0; i < 4; ++i) {
        QueryTicket b;
        b.seq = 1 + i;
        b.tenant = tp;
        b.arrival = 0;
        b.deadline = 50;
        q.enqueue(b);
    }

    // Nothing expired, latency lane partial: the latency class has no
    // dispatchable work, so the full throughput lane launches.
    EXPECT_EQ(q.selectTenant(/*now=*/10, /*max_batch=*/4, false),
              static_cast<int>(tp));
    // Drain makes the partial latency lane dispatchable, and strict
    // class priority puts it ahead of the full throughput lane.
    EXPECT_EQ(q.selectTenant(/*now=*/10, /*max_batch=*/4, true),
              static_cast<int>(ls));
    // Both fronts expired: the throughput deadline (50) is earlier,
    // but class priority still launches the latency lane first.
    EXPECT_EQ(q.selectTenant(/*now=*/200, /*max_batch=*/4, false),
              static_cast<int>(ls));
}

TEST(SchedulerFuzz, RandomTraces)
{
    for (uint64_t seed = 1; seed <= 512; ++seed) {
        schedFuzzOne(seed);
        if (::testing::Test::HasFailure())
            FAIL() << "first failing seed: " << seed;
    }
}

TEST(Scheduler, PriorityBatchJumpsBacklog)
{
    // Planned priority batches run before planned throughput batches
    // but behind earlier priority plans. The affinity backlog holds
    // two plans, so read the order back in three rounds on one device.
    Scheduler s(SchedPolicy::Affinity, 1, 1, 256);
    uint64_t seq = 0;
    auto place = [&](bool priority) {
        return s.place(0, makeBatch(0, 4, 0, seq), false, priority, 0);
    };
    place(/*priority=*/false); // b0
    place(/*priority=*/true);  // b1 jumps b0
    EXPECT_FALSE(s.hasRoom());
    EXPECT_EQ(s.takeReady(0).id, 1u);
    place(/*priority=*/true); // b2 jumps b0 too
    EXPECT_EQ(s.takeReady(0).id, 2u);
    EXPECT_EQ(s.takeReady(0).id, 0u);
    place(/*priority=*/true); // b3
    place(/*priority=*/true); // b4 queues behind b3
    EXPECT_EQ(s.takeReady(0).id, 3u);
    EXPECT_EQ(s.takeReady(0).id, 4u);
    EXPECT_EQ(s.plannedBatches(), 0u);
}
