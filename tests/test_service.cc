/**
 * @file
 * Service-level tests for the traversal-as-a-service layer
 * (service/service.hh):
 *
 *  - determinism: one small multi-tenant service config replayed under
 *    both simulation kernels (event-driven, polling) and through a
 *    parallel ExperimentRunner must reproduce the batch log, every
 *    latency histogram and the whole stat registry bit-for-bit,
 *  - DeviceGroup start-up and shutdown with pipelined staging workers
 *    (the race detector's case for the worker hand-off),
 *  - a batch past its tenant's verify tolerance is a fatal that names
 *    the tenant and the device and reaches the caller of run(), with
 *    and without staging workers,
 *  - a golden-stat snapshot of that config (tests/golden/
 *    service_small.json, TTA_UPDATE_GOLDEN=1 regenerates),
 *  - admission behavior against hand-written traces: full-batch
 *    dispatch, max-wait flush, cancels, drain, the no-starvation
 *    bound for a sparse tenant behind a saturating one, and the
 *    tighter latency-sensitive SLO-class deadline,
 *  - the bench workload cache (bench_common.hh): serving a deep copy
 *    of a built workload is bit-identical to building it fresh (which
 *    is what lets the figure benches reuse one host tree per row),
 *    hit/lookup counters, and getShared prototype sharing,
 *  - strict numeric bench flags (bench_common.hh's FlagSet): malformed
 *    values exit 64 naming the flag and the value.
 *
 * Multi-device coverage lives in tests/test_service_multidev.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "json_lite.hh"
#include "service/service.hh"
#include "sim/logging.hh"
#include "sim/runner.hh"
#include "sim/ticked.hh"

#include "../bench/bench_common.hh"

#ifndef TTA_GOLDEN_DIR
#error "TTA_GOLDEN_DIR must point at tests/golden"
#endif

using namespace ::tta::service;
namespace sim = ::tta::sim;
namespace testjson = ::tta::testjson;
namespace workloads = ::tta::workloads;
namespace trees = ::tta::trees;

namespace {

sim::Config
serviceConfig()
{
    sim::Config cfg;
    cfg.accelMode = sim::AccelMode::Tta;
    return cfg;
}

/** The fixed small service config shared by the determinism and golden
 *  tests: two tenants, Poisson arrivals, a couple hundred batches. */
constexpr uint64_t kSmallSeed = 5;

ServiceReport
runSmallService(const sim::Config &cfg, sim::StatRegistry &stats)
{
    ServicePolicy policy;
    policy.maxBatch = 64;
    policy.maxWaitCycles = 20000;
    TraversalService svc(cfg, stats, policy);
    svc.addTenant(std::make_unique<BTreeTenant>("btree", 400, 128,
                                                kSmallSeed));
    svc.addTenant(std::make_unique<RadiusTenant>("radius", 512, 32, 1.0f,
                                                 kSmallSeed));

    TrafficConfig tc;
    tc.process = ArrivalProcess::Poisson;
    tc.totalQueries = 1500;
    tc.meanGapCycles = 40.0;
    tc.tenantWeights = {0.85, 0.15};
    TrafficGen gen(tc, svc.numTenants(), kSmallSeed ^ 0xbadc0ffeull);
    return svc.run(gen);
}

/** Bit-identity oracle: batch composition + every latency histogram. */
std::string
oracleString(const ServiceReport &rep)
{
    std::string s = rep.batchLog;
    s += "total:" + rep.latency.dumpString();
    for (const auto &tr : rep.tenants) {
        s += tr.name + ":" + tr.latency.dumpString();
        s += tr.name + ".wait:" + tr.queueWait.dumpString();
    }
    return s;
}

/** Longest single-batch service time, parsed from the batch log. */
sim::Cycle
maxBatchDuration(const ServiceReport &rep)
{
    sim::Cycle worst = 0;
    std::istringstream is(rep.batchLog);
    std::string line;
    while (std::getline(is, line)) {
        unsigned long long tenant, start, done, n;
        if (std::sscanf(line.c_str(),
                        "b%*u t=%llu start=%llu done=%llu n=%llu",
                        &tenant, &start, &done, &n) == 4)
            worst = std::max<sim::Cycle>(worst, done - start);
    }
    return worst;
}

} // namespace

// ---------------------------------------------------------------------
// Determinism across simulation kernels and runner threads.
// ---------------------------------------------------------------------

TEST(ServiceDeterminism, KernelsAndThreadCounts)
{
    sim::StatRegistry refStats;
    ServiceReport ref = runSmallService(serviceConfig(), refStats);
    ASSERT_GT(ref.completed, 0u);
    std::string refOracle = oracleString(ref);
    std::string refDump = refStats.dumpString();

    sim::Simulator::setDefaultKernel(sim::Simulator::Kernel::Polling);
    sim::StatRegistry stats;
    ServiceReport rep = runSmallService(serviceConfig(), stats);
    sim::Simulator::resetDefaultKernel();

    EXPECT_EQ(oracleString(rep), refOracle)
        << "polling: batch log / latency histograms diverged";
    EXPECT_EQ(stats.dumpString(), refDump)
        << "polling: stat registry diverged";
    EXPECT_EQ(rep.makespan, ref.makespan) << "polling";
}

TEST(ServiceDeterminism, ParallelRunnerJobs)
{
    // Two copies of the same service job through a 2-worker runner must
    // match a serial reference registry byte-for-byte (each job owns a
    // private registry, so --jobs can never perturb service stats).
    sim::StatRegistry refStats;
    runSmallService(serviceConfig(), refStats);
    std::string refDump = refStats.dumpString();

    std::vector<sim::Job> jobs(2);
    for (size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].name = "svc" + std::to_string(i);
        jobs[i].config = serviceConfig();
        jobs[i].fn = [](const sim::Config &cfg, sim::StatRegistry &stats,
                        sim::RunRecord &rec) {
            ServiceReport rep = runSmallService(cfg, stats);
            rec.cycles = rep.makespan;
        };
    }
    sim::ExperimentRunner runner(2);
    std::vector<sim::RunRecord> records = runner.run(jobs);
    for (const auto &rec : records) {
        ASSERT_FALSE(rec.failed()) << rec.error;
        EXPECT_EQ(rec.stats.dumpString(), refDump) << rec.name;
    }
}

// A pipelined group starts one staging worker per device while it is
// still being built; every worker must see a fully built group.
// Repeated build/destroy cycles give the race detector several
// start-ups and shutdowns to check.
TEST(DeviceGroupLifecycle, PipelinedStartAndStop)
{
    for (int round = 0; round < 3; ++round) {
        DeviceGroup group(serviceConfig(), 4, /*pipelined=*/true);
        ASSERT_EQ(group.size(), 4u);
        EXPECT_TRUE(group.pipelined());
        group.drain();
    }
}

namespace {

/** A B-Tree tenant whose every result reads wrong. */
class WrongResultsTenant : public BTreeTenant
{
  public:
    using BTreeTenant::BTreeTenant;

    size_t
    verifyBatch(const ServiceDevice &, uint32_t,
                const std::vector<QueryTicket> &batch) const override
    {
        return batch.size();
    }
};

} // namespace

// A batch past its tenant's verify tolerance is fatal, and the error
// reaches the caller of run() from the inline path and from a staging
// worker alike, naming the tenant and the device.
TEST(ServiceVerify, MismatchesPastToleranceAreFatal)
{
    for (bool pipelined : {false, true}) {
        ServicePolicy policy;
        policy.maxBatch = 16;
        policy.maxWaitCycles = 2000;
        policy.numDevices = 2;
        policy.pipelinedStaging = pipelined;
        sim::StatRegistry stats;
        TraversalService svc(serviceConfig(), stats, policy);
        svc.addTenant(
            std::make_unique<WrongResultsTenant>("wrong", 200, 64, 11));

        TrafficConfig tc;
        tc.process = ArrivalProcess::Poisson;
        tc.totalQueries = 64;
        tc.meanGapCycles = 10.0;
        TrafficGen gen(tc, svc.numTenants(), 3);
        try {
            svc.run(gen);
            ADD_FAILURE() << "run returned; pipelined=" << pipelined;
        } catch (const sim::FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("tenant 'wrong' device "), std::string::npos)
                << "pipelined=" << pipelined << ": " << msg;
            EXPECT_NE(msg.find("result mismatches"), std::string::npos)
                << "pipelined=" << pipelined << ": " << msg;
        }
    }
}

// ---------------------------------------------------------------------
// Golden snapshot of the small service config.
// ---------------------------------------------------------------------

namespace {

std::string
goldenPath()
{
    return std::string(TTA_GOLDEN_DIR) + "/service_small.json";
}

std::string
snapshotJson(const ServiceReport &rep, const sim::StatRegistry &stats)
{
    std::ostringstream os;
    os << "{\n  \"name\": \"service_small\",\n";
    os << "  \"cycles\": " << rep.makespan << ",\n";
    os << "  \"counters\": {";
    bool first = true;
    for (const auto &[key, counter] : stats.counters()) {
        os << (first ? "\n" : ",\n") << "    \"" << key
           << "\": " << counter.value();
        first = false;
    }
    os << "\n  },\n  \"scalars\": {";
    first = true;
    for (const auto &[key, scalar] : stats.scalars()) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", scalar.value());
        os << (first ? "\n" : ",\n") << "    \"" << key << "\": " << buf;
        first = false;
    }
    os << "\n  }\n}\n";
    return os.str();
}

void
diffSection(const char *section, const testjson::Value &golden,
            const testjson::Value &current)
{
    const auto &want = golden.at(section).asObject();
    const auto &got = current.at(section).asObject();
    for (const auto &[key, value] : want) {
        auto it = got.find(key);
        if (it == got.end()) {
            ADD_FAILURE() << section << " stat '" << key
                          << "' disappeared (golden value "
                          << value.asNumber() << ")";
            continue;
        }
        EXPECT_EQ(it->second.asNumber(), value.asNumber())
            << section << " stat '" << key << "' drifted";
    }
    for (const auto &[key, value] : got) {
        EXPECT_TRUE(want.count(key))
            << "new " << section << " stat '" << key << "' (value "
            << value.asNumber()
            << ") not in golden snapshot; regenerate with "
               "TTA_UPDATE_GOLDEN=1";
    }
}

} // namespace

TEST(ServiceGolden, MatchesSnapshot)
{
    sim::StatRegistry stats;
    ServiceReport rep = runSmallService(serviceConfig(), stats);
    std::string current = snapshotJson(rep, stats);

    if (std::getenv("TTA_UPDATE_GOLDEN")) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out) << "cannot write " << goldenPath();
        out << current;
        GTEST_SKIP() << "regenerated " << goldenPath();
    }

    std::ifstream in(goldenPath());
    ASSERT_TRUE(in) << "missing golden snapshot " << goldenPath()
                    << "; generate with TTA_UPDATE_GOLDEN=1";
    std::stringstream ss;
    ss << in.rdbuf();
    testjson::Value golden = testjson::parse(ss.str());
    testjson::Value now = testjson::parse(current);
    EXPECT_EQ(static_cast<uint64_t>(golden.at("cycles").asNumber()),
              rep.makespan)
        << "service makespan drifted";
    diffSection("counters", golden, now);
    diffSection("scalars", golden, now);
}

// ---------------------------------------------------------------------
// Admission behavior against hand-written traces.
// ---------------------------------------------------------------------

namespace {

/** One-tenant service with tiny batches for trace-level tests. */
struct MiniService
{
    sim::StatRegistry stats;
    TraversalService svc;

    explicit MiniService(const ServicePolicy &policy)
        : svc(serviceConfig(), stats, policy)
    {
        svc.addTenant(
            std::make_unique<BTreeTenant>("btree", 200, 64, 11));
    }
};

} // namespace

TEST(ServiceTrace, FullBatchAndDrain)
{
    ServicePolicy policy;
    policy.maxBatch = 4;
    policy.maxWaitCycles = 1000000; // deadlines never fire
    MiniService ms(policy);

    // 10 arrivals in one burst: two full batches plus a drained
    // partial batch of 2.
    std::vector<Arrival> trace;
    for (uint32_t i = 0; i < 10; ++i)
        trace.push_back({/*cycle=*/5, /*tenant=*/0, /*client=*/i, 0});
    TraceSource src(trace);
    ServiceReport rep = ms.svc.run(src);

    EXPECT_EQ(rep.submitted, 10u);
    EXPECT_EQ(rep.completed, 10u);
    EXPECT_EQ(rep.canceled, 0u);
    EXPECT_EQ(rep.batches, 3u);
    EXPECT_EQ(rep.expiredDispatches, 0u);
    // Batch sizes 4, 4, 2 in submission order.
    std::istringstream is(rep.batchLog);
    std::string line;
    std::vector<unsigned long long> sizes;
    while (std::getline(is, line)) {
        unsigned long long tenant, start, done, n;
        ASSERT_EQ(std::sscanf(line.c_str(),
                              "b%*u t=%llu start=%llu done=%llu n=%llu",
                              &tenant, &start, &done, &n),
                  4)
            << line;
        sizes.push_back(n);
    }
    ASSERT_EQ(sizes.size(), 3u);
    EXPECT_EQ(sizes[0], 4u);
    EXPECT_EQ(sizes[1], 4u);
    EXPECT_EQ(sizes[2], 2u);
}

TEST(ServiceTrace, MaxWaitFlushesPartialBatch)
{
    ServicePolicy policy;
    policy.maxBatch = 64; // never fills
    policy.maxWaitCycles = 500;
    MiniService ms(policy);

    // Two early queries, then a long quiet gap before a final arrival:
    // the early pair must flush at its deadline, not wait for traffic.
    std::vector<Arrival> trace = {
        {10, 0, 0, 0},
        {20, 0, 1, 0},
        {1000000, 0, 2, 0},
    };
    TraceSource src(trace);
    ServiceReport rep = ms.svc.run(src);

    EXPECT_EQ(rep.completed, 3u);
    EXPECT_GE(rep.expiredDispatches, 1u);
    // The early pair's queue wait is capped by the deadline rule.
    EXPECT_LE(rep.tenants[0].queueWait.max(), policy.maxWaitCycles);
}

TEST(ServiceTrace, CancelsNeverDispatch)
{
    ServicePolicy policy;
    policy.maxBatch = 8;
    policy.maxWaitCycles = 5000;
    MiniService ms(policy);

    // Every second query cancels long before its deadline; canceled
    // queries must not be dispatched, the rest must all complete.
    std::vector<Arrival> trace;
    for (uint32_t i = 0; i < 40; ++i) {
        Arrival a;
        a.cycle = 10 + 100ull * i;
        a.tenant = 0;
        a.client = i;
        a.cancelAfter = (i % 2) ? 50 : 0;
        trace.push_back(a);
    }
    TraceSource src(trace);
    ServiceReport rep = ms.svc.run(src);

    EXPECT_EQ(rep.submitted, 40u);
    EXPECT_EQ(rep.completed + rep.canceled, 40u);
    EXPECT_GT(rep.canceled, 0u);
    EXPECT_EQ(rep.tenants[0].canceled, rep.canceled);
}

TEST(ServiceTrace, SparseTenantDoesNotStarve)
{
    // Tenant 0 sends widely spaced bursts of exactly one full batch;
    // tenant 1 sends a lone query right after each burst. Tenant 1's
    // partial lane must flush by the deadline rule — its wait is
    // bounded by maxWait plus one in-flight batch, not by when tenant
    // 0's traffic happens to fill another batch.
    ServicePolicy policy;
    policy.maxBatch = 32;
    policy.maxWaitCycles = 8000;

    sim::StatRegistry stats;
    TraversalService svc(serviceConfig(), stats, policy);
    svc.addTenant(std::make_unique<BTreeTenant>("heavy", 200, 64, 11));
    svc.addTenant(std::make_unique<BTreeTenant>("sparse", 200, 64, 12));

    std::vector<Arrival> trace;
    for (uint32_t burst = 0; burst < 8; ++burst) {
        uint64_t at = 50000ull * burst;
        for (uint32_t i = 0; i < policy.maxBatch; ++i)
            trace.push_back({at, 0, i, 0});
        trace.push_back({at + 100, 1, burst, 0});
    }
    TraceSource src(trace);
    ServiceReport rep = svc.run(src);

    const TenantReport &tr = rep.tenants[1];
    ASSERT_EQ(tr.submitted, 8u);
    EXPECT_EQ(tr.completed, 8u);
    // All but possibly the drained last one flush on their deadline.
    EXPECT_GE(rep.expiredDispatches, tr.batches - 1);
    // Wait bound: the deadline, plus at most one in-flight batch.
    sim::Cycle slack = maxBatchDuration(rep);
    EXPECT_LE(tr.queueWait.max(), policy.maxWaitCycles + slack)
        << "sparse tenant waited past its SLO bound";
}

TEST(ServiceTrace, QuotaPopsPartialLaneWhenDeviceIdle)
{
    // The affinity quota makes a pricey lane dispatchable below
    // maxBatch, and the partial-pop defer must release it the moment
    // a device would otherwise sit idle — not hold it until its
    // deadline expires or the trace drains.
    // The calibration probe prices a radius query at ~4.7 B-Tree
    // lookups, so the pricey lane's quota (~108) lies between the
    // 64-query floor and maxBatch.
    ServicePolicy policy;
    policy.maxBatch = 512;
    policy.maxWaitCycles = 400000; // far beyond the idle-driven pop
    policy.sched = SchedPolicy::Affinity;

    sim::StatRegistry stats;
    TraversalService svc(serviceConfig(), stats, policy);
    svc.addTenant(std::make_unique<BTreeTenant>("cheap", 200, 64, 11));
    svc.addTenant(
        std::make_unique<RadiusTenant>("pricey", 512, 64, 1.0f, 12));

    // A burst of pricey queries — above the lane's quota, below
    // maxBatch — then a long quiet gap before a final cheap arrival.
    const uint32_t burst = 255;
    std::vector<Arrival> trace;
    for (uint32_t i = 0; i < burst; ++i)
        trace.push_back({10, 1, i, 0});
    trace.push_back({1000000, 0, 0, 0});
    TraceSource src(trace);
    ServiceReport rep = svc.run(src);

    ASSERT_EQ(rep.completed, burst + 1);
    // The burst pops as one partial batch at the burst cycle (the
    // device is idle), so nothing ever reaches its deadline.
    EXPECT_EQ(rep.tenants[1].batches, 1u);
    EXPECT_EQ(rep.expiredDispatches, 0u);
    EXPECT_EQ(rep.tenants[1].queueWait.max(), 0u)
        << "partial lane was deferred past the idle device";
}

TEST(ServiceTrace, ExpiredDispatchCountedAtLaunchNotPlacement)
{
    // Under affinity a batch can be planned unexpired into a busy
    // device's backlog and cross its front deadline before it
    // launches; expiredDispatches judges expiry at launch time.
    ServicePolicy policy;
    policy.maxBatch = 64;
    policy.maxWaitCycles = 100;
    policy.sched = SchedPolicy::Affinity;
    MiniService ms(policy);

    std::vector<Arrival> trace;
    for (uint32_t i = 0; i < 64; ++i)
        trace.push_back({0, 0, i, 0});
    for (uint32_t i = 0; i < 64; ++i)
        trace.push_back({1, 0, 64 + i, 0});
    TraceSource src(trace);
    ServiceReport rep = ms.svc.run(src);

    ASSERT_EQ(rep.completed, 128u);
    EXPECT_EQ(rep.batches, 2u);
    // The second full batch is planned at cycle 1 (deadline 101 still
    // live) but only launches when the first batch retires, long past
    // the deadline: it must count as an expired dispatch.
    EXPECT_EQ(rep.expiredDispatches, 1u);
}

TEST(ServiceTrace, LatencyClassFlushesOnTighterDeadline)
{
    // Two lanes that never fill: the latency-sensitive one must flush
    // at its own (much tighter) max-wait, the throughput one at the
    // default — the class deadline, not lane fill, sets the pace.
    ServicePolicy policy;
    policy.maxBatch = 64;
    policy.maxWaitCycles = 50000;
    policy.lsMaxWaitCycles = 500;

    sim::StatRegistry stats;
    TraversalService svc(serviceConfig(), stats, policy);
    svc.addTenant(std::make_unique<BTreeTenant>("fast", 200, 64, 11),
                  SloClass::LatencySensitive);
    svc.addTenant(std::make_unique<BTreeTenant>("bulk", 200, 64, 12));

    std::vector<Arrival> trace = {
        {10, 0, 0, 0},      {10, 1, 0, 0},      {20, 0, 1, 0},
        {20, 1, 1, 0},      {1000000, 0, 2, 0}, {1000000, 1, 2, 0},
    };
    TraceSource src(trace);
    ServiceReport rep = svc.run(src);

    ASSERT_EQ(rep.completed, 6u);
    const TenantReport &fast = rep.tenants[0];
    const TenantReport &bulk = rep.tenants[1];
    EXPECT_EQ(fast.slo, SloClass::LatencySensitive);
    EXPECT_EQ(bulk.slo, SloClass::Throughput);
    // The latency pair flushes at arrival + lsMaxWait exactly (the
    // device is idle when the deadline fires).
    EXPECT_LE(fast.queueWait.max(), policy.lsMaxWaitCycles);
    // The throughput pair keeps the long deadline: it must wait well
    // past the latency class's bound, but never past its own (plus one
    // in-flight batch).
    EXPECT_GT(bulk.queueWait.max(), policy.lsMaxWaitCycles);
    EXPECT_LE(bulk.queueWait.max(),
              policy.maxWaitCycles + maxBatchDuration(rep));
    // Per-class stats landed in the registry.
    EXPECT_EQ(stats.counter("service.class.latency.completed").value(),
              3u);
    EXPECT_EQ(
        stats.counter("service.class.throughput.completed").value(),
        3u);
}

// ---------------------------------------------------------------------
// Workload cache: a served deep copy == a fresh build, bit for bit.
// ---------------------------------------------------------------------

TEST(WorkloadCacheIdentity, BTree)
{
    bench::WorkloadCache cache(true);
    auto build = [] {
        return workloads::BTreeWorkload(trees::BTreeKind::BPlusTree,
                                        1000, 128, 21);
    };

    sim::StatRegistry freshStats;
    workloads::BTreeWorkload fresh = build();
    workloads::RunMetrics freshRun =
        fresh.runAccelerated(serviceConfig(), freshStats);

    // Two cache pulls: both are copies of the same cached prototype.
    for (int pull = 0; pull < 2; ++pull) {
        sim::StatRegistry stats;
        workloads::BTreeWorkload copy =
            cache.get<workloads::BTreeWorkload>("bt", build);
        workloads::RunMetrics run = copy.runAccelerated(serviceConfig(), stats);
        EXPECT_EQ(run.cycles, freshRun.cycles) << "pull " << pull;
        EXPECT_EQ(stats.dumpString(), freshStats.dumpString())
            << "pull " << pull;
    }
}

TEST(WorkloadCacheIdentity, Rtnn)
{
    bench::WorkloadCache cache(true);
    auto build = [] {
        return workloads::RtnnWorkload(800, 64, 1.0f, 22);
    };

    sim::StatRegistry freshStats;
    workloads::RtnnWorkload fresh = build();
    workloads::RunMetrics freshRun =
        fresh.runAccelerated(serviceConfig(), freshStats, true);

    sim::StatRegistry stats;
    workloads::RtnnWorkload copy =
        cache.get<workloads::RtnnWorkload>("rtnn", build);
    workloads::RunMetrics run = copy.runAccelerated(serviceConfig(), stats, true);
    EXPECT_EQ(run.cycles, freshRun.cycles);
    EXPECT_EQ(stats.dumpString(), freshStats.dumpString());
}

TEST(WorkloadCacheIdentity, HitCounterAndSharedPrototypes)
{
    bench::WorkloadCache cache(true);
    auto build = [] {
        return workloads::BTreeWorkload(trees::BTreeKind::BTree, 300,
                                        32, 31);
    };
    EXPECT_EQ(cache.lookups(), 0u);
    cache.get<workloads::BTreeWorkload>("a", build);
    EXPECT_EQ(cache.lookups(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    cache.get<workloads::BTreeWorkload>("a", build);
    EXPECT_EQ(cache.lookups(), 2u);
    EXPECT_EQ(cache.hits(), 1u);

    // getShared hands every caller the same immutable prototype — the
    // path service tenants use to share one tree across tenants and
    // devices without a deep copy.
    int builds = 0;
    auto buildShared = [&builds] {
        ++builds;
        return BTreeTenantData::build(200, 64, 32);
    };
    auto p1 = cache.getShared<BTreeTenantData>("svc", buildShared);
    auto p2 = cache.getShared<BTreeTenantData>("svc", buildShared);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(p1.get(), p2.get());
    EXPECT_EQ(cache.lookups(), 4u);
    EXPECT_EQ(cache.hits(), 2u);

    // A disabled cache counts lookups but never hits.
    bench::WorkloadCache off(false);
    off.getShared<BTreeTenantData>("svc", buildShared);
    off.getShared<BTreeTenantData>("svc", buildShared);
    EXPECT_EQ(builds, 3);
    EXPECT_EQ(off.lookups(), 2u);
    EXPECT_EQ(off.hits(), 0u);
}

TEST(WorkloadCacheIdentity, DisabledCacheRebuilds)
{
    // With caching off (the --rebuild-device path) every get() runs the
    // builder; results are still identical because builds are seeded.
    bench::WorkloadCache cache(false);
    int builds = 0;
    auto build = [&builds] {
        ++builds;
        return workloads::BTreeWorkload(trees::BTreeKind::BTree, 500, 64,
                                        23);
    };
    cache.get<workloads::BTreeWorkload>("k", build);
    cache.get<workloads::BTreeWorkload>("k", build);
    EXPECT_EQ(builds, 2);

    bench::WorkloadCache cached(true);
    builds = 0;
    cached.get<workloads::BTreeWorkload>("k", build);
    cached.get<workloads::BTreeWorkload>("k", build);
    EXPECT_EQ(builds, 1);
}

namespace {

/** Parse @p flags on a FlagSet carrying the shared bench flags plus one
 *  real-valued flag (--gain). */
struct ParsedFlags
{
    bench::Args args;
    double gain = 0.0;
};

ParsedFlags
parseBenchFlags(std::vector<std::string> flags)
{
    ParsedFlags out;
    bench::FlagSet fs("bench", "");
    bench::registerCommonFlags(fs, out.args);
    fs.real("gain", out.gain, "a real-valued gate");
    std::vector<char *> argv = {const_cast<char *>("bench")};
    for (std::string &f : flags)
        argv.push_back(f.data());
    fs.parse(static_cast<int>(argv.size()), argv.data());
    return out;
}

} // namespace

TEST(BenchFlags, WellFormedNumbersParse)
{
    ParsedFlags p = parseBenchFlags({"--queries=42", "--keys", "7",
                                     "--gain=1.25", "--rebuild-device",
                                     "--seed=18446744073709551615"});
    EXPECT_EQ(p.args.queries, 42u);
    EXPECT_EQ(p.args.keys, 7u);
    EXPECT_EQ(p.gain, 1.25);
    EXPECT_EQ(p.args.rebuildDevice, 1u);
    EXPECT_EQ(p.args.seed, UINT64_MAX);
    EXPECT_EQ(parseBenchFlags({"--rebuild-device=0"}).args.rebuildDevice,
              0u);
}

TEST(BenchFlagsDeathTest, MalformedNumbersExitUsage)
{
    // Each malformed value exits 64 and names the flag and the value,
    // instead of running with whatever prefix strtoull/strtod accepted.
    const struct
    {
        const char *flag;
        const char *message;
    } cases[] = {
        {"--queries=abc", "--queries: 'abc'"},
        {"--keys=12k", "--keys: '12k'"},
        {"--queries=-1", "--queries: '-1'"},
        {"--queries=+1", "--queries: '\\+1'"},
        {"--queries= 1", "--queries: ' 1'"},
        {"--queries=", "--queries: ''"},
        {"--seed=18446744073709551616", "--seed: '18446744073709551616'"},
        {"--res=4294967296", "--res: '4294967296'"},
        {"--gain=1.5x", "--gain: '1.5x'"},
        {"--gain=", "--gain: ''"},
        {"--gain=1e999", "--gain: '1e999'"},
        {"--gain=nan", "--gain: 'nan'"},
        {"--rebuild-device=yes", "--rebuild-device: 'yes'"},
        {"--rebuild-device=", "--rebuild-device: ''"},
    };
    for (const auto &c : cases) {
        EXPECT_EXIT(parseBenchFlags({c.flag}),
                    ::testing::ExitedWithCode(bench::FlagSet::kExitUsage),
                    std::string("bad value for ") + c.message)
            << c.flag;
    }
}
