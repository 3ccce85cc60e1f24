/**
 * @file
 * BENCH_8/9/10: traversal-as-a-service under sustained traffic.
 *
 * Stands up a persistent TraversalService (a DeviceGroup of 1..N
 * long-lived TtaDevices; three tenants: B-Tree lookups, radius
 * searches, rays) and drives it with the deterministic
 * closed/open-loop traffic generators: Poisson, bursty (2-state MMPP)
 * and closed-loop arrivals, millions of queries per scenario. Reports
 * sustained throughput plus p50/p99/p999 latency in simulated cycles
 * and microseconds (at Config::coreClockMhz), alongside host
 * wall-clock. Host-side tenant data (trees, payload pools, reference
 * results) is built once in a WorkloadCache shared by every scenario,
 * device count and determinism replay.
 *
 * Flags (every flag is registered on a bench::FlagSet: `--help` is
 * generated from the registrations, so it cannot drift, and unknown
 * flags exit 64; the shared workload/runner flags come from
 * bench::registerCommonFlags):
 *   --queries=N            arrivals per scenario (default 1,000,000)
 *   --bench=SUBSTR         run only scenarios whose name contains
 *                          SUBSTR; the special names "overload" and
 *                          "sched" run the BENCH_9 open-loop overload
 *                          study and the BENCH_10 scheduling study
 *   --scenario=NAME        run exactly one scenario; unknown names
 *                          list the valid ones and exit 64
 *   --list-scenarios       print scenario names and exit
 *   --devices=N            override every scenario's device count
 *   --serial-staging       run the DeviceGroup without worker threads
 *                          (bit-identical, single-threaded host path)
 *   --max-batch=N          admission policy: dispatch threshold (256)
 *   --max-wait=N           admission policy: deadline in cycles (50000)
 *   --mean-gap=N           open-loop mean inter-arrival gap (cycles)
 *   --sched=NAME           scheduling policy lld|affinity
 *                          (service/scheduler.hh); default lld; any
 *                          other name exits 64
 *   --check-determinism    re-run every scenario (a) unchanged and
 *                          (b) with --serial-staging toggled, and
 *                          require batch logs (global + per
 *                          device), latency histograms and the exact
 *                          per-device histogram merge to be
 *                          bit-identical; exits 2 on divergence
 *   --check-overload-scaling=X  (overload study) require aggregate
 *                          saturated throughput at 4 devices >= X times
 *                          the 1-device value; exits 6 otherwise
 *   --check-sched-gain=X   (sched study) require affinity to reach
 *                          >= X times lld's saturated throughput at 4
 *                          devices with p99 not regressed; exits 7
 *                          otherwise
 *
 * JSON records (--json=FILE, one line per run) carry the service
 * scalars/counters plus derived values: throughput_qpmc (completed
 * queries per million simulated cycles), lat_p50/p99/p999_cycles and
 * _us, per-SLO-class percentiles, devices, offered load factor,
 * per-device batch counts, and one trailing "workload_cache"
 * record carrying the WorkloadCache lookup/hit counters.
 */

#include "bench_common.hh"

#include "service/service.hh"
#include "sim/stats.hh"

using namespace bench;
using namespace ::tta::service;

namespace {

struct ScenarioSpec
{
    const char *name;
    ArrivalProcess process;
    bool mix;              //!< all three tenants vs B-Tree only
    double cancelFraction; //!< impatient clients
    uint32_t devices;      //!< DeviceGroup size
    bool slo;              //!< B-Tree lane is latency-sensitive
};

const ScenarioSpec kScenarios[] = {
    {"poisson/btree", ArrivalProcess::Poisson, false, 0.0, 1, false},
    {"poisson/mix", ArrivalProcess::Poisson, true, 0.0, 1, false},
    {"poisson/mix/d2", ArrivalProcess::Poisson, true, 0.0, 2, false},
    {"poisson/mix/d4", ArrivalProcess::Poisson, true, 0.0, 4, false},
    {"poisson/slo", ArrivalProcess::Poisson, true, 0.0, 2, true},
    {"bursty/mix", ArrivalProcess::Bursty, true, 0.0, 1, false},
    {"bursty/cancel", ArrivalProcess::Bursty, true, 0.02, 1, false},
    {"closed/mix", ArrivalProcess::ClosedLoop, true, 0.0, 1, false},
};

struct ServiceArgs
{
    uint64_t maxBatch = 256;
    uint64_t maxWait = 50000;
    uint64_t meanGap = 0;  //!< 0 = auto
    uint64_t devices = 0;  //!< 0 = scenario default
    std::string filter;    //!< --bench substring ("overload"/"sched")
    std::string scenario;  //!< --scenario exact name
    std::string schedName; //!< --sched; empty = lld
    SchedPolicy sched = SchedPolicy::LeastLoaded; //!< resolved
    bool listScenarios = false;
    bool serialStaging = false;
    bool checkDeterminism = false;
    double overloadScale = 0.0; //!< --check-overload-scaling
    double schedGain = 0.0;     //!< --check-sched-gain
};

void
listScenarios()
{
    std::printf("scenarios (--scenario=NAME or --bench=SUBSTR):\n");
    for (const auto &s : kScenarios)
        std::printf("  %-15s devices=%u tenants=%s%s\n", s.name,
                    s.devices, s.mix ? "btree+radius+rays" : "btree",
                    s.slo ? " slo-classes" : "");
    std::printf("  %-15s BENCH_9 open-loop overload study "
                "(devices 1/2/4)\n",
                "overload");
    std::printf("  %-15s BENCH_10 scheduling-policy study "
                "(policy x devices 1/2/4)\n",
                "sched");
}

/** Oracle string for the determinism cross-checks: batch composition
 *  and completion order (globally and per device), every latency
 *  histogram, and the per-class views, bit-for-bit. */
std::string
oracleString(const ServiceReport &rep)
{
    std::string s = rep.batchLog;
    s += "total:" + rep.latency.dumpString();
    for (const auto &tr : rep.tenants) {
        s += tr.name + ":" + tr.latency.dumpString();
        s += tr.name + ".wait:" + tr.queueWait.dumpString();
    }
    for (size_t d = 0; d < rep.devices.size(); ++d) {
        s += "dev" + std::to_string(d) + ":" + rep.devices[d].batchLog;
        s += "dev" + std::to_string(d) + ".lat:" +
             rep.devices[d].latency.dumpString();
    }
    for (uint32_t c = 0; c < kNumSloClasses; ++c) {
        const ClassReport &cr = rep.classes[c];
        if (!cr.completed)
            continue;
        s += std::string("class.") +
             sloClassName(static_cast<SloClass>(c)) + ":" +
             cr.latency.dumpString();
    }
    return s;
}

/** The merged-per-device histogram must equal the total, exactly. */
bool
mergeIsExact(const ServiceReport &rep)
{
    LatencyHistogram merged;
    for (const auto &dr : rep.devices)
        merged.merge(dr.latency);
    return merged.dumpString() == rep.latency.dumpString();
}

struct ScenarioRun
{
    ArrivalProcess process = ArrivalProcess::Poisson;
    bool mix = true;
    bool slo = false;
    double cancelFraction = 0.0;
    uint32_t devices = 1;
    double meanGap = 0.0; //!< 0 = auto
    bool pipelined = true;
    uint32_t clients = 512;      //!< closed-loop population
    double thinkCycles = 30000.0; //!< closed-loop think time
    SchedPolicy sched = SchedPolicy::LeastLoaded;
    size_t btreeKeys = 0;    //!< tree-size override; 0 = args.keys/5
    size_t radiusPoints = 0; //!< tree-size override; 0 = args.points/4
    /** Locality-bound tenant set for the sched study: this many
     *  equally-priced large-tree B-Tree tenants (distinct key sets, so
     *  distinct working sets) instead of the radius/rays mix, plus the
     *  base tenant shrunk into a cheap latency-sensitive lane. Tenant
     *  interleaving on one device then thrashes its L2 between key
     *  sets, which is exactly the regime affinity scheduling targets.
     *  0 = off (the regular mix). */
    uint32_t btreeFleet = 0;
};

ServiceReport
runService(const ScenarioRun &run, const Args &args,
           const ServiceArgs &sargs, const sim::Config &cfg,
           sim::StatRegistry &stats, WorkloadCache &cache)
{
    ServicePolicy policy;
    policy.maxBatch = static_cast<uint32_t>(sargs.maxBatch);
    policy.maxWaitCycles = sargs.maxWait;
    if (run.slo)
        policy.lsMaxWaitCycles = sargs.maxWait / 5;
    policy.numDevices = run.devices;
    policy.pipelinedStaging = run.pipelined;
    policy.sched = run.sched;

    TraversalService svc(cfg, stats, policy);
    size_t btree_keys = run.btreeKeys ? run.btreeKeys : args.keys / 5;
    size_t radius_points =
        run.radiusPoints ? run.radiusPoints : args.points / 4;
    // The fleet's latency-sensitive lane stays cheap: a small tree
    // whose lookups cost little and pollute little.
    size_t base_keys =
        run.btreeFleet ? std::max<size_t>(btree_keys / 16, 1024)
                       : btree_keys;
    auto key = [&](const std::string &w) {
        return std::string("svc.") + w + "/" +
               std::to_string(btree_keys) + "/" +
               std::to_string(radius_points) + "/" +
               std::to_string(args.seed);
    };
    auto btree = cache.getShared<BTreeTenantData>(
        key("btree@" + std::to_string(base_keys)), [&] {
            return BTreeTenantData::build(base_keys, /*pool=*/8192,
                                          args.seed);
        });
    svc.addTenant(std::make_unique<BTreeTenant>("btree", btree),
                  run.slo ? SloClass::LatencySensitive
                          : SloClass::Throughput);
    if (run.btreeFleet) {
        for (uint32_t i = 0; i < run.btreeFleet; ++i) {
            std::string name = "btree" + std::to_string(i);
            // Pool sized so one tenant's reusable hot set (upper
            // tree levels plus the pool's path lines, ~1MB at 4096
            // queries over a 1M-key tree) shares a 3MB device L2
            // with at most one other tenant: a device serving its
            // one or two pinned tenants runs warm, a device that
            // round-robins the whole fleet evicts every batch.
            auto data =
                cache.getShared<BTreeTenantData>(key(name), [&] {
                    return BTreeTenantData::build(
                        btree_keys, /*pool=*/4096,
                        args.seed + 1 + 17 * i);
                });
            svc.addTenant(
                std::make_unique<BTreeTenant>(name, data));
        }
    } else if (run.mix) {
        auto radius =
            cache.getShared<RadiusTenantData>(key("radius"), [&] {
                return RadiusTenantData::build(radius_points,
                                               /*pool=*/2048, 1.0f,
                                               args.seed);
            });
        auto rays = cache.getShared<RayTenantData>(key("rays"), [&] {
            return RayTenantData::build(SceneKind::CornellPt,
                                        /*pool=*/1024, args.seed);
        });
        svc.addTenant(std::make_unique<RadiusTenant>("radius", radius));
        svc.addTenant(std::make_unique<RayTenant>("rays", rays));
    }

    TrafficConfig tc;
    tc.process = run.process;
    tc.totalQueries = args.queries;
    tc.cancelFraction = run.cancelFraction;
    tc.cancelAfterMean = static_cast<double>(sargs.maxWait) / 2;
    // Query mix skewed toward the cheap tenant so the aggregate rate
    // keeps the devices saturated without the expensive tenants
    // dominating the makespan.
    if (run.btreeFleet) {
        // Fleet mode: a sliver of latency-sensitive traffic, the rest
        // split evenly across the equally-priced big-tree tenants.
        tc.tenantWeights.assign(1 + run.btreeFleet,
                                0.90 / run.btreeFleet);
        tc.tenantWeights[0] = 0.10;
    } else if (run.mix)
        tc.tenantWeights = {0.90, 0.07, 0.03};
    // Auto gap: keep the open-loop offered load near aggregate device
    // capacity (~a few tens of cycles per B-Tree query in a full
    // batch, divided across the group).
    double autoGap =
        (run.btreeFleet ? 20.0 : run.mix ? 180.0 : 8.0) / run.devices;
    tc.meanGapCycles = run.meanGap ? run.meanGap : autoGap;
    tc.clients = run.clients;
    tc.thinkCycles = run.thinkCycles;

    TrafficGen gen(tc, svc.numTenants(), args.seed ^ 0xbadc0ffeull);
    return svc.run(gen);
}

ScenarioRun
toRun(const ScenarioSpec &spec, const ServiceArgs &sargs)
{
    ScenarioRun run;
    run.process = spec.process;
    run.mix = spec.mix;
    run.slo = spec.slo;
    run.cancelFraction = spec.cancelFraction;
    run.devices = sargs.devices
                      ? static_cast<uint32_t>(sargs.devices)
                      : spec.devices;
    run.meanGap = static_cast<double>(sargs.meanGap);
    run.pipelined = !sargs.serialStaging;
    run.sched = sargs.sched;
    return run;
}

void
fillRecord(sim::RunRecord &rec, const ServiceReport &rep,
           const sim::Config &cfg, uint32_t devices)
{
    rec.cycles = rep.makespan;
    double mhz = cfg.coreClockMhz;
    rec.values["devices"] = static_cast<double>(devices);
    rec.values["throughput_qpmc"] = rep.throughputQpmc();
    rec.values["lat_p50_cycles"] =
        static_cast<double>(rep.latency.percentile(50));
    rec.values["lat_p99_cycles"] =
        static_cast<double>(rep.latency.percentile(99));
    rec.values["lat_p999_cycles"] =
        static_cast<double>(rep.latency.percentile(99.9));
    rec.values["lat_p50_us"] = cyclesToUs(rep.latency.percentile(50), mhz);
    rec.values["lat_p99_us"] = cyclesToUs(rep.latency.percentile(99), mhz);
    rec.values["lat_p999_us"] =
        cyclesToUs(rep.latency.percentile(99.9), mhz);
    rec.values["batches"] = static_cast<double>(rep.batches);
    rec.values["expired_dispatches"] =
        static_cast<double>(rep.expiredDispatches);
    rec.values["completed"] = static_cast<double>(rep.completed);
    rec.values["canceled"] = static_cast<double>(rep.canceled);
    for (size_t d = 0; d < rep.devices.size(); ++d)
        rec.values["dev" + std::to_string(d) + "_batches"] =
            static_cast<double>(rep.devices[d].batches);
    for (uint32_t c = 0; c < kNumSloClasses; ++c) {
        const ClassReport &cr = rep.classes[c];
        if (!cr.completed)
            continue;
        std::string prefix = std::string("class_") +
                             sloClassName(static_cast<SloClass>(c));
        rec.values[prefix + "_completed"] =
            static_cast<double>(cr.completed);
        rec.values[prefix + "_p50_cycles"] =
            static_cast<double>(cr.latency.percentile(50));
        rec.values[prefix + "_p99_cycles"] =
            static_cast<double>(cr.latency.percentile(99));
        rec.values[prefix + "_p999_cycles"] =
            static_cast<double>(cr.latency.percentile(99.9));
    }
}

void
emitRecords(const Args &args, const std::vector<sim::RunRecord> &records)
{
    if (args.json.empty())
        return;
    std::ofstream file;
    std::ostream *os = &std::cout;
    if (args.json != "-") {
        file.open(args.json, std::ios::app);
        if (!file) {
            std::fprintf(stderr, "cannot open %s\n", args.json.c_str());
            std::exit(1);
        }
        os = &file;
    }
    for (const auto &rec : records) {
        rec.writeJson(*os, args.jsonTiming != 0);
        *os << "\n";
    }
}

/**
 * One trailing JSON record for the WorkloadCache counters. Recorded
 * once, after every runner pool has joined: per-run snapshots would be
 * racy under --jobs (lookup order depends on host scheduling) and
 * would break --json-timing=0 byte-identity; the final aggregate is
 * deterministic (hits = lookups - distinct keys).
 */
sim::RunRecord
cacheRecord(const WorkloadCache &cache)
{
    sim::RunRecord rec;
    rec.name = "workload_cache";
    rec.values["cache_lookups"] = static_cast<double>(cache.lookups());
    rec.values["cache_hits"] = static_cast<double>(cache.hits());
    return rec;
}

void
printCacheLine(const WorkloadCache &cache)
{
    std::printf("workload cache: %llu of %llu tenant-data lookups hit "
                "(shared across tenants, devices and replays)\n",
                static_cast<unsigned long long>(cache.hits()),
                static_cast<unsigned long long>(cache.lookups()));
}

/**
 * BENCH_9: open-loop overload study. Per device count {1,2,4}: probe
 * the closed-loop capacity, then sweep offered load from 0.2x to 2x
 * of it and record throughput + per-class latency. @return exit code.
 */
int
runOverloadStudy(const Args &args, const ServiceArgs &sargs,
                 WorkloadCache &cache)
{
    const uint32_t kDevCounts[] = {1, 2, 4};
    const double kFactors[] = {0.2, 0.5, 0.8, 1.0, 1.25, 1.5, 2.0};

    printHeader("BENCH_9", "multi-device open-loop overload study",
                args);
    std::printf("  policy: max-batch=%llu max-wait=%llu cycles, "
                "slo classes on (btree=latency)\n",
                static_cast<unsigned long long>(sargs.maxBatch),
                static_cast<unsigned long long>(sargs.maxWait));

    // Pass 1: closed-loop capacity probe per device count.
    std::vector<sim::Job> probeJobs;
    std::vector<ServiceReport> probeReports(std::size(kDevCounts));
    for (size_t i = 0; i < std::size(kDevCounts); ++i) {
        sim::Job job;
        job.name = "overload/probe/d" + std::to_string(kDevCounts[i]);
        job.config = modeConfig(sim::AccelMode::Tta);
        job.seed = args.seed;
        job.fn = [&, i](const sim::Config &cfg,
                        sim::StatRegistry &stats, sim::RunRecord &rec) {
            ScenarioRun run;
            run.process = ArrivalProcess::ClosedLoop;
            run.slo = true;
            run.devices = kDevCounts[i];
            run.pipelined = !sargs.serialStaging;
            // The probe must saturate the group, not the clients:
            // a large population with short think time keeps every
            // device backlogged, so completed/makespan is the
            // capacity point, not the client-limited arrival rate.
            run.clients = 2048 * kDevCounts[i];
            run.thinkCycles = 500.0;
            ServiceReport rep =
                runService(run, args, sargs, cfg, stats, cache);
            fillRecord(rec, rep, cfg, run.devices);
            probeReports[i] = rep;
        };
        probeJobs.push_back(std::move(job));
    }
    sim::ExperimentRunner probeRunner(static_cast<unsigned>(args.jobs));
    std::vector<sim::RunRecord> probeRecords =
        probeRunner.run(probeJobs);
    for (const auto &rec : probeRecords) {
        if (rec.failed()) {
            std::fprintf(stderr, "probe '%s' failed: %s\n",
                         rec.name.c_str(), rec.error.c_str());
            return 1;
        }
    }

    double capacity[std::size(kDevCounts)];
    std::printf("\nclosed-loop capacity probes:\n");
    for (size_t i = 0; i < std::size(kDevCounts); ++i) {
        capacity[i] = probeReports[i].throughputQpmc();
        std::printf("  d%u: %.1f qpmc (%llu batches)\n", kDevCounts[i],
                    capacity[i],
                    static_cast<unsigned long long>(
                        probeReports[i].batches));
        if (capacity[i] <= 0.0) {
            std::fprintf(stderr, "degenerate capacity probe\n");
            return 1;
        }
    }

    // Pass 2: the open-loop sweep.
    struct Cell
    {
        uint32_t devices;
        double factor;
        ServiceReport rep;
    };
    std::vector<Cell> cells;
    std::vector<sim::Job> jobs;
    for (size_t i = 0; i < std::size(kDevCounts); ++i) {
        for (double f : kFactors) {
            size_t idx = cells.size();
            cells.push_back({kDevCounts[i], f, {}});
            // Offered rate = factor x capacity; qpmc is per million
            // cycles, so the mean gap is 1e6 / (capacity * factor).
            double gap = 1e6 / (capacity[i] * f);
            sim::Job job;
            char name[64];
            std::snprintf(name, sizeof name, "overload/d%u/x%.2f",
                          kDevCounts[i], f);
            job.name = name;
            job.config = modeConfig(sim::AccelMode::Tta);
            job.seed = args.seed;
            job.fn = [&, idx, gap](const sim::Config &cfg,
                                   sim::StatRegistry &stats,
                                   sim::RunRecord &rec) {
                Cell &cell = cells[idx];
                ScenarioRun run;
                run.process = ArrivalProcess::Poisson;
                run.slo = true;
                run.devices = cell.devices;
                run.meanGap = gap;
                run.pipelined = !sargs.serialStaging;
                cell.rep =
                    runService(run, args, sargs, cfg, stats, cache);
                fillRecord(rec, cell.rep, cfg, cell.devices);
                rec.values["offered_factor"] = cell.factor;
                rec.values["offered_qpmc"] =
                    cell.factor * capacity[idx / std::size(kFactors)];
            };
            jobs.push_back(std::move(job));
        }
    }
    sim::ExperimentRunner runner(static_cast<unsigned>(args.jobs));
    std::vector<sim::RunRecord> records = runner.run(jobs);
    for (const auto &rec : records) {
        if (rec.failed()) {
            std::fprintf(stderr, "run '%s' failed: %s\n",
                         rec.name.c_str(), rec.error.c_str());
            return 1;
        }
    }
    std::vector<sim::RunRecord> all = probeRecords;
    all.insert(all.end(), records.begin(), records.end());
    all.push_back(cacheRecord(cache));
    emitRecords(args, all);

    std::printf("\n%-6s %6s %9s %9s | %10s %10s | %10s %10s %8s\n",
                "dev", "load", "offered", "qpmc", "lat.p99",
                "lat.p999", "thr.p99", "thr.p999", "expired");
    std::printf("%-6s %6s %9s %9s | %21s | %s\n", "", "", "(qpmc)", "",
                "latency class (us)", "throughput class (us) ");
    for (const Cell &cell : cells) {
        double mhz = modeConfig(sim::AccelMode::Tta).coreClockMhz;
        const ClassReport &ls = cell.rep.classes[static_cast<uint32_t>(
            SloClass::LatencySensitive)];
        const ClassReport &tp = cell.rep.classes[static_cast<uint32_t>(
            SloClass::Throughput)];
        size_t di = 0;
        while (kDevCounts[di] != cell.devices)
            ++di;
        std::printf("d%-5u %5.2fx %9.1f %9.1f | %10.1f %10.1f | %10.1f "
                    "%10.1f %8llu\n",
                    cell.devices, cell.factor,
                    cell.factor * capacity[di],
                    cell.rep.throughputQpmc(),
                    cyclesToUs(ls.latency.percentile(99), mhz),
                    cyclesToUs(ls.latency.percentile(99.9), mhz),
                    cyclesToUs(tp.latency.percentile(99), mhz),
                    cyclesToUs(tp.latency.percentile(99.9), mhz),
                    static_cast<unsigned long long>(
                        cell.rep.expiredDispatches));
    }
    std::printf("(offered = factor x closed-loop capacity; qpmc = "
                "completed per million cycles)\n");
    printCacheLine(cache);

    if (sargs.overloadScale > 0.0) {
        // Saturated aggregate scaling: the 2.0x cell at 4 devices vs
        // 1 device, on simulated throughput (host-independent).
        double q1 = 0.0, q4 = 0.0;
        for (const Cell &cell : cells) {
            if (cell.factor != 2.0)
                continue;
            if (cell.devices == 1)
                q1 = cell.rep.throughputQpmc();
            if (cell.devices == 4)
                q4 = cell.rep.throughputQpmc();
        }
        double scale = q1 > 0.0 ? q4 / q1 : 0.0;
        bool ok = scale >= sargs.overloadScale;
        std::printf("overload scaling gate: d4/d1 saturated throughput "
                    "%.2fx (need >= %.2fx): %s\n",
                    scale, sargs.overloadScale, ok ? "PASS" : "FAIL");
        if (!ok)
            return 6;
    }
    return 0;
}

/**
 * BENCH_10: scheduling-policy study. Per device count {1,2,4}: probe
 * the closed-loop capacity under lld, then run a locality-bound
 * open-loop scenario — a fleet of equally-priced large-tree B-Tree
 * tenants with distinct key sets plus a cheap latency-sensitive lane —
 * at a saturating offered load (1.5x capacity) under both scheduling
 * policies and compare throughput and tail latency. One
 * tenant's hot paths fit a device's L2, the fleet's combined working
 * set does not, so lld's tenant interleaving thrashes — precisely the
 * locality that affinity placement recovers. @return exit code.
 */
int
runSchedStudy(const Args &args, const ServiceArgs &sargs,
              WorkloadCache &cache)
{
    const uint32_t kDevCounts[] = {1, 2, 4};
    const SchedPolicy kPolicies[] = {SchedPolicy::LeastLoaded,
                                     SchedPolicy::Affinity};
    const double kLoadFactor = 1.5; //!< offered load vs capacity

    printHeader("BENCH_10", "locality-aware scheduling-policy study",
                args);
    std::printf("  policy sweep: lld affinity; "
                "max-batch=%llu max-wait=%llu, offered load %.1fx "
                "capacity, slo classes on\n",
                static_cast<unsigned long long>(sargs.maxBatch),
                static_cast<unsigned long long>(sargs.maxWait),
                kLoadFactor);

    // Locality-bound tenant fleet: six equally-priced B-Tree tenants
    // on deliberately large trees (keys = --keys, ~10x the BENCH_8
    // scenarios) with distinct key sets, plus a cheap
    // latency-sensitive lane. Six lanes over four devices keeps every
    // device saturated while still letting affinity carve stable
    // 1-2-tenant homes; one device's L2 holds one or two tenants'
    // hot paths comfortably but never the whole fleet, so lld's
    // round-robin interleaving evicts on every batch — the locality
    // affinity recovers it.
    auto baseRun = [&](uint32_t devices) {
        ScenarioRun run;
        run.slo = true;
        run.mix = false;
        run.btreeFleet = 6;
        run.devices = devices;
        run.pipelined = !sargs.serialStaging;
        run.btreeKeys = args.keys;
        run.radiusPoints = args.points;
        return run;
    };

    // Pass 1: closed-loop capacity probe per device count, under lld
    // so every policy faces the identical offered load.
    std::vector<sim::Job> probeJobs;
    std::vector<ServiceReport> probeReports(std::size(kDevCounts));
    for (size_t i = 0; i < std::size(kDevCounts); ++i) {
        sim::Job job;
        job.name = "sched/probe/d" + std::to_string(kDevCounts[i]);
        job.config = modeConfig(sim::AccelMode::Tta);
        job.seed = args.seed;
        job.fn = [&, i](const sim::Config &cfg,
                        sim::StatRegistry &stats, sim::RunRecord &rec) {
            ScenarioRun run = baseRun(kDevCounts[i]);
            run.process = ArrivalProcess::ClosedLoop;
            // Enough closed-loop clients to fill several maxBatch
            // batches per device, or the probe understates capacity.
            run.clients = 8 * static_cast<uint32_t>(sargs.maxBatch) *
                          kDevCounts[i];
            run.thinkCycles = 500.0;
            ServiceReport rep =
                runService(run, args, sargs, cfg, stats, cache);
            fillRecord(rec, rep, cfg, run.devices);
            probeReports[i] = rep;
        };
        probeJobs.push_back(std::move(job));
    }
    sim::ExperimentRunner probeRunner(static_cast<unsigned>(args.jobs));
    std::vector<sim::RunRecord> probeRecords =
        probeRunner.run(probeJobs);
    for (const auto &rec : probeRecords) {
        if (rec.failed()) {
            std::fprintf(stderr, "probe '%s' failed: %s\n",
                         rec.name.c_str(), rec.error.c_str());
            return 1;
        }
    }
    double capacity[std::size(kDevCounts)];
    std::printf("\nclosed-loop capacity probes (lld):\n");
    for (size_t i = 0; i < std::size(kDevCounts); ++i) {
        capacity[i] = probeReports[i].throughputQpmc();
        std::printf("  d%u: %.1f qpmc (%llu batches)\n", kDevCounts[i],
                    capacity[i],
                    static_cast<unsigned long long>(
                        probeReports[i].batches));
        if (capacity[i] <= 0.0) {
            std::fprintf(stderr, "degenerate capacity probe\n");
            return 1;
        }
    }

    // Pass 2: policy x devices at the saturating offered load.
    struct Cell
    {
        uint32_t devices;
        SchedPolicy policy;
        ServiceReport rep;
    };
    std::vector<Cell> cells;
    std::vector<sim::Job> jobs;
    for (size_t i = 0; i < std::size(kDevCounts); ++i) {
        double gap = 1e6 / (capacity[i] * kLoadFactor);
        for (SchedPolicy pol : kPolicies) {
            size_t idx = cells.size();
            cells.push_back({kDevCounts[i], pol, {}});
            sim::Job job;
            job.name = std::string("sched/d") +
                       std::to_string(kDevCounts[i]) + "/" +
                       schedPolicyName(pol);
            job.config = modeConfig(sim::AccelMode::Tta);
            job.seed = args.seed;
            job.fn = [&, idx, gap, pol](const sim::Config &cfg,
                                        sim::StatRegistry &stats,
                                        sim::RunRecord &rec) {
                Cell &cell = cells[idx];
                ScenarioRun run = baseRun(cell.devices);
                run.process = ArrivalProcess::Poisson;
                run.meanGap = gap;
                run.sched = pol;
                cell.rep =
                    runService(run, args, sargs, cfg, stats, cache);
                fillRecord(rec, cell.rep, cfg, cell.devices);
                rec.values["offered_factor"] = kLoadFactor;
                rec.values["l2_hits"] = static_cast<double>(
                    stats.counterValue("l2.hits"));
                rec.values["l2_misses"] = static_cast<double>(
                    stats.counterValue("l2.misses"));
                rec.values["dram_reads"] = static_cast<double>(
                    stats.counterValue("dram.reads"));
            };
            jobs.push_back(std::move(job));
        }
    }
    sim::ExperimentRunner runner(static_cast<unsigned>(args.jobs));
    std::vector<sim::RunRecord> records = runner.run(jobs);
    for (const auto &rec : records) {
        if (rec.failed()) {
            std::fprintf(stderr, "run '%s' failed: %s\n",
                         rec.name.c_str(), rec.error.c_str());
            return 1;
        }
    }
    std::vector<sim::RunRecord> all = probeRecords;
    all.insert(all.end(), records.begin(), records.end());
    all.push_back(cacheRecord(cache));
    emitRecords(args, all);

    double mhz = modeConfig(sim::AccelMode::Tta).coreClockMhz;
    std::printf("\n%-6s %-9s %9s %10s %10s %8s\n", "dev", "policy",
                "qpmc", "p99(us)", "ls.p99(us)", "expired");
    for (const Cell &cell : cells) {
        const ClassReport &ls = cell.rep.classes[static_cast<uint32_t>(
            SloClass::LatencySensitive)];
        std::printf("d%-5u %-9s %9.1f %10.1f %10.1f %8llu\n",
                    cell.devices, schedPolicyName(cell.policy),
                    cell.rep.throughputQpmc(),
                    cyclesToUs(cell.rep.latency.percentile(99), mhz),
                    cyclesToUs(ls.latency.percentile(99), mhz),
                    static_cast<unsigned long long>(
                        cell.rep.expiredDispatches));
    }
    std::printf("(offered load %.1fx the lld closed-loop capacity; "
                "qpmc = completed per million cycles)\n",
                kLoadFactor);
    printCacheLine(cache);

    if (sargs.schedGain > 0.0) {
        const ServiceReport *lld = nullptr, *aff = nullptr;
        for (const Cell &cell : cells) {
            if (cell.devices != 4)
                continue;
            if (cell.policy == SchedPolicy::LeastLoaded)
                lld = &cell.rep;
            if (cell.policy == SchedPolicy::Affinity)
                aff = &cell.rep;
        }
        double q_lld = lld ? lld->throughputQpmc() : 0.0;
        double q_aff = aff ? aff->throughputQpmc() : 0.0;
        double gain = q_lld > 0.0 ? q_aff / q_lld : 0.0;
        uint64_t p99_lld = lld ? lld->latency.percentile(99) : 0;
        uint64_t p99_aff = aff ? aff->latency.percentile(99) : 0;
        bool gain_ok = gain >= sargs.schedGain;
        bool p99_ok = p99_aff <= p99_lld;
        std::printf("sched gain gate (d4): affinity/lld saturated "
                    "throughput %.2fx (need >= %.2fx): %s; p99 %llu vs "
                    "%llu cycles (need <=): %s\n",
                    gain, sargs.schedGain, gain_ok ? "PASS" : "FAIL",
                    static_cast<unsigned long long>(p99_aff),
                    static_cast<unsigned long long>(p99_lld),
                    p99_ok ? "PASS" : "FAIL");
        if (!gain_ok || !p99_ok)
            return 7;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ServiceArgs sargs;
    Args args;
    FlagSet fs(argv[0],
               "traversal-as-a-service bench (BENCH_8/9/10); see the "
               "file comment in bench/bench_service.cc");
    registerCommonFlags(fs, args);
    fs.number("max-batch", sargs.maxBatch,
              "admission dispatch threshold (queries)");
    fs.number("max-wait", sargs.maxWait,
              "admission deadline in cycles");
    fs.number("mean-gap", sargs.meanGap,
              "open-loop mean inter-arrival gap (0 = auto)");
    fs.number("devices", sargs.devices,
              "override every scenario's device count");
    fs.str("bench", sargs.filter,
           "scenario substring filter ('overload'/'sched' = studies)");
    fs.str("scenario", sargs.scenario, "run exactly one scenario");
    fs.str("sched", sargs.schedName,
           "scheduling policy lld|affinity (default: lld)");
    fs.flag("list-scenarios", sargs.listScenarios,
            "print scenario names and exit");
    fs.flag("serial-staging", sargs.serialStaging,
            "single-threaded host staging (bit-identical)");
    fs.flag("check-determinism", sargs.checkDeterminism,
            "replay rerun/staging-flip; exit 2 on divergence");
    fs.real("check-overload-scaling", sargs.overloadScale,
            "overload study: require d4 >= X times d1; exit 6");
    fs.real("check-sched-gain", sargs.schedGain,
            "sched study: require affinity >= X times lld at d4; exit 7");
    fs.parse(argc, argv);

    if (!sargs.schedName.empty() &&
        !parseSchedPolicy(sargs.schedName, sargs.sched)) {
        std::fprintf(stderr, "unknown --sched=%s (lld|affinity)\n",
                     sargs.schedName.c_str());
        return 64;
    }

    if (sargs.listScenarios) {
        listScenarios();
        return 0;
    }

    WorkloadCache cache(args.rebuildDevice == 0);

    if (sargs.filter == "overload" || sargs.scenario == "overload") {
        if (args.queries == 16384)
            args.queries = 120000; // overload default per cell
        return runOverloadStudy(args, sargs, cache);
    }
    if (sargs.filter == "sched" || sargs.scenario == "sched") {
        if (args.queries == 16384)
            args.queries = 120000; // sched-study default per cell
        // Locality-bound study defaults (overridable): deep trees so
        // one tenant's hot path set is a meaningful fraction of the
        // L2, and a mid-sized batch. 512 queries amortize launch cost
        // but leave less query-level overlap than the accelerator can
        // hide a cold L2 behind, so the warm/cold contrast the
        // scheduler creates actually shows up in batch time (at 1024
        // the latency hiding flattens a 38% L2-miss reduction into a
        // ~1% throughput change).
        if (args.keys == 100000)
            args.keys = 1000000;
        if (sargs.maxBatch == 256)
            sargs.maxBatch = 512;
        return runSchedStudy(args, sargs, cache);
    }
    if (args.queries == 16384)
        args.queries = 1000000; // service default: a million arrivals

    std::vector<const ScenarioSpec *> selected;
    if (!sargs.scenario.empty()) {
        for (const auto &s : kScenarios)
            if (sargs.scenario == s.name)
                selected.push_back(&s);
        if (selected.empty()) {
            std::fprintf(stderr, "unknown --scenario=%s\n",
                         sargs.scenario.c_str());
            listScenarios();
            return 64;
        }
    } else {
        for (const auto &s : kScenarios)
            if (sargs.filter.empty() ||
                std::string(s.name).find(sargs.filter) !=
                    std::string::npos)
                selected.push_back(&s);
        if (selected.empty()) {
            std::fprintf(stderr, "no scenario matches --bench=%s\n",
                         sargs.filter.c_str());
            listScenarios();
            return 64;
        }
    }

    printHeader("BENCH_8", "traversal-as-a-service latency/throughput",
                args);
    std::printf("  policy: max-batch=%llu max-wait=%llu cycles "
                "sched=%s%s%s\n",
                static_cast<unsigned long long>(sargs.maxBatch),
                static_cast<unsigned long long>(sargs.maxWait),
                schedPolicyName(sargs.sched),
                sargs.devices ? " devices-override" : "",
                sargs.serialStaging ? " serial-staging" : "");

    // One runner job per scenario: private registries, deterministic
    // result order, JSON records for free.
    std::vector<ServiceReport> reports(selected.size());
    std::vector<sim::Job> jobs;
    for (size_t i = 0; i < selected.size(); ++i) {
        const ScenarioSpec &spec = *selected[i];
        sim::Job job;
        job.name = spec.name;
        job.config = modeConfig(sim::AccelMode::Tta);
        job.seed = args.seed;
        job.fn = [&, i, &spec = *selected[i]](const sim::Config &cfg,
                                              sim::StatRegistry &stats,
                                              sim::RunRecord &rec) {
            ScenarioRun run = toRun(spec, sargs);
            ServiceReport rep =
                runService(run, args, sargs, cfg, stats, cache);
            fillRecord(rec, rep, cfg, run.devices);
            reports[i] = rep;
        };
        jobs.push_back(std::move(job));
    }

    sim::ExperimentRunner runner(static_cast<unsigned>(args.jobs));
    std::vector<sim::RunRecord> records = runner.run(jobs);
    for (const auto &rec : records) {
        if (rec.failed()) {
            std::fprintf(stderr, "scenario '%s' failed: %s\n",
                         rec.name.c_str(), rec.error.c_str());
            return 1;
        }
    }
    {
        std::vector<sim::RunRecord> all = records;
        all.push_back(cacheRecord(cache));
        emitRecords(args, all);
    }

    std::printf("\n%-15s %3s %9s %7s %8s %9s %9s %9s %8s %8s\n",
                "scenario", "dev", "queries", "batches", "qpmc",
                "p50(us)", "p99(us)", "p999(us)", "util", "wall(s)");
    for (size_t i = 0; i < selected.size(); ++i) {
        const ServiceReport &rep = reports[i];
        double mhz = jobs[i].config.coreClockMhz;
        uint32_t dev = static_cast<uint32_t>(rep.devices.size());
        double util =
            rep.makespan
                ? 100.0 * static_cast<double>(rep.deviceBusy) /
                      (static_cast<double>(rep.makespan) * dev)
                : 0.0;
        std::printf("%-15s %3u %9llu %7llu %8.1f %9.1f %9.1f %9.1f "
                    "%7.1f%% %8.2f\n",
                    selected[i]->name, dev,
                    static_cast<unsigned long long>(rep.completed),
                    static_cast<unsigned long long>(rep.batches),
                    rep.throughputQpmc(),
                    cyclesToUs(rep.latency.percentile(50), mhz),
                    cyclesToUs(rep.latency.percentile(99), mhz),
                    cyclesToUs(rep.latency.percentile(99.9), mhz), util,
                    records[i].wallSeconds);
    }
    std::printf("(qpmc = completed queries per million simulated "
                "cycles; util = mean device busy fraction)\n");
    printCacheLine(cache);

    int rc = 0;
    for (size_t i = 0; i < selected.size(); ++i) {
        if (!mergeIsExact(reports[i])) {
            std::fprintf(stderr,
                         "%s: per-device histogram merge is not exact\n",
                         selected[i]->name);
            rc = 2;
        }
    }
    if (rc)
        return rc;

    if (sargs.checkDeterminism) {
        // Replay every scenario twice: identical rerun and the opposite
        // staging mode. Admission decisions, batch composition (global
        // and per device), and all latency histograms must be
        // bit-identical.
        struct Pass
        {
            const char *name;
            bool flipStaging;
        };
        const Pass kPasses[] = {
            {"rerun", false},
            {"staging-flip", true},
        };
        for (const Pass &pass : kPasses) {
            std::printf("\nDeterminism cross-check (%s):\n", pass.name);
            for (size_t i = 0; i < selected.size(); ++i) {
                sim::StatRegistry stats;
                ScenarioRun run = toRun(*selected[i], sargs);
                if (pass.flipStaging)
                    run.pipelined = !run.pipelined;
                ServiceReport rep = runService(run, args, sargs,
                                               jobs[i].config, stats,
                                               cache);
                bool same =
                    oracleString(rep) == oracleString(reports[i]) &&
                    mergeIsExact(rep);
                std::printf("  %-15s %s\n", selected[i]->name,
                            same ? "bit-identical" : "DIVERGED");
                if (!same)
                    rc = 2;
            }
        }
        if (rc)
            return rc;
    }
    return 0;
}
