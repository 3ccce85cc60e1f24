/**
 * @file
 * Multi-device determinism tests for the traversal service
 * (service/service.hh on a service/device_group.hh group):
 *
 *  - the full determinism matrix: devices {1, 2, 4} x simulation
 *    kernels {event-driven, polling} x staging {pipelined, serial}
 *    must agree bit-for-bit on the global batch log, every per-device
 *    batch log, every latency histogram and the whole stat registry,
 *  - the same matrix again under the affinity scheduling policy at two
 *    devices — planning and placement are pure functions of the
 *    virtual clock on every kernel,
 *  - histogram merges are exact: the per-device latency histograms
 *    merge to exactly the service-wide histogram, and so do the
 *    per-SLO-class histograms,
 *  - per-device batch logs partition the global (retirement-order) log:
 *    filtering the global log by dev=d reproduces device d's own log,
 *  - the dispatcher balances: with saturating traffic every device in
 *    the group completes batches,
 *  - golden-stat snapshots of the two-device config under each policy
 *    (tests/golden/service_multidev.json for lld,
 *    tests/golden/service_multidev_affinity.json for affinity;
 *    TTA_UPDATE_GOLDEN=1 regenerates both).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "json_lite.hh"
#include "service/service.hh"
#include "sim/ticked.hh"

#ifndef TTA_GOLDEN_DIR
#error "TTA_GOLDEN_DIR must point at tests/golden"
#endif

using namespace ::tta::service;
namespace sim = ::tta::sim;
namespace testjson = ::tta::testjson;

namespace {

sim::Config
serviceConfig()
{
    sim::Config cfg;
    cfg.accelMode = sim::AccelMode::Tta;
    return cfg;
}

constexpr uint64_t kSeed = 17;

/** Three tenants (one latency-sensitive) on @p num_devices devices,
 *  arrivals fast enough to keep several devices busy at once. */
ServiceReport
runMultidevService(const sim::Config &cfg, sim::StatRegistry &stats,
                   uint32_t num_devices, bool pipelined,
                   SchedPolicy sched = SchedPolicy::LeastLoaded)
{
    ServicePolicy policy;
    policy.maxBatch = 48;
    policy.maxWaitCycles = 20000;
    policy.lsMaxWaitCycles = 4000;
    policy.numDevices = num_devices;
    policy.pipelinedStaging = pipelined;
    policy.sched = sched;
    TraversalService svc(cfg, stats, policy);
    svc.addTenant(std::make_unique<BTreeTenant>("btree", 400, 128,
                                                kSeed),
                  SloClass::LatencySensitive);
    svc.addTenant(std::make_unique<RadiusTenant>("radius", 512, 32,
                                                 1.0f, kSeed));
    svc.addTenant(std::make_unique<BTreeTenant>("btree2", 300, 96,
                                                kSeed + 1));

    TrafficConfig tc;
    tc.process = ArrivalProcess::Poisson;
    tc.totalQueries = 1400;
    tc.meanGapCycles = 12.0; // saturates one device, loads four
    tc.tenantWeights = {0.55, 0.25, 0.20};
    TrafficGen gen(tc, svc.numTenants(), kSeed ^ 0xfeedfaceull);
    return svc.run(gen);
}

/** Merge all per-device histograms; must equal the total exactly. */
bool
deviceMergeIsExact(const ServiceReport &rep, std::string *why)
{
    LatencyHistogram merged;
    for (const auto &dr : rep.devices)
        merged.merge(dr.latency);
    if (merged.dumpString() != rep.latency.dumpString()) {
        *why = "device merge:\n" + merged.dumpString() + "vs total:\n" +
               rep.latency.dumpString();
        return false;
    }
    LatencyHistogram classes;
    for (const auto &cr : rep.classes)
        classes.merge(cr.latency);
    if (classes.dumpString() != rep.latency.dumpString()) {
        *why = "class merge:\n" + classes.dumpString() + "vs total:\n" +
               rep.latency.dumpString();
        return false;
    }
    return true;
}

/** Bit-identity oracle: global + per-device logs, every histogram. */
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
        s += std::string(sloClassName(static_cast<SloClass>(c))) + ":" +
             rep.classes[c].latency.dumpString();
    }
    return s;
}

/** Drop the "b<k> " prefix of one batch-log line. */
std::string
stripBatchNumber(const std::string &line)
{
    size_t sp = line.find(' ');
    return sp == std::string::npos ? line : line.substr(sp + 1);
}

} // namespace

// ---------------------------------------------------------------------
// The determinism matrix.
// ---------------------------------------------------------------------

TEST(ServiceMultiDevice, DeterminismMatrix)
{
    struct Variant
    {
        const char *name;
        sim::Simulator::Kernel kernel;
        bool pipelined;
    };
    const Variant variants[] = {
        {"event/serial", sim::Simulator::Kernel::EventDriven, false},
        {"polling/pipelined", sim::Simulator::Kernel::Polling, true},
        {"polling/serial", sim::Simulator::Kernel::Polling, false},
    };

    for (uint32_t devices : {1u, 2u, 4u}) {
        // Reference: event kernel, pipelined staging — run twice to
        // also pin rerun identity.
        sim::StatRegistry refStats;
        ServiceReport ref = runMultidevService(serviceConfig(),
                                               refStats, devices, true);
        ASSERT_EQ(ref.completed, 1400u) << devices << " devices";
        ASSERT_EQ(ref.devices.size(), devices);
        std::string refOracle = oracleString(ref);
        std::string refDump = refStats.dumpString();
        std::string why;
        EXPECT_TRUE(deviceMergeIsExact(ref, &why)) << why;

        {
            sim::StatRegistry stats;
            ServiceReport rerun = runMultidevService(
                serviceConfig(), stats, devices, true);
            ASSERT_EQ(oracleString(rerun), refOracle)
                << devices << " devices: rerun diverged";
            ASSERT_EQ(stats.dumpString(), refDump)
                << devices << " devices: rerun registry diverged";
        }

        for (const Variant &v : variants) {
            sim::Simulator::setDefaultKernel(v.kernel);
            sim::StatRegistry stats;
            ServiceReport rep = runMultidevService(
                serviceConfig(), stats, devices, v.pipelined);
            sim::Simulator::resetDefaultKernel();

            EXPECT_EQ(oracleString(rep), refOracle)
                << devices << " devices, " << v.name
                << ": batch logs / histograms diverged";
            EXPECT_EQ(stats.dumpString(), refDump)
                << devices << " devices, " << v.name
                << ": stat registry diverged";
            EXPECT_EQ(rep.makespan, ref.makespan)
                << devices << " devices, " << v.name;
            EXPECT_TRUE(deviceMergeIsExact(rep, &why)) << why;
        }
    }
}

TEST(ServiceMultiDevice, DeterminismMatrixPolicies)
{
    // The affinity scheduler's placement and quota decisions must also
    // be pure functions of the virtual clock: rerun it on two devices
    // across kernels and staging modes.
    struct Variant
    {
        const char *name;
        sim::Simulator::Kernel kernel;
        bool pipelined;
    };
    const Variant variants[] = {
        {"event/serial", sim::Simulator::Kernel::EventDriven, false},
        {"polling/pipelined", sim::Simulator::Kernel::Polling, true},
        {"polling/serial", sim::Simulator::Kernel::Polling, false},
    };

    const SchedPolicy pol = SchedPolicy::Affinity;
    sim::StatRegistry refStats;
    ServiceReport ref = runMultidevService(serviceConfig(), refStats, 2,
                                           true, pol);
    ASSERT_EQ(ref.completed, 1400u);
    std::string refOracle = oracleString(ref);
    std::string refDump = refStats.dumpString();
    std::string why;
    EXPECT_TRUE(deviceMergeIsExact(ref, &why)) << why;

    {
        sim::StatRegistry stats;
        ServiceReport rerun =
            runMultidevService(serviceConfig(), stats, 2, true, pol);
        ASSERT_EQ(oracleString(rerun), refOracle) << "rerun diverged";
        ASSERT_EQ(stats.dumpString(), refDump)
            << "rerun registry diverged";
    }

    for (const Variant &v : variants) {
        sim::Simulator::setDefaultKernel(v.kernel);
        sim::StatRegistry stats;
        ServiceReport rep = runMultidevService(serviceConfig(), stats, 2,
                                               v.pipelined, pol);
        sim::Simulator::resetDefaultKernel();

        EXPECT_EQ(oracleString(rep), refOracle)
            << v.name << ": batch logs or histograms diverged";
        EXPECT_EQ(stats.dumpString(), refDump)
            << v.name << ": stat registry diverged";
        EXPECT_EQ(rep.makespan, ref.makespan) << v.name;
    }
}

// ---------------------------------------------------------------------
// Structure of the multi-device report.
// ---------------------------------------------------------------------

TEST(ServiceMultiDevice, PerDeviceLogsPartitionGlobalLog)
{
    sim::StatRegistry stats;
    ServiceReport rep = runMultidevService(serviceConfig(), stats, 4,
                                           true);
    ASSERT_EQ(rep.devices.size(), 4u);

    // Split each device's own log into numbered lines.
    std::vector<std::vector<std::string>> perDev(rep.devices.size());
    for (size_t d = 0; d < rep.devices.size(); ++d) {
        std::istringstream is(rep.devices[d].batchLog);
        std::string line;
        while (std::getline(is, line))
            perDev[d].push_back(stripBatchNumber(line));
    }

    // Filter the global log by its dev= suffix: the subsequence for
    // device d must reproduce device d's log, in order.
    std::vector<size_t> next(rep.devices.size(), 0);
    std::istringstream is(rep.batchLog);
    std::string line;
    uint64_t total = 0;
    while (std::getline(is, line)) {
        size_t tag = line.rfind(" dev=");
        ASSERT_NE(tag, std::string::npos) << line;
        unsigned dev = 0;
        ASSERT_EQ(std::sscanf(line.c_str() + tag, " dev=%u", &dev), 1)
            << line;
        ASSERT_LT(dev, perDev.size());
        std::string body = stripBatchNumber(line.substr(0, tag));
        ASSERT_LT(next[dev], perDev[dev].size())
            << "device " << dev << " log too short";
        EXPECT_EQ(body, perDev[dev][next[dev]++]) << "device " << dev;
        ++total;
    }
    for (size_t d = 0; d < perDev.size(); ++d) {
        EXPECT_EQ(next[d], perDev[d].size())
            << "device " << d << " log has extra lines";
        // Saturating traffic: the dispatcher keeps every device busy.
        EXPECT_GT(rep.devices[d].batches, 0u)
            << "device " << d << " never dispatched";
        EXPECT_EQ(rep.devices[d].batches, perDev[d].size());
    }
    EXPECT_EQ(total, rep.batches);

    // Completions partition too.
    uint64_t completed = 0;
    sim::Cycle busy = 0;
    for (const auto &dr : rep.devices) {
        completed += dr.completed;
        busy += dr.busy;
    }
    EXPECT_EQ(completed, rep.completed);
    EXPECT_EQ(busy, rep.deviceBusy);

    // SLO classes partition completions as well (both are populated).
    uint64_t classCompleted = 0;
    for (const auto &cr : rep.classes) {
        EXPECT_GT(cr.completed, 0u);
        classCompleted += cr.completed;
    }
    EXPECT_EQ(classCompleted, rep.completed);
}

TEST(ServiceMultiDevice, MoreDevicesFinishSooner)
{
    // Same saturating trace on 1 vs 4 devices: the group must shorten
    // the virtual-clock makespan substantially (this is the simulated
    // speedup the overload bench quantifies; here it gates a
    // conservative 1.5x so the test stays robust to timing-model
    // changes).
    sim::StatRegistry s1, s4;
    ServiceReport r1 = runMultidevService(serviceConfig(), s1, 1, true);
    ServiceReport r4 = runMultidevService(serviceConfig(), s4, 4, true);
    ASSERT_EQ(r1.completed, r4.completed);
    EXPECT_GT(r1.makespan, r4.makespan);
    EXPECT_GT(static_cast<double>(r1.makespan),
              1.5 * static_cast<double>(r4.makespan))
        << "4 devices did not shorten the makespan";
}

// ---------------------------------------------------------------------
// Golden snapshots of the two-device config, one per policy.
// ---------------------------------------------------------------------

namespace {

std::string
goldenPath(const std::string &name)
{
    return std::string(TTA_GOLDEN_DIR) + "/" + name + ".json";
}

std::string
snapshotJson(const std::string &name, const ServiceReport &rep,
             const sim::StatRegistry &stats)
{
    std::ostringstream os;
    os << "{\n  \"name\": \"" << name << "\",\n";
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

/** Run the two-device config under @p sched and diff it against the
 *  golden snapshot tests/golden/<name>.json. */
void
checkGolden(SchedPolicy sched, const std::string &name)
{
    SCOPED_TRACE(name);
    sim::StatRegistry stats;
    ServiceReport rep = runMultidevService(serviceConfig(), stats, 2,
                                           true, sched);
    std::string current = snapshotJson(name, rep, stats);
    std::string path = goldenPath(name);

    if (std::getenv("TTA_UPDATE_GOLDEN")) {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << current;
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden snapshot " << path
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

} // namespace

TEST(ServiceMultiDeviceGolden, MatchesSnapshot)
{
    checkGolden(SchedPolicy::LeastLoaded, "service_multidev");
    checkGolden(SchedPolicy::Affinity, "service_multidev_affinity");
    if (std::getenv("TTA_UPDATE_GOLDEN"))
        GTEST_SKIP() << "regenerated the golden snapshots";
}
