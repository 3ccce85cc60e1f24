/**
 * @file
 * Golden-stat regression snapshots.
 *
 * A handful of fixed configurations re-run on every test invocation and
 * every counter, scalar and the cycle count are diffed against a JSON
 * snapshot committed under tests/golden/. Any counter drift — a changed
 * value, a vanished stat, a new stat — fails with a precise message, so
 * unintended perturbations of the timing model show up immediately.
 *
 * Each snapshot is replayed under the default event kernel
 * (GoldenStats), under the polling reference kernel (GoldenStatsPolling)
 * and as concurrent copies on an ExperimentRunner worker pool
 * (GoldenStatsThreaded), as `--jobs` sweeps run them.
 *
 * Intentional model changes regenerate the snapshots:
 *
 *     TTA_UPDATE_GOLDEN=1 ./test_golden
 *
 * then commit the rewritten files with the change that caused them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "json_lite.hh"
#include "sim/runner.hh"
#include "sim/ticked.hh"
#include "workloads/btree_workload.hh"
#include "workloads/nbody_workload.hh"
#include "workloads/rtnn_workload.hh"
#include "workloads/rtree_workload.hh"

#ifndef TTA_GOLDEN_DIR
#error "TTA_GOLDEN_DIR must point at tests/golden"
#endif

using namespace tta;
using namespace ::tta::workloads;

namespace {

sim::Config
modeConfig(sim::AccelMode mode)
{
    sim::Config cfg;
    cfg.accelMode = mode;
    return cfg;
}

struct GoldenCase
{
    const char *name;
    std::function<RunMetrics(sim::StatRegistry &)> run;
};

const GoldenCase kCases[] = {
    {"btree_base",
     [](sim::StatRegistry &stats) {
         BTreeWorkload wl(trees::BTreeKind::BTree, 2000, 256, 7);
         return wl.runBaseline(modeConfig(sim::AccelMode::BaselineGpu),
                               stats);
     }},
    {"btree_tta",
     [](sim::StatRegistry &stats) {
         BTreeWorkload wl(trees::BTreeKind::BTree, 2000, 256, 7);
         return wl.runAccelerated(modeConfig(sim::AccelMode::Tta), stats);
     }},
    {"rtree_ttaplus",
     [](sim::StatRegistry &stats) {
         RTreeWorkload wl(300, 64, 2.0f, 5);
         return wl.runAccelerated(modeConfig(sim::AccelMode::TtaPlus),
                                  stats);
     }},
    {"nbody_tta",
     [](sim::StatRegistry &stats) {
         NBodyWorkload wl(2, 256, 3);
         return wl.runAccelerated(modeConfig(sim::AccelMode::Tta), stats);
     }},
    // Wide SoA node layout: the snapshot pins both the layout
    // serialization (node strides, fetch-line counts) and the
    // rtaFetchWidth timing.
    {"rtnn_wide4",
     [](sim::StatRegistry &stats) {
         RtnnWorkload wl(1500, 48, 1.0f, 9);
         sim::Config cfg = modeConfig(sim::AccelMode::Tta);
         cfg.bvhNodeWidth = 4;
         cfg.rtaFetchWidth = 2;
         return wl.runAccelerated(cfg, stats, true);
     }},
};

std::string
goldenPath(const std::string &name)
{
    return std::string(TTA_GOLDEN_DIR) + "/" + name + ".json";
}

/** Serialize one run's observable state as a stable JSON document. */
std::string
snapshotJson(const char *name, const RunMetrics &m,
             const sim::StatRegistry &stats)
{
    std::ostringstream os;
    os << "{\n  \"name\": \"" << name << "\",\n";
    os << "  \"cycles\": " << m.cycles << ",\n";
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

/** Diff one run against the committed snapshot for `gc`. */
void
expectMatchesGolden(const GoldenCase &gc, const RunMetrics &m,
                    const std::string &current)
{
    std::ifstream in(goldenPath(gc.name));
    ASSERT_TRUE(in) << "missing golden snapshot " << goldenPath(gc.name)
                    << "; generate with TTA_UPDATE_GOLDEN=1";
    std::stringstream ss;
    ss << in.rdbuf();

    testjson::Value golden = testjson::parse(ss.str());
    testjson::Value now = testjson::parse(current);
    EXPECT_EQ(static_cast<uint64_t>(golden.at("cycles").asNumber()),
              m.cycles)
        << gc.name << " total cycles drifted";
    diffSection("counters", golden, now);
    diffSection("scalars", golden, now);
}

class GoldenStats : public ::testing::TestWithParam<size_t>
{};

class GoldenStatsPolling : public ::testing::TestWithParam<size_t>
{};

class GoldenStatsThreaded : public ::testing::TestWithParam<size_t>
{};

} // namespace

TEST_P(GoldenStats, MatchesSnapshot)
{
    const GoldenCase &gc = kCases[GetParam()];
    sim::StatRegistry stats;
    RunMetrics m = gc.run(stats);
    std::string current = snapshotJson(gc.name, m, stats);

    if (std::getenv("TTA_UPDATE_GOLDEN")) {
        std::ofstream out(goldenPath(gc.name));
        ASSERT_TRUE(out) << "cannot write " << goldenPath(gc.name);
        out << current;
        GTEST_SKIP() << "regenerated " << goldenPath(gc.name);
    }

    expectMatchesGolden(gc, m, current);
}

INSTANTIATE_TEST_SUITE_P(Configs, GoldenStats,
                         ::testing::Range<size_t>(0, std::size(kCases)),
                         [](const auto &info) {
                             return std::string(kCases[info.param].name);
                         });

// The snapshots were recorded under the polling reference kernel, and
// GoldenStats replays them under the default event kernel; replaying
// them under polling too keeps every golden config (TTA+, N-Body, the
// wide SoA BVH layout) under a polling-vs-event check.
TEST_P(GoldenStatsPolling, MatchesSnapshot)
{
    if (std::getenv("TTA_UPDATE_GOLDEN"))
        GTEST_SKIP() << "snapshots regenerate under the default kernel";
    const GoldenCase &gc = kCases[GetParam()];
    sim::Simulator::setDefaultKernel(sim::Simulator::Kernel::Polling);
    sim::StatRegistry stats;
    RunMetrics m = gc.run(stats);
    sim::Simulator::resetDefaultKernel();
    std::string current = snapshotJson(gc.name, m, stats);
    expectMatchesGolden(gc, m, current);
}

INSTANTIATE_TEST_SUITE_P(Configs, GoldenStatsPolling,
                         ::testing::Range<size_t>(0, std::size(kCases)),
                         [](const auto &info) {
                             return std::string(kCases[info.param].name);
                         });

// Run-level parallelism (ExperimentRunner, --jobs) must not perturb a
// run: copies of each golden config run side by side on a worker pool,
// each with its private registry, and every copy must still reproduce
// the snapshot. Any mutable state shared between simulations would show
// up here as drift (or as a data race under TSan).
TEST_P(GoldenStatsThreaded, MatchesSnapshot)
{
    if (std::getenv("TTA_UPDATE_GOLDEN"))
        GTEST_SKIP() << "snapshots regenerate under GoldenStats";
    const GoldenCase &gc = kCases[GetParam()];
    constexpr size_t kCopies = 3;
    std::vector<RunMetrics> metrics(kCopies);
    std::vector<sim::Job> jobs(kCopies);
    for (size_t i = 0; i < kCopies; ++i) {
        jobs[i].name = std::string(gc.name) + "/copy" + std::to_string(i);
        jobs[i].fn = [&gc, &m = metrics[i]](const sim::Config &,
                                            sim::StatRegistry &stats,
                                            sim::RunRecord &rec) {
            m = gc.run(stats);
            rec.cycles = m.cycles;
        };
    }
    auto records = sim::ExperimentRunner(kCopies).run(jobs);
    ASSERT_EQ(records.size(), kCopies);
    for (size_t i = 0; i < kCopies; ++i) {
        SCOPED_TRACE(records[i].name);
        ASSERT_FALSE(records[i].failed()) << records[i].error;
        expectMatchesGolden(
            gc, metrics[i],
            snapshotJson(gc.name, metrics[i], records[i].stats));
    }
}

INSTANTIATE_TEST_SUITE_P(Configs, GoldenStatsThreaded,
                         ::testing::Range<size_t>(0, std::size(kCases)),
                         [](const auto &info) {
                             return std::string(kCases[info.param].name);
                         });
