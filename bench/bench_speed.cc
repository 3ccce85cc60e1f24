/**
 * @file
 * Simulator-speed harness across kernels (BENCH_*.json).
 *
 * Runs a representative workload mix under the polling reference
 * kernel and the event-driven kernel, timing each run and reading the
 * scheduler telemetry (processed vs skipped cycles). Both kernels must
 * agree on every simulated cycle count (the bench aborts otherwise:
 * this doubles as a cross-kernel equivalence check), so the wall-clock
 * ratios are pure simulator-speed measurements, not model changes.
 *
 *   --keys/--queries/--bodies/--points/--seed   workload sizes
 *   --bench=SUBSTR              only run benches whose name contains
 *                               SUBSTR (e.g. --bench=rtnn/tta)
 *   --json=FILE                 write the report as JSON ("-" = stdout)
 *   --check-skip-fraction=PCT   fail unless the event kernel skipped
 *                               at least PCT% of cycles (CI perf smoke)
 *   --check-wide-speedup=X      fail unless every gated wide/* config
 *                               (raytrace, rtnn) reaches X times the
 *                               scalar tree's wall clock. Auto-skipped
 *                               (with a note) when geom/simd.hh fell
 *                               back to the scalar backend — there is
 *                               nothing to gate without vector units.
 *
 * Besides the simulator-kernel matrix, a host-side functional section
 * (bench names wide/raytrace, wide/rtnn, wide/rtree) times the scalar
 * binary trees against the wide SoA layouts driven by the batched SIMD
 * kernels, verifying identical query results before reporting speedups.
 *
 * Exit codes are distinct per failure class so CI can tell a
 * correctness break from a performance regression:
 *   2  cross-kernel cycle mismatch or wide-vs-scalar result divergence
 *      (correctness: the offending bench and configuration are printed)
 *   4  --check-skip-fraction unmet (performance gate)
 *   5  --check-wide-speedup unmet (performance gate)
 *   64 usage error (unknown flag or malformed value)
 *   1  I/O error (e.g. unwritable --json path)
 *
 * scripts/record_bench.sh wraps this binary into the committed
 * BENCH_4.json / BENCH_7.json.
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"

#include "geom/intersect.hh"
#include "sim/config.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"
#include "trees/bvh.hh"
#include "trees/rtree.hh"
#include "workloads/btree_workload.hh"
#include "workloads/nbody_workload.hh"
#include "workloads/rtnn_workload.hh"

using namespace tta;
using namespace ::tta::workloads;

namespace {

// Distinct exit codes; see the file comment.
constexpr int kExitCycleMismatch = 2;
constexpr int kExitSkipGate = 4;
constexpr int kExitWideGate = 5;
// Usage errors exit 64 via bench::FlagSet::kExitUsage.

struct SpeedArgs
{
    size_t keys = 20000;
    size_t queries = 4096;
    size_t bodies = 2048;
    size_t points = 8192;
    uint64_t seed = 7;
    std::string json;
    std::string benchFilter; // substring match; empty = all
    double checkSkipFraction = -1.0; // percent; <0 = no check
    double checkWideSpeedup = -1.0;  // ratio; <0 = no check
};

SpeedArgs
parseArgs(int argc, char **argv)
{
    SpeedArgs args;
    bench::FlagSet fs(argv[0],
                      "simulator-speed harness across kernels "
                      "(BENCH_4/7); see bench/bench_speed.cc");
    fs.number("keys", args.keys, "B-Tree key count");
    fs.number("queries", args.queries, "queries per workload");
    fs.number("bodies", args.bodies, "n-body population");
    fs.number("points", args.points, "point-cloud size");
    fs.number("seed", args.seed, "workload RNG seed");
    fs.str("json", args.json, "write the report as JSON ('-' = stdout)");
    fs.str("bench", args.benchFilter,
           "only run benches whose name contains SUBSTR");
    fs.real("check-skip-fraction", args.checkSkipFraction,
            "fail (exit 4) unless the event kernel skipped >= PCT%");
    fs.real("check-wide-speedup", args.checkWideSpeedup,
            "fail (exit 5) unless gated wide configs reach X times "
            "scalar (auto-skip on the scalar SIMD backend)");
    fs.parse(argc, argv);
    return args;
}

struct Bench
{
    std::string name;
    sim::AccelMode mode;
    std::function<RunMetrics(const sim::Config &, sim::StatRegistry &)> fn;
};

struct RunResult
{
    std::string bench;
    const char *kernel;
    uint64_t cycles = 0;
    double wallSeconds = 0.0;
    double cyclesPerSec = 0.0;
    double skippedFraction = 0.0;
};

RunResult
timeOne(const Bench &bench, sim::Simulator::Kernel kernel)
{
    sim::Simulator::setDefaultKernel(kernel);
    sim::SchedulerTelemetry::reset();
    sim::Config cfg;
    cfg.accelMode = bench.mode;
    sim::StatRegistry stats;
    auto start = std::chrono::steady_clock::now();
    RunMetrics m = bench.fn(cfg, stats);
    auto stop = std::chrono::steady_clock::now();
    sim::Simulator::resetDefaultKernel();

    RunResult r;
    r.bench = bench.name;
    r.kernel =
        kernel == sim::Simulator::Kernel::Polling ? "polling" : "event";
    r.cycles = m.cycles;
    r.wallSeconds = std::chrono::duration<double>(stop - start).count();
    uint64_t processed = sim::SchedulerTelemetry::cyclesTicked();
    uint64_t skipped = sim::SchedulerTelemetry::cyclesSkipped();
    r.cyclesPerSec = r.wallSeconds > 0.0
                         ? (processed + skipped) / r.wallSeconds
                         : 0.0;
    r.skippedFraction = sim::SchedulerTelemetry::skippedFraction();
    return r;
}

// --- Wide SoA functional section -------------------------------------------
//
// Host-side wall-clock comparison of the scalar binary trees against the
// wide SoA layouts whose hot loops run on the batched kernels from
// geom/intersect.cc. Results are checksummed and must be identical
// across layouts (the layouts are exact; quantization is not used here),
// so the measured ratio is pure functional-path speed.

struct WideResult
{
    std::string name;   //!< wide/raytrace, wide/rtnn, wide/rtree
    bool gated = false; //!< participates in --check-wide-speedup
    double scalarWall = 0.0;
    double wall4 = 0.0; //!< 4-wide (rtree: SoA fanout-8) wall clock
    double wall8 = 0.0; //!< 8-wide wall clock; 0 when not applicable
    double bestSpeedup = 0.0;
    bool identical = true;
};

double
timeWall(const std::function<void()> &fn)
{
    auto start = std::chrono::steady_clock::now();
    fn();
    auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(stop - start).count();
}

WideResult
wideRaytrace(const SpeedArgs &args)
{
    struct Tri
    {
        geom::Vec3 v0, v1, v2;
    };
    sim::Rng rng(args.seed * 77 + 1);
    size_t n_tris = std::max<size_t>(1024, args.points / 4);
    std::vector<Tri> tris(n_tris);
    std::vector<geom::Aabb> boxes(n_tris);
    for (size_t i = 0; i < n_tris; ++i) {
        geom::Vec3 base{rng.uniform(-40, 40), rng.uniform(-40, 40),
                        rng.uniform(-40, 40)};
        auto jitter = [&]() {
            return geom::Vec3{rng.uniform(-1.5f, 1.5f),
                              rng.uniform(-1.5f, 1.5f),
                              rng.uniform(-1.5f, 1.5f)};
        };
        tris[i] = {base, base + jitter(), base + jitter()};
        boxes[i].extend(tris[i].v0);
        boxes[i].extend(tris[i].v1);
        boxes[i].extend(tris[i].v2);
    }
    trees::Bvh bvh;
    bvh.build(boxes, 2);
    trees::WideBvh w4, w8;
    w4.build(bvh, 4);
    w8.build(bvh, 8);

    size_t n_rays = std::max<size_t>(4096, args.queries * 4);
    std::vector<geom::Ray> rays(n_rays);
    for (auto &ray : rays) {
        ray.origin = {rng.uniform(-50, 50), rng.uniform(-50, 50),
                      rng.uniform(-50, 50)};
        geom::Vec3 target{rng.uniform(-40, 40), rng.uniform(-40, 40),
                          rng.uniform(-40, 40)};
        ray.dir = normalize(target - ray.origin);
    }

    auto closestSum = [&](auto &&tree) {
        uint64_t sum = 0;
        for (const geom::Ray &ray : rays) {
            geom::Ray r = ray;
            uint32_t best_prim = UINT32_MAX;
            float best_t = 0.0f;
            tree.traverse(r, [&](uint32_t id) {
                auto h = geom::rayTriangle(r, tris[id].v0, tris[id].v1,
                                           tris[id].v2);
                if (h && h->t < r.tmax) {
                    best_prim = id;
                    best_t = h->t;
                    r.tmax = h->t;
                }
            });
            if (best_prim != UINT32_MAX)
                sum += best_prim + std::bit_cast<uint32_t>(best_t);
        }
        return sum;
    };

    WideResult res;
    res.name = "wide/raytrace";
    res.gated = true;
    uint64_t sum_bin = 0, sum4 = 0, sum8 = 0;
    res.scalarWall = timeWall([&] { sum_bin = closestSum(bvh); });
    res.wall4 = timeWall([&] { sum4 = closestSum(w4); });
    res.wall8 = timeWall([&] { sum8 = closestSum(w8); });
    res.identical = sum4 == sum_bin && sum8 == sum_bin;
    return res;
}

WideResult
wideRtnn(const SpeedArgs &args)
{
    sim::Rng rng(args.seed * 101 + 3);
    size_t n_pts = std::max<size_t>(4096, args.points);
    const float radius = 1.0f;
    std::vector<geom::Vec3> pts(n_pts);
    std::vector<geom::Aabb> boxes(n_pts);
    for (size_t i = 0; i < n_pts; ++i) {
        pts[i] = {rng.uniform(-30, 30), rng.uniform(-30, 30),
                  rng.uniform(-30, 30)};
        boxes[i].extend(pts[i]);
    }
    trees::Bvh bvh;
    bvh.build(boxes, 2);
    trees::WideBvh w4, w8;
    w4.build(bvh, 4);
    w8.build(bvh, 8);

    size_t n_queries = std::max<size_t>(8192, args.queries * 4);
    std::vector<geom::Vec3> queries(n_queries);
    for (auto &q : queries) {
        q = {rng.uniform(-30, 30), rng.uniform(-30, 30),
             rng.uniform(-30, 30)};
    }

    auto countSum = [&](auto &&tree) {
        uint64_t sum = 0;
        for (const geom::Vec3 &q : queries) {
            uint32_t count = 0;
            tree.pointQuery(q, radius, [&](uint32_t id) {
                if (geom::pointWithinRadius(q, pts[id], radius))
                    ++count;
            });
            sum += count;
        }
        return sum;
    };

    WideResult res;
    res.name = "wide/rtnn";
    res.gated = true;
    uint64_t sum_bin = 0, sum4 = 0, sum8 = 0;
    res.scalarWall = timeWall([&] { sum_bin = countSum(bvh); });
    res.wall4 = timeWall([&] { sum4 = countSum(w4); });
    res.wall8 = timeWall([&] { sum8 = countSum(w8); });
    res.identical = sum4 == sum_bin && sum8 == sum_bin;
    return res;
}

WideResult
wideRtree(const SpeedArgs &args)
{
    sim::Rng rng(args.seed * 131 + 7);
    size_t n_objects = std::max<size_t>(4096, args.keys / 2);
    std::vector<trees::Rect2D> objects(n_objects);
    for (auto &obj : objects) {
        float x = rng.uniform(0.0f, 198.0f);
        float y = rng.uniform(0.0f, 198.0f);
        obj = {x, y, x + rng.uniform(0.2f, 2.0f),
               y + rng.uniform(0.2f, 2.0f)};
    }
    // The same fanout-8 tree walks both ways, so the ratio isolates the
    // batched node test from tree-shape effects.
    trees::RTree tree(objects, 8);

    size_t n_queries = std::max<size_t>(8192, args.queries * 4);
    std::vector<trees::Rect2D> queries(n_queries);
    for (auto &q : queries) {
        float x = rng.uniform(5.0f, 195.0f);
        float y = rng.uniform(5.0f, 195.0f);
        q = {x - 2.0f, y - 2.0f, x + 2.0f, y + 2.0f};
    }

    WideResult res;
    res.name = "wide/rtree";
    res.gated = false; // 2D-only datapath; reported, not gated
    uint64_t sum_scalar = 0, sum_soa = 0;
    res.scalarWall = timeWall([&] {
        for (const auto &q : queries)
            sum_scalar += tree.countOverlaps(q);
    });
    res.wall4 = timeWall([&] {
        for (const auto &q : queries)
            sum_soa += tree.countOverlapsSoa(q);
    });
    res.identical = sum_soa == sum_scalar;
    return res;
}

void
writeJson(std::ostream &os, const std::vector<RunResult> &runs,
          const std::vector<WideResult> &wide, double speedup,
          double event_skipped, double wide_speedup)
{
    os << "{\n  \"bench\": \"bench_speed\",\n  \"simd_backend\": \""
       << geom::simdBackendName() << "\",\n  \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        const RunResult &r = runs[i];
        char buf[320];
        std::snprintf(buf, sizeof(buf),
                      "    {\"bench\": \"%s\", \"kernel\": \"%s\", "
                      "\"cycles\": %llu, \"wall_s\": %.4f, "
                      "\"cycles_per_sec\": %.0f, "
                      "\"skipped_cycle_fraction\": %.4f}",
                      r.bench.c_str(), r.kernel,
                      static_cast<unsigned long long>(r.cycles),
                      r.wallSeconds, r.cyclesPerSec, r.skippedFraction);
        os << buf << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "  ],\n  \"wide\": [\n";
    for (size_t i = 0; i < wide.size(); ++i) {
        const WideResult &w = wide[i];
        char buf[320];
        std::snprintf(buf, sizeof(buf),
                      "    {\"bench\": \"%s\", \"gated\": %s, "
                      "\"scalar_wall_s\": %.4f, \"wide4_wall_s\": %.4f, "
                      "\"wide8_wall_s\": %.4f, \"speedup\": %.2f, "
                      "\"identical_results\": %s}",
                      w.name.c_str(), w.gated ? "true" : "false",
                      w.scalarWall, w.wall4, w.wall8, w.bestSpeedup,
                      w.identical ? "true" : "false");
        os << buf << (i + 1 < wide.size() ? ",\n" : "\n");
    }
    char buf[280];
    std::snprintf(buf, sizeof(buf),
                  "  ],\n  \"summary\": {\"wall_clock_speedup\": %.2f, "
                  "\"event_skipped_cycle_fraction\": %.4f, "
                  "\"wide_vs_scalar_speedup\": %.2f}\n}\n",
                  speedup, event_skipped, wide_speedup);
    os << buf;
}

} // namespace

int
main(int argc, char **argv)
{
    SpeedArgs args = parseArgs(argc, argv);

    std::vector<Bench> benches;
    benches.push_back(
        {"btree/base", sim::AccelMode::BaselineGpu,
         [&](const sim::Config &cfg, sim::StatRegistry &stats) {
             BTreeWorkload wl(trees::BTreeKind::BTree, args.keys,
                              args.queries, args.seed);
             return wl.runBaseline(cfg, stats);
         }});
    benches.push_back(
        {"btree/tta", sim::AccelMode::Tta,
         [&](const sim::Config &cfg, sim::StatRegistry &stats) {
             BTreeWorkload wl(trees::BTreeKind::BTree, args.keys,
                              args.queries, args.seed);
             return wl.runAccelerated(cfg, stats);
         }});
    benches.push_back(
        {"nbody/ttaplus", sim::AccelMode::TtaPlus,
         [&](const sim::Config &cfg, sim::StatRegistry &stats) {
             NBodyWorkload wl(2, args.bodies, args.seed);
             return wl.runAccelerated(cfg, stats, false);
         }});
    benches.push_back(
        {"nbody3d/fused", sim::AccelMode::TtaPlus,
         [&](const sim::Config &cfg, sim::StatRegistry &stats) {
             NBodyWorkload wl(3, args.bodies, args.seed);
             return wl.runAccelerated(cfg, stats, true);
         }});
    benches.push_back(
        {"rtnn/base", sim::AccelMode::BaselineGpu,
         [&](const sim::Config &cfg, sim::StatRegistry &stats) {
             RtnnWorkload wl(args.points, args.queries / 4, 1.0f,
                             args.seed);
             return wl.runBaseline(cfg, stats);
         }});
    benches.push_back(
        {"rtnn/tta", sim::AccelMode::Tta,
         [&](const sim::Config &cfg, sim::StatRegistry &stats) {
             RtnnWorkload wl(args.points, args.queries / 4, 1.0f,
                             args.seed);
             return wl.runAccelerated(cfg, stats, false);
         }});

    std::vector<RunResult> runs;
    double wall_polling = 0.0, wall_event = 0.0;
    uint64_t skipped_total = 0, cycle_total = 0;
    bool mismatch = false;
    std::printf("%-16s %10s %12s %10s %14s %9s\n", "bench", "kernel",
                "cycles", "wall_s", "cycles/sec", "skipped");
    auto report = [&](const RunResult &r) {
        std::printf("%-16s %10s %12llu %10.3f %14.0f %8.1f%%\n",
                    r.bench.c_str(), r.kernel,
                    static_cast<unsigned long long>(r.cycles),
                    r.wallSeconds, r.cyclesPerSec,
                    100.0 * r.skippedFraction);
        runs.push_back(r);
    };
    for (const Bench &bench : benches) {
        if (!args.benchFilter.empty() &&
            bench.name.find(args.benchFilter) == std::string::npos)
            continue;
        RunResult polling =
            timeOne(bench, sim::Simulator::Kernel::Polling);
        RunResult event =
            timeOne(bench, sim::Simulator::Kernel::EventDriven);
        report(polling);
        report(event);
        if (polling.cycles != event.cycles) {
            std::fprintf(stderr,
                         "FAIL: %s simulated %llu cycles under polling "
                         "but %llu under event\n",
                         bench.name.c_str(),
                         static_cast<unsigned long long>(polling.cycles),
                         static_cast<unsigned long long>(event.cycles));
            mismatch = true;
        }
        wall_polling += polling.wallSeconds;
        wall_event += event.wallSeconds;
        // Aggregate skip fraction across the event runs, cycle-weighted.
        uint64_t total = event.cycles;
        cycle_total += total;
        skipped_total +=
            static_cast<uint64_t>(event.skippedFraction * total);
    }
    if (mismatch)
        return kExitCycleMismatch;

    // Host-side wide-vs-scalar functional section.
    std::vector<WideResult> wide;
    {
        const std::pair<const char *, WideResult (*)(const SpeedArgs &)>
            wide_benches[] = {{"wide/raytrace", wideRaytrace},
                              {"wide/rtnn", wideRtnn},
                              {"wide/rtree", wideRtree}};
        for (const auto &[name, fn] : wide_benches) {
            if (!args.benchFilter.empty() &&
                std::string(name).find(args.benchFilter) ==
                    std::string::npos)
                continue;
            WideResult w = fn(args);
            double best = std::min(
                w.wall4, w.wall8 > 0.0 ? w.wall8 : w.wall4);
            w.bestSpeedup = best > 0.0 ? w.scalarWall / best : 0.0;
            wide.push_back(w);
        }
    }
    if (!wide.empty()) {
        std::printf("wide SoA functional section (simd backend: %s)\n",
                    geom::simdBackendName());
        std::printf("%-16s %12s %12s %12s %9s %10s\n", "bench",
                    "scalar_s", "wide4_s", "wide8_s", "speedup",
                    "identical");
        for (const WideResult &w : wide) {
            std::printf("%-16s %12.3f %12.3f %12.3f %8.2fx %10s\n",
                        w.name.c_str(), w.scalarWall, w.wall4, w.wall8,
                        w.bestSpeedup, w.identical ? "yes" : "NO");
            if (!w.identical) {
                std::fprintf(stderr,
                             "FAIL: %s wide layout diverged from the "
                             "scalar tree's results\n",
                             w.name.c_str());
                return kExitCycleMismatch;
            }
        }
    }

    double speedup = wall_event > 0.0 ? wall_polling / wall_event : 0.0;
    double event_skipped =
        cycle_total ? static_cast<double>(skipped_total) / cycle_total
                    : 0.0;
    std::printf("wall-clock speedup (polling / event): %.2fx; "
                "event kernel skipped %.1f%% of cycles\n",
                speedup, 100.0 * event_skipped);

    // Worst gated wide speedup: every gated config must clear the gate,
    // so the summary records the weakest one.
    double wide_speedup = 0.0;
    bool have_gated = false;
    for (const WideResult &w : wide) {
        if (!w.gated)
            continue;
        wide_speedup = have_gated ? std::min(wide_speedup, w.bestSpeedup)
                                  : w.bestSpeedup;
        have_gated = true;
    }

    if (!args.json.empty()) {
        if (args.json == "-") {
            writeJson(std::cout, runs, wide, speedup, event_skipped,
                      wide_speedup);
        } else {
            std::ofstream os(args.json);
            if (!os) {
                std::fprintf(stderr, "cannot open %s\n",
                             args.json.c_str());
                return 1;
            }
            writeJson(os, runs, wide, speedup, event_skipped,
                      wide_speedup);
        }
    }

    if (args.checkSkipFraction >= 0.0 &&
        100.0 * event_skipped < args.checkSkipFraction) {
        std::fprintf(stderr,
                     "FAIL: event kernel skipped only %.1f%% of cycles "
                     "(required >= %.1f%%)\n",
                     100.0 * event_skipped, args.checkSkipFraction);
        return kExitSkipGate;
    }
    if (args.checkWideSpeedup >= 0.0) {
        if (std::strcmp(geom::simdBackendName(), "scalar") == 0) {
            std::printf("--check-wide-speedup skipped: the scalar SIMD "
                        "fallback is in use (nothing to gate)\n");
        } else if (have_gated && wide_speedup < args.checkWideSpeedup) {
            std::fprintf(stderr,
                         "FAIL: worst gated wide-vs-scalar speedup is "
                         "%.2fx (required >= %.2fx)\n",
                         wide_speedup, args.checkWideSpeedup);
            return kExitWideGate;
        }
    }
    return 0;
}
