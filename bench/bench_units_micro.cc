/**
 * @file
 * Micro-benchmarks (google-benchmark) for the hot building blocks:
 * functional intersection tests, the query-key unit, the coalescer,
 * cache accesses, the TTA+ engine walk, and the SIMT interpreter. These
 * guard the *simulator's* own performance — the figure benches run
 * millions of these operations.
 */

#include <benchmark/benchmark.h>

#include "geom/intersect.hh"
#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "sim/rng.hh"
#include "sim/runner.hh"
#include "tta/query_key_unit.hh"
#include "ttaplus/engine.hh"

using namespace tta;

static void
BM_RayBox(benchmark::State &state)
{
    geom::Aabb box({0, 0, 0}, {1, 1, 1});
    geom::Ray ray;
    ray.origin = {-2, 0.4f, 0.6f};
    ray.dir = geom::normalize({1.0f, 0.05f, -0.02f});
    for (auto _ : state)
        benchmark::DoNotOptimize(geom::rayBox(ray, box));
}
BENCHMARK(BM_RayBox);

static void
BM_RayTriangle(benchmark::State &state)
{
    geom::Vec3 v0(0, 0, 0), v1(1, 0, 0), v2(0, 1, 0);
    geom::Ray ray;
    ray.origin = {0.3f, 0.3f, 1};
    ray.dir = {0, 0, -1};
    for (auto _ : state)
        benchmark::DoNotOptimize(geom::rayTriangle(ray, v0, v1, v2));
}
BENCHMARK(BM_RayTriangle);

static void
BM_QueryKeyUnit(benchmark::State &state)
{
    float keys[9] = {2, 4, 6, 8, 10, 12, 14, 16, 18};
    float query = 9.0f;
    for (auto _ : state) {
        benchmark::DoNotOptimize(::tta::tta::queryKeyUnit(query, keys));
        query += 2.0f;
        if (query > 20.0f)
            query = 1.0f;
    }
}
BENCHMARK(BM_QueryKeyUnit);

static void
BM_Coalescer(benchmark::State &state)
{
    std::vector<mem::Addr> addrs(32);
    sim::Rng rng(1);
    for (auto &a : addrs)
        a = 0x10000 + rng.nextBounded(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            mem::coalesce(addrs, 0xffffffffu, 4, 128));
}
BENCHMARK(BM_Coalescer)->Arg(128)->Arg(4096)->Arg(1 << 20);

static void
BM_CacheAccess(benchmark::State &state)
{
    sim::StatRegistry stats;
    mem::Cache cache("c", 64 * 1024, 512, 128, 64, stats);
    sim::Rng rng(2);
    for (auto _ : state) {
        mem::Addr line = (rng.nextBounded(1024)) * 128;
        auto r = cache.access(line, false);
        if (r == mem::Cache::Result::MissNew ||
            r == mem::Cache::Result::NoMshr)
            cache.fill(line);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_CacheAccess);

static void
BM_TtaPlusEngineWalk(benchmark::State &state)
{
    sim::Config cfg;
    sim::StatRegistry stats;
    ttaplus::TtaPlusEngine engine(cfg, stats);
    auto prog = ttaplus::programs::rayBoxInner();
    sim::Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.execute(now, prog, false));
        now += 4;
    }
}
BENCHMARK(BM_TtaPlusEngineWalk);

/** Dispatch overhead of the parallel experiment runner: jobs-per-second
 *  for trivial job bodies at 1..N worker threads. The figure benches put
 *  whole simulations behind this, so overhead must stay negligible. */
static void
BM_ExperimentRunner(benchmark::State &state)
{
    const size_t n_jobs = 64;
    std::vector<sim::Job> jobs(n_jobs);
    for (size_t i = 0; i < n_jobs; ++i) {
        jobs[i].name = "job" + std::to_string(i);
        jobs[i].fn = [](const sim::Config &, sim::StatRegistry &stats,
                        sim::RunRecord &rec) {
            ++stats.counter("noop");
            rec.cycles = 1;
        };
    }
    sim::ExperimentRunner runner(
        static_cast<unsigned>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(runner.run(jobs));
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * n_jobs));
}
BENCHMARK(BM_ExperimentRunner)->Arg(1)->Arg(2)->Arg(4);

// Like BENCHMARK_MAIN(), but an unknown flag exits 64, the usage exit
// code every other bench uses.
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 64;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
