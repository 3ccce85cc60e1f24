/**
 * @file
 * Quickstart: accelerate a B-Tree index search with the TTA in ~40 lines
 * of user code.
 *
 * Mirrors the paper's Listing 1 flow:
 *   1. describe the data layouts (DecodeR / DecodeI / DecodeL),
 *   2. install the intersection-test programs (ConfigI / ConfigL),
 *   3. create the pipeline and bind it to a device,
 *   4. launch with cmdTraverseTree.
 *
 * Build & run:  ./examples/quickstart   (exits 1 on a wrong result)
 */

#include <cstdio>

#include "api/tta_api.hh"
#include "workloads/btree_workload.hh"

using namespace tta;

int
main()
{
    // A device with one TTA per SM (Table II configuration).
    sim::Config cfg;
    cfg.accelMode = sim::AccelMode::Tta;
    sim::StatRegistry stats;
    api::TtaDevice device(cfg, stats);
    mem::GlobalMemory &gmem = device.memory();

    // A 9-wide B-Tree with 100k keys (the even numbers 2..200000), 10k
    // random queries and their host reference results.
    const size_t n = 10000;
    workloads::BTreeInputs in(trees::BTreeKind::BTree, 100000, n,
                              /*seed=*/42, /*hit_rate=*/0.5);
    std::printf("Tree: %zu keys, %zu nodes, height %u\n",
                in.tree.numKeys(), in.tree.numNodes(), in.tree.height());

    // Serialize the tree into simulated GPU memory and stage one query
    // per lane.
    uint64_t root = in.tree.serialize(gmem);
    auto lanes = workloads::BTreeLanes::alloc(gmem, n);
    for (size_t i = 0; i < n; ++i)
        lanes.stage(gmem, i, in.pool[i]);

    // Listing 1: layouts + intersection programs + termination, bound
    // with the functional spec behind the configured programs
    // (query-key comparison against the serialized node layout).
    api::TtaPipeline pipeline = workloads::BTreeWorkload::makePipeline();
    workloads::BTreeSpec spec(gmem, root, lanes.queryBase,
                              lanes.resultBase);
    device.bindPipeline(pipeline, &spec);

    // One traverseTreeTTA per query.
    sim::Cycle cycles = device.cmdTraverseTree(n);
    size_t bad = lanes.mismatches(gmem, n,
                                  [&](size_t i) { return in.expected[i]; });
    workloads::RunMetrics accel = workloads::collectMetrics(
        stats, cycles, device.gpu().memsys().dramUtilization());
    std::printf("TTA traversal: %llu cycles, %llu nodes visited, "
                "%zu of %zu results differ from the host reference\n",
                static_cast<unsigned long long>(accel.cycles),
                static_cast<unsigned long long>(accel.nodesVisited), bad,
                n);
    if (bad != 0)
        return 1;

    // The same queries on the CUDA-style baseline (BaselineGpu).
    workloads::BTreeWorkload workload(trees::BTreeKind::BTree, 100000, n,
                                      /*seed=*/42);
    sim::Config base_cfg;
    sim::StatRegistry base_stats;
    workloads::RunMetrics base = workload.runBaseline(base_cfg, base_stats);
    std::printf("CUDA-style baseline: %llu cycles (%0.2fx slower), "
                "%llu dynamic instructions vs %llu\n",
                static_cast<unsigned long long>(base.cycles),
                static_cast<double>(base.cycles) / accel.cycles,
                static_cast<unsigned long long>(base.totalInsts()),
                static_cast<unsigned long long>(accel.totalInsts()));
    std::printf("\nThat's the paper's pitch: one traverseTreeTTA "
                "instruction replaces the whole divergent loop.\n");
    return 0;
}
