/**
 * @file
 * B-Tree / B*Tree / B+Tree query workload (Section IV-A).
 *
 * The paper queries 1M random keys against trees of 10k-4M keys, one
 * query per thread, while-loop traversal. This file holds the kind's
 * pieces that the figure workload and the service's B-Tree tenant
 * share:
 *
 *  - BTreeInputs: the tree, the seeded queries and their host
 *    reference results,
 *  - BTreeLanes: the query/result buffer layout in simulated memory,
 *    lane staging and the result check,
 *  - the TraversalSpec + Listing-1 pipeline for RTA-class hardware,
 *  - the baseline "CUDA" kernel (Algorithm 1 as a divergent SIMT loop).
 */

#ifndef TTA_WORKLOADS_BTREE_WORKLOAD_HH
#define TTA_WORKLOADS_BTREE_WORKLOAD_HH

#include <memory>
#include <vector>

#include "api/tta_api.hh"
#include "gpu/kernel.hh"
#include "rta/traversal_spec.hh"
#include "trees/btree.hh"
#include "workloads/metrics.hh"

namespace tta::workloads {

/** Accelerator-side functional spec for B-Tree search. */
class BTreeSpec : public rta::TraversalSpec
{
  public:
    BTreeSpec(mem::GlobalMemory &gmem, uint64_t root, uint64_t query_base,
              uint64_t result_base);

    void initRay(rta::RayState &ray, uint32_t lane_operand) override;
    void fetchLines(const rta::RayState &ray, rta::NodeRef ref,
                    std::vector<uint64_t> &lines) const override;
    rta::NodeOutcome processNode(rta::RayState &ray,
                                 rta::NodeRef ref) override;
    void finishRay(rta::RayState &ray) override;

    const ttaplus::Program &innerProgram() const override
    {
        return innerProg_;
    }
    const ttaplus::Program &leafProgram() const override
    {
        return leafProg_;
    }

  private:
    mem::GlobalMemory *gmem_;
    uint64_t root_;
    uint64_t queryBase_;
    uint64_t resultBase_;
    ttaplus::Program innerProg_;
    ttaplus::Program leafProg_;
};

/**
 * Inputs of B-Tree point lookups: a tree over the keys 2, 4, ..., 2n
 * (even integers, exact as floats up to 2^24), a pool of seeded
 * queries, and each query's host reference result (1 = found). A
 * fraction @p hit_rate of the queries are keys; the rest are the odd
 * number just below a key, which is guaranteed absent. A figure run
 * launches the whole pool once; a tenant's arrival k carries pool entry
 * k % pool.size().
 */
struct BTreeInputs
{
    BTreeInputs(trees::BTreeKind kind, size_t n_keys, size_t n_queries,
                uint64_t seed, double hit_rate);

    trees::BTree tree;
    std::vector<float> pool;
    std::vector<uint8_t> expected;
};

/**
 * Query and result buffers of a B-Tree launch: lane i reads a 4-byte
 * float key at queryBase + 4i and writes a 4-byte found flag at
 * resultBase + 4i.
 */
struct BTreeLanes
{
    uint64_t queryBase = 0;
    uint64_t resultBase = 0;

    /** Allocate the query buffer, then the result buffer, for @p n
     *  lanes. */
    static BTreeLanes alloc(mem::GlobalMemory &gmem, size_t n);

    /** Write lane @p i's key, and pre-fill its result with a value no
     *  launch writes, so a lane left unwritten reads as a mismatch. */
    void
    stage(mem::GlobalMemory &gmem, size_t i, float key) const
    {
        gmem.write<float>(queryBase + 4 * i, key);
        gmem.write<uint32_t>(resultBase + 4 * i, 0xdeadbeefu);
    }

    uint32_t
    result(const mem::GlobalMemory &gmem, size_t i) const
    {
        return gmem.read<uint32_t>(resultBase + 4 * i);
    }

    /** Lanes among [0, @p n) whose result is not @p expected(i). */
    template <class Expected>
    size_t
    mismatches(const mem::GlobalMemory &gmem, size_t n,
               Expected &&expected) const
    {
        size_t bad = 0;
        for (size_t i = 0; i < n; ++i)
            bad += result(gmem, i) != expected(i);
        return bad;
    }
};

class BTreeWorkload
{
  public:
    /**
     * @param kind      tree variant.
     * @param n_keys    keys in the tree.
     * @param n_queries query count (threads).
     * @param seed      workload RNG seed.
     * @param hit_rate  fraction of queries that exist in the tree.
     */
    BTreeWorkload(trees::BTreeKind kind, size_t n_keys, size_t n_queries,
                  uint64_t seed = 1, double hit_rate = 0.5);

    /** Serialize the tree and stage every query into a device's
     *  memory. */
    void setup(mem::GlobalMemory &gmem);

    /** Baseline: run the CUDA-style kernel on the SIMT cores. */
    RunMetrics runBaseline(const sim::Config &cfg,
                           sim::StatRegistry &stats);

    /** Accelerated: run through the TTA API at cfg.accelMode. */
    RunMetrics runAccelerated(const sim::Config &cfg,
                              sim::StatRegistry &stats);

    /** Check device results against the host reference.
     *  @return number of mismatches (0 = pass). */
    size_t verify(const mem::GlobalMemory &gmem) const;

    const trees::BTree &tree() const { return in_.tree; }
    size_t numQueries() const { return in_.pool.size(); }
    const std::vector<float> &queries() const { return in_.pool; }

    /**
     * Device-computed results (1 = key found) captured from simulated
     * memory by the most recent runBaseline / runAccelerated call, in
     * query order. Lets tests diff the cycle-level machine against an
     * *independent* oracle rather than the workload's own reference.
     */
    const std::vector<uint32_t> &deviceResults() const
    {
        return deviceResults_;
    }

    /** The Listing-1 pipeline for this workload. */
    static api::TtaPipeline makePipeline();
    /** Assemble the baseline traversal kernel. */
    static gpu::KernelProgram buildBaselineKernel();

  private:
    void captureResults(const mem::GlobalMemory &gmem);

    BTreeInputs in_;
    std::vector<uint32_t> deviceResults_;
    uint64_t rootAddr_ = 0;
    BTreeLanes lanes_;
};

} // namespace tta::workloads

#endif // TTA_WORKLOADS_BTREE_WORKLOAD_HH
