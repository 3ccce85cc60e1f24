/**
 * @file
 * B-Tree / B*Tree / B+Tree query workload (Section IV-A).
 *
 * The paper queries 1M random keys against trees of 10k-4M keys, one
 * query per thread, while-loop traversal. This workload provides:
 *
 *  - the serialized tree + query/result buffers in simulated memory,
 *  - the baseline "CUDA" kernel (Algorithm 1 as a divergent SIMT loop),
 *  - the TraversalSpec + Listing-1 pipeline for RTA-class hardware,
 *  - result verification against the host reference search.
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

    /**
     * Copy: shares the immutable tree and copies the query/reference
     * vectors, so the copy can setup()/run against its own device while
     * the source (e.g. a bench::WorkloadCache prototype) stays untouched
     * — a run on a copy is bit-identical to a run on a freshly built
     * workload.
     */
    BTreeWorkload(const BTreeWorkload &other) = default;
    BTreeWorkload &operator=(const BTreeWorkload &) = delete;

    /** Serialize tree + buffers into a device's memory. */
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

    const trees::BTree &tree() const { return tree_; }
    size_t numQueries() const { return queries_.size(); }
    const std::vector<float> &queries() const { return queries_; }

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

    trees::BTree tree_;
    std::vector<float> queries_;
    std::vector<uint8_t> expected_;
    std::vector<uint32_t> deviceResults_;
    uint64_t rootAddr_ = 0;
    uint64_t queryBase_ = 0;
    uint64_t resultBase_ = 0;
};

} // namespace tta::workloads

#endif // TTA_WORKLOADS_BTREE_WORKLOAD_HH
