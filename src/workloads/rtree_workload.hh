/**
 * @file
 * R-Tree spatial range-query workload (extension beyond the paper's
 * evaluation; the paper's introduction motivates R-Trees explicitly).
 *
 * Queries count the indexed rectangles overlapping a query window. The
 * index is one RTree serialized as 128-byte AoS nodes (one cache line,
 * seven entries). The inner/leaf test — per-axis interval overlap —
 * runs on the TTA's min/max comparator datapath (the same hardware the
 * Query-Key unit repurposes; a 2D rectangle overlap is a degenerate
 * Ray-Box test), as a 14-uop Vec3CMP/Logical program on TTA+, and in
 * software on the SIMT cores for the baseline.
 */

#ifndef TTA_WORKLOADS_RTREE_WORKLOAD_HH
#define TTA_WORKLOADS_RTREE_WORKLOAD_HH

#include <memory>
#include <vector>

#include "api/tta_api.hh"
#include "gpu/kernel.hh"
#include "rta/traversal_spec.hh"
#include "trees/rtree.hh"
#include "workloads/metrics.hh"

namespace tta::workloads {

/** Accelerator-side spec for R-Tree range queries. */
class RTreeSpec : public rta::TraversalSpec
{
  public:
    RTreeSpec(mem::GlobalMemory &gmem, uint64_t root, uint64_t query_base,
              uint64_t result_base);

    void initRay(rta::RayState &ray, uint32_t lane_operand) override;
    void fetchLines(const rta::RayState &ray, rta::NodeRef ref,
                    std::vector<uint64_t> &lines) const override;
    rta::NodeOutcome processNode(rta::RayState &ray,
                                 rta::NodeRef ref) override;
    void finishRay(rta::RayState &ray) override;

    const ttaplus::Program &innerProgram() const override
    {
        return prog_;
    }
    const ttaplus::Program &leafProgram() const override { return prog_; }

  private:
    mem::GlobalMemory *gmem_;
    uint64_t root_;
    uint64_t queryBase_;
    uint64_t resultBase_;
    ttaplus::Program prog_;
};

class RTreeWorkload
{
  public:
    /**
     * @param n_objects indexed rectangles (clustered map-like layout).
     * @param n_queries range queries.
     * @param query_extent half-size of the query windows.
     */
    RTreeWorkload(size_t n_objects, size_t n_queries,
                  float query_extent = 2.0f, uint64_t seed = 1);

    /** Serialize the tree and lay out the query, result and baseline
     *  stack buffers. */
    void setup(mem::GlobalMemory &gmem);

    RunMetrics runBaseline(const sim::Config &cfg,
                           sim::StatRegistry &stats);
    RunMetrics runAccelerated(const sim::Config &cfg,
                              sim::StatRegistry &stats);

    const trees::RTree &tree() const { return *tree_; }
    size_t numQueries() const { return queries_.size(); }
    const std::vector<trees::Rect2D> &queries() const { return queries_; }

    /** Device-computed overlap counts captured from simulated memory by
     *  the most recent run, in query order (for differential-oracle
     *  tests against an independent reference). */
    const std::vector<uint32_t> &deviceResults() const
    {
        return deviceResults_;
    }

    static api::TtaPipeline makePipeline();
    static gpu::KernelProgram buildBaselineKernel();

  private:
    size_t verify(const mem::GlobalMemory &gmem) const;
    void captureResults(const mem::GlobalMemory &gmem);

    std::unique_ptr<trees::RTree> tree_;
    std::vector<trees::Rect2D> queries_;
    std::vector<uint32_t> expected_;
    std::vector<uint32_t> deviceResults_;
    uint64_t rootAddr_ = 0;
    uint64_t queryBase_ = 0;
    uint64_t resultBase_ = 0;
    uint64_t stackBase_ = 0;
};

} // namespace tta::workloads

#endif // TTA_WORKLOADS_RTREE_WORKLOAD_HH
