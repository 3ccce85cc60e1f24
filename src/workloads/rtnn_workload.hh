/**
 * @file
 * RTNN radius-search workload (Section IV-A, [105]).
 *
 * RTNN maps fixed-radius neighbor search onto the ray-tracing pipeline:
 * data points become spheres of the search radius (their BVH boxes are
 * pre-inflated), a query is a degenerate ray at the query point, inner
 * nodes run Ray-Box tests, and the exact distance check at the leaves
 * runs in a programmable *intersection shader* on the SIMT cores — the
 * expensive part this paper offloads.
 *
 * Four configurations:
 *  - CUDA baseline: divergent per-thread BVH walk on the SIMT cores.
 *  - RTNN on the (baseline) RTA / TTA / TTA+: traversal in hardware,
 *    leaf distance checks in intersection shaders.
 *  - *RTNN (offloaded): the leaf check executes natively — the repurposed
 *    Ray-Triangle unit's Point-to-Point path on TTA, the Table III
 *    5-uop program on TTA+.
 *
 * The figure workload and the service's radius tenant share the kind's
 * RadiusInputs (cloud, index, seeded queries, reference counts) and
 * RadiusLanes (query/result buffers, lane staging, the count check).
 */

#ifndef TTA_WORKLOADS_RTNN_WORKLOAD_HH
#define TTA_WORKLOADS_RTNN_WORKLOAD_HH

#include <memory>
#include <vector>

#include "api/tta_api.hh"
#include "gpu/kernel.hh"
#include "rta/traversal_spec.hh"
#include "trees/pointcloud.hh"
#include "workloads/metrics.hh"

namespace tta::workloads {

/** Accelerator-side spec for RTNN radius search. */
class RtnnSpec : public rta::TraversalSpec
{
  public:
    /**
     * @param sbvh serialized tree; carries the node layout (width,
     *        stride, quantization) the spec must decode.
     * @param offload_leaf true for the starred configurations: distance
     *        checks run natively instead of in an intersection shader.
     */
    RtnnSpec(mem::GlobalMemory &gmem, const trees::SerializedBvh &sbvh,
             uint64_t point_base, uint64_t query_base, uint64_t result_base,
             float radius, bool offload_leaf);

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
    rta::NodeOutcome processWideInner(rta::RayState &ray, uint64_t node);

    mem::GlobalMemory *gmem_;
    trees::BvhRef root_;
    uint32_t nodeWidth_;
    uint32_t nodeStride_;
    bool quantized_;
    uint64_t pointBase_;
    uint64_t queryBase_;
    uint64_t resultBase_;
    float radius_;
    bool offloadLeaf_;
    ttaplus::Program innerProg_;
    ttaplus::Program leafProg_;
};

/**
 * Inputs of radius search: a LiDAR-like cloud, its radius index, a pool
 * of seeded query points (mostly jittered cloud points, the rest uniform
 * over the scene volume), and each query's host reference neighbor
 * count. A figure run launches the whole pool once; a tenant's arrival
 * k carries pool entry k % pool.size(). Built in place and never copied
 * or moved: the index points at `cloud`.
 */
struct RadiusInputs
{
    RadiusInputs(size_t n_points, size_t n_queries, float radius,
                 uint64_t seed);
    RadiusInputs(const RadiusInputs &) = delete;
    RadiusInputs &operator=(const RadiusInputs &) = delete;

    trees::PointCloud cloud;
    std::unique_ptr<trees::RadiusSearchIndex> index;
    std::vector<geom::Vec3> pool;
    std::vector<uint32_t> expected;
};

/**
 * Query and result buffers of a radius-search launch: lane i reads a
 * 16-byte PointLayout record at queryBase + 16i and writes a 4-byte
 * neighbor count at resultBase + 4i.
 */
struct RadiusLanes
{
    uint64_t queryBase = 0;
    uint64_t resultBase = 0;

    /** Allocate the query buffer, then the result buffer, for @p n
     *  lanes. */
    static RadiusLanes alloc(mem::GlobalMemory &gmem, size_t n);

    /** Write lane @p i's point, and pre-fill its result with a value no
     *  launch writes, so a lane left unwritten reads as a mismatch. */
    void
    stage(mem::GlobalMemory &gmem, size_t i, const geom::Vec3 &q) const
    {
        uint64_t addr = queryBase + i * trees::PointLayout::kPointBytes;
        gmem.write<float>(addr + 0, q.x);
        gmem.write<float>(addr + 4, q.y);
        gmem.write<float>(addr + 8, q.z);
        gmem.write<uint32_t>(resultBase + 4 * i, 0xdeadbeefu);
    }

    /** Lanes among [0, @p n) whose count is not @p expected(i). */
    template <class Expected>
    size_t
    mismatches(const mem::GlobalMemory &gmem, size_t n,
               Expected &&expected) const
    {
        size_t bad = 0;
        for (size_t i = 0; i < n; ++i)
            bad += gmem.read<uint32_t>(resultBase + 4 * i) != expected(i);
        return bad;
    }
};

class RtnnWorkload
{
  public:
    /**
     * @param n_points  cloud size (the paper sweeps 32k-128k).
     * @param n_queries query count.
     * @param radius    search radius.
     */
    RtnnWorkload(size_t n_points, size_t n_queries, float radius = 1.0f,
                 uint64_t seed = 1);

    /** Serialize with the node layout selected by `cfg` (binary 64B
     *  nodes by default; wide SoA when cfg.bvhNodeWidth > 2) and stage
     *  every query. */
    void setup(mem::GlobalMemory &gmem, const sim::Config &cfg);

    /** Divergent per-thread CUDA kernel on the SIMT cores. */
    RunMetrics runBaseline(const sim::Config &cfg,
                           sim::StatRegistry &stats);

    /**
     * Hardware traversal at cfg.accelMode.
     * @param offload_leaf the starred configurations (*RTNN).
     */
    RunMetrics runAccelerated(const sim::Config &cfg,
                              sim::StatRegistry &stats, bool offload_leaf);

    size_t numQueries() const { return in_.pool.size(); }
    const trees::RadiusSearchIndex &index() const { return *in_.index; }

    static api::TtaPipeline makePipeline(bool offload_leaf);
    static gpu::KernelProgram buildBaselineKernel();

  private:
    size_t verify(const mem::GlobalMemory &gmem) const;

    RadiusInputs in_;

    trees::SerializedBvh sbvh_;
    uint64_t pointBase_ = 0;
    RadiusLanes lanes_;
    uint64_t stackBase_ = 0;
};

} // namespace tta::workloads

#endif // TTA_WORKLOADS_RTNN_WORKLOAD_HH
