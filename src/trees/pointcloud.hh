/**
 * @file
 * Synthetic LiDAR-like point clouds for the RTNN radius-search workload.
 *
 * Substitution for the KITTI frames used by the paper (see DESIGN.md):
 * the generator reproduces the density structure that matters for tree
 * pruning — a dominant ground plane, dense object clusters (cars,
 * pedestrians), sparse range rings, and background noise.
 *
 * Points are serialized as 16-byte records (xyz + pad); the RTNN mapping
 * builds a BVH over per-point boxes inflated by the search radius, so a
 * query point "hits" a leaf exactly when it may contain neighbors.
 */

#ifndef TTA_TREES_POINTCLOUD_HH
#define TTA_TREES_POINTCLOUD_HH

#include <cstdint>
#include <vector>

#include "geom/vec.hh"
#include "mem/global_memory.hh"
#include "sim/rng.hh"
#include "trees/bvh.hh"

namespace tta::trees {

/** Serialized point record (16 bytes): xyz + padding. */
struct PointLayout
{
    static constexpr uint32_t kPointBytes = 16;
};

struct PointCloud
{
    std::vector<geom::Vec3> points;

    /**
     * Generate a LiDAR-like cloud.
     * @param n     total points.
     * @param seed  RNG seed (deterministic).
     */
    static PointCloud generateLidarLike(size_t n, uint64_t seed);

    /** Serialize points; returns the base address of the record array. */
    uint64_t serialize(mem::GlobalMemory &gmem) const;
};

/** RTNN-style index: BVH over radius-inflated per-point boxes. */
class RadiusSearchIndex
{
  public:
    /** Keeps a pointer to @p cloud, which must outlive the index at
     *  the same address. */
    RadiusSearchIndex(const PointCloud &cloud, float radius);

    const Bvh &bvh() const { return bvh_; }
    float radius() const { return radius_; }

    /** Reference query: ids of points within radius of q (unordered). */
    std::vector<uint32_t> query(const geom::Vec3 &q) const;

    /** Number of leaf point tests the reference query performed. */
    uint32_t lastCandidates() const { return lastCandidates_; }

  private:
    const PointCloud *cloud_;
    float radius_;
    Bvh bvh_;
    mutable uint32_t lastCandidates_ = 0;
};

} // namespace tta::trees

#endif // TTA_TREES_POINTCLOUD_HH
