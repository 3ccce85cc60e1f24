/**
 * @file
 * R-Tree spatial index (extension workload).
 *
 * The paper's introduction motivates R-Trees alongside B-Trees as the
 * index structures GPUs should accelerate; its evaluation stops at the
 * B-Tree variants. This module demonstrates TTA generality on the
 * R-Tree: rectangle range queries whose inner-node test — interval
 * overlap per axis — maps onto the same min/max comparator datapath the
 * Query-Key unit repurposes (a 2D slab test is a degenerate Ray-Box).
 *
 * Nodes are 128 bytes (one cache line): a header plus up to seven
 * 16-byte child entries (x0, y0, x1, y1), so one fetch feeds one 7-wide
 * overlap test. The tree is bulk-loaded with Sort-Tile-Recursive
 * packing at that fanout; children are serialized contiguously so the
 * hardware addresses child i as childBase + i * 128.
 */

#ifndef TTA_TREES_RTREE_HH
#define TTA_TREES_RTREE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mem/global_memory.hh"

namespace tta::trees {

/** A 2D axis-aligned rectangle. */
struct Rect2D
{
    float x0 = 0.0f;
    float y0 = 0.0f;
    float x1 = 0.0f;
    float y1 = 0.0f;

    bool
    overlaps(const Rect2D &o) const
    {
        return x0 <= o.x1 && o.x0 <= x1 && y0 <= o.y1 && o.y0 <= y1;
    }

    void
    extend(const Rect2D &o)
    {
        x0 = std::min(x0, o.x0);
        y0 = std::min(y0, o.y0);
        x1 = std::max(x1, o.x1);
        y1 = std::max(y1, o.y1);
    }
};

/** Serialized node layout (128 bytes). */
struct RTreeNodeLayout
{
    static constexpr uint32_t kFanout = 7;
    static constexpr uint32_t kNodeBytes = 128;
    static constexpr uint32_t kOffFlags = 0;     //!< bit0 leaf, 8..15 count
    static constexpr uint32_t kOffChildBase = 4; //!< u32 byte addr
    static constexpr uint32_t kOffEntries = 16;  //!< kFanout x 4 floats
    static constexpr uint32_t kLeafFlag = 1u;
};

class RTree
{
  public:
    /** STR bulk load over object rectangles, RTreeNodeLayout::kFanout
     *  children per node. */
    explicit RTree(std::vector<Rect2D> objects);

    size_t numObjects() const { return objects_.size(); }
    size_t numNodes() const { return nodes_.size(); }
    uint32_t height() const { return height_; }

    /** Reference range query: number of objects overlapping `query`. */
    uint32_t countOverlaps(const Rect2D &query) const;

    /** Serialize; returns the root node's byte address. */
    uint64_t serialize(mem::GlobalMemory &gmem) const;

    /** Objects in serialized (leaf-major) order. */
    const std::vector<Rect2D> &orderedObjects() const { return objects_; }

  private:
    struct Node
    {
        bool leaf = false;
        Rect2D box;
        std::vector<uint32_t> children; //!< node indices (inner)
        uint32_t objOffset = 0;         //!< into objects_ (leaf)
        uint32_t objCount = 0;
    };

    uint32_t packLevel(std::vector<uint32_t> level);

    std::vector<Rect2D> objects_; //!< leaf-major after construction
    std::vector<Node> nodes_;
    uint32_t root_ = 0;
    uint32_t height_ = 0;
};

} // namespace tta::trees

#endif // TTA_TREES_RTREE_HH
