/**
 * @file
 * 9-wide B-Tree, B*Tree and B+Tree index structures.
 *
 * The node layout matches the paper's TTA configuration: the modified
 * Ray-Box unit compares a query against nine keys at once (three per
 * min/max pair), so a node holds nine key slots and nine children, with
 * unused key slots padded by +infinity sentinels. The rightmost child
 * covers queries greater than every real key (sentinel +inf makes
 * "query < keys[8]" always true, so Algorithm 1 always resolves).
 *
 * Children of a node are serialized contiguously, so the hardware can
 * express the next child as an offset from the first child's address —
 * the one-hot + offset output of the modified min/max datapath (Fig 9).
 *
 * The host form of a tree is its device image. One BFS pass over the
 * sorted keys emits the 64-byte BTreeNodeLayout records, root first, so
 * every node's children are already contiguous. The records live in a
 * read-only mem::DeviceImage, laid out for the address a fresh device
 * gives its first allocation (GlobalMemory::kFirstAddr), so a node's
 * child base is already a device address. serialize() maps that image
 * into a fresh device without a copy; into a device that has allocated
 * before, it writes a private copy with the child bases relocated. Host
 * search() walks the same records the device reads, and copies of a
 * BTree share one image. No other copy of the keys is kept.
 *
 * Variants:
 *  - B-Tree:  keys (and associated entries) at every level; a query can
 *             terminate early at an inner node. Moderate fill.
 *  - B*Tree:  same semantics, but nodes are kept ~7/8 full (the B*
 *             high-occupancy invariant), yielding shallower, denser trees.
 *  - B+Tree:  inner keys are routers only; every query descends to a
 *             leaf. Uniform depth => lower control-flow divergence,
 *             which is why the paper sees smaller speedups for B+Tree.
 */

#ifndef TTA_TREES_BTREE_HH
#define TTA_TREES_BTREE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/device_image.hh"
#include "mem/global_memory.hh"

namespace tta::trees {

enum class BTreeKind
{
    BTree,
    BStarTree,
    BPlusTree,
};

const char *bTreeKindName(BTreeKind kind);

/**
 * One node: the record of the host image and the serialized layout
 * (64 bytes, one cache line).
 */
struct BTreeNodeLayout
{
    static constexpr uint32_t kWidth = 9;     //!< children per node
    static constexpr uint32_t kMaxKeys = 8;   //!< real keys per node
    static constexpr uint32_t kNodeBytes = 64;

    static constexpr uint32_t kOffFlags = 0;     //!< u32: bit0 leaf, bit1
                                                 //!< router, 8..15 nkeys
    static constexpr uint32_t kOffChildBase = 4; //!< u32 byte addr of child 0
    static constexpr uint32_t kOffKeys = 8;      //!< f32 keys[9]
    // bytes 44..63 reserved

    static constexpr uint32_t kLeafFlag = 1u;
    static constexpr uint32_t kRouterFlag = 2u; //!< inner keys only route
                                                //!< (B+Tree)

    uint32_t flags;
    uint32_t childBase; //!< byte address of child 0; 0 in a leaf
    float keys[kWidth]; //!< real keys ascending, then +inf sentinels
    uint8_t reserved[20];
};

static_assert(sizeof(BTreeNodeLayout) == BTreeNodeLayout::kNodeBytes);
static_assert(offsetof(BTreeNodeLayout, flags) == BTreeNodeLayout::kOffFlags);
static_assert(offsetof(BTreeNodeLayout, childBase) ==
              BTreeNodeLayout::kOffChildBase);
static_assert(offsetof(BTreeNodeLayout, keys) == BTreeNodeLayout::kOffKeys);

/** Result of one reference query. */
struct BTreeQueryResult
{
    bool found = false;
    uint32_t depth = 0;
    uint64_t terminalNode = 0; //!< address of the last node (an image
                               //!< offset for BTree::search)
};

/**
 * A bulk-loaded tree held as its device image, with a serializer into
 * simulated memory.
 *
 * The fill factor (keys per node) depends on the variant. Keys are
 * exact-representable floats so equality tests are meaningful. The tree
 * is immutable once built: copies are cheap and share the image, and
 * any number of threads may search or serialize it at once.
 */
class BTree
{
  public:
    /**
     * Bulk-load a tree.
     * @param kind  variant (fill factor + key placement).
     * @param keys  key set; will be sorted and deduplicated.
     */
    BTree(BTreeKind kind, std::vector<float> keys);

    BTreeKind kind() const { return kind_; }
    size_t numKeys() const { return numKeys_; }
    size_t numNodes() const
    {
        return image_->bytes() / BTreeNodeLayout::kNodeBytes;
    }
    uint32_t height() const { return height_; }

    /** Reference search on the host image. */
    BTreeQueryResult search(float query) const;

    /**
     * Place the image in simulated memory, children of each node
     * contiguous: mapped without a copy into a fresh device, otherwise
     * copied with the child bases relocated. The bytes at the returned
     * address are the same either way.
     * @return byte address of the root node.
     */
    uint64_t serialize(mem::GlobalMemory &gmem) const;

    /**
     * Reference search against the *serialized* image (for tests).
     * fatal() on a walk deeper than 64 levels, which only a corrupt or
     * cyclic image gives (a zeroed record's child 0 is address 0).
     */
    static BTreeQueryResult searchSerialized(const mem::GlobalMemory &gmem,
                                             uint64_t root_addr,
                                             float query);

  private:
    /** B-Tree and B*Tree: separators at every level. */
    void bulkLoad(const std::vector<float> &keys);
    /** B+Tree: every key in a leaf, router levels above. */
    void bulkLoadPlus(const std::vector<float> &keys);

    BTreeKind kind_;
    size_t numKeys_ = 0;
    uint32_t height_ = 0;
    std::shared_ptr<const mem::DeviceImage> image_;
};

} // namespace tta::trees

#endif // TTA_TREES_BTREE_HH
