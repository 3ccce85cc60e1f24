#include "trees/btree.hh"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "sim/logging.hh"

namespace tta::trees {

namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();

/** Device address the records are laid out for. */
constexpr uint64_t kBase = mem::DeviceImage::kBase;
static_assert(kBase % BTreeNodeLayout::kNodeBytes == 0,
              "a fresh device's first node-aligned address is kBase");

/** Keys per node for each variant's bulk load. */
uint32_t
fillKeys(BTreeKind kind)
{
    switch (kind) {
      case BTreeKind::BTree: return 5;     // moderate occupancy
      case BTreeKind::BStarTree: return 7; // B*: ~7/8 full nodes
      case BTreeKind::BPlusTree: return 6;
    }
    return 5;
}

/**
 * Nodes that BTree::bulkLoad emits over @p n keys with @p nk separators
 * per inner node. The nk + 1 children split the other keys as evenly as
 * possible, r of them getting q + 1 keys and the rest q, so the
 * recursion makes two calls per level.
 */
size_t
subtreeNodes(size_t n, uint32_t nk)
{
    if (n <= BTreeNodeLayout::kMaxKeys)
        return 1;
    const size_t q = (n - nk) / (nk + 1), r = (n - nk) % (nk + 1);
    return 1 + r * subtreeNodes(q + 1, nk) +
           (nk + 1 - r) * subtreeNodes(q, nk);
}

/** Write @p node as record @p i of an image payload. */
void
store(uint8_t *payload, size_t i, const BTreeNodeLayout &node)
{
    std::memcpy(payload + i * BTreeNodeLayout::kNodeBytes, &node,
                sizeof(node));
}

/** A record with @p n_keys real keys, padded with +inf sentinels. */
BTreeNodeLayout
makeNode(uint32_t flags, const float *keys, uint32_t n_keys,
         uint32_t child_base)
{
    BTreeNodeLayout node{};
    node.flags = flags | (n_keys << 8);
    node.childBase = child_base;
    std::fill(std::copy_n(keys, n_keys, node.keys),
              node.keys + BTreeNodeLayout::kWidth, kInf);
    return node;
}

/**
 * Algorithm 1 down a tree of records: @p node_at(addr) yields the record
 * at device address @p addr, and child i of an inner node sits at
 * childBase + 64*i. The host image and a serialized copy differ only in
 * where node_at reads. A walk deeper than BTree::kMaxDepth levels is
 * fatal.
 */
template <typename NodeAt>
BTreeQueryResult
walk(NodeAt node_at, uint64_t root, float query)
{
    using L = BTreeNodeLayout;
    BTreeQueryResult result;
    uint64_t cur = root;
    while (true) {
        fatal_if(result.depth == BTree::kMaxDepth,
                 "B-Tree walk deeper than %u levels at node 0x%llx: "
                 "corrupt or cyclic image",
                 BTree::kMaxDepth, static_cast<unsigned long long>(cur));
        ++result.depth;
        result.terminalNode = cur;
        const L &node = node_at(cur);
        const bool leaf = node.flags & L::kLeafFlag;
        const bool router = node.flags & L::kRouterFlag;
        const uint32_t n_keys = (node.flags >> 8) & 0xff;
        uint32_t child = n_keys;
        for (uint32_t i = 0; i < L::kWidth; ++i) {
            float k = node.keys[i];
            if (k == query && i < n_keys && (leaf || !router)) {
                result.found = true;
                return result;
            }
            if (query < k) {
                child = i;
                break;
            }
        }
        if (leaf)
            return result; // no key matched
        cur = node.childBase + static_cast<uint64_t>(child) * L::kNodeBytes;
    }
}

} // namespace

const char *
bTreeKindName(BTreeKind kind)
{
    switch (kind) {
      case BTreeKind::BTree: return "B-Tree";
      case BTreeKind::BStarTree: return "B*Tree";
      case BTreeKind::BPlusTree: return "B+Tree";
    }
    return "?";
}

BTree::BTree(BTreeKind kind, std::vector<float> keys) : kind_(kind)
{
    // Callers usually pass ascending keys; checking costs far less than
    // sorting them again.
    if (!std::is_sorted(keys.begin(), keys.end()))
        std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    numKeys_ = keys.size();
    if (kind_ == BTreeKind::BPlusTree)
        bulkLoadPlus(keys);
    else
        bulkLoad(keys);
}

void
BTree::bulkLoad(const std::vector<float> &keys)
{
    using L = BTreeNodeLayout;
    const uint32_t nk = std::min(fillKeys(kind_), L::kMaxKeys);
    const uint32_t n_children = nk + 1;
    const size_t total = subtreeNodes(keys.size(), nk);
    // The BFS queue: key range [lo, hi) of node i. A range of at most
    // kMaxKeys keys is a leaf; a larger one keeps nk separators and
    // splits the rest as evenly as possible over nk + 1 children.
    std::vector<std::pair<size_t, size_t>> ranges;
    ranges.reserve(total);
    ranges.emplace_back(0, keys.size());
    auto emit = [&](uint8_t *out) {
        size_t level_end = 0;
        for (size_t i = 0; i < ranges.size(); ++i) {
            if (i == level_end) { // first node of the next level
                ++height_;
                level_end = ranges.size();
            }
            auto [lo, hi] = ranges[i];
            if (hi - lo <= L::kMaxKeys) {
                store(out, i,
                      makeNode(L::kLeafFlag, keys.data() + lo,
                               static_cast<uint32_t>(hi - lo), 0));
                continue;
            }
            const uint32_t child_base = static_cast<uint32_t>(
                kBase + ranges.size() * L::kNodeBytes);
            size_t remaining = hi - lo - nk;
            float seps[L::kMaxKeys];
            size_t pos = lo;
            for (uint32_t c = 0; c < n_children; ++c) {
                size_t chunk = remaining / n_children +
                               (c < remaining % n_children ? 1 : 0);
                ranges.emplace_back(pos, pos + chunk);
                pos += chunk;
                if (c + 1 < n_children)
                    seps[c] = keys[pos++]; // the separator lives here
            }
            panic_if(pos != hi, "bulk load accounting error");
            store(out, i, makeNode(0, seps, nk, child_base));
        }
    };
    image_ = std::make_shared<const mem::DeviceImage>(total * L::kNodeBytes,
                                                      emit);
}

void
BTree::bulkLoadPlus(const std::vector<float> &keys)
{
    using L = BTreeNodeLayout;
    const uint32_t fill = fillKeys(kind_); // keys per leaf
    const uint32_t group = fill + 1;       // children per router node
    // Level widths bottom-up, and the keys under one node of each level.
    std::vector<size_t> width{std::max<size_t>(1, (keys.size() + fill - 1) /
                                                      fill)};
    std::vector<size_t> span{fill};
    while (width.back() > 1) {
        width.push_back((width.back() + group - 1) / group);
        span.push_back(span.back() * group);
    }
    height_ = static_cast<uint32_t>(width.size());
    const size_t total =
        std::accumulate(width.begin(), width.end(), size_t{0});

    // Emit top-down, left to right: that is BFS order, and node j's
    // children are nodes [j*group, j*group + group) of the level below.
    auto emit = [&](uint8_t *out) {
        size_t slot = 0;
        size_t level_start = 0; // image slot of the current level's node 0
        for (size_t lvl = width.size() - 1; lvl > 0; --lvl) {
            const size_t below = level_start + width[lvl];
            for (size_t j = 0; j < width[lvl]; ++j) {
                const size_t first = j * group;
                const size_t last = std::min(width[lvl - 1], first + group);
                // Router c is the smallest key under child c (c > first).
                float routers[L::kMaxKeys];
                for (size_t c = first + 1; c < last; ++c)
                    routers[c - first - 1] = keys[c * span[lvl - 1]];
                store(out, slot++,
                      makeNode(L::kRouterFlag, routers,
                               static_cast<uint32_t>(last - first - 1),
                               static_cast<uint32_t>(
                                   kBase + (below + first) * L::kNodeBytes)));
            }
            level_start = below;
        }
        for (size_t j = 0; j < width[0]; ++j) {
            const size_t lo = j * fill;
            const size_t hi = std::min(keys.size(), lo + fill);
            store(out, slot++,
                  makeNode(L::kLeafFlag | L::kRouterFlag, keys.data() + lo,
                           static_cast<uint32_t>(hi - lo), 0));
        }
    };
    image_ = std::make_shared<const mem::DeviceImage>(total * L::kNodeBytes,
                                                      emit);
}

BTreeQueryResult
BTree::search(float query) const
{
    const uint8_t *payload = image_->payload();
    BTreeQueryResult result = walk(
        [payload](uint64_t addr) {
            BTreeNodeLayout node;
            std::memcpy(&node, payload + (addr - kBase), sizeof(node));
            return node;
        },
        kBase, query);
    result.terminalNode -= kBase; // an image offset, as documented
    return result;
}

uint64_t
BTree::serialize(mem::GlobalMemory &gmem) const
{
    using L = BTreeNodeLayout;
    // A fresh device would place the records at kBase, exactly where the
    // image is laid out: share its pages instead of copying them.
    if (gmem.allocTop() == mem::GlobalMemory::kFirstAddr)
        return gmem.map(*image_);
    // Anywhere else, a private copy, a chunk of records at a time, with
    // each inner node's child base moved from kBase to this base.
    const uint64_t base = gmem.alloc(image_->bytes(), L::kNodeBytes);
    const uint32_t shift = static_cast<uint32_t>(base - kBase);
    const size_t n_nodes = numNodes();
    constexpr size_t kChunk = 512;
    std::vector<L> chunk(std::min(kChunk, n_nodes));
    for (size_t first = 0; first < n_nodes; first += kChunk) {
        const size_t n = std::min(kChunk, n_nodes - first);
        std::memcpy(chunk.data(), image_->payload() + first * L::kNodeBytes,
                    n * L::kNodeBytes);
        for (size_t i = 0; i < n; ++i) {
            if (!(chunk[i].flags & L::kLeafFlag))
                chunk[i].childBase += shift;
        }
        gmem.writeBytes(base + first * L::kNodeBytes, chunk.data(),
                        n * L::kNodeBytes);
    }
    return base;
}

BTreeQueryResult
BTree::searchSerialized(const mem::GlobalMemory &gmem, uint64_t root_addr,
                        float query)
{
    return walk(
        [&gmem](uint64_t addr) {
            BTreeNodeLayout node;
            gmem.readBytes(addr, &node, sizeof(node));
            return node;
        },
        root_addr, query);
}

} // namespace tta::trees
