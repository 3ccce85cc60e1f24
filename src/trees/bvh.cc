#include "trees/bvh.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "geom/intersect.hh"
#include "sim/logging.hh"

namespace tta::trees {

void
Bvh::build(const std::vector<geom::Aabb> &prim_boxes, uint32_t max_leaf)
{
    nodes_.clear();
    primOrder_.resize(prim_boxes.size());
    std::iota(primOrder_.begin(), primOrder_.end(), 0u);
    panic_if(prim_boxes.empty(), "BVH build with no primitives");
    root_ = buildRange(primOrder_, 0,
                       static_cast<uint32_t>(primOrder_.size()), prim_boxes,
                       std::max(1u, max_leaf));
}

int32_t
Bvh::buildRange(std::vector<uint32_t> &ids, uint32_t lo, uint32_t hi,
                const std::vector<geom::Aabb> &boxes, uint32_t max_leaf)
{
    geom::Aabb bounds;
    geom::Aabb centroid_bounds;
    for (uint32_t i = lo; i < hi; ++i) {
        bounds.extend(boxes[ids[i]]);
        centroid_bounds.extend(boxes[ids[i]].center());
    }

    uint32_t count = hi - lo;
    auto make_leaf = [&]() {
        BvhNode node;
        node.box = bounds;
        node.primOffset = lo;
        node.primCount = count;
        nodes_.push_back(node);
        return static_cast<int32_t>(nodes_.size() - 1);
    };
    if (count <= max_leaf)
        return make_leaf();

    // Binned SAH over the widest centroid axis.
    constexpr int kBins = 16;
    int axis = centroid_bounds.widestAxis();
    float cmin = centroid_bounds.lo[axis];
    float cext = centroid_bounds.extent()[axis];
    uint32_t mid;
    if (cext <= 0.0f) {
        // Degenerate centroids: median split by index.
        mid = lo + count / 2;
    } else {
        struct Bin
        {
            geom::Aabb box;
            uint32_t count = 0;
        };
        Bin bins[kBins];
        auto bin_of = [&](uint32_t id) {
            float c = boxes[id].center()[axis];
            int b = static_cast<int>((c - cmin) / cext * kBins);
            return std::clamp(b, 0, kBins - 1);
        };
        for (uint32_t i = lo; i < hi; ++i) {
            Bin &bin = bins[bin_of(ids[i])];
            bin.box.extend(boxes[ids[i]]);
            ++bin.count;
        }
        // Sweep to find the minimum-cost split plane.
        float right_area[kBins];
        geom::Aabb acc;
        uint32_t right_count[kBins];
        uint32_t rc = 0;
        for (int b = kBins - 1; b > 0; --b) {
            acc.extend(bins[b].box);
            rc += bins[b].count;
            right_area[b] = acc.surfaceArea();
            right_count[b] = rc;
        }
        acc = geom::Aabb();
        uint32_t lc = 0;
        float best_cost = std::numeric_limits<float>::max();
        int best_split = -1;
        for (int b = 0; b < kBins - 1; ++b) {
            acc.extend(bins[b].box);
            lc += bins[b].count;
            if (lc == 0 || right_count[b + 1] == 0)
                continue;
            float cost = acc.surfaceArea() * lc +
                         right_area[b + 1] * right_count[b + 1];
            if (cost < best_cost) {
                best_cost = cost;
                best_split = b;
            }
        }
        if (best_split < 0) {
            mid = lo + count / 2;
        } else {
            auto it = std::partition(
                ids.begin() + lo, ids.begin() + hi,
                [&](uint32_t id) { return bin_of(id) <= best_split; });
            mid = static_cast<uint32_t>(it - ids.begin());
            if (mid == lo || mid == hi)
                mid = lo + count / 2; // pathological: fall back to median
        }
    }

    int32_t node_idx;
    {
        BvhNode node;
        node.box = bounds;
        nodes_.push_back(node);
        node_idx = static_cast<int32_t>(nodes_.size() - 1);
    }
    int32_t left = buildRange(ids, lo, mid, boxes, max_leaf);
    int32_t right = buildRange(ids, mid, hi, boxes, max_leaf);
    nodes_[node_idx].left = left;
    nodes_[node_idx].right = right;
    return node_idx;
}

void
Bvh::traverse(geom::Ray &ray,
              const std::function<void(uint32_t)> &leaf_fn) const
{
    std::vector<int32_t> stack;
    stack.push_back(root_);
    while (!stack.empty()) {
        int32_t idx = stack.back();
        stack.pop_back();
        const BvhNode &node = nodes_[idx];
        auto hit = geom::rayBox(ray, node.box);
        if (!hit)
            continue;
        if (node.isLeaf()) {
            for (uint32_t p = 0; p < node.primCount; ++p)
                leaf_fn(primOrder_[node.primOffset + p]);
            continue;
        }
        // Near child last (popped first).
        auto hl = geom::rayBox(ray, nodes_[node.left].box);
        auto hr = geom::rayBox(ray, nodes_[node.right].box);
        float tl = hl ? hl->tenter : std::numeric_limits<float>::max();
        float tr = hr ? hr->tenter : std::numeric_limits<float>::max();
        if (tl < tr) {
            stack.push_back(node.right);
            stack.push_back(node.left);
        } else {
            stack.push_back(node.left);
            stack.push_back(node.right);
        }
    }
}

void
Bvh::pointQuery(const geom::Vec3 &point, float radius,
                const std::function<void(uint32_t)> &leaf_fn) const
{
    std::vector<int32_t> stack;
    stack.push_back(root_);
    geom::Vec3 r(radius, radius, radius);
    while (!stack.empty()) {
        int32_t idx = stack.back();
        stack.pop_back();
        const BvhNode &node = nodes_[idx];
        geom::Aabb inflated(node.box.lo - r, node.box.hi + r);
        if (!inflated.contains(point))
            continue;
        if (node.isLeaf()) {
            for (uint32_t p = 0; p < node.primCount; ++p)
                leaf_fn(primOrder_[node.primOffset + p]);
            continue;
        }
        stack.push_back(node.left);
        stack.push_back(node.right);
    }
}

SerializedBvh
Bvh::serialize(mem::GlobalMemory &gmem) const
{
    using L = BvhNodeLayout;
    SerializedBvh out;

    // Leaf records first (variable size, 16B aligned).
    std::vector<uint64_t> leaf_addr(nodes_.size(), 0);
    uint64_t leaf_bytes = 0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (!nodes_[i].isLeaf())
            continue;
        uint64_t bytes = 4 + 4ull * nodes_[i].primCount;
        leaf_bytes += (bytes + 15) & ~15ull;
    }
    out.leafBase = gmem.alloc(std::max<uint64_t>(leaf_bytes, 16), 64);
    out.leafBytes = leaf_bytes;
    uint64_t cursor = out.leafBase;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        const BvhNode &node = nodes_[i];
        if (!node.isLeaf())
            continue;
        leaf_addr[i] = cursor;
        gmem.write<uint32_t>(cursor + BvhLeafLayout::kOffCount,
                             node.primCount);
        for (uint32_t p = 0; p < node.primCount; ++p) {
            gmem.write<uint32_t>(cursor + BvhLeafLayout::kOffPrims + 4 * p,
                                 primOrder_[node.primOffset + p]);
        }
        cursor += (4 + 4ull * node.primCount + 15) & ~15ull;
    }

    // Inner nodes, BFS order.
    std::vector<int32_t> inner;
    std::vector<uint32_t> slot(nodes_.size(), 0);
    if (!nodes_[root_].isLeaf()) {
        inner.push_back(root_);
        slot[root_] = 0;
        for (size_t head = 0; head < inner.size(); ++head) {
            const BvhNode &node = nodes_[inner[head]];
            for (int32_t c : {node.left, node.right}) {
                if (!nodes_[c].isLeaf()) {
                    slot[c] = static_cast<uint32_t>(inner.size());
                    inner.push_back(c);
                }
            }
        }
    }
    out.nodeBase = gmem.alloc(
        std::max<uint64_t>(inner.size() * L::kNodeBytes, 64), 64);
    out.nodeBytes = inner.size() * L::kNodeBytes;

    auto ref_of = [&](int32_t idx) {
        if (nodes_[idx].isLeaf())
            return BvhRef::leaf(leaf_addr[idx]);
        return BvhRef::inner(out.nodeBase +
                             static_cast<uint64_t>(slot[idx]) *
                                 L::kNodeBytes);
    };

    for (size_t s = 0; s < inner.size(); ++s) {
        const BvhNode &node = nodes_[inner[s]];
        uint64_t addr = out.nodeBase + s * L::kNodeBytes;
        const geom::Aabb &bl = nodes_[node.left].box;
        const geom::Aabb &br = nodes_[node.right].box;
        for (int a = 0; a < 3; ++a) {
            gmem.write<float>(addr + L::kOffLoL + 4 * a, bl.lo[a]);
            gmem.write<float>(addr + L::kOffHiL + 4 * a, bl.hi[a]);
            gmem.write<float>(addr + L::kOffLoR + 4 * a, br.lo[a]);
            gmem.write<float>(addr + L::kOffHiR + 4 * a, br.hi[a]);
        }
        gmem.write<uint32_t>(addr + L::kOffLeft, ref_of(node.left).raw);
        gmem.write<uint32_t>(addr + L::kOffRight, ref_of(node.right).raw);
        gmem.write<uint32_t>(addr + L::kOffMeta, 0);
    }

    out.root = ref_of(root_);
    return out;
}

// ---------------------------------------------------------------------
// WideBvh: binary-tree collapse, batched traversals, SoA serialization.
// ---------------------------------------------------------------------

namespace {

/** Lane filler that can never be entered (mirrors the Aabb sentinel). */
constexpr float kEmptyLo = std::numeric_limits<float>::max();
constexpr float kEmptyHi = std::numeric_limits<float>::lowest();

void
setLaneBox(geom::WideBoxes &boxes, uint32_t lane, const geom::Vec3 &lo,
           const geom::Vec3 &hi)
{
    boxes.lox[lane] = lo.x;
    boxes.loy[lane] = lo.y;
    boxes.loz[lane] = lo.z;
    boxes.hix[lane] = hi.x;
    boxes.hiy[lane] = hi.y;
    boxes.hiz[lane] = hi.z;
}

} // namespace

void
WideBvh::build(const Bvh &bvh, uint32_t width, bool quantized)
{
    panic_if(width < 2 || width > 8, "wide BVH width %u not in [2, 8]",
             width);
    panic_if(bvh.rootIndex() < 0, "collapsing an unbuilt BVH");
    nodes_.clear();
    leaves_.clear();
    primOrder_ = bvh.primOrder();
    width_ = width;
    quantized_ = quantized;
    root_ = -1;
    rootLeaf_ = -1;

    const BvhNode &root = bvh.nodes()[bvh.rootIndex()];
    if (root.isLeaf()) {
        rootLeaf_ = 0;
        leaves_.push_back({root.primOffset, root.primCount});
        return;
    }
    root_ = collapse(bvh, bvh.rootIndex());
}

int32_t
WideBvh::collapse(const Bvh &bvh, int32_t binary_idx)
{
    const std::vector<BvhNode> &bn = bvh.nodes();

    // Gather up to width_ entries: keep expanding the largest-area inner
    // entry into its two children while room remains.
    std::vector<int32_t> entries = {bn[binary_idx].left,
                                    bn[binary_idx].right};
    while (entries.size() < width_) {
        int pick = -1;
        float best = -1.0f;
        for (size_t i = 0; i < entries.size(); ++i) {
            if (bn[entries[i]].isLeaf())
                continue;
            float area = bn[entries[i]].box.surfaceArea();
            if (area > best) {
                best = area;
                pick = static_cast<int>(i);
            }
        }
        if (pick < 0)
            break; // all entries are leaves
        int32_t expanded = entries[pick];
        entries[pick] = bn[expanded].left;
        entries.push_back(bn[expanded].right);
    }

    // Reserve the node slot before recursing (children allocate after
    // their parent), then fill a local copy to survive vector growth.
    int32_t node_idx = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();

    WideBvhNode node;
    node.count = static_cast<uint32_t>(entries.size());
    node.selfBox = bn[binary_idx].box;
    geom::Aabb child_boxes[8];
    for (uint32_t i = 0; i < 8; ++i) {
        if (i < node.count) {
            child_boxes[i] = bn[entries[i]].box;
        } else {
            setLaneBox(node.boxes, i, geom::Vec3(kEmptyLo),
                       geom::Vec3(kEmptyHi));
        }
    }
    encodeNode(node, child_boxes);

    for (uint32_t i = 0; i < node.count; ++i) {
        const BvhNode &entry = bn[entries[i]];
        if (entry.isLeaf()) {
            node.child[i] = ~static_cast<int32_t>(leaves_.size());
            leaves_.push_back({entry.primOffset, entry.primCount});
        } else {
            node.child[i] = collapse(bvh, entries[i]);
        }
    }
    nodes_[node_idx] = node;
    return node_idx;
}

/**
 * Store the child boxes into the node's SoA lanes — verbatim when
 * uncompressed, else through the quantizer with the decoded
 * (conservative) values kept for the host-side batched tests, so host
 * and serialized device traversals see bit-identical planes.
 */
void
WideBvh::encodeNode(WideBvhNode &node, const geom::Aabb *child_boxes)
{
    if (!quantized_) {
        for (uint32_t i = 0; i < node.count; ++i)
            setLaneBox(node.boxes, i, child_boxes[i].lo, child_boxes[i].hi);
        return;
    }
    for (int axis = 0; axis < 3; ++axis) {
        float plo = node.selfBox.lo[axis];
        float phi = node.selfBox.hi[axis];
        float scale = wideQuantScale(plo, phi);
        for (uint32_t i = 0; i < node.count; ++i) {
            float lo = child_boxes[i].lo[axis];
            float hi = child_boxes[i].hi[axis];
            uint8_t qlo = 0;
            uint8_t qhi = 0;
            if (scale > 0.0f) {
                float flo = std::floor((lo - plo) / scale);
                float fhi = std::floor((phi - hi) / scale);
                qlo = static_cast<uint8_t>(
                    std::clamp(flo, 0.0f, 255.0f));
                qhi = static_cast<uint8_t>(
                    std::clamp(fhi, 0.0f, 255.0f));
                // Fix up against the actual decode arithmetic: q = 0
                // decodes to the parent plane, which bounds every child,
                // so both loops terminate with a conservative plane.
                while (qlo > 0 && wideQuantDecodeLo(plo, scale, qlo) > lo)
                    --qlo;
                while (qhi > 0 && wideQuantDecodeHi(phi, scale, qhi) < hi)
                    --qhi;
            }
            node.quant[axis][i] = qlo;
            node.quant[3 + axis][i] = qhi;
            float dlo = wideQuantDecodeLo(plo, scale, qlo);
            float dhi = wideQuantDecodeHi(phi, scale, qhi);
            float *lo_lane[3] = {node.boxes.lox, node.boxes.loy,
                                 node.boxes.loz};
            float *hi_lane[3] = {node.boxes.hix, node.boxes.hiy,
                                 node.boxes.hiz};
            lo_lane[axis][i] = dlo;
            hi_lane[axis][i] = dhi;
        }
    }
}

void
WideBvh::traverse(geom::Ray &ray,
                  const std::function<void(uint32_t)> &leaf_fn) const
{
    if (root_ < 0) {
        if (rootLeaf_ >= 0) {
            const WideBvhLeaf &leaf = leaves_[rootLeaf_];
            for (uint32_t p = 0; p < leaf.primCount; ++p)
                leaf_fn(primOrder_[leaf.primOffset + p]);
        }
        return;
    }
    std::vector<int32_t> stack;
    stack.push_back(root_);
    while (!stack.empty()) {
        const WideBvhNode &node = nodes_[stack.back()];
        stack.pop_back();
        float tenter[8];
        uint32_t mask = geom::rayBoxBatch(
            ray, node.boxes, static_cast<int>(node.count), tenter);
        // Leaves first — they may shrink ray.tmax before children pop.
        struct Entry
        {
            float t;
            int32_t child;
        };
        Entry order[8];
        int n = 0;
        for (uint32_t i = 0; i < node.count; ++i) {
            if (!(mask & (1u << i)))
                continue;
            if (node.child[i] < 0) {
                const WideBvhLeaf &leaf = leaves_[~node.child[i]];
                for (uint32_t p = 0; p < leaf.primCount; ++p)
                    leaf_fn(primOrder_[leaf.primOffset + p]);
            } else {
                order[n++] = {tenter[i], node.child[i]};
            }
        }
        // Far child pushed first (near popped first); ties broken by
        // child index for a fully specified order. An insertion sort of
        // at most 8 entries (std::sort here draws a false gcc 12
        // -Warray-bounds).
        auto before = [](const Entry &a, const Entry &b) {
            if (a.t != b.t)
                return a.t > b.t;
            return a.child > b.child;
        };
        for (int i = 1; i < n; ++i) {
            const Entry e = order[i];
            int j = i;
            for (; j > 0 && before(e, order[j - 1]); --j)
                order[j] = order[j - 1];
            order[j] = e;
        }
        for (int i = 0; i < n; ++i)
            stack.push_back(order[i].child);
    }
}

void
WideBvh::pointQuery(const geom::Vec3 &point, float radius,
                    const std::function<void(uint32_t)> &leaf_fn) const
{
    if (root_ < 0) {
        if (rootLeaf_ >= 0) {
            const WideBvhLeaf &leaf = leaves_[rootLeaf_];
            for (uint32_t p = 0; p < leaf.primCount; ++p)
                leaf_fn(primOrder_[leaf.primOffset + p]);
        }
        return;
    }
    std::vector<int32_t> stack;
    stack.push_back(root_);
    while (!stack.empty()) {
        const WideBvhNode &node = nodes_[stack.back()];
        stack.pop_back();
        // Inflate per lane with the same per-float ops as the scalar
        // pointQuery (lo - r, hi + r) before the batched contains test.
        geom::WideBoxes inflated{}; // the batch test reads all 8 lanes
        for (uint32_t i = 0; i < node.count; ++i) {
            inflated.lox[i] = node.boxes.lox[i] - radius;
            inflated.loy[i] = node.boxes.loy[i] - radius;
            inflated.loz[i] = node.boxes.loz[i] - radius;
            inflated.hix[i] = node.boxes.hix[i] + radius;
            inflated.hiy[i] = node.boxes.hiy[i] + radius;
            inflated.hiz[i] = node.boxes.hiz[i] + radius;
        }
        uint32_t mask = geom::pointInBoxBatch(
            point, inflated, static_cast<int>(node.count));
        for (uint32_t i = 0; i < node.count; ++i) {
            if (!(mask & (1u << i)))
                continue;
            if (node.child[i] < 0) {
                const WideBvhLeaf &leaf = leaves_[~node.child[i]];
                for (uint32_t p = 0; p < leaf.primCount; ++p)
                    leaf_fn(primOrder_[leaf.primOffset + p]);
            } else {
                stack.push_back(node.child[i]);
            }
        }
    }
}

SerializedBvh
WideBvh::serialize(mem::GlobalMemory &gmem) const
{
    using L = WideBvhNodeLayout;
    SerializedBvh out;
    out.nodeWidth = width_;
    out.quantized = quantized_;
    uint32_t stride = L::nodeBytes(width_, quantized_);
    out.nodeStride = stride;

    // Leaf records, same format as the binary serializer.
    std::vector<uint64_t> leaf_addr(leaves_.size(), 0);
    uint64_t leaf_bytes = 0;
    for (const WideBvhLeaf &leaf : leaves_)
        leaf_bytes += (4 + 4ull * leaf.primCount + 15) & ~15ull;
    out.leafBase = gmem.alloc(std::max<uint64_t>(leaf_bytes, 16), 64);
    out.leafBytes = leaf_bytes;
    uint64_t cursor = out.leafBase;
    for (size_t i = 0; i < leaves_.size(); ++i) {
        const WideBvhLeaf &leaf = leaves_[i];
        leaf_addr[i] = cursor;
        gmem.write<uint32_t>(cursor + BvhLeafLayout::kOffCount,
                             leaf.primCount);
        for (uint32_t p = 0; p < leaf.primCount; ++p) {
            gmem.write<uint32_t>(cursor + BvhLeafLayout::kOffPrims + 4 * p,
                                 primOrder_[leaf.primOffset + p]);
        }
        cursor += (4 + 4ull * leaf.primCount + 15) & ~15ull;
    }

    // Inner nodes, BFS order.
    std::vector<int32_t> order;
    std::vector<uint32_t> slot(nodes_.size(), 0);
    if (root_ >= 0) {
        order.push_back(root_);
        slot[root_] = 0;
        for (size_t head = 0; head < order.size(); ++head) {
            const WideBvhNode &node = nodes_[order[head]];
            for (uint32_t i = 0; i < node.count; ++i) {
                if (node.child[i] >= 0) {
                    slot[node.child[i]] =
                        static_cast<uint32_t>(order.size());
                    order.push_back(node.child[i]);
                }
            }
        }
    }
    out.nodeBase =
        gmem.alloc(std::max<uint64_t>(order.size() * stride, 64), 64);
    out.nodeBytes = order.size() * stride;

    auto ref_of = [&](int32_t child) {
        if (child < 0)
            return BvhRef::leaf(leaf_addr[~child]);
        return BvhRef::inner(out.nodeBase +
                             static_cast<uint64_t>(slot[child]) * stride);
    };

    uint32_t refs_off = L::refsOffset(width_, quantized_);
    for (size_t s = 0; s < order.size(); ++s) {
        const WideBvhNode &node = nodes_[order[s]];
        uint64_t addr = out.nodeBase + s * stride;
        if (!quantized_) {
            const float *planes[6] = {node.boxes.lox, node.boxes.loy,
                                      node.boxes.loz, node.boxes.hix,
                                      node.boxes.hiy, node.boxes.hiz};
            for (uint32_t a = 0; a < 6; ++a) {
                for (uint32_t i = 0; i < width_; ++i) {
                    gmem.write<float>(addr + L::kOffLoX +
                                          (a * width_ + i) * 4,
                                      planes[a][i]);
                }
            }
        } else {
            for (int a = 0; a < 3; ++a) {
                gmem.write<float>(addr + L::kOffParentLo + 4 * a,
                                  node.selfBox.lo[a]);
                gmem.write<float>(addr + L::kOffParentHi + 4 * a,
                                  node.selfBox.hi[a]);
            }
            for (uint32_t a = 0; a < 6; ++a) {
                for (uint32_t i = 0; i < width_; ++i) {
                    gmem.write<uint8_t>(addr + L::kOffQuant + a * width_ +
                                            i,
                                        node.quant[a][i]);
                }
            }
        }
        for (uint32_t i = 0; i < width_; ++i) {
            uint32_t raw =
                i < node.count ? ref_of(node.child[i]).raw : 0u;
            gmem.write<uint32_t>(addr + refs_off + 4 * i, raw);
        }
    }

    out.root = root_ >= 0 ? BvhRef::inner(out.nodeBase)
                          : BvhRef::leaf(leaf_addr[rootLeaf_]);
    return out;
}

geom::Vec3
transformPoint(const float m[12], const geom::Vec3 &p)
{
    return {m[0] * p.x + m[1] * p.y + m[2] * p.z + m[3],
            m[4] * p.x + m[5] * p.y + m[6] * p.z + m[7],
            m[8] * p.x + m[9] * p.y + m[10] * p.z + m[11]};
}

geom::Vec3
transformDir(const float m[12], const geom::Vec3 &d)
{
    return {m[0] * d.x + m[1] * d.y + m[2] * d.z,
            m[4] * d.x + m[5] * d.y + m[6] * d.z,
            m[8] * d.x + m[9] * d.y + m[10] * d.z};
}

} // namespace tta::trees
