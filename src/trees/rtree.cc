#include "trees/rtree.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sim/logging.hh"

namespace tta::trees {

using L = RTreeNodeLayout;

RTree::RTree(std::vector<Rect2D> objects) : objects_(std::move(objects))
{
    panic_if(objects_.empty(), "RTree with no objects");

    // Sort-Tile-Recursive: sort by x-center, slice into vertical strips
    // of ~sqrt(n/kFanout) runs, sort each strip by y-center, chop into
    // leaf runs of `kFanout` objects.
    std::vector<uint32_t> ids(objects_.size());
    std::iota(ids.begin(), ids.end(), 0u);
    auto cx = [&](uint32_t id) {
        return objects_[id].x0 + objects_[id].x1;
    };
    auto cy = [&](uint32_t id) {
        return objects_[id].y0 + objects_[id].y1;
    };
    std::sort(ids.begin(), ids.end(),
              [&](uint32_t a, uint32_t b) { return cx(a) < cx(b); });

    size_t n_leaves = (objects_.size() + L::kFanout - 1) / L::kFanout;
    size_t strips = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(n_leaves))));
    size_t per_strip =
        (objects_.size() + strips - 1) / strips;

    std::vector<Rect2D> ordered;
    ordered.reserve(objects_.size());
    std::vector<uint32_t> leaves;
    for (size_t s = 0; s < strips; ++s) {
        size_t lo = s * per_strip;
        if (lo >= ids.size())
            break;
        size_t hi = std::min(ids.size(), lo + per_strip);
        std::sort(ids.begin() + lo, ids.begin() + hi,
                  [&](uint32_t a, uint32_t b) { return cy(a) < cy(b); });
        for (size_t run = lo; run < hi; run += L::kFanout) {
            size_t run_hi = std::min(hi, run + L::kFanout);
            Node leaf;
            leaf.leaf = true;
            leaf.objOffset = static_cast<uint32_t>(ordered.size());
            leaf.objCount = static_cast<uint32_t>(run_hi - run);
            leaf.box = objects_[ids[run]];
            for (size_t i = run; i < run_hi; ++i) {
                leaf.box.extend(objects_[ids[i]]);
                ordered.push_back(objects_[ids[i]]);
            }
            nodes_.push_back(std::move(leaf));
            leaves.push_back(static_cast<uint32_t>(nodes_.size() - 1));
        }
    }
    objects_ = std::move(ordered);
    root_ = packLevel(std::move(leaves));

    height_ = 1;
    for (uint32_t cur = root_; !nodes_[cur].leaf;
         cur = nodes_[cur].children[0])
        ++height_;
}

uint32_t
RTree::packLevel(std::vector<uint32_t> level)
{
    while (level.size() > 1) {
        std::vector<uint32_t> next;
        for (size_t lo = 0; lo < level.size(); lo += L::kFanout) {
            size_t hi = std::min(level.size(), lo + L::kFanout);
            Node inner;
            inner.leaf = false;
            inner.box = nodes_[level[lo]].box;
            for (size_t c = lo; c < hi; ++c) {
                inner.children.push_back(level[c]);
                inner.box.extend(nodes_[level[c]].box);
            }
            nodes_.push_back(std::move(inner));
            next.push_back(static_cast<uint32_t>(nodes_.size() - 1));
        }
        level = std::move(next);
    }
    return level.front();
}

uint32_t
RTree::countOverlaps(const Rect2D &query) const
{
    uint32_t count = 0;
    std::vector<uint32_t> stack{root_};
    while (!stack.empty()) {
        const Node &node = nodes_[stack.back()];
        stack.pop_back();
        if (node.leaf) {
            for (uint32_t i = 0; i < node.objCount; ++i) {
                if (objects_[node.objOffset + i].overlaps(query))
                    ++count;
            }
            continue;
        }
        for (uint32_t c : node.children) {
            if (nodes_[c].box.overlaps(query))
                stack.push_back(c);
        }
    }
    return count;
}

uint64_t
RTree::serialize(mem::GlobalMemory &gmem) const
{
    // BFS so each node's children are contiguous.
    std::vector<uint32_t> order{root_};
    std::vector<uint32_t> slot(nodes_.size(), 0);
    slot[root_] = 0;
    for (size_t head = 0; head < order.size(); ++head) {
        for (uint32_t c : nodes_[order[head]].children) {
            slot[c] = static_cast<uint32_t>(order.size());
            order.push_back(c);
        }
    }

    // Leaf object rectangles live in a contiguous array; leaves store
    // their run's base address in the childBase field.
    uint64_t obj_base = gmem.alloc(objects_.size() * 16, 128);
    for (size_t i = 0; i < objects_.size(); ++i) {
        gmem.write<float>(obj_base + 16 * i + 0, objects_[i].x0);
        gmem.write<float>(obj_base + 16 * i + 4, objects_[i].y0);
        gmem.write<float>(obj_base + 16 * i + 8, objects_[i].x1);
        gmem.write<float>(obj_base + 16 * i + 12, objects_[i].y1);
    }

    uint64_t base = gmem.alloc(order.size() * L::kNodeBytes, 128);
    for (size_t s = 0; s < order.size(); ++s) {
        const Node &node = nodes_[order[s]];
        uint64_t addr = base + s * L::kNodeBytes;
        uint32_t count = node.leaf
            ? node.objCount
            : static_cast<uint32_t>(node.children.size());
        gmem.write<uint32_t>(addr + L::kOffFlags,
                             (node.leaf ? L::kLeafFlag : 0) |
                                 (count << 8));
        uint64_t child_base = node.leaf
            ? obj_base + static_cast<uint64_t>(node.objOffset) * 16
            : base + static_cast<uint64_t>(slot[node.children[0]]) *
                  L::kNodeBytes;
        gmem.write<uint32_t>(addr + L::kOffChildBase,
                             static_cast<uint32_t>(child_base));
        for (uint32_t i = 0; i < L::kFanout; ++i) {
            Rect2D rect{1.0f, 1.0f, -1.0f, -1.0f}; // empty sentinel
            if (node.leaf) {
                if (i < node.objCount)
                    rect = objects_[node.objOffset + i];
            } else if (i < node.children.size()) {
                rect = nodes_[node.children[i]].box;
            }
            uint64_t entry = addr + L::kOffEntries + 16 * i;
            gmem.write<float>(entry + 0, rect.x0);
            gmem.write<float>(entry + 4, rect.y0);
            gmem.write<float>(entry + 8, rect.x1);
            gmem.write<float>(entry + 12, rect.y1);
        }
    }
    return base;
}

} // namespace tta::trees
