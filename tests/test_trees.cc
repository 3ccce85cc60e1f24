/**
 * @file
 * Tests for the tree substrates: B-Tree variants, BVH, Barnes-Hut tree,
 * point clouds — invariants, serialization round trips, and reference
 * queries.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>

#include "geom/intersect.hh"
#include "mem/device_image.hh"
#include "mem/global_memory.hh"
#include "sim/rng.hh"
#include "sim/runner.hh"
#include "trees/btree.hh"
#include "trees/bvh.hh"
#include "trees/octree.hh"
#include "trees/pointcloud.hh"

using namespace tta;
using namespace tta::trees;
using tta::sim::Rng;

namespace {

std::vector<float>
makeKeys(size_t n)
{
    std::vector<float> keys(n);
    for (size_t i = 0; i < n; ++i)
        keys[i] = 2.0f * static_cast<float>(i + 1);
    return keys;
}

} // namespace

// --- B-Tree ------------------------------------------------------------

class BTreeAllKinds : public ::testing::TestWithParam<BTreeKind>
{};

TEST_P(BTreeAllKinds, FindsEveryKeyAndRejectsAbsent)
{
    BTree tree(GetParam(), makeKeys(3000));
    for (size_t i = 1; i <= 3000; i += 37)
        EXPECT_TRUE(tree.search(2.0f * i).found) << "key " << 2 * i;
    for (size_t i = 0; i < 200; ++i)
        EXPECT_FALSE(tree.search(2.0f * i + 1.0f).found);
    EXPECT_FALSE(tree.search(-5.0f).found);
    EXPECT_FALSE(tree.search(1e9f).found);
}

TEST_P(BTreeAllKinds, SerializedSearchMatchesHost)
{
    BTree tree(GetParam(), makeKeys(5000));
    mem::GlobalMemory gmem(8u << 20);
    uint64_t root = tree.serialize(gmem);
    Rng rng(42);
    for (int i = 0; i < 2000; ++i) {
        float q = rng.nextFloat() < 0.5f
            ? 2.0f * (1 + rng.nextBounded(5000))
            : 2.0f * rng.nextBounded(5200) + 1.0f;
        auto host = tree.search(q);
        auto dev = BTree::searchSerialized(gmem, root, q);
        EXPECT_EQ(host.found, dev.found) << "query " << q;
    }
}

TEST_P(BTreeAllKinds, UniformDepthForBPlusOnly)
{
    BTree tree(GetParam(), makeKeys(4000));
    mem::GlobalMemory gmem(8u << 20);
    uint64_t root = tree.serialize(gmem);
    std::set<uint32_t> miss_depths;
    for (int i = 0; i < 500; ++i) {
        // Absent keys always walk to a leaf.
        auto r = BTree::searchSerialized(gmem, root,
                                         2.0f * (i * 7 % 4000) + 1.0f);
        miss_depths.insert(r.depth);
    }
    if (GetParam() == BTreeKind::BPlusTree) {
        // B+Tree: every traversal reaches the same leaf level (this is
        // why the paper sees less control divergence for B+).
        EXPECT_EQ(miss_depths.size(), 1u);
    }
    EXPECT_LE(*miss_depths.rbegin(), tree.height());
}

TEST_P(BTreeAllKinds, TinyTrees)
{
    for (size_t n : {1u, 2u, 8u, 9u, 10u}) {
        BTree tree(GetParam(), makeKeys(n));
        for (size_t i = 1; i <= n; ++i)
            EXPECT_TRUE(tree.search(2.0f * i).found);
        EXPECT_FALSE(tree.search(3.0f).found);
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, BTreeAllKinds,
                         ::testing::Values(BTreeKind::BTree,
                                           BTreeKind::BStarTree,
                                           BTreeKind::BPlusTree));

TEST(BTree, BStarIsShallower)
{
    // The B* variant packs nodes denser, so it is never deeper than the
    // plain B-Tree at the same key count.
    BTree b(BTreeKind::BTree, makeKeys(100000));
    BTree bstar(BTreeKind::BStarTree, makeKeys(100000));
    EXPECT_LE(bstar.height(), b.height());
    EXPECT_LE(bstar.numNodes(), b.numNodes());
}

namespace {

/** FNV-1a over a serialized image. */
uint64_t
hashImage(const mem::GlobalMemory &gmem, uint64_t base, size_t bytes)
{
    std::vector<uint8_t> buf(bytes);
    gmem.readBytes(base, buf.data(), bytes);
    uint64_t h = 1469598103934665603ull;
    for (uint8_t b : buf) {
        h ^= b;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

TEST(BTreeImage, BytesAndShapeMatchPinnedValues)
{
    // Pinned from the tree built as per-node vectors and BFS-reordered at
    // serialize time: the flat bulk load must emit the same bytes.
    struct Pin
    {
        BTreeKind kind;
        size_t keys;
        uint64_t hash;
        size_t nodes;
        uint32_t height;
    };
    const Pin pins[] = {
        {BTreeKind::BTree, 0, 0xad8b33fc92a1b99bull, 1, 1},
        {BTreeKind::BTree, 1, 0x63df23ece4db92fdull, 1, 1},
        {BTreeKind::BTree, 8, 0x75b8e18cb2f22210ull, 1, 1},
        {BTreeKind::BTree, 9, 0x23d9656ff30593a3ull, 7, 2},
        {BTreeKind::BTree, 5000, 0x68f57e67a242eb48ull, 1555, 5},
        {BTreeKind::BTree, 100000, 0x37eb5da7fcb8c376ull, 55987, 7},
        {BTreeKind::BStarTree, 0, 0xad8b33fc92a1b99bull, 1, 1},
        {BTreeKind::BStarTree, 1, 0x63df23ece4db92fdull, 1, 1},
        {BTreeKind::BStarTree, 8, 0x75b8e18cb2f22210ull, 1, 1},
        {BTreeKind::BStarTree, 9, 0x90d77f265aa15239ull, 9, 2},
        {BTreeKind::BStarTree, 5000, 0x11a9c44bdb3b95d7ull, 3729, 5},
        {BTreeKind::BStarTree, 100000, 0x5b6da8c2296ed574ull, 37449, 6},
        {BTreeKind::BPlusTree, 0, 0x8dc0211664b4da9dull, 1, 1},
        {BTreeKind::BPlusTree, 1, 0x5e63f3cf237bebfbull, 1, 1},
        {BTreeKind::BPlusTree, 8, 0xf0de999351b42bedull, 3, 2},
        {BTreeKind::BPlusTree, 9, 0x72e68eb6a02781b8ull, 3, 2},
        {BTreeKind::BPlusTree, 5000, 0xc646d9166b9a617full, 976, 5},
        {BTreeKind::BPlusTree, 100000, 0xeeb28747131defa4ull, 19446, 6},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(bTreeKindName(pin.kind)) + " with " +
                     std::to_string(pin.keys) + " keys");
        // Keys 2n, ..., 4, 2 in reverse order, plus one duplicate.
        std::vector<float> keys;
        for (size_t i = pin.keys; i >= 1; --i)
            keys.push_back(2.0f * static_cast<float>(i));
        if (pin.keys > 0)
            keys.push_back(keys[keys.size() / 2]);
        BTree tree(pin.kind, keys);
        EXPECT_EQ(tree.numKeys(), pin.keys);
        EXPECT_EQ(tree.numNodes(), pin.nodes);
        EXPECT_EQ(tree.height(), pin.height);

        // Allocate first so the image lands at a non-zero base and its
        // child addresses must be relocated.
        mem::GlobalMemory gmem(4u << 20);
        gmem.alloc(100);
        uint64_t root = tree.serialize(gmem);
        EXPECT_EQ(hashImage(gmem, root,
                            tree.numNodes() * BTreeNodeLayout::kNodeBytes),
                  pin.hash);

        // Every key (even) and every gap around them (odd) agree.
        for (size_t q = 0; q <= 2 * pin.keys + 1; ++q) {
            float query = static_cast<float>(q);
            auto host = tree.search(query);
            auto dev = BTree::searchSerialized(gmem, root, query);
            bool is_key = q > 0 && q % 2 == 0;
            ASSERT_EQ(host.found, is_key) << "query " << q;
            ASSERT_EQ(dev.found, is_key) << "query " << q;
            ASSERT_EQ(host.depth, dev.depth) << "query " << q;
        }
    }
}

// --- B-Tree image shared by devices -------------------------------------

namespace {

constexpr uint64_t kImageBase = mem::DeviceImage::kBase;

/** Resident set of this process in bytes (0 if it cannot be read). */
size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    size_t total = 0, resident = 0;
    statm >> total >> resident;
    return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

/** Every key 2, 4, ..., 2n and every gap around them: the serialized
 *  tree at @p root finds what the host finds, at the same node. */
void
expectSearchesAgree(const BTree &tree, const mem::GlobalMemory &gmem,
                    uint64_t root, size_t n_keys)
{
    for (size_t q = 0; q <= 2 * n_keys + 1; ++q) {
        float query = static_cast<float>(q);
        auto host = tree.search(query);
        auto dev = BTree::searchSerialized(gmem, root, query);
        ASSERT_EQ(dev.found, host.found) << "query " << q;
        ASSERT_EQ(dev.depth, host.depth) << "query " << q;
        ASSERT_EQ(dev.terminalNode, root + host.terminalNode)
            << "query " << q;
    }
}

/** The records serialized at @p root, child bases moved back to where
 *  they would be at kImageBase. */
std::vector<BTreeNodeLayout>
recordsAtImageBase(const mem::GlobalMemory &gmem, uint64_t root,
                   size_t n_nodes)
{
    std::vector<BTreeNodeLayout> nodes(n_nodes);
    gmem.readBytes(root, nodes.data(), n_nodes * sizeof(BTreeNodeLayout));
    for (BTreeNodeLayout &node : nodes) {
        if (!(node.flags & BTreeNodeLayout::kLeafFlag))
            node.childBase -= static_cast<uint32_t>(root - kImageBase);
    }
    return nodes;
}

} // namespace

TEST(BTreeSharedImage, FreshDevicesMapWhatAPrivateCopyHolds)
{
    for (BTreeKind kind :
         {BTreeKind::BTree, BTreeKind::BStarTree, BTreeKind::BPlusTree}) {
        SCOPED_TRACE(bTreeKindName(kind));
        const size_t n_keys = 3000;
        BTree tree(kind, makeKeys(n_keys));
        const size_t bytes = tree.numNodes() * BTreeNodeLayout::kNodeBytes;
        mem::GlobalMemory a(4u << 20), b(4u << 20), copy(4u << 20);
        const uint64_t root_a = tree.serialize(a);
        const uint64_t root_b = tree.serialize(b);
        copy.alloc(100);
        const uint64_t root_copy = tree.serialize(copy);
        EXPECT_EQ(root_a, kImageBase);
        EXPECT_EQ(root_b, kImageBase);
        EXPECT_EQ(a.allocTop(), kImageBase + bytes);
        EXPECT_NE(root_copy, kImageBase);
        expectSearchesAgree(tree, a, root_a, n_keys);
        expectSearchesAgree(tree, b, root_b, n_keys);
        expectSearchesAgree(tree, copy, root_copy, n_keys);

        auto mapped = recordsAtImageBase(a, root_a, tree.numNodes());
        auto copied = recordsAtImageBase(copy, root_copy, tree.numNodes());
        EXPECT_EQ(0, std::memcmp(mapped.data(), copied.data(), bytes));
        // The private copy is the device's own: writing it is allowed.
        copy.write<uint32_t>(root_copy + BTreeNodeLayout::kOffKeys, 0u);
    }
}

TEST(BTreeSharedImage, MappedBytesMatchPinnedValues)
{
    // Pinned from the copy a fresh device received before images were
    // mapped: same address (kImageBase), same bytes.
    struct Pin
    {
        BTreeKind kind;
        size_t keys;
        uint64_t hash;
    };
    const Pin pins[] = {
        {BTreeKind::BTree, 0, 0xad8b33fc92a1b99bull},
        {BTreeKind::BTree, 9, 0xdddfd51d5bb60ed0ull},
        {BTreeKind::BTree, 5000, 0xb1473c21a92c451full},
        {BTreeKind::BTree, 100000, 0xb4a9823ed61d27aaull},
        {BTreeKind::BStarTree, 9, 0xdb539f0929267b86ull},
        {BTreeKind::BStarTree, 5000, 0xf6cb6b958f61ac53ull},
        {BTreeKind::BStarTree, 100000, 0xfc6b70d25b43aac7ull},
        {BTreeKind::BPlusTree, 0, 0x8dc0211664b4da9dull},
        {BTreeKind::BPlusTree, 8, 0xeb9c4cdb7cbf2792ull},
        {BTreeKind::BPlusTree, 5000, 0x6976fb6a8b26de9bull},
        {BTreeKind::BPlusTree, 100000, 0x9e3eca52d2af5935ull},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(std::string(bTreeKindName(pin.kind)) + " with " +
                     std::to_string(pin.keys) + " keys");
        // The keys of BTreeImage.BytesAndShapeMatchPinnedValues.
        std::vector<float> keys;
        for (size_t i = pin.keys; i >= 1; --i)
            keys.push_back(2.0f * static_cast<float>(i));
        if (pin.keys > 0)
            keys.push_back(keys[keys.size() / 2]);
        BTree tree(pin.kind, keys);
        mem::GlobalMemory gmem(16u << 20);
        uint64_t root = tree.serialize(gmem);
        EXPECT_EQ(root, kImageBase);
        EXPECT_EQ(hashImage(gmem, root,
                            tree.numNodes() * BTreeNodeLayout::kNodeBytes),
                  pin.hash);
    }
}

TEST(BTreeSharedImage, SerializeIntoFreshDeviceCopiesNoPages)
{
    const BTree tree(BTreeKind::BTree, makeKeys(1u << 20));
    const size_t bytes = tree.numNodes() * BTreeNodeLayout::kNodeBytes;
    ASSERT_GT(bytes, 16ull << 20);
    mem::GlobalMemory gmem;
    const size_t before = residentBytes();
    ASSERT_GT(before, 0u) << "cannot read /proc/self/statm";
    const uint64_t root = tree.serialize(gmem);
    const size_t after = residentBytes();
    EXPECT_LT(after, before + bytes / 8)
        << "serializing a " << bytes << "-byte image grew the resident "
        << "set from " << before << " to " << after << " bytes";
    for (float key : {2.0f, 3.0f, 1048576.0f, 2097152.0f, 2097153.0f})
        EXPECT_EQ(BTree::searchSerialized(gmem, root, key).found,
                  tree.search(key).found);
}

TEST(BTreeSharedImage, CopiesShareOneImage)
{
    BTree tree(BTreeKind::BPlusTree, makeKeys(1u << 20));
    const size_t bytes = tree.numNodes() * BTreeNodeLayout::kNodeBytes;
    const size_t before = residentBytes();
    ASSERT_GT(before, 0u) << "cannot read /proc/self/statm";
    std::vector<BTree> copies(4, tree);
    const size_t after = residentBytes();
    EXPECT_LT(after, before + bytes / 8)
        << "four copies of a " << bytes << "-byte tree grew the resident "
        << "set from " << before << " to " << after << " bytes";
    // A moved-to tree (perfbench move-assigns) keeps the same image.
    tree = std::move(copies.back());
    mem::GlobalMemory a(64u << 20), b(64u << 20);
    const uint64_t root_a = tree.serialize(a);
    const uint64_t root_b = copies.front().serialize(b);
    for (float key : {2.0f, 3.0f, 1048576.0f, 2097152.0f, 2097153.0f}) {
        EXPECT_EQ(BTree::searchSerialized(a, root_a, key).found,
                  copies.front().search(key).found);
        EXPECT_EQ(BTree::searchSerialized(b, root_b, key).found,
                  tree.search(key).found);
    }
}

TEST(BTreeSharedImage, ConcurrentSerializesFromRunnerWorkers)
{
    // One tree serialized by four workers at once, mapped into fresh
    // devices and copied into used ones; TSan checks the sharing.
    const size_t n_keys = 20000;
    const BTree tree(BTreeKind::BPlusTree, makeKeys(n_keys));
    std::vector<sim::Job> jobs(8);
    for (size_t j = 0; j < jobs.size(); ++j) {
        jobs[j].name = "serialize" + std::to_string(j);
        jobs[j].fn = [&tree, j, n_keys](const sim::Config &,
                                        sim::StatRegistry &,
                                        sim::RunRecord &rec) {
            mem::GlobalMemory gmem(4u << 20);
            if (j % 2)
                gmem.alloc(100); // the private-copy path
            const uint64_t root = tree.serialize(gmem);
            double mismatches = 0;
            for (size_t q = 0; q <= 2 * n_keys + 1; ++q) {
                float query = static_cast<float>(q);
                mismatches +=
                    BTree::searchSerialized(gmem, root, query).found !=
                    tree.search(query).found;
            }
            rec.values["mapped"] = root == kImageBase;
            rec.values["mismatches"] = mismatches;
        };
    }
    const auto records = sim::ExperimentRunner(4).run(jobs);
    ASSERT_EQ(records.size(), jobs.size());
    for (size_t j = 0; j < records.size(); ++j) {
        SCOPED_TRACE(records[j].name);
        ASSERT_FALSE(records[j].failed()) << records[j].error;
        EXPECT_EQ(records[j].values.at("mapped"), j % 2 ? 0.0 : 1.0);
        EXPECT_EQ(records[j].values.at("mismatches"), 0.0);
    }
}

// --- BVH ---------------------------------------------------------------

TEST(Bvh, LeavesPartitionPrimitives)
{
    Rng rng(7);
    std::vector<geom::Aabb> boxes;
    for (int i = 0; i < 500; ++i) {
        geom::Vec3 p = {rng.uniform(-10, 10), rng.uniform(-10, 10),
                        rng.uniform(-10, 10)};
        boxes.emplace_back(p, p + geom::Vec3(0.5f, 0.5f, 0.5f));
    }
    Bvh bvh;
    bvh.build(boxes, 3);
    // Every primitive appears exactly once across leaves.
    std::vector<uint32_t> order = bvh.primOrder();
    std::sort(order.begin(), order.end());
    for (uint32_t i = 0; i < 500; ++i)
        EXPECT_EQ(order[i], i);
    // Parent boxes contain their children.
    for (const auto &node : bvh.nodes()) {
        if (node.isLeaf())
            continue;
        const auto &l = bvh.nodes()[node.left].box;
        const auto &r = bvh.nodes()[node.right].box;
        EXPECT_TRUE(node.box.contains(l.lo) && node.box.contains(l.hi));
        EXPECT_TRUE(node.box.contains(r.lo) && node.box.contains(r.hi));
    }
}

TEST(Bvh, TraverseFindsAllIntersectedBoxes)
{
    Rng rng(9);
    std::vector<geom::Aabb> boxes;
    for (int i = 0; i < 300; ++i) {
        geom::Vec3 p = {rng.uniform(-10, 10), rng.uniform(-10, 10),
                        rng.uniform(-10, 10)};
        boxes.emplace_back(p, p + geom::Vec3(rng.uniform(0.1f, 1.0f),
                                             rng.uniform(0.1f, 1.0f),
                                             rng.uniform(0.1f, 1.0f)));
    }
    Bvh bvh;
    bvh.build(boxes, 2);
    for (int trial = 0; trial < 50; ++trial) {
        geom::Ray ray;
        ray.origin = {rng.uniform(-15, 15), rng.uniform(-15, 15), -20};
        ray.dir = geom::normalize({rng.uniform(-0.3f, 0.3f),
                                   rng.uniform(-0.3f, 0.3f), 1.0f});
        std::set<uint32_t> via_bvh;
        geom::Ray r = ray;
        bvh.traverse(r, [&](uint32_t id) { via_bvh.insert(id); });
        // Brute force: every intersected box must be reported.
        for (uint32_t id = 0; id < boxes.size(); ++id) {
            if (geom::rayBox(ray, boxes[id])) {
                EXPECT_TRUE(via_bvh.count(id)) << "missed box " << id;
            }
        }
    }
}

TEST(Bvh, SerializedTraversalMatchesHost)
{
    Rng rng(11);
    std::vector<geom::Aabb> boxes;
    for (int i = 0; i < 200; ++i) {
        geom::Vec3 p = {rng.uniform(-5, 5), rng.uniform(-5, 5),
                        rng.uniform(-5, 5)};
        boxes.emplace_back(p, p + geom::Vec3(0.4f));
    }
    Bvh bvh;
    bvh.build(boxes, 2);
    mem::GlobalMemory gmem(8u << 20);
    SerializedBvh image = bvh.serialize(gmem);

    for (int trial = 0; trial < 40; ++trial) {
        geom::Ray ray;
        ray.origin = {rng.uniform(-8, 8), rng.uniform(-8, 8), -10};
        ray.dir = geom::normalize({rng.uniform(-0.4f, 0.4f),
                                   rng.uniform(-0.4f, 0.4f), 1.0f});
        std::set<uint32_t> host_ids;
        geom::Ray hr = ray;
        bvh.traverse(hr, [&](uint32_t id) { host_ids.insert(id); });

        // Walk the serialized image.
        std::set<uint32_t> dev_ids;
        std::vector<uint32_t> stack{image.root.raw};
        while (!stack.empty()) {
            BvhRef ref{stack.back()};
            stack.pop_back();
            if (ref.isLeaf()) {
                uint32_t count = gmem.read<uint32_t>(ref.addr());
                for (uint32_t i = 0; i < count; ++i)
                    dev_ids.insert(
                        gmem.read<uint32_t>(ref.addr() + 4 + 4 * i));
                continue;
            }
            uint64_t node = ref.addr();
            auto test = [&](uint32_t lo_off, uint32_t hi_off,
                            uint32_t ref_off) {
                geom::Aabb box;
                box.lo = {gmem.read<float>(node + lo_off),
                          gmem.read<float>(node + lo_off + 4),
                          gmem.read<float>(node + lo_off + 8)};
                box.hi = {gmem.read<float>(node + hi_off),
                          gmem.read<float>(node + hi_off + 4),
                          gmem.read<float>(node + hi_off + 8)};
                BvhRef child{gmem.read<uint32_t>(node + ref_off)};
                if (child.valid() && geom::rayBox(ray, box))
                    stack.push_back(child.raw);
            };
            using L = BvhNodeLayout;
            test(L::kOffLoL, L::kOffHiL, L::kOffLeft);
            test(L::kOffLoR, L::kOffHiR, L::kOffRight);
        }
        // The leaf-level visit sets must agree (leaf boxes = prim boxes
        // unions; the host traversal enters leaves the ray's box test
        // accepts).
        for (uint32_t id : dev_ids)
            EXPECT_TRUE(geom::rayBox(ray, boxes[id]).has_value() ||
                        true); // leaf granularity: superset allowed
        for (uint32_t id : host_ids)
            EXPECT_TRUE(dev_ids.count(id)) << "serialized walk missed "
                                           << id;
    }
}

TEST(Bvh, SinglePrimitive)
{
    Bvh bvh;
    bvh.build({geom::Aabb({0, 0, 0}, {1, 1, 1})}, 2);
    EXPECT_EQ(bvh.nodes().size(), 1u);
    mem::GlobalMemory gmem(1u << 20);
    SerializedBvh image = bvh.serialize(gmem);
    EXPECT_TRUE(image.root.isLeaf());
}

// --- Barnes-Hut tree ------------------------------------------------------

TEST(BarnesHut, MassAndComInvariants)
{
    Rng rng(5);
    std::vector<BhBody> bodies;
    float total_mass = 0;
    geom::Vec3 weighted(0.0f);
    for (int i = 0; i < 2000; ++i) {
        BhBody b;
        b.pos = {rng.uniform(-10, 10), rng.uniform(-10, 10),
                 rng.uniform(-10, 10)};
        b.mass = rng.uniform(0.5f, 2.0f);
        total_mass += b.mass;
        weighted += b.pos * b.mass;
        bodies.push_back(b);
    }
    BarnesHutTree tree(3, bodies, 0.5f);
    auto root = tree.nodeView(tree.rootIndex());
    EXPECT_NEAR(root.mass, total_mass, total_mass * 1e-4f);
    geom::Vec3 com = weighted / total_mass;
    EXPECT_NEAR(geom::length(root.com - com), 0.0f, 1e-2f);
    EXPECT_EQ(tree.numBodies(), 2000u);
}

TEST(BarnesHut, ForceMatchesDirectSumForSmallTheta)
{
    // theta -> 0 opens every node: Barnes-Hut equals the direct O(n^2)
    // sum.
    Rng rng(6);
    std::vector<BhBody> bodies;
    for (int i = 0; i < 64; ++i) {
        BhBody b;
        b.pos = {rng.uniform(-5, 5), rng.uniform(-5, 5),
                 rng.uniform(-5, 5)};
        b.mass = rng.uniform(0.5f, 2.0f);
        bodies.push_back(b);
    }
    BarnesHutTree tree(3, bodies, 1e-4f);
    const auto &ordered = tree.orderedBodies();
    for (size_t q = 0; q < ordered.size(); q += 7) {
        geom::Vec3 direct(0.0f);
        for (const auto &b : ordered) {
            geom::Vec3 dr = b.pos - ordered[q].pos;
            float d2 = geom::dot(dr, dr);
            if (d2 == 0.0f)
                continue;
            float inv = 1.0f / std::sqrt(d2 + 0.05f * 0.05f);
            direct += dr * (b.mass * inv * inv * inv);
        }
        auto res = tree.referenceForce(ordered[q].pos);
        EXPECT_NEAR(geom::length(res.accel - direct), 0.0f,
                    1e-3f * (geom::length(direct) + 1.0f));
    }
}

TEST(BarnesHut, LargerThetaApproximatesMore)
{
    Rng rng(8);
    std::vector<BhBody> bodies;
    for (int i = 0; i < 4096; ++i) {
        BhBody b;
        b.pos = {rng.gaussian(), rng.gaussian(), rng.gaussian()};
        bodies.push_back(b);
    }
    BarnesHutTree tight(3, bodies, 0.3f);
    BarnesHutTree loose(3, bodies, 1.0f);
    uint64_t tight_visits = 0, loose_visits = 0;
    for (int q = 0; q < 128; ++q) {
        tight_visits +=
            tight.referenceForce(tight.orderedBodies()[q].pos).nodesVisited;
        loose_visits +=
            loose.referenceForce(loose.orderedBodies()[q].pos).nodesVisited;
    }
    EXPECT_LT(loose_visits, tight_visits);
}

TEST(BarnesHut, SerializationRoundTrip)
{
    Rng rng(10);
    std::vector<BhBody> bodies;
    for (int i = 0; i < 500; ++i) {
        BhBody b;
        b.pos = {rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0f};
        b.mass = 1.0f;
        bodies.push_back(b);
    }
    BarnesHutTree tree(2, std::move(bodies), 0.5f);
    mem::GlobalMemory gmem(8u << 20);
    uint64_t root = tree.serialize(gmem);

    // Walk the serialized tree: summed leaf body counts == n, masses
    // aggregate, children contiguous.
    uint64_t body_total = 0;
    std::vector<uint64_t> stack{root};
    while (!stack.empty()) {
        uint64_t node = stack.back();
        stack.pop_back();
        uint32_t flags = gmem.read<uint32_t>(node + BhNodeLayout::kOffFlags);
        if (flags & BhNodeLayout::kLeafFlag) {
            body_total += (flags >> 16) & 0xff;
            continue;
        }
        uint32_t count = (flags >> 8) & 0xff;
        uint32_t base = gmem.read<uint32_t>(node +
                                            BhNodeLayout::kOffChildBase);
        ASSERT_GT(count, 0u);
        for (uint32_t c = 0; c < count; ++c)
            stack.push_back(base + c * BhNodeLayout::kNodeBytes);
    }
    EXPECT_EQ(body_total, tree.numBodies());
}

// --- Point cloud / radius search ----------------------------------------

TEST(PointCloud, DeterministicAndSized)
{
    auto a = PointCloud::generateLidarLike(10000, 3);
    auto b = PointCloud::generateLidarLike(10000, 3);
    ASSERT_EQ(a.points.size(), 10000u);
    EXPECT_EQ(a.points[1234], b.points[1234]);
    auto c = PointCloud::generateLidarLike(10000, 4);
    EXPECT_FALSE(a.points[1234] == c.points[1234]);
}

TEST(RadiusSearch, MatchesBruteForce)
{
    auto cloud = PointCloud::generateLidarLike(5000, 12);
    RadiusSearchIndex index(cloud, 1.5f);
    Rng rng(13);
    for (int trial = 0; trial < 30; ++trial) {
        geom::Vec3 q = cloud.points[rng.nextBounded(cloud.points.size())];
        auto hits = index.query(q);
        std::set<uint32_t> got(hits.begin(), hits.end());
        std::set<uint32_t> want;
        for (uint32_t i = 0; i < cloud.points.size(); ++i) {
            if (geom::pointWithinRadius(q, cloud.points[i], 1.5f))
                want.insert(i);
        }
        EXPECT_EQ(got, want);
    }
}
