/**
 * @file
 * Edge-case and back-pressure tests that don't fit the per-module
 * suites: queue limits, stack nesting depth, partition properties,
 * serialized-layout details, and a walk over a corrupt B-Tree image.
 */

#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "gpu/simt_stack.hh"
#include "mem/coalescer.hh"
#include "mem/memsys.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "trees/btree.hh"
#include "trees/octree.hh"

using namespace tta;

TEST(MemSystemEdge, InputQueueBackpressure)
{
    sim::Config cfg;
    sim::StatRegistry stats;
    mem::MemSystem memsys(cfg, stats);
    // Fill SM0's input queue without ticking; canAccept must flip off.
    int accepted = 0;
    while (memsys.canAccept(0) && accepted < 1000) {
        mem::MemRequest req;
        req.addr = 0x1000 + accepted * 128;
        req.smId = 0;
        req.tag = accepted;
        memsys.sendRequest(req);
        ++accepted;
    }
    EXPECT_EQ(accepted, 64); // kL1QueueDepth
    EXPECT_TRUE(memsys.canAccept(1)); // other SMs unaffected
    // Draining restores acceptance and answers everything.
    sim::Cycle clock = 0;
    while (memsys.busy() && clock < 100000)
        memsys.tick(clock++);
    EXPECT_TRUE(memsys.canAccept(0));
    EXPECT_EQ(memsys.responses(0).size(), 64u);
}

TEST(SimtStackEdge, ThreeLevelNesting)
{
    gpu::SimtStack stack;
    stack.start(0, 0xffu);
    stack.branch(0x0fu, 10, 100); // level 1: half take
    EXPECT_EQ(stack.pc(), 10u);
    stack.branch(0x03u, 20, 50); // level 2 within the taken side
    EXPECT_EQ(stack.pc(), 20u);
    EXPECT_EQ(stack.activeMask(), 0x03u);
    stack.branch(0x01u, 30, 40); // level 3
    EXPECT_EQ(stack.activeMask(), 0x01u);
    EXPECT_GE(stack.depth(), 4u);
    // Unwind: every level reconverges to its own point.
    stack.jump(40);
    EXPECT_EQ(stack.activeMask(), 0x02u); // level-3 other side
    stack.jump(40);
    EXPECT_EQ(stack.pc(), 40u);
    EXPECT_EQ(stack.activeMask(), 0x03u); // level 3 merged
    stack.jump(50);
    EXPECT_EQ(stack.activeMask(), 0x0cu); // level-2 other side
    stack.jump(50);
    EXPECT_EQ(stack.activeMask(), 0x0fu);
    stack.jump(100);
    EXPECT_EQ(stack.activeMask(), 0xf0u); // level-1 other side
    stack.jump(100);
    EXPECT_EQ(stack.activeMask(), 0xffu); // fully merged
    EXPECT_EQ(stack.pc(), 100u);
}

TEST(CoalescerProperty, LaneMasksPartitionTheActiveSet)
{
    sim::Rng rng(23);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<mem::Addr> addrs(32);
        uint32_t active = static_cast<uint32_t>(rng.next());
        for (auto &a : addrs)
            a = 0x10000 + rng.nextBounded(1 << 12) * 4; // word-aligned
        auto txns = mem::coalesce(addrs, active, 4, 128);
        uint32_t combined = 0;
        for (const auto &t : txns) {
            // Aligned 4-byte accesses fit one line: no lane repeats.
            EXPECT_EQ(combined & t.laneMask, 0u);
            combined |= t.laneMask;
            EXPECT_EQ(t.lineAddr % 128, 0u);
        }
        EXPECT_EQ(combined, active);
    }
}

TEST(BTreeEdge, SerializedSearchReportsDepthAndTerminal)
{
    std::vector<float> keys;
    for (int i = 1; i <= 2000; ++i)
        keys.push_back(2.0f * i);
    trees::BTree tree(trees::BTreeKind::BPlusTree, keys);
    mem::GlobalMemory gmem(4u << 20);
    uint64_t root = tree.serialize(gmem);
    auto hit = trees::BTree::searchSerialized(gmem, root, 2000.0f);
    EXPECT_TRUE(hit.found);
    auto miss = trees::BTree::searchSerialized(gmem, root, 2001.0f);
    EXPECT_FALSE(miss.found);
    // B+Tree: both walks reach the same depth (leaf level).
    EXPECT_EQ(miss.depth, tree.height());
    EXPECT_NE(miss.terminalNode, 0u);
}

// A zeroed record reads as an inner node whose child 0 is address 0,
// and address 0 reads zero too: the walk must stop by name, not loop.
TEST(BTreeEdge, ZeroedImageWalkIsFatal)
{
    mem::GlobalMemory gmem(1u << 20);
    uint64_t root = gmem.alloc(trees::BTreeNodeLayout::kNodeBytes);
    try {
        trees::BTree::searchSerialized(gmem, root, 1.0f);
        FAIL() << "the walk over a zeroed image returned";
    } catch (const sim::FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("corrupt or cyclic image"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("at node 0x0"), std::string::npos) << msg;
    }
}

TEST(BarnesHutEdge, TwoDTreeIgnoresZStructure)
{
    sim::Rng rng(29);
    std::vector<trees::BhBody> bodies;
    for (int i = 0; i < 600; ++i) {
        trees::BhBody b;
        b.pos = {rng.uniform(-5, 5), rng.uniform(-5, 5), 0.0f};
        b.mass = 1.0f;
        bodies.push_back(b);
    }
    trees::BarnesHutTree quad(2, bodies, 0.5f);
    // Quadtree inner nodes have at most 4 children.
    for (uint32_t n = 0; n < quad.numNodes(); ++n) {
        auto view = quad.nodeView(n);
        if (!view.leaf) {
            EXPECT_LE(view.children.size(), 4u);
        }
    }
}

TEST(BarnesHutEdge, DuplicatePositionsTerminate)
{
    // Coincident bodies force the depth cutoff; the build must not hang
    // and the self-interaction guard must keep forces finite.
    std::vector<trees::BhBody> bodies(40, trees::BhBody{{1, 1, 1}, 1.0f});
    bodies.push_back({{2, 2, 2}, 1.0f});
    trees::BarnesHutTree tree(3, bodies, 0.5f);
    auto res = tree.referenceForce({1, 1, 1});
    EXPECT_TRUE(std::isfinite(res.accel.x));
    EXPECT_GT(geom::length(res.accel), 0.0f);
}

TEST(HistogramEdge, BucketClampingAndReset)
{
    sim::Histogram h(2.0, 4); // buckets [0,2) [2,4) [4,6) [6,inf)
    h.sample(-5.0);           // clamps to bucket 0
    h.sample(1.0);
    h.sample(7.0);
    h.sample(1e9);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[3], 2u);
    EXPECT_DOUBLE_EQ(h.minValue(), -5.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.buckets()[3], 0u);
}
