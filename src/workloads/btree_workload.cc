#include "workloads/btree_workload.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "tta/query_key_unit.hh"

namespace tta::workloads {

using trees::BTreeNodeLayout;

namespace {
constexpr uint64_t kLineMask = ~63ull; //!< nodes are 64B aligned
} // namespace

BTreeSpec::BTreeSpec(mem::GlobalMemory &gmem, uint64_t root,
                     uint64_t query_base, uint64_t result_base)
    : gmem_(&gmem), root_(root), queryBase_(query_base),
      resultBase_(result_base),
      innerProg_(ttaplus::programs::queryKeyInner()),
      leafProg_(ttaplus::programs::queryKeyLeaf())
{
}

void
BTreeSpec::initRay(rta::RayState &ray, uint32_t lane_operand)
{
    ray.queryId = lane_operand;
    ray.query = gmem_->read<float>(queryBase_ + 4ull * lane_operand);
    ray.found = false;
    ray.stack.push_back(root_);
}

void
BTreeSpec::fetchLines(const rta::RayState & /*ray*/, rta::NodeRef ref,
                      std::vector<uint64_t> &lines) const
{
    lines.push_back(ref & kLineMask);
}

rta::NodeOutcome
BTreeSpec::processNode(rta::RayState &ray, rta::NodeRef ref)
{
    using L = BTreeNodeLayout;
    // One node per level: the RTA counts this node in nodesVisited.
    fatal_if(ray.nodesVisited > trees::BTree::kMaxDepth,
             "B-Tree walk deeper than %u levels at node 0x%llx: "
             "corrupt or cyclic image",
             trees::BTree::kMaxDepth, static_cast<unsigned long long>(ref));
    uint32_t flags = gmem_->read<uint32_t>(ref + L::kOffFlags);
    bool leaf = flags & L::kLeafFlag;
    bool router = flags & L::kRouterFlag;
    uint32_t child_base = gmem_->read<uint32_t>(ref + L::kOffChildBase);
    float keys[L::kWidth];
    for (uint32_t i = 0; i < L::kWidth; ++i)
        keys[i] = gmem_->read<float>(ref + L::kOffKeys + 4 * i);

    rta::NodeOutcome out;
    out.op = rta::OpKind::QueryKey;
    out.isLeaf = leaf;

    tta::QueryKeyOutput qk = tta::queryKeyUnit(ray.query, keys);
    if (qk.found) {
        if (leaf || !router) {
            ray.found = true;
            return out; // traversal terminates (nothing pushed)
        }
        // B+Tree router equality: the key lives in the right subtree.
        uint64_t next = child_base +
            static_cast<uint64_t>(qk.matchIndex + 1) * L::kNodeBytes;
        ray.stack.push_back(next);
        return out;
    }
    if (!leaf) {
        uint64_t next = child_base +
            static_cast<uint64_t>(qk.childIndex) * L::kNodeBytes;
        ray.stack.push_back(next);
    }
    return out;
}

void
BTreeSpec::finishRay(rta::RayState &ray)
{
    gmem_->write<uint32_t>(resultBase_ + 4ull * ray.queryId,
                           ray.found ? 1u : 0u);
}

namespace {

/** Keys 2, 4, ..., 2n: even integers as floats (exactly representable
 *  up to 2^24), so "miss" queries can be odd integers that are
 *  guaranteed absent. */
std::vector<float>
evenKeys(size_t n)
{
    std::vector<float> keys(n);
    for (size_t i = 0; i < n; ++i)
        keys[i] = 2.0f * static_cast<float>(i + 1);
    return keys;
}

} // namespace

BTreeInputs::BTreeInputs(trees::BTreeKind kind, size_t n_keys,
                         size_t n_queries, uint64_t seed, double hit_rate)
    : tree(kind, evenKeys(n_keys))
{
    sim::Rng rng(seed);
    pool.resize(n_queries);
    expected.resize(n_queries);
    for (size_t q = 0; q < n_queries; ++q) {
        bool hit = rng.nextDouble() < hit_rate;
        const uint64_t i = rng.nextBounded(n_keys);
        // A hit is evenKeys()[i]; a miss is the odd number below it.
        pool[q] = hit ? 2.0f * static_cast<float>(i + 1)
                      : 2.0f * static_cast<float>(i) + 1.0f;
        expected[q] = tree.search(pool[q]).found ? 1 : 0;
    }
}

BTreeLanes
BTreeLanes::alloc(mem::GlobalMemory &gmem, size_t n)
{
    BTreeLanes lanes;
    lanes.queryBase = gmem.alloc(n * 4, 128);
    lanes.resultBase = gmem.alloc(n * 4, 128);
    return lanes;
}

BTreeWorkload::BTreeWorkload(trees::BTreeKind kind, size_t n_keys,
                             size_t n_queries, uint64_t seed,
                             double hit_rate)
    : in_(kind, n_keys, n_queries, seed, hit_rate)
{
}

void
BTreeWorkload::setup(mem::GlobalMemory &gmem)
{
    rootAddr_ = in_.tree.serialize(gmem);
    lanes_ = BTreeLanes::alloc(gmem, in_.pool.size());
    for (size_t q = 0; q < in_.pool.size(); ++q)
        lanes_.stage(gmem, q, in_.pool[q]);
}

gpu::KernelProgram
BTreeWorkload::buildBaselineKernel()
{
    using namespace ::tta::gpu;
    KernelBuilder b("btree_search_baseline");
    // Params: 0 = queryBase, 1 = resultBase, 2 = rootAddr.
    // r1 tid, r2 query, r3 node, r4 found, r12 leaf, r13 child,
    // r14 matchable, r15 resolved.
    b.tid(1);
    b.param(20, 0);
    b.ishli(21, 1, 2);
    b.iadd(21, 20, 21);
    b.load(2, 21); // query value
    b.param(3, 2); // node = root
    b.movi(4, 0);  // found = 0

    b.doWhile([&]() -> Reg {
        b.load(8, 3, 0); // flags
        b.load(9, 3, 4); // childBase
        b.movi(22, 1);
        b.iand(12, 8, 22); // leaf
        b.ishri(23, 8, 1);
        b.iand(23, 23, 22); // router
        b.isub(24, 22, 23);
        b.ior(14, 12, 24); // matchable = leaf || !router
        b.movi(10, 0);     // i = 0
        b.movi(13, 0);     // child = 0
        b.movi(15, 0);     // resolved = 0

        // Inner loop over the (up to) nine keys: Algorithm 1.
        b.doWhile([&]() -> Reg {
            b.ishli(11, 10, 2);
            b.iadd(11, 11, 3);
            b.load(6, 11, BTreeNodeLayout::kOffKeys); // key[i]
            b.seteqf(7, 6, 2);
            b.iand(7, 7, 14); // equality counts only when matchable
            b.ifThen(7, [&]() {
                b.movi(4, 1);  // found
                b.movi(15, 1); // resolved
            });
            b.setltf(16, 2, 6); // query < key
            b.movi(17, 1);
            b.isub(18, 17, 15); // !resolved
            b.iand(16, 16, 18);
            b.ifThen(16, [&]() {
                b.mov(13, 10); // child = i
                b.movi(15, 1);
            });
            b.iaddi(10, 10, 1);
            // continue while !resolved && i < 9
            b.movi(19, 9);
            b.setlti(25, 10, 19);
            b.isub(26, 17, 15);
            b.iand(25, 25, 26);
            return 25;
        });

        // done when found or at a leaf; else descend.
        b.ior(27, 4, 12);
        b.movi(22, 1);
        b.isub(28, 22, 27); // continue flag
        b.ifThen(28, [&]() {
            b.imuli(29, 13, BTreeNodeLayout::kNodeBytes);
            b.iadd(3, 9, 29);
        });
        return 28;
    });

    // result[tid] = found
    b.param(30, 1);
    b.ishli(31, 1, 2);
    b.iadd(30, 30, 31);
    b.store(30, 4);
    b.exit();
    return b.build();
}

api::TtaPipeline
BTreeWorkload::makePipeline()
{
    static const ttaplus::Program inner = ttaplus::programs::queryKeyInner();
    static const ttaplus::Program leaf = ttaplus::programs::queryKeyLeaf();
    api::TtaPipelineDesc desc("btree");
    desc.decodeR({4, 4})          // query key, found flag
        .decodeI({4, 4, 36})      // flags, childBase, keys[9]
        .decodeL({4, 4, 36})
        .configI(&inner)
        .configL(&leaf);
    tta::TerminationConfig term;
    term.watch = tta::TerminationConfig::Watch::StackEmptyOnly;
    desc.configTerminate(term);
    return api::TtaPipeline::create(desc);
}

RunMetrics
BTreeWorkload::runBaseline(const sim::Config &cfg, sim::StatRegistry &stats)
{
    gpu::Gpu device(cfg, stats);
    setup(device.memory());
    gpu::KernelProgram kernel = buildBaselineKernel();
    std::vector<uint32_t> params = {
        static_cast<uint32_t>(lanes_.queryBase),
        static_cast<uint32_t>(lanes_.resultBase),
        static_cast<uint32_t>(rootAddr_)};
    sim::Cycle cycles = device.runKernel(kernel, numQueries(), params);
    captureResults(device.memory());
    size_t bad = verify(device.memory());
    panic_if(bad != 0, "baseline B-Tree kernel produced %zu mismatches",
             bad);
    return collectMetrics(stats, cycles, device.memsys().dramUtilization());
}

RunMetrics
BTreeWorkload::runAccelerated(const sim::Config &cfg,
                              sim::StatRegistry &stats)
{
    api::TtaDevice device(cfg, stats);
    setup(device.memory());
    BTreeSpec spec(device.memory(), rootAddr_, lanes_.queryBase,
                   lanes_.resultBase);
    api::TtaPipeline pipeline = makePipeline();
    device.bindPipeline(pipeline, &spec);
    sim::Cycle cycles = device.cmdTraverseTree(numQueries());
    captureResults(device.memory());
    size_t bad = verify(device.memory());
    panic_if(bad != 0, "accelerated B-Tree run produced %zu mismatches",
             bad);
    return collectMetrics(stats, cycles,
                          device.gpu().memsys().dramUtilization());
}

void
BTreeWorkload::captureResults(const mem::GlobalMemory &gmem)
{
    deviceResults_.resize(numQueries());
    for (size_t q = 0; q < numQueries(); ++q)
        deviceResults_[q] = lanes_.result(gmem, q);
}

size_t
BTreeWorkload::verify(const mem::GlobalMemory &gmem) const
{
    return lanes_.mismatches(gmem, numQueries(),
                             [this](size_t q) { return in_.expected[q]; });
}

} // namespace tta::workloads
