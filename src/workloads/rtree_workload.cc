#include "workloads/rtree_workload.hh"

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace tta::workloads {

using trees::Rect2D;
using trees::RTreeNodeLayout;

namespace {
constexpr uint32_t kStackBytesPerWarp = 8192; //!< 64 levels x 128B
} // namespace

RTreeSpec::RTreeSpec(mem::GlobalMemory &gmem, uint64_t root,
                     uint64_t query_base, uint64_t result_base)
    : gmem_(&gmem), root_(root), queryBase_(query_base),
      resultBase_(result_base), prog_(ttaplus::programs::rectOverlap())
{
}

void
RTreeSpec::initRay(rta::RayState &ray, uint32_t lane_operand)
{
    ray.queryId = lane_operand;
    uint64_t addr = queryBase_ + 16ull * lane_operand;
    // Query window: (point.x, point.y) .. (accum.x, accum.y).
    ray.point = {gmem_->read<float>(addr + 0), gmem_->read<float>(addr + 4),
                 0.0f};
    ray.accum = {gmem_->read<float>(addr + 8),
                 gmem_->read<float>(addr + 12), 0.0f};
    ray.hitCount = 0;
    ray.stack.push_back(root_);
}

void
RTreeSpec::fetchLines(const rta::RayState & /*ray*/, rta::NodeRef ref,
                      std::vector<uint64_t> &lines) const
{
    lines.push_back(ref & ~127ull);
}

rta::NodeOutcome
RTreeSpec::processNode(rta::RayState &ray, rta::NodeRef ref)
{
    using L = RTreeNodeLayout;
    uint32_t flags = gmem_->read<uint32_t>(ref + L::kOffFlags);
    bool leaf = flags & L::kLeafFlag;
    uint32_t count = (flags >> 8) & 0xff;
    uint32_t child_base = gmem_->read<uint32_t>(ref + L::kOffChildBase);

    Rect2D query{ray.point.x, ray.point.y, ray.accum.x, ray.accum.y};
    for (uint32_t i = 0; i < count; ++i) {
        uint64_t entry = ref + L::kOffEntries + 16ull * i;
        Rect2D rect{gmem_->read<float>(entry + 0),
                    gmem_->read<float>(entry + 4),
                    gmem_->read<float>(entry + 8),
                    gmem_->read<float>(entry + 12)};
        if (!query.overlaps(rect))
            continue;
        if (leaf)
            ++ray.hitCount;
        else
            ray.stack.push_back(child_base +
                                static_cast<uint64_t>(i) * L::kNodeBytes);
    }

    // One 7-wide overlap test per node, on the min/max comparator
    // datapath (TTA) or the rectOverlap program (TTA+).
    rta::NodeOutcome out;
    out.op = rta::OpKind::RayBox;
    out.isLeaf = leaf;
    return out;
}

void
RTreeSpec::finishRay(rta::RayState &ray)
{
    gmem_->write<uint32_t>(resultBase_ + 4ull * ray.queryId,
                           ray.hitCount);
}

RTreeWorkload::RTreeWorkload(size_t n_objects, size_t n_queries,
                             float query_extent, uint64_t seed)
{
    sim::Rng rng(seed);
    // Map-like object layout: dense city blocks plus scattered parcels,
    // all within [0, 200]^2 (positive coordinates keep the serializer's
    // empty-entry sentinel inert).
    std::vector<Rect2D> objects;
    objects.reserve(n_objects);
    size_t n_clusters = std::max<size_t>(6, n_objects / 2048);
    std::vector<std::pair<float, float>> centers;
    for (size_t c = 0; c < n_clusters; ++c)
        centers.emplace_back(rng.uniform(20.0f, 180.0f),
                             rng.uniform(20.0f, 180.0f));
    for (size_t i = 0; i < n_objects; ++i) {
        float cx, cy;
        if (rng.nextFloat() < 0.75f) {
            auto [ccx, ccy] = centers[rng.nextBounded(n_clusters)];
            cx = ccx + 6.0f * rng.gaussian();
            cy = ccy + 6.0f * rng.gaussian();
        } else {
            cx = rng.uniform(2.0f, 198.0f);
            cy = rng.uniform(2.0f, 198.0f);
        }
        cx = std::min(std::max(cx, 1.0f), 199.0f);
        cy = std::min(std::max(cy, 1.0f), 199.0f);
        float w = rng.uniform(0.1f, 1.2f);
        float h = rng.uniform(0.1f, 1.2f);
        objects.push_back({cx - w, cy - h, cx + w, cy + h});
    }
    tree_ = std::make_unique<trees::RTree>(std::move(objects));

    queries_.reserve(n_queries);
    expected_.reserve(n_queries);
    for (size_t q = 0; q < n_queries; ++q) {
        float cx = rng.uniform(5.0f, 195.0f);
        float cy = rng.uniform(5.0f, 195.0f);
        Rect2D query{cx - query_extent, cy - query_extent,
                     cx + query_extent, cy + query_extent};
        queries_.push_back(query);
        expected_.push_back(tree_->countOverlaps(query));
    }
}

void
RTreeWorkload::setup(mem::GlobalMemory &gmem)
{
    rootAddr_ = tree_->serialize(gmem);
    queryBase_ = gmem.alloc(queries_.size() * 16, 128);
    resultBase_ = gmem.alloc(queries_.size() * 4, 128);
    size_t warps = (queries_.size() + 31) / 32;
    stackBase_ = gmem.alloc(warps * kStackBytesPerWarp, 128);
    for (size_t q = 0; q < queries_.size(); ++q) {
        uint64_t addr = queryBase_ + 16 * q;
        gmem.write<float>(addr + 0, queries_[q].x0);
        gmem.write<float>(addr + 4, queries_[q].y0);
        gmem.write<float>(addr + 8, queries_[q].x1);
        gmem.write<float>(addr + 12, queries_[q].y1);
        gmem.write<uint32_t>(resultBase_ + 4 * q, 0xdeadbeef);
    }
}

gpu::KernelProgram
RTreeWorkload::buildBaselineKernel()
{
    using namespace ::tta::gpu;
    using L = RTreeNodeLayout;
    KernelBuilder b("rtree_range_query_baseline");
    // Params: 0 queryBase, 1 root, 2 resultBase, 3 stackBase.
    b.tid(1);
    b.param(20, 0);
    b.ishli(21, 1, 4);
    b.iadd(20, 20, 21);
    b.loadVec3(4, 20, 0); // qx0, qy0, qx1
    b.load(7, 20, 12);    // qy1
    b.movi(8, 0);         // overlap count
    // Interleaved per-thread stack (64 levels x 128B per warp).
    b.param(2, 3);
    b.ishri(21, 1, 5);
    b.ishli(21, 21, 13);
    b.iadd(2, 2, 21);
    b.movi(22, 31);
    b.iand(23, 1, 22);
    b.ishli(23, 23, 2);
    b.iadd(2, 2, 23);
    b.param(24, 1);
    b.store(2, 24, 0); // push root
    b.movi(3, 1);

    b.doWhile([&]() -> Reg {
        b.iaddi(3, 3, -1);
        b.ishli(24, 3, 7);
        b.iadd(24, 2, 24);
        b.load(10, 24, 0); // node
        b.load(11, 10, L::kOffFlags);
        b.movi(22, 1);
        b.iand(12, 11, 22); // leaf?
        b.ishri(13, 11, 8);
        b.movi(22, 255);
        b.iand(13, 13, 22); // entry count
        b.load(14, 10, L::kOffChildBase);
        b.movi(15, 0);      // entry index

        b.doWhile([&]() -> Reg {
            b.ishli(24, 15, 4);
            b.iadd(24, 10, 24);
            b.load(16, 24, L::kOffEntries + 0);  // x0
            b.load(17, 24, L::kOffEntries + 4);  // y0
            b.load(18, 24, L::kOffEntries + 8);  // x1
            b.load(19, 24, L::kOffEntries + 12); // y1
            // overlap = x0<=qx1 && qx0<=x1 && y0<=qy1 && qy0<=y1
            b.setlef(20, 16, 6);
            b.setlef(21, 4, 18);
            b.iand(20, 20, 21);
            b.setlef(21, 17, 7);
            b.iand(20, 20, 21);
            b.setlef(21, 5, 19);
            b.iand(20, 20, 21);
            b.ifThenElse(
                12, [&]() { b.iadd(8, 8, 20); }, // leaf: count
                [&]() {                          // inner: descend
                    b.ifThen(20, [&]() {
                        b.imuli(21, 15, L::kNodeBytes);
                        b.iadd(21, 14, 21);
                        b.ishli(24, 3, 7);
                        b.iadd(24, 2, 24);
                        b.store(24, 21, 0);
                        b.iaddi(3, 3, 1);
                    });
                });
            b.iaddi(15, 15, 1);
            b.setlti(31, 15, 13);
            return 31;
        });
        b.movi(22, 0);
        b.setlti(31, 22, 3);
        return 31;
    });

    b.param(20, 2);
    b.ishli(21, 1, 2);
    b.iadd(20, 20, 21);
    b.store(20, 8);
    b.exit();
    return b.build();
}

api::TtaPipeline
RTreeWorkload::makePipeline()
{
    static const ttaplus::Program prog = ttaplus::programs::rectOverlap();
    api::TtaPipelineDesc desc("rtree");
    desc.decodeR({16, 4})          // query rect, overlap count
        .decodeI({4, 4, 8, 48})    // flags, childBase, pad, entries
        .decodeL({4, 4, 8, 48})
        .configI(&prog)
        .configL(&prog);
    desc.configTerminate(tta::TerminationConfig{});
    return api::TtaPipeline::create(desc);
}

RunMetrics
RTreeWorkload::runBaseline(const sim::Config &cfg, sim::StatRegistry &stats)
{
    gpu::Gpu device(cfg, stats);
    setup(device.memory());
    gpu::KernelProgram kernel = buildBaselineKernel();
    std::vector<uint32_t> params = {static_cast<uint32_t>(queryBase_),
                                    static_cast<uint32_t>(rootAddr_),
                                    static_cast<uint32_t>(resultBase_),
                                    static_cast<uint32_t>(stackBase_)};
    sim::Cycle cycles =
        device.runKernel(kernel, queries_.size(), params);
    captureResults(device.memory());
    size_t bad = verify(device.memory());
    panic_if(bad != 0, "baseline R-Tree kernel produced %zu mismatches",
             bad);
    return collectMetrics(stats, cycles, device.memsys().dramUtilization());
}

RunMetrics
RTreeWorkload::runAccelerated(const sim::Config &cfg,
                              sim::StatRegistry &stats)
{
    api::TtaDevice device(cfg, stats);
    setup(device.memory());
    RTreeSpec spec(device.memory(), rootAddr_, queryBase_, resultBase_);
    api::TtaPipeline pipeline = makePipeline();
    device.bindPipeline(pipeline, &spec);
    sim::Cycle cycles = device.cmdTraverseTree(queries_.size());
    captureResults(device.memory());
    size_t bad = verify(device.memory());
    panic_if(bad != 0, "accelerated R-Tree run produced %zu mismatches",
             bad);
    return collectMetrics(stats, cycles,
                          device.gpu().memsys().dramUtilization());
}

void
RTreeWorkload::captureResults(const mem::GlobalMemory &gmem)
{
    deviceResults_.resize(queries_.size());
    for (size_t q = 0; q < queries_.size(); ++q)
        deviceResults_[q] = gmem.read<uint32_t>(resultBase_ + 4 * q);
}

size_t
RTreeWorkload::verify(const mem::GlobalMemory &gmem) const
{
    size_t mismatches = 0;
    for (size_t q = 0; q < queries_.size(); ++q) {
        if (gmem.read<uint32_t>(resultBase_ + 4 * q) != expected_[q])
            ++mismatches;
    }
    return mismatches;
}

} // namespace tta::workloads
