#include "workloads/rtnn_workload.hh"

#include <cstring>

#include "geom/intersect.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace tta::workloads {

using trees::BvhLeafLayout;
using trees::BvhNodeLayout;
using trees::BvhRef;
using trees::PointLayout;

namespace {

constexpr uint32_t kStackBytesPerWarp = 8192; //!< 64 levels x 128B

/** Cover [base, base+bytes) with 128B line addresses. */
void
coverLines(uint64_t base, uint64_t bytes, std::vector<uint64_t> &lines)
{
    uint64_t first = base & ~127ull;
    uint64_t last = (base + bytes - 1) & ~127ull;
    for (uint64_t line = first; line <= last; line += 128)
        lines.push_back(line);
}

} // namespace

RtnnSpec::RtnnSpec(mem::GlobalMemory &gmem,
                   const trees::SerializedBvh &sbvh, uint64_t point_base,
                   uint64_t query_base, uint64_t result_base, float radius,
                   bool offload_leaf)
    : gmem_(&gmem), root_(sbvh.root), nodeWidth_(sbvh.nodeWidth),
      nodeStride_(sbvh.nodeStride), quantized_(sbvh.quantized),
      pointBase_(point_base), queryBase_(query_base),
      resultBase_(result_base), radius_(radius),
      offloadLeaf_(offload_leaf),
      innerProg_(ttaplus::programs::rayBoxInner()),
      leafProg_(ttaplus::programs::rtnnPointDistLeaf())
{
}

void
RtnnSpec::initRay(rta::RayState &ray, uint32_t lane_operand)
{
    ray.queryId = lane_operand;
    uint64_t addr = queryBase_ +
        static_cast<uint64_t>(lane_operand) * PointLayout::kPointBytes;
    ray.point = {gmem_->read<float>(addr + 0), gmem_->read<float>(addr + 4),
                 gmem_->read<float>(addr + 8)};
    ray.hitCount = 0;
    ray.stack.push_back(root_.raw);
}

void
RtnnSpec::fetchLines(const rta::RayState & /*ray*/, rta::NodeRef ref,
                     std::vector<uint64_t> &lines) const
{
    BvhRef bref{static_cast<uint32_t>(ref)};
    if (!bref.isLeaf()) {
        if (nodeWidth_ > 2) {
            // Wide nodes span nodeStride_ bytes: the cache hierarchy
            // must see the full footprint of the fetch.
            coverLines(bref.addr(), nodeStride_, lines);
        } else {
            lines.push_back(bref.addr() & ~127ull);
        }
        return;
    }
    uint64_t leaf = bref.addr();
    uint32_t count = gmem_->read<uint32_t>(leaf + BvhLeafLayout::kOffCount);
    coverLines(leaf, 4 + 4ull * count, lines);
    for (uint32_t i = 0; i < count; ++i) {
        uint32_t id = gmem_->read<uint32_t>(
            leaf + BvhLeafLayout::kOffPrims + 4 * i);
        lines.push_back((pointBase_ +
                         static_cast<uint64_t>(id) *
                             PointLayout::kPointBytes) & ~127ull);
    }
}

rta::NodeOutcome
RtnnSpec::processNode(rta::RayState &ray, rta::NodeRef ref)
{
    using L = BvhNodeLayout;
    BvhRef bref{static_cast<uint32_t>(ref)};
    rta::NodeOutcome out;

    if (bref.isLeaf()) {
        uint64_t leaf = bref.addr();
        uint32_t count =
            gmem_->read<uint32_t>(leaf + BvhLeafLayout::kOffCount);
        for (uint32_t i = 0; i < count; ++i) {
            uint32_t id = gmem_->read<uint32_t>(
                leaf + BvhLeafLayout::kOffPrims + 4 * i);
            uint64_t paddr = pointBase_ +
                static_cast<uint64_t>(id) * PointLayout::kPointBytes;
            geom::Vec3 p = {gmem_->read<float>(paddr + 0),
                            gmem_->read<float>(paddr + 4),
                            gmem_->read<float>(paddr + 8)};
            if (geom::pointWithinRadius(ray.point, p, radius_))
                ++ray.hitCount;
        }
        out.isLeaf = true;
        out.opCount = std::max(1u, count);
        if (offloadLeaf_) {
            // *RTNN: Point-to-Point distance on the accelerator.
            out.op = rta::OpKind::PointDist;
        } else {
            // Baseline RTNN: ray-sphere intersection shader on the SM.
            out.op = rta::OpKind::RaySphere;
            out.useShader = true;
        }
        return out;
    }

    uint64_t node = bref.addr();
    if (nodeWidth_ > 2)
        return processWideInner(ray, node);
    auto read_box = [&](uint32_t lo_off, uint32_t hi_off) {
        geom::Aabb box;
        box.lo = {gmem_->read<float>(node + lo_off + 0),
                  gmem_->read<float>(node + lo_off + 4),
                  gmem_->read<float>(node + lo_off + 8)};
        box.hi = {gmem_->read<float>(node + hi_off + 0),
                  gmem_->read<float>(node + hi_off + 4),
                  gmem_->read<float>(node + hi_off + 8)};
        return box;
    };
    geom::Aabb left_box = read_box(L::kOffLoL, L::kOffHiL);
    geom::Aabb right_box = read_box(L::kOffLoR, L::kOffHiR);
    BvhRef left{gmem_->read<uint32_t>(node + L::kOffLeft)};
    BvhRef right{gmem_->read<uint32_t>(node + L::kOffRight)};

    // The RTNN "ray" is a point: the Ray-Box test degenerates to
    // point-in-box against the radius-inflated child boxes.
    if (left.valid() && left_box.contains(ray.point))
        ray.stack.push_back(left.raw);
    if (right.valid() && right_box.contains(ray.point))
        ray.stack.push_back(right.raw);
    out.op = rta::OpKind::RayBox;
    out.isLeaf = false;
    return out;
}

/**
 * Wide SoA inner node: one batched point-in-box test over all children.
 * Children pack from lane 0; the first zero ref terminates the list.
 * The node costs width/2 invocations of the two-box intersection unit.
 */
rta::NodeOutcome
RtnnSpec::processWideInner(rta::RayState &ray, uint64_t node)
{
    using W = trees::WideBvhNodeLayout;
    unsigned char buf[256];
    gmem_->readBytes(node, buf, nodeStride_);

    uint32_t refs_off = W::refsOffset(nodeWidth_, quantized_);
    uint32_t refs[8] = {};
    uint32_t count = 0;
    for (uint32_t i = 0; i < nodeWidth_; ++i) {
        std::memcpy(&refs[i], buf + refs_off + 4 * i, 4);
        if (refs[i] == 0)
            break;
        ++count;
    }

    geom::WideBoxes boxes{}; // the batch test reads all 8 lanes
    if (!quantized_) {
        float *planes[6] = {boxes.lox, boxes.loy, boxes.loz,
                            boxes.hix, boxes.hiy, boxes.hiz};
        for (uint32_t a = 0; a < 6; ++a) {
            std::memcpy(planes[a], buf + W::kOffLoX + a * nodeWidth_ * 4,
                        nodeWidth_ * 4);
        }
    } else {
        float plo[3];
        float phi[3];
        std::memcpy(plo, buf + W::kOffParentLo, 12);
        std::memcpy(phi, buf + W::kOffParentHi, 12);
        float *lo_planes[3] = {boxes.lox, boxes.loy, boxes.loz};
        float *hi_planes[3] = {boxes.hix, boxes.hiy, boxes.hiz};
        for (int a = 0; a < 3; ++a) {
            float scale = trees::wideQuantScale(plo[a], phi[a]);
            const unsigned char *qlo =
                buf + W::kOffQuant + a * nodeWidth_;
            const unsigned char *qhi =
                buf + W::kOffQuant + (3 + a) * nodeWidth_;
            for (uint32_t i = 0; i < count; ++i) {
                lo_planes[a][i] =
                    trees::wideQuantDecodeLo(plo[a], scale, qlo[i]);
                hi_planes[a][i] =
                    trees::wideQuantDecodeHi(phi[a], scale, qhi[i]);
            }
        }
    }

    uint32_t mask = geom::pointInBoxBatch(ray.point, boxes,
                                          static_cast<int>(count));
    for (uint32_t i = 0; i < count; ++i) {
        if (mask & (1u << i))
            ray.stack.push_back(refs[i]);
    }

    rta::NodeOutcome out;
    out.op = rta::OpKind::RayBox;
    out.isLeaf = false;
    out.opCount = nodeWidth_ / 2;
    return out;
}

void
RtnnSpec::finishRay(rta::RayState &ray)
{
    gmem_->write<uint32_t>(resultBase_ + 4ull * ray.queryId, ray.hitCount);
}

RadiusInputs::RadiusInputs(size_t n_points, size_t n_queries,
                           float radius, uint64_t seed)
    : cloud(trees::PointCloud::generateLidarLike(n_points, seed)),
      index(std::make_unique<trees::RadiusSearchIndex>(cloud, radius))
{
    sim::Rng rng(seed ^ 0x9e3779b9ull);
    pool.reserve(n_queries);
    for (size_t q = 0; q < n_queries; ++q) {
        if (rng.nextFloat() < 0.7f) {
            // Jittered cloud point: dense-region queries.
            const geom::Vec3 &p =
                cloud.points[rng.nextBounded(cloud.points.size())];
            pool.push_back({p.x + 0.3f * rng.gaussian(),
                            p.y + 0.3f * rng.gaussian(),
                            p.z + 0.1f * rng.gaussian()});
        } else {
            pool.push_back({rng.uniform(-80.0f, 80.0f),
                            rng.uniform(-80.0f, 80.0f),
                            rng.uniform(0.0f, 6.0f)});
        }
    }
    expected.reserve(n_queries);
    for (const auto &q : pool)
        expected.push_back(static_cast<uint32_t>(index->query(q).size()));
}

RadiusLanes
RadiusLanes::alloc(mem::GlobalMemory &gmem, size_t n)
{
    RadiusLanes lanes;
    lanes.queryBase = gmem.alloc(n * PointLayout::kPointBytes, 128);
    lanes.resultBase = gmem.alloc(n * 4, 128);
    return lanes;
}

RtnnWorkload::RtnnWorkload(size_t n_points, size_t n_queries, float radius,
                           uint64_t seed)
    : in_(n_points, n_queries, radius, seed)
{
}

void
RtnnWorkload::setup(mem::GlobalMemory &gmem, const sim::Config &cfg)
{
    if (cfg.bvhNodeWidth > 2) {
        trees::WideBvh wide;
        wide.build(in_.index->bvh(), cfg.bvhNodeWidth, cfg.bvhQuantized);
        sbvh_ = wide.serialize(gmem);
    } else {
        sbvh_ = in_.index->bvh().serialize(gmem);
    }
    pointBase_ = in_.cloud.serialize(gmem);
    lanes_ = RadiusLanes::alloc(gmem, numQueries());
    size_t warps = (numQueries() + 31) / 32;
    stackBase_ = gmem.alloc(warps * kStackBytesPerWarp, 128);
    for (size_t q = 0; q < numQueries(); ++q)
        lanes_.stage(gmem, q, in_.pool[q]);
}

gpu::KernelProgram
RtnnWorkload::buildBaselineKernel()
{
    using namespace ::tta::gpu;
    using L = BvhNodeLayout;
    KernelBuilder b("rtnn_radius_search_baseline");
    // Params: 0 queryBase, 1 rootRef, 2 radius^2, 3 stackBase,
    //         4 pointBase, 5 resultBase.
    b.tid(1);
    b.param(22, 0);
    b.ishli(23, 1, 4);
    b.iadd(22, 22, 23);
    b.loadVec3(4, 22, 0); // q
    b.movi(7, 0);         // neighbor count
    b.param(8, 2);        // radius^2
    // CUDA-local-memory-style interleaved per-thread stack:
    // addr = stackBase + warpId*8K + sp*128 + lane*4 (lane-adjacent
    // entries share a line, so uniform-depth pushes coalesce).
    b.param(2, 3);
    b.ishri(23, 1, 5);
    b.ishli(23, 23, 13);
    b.iadd(2, 2, 23);
    b.movi(24, 31);
    b.iand(25, 1, 24);
    b.ishli(25, 25, 2);
    b.iadd(2, 2, 25);
    b.param(26, 1);
    b.store(2, 26, 0); // push root
    b.movi(3, 1);      // sp = 1

    b.doWhile([&]() -> Reg {
        b.iaddi(3, 3, -1);
        b.ishli(11, 3, 7);
        b.iadd(11, 2, 11);
        b.load(10, 11, 0); // ref
        b.movi(24, 1);
        b.iand(12, 10, 24); // leaf?
        b.movi(24, ~3);
        b.iand(13, 10, 24); // address

        b.ifThenElse(
            12,
            [&]() { // leaf: exact distance tests (Algorithm 2)
                b.load(20, 13, 0); // prim count
                b.movi(21, 0);
                b.doWhile([&]() -> Reg {
                    b.ishli(22, 21, 2);
                    b.iadd(22, 13, 22);
                    b.load(23, 22, 4); // point id
                    b.param(24, 4);
                    b.ishli(23, 23, 4);
                    b.iadd(23, 24, 23);
                    b.loadVec3(14, 23, 0);
                    b.vsub(14, 14, 4);
                    b.vdot(18, 14, 14, 17); // d2
                    b.setltf(19, 18, 8);
                    b.iadd(7, 7, 19); // predicated count
                    b.iaddi(21, 21, 1);
                    b.setlti(31, 21, 20);
                    return 31;
                });
            },
            [&]() { // inner: point-in-box on both (inflated) child boxes
                auto test_child = [&](uint32_t lo_off, uint32_t hi_off,
                                      uint32_t ref_off) {
                    b.loadVec3(14, 13, static_cast<int32_t>(lo_off));
                    b.setlef(22, 14, 4);
                    b.setlef(23, 15, 5);
                    b.iand(22, 22, 23);
                    b.setlef(23, 16, 6);
                    b.iand(22, 22, 23);
                    b.loadVec3(14, 13, static_cast<int32_t>(hi_off));
                    b.setlef(23, 4, 14);
                    b.iand(22, 22, 23);
                    b.setlef(23, 5, 15);
                    b.iand(22, 22, 23);
                    b.setlef(23, 6, 16);
                    b.iand(22, 22, 23);
                    b.load(24, 13, static_cast<int32_t>(ref_off));
                    b.movi(25, 0);
                    b.setnei(25, 24, 25); // valid child
                    b.iand(22, 22, 25);
                    b.ifThen(22, [&]() {
                        b.ishli(11, 3, 7);
                        b.iadd(11, 2, 11);
                        b.store(11, 24, 0);
                        b.iaddi(3, 3, 1);
                    });
                };
                test_child(L::kOffLoL, L::kOffHiL, L::kOffLeft);
                test_child(L::kOffLoR, L::kOffHiR, L::kOffRight);
            });
        b.movi(24, 0);
        b.setlti(31, 24, 3); // while sp > 0
        return 31;
    });

    b.param(26, 5);
    b.ishli(23, 1, 2);
    b.iadd(26, 26, 23);
    b.store(26, 7, 0);
    b.exit();
    return b.build();
}

api::TtaPipeline
RtnnWorkload::makePipeline(bool offload_leaf)
{
    static const ttaplus::Program inner = ttaplus::programs::rayBoxInner();
    static const ttaplus::Program leaf =
        ttaplus::programs::rtnnPointDistLeaf();
    api::TtaPipelineDesc desc(offload_leaf ? "rtnn.offloaded" : "rtnn");
    desc.decodeR({12, 4})          // query point, neighbor count
        .decodeI({12, 12, 12, 12, 4, 4}) // two child boxes + refs
        .decodeL({4, 12, 12, 12})  // count + up to 3 inline points
        .configI(&inner)
        .configL(&leaf);
    desc.configTerminate(tta::TerminationConfig{});
    return api::TtaPipeline::create(desc);
}

RunMetrics
RtnnWorkload::runBaseline(const sim::Config &cfg, sim::StatRegistry &stats)
{
    panic_if(cfg.bvhNodeWidth > 2,
             "the baseline SIMT kernel traverses the binary node layout "
             "(bvhNodeWidth = %u)",
             cfg.bvhNodeWidth);
    gpu::Gpu device(cfg, stats);
    setup(device.memory(), cfg);
    gpu::KernelProgram kernel = buildBaselineKernel();
    float r2 = in_.index->radius() * in_.index->radius();
    uint32_t r2_bits;
    std::memcpy(&r2_bits, &r2, sizeof(r2_bits));
    std::vector<uint32_t> params = {
        static_cast<uint32_t>(lanes_.queryBase),
        sbvh_.root.raw,
        r2_bits,
        static_cast<uint32_t>(stackBase_),
        static_cast<uint32_t>(pointBase_),
        static_cast<uint32_t>(lanes_.resultBase)};
    sim::Cycle cycles = device.runKernel(kernel, numQueries(), params);
    size_t bad = verify(device.memory());
    panic_if(bad != 0, "baseline RTNN kernel produced %zu mismatches",
             bad);
    return collectMetrics(stats, cycles, device.memsys().dramUtilization());
}

RunMetrics
RtnnWorkload::runAccelerated(const sim::Config &cfg,
                             sim::StatRegistry &stats, bool offload_leaf)
{
    api::TtaDevice device(cfg, stats);
    setup(device.memory(), cfg);
    RtnnSpec spec(device.memory(), sbvh_, pointBase_, lanes_.queryBase,
                  lanes_.resultBase, in_.index->radius(), offload_leaf);
    api::TtaPipeline pipeline = makePipeline(offload_leaf);
    device.bindPipeline(pipeline, &spec);
    sim::Cycle cycles = device.cmdTraverseTree(numQueries());
    size_t bad = verify(device.memory());
    panic_if(bad != 0, "accelerated RTNN run produced %zu mismatches",
             bad);
    return collectMetrics(stats, cycles,
                          device.gpu().memsys().dramUtilization());
}

size_t
RtnnWorkload::verify(const mem::GlobalMemory &gmem) const
{
    return lanes_.mismatches(gmem, numQueries(),
                             [this](size_t q) { return in_.expected[q]; });
}

} // namespace tta::workloads
