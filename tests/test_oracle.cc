/**
 * @file
 * Differential-oracle tests: the cycle-level machine's answers, captured
 * from simulated memory after each run, are diffed against *independent*
 * reference implementations — brute-force loops and sorted-array
 * searches that share no code with the workloads' own verify paths or
 * the trees they serialize — across randomized trees and query sets.
 *
 * The BVH chain is closed in two links: (a) the host reference
 * (Bvh::traverse / RtScene::closestHit) is diffed against an exhaustive
 * all-primitives loop over many random trees and rays, and (b) a
 * cycle-level ray-tracing run verifies the device against that same
 * reference (RayTracingWorkload panics on any mismatch), so the device
 * is transitively checked against the brute force.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "geom/intersect.hh"
#include "sim/rng.hh"
#include "trees/bvh.hh"
#include "workloads/btree_workload.hh"
#include "workloads/raytracing_workload.hh"
#include "workloads/rtnn_workload.hh"
#include "workloads/rtree_workload.hh"

using namespace tta;
using namespace ::tta::workloads;

namespace {

sim::Config
modeConfig(sim::AccelMode mode)
{
    sim::Config cfg;
    cfg.accelMode = mode;
    return cfg;
}

/** Rotate through the accelerated hardware levels per seed. */
sim::AccelMode
pickMode(uint64_t seed)
{
    return (seed & 1) ? sim::AccelMode::Tta : sim::AccelMode::TtaPlus;
}

} // namespace

// --- B-Tree ----------------------------------------------------------------
//
// BTreeWorkload keys are, by contract, the even floats 2, 4, ..., 2*n
// (documented in its constructor), so std::binary_search over that
// sequence is a complete membership oracle that never touches
// trees::BTree.

namespace {

void
checkBTreeSeed(uint64_t seed, sim::AccelMode mode, bool baseline)
{
    size_t n_keys = 200 + seed % 173;
    trees::BTreeKind kind = static_cast<trees::BTreeKind>(seed % 3);
    BTreeWorkload wl(kind, n_keys, 64, seed * 7919 + 11, 0.5);

    sim::StatRegistry stats;
    if (baseline)
        wl.runBaseline(modeConfig(sim::AccelMode::BaselineGpu), stats);
    else
        wl.runAccelerated(modeConfig(mode), stats);

    std::vector<float> oracle_keys(n_keys);
    for (size_t i = 0; i < n_keys; ++i)
        oracle_keys[i] = 2.0f * static_cast<float>(i + 1);

    const auto &queries = wl.queries();
    const auto &device = wl.deviceResults();
    ASSERT_EQ(device.size(), queries.size()) << "seed " << seed;
    for (size_t q = 0; q < queries.size(); ++q) {
        uint32_t expect = std::binary_search(oracle_keys.begin(),
                                             oracle_keys.end(), queries[q])
                              ? 1u
                              : 0u;
        ASSERT_EQ(device[q], expect)
            << "seed " << seed << " query " << q << " key " << queries[q];
    }
}

} // namespace

TEST(OracleBTree, AcceleratedMatchesBinarySearch)
{
    for (uint64_t seed = 0; seed < 40; ++seed)
        checkBTreeSeed(seed, pickMode(seed), /*baseline=*/false);
}

TEST(OracleBTree, BaselineKernelMatchesBinarySearch)
{
    for (uint64_t seed = 100; seed < 110; ++seed)
        checkBTreeSeed(seed, sim::AccelMode::BaselineGpu,
                       /*baseline=*/true);
}

// --- R-Tree ----------------------------------------------------------------
//
// Oracle: a brute-force overlap count over the tree's flat object list
// (RTree::orderedObjects() is the leaf-major copy of the input set; the
// count is order-independent). No node, box or traversal logic shared.

namespace {

uint32_t
bruteForceOverlaps(const std::vector<trees::Rect2D> &objects,
                   const trees::Rect2D &query)
{
    uint32_t count = 0;
    for (const trees::Rect2D &object : objects)
        count += query.overlaps(object) ? 1u : 0u;
    return count;
}

void
checkRTreeSeed(uint64_t seed, sim::AccelMode mode, bool baseline)
{
    size_t n_objects = 150 + seed % 211;
    float extent = 1.0f + 0.25f * static_cast<float>(seed % 13);
    RTreeWorkload wl(n_objects, 32, extent, seed * 2654435761ull + 3);

    sim::StatRegistry stats;
    if (baseline)
        wl.runBaseline(modeConfig(sim::AccelMode::BaselineGpu), stats);
    else
        wl.runAccelerated(modeConfig(mode), stats);

    const auto &objects = wl.tree().orderedObjects();
    const auto &queries = wl.queries();
    const auto &device = wl.deviceResults();
    ASSERT_EQ(device.size(), queries.size()) << "seed " << seed;
    for (size_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(device[q], bruteForceOverlaps(objects, queries[q]))
            << "seed " << seed << " query " << q;
    }
}

} // namespace

TEST(OracleRTree, AcceleratedMatchesBruteForceCount)
{
    for (uint64_t seed = 0; seed < 30; ++seed)
        checkRTreeSeed(seed, pickMode(seed), /*baseline=*/false);
}

TEST(OracleRTree, BaselineKernelMatchesBruteForceCount)
{
    for (uint64_t seed = 100; seed < 105; ++seed)
        checkRTreeSeed(seed, sim::AccelMode::BaselineGpu,
                       /*baseline=*/true);
}

// --- BVH closest-hit -------------------------------------------------------

namespace {

struct SoupHit
{
    bool hit = false;
    float t = 0.0f;
    uint32_t prim = UINT32_MAX;
};

/** Closest hit over every triangle, no acceleration structure. */
SoupHit
bruteForceClosest(const std::vector<Triangle> &tris, const geom::Ray &ray)
{
    SoupHit best;
    geom::Ray r = ray;
    for (uint32_t i = 0; i < tris.size(); ++i) {
        auto h = geom::rayTriangle(r, tris[i].v0, tris[i].v1, tris[i].v2);
        if (h && h->t < r.tmax) {
            best = {true, h->t, i};
            r.tmax = h->t;
        }
    }
    return best;
}

/** Closest hit through the BVH, near-child-first with tmax pruning. */
SoupHit
bvhClosest(const trees::Bvh &bvh, const std::vector<Triangle> &tris,
           const geom::Ray &ray)
{
    SoupHit best;
    geom::Ray r = ray;
    bvh.traverse(r, [&](uint32_t id) {
        auto h = geom::rayTriangle(r, tris[id].v0, tris[id].v1,
                                   tris[id].v2);
        if (h && h->t < r.tmax) {
            best = {true, h->t, id};
            r.tmax = h->t;
        }
    });
    return best;
}

} // namespace

TEST(OracleBvh, TraversalMatchesBruteForceClosestHit)
{
    for (uint64_t seed = 0; seed < 100; ++seed) {
        sim::Rng rng(seed * 6364136223846793005ull + 1442695040888963407ull);
        size_t n_tris = 8 + rng.nextBounded(56);
        std::vector<Triangle> tris(n_tris);
        std::vector<geom::Aabb> boxes(n_tris);
        for (size_t i = 0; i < n_tris; ++i) {
            geom::Vec3 base{rng.uniform(-10.0f, 10.0f),
                            rng.uniform(-10.0f, 10.0f),
                            rng.uniform(-10.0f, 10.0f)};
            auto jitter = [&]() {
                return geom::Vec3{rng.uniform(-1.5f, 1.5f),
                                  rng.uniform(-1.5f, 1.5f),
                                  rng.uniform(-1.5f, 1.5f)};
            };
            tris[i] = {base, base + jitter(), base + jitter()};
            boxes[i].extend(tris[i].v0);
            boxes[i].extend(tris[i].v1);
            boxes[i].extend(tris[i].v2);
        }
        trees::Bvh bvh;
        bvh.build(boxes, 1 + rng.nextBounded(4));

        for (int q = 0; q < 20; ++q) {
            geom::Ray ray;
            ray.origin = {rng.uniform(-14.0f, 14.0f),
                          rng.uniform(-14.0f, 14.0f),
                          rng.uniform(-14.0f, 14.0f)};
            geom::Vec3 target{rng.uniform(-10.0f, 10.0f),
                              rng.uniform(-10.0f, 10.0f),
                              rng.uniform(-10.0f, 10.0f)};
            ray.dir = normalize(target - ray.origin);

            SoupHit brute = bruteForceClosest(tris, ray);
            SoupHit tree = bvhClosest(bvh, tris, ray);
            ASSERT_EQ(tree.hit, brute.hit) << "seed " << seed;
            if (brute.hit) {
                ASSERT_EQ(tree.prim, brute.prim) << "seed " << seed;
                ASSERT_FLOAT_EQ(tree.t, brute.t) << "seed " << seed;
            }
        }
    }
}

// The scene reference intersector — the oracle every cycle-level RT run
// is verified against — must itself match an exhaustive loop over the
// scene's primitives (instances unrolled, alpha mask applied, spheres
// included).
TEST(OracleBvh, SceneReferenceMatchesBruteForce)
{
    const SceneKind kinds[] = {SceneKind::CornellPt, SceneKind::SponzaAo,
                               SceneKind::ShipSh,    SceneKind::TeapotRf,
                               SceneKind::WkndPt,    SceneKind::MaskAm};
    for (SceneKind kind : kinds) {
        RtScene scene(kind, 3);
        const SceneGeometry &g = scene.geometry();
        sim::Rng rng(static_cast<uint64_t>(kind) * 977 + 5);

        auto brute = [&](const geom::Ray &ray) -> RtHit {
            RtHit best;
            geom::Ray r = ray;
            if (g.isSphereScene()) {
                for (uint32_t i = 0; i < g.spheres.size(); ++i) {
                    auto t = geom::raySphere(r, g.spheres[i].first,
                                             g.spheres[i].second);
                    if (t && *t < r.tmax) {
                        best = {true, *t, i, 0};
                        r.tmax = *t;
                    }
                }
                return best;
            }
            auto mesh_loop = [&](uint32_t mesh_id, geom::Ray &mr,
                                 uint32_t inst) {
                const auto &m = g.meshes[mesh_id];
                for (uint32_t i = 0; i < m.triangles.size(); ++i) {
                    auto h = geom::rayTriangle(mr, m.triangles[i].v0,
                                               m.triangles[i].v1,
                                               m.triangles[i].v2);
                    if (!h)
                        continue;
                    if (m.alpha[i] && !RtScene::alphaPass(mesh_id, i))
                        continue;
                    best = {true, h->t, i, inst};
                    mr.tmax = h->t;
                }
            };
            if (!g.twoLevel()) {
                mesh_loop(0, r, 0);
                return best;
            }
            for (size_t i = 0; i < g.instances.size(); ++i) {
                const auto &inst = g.instances[i];
                geom::Ray obj;
                obj.origin = trees::transformPoint(inst.worldToObject,
                                                   r.origin);
                obj.dir = trees::transformDir(inst.worldToObject, r.dir);
                obj.tmin = r.tmin;
                obj.tmax = r.tmax;
                mesh_loop(inst.mesh, obj, static_cast<uint32_t>(i));
                r.tmax = obj.tmax;
            }
            return best;
        };

        for (int q = 0; q < 50; ++q) {
            geom::Ray ray;
            ray.origin = g.cameraPos +
                         geom::Vec3{rng.uniform(-0.5f, 0.5f),
                                    rng.uniform(-0.5f, 0.5f),
                                    rng.uniform(-0.5f, 0.5f)};
            geom::Vec3 target =
                g.cameraTarget + geom::Vec3{rng.uniform(-3.0f, 3.0f),
                                            rng.uniform(-3.0f, 3.0f),
                                            rng.uniform(-3.0f, 3.0f)};
            ray.dir = normalize(target - ray.origin);

            RtHit ref = scene.closestHit(ray);
            RtHit exhaustive = brute(ray);
            ASSERT_EQ(ref.hit, exhaustive.hit)
                << sceneName(kind) << " ray " << q;
            if (ref.hit) {
                ASSERT_EQ(ref.prim, exhaustive.prim)
                    << sceneName(kind) << " ray " << q;
                ASSERT_EQ(ref.instance, exhaustive.instance)
                    << sceneName(kind) << " ray " << q;
                ASSERT_FLOAT_EQ(ref.t, exhaustive.t)
                    << sceneName(kind) << " ray " << q;
            }
        }
    }
}

// Closes the chain: the cycle-level device is verified ray-by-ray
// against RtScene::closestHit inside runAccelerated (panic on any
// mismatch), and closestHit matches the brute force above.
TEST(OracleBvh, CycleLevelDeviceMatchesReference)
{
    RayTracingWorkload wl(SceneKind::CornellPt, 16, 16, 3);
    sim::StatRegistry stats;
    RunMetrics m =
        wl.runAccelerated(modeConfig(sim::AccelMode::TtaPlus), stats);
    EXPECT_GT(m.cycles, 0u);
    EXPECT_GT(m.nodesVisited, 0u);
}

// --- Wide SoA BVH ----------------------------------------------------------
//
// The wide node layouts must be pure layout changes: every width, with
// and without the quantized encoding, answers queries identically to
// the binary tree. Quantized boxes are conservative (decoded planes
// never cut inside the exact box), so they may only widen the candidate
// set; the exact tests applied at the leaves keep the results equal.

namespace {

/** Closest hit through a WideBvh, mirroring bvhClosest above. */
SoupHit
wideClosest(const trees::WideBvh &wide, const std::vector<Triangle> &tris,
            const geom::Ray &ray)
{
    SoupHit best;
    geom::Ray r = ray;
    wide.traverse(r, [&](uint32_t id) {
        auto h = geom::rayTriangle(r, tris[id].v0, tris[id].v1,
                                   tris[id].v2);
        if (h && h->t < r.tmax) {
            best = {true, h->t, id};
            r.tmax = h->t;
        }
    });
    return best;
}

struct WideVariant
{
    uint32_t width;
    bool quantized;
};

constexpr WideVariant kWideVariants[] = {
    {4, false}, {8, false}, {4, true}, {8, true}};

} // namespace

TEST(OracleWideBvh, ClosestHitMatchesBinaryTree)
{
    for (uint64_t seed = 0; seed < 60; ++seed) {
        sim::Rng rng(seed * 2862933555777941757ull + 3037000493ull);
        size_t n_tris = 8 + rng.nextBounded(88);
        std::vector<Triangle> tris(n_tris);
        std::vector<geom::Aabb> boxes(n_tris);
        for (size_t i = 0; i < n_tris; ++i) {
            geom::Vec3 base{rng.uniform(-10.0f, 10.0f),
                            rng.uniform(-10.0f, 10.0f),
                            rng.uniform(-10.0f, 10.0f)};
            auto jitter = [&]() {
                return geom::Vec3{rng.uniform(-1.5f, 1.5f),
                                  rng.uniform(-1.5f, 1.5f),
                                  rng.uniform(-1.5f, 1.5f)};
            };
            tris[i] = {base, base + jitter(), base + jitter()};
            boxes[i].extend(tris[i].v0);
            boxes[i].extend(tris[i].v1);
            boxes[i].extend(tris[i].v2);
        }
        trees::Bvh bvh;
        bvh.build(boxes, 1 + rng.nextBounded(4));

        trees::WideBvh wides[std::size(kWideVariants)];
        for (size_t v = 0; v < std::size(kWideVariants); ++v)
            wides[v].build(bvh, kWideVariants[v].width,
                           kWideVariants[v].quantized);

        for (int q = 0; q < 10; ++q) {
            geom::Ray ray;
            ray.origin = {rng.uniform(-14.0f, 14.0f),
                          rng.uniform(-14.0f, 14.0f),
                          rng.uniform(-14.0f, 14.0f)};
            geom::Vec3 target{rng.uniform(-10.0f, 10.0f),
                              rng.uniform(-10.0f, 10.0f),
                              rng.uniform(-10.0f, 10.0f)};
            ray.dir = normalize(target - ray.origin);

            SoupHit bin = bvhClosest(bvh, tris, ray);
            for (size_t v = 0; v < std::size(kWideVariants); ++v) {
                SoupHit w = wideClosest(wides[v], tris, ray);
                ASSERT_EQ(w.hit, bin.hit)
                    << "seed " << seed << " width "
                    << kWideVariants[v].width
                    << (kWideVariants[v].quantized ? " quantized" : "");
                if (bin.hit) {
                    ASSERT_EQ(w.prim, bin.prim)
                        << "seed " << seed << " width "
                        << kWideVariants[v].width;
                    ASSERT_FLOAT_EQ(w.t, bin.t)
                        << "seed " << seed << " width "
                        << kWideVariants[v].width;
                }
            }
        }
    }
}

TEST(OracleWideBvh, RadiusQueryMatchesBinaryTree)
{
    for (uint64_t seed = 0; seed < 60; ++seed) {
        sim::Rng rng(seed * 6364136223846793005ull + 97531);
        size_t n_pts = 16 + rng.nextBounded(120);
        std::vector<geom::Vec3> pts(n_pts);
        std::vector<geom::Aabb> boxes(n_pts);
        for (size_t i = 0; i < n_pts; ++i) {
            pts[i] = {rng.uniform(-20.0f, 20.0f),
                      rng.uniform(-20.0f, 20.0f),
                      rng.uniform(-20.0f, 20.0f)};
            boxes[i].extend(pts[i]);
        }
        trees::Bvh bvh;
        bvh.build(boxes, 1 + rng.nextBounded(4));

        trees::WideBvh wides[std::size(kWideVariants)];
        for (size_t v = 0; v < std::size(kWideVariants); ++v)
            wides[v].build(bvh, kWideVariants[v].width,
                           kWideVariants[v].quantized);

        for (int q = 0; q < 8; ++q) {
            geom::Vec3 query{rng.uniform(-22.0f, 22.0f),
                             rng.uniform(-22.0f, 22.0f),
                             rng.uniform(-22.0f, 22.0f)};
            float radius = rng.uniform(1.0f, 6.0f);
            // The exact leaf predicate filters the (possibly wider)
            // candidate set down to the same answer on every layout.
            auto exact = [&](const trees::Bvh *b,
                             const trees::WideBvh *w) {
                std::vector<uint32_t> ids;
                auto leaf = [&](uint32_t id) {
                    if (geom::pointWithinRadius(query, pts[id], radius))
                        ids.push_back(id);
                };
                if (b)
                    b->pointQuery(query, radius, leaf);
                else
                    w->pointQuery(query, radius, leaf);
                std::sort(ids.begin(), ids.end());
                return ids;
            };
            std::vector<uint32_t> bin = exact(&bvh, nullptr);
            for (size_t v = 0; v < std::size(kWideVariants); ++v) {
                ASSERT_EQ(exact(nullptr, &wides[v]), bin)
                    << "seed " << seed << " width "
                    << kWideVariants[v].width
                    << (kWideVariants[v].quantized ? " quantized" : "");
            }
        }
    }
}

// Cycle-level device runs on the wide layouts: RtnnWorkload::verify
// panics on any divergence from the host brute-force expectation, so a
// completing run proves the serialized wide nodes decode to the same
// answers the binary layout gives.
TEST(OracleWideBvh, DeviceWideRtnnMatchesExpected)
{
    const WideVariant device_variants[] = {{4, false}, {8, false},
                                           {4, true}};
    for (const auto &variant : device_variants) {
        RtnnWorkload wl(1200, 32, 1.0f, 11);
        sim::Config cfg = modeConfig(sim::AccelMode::Tta);
        cfg.bvhNodeWidth = variant.width;
        cfg.bvhQuantized = variant.quantized;
        sim::StatRegistry stats;
        RunMetrics m = wl.runAccelerated(cfg, stats, true);
        EXPECT_GT(m.cycles, 0u) << "width " << variant.width;
        EXPECT_GT(m.nodeBytesFetched, 0u) << "width " << variant.width;
    }
}
