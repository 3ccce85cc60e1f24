#include "workloads/raytracing_workload.hh"

#include <cmath>

#include "geom/intersect.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace tta::workloads {

using geom::Ray;
using geom::Vec3;
using trees::BvhLeafLayout;
using trees::BvhNodeLayout;
using trees::BvhRef;

namespace {

constexpr uint32_t kTriStride = 48;    //!< 9 floats + padding
constexpr uint32_t kSphereStride = 16; //!< center + radius
constexpr uint32_t kInstanceStride = 64;
constexpr uint32_t kRayStride = 32;    //!< origin, dir, tmin, tmax
constexpr float kRayEpsilon = 1e-3f;

void
coverLines(uint64_t base, uint64_t bytes, std::vector<uint64_t> &lines)
{
    uint64_t first = base & ~127ull;
    uint64_t last = (base + bytes - 1) & ~127ull;
    for (uint64_t line = first; line <= last; line += 128)
        lines.push_back(line);
}

/** Deterministic per-ray hash for bounce/AO directions. */
uint32_t
hash32(uint32_t x)
{
    x ^= x >> 16;
    x *= 0x7feb352du;
    x ^= x >> 15;
    x *= 0x846ca68bu;
    x ^= x >> 16;
    return x;
}

Vec3
hashDirection(uint32_t seed)
{
    uint32_t a = hash32(seed);
    uint32_t b = hash32(seed ^ 0xdeadbeefu);
    float u = (a & 0xffff) / 65535.0f;
    float v = (b & 0xffff) / 65535.0f;
    float z = 2.0f * u - 1.0f;
    float r = std::sqrt(std::max(0.0f, 1.0f - z * z));
    float phi = 6.2831853f * v;
    return {r * std::cos(phi), r * std::sin(phi), z};
}

Vec3
reflect(const Vec3 &d, const Vec3 &n)
{
    return d - n * (2.0f * geom::dot(d, n));
}

} // namespace

// ---------------------------------------------------------------------------
// RtScene
// ---------------------------------------------------------------------------

RtScene::RtScene(SceneKind kind, uint64_t seed)
    : kind_(kind), geometry_(makeScene(kind, seed))
{
    if (geometry_.isSphereScene()) {
        std::vector<geom::Aabb> boxes;
        for (const auto &[c, r] : geometry_.spheres)
            boxes.emplace_back(c - Vec3(r, r, r), c + Vec3(r, r, r));
        meshBvhs_.emplace_back();
        meshBvhs_.back().build(boxes, 2);
        return;
    }
    for (const auto &mesh : geometry_.meshes) {
        std::vector<geom::Aabb> boxes;
        boxes.reserve(mesh.triangles.size());
        for (const auto &tri : mesh.triangles) {
            geom::Aabb box;
            box.extend(tri.v0);
            box.extend(tri.v1);
            box.extend(tri.v2);
            boxes.push_back(box);
        }
        meshBvhs_.emplace_back();
        meshBvhs_.back().build(boxes, 2);
    }
    if (geometry_.twoLevel()) {
        std::vector<geom::Aabb> inst_boxes;
        for (const auto &inst : geometry_.instances) {
            const geom::Aabb &obj =
                meshBvhs_[inst.mesh].worldBox();
            geom::Aabb world;
            for (int corner = 0; corner < 8; ++corner) {
                Vec3 p = {corner & 1 ? obj.hi.x : obj.lo.x,
                          corner & 2 ? obj.hi.y : obj.lo.y,
                          corner & 4 ? obj.hi.z : obj.lo.z};
                world.extend(
                    trees::transformPoint(inst.objectToWorld, p));
            }
            inst_boxes.push_back(world);
        }
        tlas_ = std::make_unique<trees::Bvh>();
        tlas_->build(inst_boxes, 1);
    }
}

RtSceneImage
RtScene::serialize(mem::GlobalMemory &gmem) const
{
    RtSceneImage img;
    if (geometry_.isSphereScene()) {
        img.sphereBase =
            gmem.alloc(geometry_.spheres.size() * kSphereStride, 128);
        for (size_t i = 0; i < geometry_.spheres.size(); ++i) {
            uint64_t addr = img.sphereBase + i * kSphereStride;
            gmem.write<float>(addr + 0, geometry_.spheres[i].first.x);
            gmem.write<float>(addr + 4, geometry_.spheres[i].first.y);
            gmem.write<float>(addr + 8, geometry_.spheres[i].first.z);
            gmem.write<float>(addr + 12, geometry_.spheres[i].second);
        }
        img.root = meshBvhs_[0].serialize(gmem).root.raw;
        return img;
    }

    std::vector<uint32_t> blas_roots;
    for (size_t m = 0; m < geometry_.meshes.size(); ++m) {
        blas_roots.push_back(meshBvhs_[m].serialize(gmem).root.raw);
        const auto &tris = geometry_.meshes[m].triangles;
        uint64_t tri_base = gmem.alloc(tris.size() * kTriStride, 128);
        for (size_t t = 0; t < tris.size(); ++t) {
            uint64_t addr = tri_base + t * kTriStride;
            const Vec3 *verts[3] = {&tris[t].v0, &tris[t].v1, &tris[t].v2};
            for (int v = 0; v < 3; ++v) {
                gmem.write<float>(addr + 12 * v + 0, verts[v]->x);
                gmem.write<float>(addr + 12 * v + 4, verts[v]->y);
                gmem.write<float>(addr + 12 * v + 8, verts[v]->z);
            }
        }
        img.triBase.push_back(tri_base);
    }

    if (!geometry_.twoLevel()) {
        img.root = blas_roots[0];
        return img;
    }
    img.instanceBase =
        gmem.alloc(geometry_.instances.size() * kInstanceStride, 128);
    for (size_t i = 0; i < geometry_.instances.size(); ++i) {
        const auto &inst = geometry_.instances[i];
        uint64_t addr = img.instanceBase + i * kInstanceStride;
        for (int k = 0; k < 12; ++k)
            gmem.write<float>(addr + 4 * k, inst.worldToObject[k]);
        gmem.write<uint32_t>(addr + 48, blas_roots[inst.mesh]);
        gmem.write<uint32_t>(addr + 52, inst.mesh);
    }
    img.root = tlas_->serialize(gmem).root.raw;
    return img;
}

bool
RtScene::alphaPass(uint32_t mesh, uint32_t prim)
{
    return ((prim ^ (mesh * 7919u)) * 0x9E3779B1u >> 8) & 1;
}

RtHit
RtScene::closestHit(const Ray &ray) const
{
    RtHit best;
    if (geometry_.isSphereScene()) {
        Ray r = ray;
        meshBvhs_[0].traverse(r, [&](uint32_t id) {
            auto t = geom::raySphere(r, geometry_.spheres[id].first,
                                     geometry_.spheres[id].second);
            if (t && *t < r.tmax) {
                best = {true, *t, id, 0};
                r.tmax = *t;
            }
        });
        return best;
    }
    auto trace_mesh = [&](uint32_t mesh_id, Ray &r, uint32_t inst_id) {
        const auto &tris = geometry_.meshes[mesh_id].triangles;
        const auto &alpha = geometry_.meshes[mesh_id].alpha;
        meshBvhs_[mesh_id].traverse(r, [&](uint32_t id) {
            auto hit = geom::rayTriangle(r, tris[id].v0, tris[id].v1,
                                         tris[id].v2);
            if (!hit)
                return;
            if (alpha[id] && !alphaPass(mesh_id, id))
                return;
            best = {true, hit->t, id, inst_id};
            r.tmax = hit->t;
        });
    };
    if (!geometry_.twoLevel()) {
        Ray r = ray;
        trace_mesh(0, r, 0);
        return best;
    }
    Ray world = ray;
    for (size_t i = 0; i < geometry_.instances.size(); ++i) {
        const auto &inst = geometry_.instances[i];
        Ray obj;
        obj.origin = trees::transformPoint(inst.worldToObject,
                                           world.origin);
        obj.dir = trees::transformDir(inst.worldToObject, world.dir);
        obj.tmin = world.tmin;
        obj.tmax = world.tmax;
        trace_mesh(inst.mesh, obj, static_cast<uint32_t>(i));
        world.tmax = obj.tmax; // t is affine-consistent
    }
    return best;
}

RtHit
RtScene::reference(const RtRay &r) const
{
    if (!r.anyHit)
        return closestHit(r.ray);
    RtHit h;
    h.hit = closestHit(r.ray).hit;
    return h;
}

// ---------------------------------------------------------------------------
// PinholeCamera, RayLanes
// ---------------------------------------------------------------------------

PinholeCamera::PinholeCamera(const SceneGeometry &g)
    : origin_(g.cameraPos),
      forward_(geom::normalize(g.cameraTarget - g.cameraPos)),
      right_(geom::normalize(geom::cross(forward_, {0, 1, 0}))),
      up_(geom::cross(right_, forward_)),
      halfHeight_(std::tan(g.fovDegrees * 3.14159265f / 360.0f))
{
}

RtRay
PinholeCamera::ray(float sx, float sy) const
{
    RtRay r;
    r.ray.origin = origin_;
    r.ray.dir = geom::normalize(forward_ + right_ * sx + up_ * sy);
    r.ray.tmin = 0.0f;
    r.ray.tmax = 1e30f;
    return r;
}

RayLanes
RayLanes::alloc(mem::GlobalMemory &gmem, size_t n)
{
    RayLanes lanes;
    lanes.rays.resize(n);
    lanes.resultBase = gmem.alloc(n * 8, 128);
    return lanes;
}

// ---------------------------------------------------------------------------
// RtSpec
// ---------------------------------------------------------------------------

RtSpec::RtSpec(mem::GlobalMemory &gmem, const RtScene &scene,
               RtSceneImage image, const std::vector<RtRay> &rays,
               uint64_t result_base, RtOptions options)
    : gmem_(&gmem), scene_(&scene), image_(std::move(image)), rays_(&rays),
      resultBase_(result_base), options_(options),
      innerProg_(ttaplus::programs::rayBoxInner()),
      leafProg_(scene.geometry().isSphereScene()
                    ? ttaplus::programs::raySphereLeaf()
                    : ttaplus::programs::rayTriangleLeaf())
{
}

void
RtSpec::initRay(rta::RayState &ray, uint32_t lane_operand)
{
    ray.queryId = lane_operand;
    const RtRay &input = (*rays_)[lane_operand];
    ray.ray = input.ray;
    ray.anyHitMode = input.anyHit;
    ray.closestT = input.ray.tmax;
    ray.hitPrim = UINT32_MAX;
    ray.hitCount = 0;
    ray.inBlas = !scene_->geometry().twoLevel();
    ray.meshId = 0;
    ray.stack.push_back(image_.root);
}

void
RtSpec::fetchLines(const rta::RayState &ray, rta::NodeRef ref,
                   std::vector<uint64_t> &lines) const
{
    if (ref & RtScene::kRestoreBit)
        return;
    if (ref & RtScene::kEnterInstanceBit) {
        uint32_t inst = static_cast<uint32_t>(ref);
        coverLines(image_.instanceBase +
                       static_cast<uint64_t>(inst) * kInstanceStride,
                   kInstanceStride, lines);
        return;
    }
    BvhRef bref{static_cast<uint32_t>(ref)};
    if (!bref.isLeaf()) {
        lines.push_back(bref.addr() & ~127ull);
        return;
    }
    uint64_t leaf = bref.addr();
    uint32_t count = gmem_->read<uint32_t>(leaf + BvhLeafLayout::kOffCount);
    coverLines(leaf, 4 + 4ull * count, lines);
    if (!ray.inBlas)
        return; // TLAS leaf: instance records are fetched on entry
    const bool spheres = scene_->geometry().isSphereScene();
    for (uint32_t i = 0; i < count; ++i) {
        uint32_t id = gmem_->read<uint32_t>(
            leaf + BvhLeafLayout::kOffPrims + 4 * i);
        if (spheres) {
            coverLines(image_.sphereBase +
                           static_cast<uint64_t>(id) * kSphereStride,
                       kSphereStride, lines);
        } else {
            coverLines(image_.triBase[ray.meshId] +
                           static_cast<uint64_t>(id) * kTriStride,
                       kTriStride, lines);
        }
    }
}

void
RtSpec::processTriangleLeaf(rta::RayState &ray, uint64_t leaf,
                            rta::NodeOutcome &out)
{
    uint32_t count = gmem_->read<uint32_t>(leaf + BvhLeafLayout::kOffCount);
    uint64_t tri_base = image_.triBase[ray.meshId];
    const auto &alpha = scene_->geometry().meshes[ray.meshId].alpha;
    bool needs_shader = false;
    for (uint32_t i = 0; i < count; ++i) {
        uint32_t id = gmem_->read<uint32_t>(
            leaf + BvhLeafLayout::kOffPrims + 4 * i);
        uint64_t addr = tri_base + static_cast<uint64_t>(id) * kTriStride;
        Vec3 v[3];
        for (int k = 0; k < 3; ++k) {
            v[k] = {gmem_->read<float>(addr + 12 * k + 0),
                    gmem_->read<float>(addr + 12 * k + 4),
                    gmem_->read<float>(addr + 12 * k + 8)};
        }
        auto hit = geom::rayTriangle(ray.ray, v[0], v[1], v[2]);
        if (!hit)
            continue;
        if (alpha[id]) {
            // Alpha-masked primitive: the hit must be confirmed by an
            // any-hit shader on the SM.
            needs_shader = true;
            if (!RtScene::alphaPass(ray.meshId, id))
                continue;
        }
        ray.closestT = hit->t;
        ray.hitPrim = id;
        ray.hitU = hit->u;
        ray.hitV = hit->v;
        ray.ray.tmax = hit->t;
        ray.hitCount = 1;
        if (ray.anyHitMode) {
            ray.stack.clear();
            break;
        }
    }
    out.op = rta::OpKind::RayTriangle;
    out.isLeaf = true;
    out.opCount = std::max(1u, count);
    out.useShader = needs_shader;
}

void
RtSpec::processSphereLeaf(rta::RayState &ray, uint64_t leaf,
                          rta::NodeOutcome &out)
{
    uint32_t count = gmem_->read<uint32_t>(leaf + BvhLeafLayout::kOffCount);
    for (uint32_t i = 0; i < count; ++i) {
        uint32_t id = gmem_->read<uint32_t>(
            leaf + BvhLeafLayout::kOffPrims + 4 * i);
        uint64_t addr = image_.sphereBase +
            static_cast<uint64_t>(id) * kSphereStride;
        Vec3 center = {gmem_->read<float>(addr + 0),
                       gmem_->read<float>(addr + 4),
                       gmem_->read<float>(addr + 8)};
        float radius = gmem_->read<float>(addr + 12);
        auto t = geom::raySphere(ray.ray, center, radius);
        if (!t)
            continue;
        ray.closestT = *t;
        ray.hitPrim = id;
        ray.ray.tmax = *t;
        ray.hitCount = 1;
        if (ray.anyHitMode) {
            ray.stack.clear();
            break;
        }
    }
    out.op = rta::OpKind::RaySphere;
    out.isLeaf = true;
    out.opCount = std::max(1u, count);
    // Without the TTA+ SQRT path, ray-sphere tests live in an
    // intersection shader (the unstarred WKND_PT configuration).
    out.useShader = !options_.offloadSpheres;
}

rta::NodeOutcome
RtSpec::processNode(rta::RayState &ray, rta::NodeRef ref)
{
    rta::NodeOutcome out;

    if (ref & RtScene::kRestoreBit) {
        // Leave the BLAS: restore the world-space ray, keep the pruned
        // tmax (t is affine-consistent across the transform).
        float tmax = ray.ray.tmax;
        ray.ray = ray.worldRay;
        ray.ray.tmax = tmax;
        ray.inBlas = false;
        out.op = rta::OpKind::None;
        return out;
    }
    if (ref & RtScene::kEnterInstanceBit) {
        uint32_t inst = static_cast<uint32_t>(ref);
        uint64_t addr = image_.instanceBase +
            static_cast<uint64_t>(inst) * kInstanceStride;
        float w2o[12];
        for (int k = 0; k < 12; ++k)
            w2o[k] = gmem_->read<float>(addr + 4 * k);
        uint32_t blas_root = gmem_->read<uint32_t>(addr + 48);
        uint32_t mesh = gmem_->read<uint32_t>(addr + 52);

        ray.worldRay = ray.ray;
        ray.ray.origin = trees::transformPoint(w2o, ray.ray.origin);
        ray.ray.dir = trees::transformDir(w2o, ray.ray.dir);
        ray.inBlas = true;
        ray.meshId = mesh;
        ray.stack.push_back(RtScene::kRestoreBit);
        ray.stack.push_back(blas_root);
        out.op = rta::OpKind::Transform;
        return out;
    }

    BvhRef bref{static_cast<uint32_t>(ref)};
    if (bref.isLeaf()) {
        uint64_t leaf = bref.addr();
        if (!ray.inBlas) {
            // TLAS leaf: schedule instance entries.
            uint32_t count =
                gmem_->read<uint32_t>(leaf + BvhLeafLayout::kOffCount);
            for (uint32_t i = 0; i < count; ++i) {
                uint32_t inst = gmem_->read<uint32_t>(
                    leaf + BvhLeafLayout::kOffPrims + 4 * i);
                ray.stack.push_back(RtScene::kEnterInstanceBit | inst);
            }
            out.op = rta::OpKind::None;
            return out;
        }
        if (scene_->geometry().isSphereScene())
            processSphereLeaf(ray, leaf, out);
        else
            processTriangleLeaf(ray, leaf, out);
        return out;
    }

    // Inner node: test both children's boxes, push hits.
    using L = BvhNodeLayout;
    uint64_t node = bref.addr();
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
    geom::Aabb boxes[2] = {read_box(L::kOffLoL, L::kOffHiL),
                           read_box(L::kOffLoR, L::kOffHiR)};
    BvhRef children[2] = {BvhRef{gmem_->read<uint32_t>(node + L::kOffLeft)},
                          BvhRef{gmem_->read<uint32_t>(node + L::kOffRight)}};
    float key[2];
    bool hit[2];
    for (int c = 0; c < 2; ++c) {
        auto box_hit = geom::rayBox(ray.ray, boxes[c]);
        hit[c] = children[c].valid() && box_hit.has_value();
        if (!hit[c]) {
            key[c] = 0.0f;
            continue;
        }
        if (ray.anyHitMode && options_.sato) {
            // SATO: visit the larger-surface-area child first — for an
            // occlusion ray the big occluders (sails, hull) terminate
            // the traversal, while the near-first order wades through
            // sliver rigging boxes (Nah & Manocha [65]).
            key[c] = -boxes[c].surfaceArea();
        } else {
            key[c] = box_hit->tenter; // near child first
        }
    }
    // Push far-first so the preferred child pops first.
    int first = key[0] <= key[1] ? 0 : 1;
    int second = 1 - first;
    if (hit[second])
        ray.stack.push_back(children[second].raw);
    if (hit[first])
        ray.stack.push_back(children[first].raw);
    out.op = rta::OpKind::RayBox;
    out.isLeaf = false;
    return out;
}

void
RtSpec::finishRay(rta::RayState &ray)
{
    uint64_t addr = resultBase_ + 8ull * ray.queryId;
    gmem_->write<float>(addr + 0,
                        ray.hitCount ? ray.closestT : -1.0f);
    gmem_->write<uint32_t>(addr + 4, ray.hitPrim);
}

// ---------------------------------------------------------------------------
// RayTracingWorkload
// ---------------------------------------------------------------------------

RayTracingWorkload::RayTracingWorkload(SceneKind kind, uint32_t width,
                                       uint32_t height, uint64_t seed)
    : kind_(kind), width_(width), height_(height), seed_(seed)
{
    scene_ = std::make_unique<RtScene>(kind, seed);

    std::vector<RtRay> wave = primaryRays();
    int wave_idx = 0;
    while (!wave.empty()) {
        std::vector<RtHit> hits;
        hits.reserve(wave.size());
        for (const auto &r : wave)
            hits.push_back(scene_->reference(r));
        waves_.push_back(wave);
        waveHits_.push_back(hits);
        wave = nextWave(wave_idx, wave, hits);
        ++wave_idx;
    }
}

void
RayTracingWorkload::renderDepth(uint8_t *pixels, float *tmin_out,
                                float *tmax_out) const
{
    const auto &hits = waveHits_[0];
    float tmin = 1e30f, tmax = 0.0f;
    for (const RtHit &h : hits) {
        if (h.hit) {
            tmin = std::min(tmin, h.t);
            tmax = std::max(tmax, h.t);
        }
    }
    if (tmax <= tmin)
        tmax = tmin + 1.0f;
    for (size_t i = 0; i < hits.size(); ++i) {
        if (!hits[i].hit) {
            pixels[i] = 0;
            continue;
        }
        float norm = (hits[i].t - tmin) / (tmax - tmin);
        pixels[i] = static_cast<uint8_t>(40.0f + 215.0f * (1.0f - norm));
    }
    if (tmin_out)
        *tmin_out = tmin;
    if (tmax_out)
        *tmax_out = tmax;
}

size_t
RayTracingWorkload::totalRays() const
{
    size_t n = 0;
    for (const auto &wave : waves_)
        n += wave.size();
    return n;
}

std::vector<RtRay>
RayTracingWorkload::primaryRays() const
{
    PinholeCamera camera(scene_->geometry());
    float half_h = camera.halfHeight();
    float half_w = half_h * width_ / height_;

    std::vector<RtRay> rays;
    rays.reserve(static_cast<size_t>(width_) * height_);
    for (uint32_t y = 0; y < height_; ++y) {
        for (uint32_t x = 0; x < width_; ++x) {
            float sx = (2.0f * (x + 0.5f) / width_ - 1.0f) * half_w;
            float sy = (1.0f - 2.0f * (y + 0.5f) / height_) * half_h;
            rays.push_back(camera.ray(sx, sy));
        }
    }
    return rays;
}

std::vector<RtRay>
RayTracingWorkload::randomPrimaryRays(const RtScene &scene, size_t n,
                                      uint64_t seed)
{
    PinholeCamera camera(scene.geometry());
    float half = camera.halfHeight();
    sim::Rng rng(seed ^ 0x5bd1e995ull);
    std::vector<RtRay> rays;
    rays.reserve(n);
    for (size_t q = 0; q < n; ++q) {
        float sx = rng.uniform(-half, half);
        float sy = rng.uniform(-half, half);
        rays.push_back(camera.ray(sx, sy));
    }
    return rays;
}

std::vector<RtRay>
RayTracingWorkload::nextWave(int wave, const std::vector<RtRay> &prev,
                             const std::vector<RtHit> &hits) const
{
    RayWorkload wl = sceneWorkload(kind_);
    std::vector<RtRay> next;
    const int max_bounces = 2;

    auto hit_normal = [&](const RtRay &in, const RtHit &h) {
        if (scene_->geometry().isSphereScene()) {
            const auto &s = scene_->geometry().spheres[h.prim];
            return geom::normalize(in.ray.at(h.t) - s.first);
        }
        uint32_t mesh = scene_->geometry().twoLevel()
            ? scene_->geometry().instances[h.instance].mesh : 0;
        const auto &tri = scene_->geometry().meshes[mesh].triangles[h.prim];
        Vec3 n = geom::normalize(
            geom::cross(tri.v1 - tri.v0, tri.v2 - tri.v0));
        // Orient against the incoming ray.
        if (geom::dot(n, in.ray.dir) > 0.0f)
            n = -n;
        return n;
    };

    for (size_t i = 0; i < prev.size(); ++i) {
        if (!hits[i].hit || prev[i].anyHit)
            continue;
        Vec3 p = prev[i].ray.at(hits[i].t);
        Vec3 n = hit_normal(prev[i], hits[i]);
        uint32_t hseed = static_cast<uint32_t>(i * 2654435761u + wave);

        switch (wl) {
          case RayWorkload::PathTrace: {
            if (wave + 1 >= max_bounces + 1)
                break;
            RtRay r;
            r.ray.origin = p + n * kRayEpsilon;
            Vec3 jitter = hashDirection(hseed);
            r.ray.dir = geom::normalize(
                reflect(prev[i].ray.dir, n) * 0.6f + jitter * 0.4f);
            if (geom::dot(r.ray.dir, n) < 0.0f)
                r.ray.dir = reflect(r.ray.dir, n);
            r.ray.tmax = 1e30f;
            next.push_back(r);
            break;
          }
          case RayWorkload::AmbientOcclusion: {
            if (wave >= 1)
                break;
            for (int k = 0; k < 2; ++k) {
                RtRay r;
                r.ray.origin = p + n * kRayEpsilon;
                Vec3 d = geom::normalize(n + hashDirection(hseed + k));
                if (geom::dot(d, n) < 0.05f)
                    d = n;
                r.ray.dir = d;
                r.ray.tmax = 2.0f; // occlusion radius
                r.anyHit = true;
                next.push_back(r);
            }
            break;
          }
          case RayWorkload::Shadow:
          case RayWorkload::AlphaMask: {
            if (wave >= 1)
                break;
            // Area-light sampling for the shadow workload: several
            // jittered shadow rays per hit (this is the wave SATO
            // accelerates); alpha masking keeps a single hard shadow.
            int n_shadow = wl == RayWorkload::Shadow ? 4 : 1;
            for (int k = 0; k < n_shadow; ++k) {
                RtRay r;
                r.ray.origin = p + n * kRayEpsilon;
                geom::Vec3 jitter =
                    n_shadow > 1 ? hashDirection(hseed + 31 * k) * 2.0f
                                 : geom::Vec3(0.0f);
                r.ray.dir =
                    scene_->geometry().lightPos + jitter - r.ray.origin;
                r.ray.tmax = 1.0f; // light at t == 1
                r.anyHit = true;
                next.push_back(r);
            }
            break;
          }
          case RayWorkload::Reflection: {
            if (wave >= 1)
                break;
            RtRay r;
            r.ray.origin = p + n * kRayEpsilon;
            r.ray.dir = geom::normalize(reflect(prev[i].ray.dir, n));
            r.ray.tmax = 1e30f;
            next.push_back(r);
            break;
          }
        }
    }
    return next;
}

api::TtaPipeline
RayTracingWorkload::makePipeline(SceneKind kind, const RtOptions &options)
{
    static const ttaplus::Program inner = ttaplus::programs::rayBoxInner();
    static const ttaplus::Program tri_leaf =
        ttaplus::programs::rayTriangleLeaf();
    static const ttaplus::Program sphere_leaf =
        ttaplus::programs::raySphereLeaf();
    bool spheres = kind == SceneKind::WkndPt;
    std::string name = std::string(sceneName(kind)) +
        (options.sato ? ".sato" : "") +
        (options.offloadSpheres ? ".offload" : "");
    api::TtaPipelineDesc desc(name);
    desc.decodeR({12, 12, 4, 4})  // Listing 1: origin, dir, tmin, tmax
        .decodeI({12, 12, 12, 12, 4, 4})
        .decodeL(spheres ? std::vector<uint32_t>{12, 4}
                         : std::vector<uint32_t>{12, 12, 12})
        .configI(&inner)
        .configL(spheres ? &sphere_leaf : &tri_leaf);
    // Ray tracing checks ray.tmax for termination inside the leaf test
    // (Listing 1's ConfigTerminate("ray", 24, float, "Leaf", 20)).
    tta::TerminationConfig term;
    term.watch = tta::TerminationConfig::Watch::RayField;
    term.byteOffset = 24;
    term.programPc = 20;
    desc.configTerminate(term);
    return api::TtaPipeline::create(desc);
}

RunMetrics
RayTracingWorkload::runAccelerated(const sim::Config &cfg,
                                   sim::StatRegistry &stats,
                                   RtOptions options)
{
    api::TtaDevice device(cfg, stats);
    mem::GlobalMemory &gmem = device.memory();
    RtSceneImage image = scene_->serialize(gmem);
    api::TtaPipeline pipeline = makePipeline(kind_, options);

    sim::Cycle cycles = 0;
    for (size_t w = 0; w < waves_.size(); ++w) {
        const auto &wave = waves_[w];
        RayLanes lanes = RayLanes::alloc(gmem, wave.size());
        for (size_t i = 0; i < wave.size(); ++i)
            lanes.stage(gmem, i, wave[i]);
        RtSpec spec(gmem, *scene_, image, lanes.rays, lanes.resultBase,
                    options);
        device.bindPipeline(pipeline, &spec);
        cycles += device.cmdTraverseTree(wave.size());

        size_t bad = lanes.mismatches(
            gmem, wave.size(), [&](size_t i) { return waveHits_[w][i]; });
        panic_if(bad > RayLanes::tolerance(wave.size()),
                 "%s wave %zu: %zu mismatches out of %zu rays",
                 sceneName(kind_), w, bad, wave.size());
    }
    return collectMetrics(stats, cycles,
                          device.gpu().memsys().dramUtilization());
}

RunMetrics
RayTracingWorkload::runBaselineCores(const sim::Config &cfg,
                                     sim::StatRegistry &stats)
{
    fatal_if(scene_->geometry().isSphereScene() ||
             scene_->geometry().twoLevel(),
             "the SIMT-core path requires a single-level triangle scene");
    gpu::Gpu device(cfg, stats);
    RtSceneImage image = scene_->serialize(device.memory());

    const auto &wave = waves_[0];
    uint64_t ray_base = device.memory().alloc(wave.size() * kRayStride, 128);
    for (size_t i = 0; i < wave.size(); ++i) {
        uint64_t addr = ray_base + i * kRayStride;
        device.memory().write<float>(addr + 0, wave[i].ray.origin.x);
        device.memory().write<float>(addr + 4, wave[i].ray.origin.y);
        device.memory().write<float>(addr + 8, wave[i].ray.origin.z);
        device.memory().write<float>(addr + 12, wave[i].ray.dir.x);
        device.memory().write<float>(addr + 16, wave[i].ray.dir.y);
        device.memory().write<float>(addr + 20, wave[i].ray.dir.z);
        device.memory().write<float>(addr + 24, wave[i].ray.tmin);
        device.memory().write<float>(addr + 28, wave[i].ray.tmax);
    }
    uint64_t result_base = device.memory().alloc(wave.size() * 4, 128);
    size_t warps = (wave.size() + 31) / 32;
    uint64_t stack_base = device.memory().alloc(warps * 16384, 128);

    gpu::KernelProgram kernel = buildBaselineKernel();
    std::vector<uint32_t> params = {
        static_cast<uint32_t>(ray_base),
        static_cast<uint32_t>(image.root),
        static_cast<uint32_t>(image.triBase[0]),
        static_cast<uint32_t>(stack_base),
        static_cast<uint32_t>(result_base)};
    sim::Cycle cycles = device.runKernel(kernel, wave.size(), params);

    size_t bad = 0;
    for (size_t i = 0; i < wave.size(); ++i) {
        float t = device.memory().read<float>(result_base + 4 * i);
        const RtHit &ref = waveHits_[0][i];
        bool hit = t < 1e29f;
        if (hit != ref.hit)
            ++bad;
        else if (hit && std::fabs(t - ref.t) > 1e-3f * std::max(1.0f, ref.t))
            ++bad;
    }
    panic_if(bad > wave.size() / 128 + 2,
             "%s SIMT-core tracer: %zu mismatches out of %zu",
             sceneName(kind_), bad, wave.size());
    return collectMetrics(stats, cycles, device.memsys().dramUtilization());
}

gpu::KernelProgram
RayTracingWorkload::buildBaselineKernel()
{
    using namespace ::tta::gpu;
    using L = BvhNodeLayout;
    KernelBuilder b("rt_closest_hit_baseline");
    // Params: 0 rayBase, 1 rootRef, 2 triBase, 3 stackBase, 4 resultBase.
    b.tid(1);
    b.param(20, 0);
    b.ishli(21, 1, 5);
    b.iadd(20, 20, 21);
    b.loadVec3(4, 20, 0);  // origin
    b.loadVec3(7, 20, 12); // direction
    b.load(26, 20, 28);    // t_best = ray.tmax
    b.frcp(28, 7);
    b.frcp(29, 8);
    b.frcp(30, 9);         // 1/d
    // Interleaved per-thread stack (128 levels x 128B per warp).
    b.param(2, 3);
    b.ishri(21, 1, 5);
    b.ishli(21, 21, 14);
    b.iadd(2, 2, 21);
    b.movi(22, 31);
    b.iand(22, 1, 22);
    b.ishli(22, 22, 2);
    b.iadd(2, 2, 22);
    b.param(23, 1);
    b.store(2, 23, 0); // push root
    b.movi(3, 1);

    b.doWhile([&]() -> Reg {
        b.iaddi(3, 3, -1);
        b.ishli(11, 3, 7);
        b.iadd(11, 2, 11);
        b.load(10, 11, 0); // ref
        b.movi(22, 1);
        b.iand(12, 10, 22); // leaf?
        b.movi(22, ~3);
        b.iand(13, 10, 22); // address

        b.ifThenElse(
            12,
            [&]() { // leaf: Moller-Trumbore per primitive
                b.load(10, 13, 0); // count (ref no longer needed)
                b.movi(12, 0);     // i
                b.doWhile([&]() -> Reg {
                    b.ishli(0, 12, 2);
                    b.iadd(0, 13, 0);
                    b.load(0, 0, 4); // prim id
                    b.imuli(0, 0, kTriStride);
                    b.param(11, 2);
                    b.iadd(0, 11, 0);
                    b.loadVec3(14, 0, 0);  // v0
                    b.loadVec3(17, 0, 12); // v1
                    b.loadVec3(20, 0, 24); // v2
                    b.vsub(17, 17, 14);    // e1
                    b.vsub(20, 20, 14);    // e2
                    b.vcross(23, 7, 20, 0); // pvec (temps r0, r1)
                    b.vdot(11, 17, 23, 0);  // det
                    b.frcp(11, 11);         // inv_det (inf when det==0)
                    b.vsub(14, 4, 14);      // tvec = o - v0
                    b.vdot(0, 14, 23, 1);   // u_raw
                    b.fmul(0, 0, 11);       // u
                    // qvec = cross(tvec, e1), hand-expanded: the only
                    // free scratch registers are r1 and r27 (vcross's
                    // consecutive-temp pair would clobber the stack
                    // base in r2).
                    b.fmul(1, 15, 19);
                    b.fmul(27, 16, 18);
                    b.fsub(23, 1, 27);
                    b.fmul(1, 16, 17);
                    b.fmul(27, 14, 19);
                    b.fsub(24, 1, 27);
                    b.fmul(1, 14, 18);
                    b.fmul(27, 15, 17);
                    b.fsub(25, 1, 27);
                    b.vdot(1, 7, 23, 27);   // v_raw
                    b.fmul(1, 1, 11);       // v
                    b.vdot(27, 20, 23, 20); // t_raw (tmp aliases e2.x)
                    b.fmul(27, 27, 11);     // t
                    // accept = 0<=u && 0<=v && u+v<=1 && eps<t<t_best
                    b.fadd(14, 0, 1);       // u+v
                    b.movif(15, 0.0f);
                    b.setlef(16, 15, 0);
                    b.setlef(17, 15, 1);
                    b.iand(16, 16, 17);
                    b.movif(15, 1.0f);
                    b.setlef(17, 14, 15);
                    b.iand(16, 16, 17);
                    b.movif(15, 1e-4f);
                    b.setltf(17, 15, 27);
                    b.iand(16, 16, 17);
                    b.setltf(17, 27, 26);
                    b.iand(16, 16, 17);
                    b.ifThen(16, [&]() { b.mov(26, 27); });
                    b.iaddi(12, 12, 1);
                    b.setlti(31, 12, 10);
                    return 31;
                });
                // restore tid (r1 was used as a temp)
                b.tid(1);
            },
            [&]() { // inner: slab tests on both children
                auto test_child = [&](uint32_t lo_off, uint32_t hi_off,
                                      uint32_t ref_off) {
                    b.loadVec3(14, 13, static_cast<int32_t>(lo_off));
                    b.loadVec3(17, 13, static_cast<int32_t>(hi_off));
                    // x
                    b.fsub(20, 14, 4);
                    b.fmul(20, 20, 28);
                    b.fsub(21, 17, 4);
                    b.fmul(21, 21, 28);
                    b.fmin(22, 20, 21); // tenter
                    b.fmax(23, 20, 21); // texit
                    // y
                    b.fsub(20, 15, 5);
                    b.fmul(20, 20, 29);
                    b.fsub(21, 18, 5);
                    b.fmul(21, 21, 29);
                    b.fmin(24, 20, 21);
                    b.fmax(25, 20, 21);
                    b.fmax(22, 22, 24);
                    b.fmin(23, 23, 25);
                    // z
                    b.fsub(20, 16, 6);
                    b.fmul(20, 20, 30);
                    b.fsub(21, 19, 6);
                    b.fmul(21, 21, 30);
                    b.fmin(24, 20, 21);
                    b.fmax(25, 20, 21);
                    b.fmax(22, 22, 24);
                    b.fmin(23, 23, 25);
                    // hit = tenter<=texit && texit>=0 && tenter<t_best
                    b.setlef(24, 22, 23);
                    b.movif(25, 0.0f);
                    b.setlef(27, 25, 23);
                    b.iand(24, 24, 27);
                    b.setltf(27, 22, 26);
                    b.iand(24, 24, 27);
                    b.load(20, 13, static_cast<int32_t>(ref_off));
                    b.movi(25, 0);
                    b.setnei(21, 20, 25);
                    b.iand(24, 24, 21);
                    b.ifThen(24, [&]() {
                        b.ishli(11, 3, 7);
                        b.iadd(11, 2, 11);
                        b.store(11, 20, 0);
                        b.iaddi(3, 3, 1);
                    });
                };
                test_child(L::kOffLoL, L::kOffHiL, L::kOffLeft);
                test_child(L::kOffLoR, L::kOffHiR, L::kOffRight);
            });
        b.movi(22, 0);
        b.setlti(31, 22, 3);
        return 31;
    });

    b.param(20, 4);
    b.ishli(21, 1, 2);
    b.iadd(20, 20, 21);
    b.store(20, 26, 0); // result: closest t (tmax when missed)
    b.exit();
    return b.build();
}

} // namespace tta::workloads
