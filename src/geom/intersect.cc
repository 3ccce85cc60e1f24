#include "geom/intersect.hh"

#include <cmath>

namespace tta::geom {

std::optional<BoxHit>
rayBox(const Ray &ray, const Aabb &box)
{
    // Slab test with the min/max reduction structure of the hardware
    // pipeline: per-axis plane distances, then a minmax / maxmin tree.
    // Division by a zero direction component yields +-inf, which the
    // fmin/fmax reduction handles correctly (IEEE semantics, matching the
    // hardware MIN/MAX units that flush NaN operands to the other input).
    float tenter = ray.tmin;
    float texit = ray.tmax;
    for (int axis = 0; axis < 3; ++axis) {
        float inv = 1.0f / ray.dir[axis];
        float t0 = (box.lo[axis] - ray.origin[axis]) * inv;
        float t1 = (box.hi[axis] - ray.origin[axis]) * inv;
        if (inv < 0.0f)
            std::swap(t0, t1);
        tenter = std::fmax(tenter, t0);
        texit = std::fmin(texit, t1);
    }
    if (tenter > texit)
        return std::nullopt;
    return BoxHit{tenter, texit};
}

std::optional<TriangleHit>
rayTriangle(const Ray &ray, const Vec3 &v0, const Vec3 &v1, const Vec3 &v2)
{
    constexpr float epsilon = 1e-7f;
    Vec3 e1 = v1 - v0;
    Vec3 e2 = v2 - v0;
    Vec3 pvec = cross(ray.dir, e2);
    float det = dot(e1, pvec);
    if (std::fabs(det) < epsilon)
        return std::nullopt; // ray parallel to triangle plane
    float inv_det = 1.0f / det;
    Vec3 tvec = ray.origin - v0;
    float u = dot(tvec, pvec) * inv_det;
    if (u < 0.0f || u > 1.0f)
        return std::nullopt;
    Vec3 qvec = cross(tvec, e1);
    float v = dot(ray.dir, qvec) * inv_det;
    if (v < 0.0f || u + v > 1.0f)
        return std::nullopt;
    float t = dot(e2, qvec) * inv_det;
    if (t < ray.tmin || t > ray.tmax)
        return std::nullopt;
    return TriangleHit{t, u, v};
}

std::optional<float>
raySphere(const Ray &ray, const Vec3 &center, float radius)
{
    Vec3 oc = ray.origin - center;
    float a = dot(ray.dir, ray.dir);
    float half_b = dot(oc, ray.dir);
    float c = dot(oc, oc) - radius * radius;
    float disc = half_b * half_b - a * c;
    if (disc < 0.0f)
        return std::nullopt;
    float sqrt_disc = std::sqrt(disc);
    float t = (-half_b - sqrt_disc) / a;
    if (t < ray.tmin || t > ray.tmax) {
        t = (-half_b + sqrt_disc) / a;
        if (t < ray.tmin || t > ray.tmax)
            return std::nullopt;
    }
    return t;
}

float
distanceSquared(const Vec3 &a, const Vec3 &b)
{
    Vec3 dis = b - a;
    return dot(dis, dis);
}

bool
pointWithinRadius(const Vec3 &a, const Vec3 &b, float threshold)
{
    return distanceSquared(a, b) < threshold * threshold;
}

QueryKeyResult
queryKeyCompare(float query, const float *keys, int n_keys)
{
    for (int i = 0; i < n_keys; ++i) {
        if (keys[i] == query)
            return {true, -1, i};
        if (query < keys[i])
            return {false, i, -1};
    }
    // Greater than every key: descend the rightmost child.
    return {false, n_keys, -1};
}

// ---------------------------------------------------------------------
// Batched SoA tests: one loop over all eight lanes, masked to `count`.
// ---------------------------------------------------------------------

namespace {

constexpr uint32_t
laneMask(int count)
{
    if (count <= 0)
        return 0u;
    return count >= 8 ? 0xffu : ((1u << count) - 1u);
}

} // namespace

uint32_t
rayBoxBatch(const Ray &ray, const WideBoxes &boxes, int count,
            float tenter_out[8])
{
    const float *lo[3] = {boxes.lox, boxes.loy, boxes.loz};
    const float *hi[3] = {boxes.hix, boxes.hiy, boxes.hiz};
    uint32_t hits = 0;
    for (int i = 0; i < 8; ++i) {
        float tenter = ray.tmin;
        float texit = ray.tmax;
        for (int axis = 0; axis < 3; ++axis) {
            float inv = 1.0f / ray.dir[axis];
            const float *near_p = inv < 0.0f ? hi[axis] : lo[axis];
            const float *far_p = inv < 0.0f ? lo[axis] : hi[axis];
            float t0 = (near_p[i] - ray.origin[axis]) * inv;
            float t1 = (far_p[i] - ray.origin[axis]) * inv;
            // Select on compare, not std::fmax: a NaN plane distance
            // keeps the accumulator, and so does a tie.
            tenter = t0 > tenter ? t0 : tenter;
            texit = t1 < texit ? t1 : texit;
        }
        tenter_out[i] = tenter;
        if (tenter <= texit)
            hits |= 1u << i;
    }
    return hits & laneMask(count);
}

uint32_t
pointInBoxBatch(const Vec3 &p, const WideBoxes &boxes, int count)
{
    uint32_t hits = 0;
    for (int i = 0; i < 8; ++i) {
        bool in = p.x >= boxes.lox[i] && p.x <= boxes.hix[i] &&
                  p.y >= boxes.loy[i] && p.y <= boxes.hiy[i] &&
                  p.z >= boxes.loz[i] && p.z <= boxes.hiz[i];
        if (in)
            hits |= 1u << i;
    }
    return hits & laneMask(count);
}

} // namespace tta::geom
