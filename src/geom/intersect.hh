/**
 * @file
 * Functional intersection tests.
 *
 * These are the ground-truth computations that the fixed-function RTA
 * units, the TTA modifications, and the TTA+ uop programs all model in
 * hardware (Fig 5, Algorithm 1, Algorithm 2). The accelerator timing
 * models call into these for their functional results; the test suite
 * cross-checks the accelerators against them.
 */

#ifndef TTA_GEOM_INTERSECT_HH
#define TTA_GEOM_INTERSECT_HH

#include <cstdint>
#include <optional>

#include "geom/aabb.hh"
#include "geom/ray.hh"
#include "geom/simd.hh"

namespace tta::geom {

/** Result of a Ray-Triangle (Möller-Trumbore) intersection. */
struct TriangleHit
{
    float t;  //!< ray hit distance
    float u;  //!< barycentric coordinate
    float v;  //!< barycentric coordinate
};

/** Result of a Ray-Box slab test. */
struct BoxHit
{
    float tenter; //!< entry distance (clamped to ray.tmin)
    float texit;  //!< exit distance (clamped to ray.tmax)
};

/**
 * Ray-Box slab test (Fig 5 left).
 *
 * Computes the hit distance at each AABB plane and min/max-reduces them
 * exactly like the 4-stage fixed-function pipeline does.
 *
 * @return entry/exit distances, or nullopt when the ray misses the box.
 */
std::optional<BoxHit> rayBox(const Ray &ray, const Aabb &box);

/**
 * Ray-Triangle intersection using the Möller-Trumbore algorithm
 * (Fig 5 right). Returns hit distance and barycentric (u, v).
 */
std::optional<TriangleHit> rayTriangle(const Ray &ray, const Vec3 &v0,
                                       const Vec3 &v1, const Vec3 &v2);

/**
 * Ray-Sphere intersection. On the baseline RTA this must run in a
 * programmable intersection shader on the SIMT cores; TTA+ executes it as
 * a uop program (it needs the SQRT unit).
 */
std::optional<float> raySphere(const Ray &ray, const Vec3 &center,
                               float radius);

/**
 * Point-to-Point distance test (Algorithm 2): true when
 * |b - a|^2 < threshold^2. The square root is avoided exactly as the
 * paper's datapath does (squared-distance vs squared-threshold compare).
 */
bool pointWithinRadius(const Vec3 &a, const Vec3 &b, float threshold);

/** Squared distance between two points (the dot(dis, dis) of Alg. 2). */
float distanceSquared(const Vec3 &a, const Vec3 &b);

/**
 * Query-Key value comparison (Algorithm 1) against up to nine keys.
 *
 * @param query      the search key.
 * @param keys       node key values, ascending.
 * @param n_keys     number of valid keys (<= 9).
 * @retval found     true when query matches a key exactly.
 * @retval child     index of the child to descend into when not found
 *                   (first i with query < keys[i]; n_keys if query is
 *                   greater than all keys).
 */
struct QueryKeyResult
{
    bool found;
    int child;
    int matchIndex; //!< index of the equal key when found, else -1
};

QueryKeyResult queryKeyCompare(float query, const float *keys, int n_keys);

/**
 * Batched SoA intersection tests.
 *
 * These consume the wide BVH node layout (WideBoxes, up to 8 lanes per
 * call). Each lane is evaluated with exactly the scalar tests'
 * operation order and select-on-compare min/max semantics, so per-lane
 * results are identical to the scalar functions above (only the sign of
 * a zero may differ, which all comparisons treat as equal); the property
 * tests in tests/test_geom.cc enforce this lane-for-lane.
 *
 * All eight lanes are evaluated; `count` lanes (<= 8) participate, and
 * higher lanes are masked out of the returned bitmask. Their output
 * slots are still written from whatever those lanes hold, so callers
 * value-initialize partially filled batches.
 */

/**
 * Ray vs up to 8 AABBs. Returns a bitmask of hit lanes (bit i set when
 * lane i's slab test passes, i.e. tenter <= texit) and writes each lane's
 * entry distance to `tenter_out` for near-to-far traversal ordering.
 */
uint32_t rayBoxBatch(const Ray &ray, const WideBoxes &boxes, int count,
                     float tenter_out[8]);

/** Point-in-AABB (Aabb::contains) against up to 8 boxes; hit bitmask. */
uint32_t pointInBoxBatch(const Vec3 &p, const WideBoxes &boxes, int count);

} // namespace tta::geom

#endif // TTA_GEOM_INTERSECT_HH
