/**
 * @file
 * The struct-of-arrays lane type of the batched functional intersection
 * tests (geom/intersect.hh) that consume the wide BVH node layout.
 *
 * The batched tests are plain scalar loops over eight lanes: the
 * simulated results come from cycle-level timing models, so how fast
 * the host evaluates a test's answer moves no result.
 */

#ifndef TTA_GEOM_SIMD_HH
#define TTA_GEOM_SIMD_HH

namespace tta::geom {

/** Host functional backend name, recorded on perfbench's host line. */
inline const char *
simdBackendName()
{
    return "scalar";
}

/**
 * Up to eight AABBs in struct-of-arrays form — the host mirror of the
 * wide BVH node layout (trees/bvh.hh). Lanes >= the batch count are
 * masked out of the batch tests' results.
 */
struct WideBoxes
{
    float lox[8];
    float loy[8];
    float loz[8];
    float hix[8];
    float hiy[8];
    float hiz[8];
};

} // namespace tta::geom

#endif // TTA_GEOM_SIMD_HH
