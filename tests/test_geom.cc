/**
 * @file
 * Unit + property tests for the geometry substrate: the functional ground
 * truth behind every intersection unit.
 */

#include <gtest/gtest.h>

#include "geom/aabb.hh"
#include "geom/intersect.hh"
#include "geom/ray.hh"
#include "geom/vec.hh"
#include "sim/rng.hh"

using namespace tta::geom;
using tta::sim::Rng;

TEST(Vec3, Arithmetic)
{
    Vec3 a(1, 2, 3), b(4, 5, 6);
    EXPECT_EQ(a + b, Vec3(5, 7, 9));
    EXPECT_EQ(b - a, Vec3(3, 3, 3));
    EXPECT_EQ(a * 2.0f, Vec3(2, 4, 6));
    EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
    EXPECT_EQ(cross(Vec3(1, 0, 0), Vec3(0, 1, 0)), Vec3(0, 0, 1));
}

TEST(Vec3, NormalizeAndLength)
{
    Vec3 v(3, 4, 0);
    EXPECT_FLOAT_EQ(length(v), 5.0f);
    Vec3 n = normalize(v);
    EXPECT_NEAR(length(n), 1.0f, 1e-6f);
    EXPECT_EQ(normalize(Vec3(0.0f)), Vec3(0.0f)); // zero-safe
}

TEST(Aabb, ExtendContainsArea)
{
    Aabb box;
    EXPECT_FALSE(box.valid());
    box.extend({0, 0, 0});
    box.extend({2, 3, 4});
    EXPECT_TRUE(box.valid());
    EXPECT_TRUE(box.contains({1, 1, 1}));
    EXPECT_FALSE(box.contains({3, 1, 1}));
    EXPECT_FLOAT_EQ(box.surfaceArea(), 2.0f * (6 + 12 + 8));
    EXPECT_EQ(box.widestAxis(), 2);
}

TEST(RayBox, HitAndMiss)
{
    Aabb box({0, 0, 0}, {1, 1, 1});
    Ray ray;
    ray.origin = {-1, 0.5f, 0.5f};
    ray.dir = {1, 0, 0};
    auto hit = rayBox(ray, box);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FLOAT_EQ(hit->tenter, 1.0f);
    EXPECT_FLOAT_EQ(hit->texit, 2.0f);

    ray.dir = {-1, 0, 0}; // pointing away
    EXPECT_FALSE(rayBox(ray, box).has_value());

    ray.origin = {0.5f, 0.5f, 0.5f}; // origin inside
    ray.dir = {0, 0, 1};
    auto inside = rayBox(ray, box);
    ASSERT_TRUE(inside.has_value());
    EXPECT_FLOAT_EQ(inside->tenter, 0.0f);
}

TEST(RayBox, RespectsTminTmax)
{
    Aabb box({10, -1, -1}, {11, 1, 1});
    Ray ray;
    ray.origin = {0, 0, 0};
    ray.dir = {1, 0, 0};
    ray.tmax = 5.0f; // box beyond reach
    EXPECT_FALSE(rayBox(ray, box).has_value());
}

TEST(RayBox, AxisParallelRay)
{
    // Zero direction components exercise the IEEE inf/NaN handling.
    Aabb box({0, 0, 0}, {1, 1, 1});
    Ray ray;
    ray.origin = {0.5f, 0.5f, -2};
    ray.dir = {0, 0, 1};
    ASSERT_TRUE(rayBox(ray, box).has_value());
    ray.origin = {2.0f, 0.5f, -2}; // parallel, outside the slab
    EXPECT_FALSE(rayBox(ray, box).has_value());
}

TEST(RayTriangle, BarycentricsAndMiss)
{
    Vec3 v0(0, 0, 0), v1(1, 0, 0), v2(0, 1, 0);
    Ray ray;
    ray.origin = {0.25f, 0.25f, 1};
    ray.dir = {0, 0, -1};
    auto hit = rayTriangle(ray, v0, v1, v2);
    ASSERT_TRUE(hit.has_value());
    EXPECT_FLOAT_EQ(hit->t, 1.0f);
    EXPECT_FLOAT_EQ(hit->u, 0.25f);
    EXPECT_FLOAT_EQ(hit->v, 0.25f);

    ray.origin = {0.9f, 0.9f, 1}; // outside u+v <= 1
    EXPECT_FALSE(rayTriangle(ray, v0, v1, v2).has_value());

    ray.origin = {0.25f, 0.25f, 1};
    ray.dir = {1, 0, 0}; // parallel to the plane
    EXPECT_FALSE(rayTriangle(ray, v0, v1, v2).has_value());
}

TEST(RaySphere, EntryAndInside)
{
    Ray ray;
    ray.origin = {-5, 0, 0};
    ray.dir = {1, 0, 0};
    auto t = raySphere(ray, {0, 0, 0}, 1.0f);
    ASSERT_TRUE(t.has_value());
    EXPECT_FLOAT_EQ(*t, 4.0f);

    // Origin inside the sphere: the exit point is returned.
    ray.origin = {0, 0, 0};
    auto exit = raySphere(ray, {0, 0, 0}, 1.0f);
    ASSERT_TRUE(exit.has_value());
    EXPECT_FLOAT_EQ(*exit, 1.0f);

    ray.origin = {-5, 3, 0}; // misses
    EXPECT_FALSE(raySphere(ray, {0, 0, 0}, 1.0f).has_value());
}

TEST(PointDistance, Algorithm2Semantics)
{
    EXPECT_TRUE(pointWithinRadius({0, 0, 0}, {1, 0, 0}, 1.5f));
    EXPECT_FALSE(pointWithinRadius({0, 0, 0}, {2, 0, 0}, 1.5f));
    // Strict inequality, like Algorithm 2's (dis2 < threshold2).
    EXPECT_FALSE(pointWithinRadius({0, 0, 0}, {1, 0, 0}, 1.0f));
    EXPECT_FLOAT_EQ(distanceSquared({1, 2, 3}, {4, 6, 3}), 25.0f);
}

TEST(QueryKey, Algorithm1Reference)
{
    float keys[9] = {2, 4, 6, 8, 10, 12, 14, 16,
                     std::numeric_limits<float>::infinity()};
    auto hit = queryKeyCompare(8.0f, keys, 9);
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.matchIndex, 3);

    auto miss = queryKeyCompare(7.0f, keys, 9);
    EXPECT_FALSE(miss.found);
    EXPECT_EQ(miss.child, 3); // first key greater than the query

    auto below = queryKeyCompare(1.0f, keys, 9);
    EXPECT_EQ(below.child, 0);
    auto above = queryKeyCompare(100.0f, keys, 9);
    EXPECT_EQ(above.child, 8); // +inf sentinel catches it
}

// Property sweep: ray-box results are consistent under ray offsetting —
// if a ray hits at [tenter, texit], the same ray advanced by s hits at
// [tenter - s, texit - s] (while it still starts outside).
class RayBoxProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(RayBoxProperty, TranslationConsistency)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 200; ++iter) {
        Aabb box;
        box.extend({rng.uniform(-5, 5), rng.uniform(-5, 5),
                    rng.uniform(-5, 5)});
        box.extend({rng.uniform(-5, 5), rng.uniform(-5, 5),
                    rng.uniform(-5, 5)});
        Ray ray;
        ray.origin = {rng.uniform(-20, -10), rng.uniform(-5, 5),
                      rng.uniform(-5, 5)};
        ray.dir = normalize({rng.uniform(0.2f, 1), rng.uniform(-1, 1),
                             rng.uniform(-1, 1)});
        auto hit = rayBox(ray, box);
        if (!hit || hit->tenter < 1.0f)
            continue;
        float s = hit->tenter * 0.5f;
        Ray moved = ray;
        moved.origin = ray.at(s);
        auto hit2 = rayBox(moved, box);
        ASSERT_TRUE(hit2.has_value());
        EXPECT_NEAR(hit2->tenter, hit->tenter - s,
                    1e-3f * (1.0f + hit->tenter));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RayBoxProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// Property sweep: a hit reported by rayTriangle always reconstructs a
// point inside the triangle (barycentric validity).
class RayTriProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(RayTriProperty, BarycentricReconstruction)
{
    Rng rng(GetParam());
    int hits = 0;
    for (int iter = 0; iter < 400; ++iter) {
        Vec3 v0(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(2, 4));
        Vec3 v1 = v0 + Vec3(rng.uniform(0.5f, 2), rng.uniform(-1, 1), 0);
        Vec3 v2 = v0 + Vec3(rng.uniform(-1, 1), rng.uniform(0.5f, 2), 0);
        Ray ray;
        ray.origin = {rng.uniform(-3, 3), rng.uniform(-3, 3), 0};
        ray.dir = normalize(
            (v0 + v1 + v2) / 3.0f +
            Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), 0) * 0.5f -
            ray.origin);
        auto hit = rayTriangle(ray, v0, v1, v2);
        if (!hit)
            continue;
        ++hits;
        EXPECT_GE(hit->u, 0.0f);
        EXPECT_GE(hit->v, 0.0f);
        EXPECT_LE(hit->u + hit->v, 1.0f + 1e-5f);
        Vec3 reconstructed = v0 * (1.0f - hit->u - hit->v) + v1 * hit->u +
                             v2 * hit->v;
        Vec3 sample = ray.at(hit->t);
        EXPECT_NEAR(length(reconstructed - sample), 0.0f, 1e-3f);
    }
    EXPECT_GT(hits, 10); // the sweep actually exercised the hit path
}

INSTANTIATE_TEST_SUITE_P(Seeds, RayTriProperty,
                         ::testing::Values(11, 12, 13, 14));

// --- Batched SoA kernels ---------------------------------------------------
//
// Every lane of the batch kernels must agree with the scalar reference
// functions bit-for-bit: same hit/miss decision and float-equal (==)
// distances — the sign of a zero is the only tolerated representation
// difference, and operator== already treats -0 == +0.
// The sweep leans on degenerate geometry: flat boxes (zero extent on an
// axis), inverted boxes (lo > hi, the invalid-Aabb sentinel shape),
// tiny boxes, and axis-parallel rays whose 1/0 slab math produces
// inf/NaN.

namespace {

/** One random box per lane, biased toward degenerate shapes. */
Aabb
randomLaneBox(Rng &rng)
{
    Aabb box;
    Vec3 a{rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-8, 8)};
    switch (rng.nextBounded(5)) {
      case 0: { // flat: zero extent on one axis
          Vec3 b = a + Vec3{rng.uniform(0, 3), rng.uniform(0, 3),
                            rng.uniform(0, 3)};
          int axis = static_cast<int>(rng.nextBounded(3));
          (&b.x)[axis] = (&a.x)[axis];
          box.extend(a);
          box.extend(b);
          break;
      }
      case 1: { // inverted: lo > hi on every axis (never hit/contains)
          box.lo = a;
          box.hi = a - Vec3{rng.uniform(0.5f, 2), rng.uniform(0.5f, 2),
                            rng.uniform(0.5f, 2)};
          break;
      }
      case 2: { // tiny: sub-epsilon extent
          box.extend(a);
          box.extend(a + Vec3{1e-30f, 1e-30f, 1e-30f});
          break;
      }
      default: { // ordinary box
          box.extend(a);
          box.extend(a + Vec3{rng.uniform(0.1f, 4), rng.uniform(0.1f, 4),
                              rng.uniform(0.1f, 4)});
          break;
      }
    }
    return box;
}

WideBoxes
packBoxes(const Aabb boxes[8])
{
    WideBoxes wide;
    for (int i = 0; i < 8; ++i) {
        wide.lox[i] = boxes[i].lo.x;
        wide.loy[i] = boxes[i].lo.y;
        wide.loz[i] = boxes[i].lo.z;
        wide.hix[i] = boxes[i].hi.x;
        wide.hiy[i] = boxes[i].hi.y;
        wide.hiz[i] = boxes[i].hi.z;
    }
    return wide;
}

} // namespace

class SimdBatchProperty : public ::testing::TestWithParam<uint64_t>
{};

TEST_P(SimdBatchProperty, RayBoxBatchMatchesScalarLaneForLane)
{
    Rng rng(GetParam() * 1013904223ull + 1);
    for (int iter = 0; iter < 300; ++iter) {
        Aabb boxes[8];
        for (auto &box : boxes)
            box = randomLaneBox(rng);
        WideBoxes wide = packBoxes(boxes);

        Ray ray;
        ray.origin = {rng.uniform(-12, 12), rng.uniform(-12, 12),
                      rng.uniform(-12, 12)};
        ray.dir = {rng.uniform(-1, 1), rng.uniform(-1, 1),
                   rng.uniform(-1, 1)};
        // A third of the rays are axis-parallel in at least one axis.
        if (rng.nextBounded(3) == 0)
            (&ray.dir.x)[rng.nextBounded(3)] = 0.0f;
        if (rng.nextBounded(4) == 0)
            ray.tmax = rng.uniform(0.5f, 10.0f);

        int count = 1 + static_cast<int>(rng.nextBounded(8));
        float tenter[8];
        uint32_t mask = rayBoxBatch(ray, wide, count, tenter);
        ASSERT_EQ(mask >> count, 0u) << "lanes beyond count leaked";
        for (int i = 0; i < count; ++i) {
            auto hit = rayBox(ray, boxes[i]);
            ASSERT_EQ((mask >> i) & 1u, hit.has_value() ? 1u : 0u)
                << "iter " << iter << " lane " << i;
            if (hit) {
                ASSERT_EQ(tenter[i], hit->tenter)
                    << "iter " << iter << " lane " << i;
            }
        }
    }
}

TEST_P(SimdBatchProperty, PointInBoxBatchMatchesContains)
{
    Rng rng(GetParam() * 2654435761ull + 7);
    for (int iter = 0; iter < 300; ++iter) {
        Aabb boxes[8];
        for (auto &box : boxes)
            box = randomLaneBox(rng);
        WideBoxes wide = packBoxes(boxes);
        Vec3 p{rng.uniform(-10, 10), rng.uniform(-10, 10),
               rng.uniform(-10, 10)};
        // Occasionally place the point exactly on a lane's face to pin
        // the inclusive (>= / <=) boundary semantics.
        if (rng.nextBounded(3) == 0)
            p.x = boxes[rng.nextBounded(8)].lo.x;

        int count = 1 + static_cast<int>(rng.nextBounded(8));
        uint32_t mask = pointInBoxBatch(p, wide, count);
        ASSERT_EQ(mask >> count, 0u);
        for (int i = 0; i < count; ++i) {
            ASSERT_EQ((mask >> i) & 1u, boxes[i].contains(p) ? 1u : 0u)
                << "iter " << iter << " lane " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdBatchProperty,
                         ::testing::Values(31, 32, 33, 34, 35));
