/**
 * @file
 * LumiBench-like ray-tracing workload (Sections IV-A / V-B).
 *
 * Renders procedural scenes through the accelerator in *waves*: primary
 * rays, then workload-specific secondary rays (bounces, AO, shadow,
 * reflection) derived host-side from reference results so every hardware
 * level traces identical ray sets and results stay comparable.
 *
 * Evaluated configurations:
 *  - BaselineRta: fixed-function Ray-Box/Ray-Triangle + Transform;
 *    ray-sphere (WKND_PT) and alpha-masked leaves bounce to intersection
 *    shaders. The Fig 16 "1.0" reference.
 *  - TtaPlus: every node test as a uop program (the Fig 16 ~8% average
 *    slowdown from serialized OP units + interconnect).
 *  - *WKND_PT: TtaPlus with RtOptions::offloadSpheres — ray-sphere tests
 *    execute natively in the OP units (SQRT unit), eliminating the
 *    intersection shader.
 *  - *SHIP_SH: TtaPlus with RtOptions::sato — Surface Area Traversal
 *    Order for any-hit rays, a software traversal-order optimization the
 *    programmable OP Dest Tables enable.
 *
 * A divergent SIMT-core path tracer kernel provides the "GPU without
 * RTA" datapoint for Fig 1 / Fig 6 (single-level triangle scenes).
 *
 * The figure workload and the service's ray tenant share the kind's
 * pieces: one immutable RtScene (serialize() returns where it placed
 * the scene, so one scene serves any number of devices), the
 * PinholeCamera both derive primary rays from, the reference rule
 * RtScene::reference, and RayLanes, the result layout and tie-tolerant
 * check.
 */

#ifndef TTA_WORKLOADS_RAYTRACING_WORKLOAD_HH
#define TTA_WORKLOADS_RAYTRACING_WORKLOAD_HH

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "api/tta_api.hh"
#include "geom/ray.hh"
#include "rta/traversal_spec.hh"
#include "trees/bvh.hh"
#include "workloads/metrics.hh"
#include "workloads/scenes.hh"

namespace tta::workloads {

struct RtOptions
{
    bool sato = false;           //!< *SHIP_SH
    bool offloadSpheres = false; //!< *WKND_PT
};

/** One traced ray plus its traversal mode. */
struct RtRay
{
    geom::Ray ray;
    bool anyHit = false;
};

/** Host-side reference result for one ray. */
struct RtHit
{
    bool hit = false;
    float t = 0.0f;
    uint32_t prim = UINT32_MAX;
    uint32_t instance = UINT32_MAX;
};

/** Where RtScene::serialize placed a scene in one device's memory. */
struct RtSceneImage
{
    rta::NodeRef root = 0;          //!< TLAS, or the sole BLAS
    std::vector<uint64_t> triBase;  //!< per mesh: triangle records
    uint64_t sphereBase = 0;        //!< sphere records (sphere scenes)
    uint64_t instanceBase = 0;      //!< instance records (two-level)
};

/** Host scene: BVHs, reference intersector and device serializer.
 *  Immutable once built, so one scene serves every device. */
class RtScene
{
  public:
    RtScene(SceneKind kind, uint64_t seed);

    /** Serialize all BLASes, primitives, TLAS and instance records. */
    RtSceneImage serialize(mem::GlobalMemory &gmem) const;

    const SceneGeometry &geometry() const { return geometry_; }
    SceneKind kind() const { return kind_; }

    RtHit closestHit(const geom::Ray &ray) const;
    /** The host reference for @p r: any-hit rays record only whether
     *  they hit, closest-hit rays the hit itself. */
    RtHit reference(const RtRay &r) const;

    /** Deterministic alpha test shared by reference and spec. */
    static bool alphaPass(uint32_t mesh, uint32_t prim);

    /** Node-reference encoding helpers (see RtSpec). */
    static constexpr uint64_t kEnterInstanceBit = 1ull << 33;
    static constexpr uint64_t kRestoreBit = 1ull << 34;

  private:
    SceneKind kind_;
    SceneGeometry geometry_;
    std::vector<trees::Bvh> meshBvhs_;
    std::unique_ptr<trees::Bvh> tlas_;
};

/** The scene's pinhole camera, shared by every generator of primary
 *  rays. */
class PinholeCamera
{
  public:
    explicit PinholeCamera(const SceneGeometry &g);

    /** Image-plane half height: the plane spans [-h, h] vertically. */
    float halfHeight() const { return halfHeight_; }

    /** The primary ray through image-plane point (@p sx, @p sy). */
    RtRay ray(float sx, float sy) const;

  private:
    geom::Vec3 origin_;
    geom::Vec3 forward_;
    geom::Vec3 right_;
    geom::Vec3 up_;
    float halfHeight_;
};

/**
 * Buffers of a ray launch. The spec reads lane i's ray from the host
 * array `rays`, and finishRay writes an 8-byte record at resultBase + 8i:
 * the closest t (-1 for a miss), then the hit primitive. Traversal order
 * may tie on equal-t hits, so the check compares t within a relative
 * epsilon and a launch passes with up to tolerance(n) mismatches.
 */
struct RayLanes
{
    std::vector<RtRay> rays;
    uint64_t resultBase = 0;

    /** Size the ray array and allocate the result buffer for @p n
     *  lanes. */
    static RayLanes alloc(mem::GlobalMemory &gmem, size_t n);

    /** Stage lane @p i's ray, and pre-fill its result as a miss. */
    void
    stage(mem::GlobalMemory &gmem, size_t i, const RtRay &r)
    {
        rays[i] = r;
        gmem.write<float>(resultBase + 8 * i, -1.0f);
        gmem.write<uint32_t>(resultBase + 8 * i + 4, UINT32_MAX);
    }

    /** Lanes among [0, @p n) whose result disagrees with the reference
     *  hit @p expected(i): a hit where it misses or the reverse, or a
     *  closest-hit t off by more than 1e-3 * max(1, t). */
    template <class Expected>
    size_t
    mismatches(const mem::GlobalMemory &gmem, size_t n,
               Expected &&expected) const
    {
        size_t bad = 0;
        for (size_t i = 0; i < n; ++i) {
            float t = gmem.read<float>(resultBase + 8 * i);
            bool hit = t >= 0.0f;
            const RtHit &ref = expected(i);
            if (hit != ref.hit)
                ++bad;
            else if (hit && !rays[i].anyHit &&
                     std::fabs(t - ref.t) > 1e-3f * std::max(1.0f, ref.t))
                ++bad;
        }
        return bad;
    }

    /** Mismatches a launch of @p n lanes may have and still pass. */
    static size_t tolerance(size_t n) { return n / 256 + 2; }
};

/** Accelerator-side spec: full RT traversal with two-level support. */
class RtSpec : public rta::TraversalSpec
{
  public:
    /** @param image where @p scene sits in @p gmem (RtScene::serialize).
     *  @param rays  lane i traces rays[i]. */
    RtSpec(mem::GlobalMemory &gmem, const RtScene &scene,
           RtSceneImage image, const std::vector<RtRay> &rays,
           uint64_t result_base, RtOptions options);

    void initRay(rta::RayState &ray, uint32_t lane_operand) override;
    void fetchLines(const rta::RayState &ray, rta::NodeRef ref,
                    std::vector<uint64_t> &lines) const override;
    rta::NodeOutcome processNode(rta::RayState &ray,
                                 rta::NodeRef ref) override;
    void finishRay(rta::RayState &ray) override;

    const ttaplus::Program &innerProgram() const override
    {
        return innerProg_;
    }
    const ttaplus::Program &leafProgram() const override
    {
        return leafProg_;
    }

  private:
    void processTriangleLeaf(rta::RayState &ray, uint64_t leaf,
                             rta::NodeOutcome &out);
    void processSphereLeaf(rta::RayState &ray, uint64_t leaf,
                           rta::NodeOutcome &out);

    mem::GlobalMemory *gmem_;
    const RtScene *scene_;
    RtSceneImage image_;
    const std::vector<RtRay> *rays_;
    uint64_t resultBase_;
    RtOptions options_;
    ttaplus::Program innerProg_;
    ttaplus::Program leafProg_;
};

class RayTracingWorkload
{
  public:
    RayTracingWorkload(SceneKind kind, uint32_t width = 64,
                       uint32_t height = 64, uint64_t seed = 1);

    /** Run all ray waves through the accelerator at cfg.accelMode. */
    RunMetrics runAccelerated(const sim::Config &cfg,
                              sim::StatRegistry &stats,
                              RtOptions options = {});

    /** Divergent path on the SIMT cores (primary wave only); only valid
     *  for single-level triangle scenes. */
    RunMetrics runBaselineCores(const sim::Config &cfg,
                                sim::StatRegistry &stats);

    SceneKind kind() const { return kind_; }
    size_t totalRays() const;
    const RtScene &scene() const { return *scene_; }

    /**
     * Grayscale depth image from the primary-wave reference hits
     * (the same values every verified device run reproduced).
     * @param pixels width*height bytes, row-major.
     */
    void renderDepth(uint8_t *pixels, float *tmin_out = nullptr,
                     float *tmax_out = nullptr) const;

    static api::TtaPipeline makePipeline(SceneKind kind,
                                         const RtOptions &options);
    static gpu::KernelProgram buildBaselineKernel();

    /** @p n closest-hit rays through uniformly jittered points of the
     *  scene camera's square image-plane window, drawn from @p seed. */
    static std::vector<RtRay> randomPrimaryRays(const RtScene &scene,
                                                size_t n, uint64_t seed);

  private:
    std::vector<RtRay> primaryRays() const;
    /** Derive the next wave from reference results; empty when done. */
    std::vector<RtRay> nextWave(int wave, const std::vector<RtRay> &prev,
                                const std::vector<RtHit> &hits) const;

    SceneKind kind_;
    uint32_t width_;
    uint32_t height_;
    uint64_t seed_;
    std::unique_ptr<RtScene> scene_;
    std::vector<std::vector<RtRay>> waves_;
    std::vector<std::vector<RtHit>> waveHits_; //!< reference per wave
};

} // namespace tta::workloads

#endif // TTA_WORKLOADS_RAYTRACING_WORKLOAD_HH
