/**
 * @file
 * perfbench: end-to-end and per-layer benchmark of the simulator and of
 * the traversal service built on it.
 *
 *   perfbench --workload fig-sim|tree-setup|serve-mix|serve-fleet
 *             --seed N --seconds S --trace 0|1 [--smoke] [--out DIR]
 *
 * One "rep" runs a whole workload once. The command repeats reps for S
 * seconds (at least kMinReps) and reports medians. Inputs (keys, query
 * points, bodies) are generated here from --seed and handed to the
 * library; the library never sees the seed of a figure workload.
 *
 * The benchmark times the calls it makes into each layer's public API
 * (tree constructors, serialize, TtaDevice / Gpu construction,
 * bindPipeline, cmdTraverseTree / Gpu::runKernel, host reference and
 * verify, TraversalService::run). Inside the service it times tenant
 * install / writeBatch / verifyBatch through subclasses of the shipped
 * tenants, and traffic through a decorator around TrafficGen.
 *
 * --trace 0 prints the end-to-end metrics, measured with tracing off.
 * --trace 1 alternates untraced and traced reps and prints the
 * per-layer metrics of the traced reps plus the tracing overhead. Spans
 * are kept in memory and written as a Chrome trace into --out at exit.
 *
 * Every rep also folds each launch's complete StatRegistry dump (in
 * launch order) into a digest, and the device result buffers into a
 * checksum. Both must repeat across reps and across traced / untraced
 * reps; two commits compare their simulated statistics by comparing
 * the printed digests. A verify mismatch beyond a tenant's tolerance
 * makes the command exit 1.
 *
 * The last stdout line is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * perfbench/README.md documents every workload and metric.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/tta_api.hh"
#include "geom/simd.hh"
#include "gpu/gpu.hh"
#include "mem/global_memory.hh"
#include "service/service.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"
#include "trees/btree.hh"
#include "trees/octree.hh"
#include "trees/pointcloud.hh"
#include "workloads/btree_workload.hh"
#include "workloads/nbody_workload.hh"
#include "workloads/rtnn_workload.hh"

namespace {

using namespace ::tta;
using service::QueryTicket;
using service::ServiceDevice;

constexpr int kExitUsage = 64;
constexpr int kMinReps = 3;

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- inputs ------------------------------------------------------------

/** splitmix64: the benchmark's own input generator, so inputs do not
 *  change when the library's RNG does. */
class InputRng
{
  public:
    explicit InputRng(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    uint64_t below(uint64_t n) { return next() % n; }
    double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    float
    uniform(float lo, float hi)
    {
        return lo + static_cast<float>(unit()) * (hi - lo);
    }
    float
    gaussian()
    {
        double u1 = std::max(unit(), 1e-300);
        return static_cast<float>(std::sqrt(-2.0 * std::log(u1)) *
                                  std::cos(6.283185307179586 * unit()));
    }

  private:
    uint64_t s_;
};

/** Seed of one input stream of a workload: distinct per stream. */
uint64_t
streamSeed(uint64_t seed, uint64_t stream)
{
    return InputRng(seed * 0x100000001b3ull + stream).next();
}

/** Even-integer float keys (exact), offset so key sets can be disjoint;
 *  odd integers are guaranteed misses. */
std::vector<float>
makeKeys(size_t n, size_t offset = 0)
{
    std::vector<float> keys(n);
    for (size_t i = 0; i < n; ++i)
        keys[i] = 2.0f * static_cast<float>(offset + i + 1);
    return keys;
}

/** Point lookups, half hits, half misses. */
std::vector<float>
makeKeyQueries(size_t n_keys, size_t n, uint64_t seed, size_t offset = 0)
{
    InputRng rng(seed);
    std::vector<float> q(n);
    for (float &v : q) {
        float k = 2.0f * static_cast<float>(offset + rng.below(n_keys) + 1);
        v = rng.unit() < 0.5 ? k : k - 1.0f;
    }
    return q;
}

/** A LiDAR-like frame: ground plane, object clusters, background. */
std::vector<geom::Vec3>
makeCloud(size_t n, uint64_t seed)
{
    InputRng rng(seed);
    // Object clusters on a jittered 8x8 grid: the density structure,
    // and with it the per-query search cost, is alike across seeds.
    std::vector<geom::Vec3> centers;
    for (int i = 0; i < 8; ++i)
        for (int j = 0; j < 8; ++j)
            centers.push_back({-56.0f + 16.0f * i + rng.uniform(-4.0f, 4.0f),
                               -56.0f + 16.0f * j + rng.uniform(-4.0f, 4.0f),
                               rng.uniform(0.5f, 2.0f)});
    std::vector<geom::Vec3> pts(n);
    for (geom::Vec3 &p : pts) {
        double pick = rng.unit();
        if (pick < 0.6) {
            p = {rng.uniform(-80.0f, 80.0f), rng.uniform(-80.0f, 80.0f),
                 0.05f * rng.gaussian()};
        } else if (pick < 0.85) {
            const geom::Vec3 &c = centers[rng.below(centers.size())];
            // Uniform in a 2 x 2 x 1 m ellipsoid: flat density, so no
            // query lands in a core far denser than the rest and the
            // slowest query of a small batch costs about the same for
            // every seed.
            float u, v, w;
            do {
                u = rng.uniform(-1.0f, 1.0f);
                v = rng.uniform(-1.0f, 1.0f);
                w = rng.uniform(-1.0f, 1.0f);
            } while (u * u + v * v + w * w > 1.0f);
            p = {c.x + 2.0f * u, c.y + 2.0f * v, c.z + w};
        } else {
            p = {rng.uniform(-80.0f, 80.0f), rng.uniform(-80.0f, 80.0f),
                 rng.uniform(0.0f, 6.0f)};
        }
    }
    return pts;
}

/** Radius queries: mostly jittered cloud points, the rest uniform. */
std::vector<geom::Vec3>
makeCloudQueries(const std::vector<geom::Vec3> &cloud, size_t n,
                 uint64_t seed)
{
    InputRng rng(seed);
    std::vector<geom::Vec3> q(n);
    for (geom::Vec3 &v : q) {
        if (rng.unit() < 0.7) {
            const geom::Vec3 &p = cloud[rng.below(cloud.size())];
            v = {p.x + 0.3f * rng.gaussian(), p.y + 0.3f * rng.gaussian(),
                 p.z + 0.1f * rng.gaussian()};
        } else {
            v = {rng.uniform(-80.0f, 80.0f), rng.uniform(-80.0f, 80.0f),
                 rng.uniform(0.0f, 6.0f)};
        }
    }
    return q;
}

/** 2D galaxy-merger bodies: two dense clusters and a diffuse halo. */
std::vector<trees::BhBody>
makeBodies(size_t n, uint64_t seed)
{
    InputRng rng(seed);
    std::vector<trees::BhBody> bodies(n);
    for (trees::BhBody &b : bodies) {
        double pick = rng.unit();
        geom::Vec3 c = pick < 0.4   ? geom::Vec3(-4.0f, 0.0f, 0.0f)
                       : pick < 0.8 ? geom::Vec3(4.0f, 2.0f, 0.0f)
                                    : geom::Vec3(0.0f);
        float spread = pick < 0.8 ? 1.2f : 8.0f;
        b.pos = {c.x + spread * rng.gaussian(),
                 c.y + spread * rng.gaussian(), 0.0f};
        b.mass = rng.uniform(0.5f, 2.0f);
    }
    return bodies;
}

// --- hashing -----------------------------------------------------------

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t
fnv(const void *data, size_t n, uint64_t h = kFnvBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ull;
    return h;
}

uint64_t
fnv(const std::string &s, uint64_t h = kFnvBasis)
{
    return fnv(s.data(), s.size(), h);
}

// --- layer spans -------------------------------------------------------

enum Layer : unsigned
{
    kTreesBuild,
    kReference,
    kVerify,
    kDeviceInit,
    kSerialize,
    kStage,
    kLaunch,
    kTraffic,
    kServe,
    kNumLayers
};

constexpr const char *kLayerName[kNumLayers] = {
    "trees.build",   "workloads.reference", "workloads.verify",
    "api.device_init", "api.serialize",     "service.stage",
    "sim.launch",    "service.traffic",     "service.run",
};

/**
 * Host time per layer. Sums are atomic because service verify spans
 * run on the device worker threads. With spans on, every span is also
 * kept in memory (name, start, end, thread, the launch or tenant that
 * caused it) for the trace written at exit.
 */
class Recorder
{
  public:
    struct Span
    {
        Layer layer;
        double start;
        double end;
        uint64_t thread;
        std::string cause;
        uint64_t cycles; //!< launches: elapsed simulated cycles
    };

    class Scope
    {
      public:
        Scope(Recorder &rec, Layer layer, std::string cause = {})
            : rec_(rec), layer_(layer), cause_(std::move(cause)),
              start_(nowSec())
        {}
        ~Scope() { rec_.add(layer_, start_, nowSec(), std::move(cause_)); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Recorder &rec_;
        Layer layer_;
        std::string cause_;
        double start_;
    };

    explicit Recorder(bool spans) : spans_(spans) {}

    bool tracing() const { return spans_; }

    void
    add(Layer layer, double start, double end, std::string cause = {},
        uint64_t cycles = 0)
    {
        addNs(layer, static_cast<int64_t>((end - start) * 1e9));
        if (!spans_)
            return;
        uint64_t tid = std::hash<std::thread::id>{}(
            std::this_thread::get_id());
        std::lock_guard<std::mutex> lock(mu_);
        log_.push_back({layer, start, end, tid, std::move(cause), cycles});
    }

    void
    addNs(Layer layer, int64_t ns)
    {
        ns_[layer].fetch_add(ns, std::memory_order_relaxed);
    }

    double
    seconds(Layer layer) const
    {
        return 1e-9 * static_cast<double>(
                          ns_[layer].load(std::memory_order_relaxed));
    }

    std::vector<Span> takeSpans() { return std::move(log_); }

  private:
    const bool spans_;
    std::atomic<int64_t> ns_[kNumLayers] = {};
    std::mutex mu_; //!< guards log_
    std::vector<Span> log_;
};

using Scope = Recorder::Scope;

// --- simulated totals --------------------------------------------------

/** Counters of the modelled components, summed over launches. */
struct SimTotals
{
    uint64_t warpInsts = 0, activeLanes = 0;
    uint64_t stallIssue = 0, stallMem = 0, stallAccel = 0, stallExec = 0;
    uint64_t nodesVisited = 0, nodeBytes = 0;
    uint64_t uops = 0, tests = 0;
    uint64_t l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
    uint64_t dramReads = 0, dramBytes = 0;

    void
    add(const sim::StatRegistry &s)
    {
        warpInsts += s.counterValue("core.issued");
        activeLanes += s.counterValue("core.active_lane_sum");
        stallIssue += s.counterValue("core.stall_issue");
        stallMem += s.counterValue("core.stall_mem");
        stallAccel += s.counterValue("core.stall_accel");
        stallExec += s.counterValue("core.stall_exec");
        nodesVisited += s.counterValue("rta.nodes_visited");
        nodeBytes += s.counterValue("rta.node_bytes_fetched");
        uops += s.counterValue("ttaplus.uops");
        tests += s.counterValue("ttaplus.tests");
        l2Hits += s.counterValue("l2.hits");
        l2Misses += s.counterValue("l2.misses");
        dramReads += s.counterValue("dram.reads");
        dramBytes += s.counterValue("dram.bytes_read") +
                     s.counterValue("dram.bytes_written");
        for (const auto &[name, c] : s.counters()) {
            if (name.rfind("sm", 0) != 0)
                continue;
            if (name.size() > 9 &&
                name.compare(name.size() - 9, 9, ".l1d.hits") == 0)
                l1Hits += c.value();
            else if (name.size() > 11 &&
                     name.compare(name.size() - 11, 11, ".l1d.misses") == 0)
                l1Misses += c.value();
        }
    }
};

// --- one rep -----------------------------------------------------------

/** Everything one rep measured. */
struct Rep
{
    explicit Rep(bool spans) : rec(spans) {}

    Recorder rec;
    double wall = 0.0;  //!< host seconds, whole rep
    double serve = 0.0; //!< host seconds launching / serving / verifying
    uint64_t queries = 0;
    uint64_t failed = 0;
    uint64_t deviceCycles = 0; //!< sum of launch elapsed cycles
    uint64_t makespan = 0;     //!< simulated span the queries completed in
    std::vector<uint64_t> latency; //!< cycles, one per completed query
    uint64_t digest = kFnvBasis;   //!< every simulated stat, launch order
    uint64_t results = 0;          //!< checksum of device result buffers
    SimTotals sim;
    uint64_t treeNodes = 0;
    uint64_t devices = 0;
    uint64_t serializedBytes = 0; //!< GlobalMemory::allocTop, summed
    double workerCpu = 0.0;       //!< service: device worker CPU seconds
    // Service view (figure workloads: one batch per launch).
    uint64_t batches = 0;
    uint64_t expired = 0;
    double deviceUtil = 1.0;
    double queueWaitP99Cycles = 0.0;
};

sim::Config
modeConfig(sim::AccelMode mode)
{
    sim::Config cfg;
    cfg.accelMode = mode;
    return cfg;
}

/** A fresh device for one figure-style launch: the SIMT-only Gpu for
 *  the software baseline, a TtaDevice otherwise. */
struct Device
{
    Device(Rep &rep, const sim::Config &cfg, sim::StatRegistry &stats,
           const std::string &cause)
    {
        Scope s(rep.rec, kDeviceInit, cause);
        if (cfg.accelMode == sim::AccelMode::BaselineGpu)
            gpu = std::make_unique<gpu::Gpu>(cfg, stats);
        else
            tta = std::make_unique<api::TtaDevice>(cfg, stats);
        ++rep.devices;
    }

    mem::GlobalMemory &memory() { return gpu ? gpu->memory() : tta->memory(); }

    std::unique_ptr<gpu::Gpu> gpu;
    std::unique_ptr<api::TtaDevice> tta;
};

/** Book-keeping after one figure-style launch. Every query of a launch
 *  is submitted at its start and read back at its end, so its latency
 *  is the launch's elapsed cycles. */
void
finishLaunch(Rep &rep, const std::string &name,
             const sim::StatRegistry &stats, sim::Cycle cycles,
             uint64_t queries, uint64_t bad, mem::GlobalMemory &gmem,
             uint64_t result_base, size_t result_bytes)
{
    rep.digest = fnv("launch " + name + "\n", rep.digest);
    rep.digest = fnv(stats.dumpString(), rep.digest);
    std::vector<uint8_t> buf(result_bytes);
    gmem.readBytes(result_base, buf.data(), buf.size());
    rep.results = fnv(buf.data(), buf.size(), rep.results ^ cycles);
    rep.sim.add(stats);
    rep.serializedBytes += gmem.allocTop();
    rep.deviceCycles += cycles;
    rep.makespan += cycles;
    rep.queries += queries;
    rep.failed += bad;
    rep.batches += 1;
    rep.latency.insert(rep.latency.end(), queries, cycles);
}

/** Times a launch (@p fn returns its elapsed cycles) or a verify (@p fn
 *  returns its mismatch count): the serving part of a figure rep. */
template <class Fn>
uint64_t
timedServe(Rep &rep, Layer layer, const std::string &cause, Fn &&fn)
{
    double t0 = nowSec();
    uint64_t r = fn();
    double t1 = nowSec();
    rep.rec.add(layer, t0, t1, cause, layer == kLaunch ? r : 0);
    rep.serve += t1 - t0;
    return r;
}

// --- figure-style launches --------------------------------------------

struct BTreeCase
{
    const trees::BTree *tree = nullptr;
    std::vector<float> queries;
    std::vector<uint8_t> expected;
};

void
launchBTree(Rep &rep, const std::string &name, sim::AccelMode mode,
            const BTreeCase &c)
{
    sim::StatRegistry stats;
    sim::Config cfg = modeConfig(mode);
    Device dev(rep, cfg, stats, name);
    mem::GlobalMemory &gmem = dev.memory();
    uint64_t n = c.queries.size();
    uint64_t root, qbase, rbase;
    gpu::KernelProgram kernel;
    api::TtaPipeline pipeline = workloads::BTreeWorkload::makePipeline();
    std::unique_ptr<workloads::BTreeSpec> spec;
    {
        Scope s(rep.rec, kSerialize, name);
        root = c.tree->serialize(gmem);
        qbase = gmem.alloc(n * 4, 128);
        rbase = gmem.alloc(n * 4, 128);
        if (dev.tta) {
            spec = std::make_unique<workloads::BTreeSpec>(gmem, root, qbase,
                                                          rbase);
            dev.tta->bindPipeline(pipeline, spec.get());
        } else {
            kernel = workloads::BTreeWorkload::buildBaselineKernel();
        }
    }
    {
        Scope s(rep.rec, kStage, name);
        for (uint64_t q = 0; q < n; ++q) {
            gmem.write<float>(qbase + 4 * q, c.queries[q]);
            gmem.write<uint32_t>(rbase + 4 * q, 0xdeadbeefu);
        }
    }
    sim::Cycle cycles = timedServe(rep, kLaunch, name, [&] {
        if (dev.tta)
            return dev.tta->cmdTraverseTree(n);
        return dev.gpu->runKernel(kernel, n,
                                  {static_cast<uint32_t>(qbase),
                                   static_cast<uint32_t>(rbase),
                                   static_cast<uint32_t>(root)});
    });
    uint64_t bad = timedServe(rep, kVerify, name, [&] {
        uint64_t b = 0;
        for (uint64_t q = 0; q < n; ++q)
            b += gmem.read<uint32_t>(rbase + 4 * q) != c.expected[q];
        return b;
    });
    finishLaunch(rep, name, stats, cycles, n, bad, gmem, rbase, n * 4);
}

struct CloudCase
{
    const trees::PointCloud *cloud = nullptr;
    const trees::RadiusSearchIndex *index = nullptr;
    float radius = 1.0f;
    std::vector<geom::Vec3> queries;
    std::vector<uint32_t> expected;
};

/** Per-warp traversal stack of the baseline RTNN kernel (64 levels x
 *  128B; the kernel's stack-base parameter ABI). */
constexpr uint64_t kRtnnStackBytesPerWarp = 8192;

/** RTNN radius counting. TTA and TTA+ offload the leaf distance test
 *  (*RTNN); the baseline RTA runs it in an intersection shader; the
 *  software baseline runs the SIMT kernel. */
void
launchRtnn(Rep &rep, const std::string &name, sim::AccelMode mode,
           const CloudCase &c)
{
    sim::StatRegistry stats;
    sim::Config cfg = modeConfig(mode);
    Device dev(rep, cfg, stats, name);
    mem::GlobalMemory &gmem = dev.memory();
    uint64_t n = c.queries.size();
    trees::SerializedBvh sbvh;
    uint64_t pbase, qbase, rbase, stack = 0;
    gpu::KernelProgram kernel;
    bool offload = mode == sim::AccelMode::Tta ||
                   mode == sim::AccelMode::TtaPlus;
    api::TtaPipeline pipeline =
        workloads::RtnnWorkload::makePipeline(offload);
    std::unique_ptr<workloads::RtnnSpec> spec;
    {
        Scope s(rep.rec, kSerialize, name);
        sbvh = c.index->bvh().serialize(gmem);
        pbase = c.cloud->serialize(gmem);
        qbase = gmem.alloc(n * trees::PointLayout::kPointBytes, 128);
        rbase = gmem.alloc(n * 4, 128);
        if (dev.tta) {
            spec = std::make_unique<workloads::RtnnSpec>(
                gmem, sbvh, pbase, qbase, rbase, c.radius, offload);
            dev.tta->bindPipeline(pipeline, spec.get());
        } else {
            stack = gmem.alloc((n + 31) / 32 * kRtnnStackBytesPerWarp, 128);
            kernel = workloads::RtnnWorkload::buildBaselineKernel();
        }
    }
    {
        Scope s(rep.rec, kStage, name);
        for (uint64_t q = 0; q < n; ++q) {
            uint64_t a = qbase + q * trees::PointLayout::kPointBytes;
            gmem.write<float>(a + 0, c.queries[q].x);
            gmem.write<float>(a + 4, c.queries[q].y);
            gmem.write<float>(a + 8, c.queries[q].z);
            gmem.write<uint32_t>(rbase + 4 * q, 0xdeadbeefu);
        }
    }
    sim::Cycle cycles = timedServe(rep, kLaunch, name, [&] {
        if (dev.tta)
            return dev.tta->cmdTraverseTree(n);
        float r2 = c.radius * c.radius;
        uint32_t r2_bits;
        std::memcpy(&r2_bits, &r2, sizeof r2_bits);
        return dev.gpu->runKernel(
            kernel, n,
            {static_cast<uint32_t>(qbase), sbvh.root.raw, r2_bits,
             static_cast<uint32_t>(stack), static_cast<uint32_t>(pbase),
             static_cast<uint32_t>(rbase)});
    });
    uint64_t bad = timedServe(rep, kVerify, name, [&] {
        uint64_t b = 0;
        for (uint64_t q = 0; q < n; ++q)
            b += gmem.read<uint32_t>(rbase + 4 * q) != c.expected[q];
        return b;
    });
    finishLaunch(rep, name, stats, cycles, n, bad, gmem, rbase, n * 4);
}

struct NBodyCase
{
    trees::BarnesHutTree *tree = nullptr; //!< serialize() records bases
    std::vector<geom::Vec3> expected;
};

/** Barnes-Hut force pass, one query per body. */
void
launchNBody(Rep &rep, const std::string &name, sim::AccelMode mode,
            const NBodyCase &c)
{
    sim::StatRegistry stats;
    sim::Config cfg = modeConfig(mode);
    Device dev(rep, cfg, stats, name);
    mem::GlobalMemory &gmem = dev.memory();
    uint64_t n = c.tree->numBodies();
    uint64_t root, rbase;
    api::TtaPipeline pipeline = workloads::NBodyWorkload::makePipeline(2);
    std::unique_ptr<workloads::NBodySpec> spec;
    {
        Scope s(rep.rec, kSerialize, name);
        root = c.tree->serialize(gmem);
        rbase = gmem.alloc(n * 12, 128);
        spec = std::make_unique<workloads::NBodySpec>(
            gmem, root, c.tree->bodyBase(), rbase);
        dev.tta->bindPipeline(pipeline, spec.get());
    }
    {
        Scope s(rep.rec, kStage, name);
        for (uint64_t i = 0; i < 3 * n; ++i)
            gmem.write<float>(rbase + 4 * i, 0.0f);
    }
    sim::Cycle cycles = timedServe(
        rep, kLaunch, name, [&] { return dev.tta->cmdTraverseTree(n); });
    // Same relative tolerance as NBodyWorkload: the device accumulates
    // force terms in traversal order, the reference in its own.
    uint64_t bad = timedServe(rep, kVerify, name, [&] {
        uint64_t b = 0;
        for (uint64_t i = 0; i < n; ++i) {
            geom::Vec3 got = {gmem.read<float>(rbase + 12 * i + 0),
                              gmem.read<float>(rbase + 12 * i + 4),
                              gmem.read<float>(rbase + 12 * i + 8)};
            float mag = geom::length(c.expected[i]) + 1e-3f;
            b += geom::length(got - c.expected[i]) > 1e-3f * mag;
        }
        return b;
    });
    finishLaunch(rep, name, stats, cycles, n, bad, gmem, rbase, n * 12);
}

// --- workload sizes ----------------------------------------------------

struct Sizes
{
    // fig-sim
    size_t figKeys, figBaseQueries, figTtaQueries;
    size_t figPoints, figRtnnQueries, figBodies;
    // tree-setup
    size_t bigKeys, bigPoints, setupKeyQueries, setupCloudQueries;
    // serve-mix
    size_t mixKeys, mixPoints, mixArrivals;
    // serve-fleet
    size_t fleetKeys, fleetArrivals;
};

constexpr Sizes kFull = {
    100000, 32768, 196608, 32768, 24576, 8192,
    4000000, 131072, 1024, 256,
    20000, 8192, 500000,
    1000000, 400000,
};

constexpr Sizes kSmoke = {
    4000, 512, 2048, 2048, 1024, 512,
    20000, 4096, 256, 64,
    2000, 1024, 5000,
    20000, 5000,
};

// --- workloads ---------------------------------------------------------

/** Inputs of the figure workloads, generated once per process. */
struct FigInputs
{
    std::vector<float> keys;
    std::vector<float> baseQueries, ttaQueries;
    std::vector<geom::Vec3> points, cloudQueries;
    std::vector<trees::BhBody> bodies;
};

/** Host reference answers for B-Tree lookups. */
BTreeCase
btreeCase(Rep &rep, const trees::BTree &tree, std::vector<float> queries)
{
    BTreeCase c;
    c.tree = &tree;
    Scope s(rep.rec, kReference);
    c.expected.resize(queries.size());
    for (size_t q = 0; q < queries.size(); ++q)
        c.expected[q] = tree.search(queries[q]).found ? 1 : 0;
    c.queries = std::move(queries);
    return c;
}

CloudCase
cloudCase(Rep &rep, const trees::PointCloud &cloud,
          const trees::RadiusSearchIndex &index,
          std::vector<geom::Vec3> queries)
{
    CloudCase c;
    c.cloud = &cloud;
    c.index = &index;
    c.radius = index.radius();
    Scope s(rep.rec, kReference);
    c.expected.reserve(queries.size());
    for (const geom::Vec3 &q : queries)
        c.expected.push_back(static_cast<uint32_t>(index.query(q).size()));
    c.queries = std::move(queries);
    return c;
}

/**
 * fig-sim: a serial figure-style sweep, a fresh device per config:
 * B-Tree on the SIMT baseline and on TTA, *RTNN on TTA, 2D N-Body on
 * TTA+. Sized so the launches carry almost all host time.
 */
void
runFigSim(Rep &rep, const FigInputs &in)
{
    std::unique_ptr<trees::BTree> tree;
    trees::PointCloud cloud;
    std::unique_ptr<trees::RadiusSearchIndex> index;
    std::unique_ptr<trees::BarnesHutTree> bh;
    {
        Scope s(rep.rec, kTreesBuild);
        tree = std::make_unique<trees::BTree>(trees::BTreeKind::BTree,
                                              in.keys);
        cloud.points = in.points;
        index = std::make_unique<trees::RadiusSearchIndex>(cloud, 1.0f);
        bh = std::make_unique<trees::BarnesHutTree>(2, in.bodies, 0.75f, 1);
    }
    rep.treeNodes += tree->numNodes() + index->bvh().nodes().size() +
                     bh->numNodes();
    BTreeCase base = btreeCase(rep, *tree, in.baseQueries);
    BTreeCase tta = btreeCase(rep, *tree, in.ttaQueries);
    CloudCase rtnn = cloudCase(rep, cloud, *index, in.cloudQueries);
    NBodyCase nbody;
    nbody.tree = bh.get();
    {
        Scope s(rep.rec, kReference);
        for (const trees::BhBody &b : bh->orderedBodies())
            nbody.expected.push_back(
                bh->referenceForce(b.pos, workloads::NBodySpec::kSoftening)
                    .accel);
    }
    launchBTree(rep, "btree/base", sim::AccelMode::BaselineGpu, base);
    launchBTree(rep, "btree/tta", sim::AccelMode::Tta, tta);
    launchRtnn(rep, "rtnn*/tta", sim::AccelMode::Tta, rtnn);
    launchNBody(rep, "nbody2d/tta+", sim::AccelMode::TtaPlus, nbody);
}

struct TreeSetupInputs
{
    std::vector<float> keys, queries;
    std::vector<geom::Vec3> points, cloudQueries;
};

/**
 * tree-setup: paper-scale trees built once per rep (a 4M-key B-Tree and
 * a 128k-point cloud), each launched with a small batch on fresh
 * baseline, TTA and TTA+ devices, the way figure sweeps run.
 */
void
runTreeSetup(Rep &rep, const TreeSetupInputs &in)
{
    std::unique_ptr<trees::BTree> tree;
    trees::PointCloud cloud;
    std::unique_ptr<trees::RadiusSearchIndex> index;
    {
        Scope s(rep.rec, kTreesBuild);
        tree = std::make_unique<trees::BTree>(trees::BTreeKind::BTree,
                                              in.keys);
        cloud.points = in.points;
        index = std::make_unique<trees::RadiusSearchIndex>(cloud, 1.0f);
    }
    rep.treeNodes += tree->numNodes() + index->bvh().nodes().size();
    BTreeCase bt = btreeCase(rep, *tree, in.queries);
    CloudCase rt = cloudCase(rep, cloud, *index, in.cloudQueries);
    launchBTree(rep, "btree/base", sim::AccelMode::BaselineGpu, bt);
    launchBTree(rep, "btree/tta", sim::AccelMode::Tta, bt);
    launchBTree(rep, "btree/tta+", sim::AccelMode::TtaPlus, bt);
    launchRtnn(rep, "rtnn/rta", sim::AccelMode::BaselineRta, rt);
    launchRtnn(rep, "rtnn*/tta", sim::AccelMode::Tta, rt);
    launchRtnn(rep, "rtnn*/tta+", sim::AccelMode::TtaPlus, rt);
}

// --- service workloads -------------------------------------------------

/**
 * A shipped tenant with its per-batch calls timed into the rep's
 * layers: install -> api.serialize (serialize + staging alloc + slot
 * bind, one bundle), writeBatch -> service.stage, verifyBatch ->
 * workloads.verify. When @p result_bytes is non-zero, verifyBatch also
 * folds the batch's device results into the rep's checksum; the sum
 * over batches does not depend on which worker verified first.
 */
template <class Base>
class ObservedTenant : public Base
{
  public:
    template <class Data>
    ObservedTenant(std::string name, std::shared_ptr<const Data> data,
                   Rep &rep, uint32_t result_bytes)
        : Base(std::move(name), std::move(data)), rep_(rep),
          resultBytes_(result_bytes)
    {}

    void
    install(ServiceDevice &dev, uint32_t max_batch) override
    {
        Scope s(rep_.rec, kSerialize, this->name());
        Base::install(dev, max_batch);
    }

    void
    writeBatch(ServiceDevice &dev, uint32_t parity,
               const std::vector<QueryTicket> &batch) override
    {
        Scope s(rep_.rec, kStage, this->name());
        Base::writeBatch(dev, parity, batch);
    }

    size_t
    verifyBatch(const ServiceDevice &dev, uint32_t parity,
                const std::vector<QueryTicket> &batch) const override
    {
        Scope s(rep_.rec, kVerify, this->name());
        size_t bad = Base::verifyBatch(dev, parity, batch);
        if (resultBytes_) {
            std::vector<uint8_t> buf(resultBytes_ * batch.size());
            dev.memory().readBytes(
                this->bindings_[dev.index()].resultBase[parity],
                buf.data(), buf.size());
            uint64_t h = fnv(buf.data(), buf.size(),
                             kFnvBasis ^ batch.front().seq);
            results_.fetch_add(h, std::memory_order_relaxed);
        }
        return bad;
    }

    uint64_t results() const { return results_.load(); }

  private:
    Rep &rep_;
    const uint32_t resultBytes_;
    mutable std::atomic<uint64_t> results_{0};
};

/**
 * Decorator around TrafficGen: records each query's completion latency
 * (completion cycle minus arrival cycle) and, when tracing, the host
 * time spent inside the generator. Runs on the serving thread only.
 */
class ObservedTraffic : public service::TrafficSource
{
    /** Runs @p fn, adding its host time to the traffic layer when
     *  tracing (defined first: callers deduce its return type). */
    template <class Fn>
    auto
    timed(Fn &&fn) const
    {
        if (!timed_)
            return fn();
        auto t0 = std::chrono::steady_clock::now();
        auto r = fn();
        ns_ += static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        return r;
    }

  public:
    ObservedTraffic(service::TrafficGen &gen, Rep &rep)
        : gen_(gen), rep_(rep), timed_(rep.rec.tracing())
    {}
    ~ObservedTraffic() override
    {
        rep_.rec.addNs(kTraffic, static_cast<int64_t>(ns_));
    }

    sim::Cycle
    peek() const override
    {
        return timed([&] { return gen_.peek(); });
    }
    service::Arrival
    pop() override
    {
        return timed([&] { return gen_.pop(); });
    }
    bool
    exhausted() const override
    {
        return timed([&] { return gen_.exhausted(); });
    }
    void
    onCompletion(const QueryTicket &t, sim::Cycle when) override
    {
        rep_.latency.push_back(when - t.arrival);
        timed([&] {
            gen_.onCompletion(t, when);
            return 0;
        });
    }

  private:
    service::TrafficGen &gen_;
    Rep &rep_;
    const bool timed_;
    mutable double ns_ = 0.0;
};

/** CPU seconds of the whole process / of the calling thread. */
double
cpuSeconds(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return ru.ru_utime.tv_sec + ru.ru_stime.tv_sec +
           1e-6 * (ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

using ObservedBTree = ObservedTenant<service::BTreeTenant>;
using ObservedRadius = ObservedTenant<service::RadiusTenant>;
using ObservedRays = ObservedTenant<service::RayTenant>;

/** B-Tree tenant state from the benchmark's keys and payloads. The
 *  library builds its own key set from a seed; the public fields are
 *  the tenant's whole state, so they are replaced with ours. */
std::shared_ptr<const service::BTreeTenantData>
btreeTenantData(Rep &rep, std::vector<float> keys, std::vector<float> pool)
{
    auto d = std::make_shared<service::BTreeTenantData>(1, 1, 0, 0.0);
    {
        Scope s(rep.rec, kTreesBuild);
        d->tree = trees::BTree(trees::BTreeKind::BPlusTree, std::move(keys));
    }
    rep.treeNodes += d->tree.numNodes();
    Scope s(rep.rec, kReference);
    d->expected.resize(pool.size());
    for (size_t q = 0; q < pool.size(); ++q)
        d->expected[q] = d->tree.search(pool[q]).found ? 1 : 0;
    d->pool = std::move(pool);
    return d;
}

std::shared_ptr<const service::RadiusTenantData>
radiusTenantData(Rep &rep, std::vector<geom::Vec3> points,
                 std::vector<geom::Vec3> pool, float radius)
{
    auto d = std::make_shared<service::RadiusTenantData>(16, 1, radius, 0);
    {
        Scope s(rep.rec, kTreesBuild);
        d->cloud.points = std::move(points);
        // The index points at d->cloud, which never moves (heap object).
        d->index =
            std::make_unique<trees::RadiusSearchIndex>(d->cloud, radius);
    }
    rep.treeNodes += d->index->bvh().nodes().size();
    Scope s(rep.rec, kReference);
    d->expected.clear();
    for (const geom::Vec3 &q : pool)
        d->expected.push_back(
            static_cast<uint32_t>(d->index->query(q).size()));
    d->pool = std::move(pool);
    return d;
}

/** Service run shared by both serving workloads. */
void
serve(Rep &rep, service::TraversalService &svc,
      const service::TrafficConfig &tc, uint64_t traffic_seed)
{
    service::TrafficGen gen(tc, svc.numTenants(), traffic_seed);
    ObservedTraffic src(gen, rep);
    double cpu0 = cpuSeconds(RUSAGE_SELF);
    double thread0 = cpuSeconds(RUSAGE_THREAD);
    double t0 = nowSec();
    service::ServiceReport r = svc.run(src);
    double t1 = nowSec();
    rep.rec.add(kServe, t0, t1);
    rep.serve += t1 - t0;
    // Launches run on the device worker threads, out of the serving
    // thread's sight: their CPU time is what the process used beyond
    // the serving thread.
    rep.workerCpu = (cpuSeconds(RUSAGE_SELF) - cpu0) -
                    (cpuSeconds(RUSAGE_THREAD) - thread0);

    rep.queries += r.submitted;
    // Canceled and unserved queries both count: neither completed.
    rep.failed += r.submitted - r.completed;
    rep.deviceCycles += r.deviceBusy;
    rep.makespan += r.makespan;
    rep.batches += r.batches;
    rep.expired += r.expiredDispatches;
    rep.deviceUtil = r.makespan ? static_cast<double>(r.deviceBusy) /
                                      (static_cast<double>(r.makespan) *
                                       r.devices.size())
                                : 0.0;
    service::LatencyHistogram wait;
    for (const service::TenantReport &t : r.tenants)
        wait.merge(t.queueWait);
    rep.queueWaitP99Cycles = static_cast<double>(wait.percentile(99));
    rep.digest = fnv(r.batchLog, rep.digest);
    for (uint64_t lat : rep.latency)
        rep.digest = fnv(&lat, sizeof lat, rep.digest);
}

/** Digest of the service registry, which absorbed every device's. */
void
finishService(Rep &rep, const sim::StatRegistry &stats)
{
    rep.digest = fnv(stats.dumpString(), rep.digest);
    rep.sim.add(stats);
}

struct ServeInputs
{
    std::vector<std::vector<float>> keys, pools; //!< per B-Tree tenant
    std::vector<geom::Vec3> points, pointPool;
    uint64_t raySeed = 0, trafficSeed = 0;
};

/**
 * serve-mix: open-loop Poisson arrivals at poisson/mix/d2's rate over
 * the btree, radius and rays tenants; 2 devices, lld, default staging.
 */
void
runServeMix(Rep &rep, const ServeInputs &in, size_t arrivals)
{
    sim::StatRegistry stats;
    auto btree = btreeTenantData(rep, in.keys[0], in.pools[0]);
    auto radius = radiusTenantData(rep, in.points, in.pointPool, 1.0f);
    std::shared_ptr<const service::RayTenantData> rays;
    {
        // Bundle: scene build + ray pool + reference hits, one call.
        Scope s(rep.rec, kReference, "rays");
        rays = service::RayTenantData::build(
            workloads::SceneKind::CornellPt, 1024, in.raySeed);
    }
    service::ServicePolicy policy;
    policy.numDevices = 2;
    std::unique_ptr<service::TraversalService> svc;
    {
        Scope s(rep.rec, kDeviceInit);
        svc = std::make_unique<service::TraversalService>(
            modeConfig(sim::AccelMode::Tta), stats, policy);
    }
    rep.devices += policy.numDevices;
    std::unique_ptr<ObservedRays> rayTenant;
    {
        // The ray tenant rebuilds its scene BVH in its constructor.
        Scope s(rep.rec, kTreesBuild, "rays");
        rayTenant = std::make_unique<ObservedRays>("rays", rays, rep, 0);
    }
    auto bt = std::make_unique<ObservedBTree>("btree", btree, rep, 4);
    auto rd = std::make_unique<ObservedRadius>("radius", radius, rep, 4);
    ObservedBTree *btp = bt.get();
    ObservedRadius *rdp = rd.get();
    svc->addTenant(std::move(bt));
    svc->addTenant(std::move(rd));
    svc->addTenant(std::move(rayTenant));
    for (uint32_t d = 0; d < svc->numDevices(); ++d)
        rep.serializedBytes += svc->device(d).memory().allocTop();

    service::TrafficConfig tc;
    tc.process = service::ArrivalProcess::Poisson;
    tc.totalQueries = arrivals;
    tc.meanGapCycles = 180.0 / policy.numDevices;
    tc.tenantWeights = {0.90, 0.07, 0.03};
    serve(rep, *svc, tc, in.trafficSeed);
    rep.results = btp->results() + rdp->results();
    finishService(rep, stats);
}

/**
 * serve-fleet: closed loop, enough clients to saturate, over six
 * 1M-key B-Tree tenants plus a cheap latency-sensitive lane; 2
 * devices, affinity placement. The fleet's hot sets overflow one
 * device's L2, so placement moves simulated results.
 */
void
runServeFleet(Rep &rep, const ServeInputs &in, size_t arrivals)
{
    sim::StatRegistry stats;
    std::vector<std::shared_ptr<const service::BTreeTenantData>> data;
    for (size_t t = 0; t < in.keys.size(); ++t)
        data.push_back(btreeTenantData(rep, in.keys[t], in.pools[t]));
    service::ServicePolicy policy;
    policy.maxBatch = 512;
    policy.lsMaxWaitCycles = policy.maxWaitCycles / 5;
    policy.numDevices = 2;
    policy.sched = service::SchedPolicy::Affinity;
    std::unique_ptr<service::TraversalService> svc;
    {
        Scope s(rep.rec, kDeviceInit);
        svc = std::make_unique<service::TraversalService>(
            modeConfig(sim::AccelMode::Tta), stats, policy);
    }
    rep.devices += policy.numDevices;
    std::vector<ObservedBTree *> tenants;
    for (size_t t = 0; t < data.size(); ++t) {
        std::string name = t == 0 ? "ls" : "btree" + std::to_string(t);
        auto tenant = std::make_unique<ObservedBTree>(name, data[t], rep, 4);
        tenants.push_back(tenant.get());
        svc->addTenant(std::move(tenant),
                       t == 0 ? service::SloClass::LatencySensitive
                              : service::SloClass::Throughput);
    }
    for (uint32_t d = 0; d < svc->numDevices(); ++d)
        rep.serializedBytes += svc->device(d).memory().allocTop();

    service::TrafficConfig tc;
    tc.process = service::ArrivalProcess::ClosedLoop;
    tc.totalQueries = arrivals;
    tc.clients = 8 * policy.maxBatch * policy.numDevices;
    tc.thinkCycles = 500.0;
    tc.tenantWeights.assign(data.size(), 0.90 / (data.size() - 1));
    tc.tenantWeights[0] = 0.10;
    serve(rep, *svc, tc, in.trafficSeed);
    rep.results = 0;
    for (ObservedBTree *t : tenants)
        rep.results += t->results();
    finishService(rep, stats);
}

// --- driver ------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    std::string out;
};

const char *const kWorkloads[] = {"fig-sim", "tree-setup", "serve-mix",
                                  "serve-fleet"};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fig-sim|tree-setup|serve-mix|serve-fleet --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--out DIR]\n",
                 msg);
    std::exit(kExitUsage);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((a + " needs a value").c_str());
            return argv[++i];
        };
        if (a == "--workload") {
            o.workload = value();
        } else if (a == "--seed") {
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(value().c_str(), nullptr);
        } else if (a == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--out") {
            o.out = value();
        } else if (a == "--smoke") {
            o.smoke = true;
        } else {
            usage(("unknown argument " + a).c_str());
        }
    }
    if (std::find_if(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const char *w) { return o.workload == w; }) ==
        std::end(kWorkloads))
        usage("unknown or missing --workload");
    return o;
}

/** Process knobs that select a different simulation kernel, thread
 *  count or scheduler; a measured run must not inherit them. */
void
refuseProcessKnobs()
{
    const char *knobs[] = {"TTA_SIM_KERNEL", "TTA_SIM_THREADS",
                           "TTA_SIM_EPOCH", "TTA_SIM_SPIN", "TTA_SCHED"};
    for (const char *k : knobs) {
        if (std::getenv(k)) {
            std::fprintf(stderr,
                         "perfbench: %s is set; measured runs use the "
                         "default kernel and scheduler. Unset it.\n",
                         k);
            std::exit(kExitUsage);
        }
    }
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (cycles). */
double
percentile(std::vector<uint64_t> v, double p)
{
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
    size_t idx = rank ? rank - 1 : 0;
    std::nth_element(v.begin(), v.begin() + idx, v.end());
    return static_cast<double>(v[idx]);
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Sets up a workload's inputs once, then runs reps of it. */
class Bench
{
  public:
    explicit Bench(const Options &o)
        : o_(o), sz_(o.smoke ? kSmoke : kFull)
    {
        makeInputs();
    }

    std::unique_ptr<Rep>
    rep(bool traced)
    {
        auto r = std::make_unique<Rep>(traced);
        sim::SchedulerTelemetry::reset();
        double t0 = nowSec();
        if (o_.workload == "fig-sim")
            runFigSim(*r, fig_);
        else if (o_.workload == "tree-setup")
            runTreeSetup(*r, setup_);
        else if (o_.workload == "serve-mix")
            runServeMix(*r, serve_, sz_.mixArrivals);
        else
            runServeFleet(*r, serve_, sz_.fleetArrivals);
        r->wall = nowSec() - t0;
        ticked_ = sim::SchedulerTelemetry::cyclesTicked();
        skipped_ = sim::SchedulerTelemetry::cyclesSkipped();
        return r;
    }

    uint64_t ticked() const { return ticked_; }
    uint64_t skipped() const { return skipped_; }

  private:
    void
    makeInputs()
    {
        uint64_t s = o_.seed;
        if (o_.workload == "fig-sim") {
            fig_.keys = makeKeys(sz_.figKeys);
            fig_.baseQueries = makeKeyQueries(
                sz_.figKeys, sz_.figBaseQueries, streamSeed(s, 1));
            fig_.ttaQueries = makeKeyQueries(
                sz_.figKeys, sz_.figTtaQueries, streamSeed(s, 2));
            fig_.points = makeCloud(sz_.figPoints, streamSeed(s, 3));
            fig_.cloudQueries = makeCloudQueries(
                fig_.points, sz_.figRtnnQueries, streamSeed(s, 4));
            fig_.bodies = makeBodies(sz_.figBodies, streamSeed(s, 5));
        } else if (o_.workload == "tree-setup") {
            setup_.keys = makeKeys(sz_.bigKeys);
            setup_.queries = makeKeyQueries(sz_.bigKeys, sz_.setupKeyQueries,
                                            streamSeed(s, 1));
            setup_.points = makeCloud(sz_.bigPoints, streamSeed(s, 2));
            setup_.cloudQueries = makeCloudQueries(
                setup_.points, sz_.setupCloudQueries, streamSeed(s, 3));
        } else if (o_.workload == "serve-mix") {
            serve_.keys = {makeKeys(sz_.mixKeys)};
            serve_.pools = {
                makeKeyQueries(sz_.mixKeys, 8192, streamSeed(s, 1))};
            serve_.points = makeCloud(sz_.mixPoints, streamSeed(s, 2));
            serve_.pointPool =
                makeCloudQueries(serve_.points, 2048, streamSeed(s, 3));
            serve_.raySeed = streamSeed(s, 4);
            serve_.trafficSeed = streamSeed(s, 5);
        } else {
            // Lane 0: the cheap latency-sensitive lane (1/16 the keys);
            // lanes 1-6: disjoint 1M-key sets, so disjoint hot paths.
            size_t lane = std::max<size_t>(sz_.fleetKeys / 16, 1024);
            serve_.keys.push_back(makeKeys(lane));
            serve_.pools.push_back(
                makeKeyQueries(lane, 8192, streamSeed(s, 1)));
            for (size_t t = 0; t < 6; ++t) {
                size_t off = (t + 1) * sz_.fleetKeys;
                serve_.keys.push_back(makeKeys(sz_.fleetKeys, off));
                serve_.pools.push_back(makeKeyQueries(
                    sz_.fleetKeys, 4096, streamSeed(s, 2 + t), off));
            }
            serve_.trafficSeed = streamSeed(s, 9);
        }
    }

    const Options o_;
    const Sizes sz_;
    FigInputs fig_;
    TreeSetupInputs setup_;
    ServeInputs serve_;
    uint64_t ticked_ = 0, skipped_ = 0;
};

void
writeSpans(const std::string &path,
           const std::vector<std::pair<int, Recorder::Span>> &spans,
           double origin)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    os << "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const auto &[rep, s] = spans[i];
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"rep\":%d,\"cause\":\"%s\","
                      "\"cycles\":%llu}}%s\n",
                      kLayerName[s.layer],
                      static_cast<unsigned long long>(s.thread % 100000),
                      1e6 * (s.start - origin), 1e6 * (s.end - s.start),
                      rep, s.cause.c_str(),
                      static_cast<unsigned long long>(s.cycles),
                      i + 1 < spans.size() ? "," : "");
        os << buf;
    }
    os << "],\"displayTimeUnit\":\"ms\"}\n";
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-28s %.9g %s\n", m.name.c_str(), m.value, m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

int
run(const Options &o)
{
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0, o.smoke ? " (smoke sizes)" : "");
    std::printf("host: nproc=%u simd=%s build=%s compiler=%s\n",
                std::thread::hardware_concurrency(),
                geom::simdBackendName(), PERFBENCH_BUILD_TYPE,
                compilerName().c_str());

    Bench bench(o);
    double origin = nowSec();
    std::vector<std::unique_ptr<Rep>> plain, traced;
    std::vector<std::pair<int, Recorder::Span>> spans;
    uint64_t ticked = 0, skipped = 0;
    int min_reps = o.trace ? 2 * kMinReps : kMinReps;
    for (int i = 0;
         i < min_reps || nowSec() - origin < o.seconds; ++i) {
        bool t = o.trace && i % 2 == 1;
        std::unique_ptr<Rep> r = bench.rep(t);
        if (t) {
            for (Recorder::Span &s : r->rec.takeSpans())
                spans.emplace_back(i, std::move(s));
            ticked = bench.ticked();
            skipped = bench.skipped();
            traced.push_back(std::move(r));
        } else {
            plain.push_back(std::move(r));
        }
    }

    const Rep &first = *plain.front();
    bool correct = true;
    uint64_t attempted = 0, failed = 0;
    for (const auto *set : {&plain, &traced}) {
        for (const auto &r : *set) {
            attempted += r->queries;
            failed += r->failed;
            if (r->digest != first.digest || r->results != first.results) {
                std::printf("digest mismatch: rep digest %016llx vs "
                            "%016llx\n",
                            static_cast<unsigned long long>(r->digest),
                            static_cast<unsigned long long>(first.digest));
                correct = false;
            }
        }
    }
    correct = correct && failed == 0;
    std::printf("digest: %016llx results: %016llx reps: %zu+%zu\n",
                static_cast<unsigned long long>(first.digest),
                static_cast<unsigned long long>(first.results),
                plain.size(), traced.size());
    for (const auto *set : {&plain, &traced}) {
        if (set->empty())
            continue;
        std::printf("%s rep wall_s:", set == &plain ? "untraced" : "traced");
        for (const auto &r : *set)
            std::printf(" %.4f", r->wall);
        std::printf("\n");
    }
    std::printf("failed_frac: %.9g (%llu of %llu queries)\n",
                attempted ? static_cast<double>(failed) / attempted : 0.0,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));

    auto med = [](const std::vector<std::unique_ptr<Rep>> &reps,
                  auto &&fn) {
        std::vector<double> v;
        for (const auto &r : reps)
            v.push_back(fn(*r));
        return median(v);
    };
    double us = 1.0 / sim::Config{}.coreClockMhz; // cycles -> us
    std::vector<Metric> metrics;
    if (!o.trace) {
        struct rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        metrics = {
            {"wall_s", med(plain, [](const Rep &r) { return r.wall; }), "s"},
            {"setup_s",
             med(plain, [](const Rep &r) { return r.wall - r.serve; }), "s"},
            {"peak_rss_mb", ru.ru_maxrss / 1024.0, "MB"},
            {"serve_s_per_100k",
             med(plain,
                 [](const Rep &r) { return 1e5 * r.serve / r.queries; }),
             "s"},
            {"device_cycles", static_cast<double>(first.deviceCycles),
             "cycles"},
            {"qpmc", 1e6 * first.latency.size() / first.makespan,
             "q/Mcycle"},
            {"p50_us", us * percentile(first.latency, 50), "us"},
            {"p99_us", us * percentile(first.latency, 99), "us"},
            {"p999_us", us * percentile(first.latency, 99.9), "us"},
        };
    } else {
        const Rep &t = *traced.front();
        const SimTotals &s = t.sim;
        auto layer = [&](Layer l) {
            return med(traced, [l](const Rep &r) { return r.rec.seconds(l); });
        };
        bool service = o.workload.rfind("serve", 0) == 0;
        // Service launches run on worker threads: their time is the
        // workers' CPU time less the verify spans they also ran.
        double launch =
            service ? med(traced,
                          [](const Rep &r) {
                              return std::max(
                                  0.0, r.workerCpu -
                                           r.rec.seconds(kVerify));
                          })
                    : layer(kLaunch);
        double other =
            service
                ? med(traced,
                      [](const Rep &r) {
                          return r.rec.seconds(kServe) -
                                 r.rec.seconds(kTraffic) -
                                 r.rec.seconds(kStage);
                      })
                : med(traced, [](const Rep &r) {
                      double spans = 0.0;
                      for (unsigned l = 0; l < kNumLayers; ++l)
                          spans += r.rec.seconds(static_cast<Layer>(l));
                      return r.wall - spans;
                  });
        double l2 = static_cast<double>(s.l2Hits + s.l2Misses);
        double cycles = static_cast<double>(ticked + skipped);
        metrics = {
            {"trees.build_s", layer(kTreesBuild), "s"},
            {"trees.nodes", static_cast<double>(t.treeNodes), "count"},
            {"workloads.reference_s", layer(kReference), "s"},
            {"workloads.verify_s", layer(kVerify), "s"},
            {"api.device_init_s", layer(kDeviceInit), "s"},
            {"api.devices", static_cast<double>(t.devices), "count"},
            {"api.serialize_s", layer(kSerialize), "s"},
            {"api.serialized_mb", t.serializedBytes / 1048576.0, "MB"},
            {"sim.launch_s", launch, "s"},
            {"sim.cycles_ticked", static_cast<double>(ticked), "cycles"},
            {"sim.cycles_skipped", static_cast<double>(skipped), "cycles"},
            {"sim.skipped_frac", cycles ? skipped / cycles : 0.0,
             "fraction"},
            {"sim.ns_per_cycle", 1e9 * launch / t.deviceCycles, "ns"},
            {"gpu.warp_insts", static_cast<double>(s.warpInsts), "count"},
            {"gpu.simt_efficiency",
             s.warpInsts ? s.activeLanes / (32.0 * s.warpInsts) : 0.0,
             "fraction"},
            {"gpu.stall_issue_cycles", static_cast<double>(s.stallIssue),
             "cycles"},
            {"gpu.stall_mem_cycles", static_cast<double>(s.stallMem),
             "cycles"},
            {"gpu.stall_accel_cycles", static_cast<double>(s.stallAccel),
             "cycles"},
            {"gpu.stall_exec_cycles", static_cast<double>(s.stallExec),
             "cycles"},
            {"rta.nodes_visited", static_cast<double>(s.nodesVisited),
             "count"},
            {"rta.node_bytes_fetched", static_cast<double>(s.nodeBytes),
             "bytes"},
            {"ttaplus.uops", static_cast<double>(s.uops), "count"},
            {"ttaplus.tests", static_cast<double>(s.tests), "count"},
            {"mem.l1_hits", static_cast<double>(s.l1Hits), "count"},
            {"mem.l1_misses", static_cast<double>(s.l1Misses), "count"},
            {"mem.l2_hits", static_cast<double>(s.l2Hits), "count"},
            {"mem.l2_misses", static_cast<double>(s.l2Misses), "count"},
            {"mem.l2_hit_rate", l2 ? s.l2Hits / l2 : 0.0, "fraction"},
            {"mem.dram_reads", static_cast<double>(s.dramReads), "count"},
            {"mem.dram_bytes", static_cast<double>(s.dramBytes), "bytes"},
            {"service.stage_s", layer(kStage), "s"},
            {"service.other_s", other, "s"},
            {"service.batches", static_cast<double>(t.batches), "count"},
            {"service.mean_batch",
             static_cast<double>(t.latency.size()) / t.batches, "count"},
            {"service.expired_frac",
             static_cast<double>(t.expired) / t.batches, "fraction"},
            {"service.device_util", t.deviceUtil, "fraction"},
            {"service.completed", static_cast<double>(t.latency.size()),
             "count"},
            {"trace.overhead_frac",
             med(traced, [](const Rep &r) { return r.wall; }) /
                     med(plain, [](const Rep &r) { return r.wall; }) -
                 1.0,
             "fraction"},
        };
        if (service)
            std::printf("service: traffic_s=%.6f queue_wait_p99_us=%.3f\n",
                        layer(kTraffic), us * t.queueWaitP99Cycles);
        if (!o.out.empty())
            writeSpans(o.out + "/spans-" + o.workload + "-" +
                           std::to_string(o.seed) + ".json",
                       spans, origin);
    }
    printResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    refuseProcessKnobs();
    try {
        return run(o);
    } catch (const std::exception &e) {
        // A verify mismatch beyond a tenant's tolerance lands here (the
        // service rethrows worker failures on the serving thread).
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
