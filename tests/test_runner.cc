/**
 * @file
 * ExperimentRunner unit tests: submission-order results, error
 * propagation (a throwing job must not wedge the pool), the zero-core
 * hardware-concurrency fallback, serial/parallel determinism of the
 * JSON records, and a config digest that is stable and changes with
 * every field.
 *
 * Run-level parallelism is the simulator's host parallelism, so the
 * ThreadedOracle tests hold simulations on pool workers to the run on
 * the calling thread: full stat dumps of real workloads (one of them
 * queue-saturated) at several pool sizes, and a message-passing toy
 * network lockstepped across seeds and both kernels. ThreadedScheduler
 * pins that a model fatal() raised inside a worker's tick loop comes
 * back to the caller.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/runner.hh"
#include "sim/ticked.hh"
#include "workloads/btree_workload.hh"
#include "workloads/raytracing_workload.hh"

using namespace tta;
using namespace ::tta::workloads;

namespace {

std::vector<sim::Job>
countingJobs(size_t n)
{
    std::vector<sim::Job> jobs(n);
    for (size_t i = 0; i < n; ++i) {
        jobs[i].name = "job" + std::to_string(i);
        jobs[i].seed = i;
        jobs[i].fn = [i](const sim::Config &, sim::StatRegistry &stats,
                         sim::RunRecord &rec) {
            stats.counter("index") += i;
            rec.cycles = 100 + i;
            rec.values["twice"] = 2.0 * static_cast<double>(i);
        };
    }
    return jobs;
}

} // namespace

TEST(Runner, ResultsComeBackInSubmissionOrder)
{
    auto jobs = countingJobs(23);
    for (unsigned threads : {1u, 4u}) {
        sim::ExperimentRunner runner(threads);
        auto records = runner.run(jobs);
        ASSERT_EQ(records.size(), jobs.size());
        for (size_t i = 0; i < records.size(); ++i) {
            EXPECT_EQ(records[i].name, jobs[i].name);
            EXPECT_EQ(records[i].seed, i);
            EXPECT_EQ(records[i].cycles, 100 + i);
            EXPECT_EQ(records[i].stats.counterValue("index"), i);
            EXPECT_FALSE(records[i].failed());
            EXPECT_GE(records[i].wallSeconds, 0.0);
        }
    }
}

TEST(Runner, ZeroThreadsMeansHardwareConcurrency)
{
    sim::ExperimentRunner runner(0);
    EXPECT_GE(runner.threads(), 1u);
    auto records = runner.run(countingJobs(3));
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[2].cycles, 102u);
}

// std::thread::hardware_concurrency() may legally return 0 ("not
// computable"); the runner's "auto" worker count must fold that to one
// worker instead of starting none.
TEST(HardwareConcurrency, ZeroProbeFallsBackToOne)
{
    struct HookGuard
    {
        HookGuard()
        {
            sim::ExperimentRunner::setHardwareConcurrencyHookForTest(
                [] { return 0u; });
        }
        ~HookGuard()
        {
            sim::ExperimentRunner::setHardwareConcurrencyHookForTest(
                nullptr);
        }
    } hook;
    EXPECT_EQ(sim::ExperimentRunner::hardwareConcurrency(), 1u);

    sim::ExperimentRunner runner(0);
    EXPECT_EQ(runner.threads(), 1u);
    auto records = runner.run(countingJobs(3));
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[2].cycles, 102u);
}

TEST(Runner, EmptyJobListIsFine)
{
    sim::ExperimentRunner runner(4);
    EXPECT_TRUE(runner.run({}).empty());
}

TEST(Runner, ThrowingJobDoesNotWedgeThePool)
{
    auto jobs = countingJobs(8);
    jobs[2].fn = [](const sim::Config &, sim::StatRegistry &,
                    sim::RunRecord &) {
        throw std::runtime_error("deliberate failure");
    };
    jobs[5].fn = [](const sim::Config &, sim::StatRegistry &,
                    sim::RunRecord &) { throw 42; }; // non-std exception
    for (unsigned threads : {1u, 4u}) {
        sim::ExperimentRunner runner(threads);
        auto records = runner.run(jobs);
        ASSERT_EQ(records.size(), jobs.size());
        EXPECT_TRUE(records[2].failed());
        EXPECT_NE(records[2].error.find("deliberate failure"),
                  std::string::npos);
        EXPECT_TRUE(records[5].failed());
        EXPECT_FALSE(records[5].error.empty());
        // Every other job still ran to completion.
        for (size_t i : {0u, 1u, 3u, 4u, 6u, 7u}) {
            EXPECT_FALSE(records[i].failed()) << "job " << i;
            EXPECT_EQ(records[i].cycles, 100 + i);
        }
        // The error lands in the JSON record too.
        EXPECT_NE(records[2].toJson(false).find("\"error\""),
                  std::string::npos);
    }
}

TEST(Runner, SerialAndParallelRecordsAreByteIdentical)
{
    // Real simulations, not stubs: the property the figure sweeps rely
    // on. Timing excluded — it is the only nondeterministic field.
    auto mkJobs = [] {
        std::vector<sim::Job> jobs;
        for (uint64_t seed : {7u, 8u, 9u, 10u}) {
            sim::Job job;
            job.name = "btree/seed" + std::to_string(seed);
            job.config.accelMode = sim::AccelMode::Tta;
            job.seed = seed;
            job.fn = [seed](const sim::Config &cfg,
                            sim::StatRegistry &stats,
                            sim::RunRecord &rec) {
                BTreeWorkload wl(trees::BTreeKind::BTree, 2000, 256,
                                 seed);
                rec.cycles = wl.runAccelerated(cfg, stats).cycles;
            };
            jobs.push_back(std::move(job));
        }
        return jobs;
    };
    auto serial = sim::ExperimentRunner(1).run(mkJobs());
    auto parallel = sim::ExperimentRunner(4).run(mkJobs());
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial[i].toJson(false), parallel[i].toJson(false))
            << "record " << i;
}

TEST(Runner, JsonRecordIsWellFormedish)
{
    auto records = sim::ExperimentRunner(1).run(countingJobs(1));
    std::string js = records[0].toJson(true);
    EXPECT_EQ(js.front(), '{');
    EXPECT_EQ(js.back(), '}');
    EXPECT_NE(js.find("\"name\":\"job0\""), std::string::npos);
    EXPECT_NE(js.find("\"cycles\":100"), std::string::npos);
    EXPECT_NE(js.find("\"twice\""), std::string::npos);
    EXPECT_NE(js.find("\"wall_ms\""), std::string::npos);
    EXPECT_EQ(records[0].toJson(false).find("\"wall_ms\""),
              std::string::npos);
}

TEST(Runner, ConfigDigestStableAndFieldSensitive)
{
    sim::Config a, b;
    EXPECT_EQ(sim::configDigest(a), sim::configDigest(b));
    EXPECT_EQ(sim::configDigest(a).size(), 16u);

    // Changing any one field gives a digest of its own. The node-layout
    // fields (rtaFetchWidth, bvhNodeWidth, bvhQuantized) change
    // bench_fig14_sensitivity's results, so its records must tell them
    // apart.
    using Edit = std::function<void(sim::Config &)>;
    const std::vector<std::pair<const char *, Edit>> edits = {
        {"numSms", [](sim::Config &c) { ++c.numSms; }},
        {"maxWarpsPerSm", [](sim::Config &c) { ++c.maxWarpsPerSm; }},
        {"warpSize", [](sim::Config &c) { ++c.warpSize; }},
        {"l1SizeBytes", [](sim::Config &c) { ++c.l1SizeBytes; }},
        {"l1LatencyCycles", [](sim::Config &c) { ++c.l1LatencyCycles; }},
        {"l2SizeBytes", [](sim::Config &c) { ++c.l2SizeBytes; }},
        {"l2Assoc", [](sim::Config &c) { ++c.l2Assoc; }},
        {"l2LatencyCycles", [](sim::Config &c) { ++c.l2LatencyCycles; }},
        {"lineSizeBytes", [](sim::Config &c) { ++c.lineSizeBytes; }},
        {"l1MshrEntries", [](sim::Config &c) { ++c.l1MshrEntries; }},
        {"l2MshrEntries", [](sim::Config &c) { ++c.l2MshrEntries; }},
        {"coreClockMhz", [](sim::Config &c) { c.coreClockMhz += 1.0; }},
        {"memClockMhz", [](sim::Config &c) { c.memClockMhz += 1.0; }},
        {"dramChannels", [](sim::Config &c) { ++c.dramChannels; }},
        {"dramServiceLatency",
         [](sim::Config &c) { ++c.dramServiceLatency; }},
        {"dramBytesPerMemCycle",
         [](sim::Config &c) { ++c.dramBytesPerMemCycle; }},
        {"warpBufferWarps", [](sim::Config &c) { ++c.warpBufferWarps; }},
        {"intersectionSets", [](sim::Config &c) { ++c.intersectionSets; }},
        {"rayBoxLatency", [](sim::Config &c) { ++c.rayBoxLatency; }},
        {"rayTriLatency", [](sim::Config &c) { ++c.rayTriLatency; }},
        {"intersectionLatencyScale",
         [](sim::Config &c) { c.intersectionLatencyScale *= 10.0; }},
        {"ttaIsolatedMinMax",
         [](sim::Config &c) { c.ttaIsolatedMinMax = !c.ttaIsolatedMinMax; }},
        {"rtaCoalescing",
         [](sim::Config &c) { c.rtaCoalescing = !c.rtaCoalescing; }},
        {"rtaArbiterWidth", [](sim::Config &c) { ++c.rtaArbiterWidth; }},
        {"rtaChildPrefetch",
         [](sim::Config &c) { c.rtaChildPrefetch = !c.rtaChildPrefetch; }},
        {"rtaFetchWidth", [](sim::Config &c) { c.rtaFetchWidth = 2; }},
        {"bvhNodeWidth", [](sim::Config &c) { c.bvhNodeWidth = 4; }},
        {"bvhQuantized",
         [](sim::Config &c) { c.bvhQuantized = !c.bvhQuantized; }},
        {"icntHopLatency", [](sim::Config &c) { ++c.icntHopLatency; }},
        {"opUnitCopies", [](sim::Config &c) { ++c.opUnitCopies; }},
        {"rcpUnitCopies", [](sim::Config &c) { ++c.rcpUnitCopies; }},
        {"perfectNodeFetch",
         [](sim::Config &c) { c.perfectNodeFetch = !c.perfectNodeFetch; }},
        {"perfectMemory",
         [](sim::Config &c) { c.perfectMemory = !c.perfectMemory; }},
        {"accelMode",
         [](sim::Config &c) { c.accelMode = sim::AccelMode::Tta; }},
        {"watchdogCycles", [](sim::Config &c) { ++c.watchdogCycles; }},
    };
    std::vector<std::string> seen{sim::configDigest(a)};
    for (const auto &[field, edit] : edits) {
        sim::Config cfg;
        edit(cfg);
        const std::string digest = sim::configDigest(cfg);
        EXPECT_EQ(std::count(seen.begin(), seen.end(), digest), 0)
            << field << " does not change the digest";
        seen.push_back(digest);
    }
}

namespace {

struct WorkloadRun
{
    uint64_t cycles = 0;
    std::string stats;
};

WorkloadRun
runBTree(bool accelerated, sim::StatRegistry &stats)
{
    BTreeWorkload wl(trees::BTreeKind::BTree, 1000, 128, 5);
    sim::Config cfg;
    cfg.accelMode =
        accelerated ? sim::AccelMode::Tta : sim::AccelMode::BaselineGpu;
    RunMetrics m = accelerated ? wl.runAccelerated(cfg, stats)
                               : wl.runBaseline(cfg, stats);
    return {m.cycles, stats.dumpString()};
}

/** Run `copies` jobs of `body` on a `threads`-worker pool; every job
 *  must succeed. Returns each job's result in submission order. */
std::vector<WorkloadRun>
runOnPool(unsigned threads, size_t copies,
          const std::function<WorkloadRun(size_t, sim::StatRegistry &)>
              &body)
{
    std::vector<WorkloadRun> out(copies);
    std::vector<sim::Job> jobs(copies);
    for (size_t i = 0; i < copies; ++i) {
        jobs[i].name = "copy" + std::to_string(i);
        jobs[i].fn = [i, &body, &r = out[i]](const sim::Config &,
                                             sim::StatRegistry &stats,
                                             sim::RunRecord &rec) {
            r = body(i, stats);
            rec.cycles = r.cycles;
        };
    }
    auto records = sim::ExperimentRunner(threads).run(jobs);
    for (const auto &rec : records)
        EXPECT_FALSE(rec.failed()) << rec.name << ": " << rec.error;
    return out;
}

} // namespace

// A run must come out bit-identical whichever pool worker executes it
// and however many other runs tick beside it: every counter, scalar and
// histogram of the baseline and TTA models, at several pool sizes,
// against the same run on the calling thread.
TEST(ThreadedOracle, WorkloadBitIdenticalAcrossThreadCounts)
{
    WorkloadRun ref[2];
    for (bool accelerated : {false, true}) {
        sim::StatRegistry stats;
        ref[accelerated] = runBTree(accelerated, stats);
    }
    for (unsigned threads : {1u, 2u, 4u}) {
        // Baseline and TTA runs interleaved, two of each.
        auto runs = runOnPool(threads, 4,
                              [](size_t i, sim::StatRegistry &stats) {
                                  return runBTree(i % 2 == 1, stats);
                              });
        for (size_t i = 0; i < runs.size(); ++i) {
            const char *model = i % 2 ? "tta" : "baseline";
            EXPECT_EQ(ref[i % 2].cycles, runs[i].cycles)
                << model << " cycles diverged at " << threads
                << " threads, job " << i;
            EXPECT_EQ(ref[i % 2].stats, runs[i].stats)
                << model << " stat dump diverged at " << threads
                << " threads, job " << i;
        }
    }
}

// The Sponza ambient-occlusion scene on baseline cores fills the L1
// input queues to their depth limit, so its timing hangs on the memory
// system's back-pressure wakes, the most order-sensitive edge in the
// model. Copies running side by side on a pool must each match the run
// on the calling thread bit for bit.
TEST(ThreadedOracle, QueueSaturatedWorkloadBitIdentical)
{
    auto run = [](size_t, sim::StatRegistry &stats) {
        RayTracingWorkload wl(SceneKind::SponzaAo, 16, 16, 2);
        sim::Config cfg;
        cfg.accelMode = sim::AccelMode::BaselineGpu;
        RunMetrics m = wl.runBaselineCores(cfg, stats);
        return WorkloadRun{m.cycles, stats.dumpString()};
    };
    sim::StatRegistry stats;
    WorkloadRun ref = run(0, stats);
    auto runs = runOnPool(3, 3, run);
    for (size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(ref.cycles, runs[i].cycles) << "job " << i;
        EXPECT_EQ(ref.stats, runs[i].stats) << "job " << i;
    }
}

namespace {

using sim::Cycle;

class Router;

/**
 * Toy-network node: a seeded random reactor that talks to its peers only
 * through the Router, which is registered after every producer. All
 * externally-visible behavior happens when an event is processed (a
 * routed message or a due self-timer), never merely because tick() ran,
 * so the log is comparable across kernels.
 */
class Producer : public sim::TickedComponent
{
  public:
    Producer(uint32_t idx, uint64_t seed, Router *router,
             uint32_t num_producers)
        : TickedComponent("prod" + std::to_string(idx)), idx_(idx),
          rng_(seed * 9176747ull + idx), router_(router),
          numProducers_(num_producers)
    {
        selfNext_ = 1 + idx % 3; // clustered starts: contended cycles
    }

    /** The router ticks after us, so a message it hands over during
     *  its tick becomes visible here next cycle. */
    void
    deliver(Cycle cycle, uint32_t from)
    {
        wake(cycle); // the scheduler resolves to cycle + 1: we already ran
        inbox_.push_back({cycle + 1, from});
    }

    void
    tick(Cycle cycle) override
    {
        for (size_t i = 0; i < inbox_.size();) {
            if (inbox_[i].visible > cycle) {
                ++i;
                continue;
            }
            uint32_t from = inbox_[i].from;
            inbox_.erase(inbox_.begin() + static_cast<ptrdiff_t>(i));
            event(cycle, "recv" + std::to_string(from));
        }
        if (selfNext_ != sim::kAsleep && selfNext_ <= cycle) {
            selfNext_ = sim::kAsleep;
            event(cycle, "self");
        }
    }

    bool
    busy() const override
    {
        return !inbox_.empty() || selfNext_ != sim::kAsleep;
    }

    Cycle
    nextEventCycle(Cycle cycle) const override
    {
        Cycle next = selfNext_;
        for (const auto &msg : inbox_)
            next = std::min(next, std::max(msg.visible, cycle + 1));
        return next;
    }

    std::vector<std::string> log;

  private:
    struct Msg
    {
        Cycle visible;
        uint32_t from;
    };

    void event(Cycle cycle, const std::string &what); // needs Router

    uint32_t idx_;
    sim::Rng rng_;
    Router *router_;
    uint32_t numProducers_;
    std::vector<Msg> inbox_;
    Cycle selfNext_;
    uint32_t processed_ = 0;
};

/** Message switch: a post lands in its queue the cycle it is made and
 *  is routed one cycle later. */
class Router : public sim::TickedComponent
{
  public:
    explicit Router(std::vector<std::unique_ptr<Producer>> *producers)
        : TickedComponent("router"), producers_(producers)
    {}

    /** Called by producers mid-tick. */
    void
    post(Cycle cycle, uint32_t from, uint32_t to)
    {
        wake(cycle); // we tick after every producer: lands this cycle
        queue_.push_back({cycle + 1, from, to});
    }

    void
    tick(Cycle cycle) override
    {
        for (size_t i = 0; i < queue_.size();) {
            if (queue_[i].ready > cycle) {
                ++i;
                continue;
            }
            Routed m = queue_[i];
            queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(i));
            log.push_back("c" + std::to_string(cycle) + " route " +
                          std::to_string(m.from) + ">" +
                          std::to_string(m.to));
            (*producers_)[m.to]->deliver(cycle, m.from);
        }
    }

    bool busy() const override { return !queue_.empty(); }

    Cycle
    nextEventCycle(Cycle cycle) const override
    {
        Cycle next = sim::kAsleep;
        for (const auto &m : queue_)
            next = std::min(next, std::max(m.ready, cycle + 1));
        return next;
    }

    std::vector<std::string> log;

  private:
    struct Routed
    {
        Cycle ready;
        uint32_t from;
        uint32_t to;
    };

    std::vector<Routed> queue_;
    std::vector<std::unique_ptr<Producer>> *producers_;
};

void
Producer::event(Cycle cycle, const std::string &what)
{
    log.push_back("c" + std::to_string(cycle) + " " + what);
    if (++processed_ >= 30)
        return; // stop generating work so the network quiesces
    uint64_t roll = rng_.nextBounded(100);
    if (roll < 55) {
        // One or two same-cycle posts; two in a row pin the per-sender
        // program order in the router's queue.
        uint32_t sends = roll < 20 ? 2 : 1;
        for (uint32_t s = 0; s < sends; ++s) {
            uint32_t to =
                static_cast<uint32_t>(rng_.nextBounded(numProducers_));
            log.push_back("c" + std::to_string(cycle) + " send" +
                          std::to_string(to));
            router_->post(cycle, idx_, to);
        }
    } else if (roll < 85) {
        Cycle at = cycle + 1 + rng_.nextBounded(6);
        if (at < selfNext_)
            selfNext_ = at;
    } // else: go idle until the router delivers something
}

struct RouterRun
{
    Cycle cycles = 0;
    std::vector<std::string> routerLog;
    std::vector<std::vector<std::string>> producerLogs;

    bool operator==(const RouterRun &) const = default;
};

RouterRun
runRouterNetwork(uint64_t seed, sim::Simulator::Kernel kernel,
                 sim::StatRegistry &stats)
{
    constexpr uint32_t kProducers = 8;
    sim::Simulator sim(stats);
    sim.setKernel(kernel);
    std::vector<std::unique_ptr<Producer>> producers;
    Router router(&producers);
    for (uint32_t i = 0; i < kProducers; ++i) {
        producers.push_back(
            std::make_unique<Producer>(i, seed, &router, kProducers));
    }
    for (auto &p : producers)
        sim.add(p.get());
    sim.add(&router);
    sim.runToQuiescence(500'000);
    RouterRun out;
    out.cycles = sim.cycle();
    out.routerLog = std::move(router.log);
    for (auto &p : producers)
        out.producerLogs.push_back(std::move(p->log));
    return out;
}

} // namespace

// 55 seeds of the toy network run as pool jobs, each under both kernels,
// while other seeds tick on the other workers. Every run must match the
// event-kernel run of its seed on the calling thread: same cycle count,
// same routing order, same per-producer logs.
TEST(ThreadedOracle, RouterNetworkLockstepAcrossSeeds)
{
    constexpr uint64_t kSeeds = 55;
    using Kernel = sim::Simulator::Kernel;
    std::vector<RouterRun> ref(kSeeds), event(kSeeds), polling(kSeeds);
    size_t total_routed = 0;
    for (uint64_t s = 0; s < kSeeds; ++s) {
        sim::StatRegistry stats;
        ref[s] = runRouterNetwork(s + 1, Kernel::EventDriven, stats);
        total_routed += ref[s].routerLog.size();
    }
    std::vector<sim::Job> jobs(kSeeds);
    for (uint64_t s = 0; s < kSeeds; ++s) {
        jobs[s].name = "seed" + std::to_string(s + 1);
        jobs[s].seed = s + 1;
        jobs[s].fn = [&, s](const sim::Config &, sim::StatRegistry &stats,
                            sim::RunRecord &) {
            event[s] = runRouterNetwork(s + 1, Kernel::EventDriven, stats);
            polling[s] = runRouterNetwork(s + 1, Kernel::Polling, stats);
        };
    }
    auto records = sim::ExperimentRunner(4).run(jobs);
    for (uint64_t s = 0; s < kSeeds; ++s) {
        ASSERT_FALSE(records[s].failed()) << records[s].error;
        EXPECT_TRUE(ref[s] == event[s])
            << "event run on a worker diverged for seed " << s + 1;
        EXPECT_TRUE(ref[s] == polling[s])
            << "polling run on a worker diverged for seed " << s + 1;
    }
    // The oracle only bites if the producers actually chattered.
    EXPECT_GT(total_routed, 1000u);
}

namespace {

/** Busy for `lifetime` ticks, then quiescent; `onTick` is injectable. */
class Countdown : public sim::TickedComponent
{
  public:
    Countdown(std::string name, Cycle lifetime)
        : TickedComponent(std::move(name)), left_(lifetime)
    {}

    void
    tick(Cycle cycle) override
    {
        if (left_ > 0)
            --left_;
        if (onTick)
            onTick(cycle);
    }
    bool busy() const override { return left_ > 0; }
    Cycle
    nextEventCycle(Cycle cycle) const override
    {
        return left_ > 0 ? cycle + 1 : sim::kAsleep;
    }

    std::function<void(Cycle)> onTick;

  private:
    Cycle left_;
};

} // namespace

// A model fatal() raised inside a component's tick, while the simulator
// runs on a pool worker, must come back to the caller as that job's
// error under either kernel, and the pool must still finish the other
// jobs: escaping a std::thread would terminate the process instead.
TEST(ThreadedScheduler, WorkerFatalPropagatesToCaller)
{
    for (auto kernel : {sim::Simulator::Kernel::EventDriven,
                        sim::Simulator::Kernel::Polling}) {
        std::vector<sim::Job> jobs(4);
        for (size_t i = 0; i < jobs.size(); ++i) {
            jobs[i].name = "sim" + std::to_string(i);
            jobs[i].fn = [kernel, faulty = i == 1](
                             const sim::Config &, sim::StatRegistry &stats,
                             sim::RunRecord &rec) {
                sim::Simulator sim(stats);
                sim.setKernel(kernel);
                Countdown a("a", 20), b("b", 40);
                b.onTick = [faulty](Cycle c) {
                    if (faulty && c == 25)
                        fatal("model bug on a worker");
                };
                sim.add(&a);
                sim.add(&b);
                rec.cycles = sim.runToQuiescence(1000);
            };
        }
        auto records = sim::ExperimentRunner(2).run(jobs);
        ASSERT_EQ(records.size(), jobs.size());
        EXPECT_TRUE(records[1].failed());
        EXPECT_NE(records[1].error.find("model bug on a worker"),
                  std::string::npos)
            << records[1].error;
        for (size_t i : {0u, 2u, 3u}) {
            EXPECT_FALSE(records[i].failed()) << records[i].error;
            EXPECT_EQ(records[i].cycles, 40u) << "job " << i;
        }
    }
}
