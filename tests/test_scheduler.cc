/**
 * @file
 * Event-driven scheduler tests.
 *
 * The sleep/wake kernel must be observationally identical to the polling
 * kernel (see the contract in sim/ticked.hh). The scripted-component
 * tests pin the scheduler mechanics one rule at a time — same-cycle
 * visibility by registration order, re-arming, the sleep-while-woken
 * race — and the randomized lockstep oracle runs the same seeded network
 * of chattering nodes under both kernels, requiring identical event logs
 * and cycle counts across many seeds. Workload-level tests run real
 * simulations under both kernels and diff the entire stat dump, one of
 * them with the L1 input queues saturated and one idle-heavy run that
 * must also skip most of its cycles. A death test pins that an unknown
 * TTA_SIM_KERNEL name is a named fatal().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"
#include "workloads/btree_workload.hh"
#include "workloads/raytracing_workload.hh"
#include "workloads/rtnn_workload.hh"

using namespace ::tta::sim;
namespace workloads = ::tta::workloads;
namespace trees = ::tta::trees;

namespace {

/** Scripted component: records its tick cycles; behavior injectable. */
class Probe : public TickedComponent
{
  public:
    explicit Probe(std::string name) : TickedComponent(std::move(name)) {}

    void
    tick(Cycle cycle) override
    {
        ticks.push_back(cycle);
        next = kAsleep;
        if (onTick)
            onTick(cycle);
    }
    bool busy() const override { return busyFlag; }
    Cycle nextEventCycle(Cycle) const override { return next; }

    std::function<void(Cycle)> onTick;
    std::vector<Cycle> ticks;
    Cycle next = kAsleep;
    bool busyFlag = false;
};

/** Drain every scheduled event (probes are not busy()-driven). */
void
drain(Simulator &sim)
{
    while (sim.advance(1'000'000)) {
    }
}

} // namespace

TEST(Scheduler, SameCycleWakeAfterProducerLandsSameCycle)
{
    StatRegistry stats;
    Simulator sim(stats);
    sim.setKernel(Simulator::Kernel::EventDriven);
    Probe producer("producer"), consumer("consumer");
    producer.onTick = [&](Cycle c) {
        if (c == 0)
            producer.next = 5;
        if (c == 5)
            consumer.wake(c); // consumer registered after us
    };
    sim.add(&producer); // index 0
    sim.add(&consumer); // index 1: ticks after the producer each cycle
    drain(sim);
    // The polling kernel's in-order scan would have ticked the consumer
    // later in cycle 5 and shown it the producer's update immediately.
    EXPECT_EQ(producer.ticks, (std::vector<Cycle>{0, 5}));
    EXPECT_EQ(consumer.ticks, (std::vector<Cycle>{0, 5}));
}

TEST(Scheduler, SameCycleWakeBeforeProducerLandsNextCycle)
{
    StatRegistry stats;
    Simulator sim(stats);
    sim.setKernel(Simulator::Kernel::EventDriven);
    Probe consumer("consumer"), producer("producer");
    producer.onTick = [&](Cycle c) {
        if (c == 0)
            producer.next = 5;
        if (c == 5)
            consumer.wake(c); // consumer already ticked this cycle
    };
    sim.add(&consumer); // index 0: ticks before the producer each cycle
    sim.add(&producer); // index 1
    drain(sim);
    // Under polling the consumer's cycle-5 tick ran before the producer
    // mutated anything, so it first sees the update in cycle 6.
    EXPECT_EQ(consumer.ticks, (std::vector<Cycle>{0, 6}));
}

TEST(Scheduler, ReArmEarlierKeepsOriginalWakeup)
{
    StatRegistry stats;
    Simulator sim(stats);
    sim.setKernel(Simulator::Kernel::EventDriven);
    Probe probe("probe");
    sim.add(&probe);
    sim.wake(&probe, 100);
    sim.wake(&probe, 10); // pull the tick earlier; 100 must survive
    drain(sim);
    EXPECT_EQ(probe.ticks, (std::vector<Cycle>{0, 10, 100}));
}

TEST(Scheduler, WakeDuringDueTickSticksDespiteSleepReturn)
{
    StatRegistry stats;
    Simulator sim(stats);
    sim.setKernel(Simulator::Kernel::EventDriven);
    Probe waker("waker"), sleeper("sleeper");
    waker.onTick = [&](Cycle c) {
        if (c == 0)
            waker.next = 5;
        if (c == 5)
            sleeper.wake(7); // arrives while the sleeper is due at 5
    };
    sleeper.onTick = [&](Cycle c) {
        if (c == 0)
            sleeper.next = 5; // due the same cycle the wake arrives
    };
    sim.add(&waker);
    sim.add(&sleeper);
    drain(sim);
    // The sleeper's cycle-5 tick returns kAsleep, but the wake for 7
    // that arrived mid-cycle must not be lost with it.
    EXPECT_EQ(sleeper.ticks, (std::vector<Cycle>{0, 5, 7}));
}

TEST(Scheduler, IdleStretchIsSkippedNotTicked)
{
    StatRegistry stats;
    Simulator sim(stats);
    sim.setKernel(Simulator::Kernel::EventDriven);
    Probe probe("probe");
    probe.onTick = [&](Cycle c) {
        if (c == 0)
            probe.next = 10'000;
    };
    sim.add(&probe);
    drain(sim);
    EXPECT_EQ(probe.ticks, (std::vector<Cycle>{0, 10'000}));
    EXPECT_EQ(sim.cyclesTicked(), 2u);
    EXPECT_EQ(sim.cyclesSkipped(), 9'999u);
    EXPECT_GT(sim.skippedFraction(), 0.99);
}

TEST(SchedulerDeathTest, BusyComponentWithNoWakeupPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    StatRegistry stats;
    Simulator sim(stats);
    sim.setKernel(Simulator::Kernel::EventDriven);
    Probe stuck("stuck.unit");
    stuck.busyFlag = true; // claims in-flight work but sleeps forever
    sim.add(&stuck);
    // Rather than silently dropping the component's pending work (a
    // model bug: it broke the wake contract), the run loop must abort
    // and name the culprit.
    EXPECT_DEATH(sim.runToQuiescence(1000),
                 "busy with no scheduled wakeup.*stuck\\.unit");
}

namespace {

/**
 * Lockstep-oracle node: a seeded random reactor. All externally-visible
 * behavior (log lines, RNG draws) happens only when an *event* is
 * processed — a due message or a due self-timer — never merely because
 * tick() ran. That makes the node polling-faithful: the polling kernel
 * ticks it every cycle and the event-driven kernel only on due cycles,
 * and both must produce the identical event log.
 */
class RandomNode : public TickedComponent
{
  public:
    RandomNode(uint32_t idx, uint64_t seed,
               std::vector<std::unique_ptr<RandomNode>> *net,
               std::vector<std::string> *log)
        : TickedComponent("node" + std::to_string(idx)), idx_(idx),
          rng_(seed * 1000003ull + idx), net_(net), log_(log)
    {
        selfNext_ = 1 + idx; // staggered initial self events
    }

    /** A peer (or this node) sends us a message during its tick. */
    void
    deliver(Cycle cycle, uint32_t from)
    {
        // Registration-order visibility, matching the polling kernel's
        // in-order scan: a receiver that ticks later in the cycle than
        // the sender sees the message this cycle, else next cycle.
        Cycle visible = idx_ > from ? cycle : cycle + 1;
        wake(cycle); // the scheduler must resolve to the same rule
        inbox_.push_back({visible, from});
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
        if (selfNext_ != kAsleep && selfNext_ <= cycle) {
            selfNext_ = kAsleep;
            event(cycle, "self");
        }
    }

    bool
    busy() const override
    {
        return !inbox_.empty() || selfNext_ != kAsleep;
    }

    Cycle
    nextEventCycle(Cycle cycle) const override
    {
        Cycle next = selfNext_;
        for (const auto &msg : inbox_)
            next = std::min(next, std::max(msg.visible, cycle + 1));
        return next;
    }

  private:
    struct Msg
    {
        Cycle visible;
        uint32_t from;
    };

    void
    event(Cycle cycle, const std::string &what)
    {
        log_->push_back("c" + std::to_string(cycle) + " n" +
                        std::to_string(idx_) + " " + what);
        if (++processed_ >= 40)
            return; // stop generating work so the network quiesces
        uint64_t roll = rng_.nextBounded(100);
        if (roll < 45) {
            auto &peer = *(*net_)[rng_.nextBounded(net_->size())];
            log_->push_back("c" + std::to_string(cycle) + " n" +
                            std::to_string(idx_) + " send" +
                            std::to_string(peer.idx_));
            peer.deliver(cycle, idx_);
        } else if (roll < 75) {
            Cycle at = cycle + 1 + rng_.nextBounded(12);
            if (at < selfNext_)
                selfNext_ = at;
        } // else: go idle until a peer wakes us
    }

    uint32_t idx_;
    Rng rng_;
    std::vector<std::unique_ptr<RandomNode>> *net_;
    std::vector<std::string> *log_;
    std::vector<Msg> inbox_;
    Cycle selfNext_;
    uint32_t processed_ = 0;
};

struct NetworkRun
{
    Cycle cycles;
    uint64_t skipped;
    std::vector<std::string> log;
};

NetworkRun
runNetwork(uint64_t seed, Simulator::Kernel kernel)
{
    StatRegistry stats;
    Simulator sim(stats);
    sim.setKernel(kernel);
    std::vector<std::unique_ptr<RandomNode>> net;
    std::vector<std::string> log;
    for (uint32_t i = 0; i < 6; ++i)
        net.push_back(std::make_unique<RandomNode>(i, seed, &net, &log));
    for (auto &node : net)
        sim.add(node.get());
    Cycle ran = sim.runToQuiescence(500'000);
    return {ran, sim.cyclesSkipped(), std::move(log)};
}

} // namespace

TEST(SchedulerOracle, RandomNetworkLockstepAcrossSeeds)
{
    uint64_t total_skipped = 0;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        NetworkRun polling = runNetwork(seed, Simulator::Kernel::Polling);
        NetworkRun event = runNetwork(seed, Simulator::Kernel::EventDriven);
        EXPECT_EQ(polling.cycles, event.cycles)
            << "cycle count diverged for seed " << seed;
        ASSERT_EQ(polling.log, event.log)
            << "event sequence diverged for seed " << seed;
        EXPECT_EQ(polling.skipped, 0u);
        total_skipped += event.skipped;
    }
    // The oracle is only meaningful if the event kernel actually slept.
    EXPECT_GT(total_skipped, 0u);
}

namespace {

/** Force the process-wide default kernel for one scope. */
struct DefaultKernelGuard
{
    explicit DefaultKernelGuard(Simulator::Kernel kernel)
    {
        Simulator::setDefaultKernel(kernel);
    }
    ~DefaultKernelGuard() { Simulator::resetDefaultKernel(); }
};

struct WorkloadRun
{
    uint64_t cycles;
    std::string stats;
};

WorkloadRun
runWorkload(Simulator::Kernel kernel, bool accelerated)
{
    DefaultKernelGuard guard(kernel);
    StatRegistry stats;
    workloads::BTreeWorkload wl(trees::BTreeKind::BTree, 1000, 128, 5);
    Config cfg;
    cfg.accelMode = accelerated ? AccelMode::Tta : AccelMode::BaselineGpu;
    workloads::RunMetrics m = accelerated ? wl.runAccelerated(cfg, stats)
                                          : wl.runBaseline(cfg, stats);
    std::ostringstream os;
    stats.dump(os);
    return {m.cycles, os.str()};
}

} // namespace

TEST(SchedulerOracle, WorkloadStatsBitIdenticalToPolling)
{
    for (bool accelerated : {false, true}) {
        WorkloadRun polling =
            runWorkload(Simulator::Kernel::Polling, accelerated);
        WorkloadRun event =
            runWorkload(Simulator::Kernel::EventDriven, accelerated);
        EXPECT_EQ(polling.cycles, event.cycles)
            << (accelerated ? "tta" : "baseline") << " cycles diverged";
        EXPECT_EQ(polling.stats, event.stats)
            << (accelerated ? "tta" : "baseline") << " stat dump diverged";
    }
}

// Few RTNN queries over a large cloud on TTA leave the cores asleep
// waiting on memory for most of the run. The event kernel must skip
// those cycles, not tick them, and still agree with polling bit for
// bit. It skips about 91% here, far above the 50% floor, so model
// changes do not make the check flaky.
TEST(SchedulerOracle, IdleHeavyRtnnSkipsMostCycles)
{
    auto run = [](Simulator::Kernel kernel) {
        DefaultKernelGuard guard(kernel);
        SchedulerTelemetry::reset();
        StatRegistry stats;
        workloads::RtnnWorkload wl(32768, 16, 1.0f, 7);
        Config cfg;
        cfg.accelMode = AccelMode::Tta;
        workloads::RunMetrics m = wl.runAccelerated(cfg, stats, false);
        return WorkloadRun{m.cycles, stats.dumpString()};
    };
    WorkloadRun polling = run(Simulator::Kernel::Polling);
    EXPECT_EQ(SchedulerTelemetry::cyclesSkipped(), 0u);
    WorkloadRun event = run(Simulator::Kernel::EventDriven);
    EXPECT_EQ(polling.cycles, event.cycles);
    EXPECT_EQ(polling.stats, event.stats);
    EXPECT_GE(SchedulerTelemetry::skippedFraction(), 0.5);
}

// The Sponza ambient-occlusion scene on baseline cores fills the L1
// input queues to their depth limit, so cores are refused by
// MemSystem::canAccept and sleep until the memory system's
// back-pressure wake. That edge only exists under the event kernel;
// polling must agree with it bit for bit.
TEST(SchedulerOracle, QueueSaturatedWorkloadBitIdenticalToPolling)
{
    auto run = [](Simulator::Kernel kernel) {
        Simulator::setDefaultKernel(kernel);
        StatRegistry stats;
        workloads::RayTracingWorkload wl(workloads::SceneKind::SponzaAo,
                                         16, 16, 2);
        Config cfg;
        cfg.accelMode = AccelMode::BaselineGpu;
        workloads::RunMetrics m = wl.runBaselineCores(cfg, stats);
        Simulator::resetDefaultKernel();
        return WorkloadRun{m.cycles, stats.dumpString()};
    };
    WorkloadRun polling = run(Simulator::Kernel::Polling);
    WorkloadRun event = run(Simulator::Kernel::EventDriven);
    EXPECT_EQ(polling.cycles, event.cycles);
    EXPECT_EQ(polling.stats, event.stats);
}

// An unknown kernel name, such as a stale TTA_SIM_KERNEL=threaded, must
// fail by name and list the kernels that exist. The environment is read
// once per process, so the check runs in a re-executed child.
TEST(SchedulerDeathTest, UnknownKernelNameIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setenv("TTA_SIM_KERNEL", "threaded", 1);
    EXPECT_EXIT(
        {
            try {
                Simulator::defaultKernel();
            } catch (const FatalError &e) {
                std::fprintf(stderr, "%s\n", e.what());
                std::exit(2);
            }
            std::exit(0);
        },
        ::testing::ExitedWithCode(2),
        "TTA_SIM_KERNEL must be 'event' or 'polling', got 'threaded'");
    unsetenv("TTA_SIM_KERNEL");
}
