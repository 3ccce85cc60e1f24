/**
 * @file
 * Simulation-kernel tests: statistics, logging, RNG determinism, config
 * derived quantities, and the run loop.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/ticked.hh"

using namespace tta::sim;

TEST(Stats, CountersScalarsHistograms)
{
    StatRegistry stats;
    Counter &c = stats.counter("a.b");
    ++c;
    c += 5;
    EXPECT_EQ(stats.counterValue("a.b"), 6u);
    EXPECT_EQ(stats.counterValue("missing"), 0u);

    Scalar &s = stats.scalar("x");
    s.set(2.5);
    s += 0.5;
    EXPECT_DOUBLE_EQ(stats.scalarValue("x"), 3.0);

    Histogram &h = stats.histogram("h", 1.0, 8);
    h.sample(0.5);
    h.sample(3.5);
    h.sample(100.0); // clamps into the last bucket
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.maxValue(), 100.0);
    EXPECT_NEAR(h.mean(), 104.0 / 3, 1e-9);
    EXPECT_EQ(h.buckets()[0], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.buckets()[7], 1u);
}

TEST(Stats, HistogramTracksOverflow)
{
    StatRegistry stats;
    Histogram &h = stats.histogram("lat", 2.0, 4); // covers [0, 8)
    h.sample(0.0);
    h.sample(7.9);
    EXPECT_EQ(h.overflow(), 0u);

    h.sample(8.0); // first value past the top bucket edge
    h.sample(1e6);
    EXPECT_EQ(h.overflow(), 2u);
    // Overflowing samples still clamp into the last bucket (which also
    // holds 7.9), so the bucket sum keeps matching the sample count.
    EXPECT_EQ(h.buckets().back(), 3u);
    EXPECT_EQ(h.count(), 4u);

    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("lat.overflow 2"), std::string::npos);

    h.reset();
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Stats, SameNameSharesCounter)
{
    StatRegistry stats;
    Counter &a = stats.counter("shared");
    Counter &b = stats.counter("shared");
    ++a;
    ++b;
    EXPECT_EQ(stats.counterValue("shared"), 2u);
}

TEST(Stats, ResetAndDump)
{
    StatRegistry stats;
    stats.counter("n") += 7;
    stats.scalar("v").set(1.0);
    std::ostringstream os;
    stats.dump(os);
    EXPECT_NE(os.str().find("n 7"), std::string::npos);
    std::ostringstream csv;
    stats.dumpCsv(csv);
    EXPECT_NE(csv.str().find("n,7"), std::string::npos);
    stats.reset();
    EXPECT_EQ(stats.counterValue("n"), 0u);
}

TEST(Logging, FatalThrowsPanicKillsNot)
{
    EXPECT_THROW(fatal("bad user input %d", 7), FatalError);
    try {
        fatal("value %s", "xyz");
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("xyz"), std::string::npos);
    }
    EXPECT_NO_THROW(fatal_if(false, "not raised"));
    EXPECT_THROW(fatal_if(true, "raised"), FatalError);
}

TEST(Rng, DeterministicAndSeedSensitive)
{
    Rng a(99), b(99), c(100);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(99);
    for (int i = 0; i < 10; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, RangesRespected)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        float f = rng.nextFloat();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
        uint64_t k = rng.nextBounded(17);
        EXPECT_LT(k, 17u);
        float u = rng.uniform(-2.0f, 3.0f);
        EXPECT_GE(u, -2.0f);
        EXPECT_LT(u, 3.0f);
    }
    // Gaussian has roughly zero mean.
    double sum = 0;
    for (int i = 0; i < 5000; ++i)
        sum += rng.gaussian();
    EXPECT_NEAR(sum / 5000, 0.0, 0.1);
}

TEST(Config, DerivedQuantitiesAndPrint)
{
    Config cfg;
    EXPECT_NEAR(cfg.memClockRatio(), 3500.0 / 1365.0, 1e-9);
    EXPECT_GT(cfg.dramPeakBytesPerCoreCycle(), 0.0);
    EXPECT_EQ(std::string(accelModeName(AccelMode::TtaPlus)), "TTA+");
}

namespace {

class CountDown : public TickedComponent
{
  public:
    explicit CountDown(int n) : TickedComponent("cd"), remaining_(n) {}
    void
    tick(Cycle) override
    {
        if (remaining_ > 0)
            --remaining_;
    }
    bool busy() const override { return remaining_ > 0; }

  private:
    int remaining_;
};

} // namespace

TEST(Simulator, RunsToQuiescence)
{
    StatRegistry stats;
    Simulator sim(stats);
    CountDown a(10), b(25);
    sim.add(&a);
    sim.add(&b);
    Cycle ran = sim.runToQuiescence();
    EXPECT_EQ(ran, 25u);
    EXPECT_FALSE(sim.anyBusy());
}

namespace {

/** A component that never quiesces — a modeled deadlock. */
class AlwaysBusy : public TickedComponent
{
  public:
    explicit AlwaysBusy(std::string name) : TickedComponent(std::move(name))
    {}
    void tick(Cycle) override {}
    bool busy() const override { return true; }
};

} // namespace

TEST(Simulator, BusyComponentNamesListsOnlyBusyOnes)
{
    StatRegistry stats;
    Simulator sim(stats);
    CountDown done(0);
    AlwaysBusy a("rta0"), b("memsys");
    sim.add(&a);
    sim.add(&done);
    sim.add(&b);
    EXPECT_EQ(sim.busyComponentNames(), "rta0, memsys");
}

TEST(SimulatorDeathTest, WatchdogPanicsNamingBusyComponents)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    StatRegistry stats;
    Simulator sim(stats);
    CountDown quiet(3);
    AlwaysBusy stuck("stuck.unit");
    sim.add(&quiet);
    sim.add(&stuck);
    // The watchdog must abort instead of hanging, and its message must
    // name the component that still reports in-flight work.
    EXPECT_DEATH(sim.runToQuiescence(100),
                 "did not quiesce within 100 cycles.*stuck\\.unit");
}

TEST(Config, WatchdogLimitIsConfigurable)
{
    Config cfg;
    // Generous default: far beyond any legitimate run in this repo, so
    // it only fires on true deadlocks.
    EXPECT_GE(cfg.watchdogCycles, 1'000'000'000ull);
    cfg.watchdogCycles = 1234;
    EXPECT_EQ(cfg.watchdogCycles, 1234u);
}
