#include "sim/ticked.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string_view>

#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace tta::sim {

namespace {

/** Programmatic default-kernel override; -1 = use the environment. */
std::atomic<int> forced_kernel{-1};

// Process-wide telemetry pools (see SchedulerTelemetry in ticked.hh).
std::atomic<uint64_t> g_cycles_ticked{0};
std::atomic<uint64_t> g_cycles_skipped{0};

} // namespace

uint64_t
SchedulerTelemetry::cyclesTicked()
{
    return g_cycles_ticked.load(std::memory_order_relaxed);
}

uint64_t
SchedulerTelemetry::cyclesSkipped()
{
    return g_cycles_skipped.load(std::memory_order_relaxed);
}

double
SchedulerTelemetry::skippedFraction()
{
    uint64_t skipped = cyclesSkipped();
    uint64_t total = cyclesTicked() + skipped;
    return total ? static_cast<double>(skipped) / total : 0.0;
}

void
SchedulerTelemetry::reset()
{
    g_cycles_ticked.store(0, std::memory_order_relaxed);
    g_cycles_skipped.store(0, std::memory_order_relaxed);
}

void
TickedComponent::wake(Cycle at)
{
    if (sched_)
        sched_->wake(this, at);
}

void
TickedComponent::wakeNow()
{
    // Cycle 0 clamps to the simulator's current cycle inside wake().
    if (sched_)
        sched_->wake(this, 0);
}

Simulator::Kernel
Simulator::defaultKernel()
{
    int forced = forced_kernel.load(std::memory_order_relaxed);
    if (forced >= 0)
        return static_cast<Kernel>(forced);
    static const Kernel env_kernel = [] {
        const char *env = std::getenv("TTA_SIM_KERNEL");
        if (!env || !*env)
            return Kernel::EventDriven;
        std::string_view spec(env);
        if (spec == "polling")
            return Kernel::Polling;
        if (spec == "event")
            return Kernel::EventDriven;
        fatal("TTA_SIM_KERNEL must be 'event' or 'polling', got '%s'",
              env);
    }();
    return env_kernel;
}

void
Simulator::setDefaultKernel(Kernel kernel)
{
    forced_kernel.store(static_cast<int>(kernel), std::memory_order_relaxed);
}

void
Simulator::resetDefaultKernel()
{
    forced_kernel.store(-1, std::memory_order_relaxed);
}

Simulator::Simulator(StatRegistry &stats)
    : stats_(&stats), kernel_(defaultKernel()),
      watchdog_(Config{}.watchdogCycles), tracer_(stats.tracer())
{}

void
Simulator::add(TickedComponent *comp)
{
    comp->sched_ = this;
    comp->schedIndex_ = static_cast<uint32_t>(components_.size());
    components_.push_back(comp);
    nextDue_.push_back(kAsleep);
    pending_.emplace_back();
    traceAwake_.push_back(0);
    schedTrace_.push_back(
        tracer_ ? tracer_->stream("sched." + comp->name(), TraceSched)
                : nullptr);
    if (kernel_ != Kernel::Polling)
        scheduleAt(comp->schedIndex_, cycle_);
}

void
Simulator::syncSchedTrace(uint32_t index)
{
    TraceStream *ts = schedTrace_[index];
    if (!ts)
        return;
    uint8_t awake = nextDue_[index] != kAsleep ? 1 : 0;
    if (awake == traceAwake_[index])
        return;
    traceAwake_[index] = awake;
    ts->counter(cycle_, "awake", awake);
}

void
Simulator::scheduleAt(uint32_t index, Cycle at)
{
    // Every wake / self-schedule is a firm tick request; a tick at cycle
    // c consumes exactly the request at c, so a request can never be
    // lost to an earlier tick that returns kAsleep (it fires later as a
    // harmless no-op if the work turned out to be done already).
    auto &reqs = pending_[index];
    auto it = std::lower_bound(reqs.begin(), reqs.end(), at);
    if (it != reqs.end() && *it == at)
        return; // already requested for that cycle
    reqs.insert(it, at);
    if (at < nextDue_[index])
        nextDue_[index] = at; // cached reqs.front()
    syncSchedTrace(index);
}

void
Simulator::wake(TickedComponent *comp, Cycle at)
{
    panic_if(comp->sched_ != this, "wake() for unregistered component %s",
             comp->name().c_str());
    if (kernel_ == Kernel::Polling)
        return; // everything ticks every cycle anyway
    uint32_t index = comp->schedIndex_;
    if (at < cycle_)
        at = cycle_;
    // Same-cycle wakes resolve by registration order against the
    // component being ticked right now: targets at or before the scan
    // position already ran this cycle and see the producer's update next
    // cycle, later targets still this cycle — matching the polling
    // kernel's in-order scan.
    if (at == cycle_ && inTick_ && index <= tickIndex_)
        ++at;
    // Settle skipped-cycle accounting against pre-mutation state (the
    // producer calls wake() before touching shared state). Wakes further
    // out than the next cycle (not used by the machine models) must not
    // account ahead of cycles the target may still tick through.
    if (at <= cycle_ + 1)
        comp->catchUp(at);
    scheduleAt(index, at);
}

void
Simulator::runDue(uint32_t index)
{
    auto &reqs = pending_[index];
    reqs.erase(reqs.begin()); // consume exactly this cycle's request
    nextDue_[index] = reqs.empty() ? kAsleep : reqs.front();
    TickedComponent *comp = components_[index];
    inTick_ = true;
    tickIndex_ = index;
    comp->tick(cycle_);
    Cycle next = comp->nextEventCycle(cycle_);
    if (next != kAsleep)
        scheduleAt(index, next <= cycle_ ? cycle_ + 1 : next);
    syncSchedTrace(index);
    inTick_ = false;
}

void
Simulator::step()
{
    if (kernel_ == Kernel::Polling) {
        for (auto *comp : components_)
            comp->tick(cycle_);
    } else {
        for (uint32_t i = 0; i < components_.size(); ++i) {
            if (nextDue_[i] == cycle_)
                runDue(i);
        }
    }
    ++cycle_;
    ++cyclesTicked_;
}

Cycle
Simulator::nextDueCycle() const
{
    Cycle best = kAsleep;
    for (Cycle due : nextDue_)
        best = std::min(best, due);
    return best;
}

uint32_t
Simulator::awakeComponents() const
{
    uint32_t n = 0;
    for (Cycle due : nextDue_)
        n += due != kAsleep ? 1 : 0;
    return n;
}

bool
Simulator::advance(Cycle horizon)
{
    if (kernel_ == Kernel::Polling) {
        if (!anyBusy())
            return false;
        step();
        return true;
    }
    Cycle due = nextDueCycle();
    if (due == kAsleep)
        return false;
    if (due > horizon) {
        // Nothing to do before the watchdog's horizon: hand the clock to
        // the caller's expiry check without processing anything.
        cyclesSkipped_ += horizon + 1 - cycle_;
        cycle_ = horizon + 1;
        return true;
    }
    cyclesSkipped_ += due - cycle_;
    cycle_ = due;
    step();
    return true;
}

Cycle
Simulator::runToQuiescence(Cycle max_cycles)
{
    if (max_cycles == 0)
        max_cycles = watchdog_;
    Cycle start = cycle_;
    while (anyBusy()) {
        if (!advance(start + max_cycles - 1)) {
            panic("simulation stalled: component(s) busy with no "
                  "scheduled wakeup; still-busy components: [%s]",
                  busyComponentNames().c_str());
        }
        if (cycle_ - start >= max_cycles) {
            panic("simulation did not quiesce within %llu cycles; "
                  "still-busy components: [%s]",
                  static_cast<unsigned long long>(max_cycles),
                  busyComponentNames().c_str());
        }
    }
    finishAccounting();
    return cycle_ - start;
}

void
Simulator::finishAccounting()
{
    for (auto *comp : components_)
        comp->catchUp(cycle_);
    flushTelemetry();
}

void
Simulator::flushTelemetry()
{
    g_cycles_ticked.fetch_add(cyclesTicked_ - flushedTicked_,
                              std::memory_order_relaxed);
    g_cycles_skipped.fetch_add(cyclesSkipped_ - flushedSkipped_,
                               std::memory_order_relaxed);
    flushedTicked_ = cyclesTicked_;
    flushedSkipped_ = cyclesSkipped_;
}

std::string
Simulator::busyComponentNames() const
{
    std::string names;
    for (const auto *comp : components_) {
        if (!comp->busy())
            continue;
        if (!names.empty())
            names += ", ";
        names += comp->name();
    }
    return names;
}

} // namespace tta::sim
