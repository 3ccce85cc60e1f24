/**
 * @file
 * Event-driven simulation framework.
 *
 * Every timing model in the repository is a TickedComponent; a Simulator
 * owns an ordered list of components and advances them one core-clock cycle
 * at a time. Ordering within a cycle is the registration order, which the
 * GPU top-level arranges producer-before-consumer so a request issued in
 * cycle N is visible to the next stage in cycle N+1 at the earliest
 * (single-cycle queues between stages enforce this).
 *
 * The kernel comes in two flavours, selected per Simulator:
 *
 *  - Polling (the original kernel, kept as the reference implementation):
 *    every component ticks every cycle, whether or not it has work.
 *
 *  - EventDriven (the default): components report, after each tick, the
 *    next cycle at which they can possibly do externally-visible work
 *    (kAsleep for "only an external event wakes me"). The simulator keeps
 *    a per-component due-cycle table and jumps the clock straight to the
 *    next due cycle, skipping quiescent stretches entirely. Traversal
 *    workloads are memory-latency-bound by design, so most cycles most
 *    components are waiting on DRAM — the skip is where the wall-clock
 *    speedup comes from.
 *
 * Event-driven correctness contract (see DESIGN.md "Event-driven
 * simulation kernel" for the full argument):
 *
 *  1. A component's tick(c) must behave identically whether or not the
 *     scheduler delivered the no-op ticks a polling kernel would have
 *     delivered in (lastTick, c). State-dependent work satisfies this
 *     automatically; per-cycle accounting (occupancy sampling, stall
 *     attribution) must be replayed in bulk via catchUp().
 *  2. nextEventCycle(c), called right after tick(c), must be conservative:
 *     returning X promises nothing externally visible (stat updates
 *     included) can happen strictly before X without an external wake.
 *  3. Producers wake consumers *before* mutating shared state, at the
 *     cycle the mutation happens (`wake(cycle)`): the scheduler resolves
 *     same-cycle visibility by registration order — a consumer that ticks
 *     later in the cycle than the in-progress producer sees the update
 *     this cycle, an earlier-ordered consumer next cycle — exactly the
 *     visibility the polling kernel's in-order full scan provides. The
 *     wake settles the consumer's bulk accounting (catchUp) against the
 *     still-unmutated state, so skipped-cycle stats match polling's
 *     per-cycle observations bit for bit.
 */

#ifndef TTA_SIM_TICKED_HH
#define TTA_SIM_TICKED_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"

namespace tta::sim {

using Cycle = uint64_t;

/**
 * Sentinel for "no self-scheduled wakeup": the component does nothing
 * until an external event (a wake() from a producer) arrives.
 */
inline constexpr Cycle kAsleep = ~Cycle{0};

class Simulator;

/** Interface for anything that does work each core-clock cycle. */
class TickedComponent
{
  public:
    explicit TickedComponent(std::string name) : name_(std::move(name)) {}
    virtual ~TickedComponent() = default;

    TickedComponent(const TickedComponent &) = delete;
    TickedComponent &operator=(const TickedComponent &) = delete;

    /** Advance one core-clock cycle. */
    virtual void tick(Cycle cycle) = 0;

    /**
     * @retval true if this component still has in-flight work.
     * The simulator runs until every component is quiescent.
     */
    virtual bool busy() const = 0;

    /**
     * Earliest future cycle at which this component can possibly do
     * externally-visible work without an external wake; kAsleep for
     * "wake me only on an event". Called by the event-driven kernel
     * immediately after tick(cycle); results <= cycle are treated as
     * cycle + 1 (retry next cycle). The default — tick again next
     * cycle, forever — makes legacy components polling-faithful under
     * either kernel.
     */
    virtual Cycle nextEventCycle(Cycle cycle) const { return cycle + 1; }

    /**
     * Replay per-cycle accounting (occupancy samples, stall attribution)
     * for the quiescent cycles [lastTick + 1, now) that the event-driven
     * kernel skipped. Must be idempotent for a given `now` and must be
     * based on current (pre-wake-mutation) state. Components whose tick
     * does no unconditional per-cycle accounting keep the no-op default.
     */
    virtual void catchUp(Cycle now) { (void)now; }

    /**
     * Ask the owning simulator to tick this component at `at` (resolved
     * against same-cycle ordering; see Simulator::wake). No-op when the
     * component is not registered or the kernel is polling.
     */
    void wake(Cycle at);
    /** wake() at the simulator's current cycle. */
    void wakeNow();

    const std::string &name() const { return name_; }

  private:
    friend class Simulator;

    std::string name_;
    Simulator *sched_ = nullptr; //!< set by Simulator::add()
    uint32_t schedIndex_ = 0;    //!< registration order == tick order
};

/**
 * Process-wide scheduler telemetry, aggregated across every Simulator
 * that finishes a run (finishAccounting). Golden-stat snapshots pin the
 * exact StatRegistry contents, so scheduler effectiveness is reported
 * out-of-band here instead of as registry stats; perfbench's `sim.*`
 * layer metrics and the scheduler tests read it through the workload
 * API without needing the Gpu object. Counters are atomic: `--jobs N`
 * sweeps aggregate across worker threads.
 */
struct SchedulerTelemetry
{
    /** Cycles actually processed (every component scan counts one). */
    static uint64_t cyclesTicked();
    /** Cycles skipped by the event-driven kernel (0 under polling). */
    static uint64_t cyclesSkipped();
    /** skipped / (ticked + skipped), 0 when nothing ran. */
    static double skippedFraction();
    static void reset();
};

class TraceStream;
class Tracer;

/**
 * The top-level run loop.
 *
 * Does not own components (they are owned by the machine model that wires
 * them together); it only sequences their tick() calls and tracks the
 * global cycle count.
 */
class Simulator
{
  public:
    enum class Kernel
    {
        EventDriven, //!< sleep/wake scheduling, idle-cycle skipping
        Polling,     //!< tick everything every cycle (reference kernel)
    };

    explicit Simulator(StatRegistry &stats);

    /** Register a component; tick order is registration order. */
    void add(TickedComponent *comp);

    /**
     * Kernel used when a Simulator does not choose explicitly:
     * EventDriven, unless TTA_SIM_KERNEL=polling is set in the
     * environment or a test/bench overrides it programmatically. Any
     * other TTA_SIM_KERNEL value is a fatal() naming the accepted ones.
     * (An env var rather than a Config field keeps configDigest — and
     * with it golden stats and run JSON — identical across kernels.)
     */
    static Kernel defaultKernel();
    static void setDefaultKernel(Kernel kernel);
    /** Back to the environment-derived default. */
    static void resetDefaultKernel();

    void setKernel(Kernel kernel) { kernel_ = kernel; }
    Kernel kernel() const { return kernel_; }

    /**
     * Watchdog limit used by runToQuiescence() when the caller passes 0;
     * defaults to Config::watchdogCycles so every entry point shares one
     * source of truth. Machine models forward their config's value here.
     */
    void setWatchdog(Cycle cycles) { watchdog_ = cycles; }
    Cycle watchdog() const { return watchdog_; }

    /**
     * Process the current cycle: tick every due component (every
     * component, under polling) in registration order, then advance the
     * clock by one.
     */
    void step();

    /**
     * Advance to and process the next cycle with scheduled work, without
     * moving the clock past `horizon` (so the watchdog still observes
     * deadlocks at the cycle it would under polling).
     * @retval false if nothing is scheduled (event-driven) / nothing is
     *         busy (polling) — the caller's run loop is done.
     */
    bool advance(Cycle horizon);

    /**
     * Run until all components are quiescent or the watchdog expires
     * (max_cycles = 0 means "use setWatchdog()'s limit", which defaults
     * to Config::watchdogCycles). Expiry means the model deadlocked
     * (some component will stay busy() forever); rather than hang,
     * panic() with the list of still-busy components so the culprit is
     * named in the abort message.
     * @return the number of cycles executed by this call.
     */
    Cycle runToQuiescence(Cycle max_cycles = 0);

    /**
     * Settle all bulk accounting at the current cycle and flush
     * scheduler telemetry. Run loops call this once after the last
     * cycle; without it, stats for a trailing skipped stretch would be
     * missing.
     */
    void finishAccounting();

    /** Comma-separated names of every component with in-flight work. */
    std::string busyComponentNames() const;

    Cycle cycle() const { return cycle_; }
    StatRegistry &stats() { return *stats_; }

    /** True if any registered component reports in-flight work. */
    bool
    anyBusy() const
    {
        for (const auto *comp : components_) {
            if (comp->busy())
                return true;
        }
        return false;
    }

    /**
     * Schedule comp to tick at cycle `at` (clamped to the present). A
     * same-cycle wake of a component that already ticked this cycle —
     * by registration order, relative to the component being ticked
     * right now — lands on the next cycle instead, preserving polling's
     * producer-before-consumer visibility. Settles the target's bulk
     * accounting (catchUp) before the caller mutates shared state.
     * No-op under the polling kernel (everything ticks anyway).
     */
    void wake(TickedComponent *comp, Cycle at);

    /** Components currently scheduled for a future tick. */
    uint32_t awakeComponents() const;
    /** Cycles processed by this simulator (both kernels). */
    uint64_t cyclesTicked() const { return cyclesTicked_; }
    /** Cycles the event-driven kernel skipped without processing. */
    uint64_t cyclesSkipped() const { return cyclesSkipped_; }
    /** skipped / (ticked + skipped) for this simulator. */
    double
    skippedFraction() const
    {
        uint64_t total = cyclesTicked_ + cyclesSkipped_;
        return total ? static_cast<double>(cyclesSkipped_) / total : 0.0;
    }

  private:
    void scheduleAt(uint32_t index, Cycle at);
    /** Earliest due cycle across all components; kAsleep if nothing is
     *  scheduled. A linear scan: the component count is tiny (cores +
     *  memory system + accelerators), so scanning nextDue_ beats any
     *  priority queue and never holds stale entries. */
    Cycle nextDueCycle() const;
    /** Emit the per-component awake/asleep trace counter on change. */
    void syncSchedTrace(uint32_t index);
    void flushTelemetry();

    /** Consume component `index`'s request for the current cycle and
     *  tick it, with the tick context (inTick_, tickIndex_) set. */
    void runDue(uint32_t index);

    StatRegistry *stats_;
    std::vector<TickedComponent *> components_;
    Cycle cycle_ = 0;
    Kernel kernel_;
    Cycle watchdog_;

    // Tick context for wake ordering: which component, if any, is
    // ticking right now (rule 3 resolves same-cycle wakes against it).
    bool inTick_ = false;
    uint32_t tickIndex_ = 0;

    // Event-driven state. Every wake / self-schedule is a firm tick
    // request in pending_ (sorted, unique, usually 1-2 entries); a tick
    // at cycle c consumes exactly the request at c, so no wake can be
    // lost to an earlier tick that returns kAsleep. nextDue_ caches
    // pending_[i].front() (kAsleep when empty) for the per-cycle scan
    // and for nextDueCycle()'s min reduction.
    std::vector<Cycle> nextDue_;
    std::vector<std::vector<Cycle>> pending_;

    uint64_t cyclesTicked_ = 0;
    uint64_t cyclesSkipped_ = 0;
    uint64_t flushedTicked_ = 0;
    uint64_t flushedSkipped_ = 0;

    // Perfetto-visible sleep/wake occupancy (TraceSched category).
    Tracer *tracer_ = nullptr;
    std::vector<TraceStream *> schedTrace_;
    std::vector<uint8_t> traceAwake_;
};

} // namespace tta::sim

#endif // TTA_SIM_TICKED_HH
