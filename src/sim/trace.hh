/**
 * @file
 * Cycle-level event tracing with Chrome trace-event export.
 *
 * Aggregate statistics (sim/stats.hh) say *how much* happened; a trace
 * says *when*. Components emit duration / instant / counter events into
 * per-component TraceStreams owned by a per-run Tracer; the buffered
 * events export as Chrome trace-event JSON that loads directly in
 * chrome://tracing or https://ui.perfetto.dev (timestamps are simulated
 * core-clock cycles, displayed by those tools as microseconds).
 *
 * Design constraints, in order:
 *
 *  1. Zero cost when disabled. Components keep a raw `TraceStream *`
 *     that is nullptr unless the run traces that category, so the hot
 *     path is one branch-on-null. Defining TTA_TRACE_COMPILED_MASK=0
 *     compiles tracing out entirely (stream() constant-folds to
 *     nullptr).
 *  2. Allocation-light when enabled. Events are fixed-size PODs in a
 *     per-stream ring buffer sized at stream creation; event names must
 *     be string literals (the stream stores the pointer). A full ring
 *     overwrites its oldest events and counts the drops; export keeps
 *     the newest window and repairs any B/E pairs the drops split.
 *  3. One Tracer per run. Under `--jobs N` every job gets its own Tracer
 *     and file, so jobs never share trace state. Stream creation is
 *     mutex-protected (streams are created lazily mid-run), each stream
 *     is single-writer because it belongs to exactly one component, and
 *     export renumbers tids in stream-name order, so the exported
 *     document does not depend on stream creation order.
 *
 * Wiring: a run attaches its Tracer to the run's StatRegistry
 * (StatRegistry::setTracer) before constructing the machine model;
 * components pick their streams up from the registry they already
 * receive. sim::ExperimentRunner does the attach automatically for
 * jobs that carry a tracer (Job::tracer).
 */

#ifndef TTA_SIM_TRACE_HH
#define TTA_SIM_TRACE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace tta::sim {

using Cycle = uint64_t;

/** Event categories, one bit each (the `cat` field of every event). */
enum TraceCategory : uint32_t
{
    TraceWarp = 1u << 0, //!< SIMT-core warp lifetime spans
    TraceRta = 1u << 1,  //!< RTA phase transitions (fetch/test/shader)
    TracePipe = 1u << 2, //!< intersection-pipeline occupancy counters
    TraceMem = 1u << 3,  //!< cache access / MSHR stall / fill, DRAM bus
    TraceOp = 1u << 4,   //!< TTA+ OP-unit reservation spans
    TraceSched = 1u << 5, //!< scheduler sleep/wake occupancy counters
    TraceAllCategories = (1u << 6) - 1,
};

/**
 * Compile-time category mask: categories outside it cost nothing, not
 * even the branch (stream() returns a compile-time nullptr). The
 * default compiles everything in; runtime masks select per run.
 */
#ifndef TTA_TRACE_COMPILED_MASK
#define TTA_TRACE_COMPILED_MASK ::tta::sim::TraceAllCategories
#endif

/** Short name ("warp", "mem", ...) of a single category bit. */
const char *traceCategoryName(TraceCategory cat);

/** One buffered event. `name` must outlive the Tracer (string literal). */
struct TraceEvent
{
    Cycle ts = 0;
    Cycle dur = 0;          //!< 'X' events only
    double value = 0.0;     //!< 'C' events only
    const char *name = "";
    char phase = 'i';       //!< 'B','E','X','i','C'
};

/**
 * An ordered event sink for one component (one Chrome-trace `tid`).
 * Obtained from Tracer::stream(); never constructed directly.
 */
class TraceStream
{
  public:
    /** Open a duration span ('B'). Pair with end(). */
    void begin(Cycle ts, const char *name) { push({ts, 0, 0.0, name, 'B'}); }
    /** Close the innermost open span ('E'). */
    void end(Cycle ts) { push({ts, 0, 0.0, "", 'E'}); }
    /** A span whose duration is already known ('X'). */
    void
    complete(Cycle ts, Cycle dur, const char *name)
    {
        push({ts, dur, 0.0, name, 'X'});
    }
    /** A point event ('i'). */
    void instant(Cycle ts, const char *name)
    {
        push({ts, 0, 0.0, name, 'i'});
    }
    /** A sampled value ('C'); emit on change, not per cycle. */
    void
    counter(Cycle ts, const char *name, double value)
    {
        push({ts, 0, value, name, 'C'});
    }

    const std::string &name() const { return name_; }
    uint32_t tid() const { return tid_; }
    TraceCategory category() const { return cat_; }
    uint64_t dropped() const { return dropped_; }
    size_t size() const { return size_; }

    /** Events oldest-to-newest (export order, before ts sorting). */
    std::vector<TraceEvent> snapshot() const;

  private:
    friend class Tracer;

    TraceStream(std::string name, uint32_t tid, TraceCategory cat,
                size_t capacity)
        : name_(std::move(name)), tid_(tid), cat_(cat), ring_(capacity)
    {}

    void
    push(const TraceEvent &ev)
    {
        ring_[head_] = ev;
        head_ = (head_ + 1) % ring_.size();
        if (size_ < ring_.size())
            ++size_;
        else
            ++dropped_;
    }

    std::string name_;
    uint32_t tid_;
    TraceCategory cat_;
    std::vector<TraceEvent> ring_;
    size_t head_ = 0;
    size_t size_ = 0;
    uint64_t dropped_ = 0;
};

/**
 * Per-run trace container: hands out streams and exports the whole run
 * as one Chrome trace-event JSON document.
 */
class Tracer
{
  public:
    /**
     * @param category_mask OR of TraceCategory bits to record.
     * @param ring_capacity events buffered per stream before the oldest
     *        are overwritten (drops are counted and reported).
     */
    explicit Tracer(uint32_t category_mask = TraceAllCategories,
                    size_t ring_capacity = 1 << 14);

    /** Does this run record `cat`? Constant-false if compiled out. */
    bool
    wants(TraceCategory cat) const
    {
        return (mask_ & TTA_TRACE_COMPILED_MASK & cat) != 0;
    }

    /**
     * The stream for component `name` under `cat`; nullptr when the
     * category is disabled (callers keep the pointer and branch on it).
     * Streams are deduplicated by name; the category of the first
     * request wins.
     */
    TraceStream *stream(const std::string &name, TraceCategory cat);

    uint32_t mask() const { return mask_; }
    size_t numStreams() const { return streams_.size(); }
    /** Total events dropped to ring overwrites across all streams. */
    uint64_t droppedEvents() const;

    /**
     * Export one complete `{"traceEvents": [...]}` document for this
     * run (process name defaults to "sim").
     */
    void writeJson(std::ostream &os,
                   const std::string &process_name = "sim") const;

    /**
     * Append this run's events (plus process/thread metadata) to an
     * already-open trace-event array, as Chrome-trace process `pid`.
     * `first` tracks comma placement across calls and runs.
     */
    void writeEvents(std::ostream &os, uint32_t pid,
                     const std::string &process_name, bool &first) const;

    /**
     * Parse a category mask spec: comma-separated names ("warp,mem"),
     * "all", or a plain number. @throws FatalError on unknown names.
     */
    static uint32_t parseMask(const std::string &spec);
    /** Render a mask as the comma-separated form parseMask accepts. */
    static std::string maskToString(uint32_t mask);

  private:
    uint32_t mask_;
    size_t ringCapacity_;
    /** Guards streams_: streams are created lazily mid-run (e.g.
     *  per-warp streams on first dispatch), and one Tracer may be
     *  shared by simulations on several host threads (DeviceGroup
     *  staging workers). */
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<TraceStream>> streams_;
    uint32_t nextTid_ = 1;
};

} // namespace tta::sim

#endif // TTA_SIM_TRACE_HH
