/**
 * @file
 * Multi-threaded experiment runner.
 *
 * Every figure reproduction in bench/ is a sweep of independent
 * (Config, workload) simulations; the simulator itself threads no global
 * mutable state (each run owns its Config copy and StatRegistry), so the
 * sweep is embarrassingly parallel. ExperimentRunner shards a job list
 * across a std::thread pool:
 *
 *  - each Job gets a *private* StatRegistry and carries its own RNG seed,
 *    so a run is bit-identical whether it executes serially or on any
 *    worker thread of any pool size;
 *  - results come back in submission order regardless of completion
 *    order;
 *  - an exception escaping a job is captured in its RunRecord (the pool
 *    never wedges and the remaining jobs still run).
 *
 * Each finished run is summarized as a machine-readable JSON record
 * (name, config digest, seed, cycles, per-component counters/scalars/
 * histograms, wall-clock) so figures can be regenerated from structured
 * output instead of scraped text; see RunRecord::writeJson for the
 * schema.
 */

#ifndef TTA_SIM_RUNNER_HH
#define TTA_SIM_RUNNER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace tta::sim {

/** Stable FNV-1a digest over every Config field, as 16 hex digits.
 *  Two configs digest equal iff every field compares equal. */
std::string configDigest(const Config &cfg);

/** The outcome of one experiment run. */
struct RunRecord
{
    std::string name;         //!< job label, unique within a sweep
    std::string configDigest; //!< digest of the job's Config
    uint64_t seed = 0;        //!< the job's RNG seed
    uint64_t cycles = 0;      //!< simulated cycles (job-reported)
    double wallSeconds = 0.0; //!< host wall-clock of the job body
    std::string error;        //!< exception text if the job threw
    StatRegistry stats;       //!< the job's private registry
    /** Extra derived metrics the job wants in the JSON record. */
    std::map<std::string, double> values;

    bool failed() const { return !error.empty(); }

    /**
     * Emit the run as a single-line JSON object:
     *
     *   {"name": ..., "config": <digest>, "seed": N, "cycles": N,
     *    "values": {...}, "counters": {...}, "scalars": {...},
     *    "histograms": {name: {"count","mean","max","overflow"}},
     *    "error": ... (only if failed),
     *    "wall_ms": X (only when include_timing)}
     *
     * Everything except wall_ms is deterministic: records from a serial
     * and a parallel sweep compare byte-identical with
     * include_timing = false.
     */
    void writeJson(std::ostream &os, bool include_timing = true) const;
    std::string toJson(bool include_timing = true) const;
};

/** One schedulable experiment. */
struct Job
{
    std::string name;
    Config config;
    uint64_t seed = 0;
    /**
     * The experiment body. Receives the job's Config, its private
     * StatRegistry (also reachable as record.stats) and the RunRecord to
     * fill in (cycles, extra values). Must not touch state shared with
     * other jobs.
     */
    std::function<void(const Config &, StatRegistry &, RunRecord &)> fn;
    /**
     * Optional per-job event tracer. When set, the runner attaches it
     * to the job's private StatRegistry for the duration of the job
     * body (and detaches afterwards, so records never hold a dangling
     * pointer). One tracer per job keeps tracing safe under any pool
     * size; the submitter owns the tracers and exports them after
     * run() returns.
     */
    std::shared_ptr<Tracer> tracer;
};

class ExperimentRunner
{
  public:
    /** @param threads worker threads; 0 = hardware concurrency. */
    explicit ExperimentRunner(unsigned threads = 0);

    unsigned threads() const { return threads_; }

    /**
     * std::thread::hardware_concurrency() with the standard-permitted
     * 0 return ("not computable") mapped to 1, and an injectable test
     * hook, so the "auto" worker count never degenerates to zero.
     */
    static unsigned hardwareConcurrency();
    /** Test hook: force hardwareConcurrency()'s raw probe value
     *  (0 exercises the fallback); nullptr restores the real probe. */
    static void setHardwareConcurrencyHookForTest(unsigned (*probe)());

    /**
     * Execute all jobs and return their records in submission order.
     * Jobs that throw report through RunRecord::error; the pool always
     * drains the whole list.
     */
    std::vector<RunRecord> run(const std::vector<Job> &jobs) const;

  private:
    unsigned threads_;
};

} // namespace tta::sim

#endif // TTA_SIM_RUNNER_HH
