/**
 * @file
 * Shared plumbing for the figure/table reproduction benches: flag
 * parsing, the parallel sweep harness over sim::ExperimentRunner, and
 * table printing. Each bench binary regenerates one of the paper's
 * figures or tables (see DESIGN.md's experiment index) and accepts size
 * overrides so paper-scale runs are possible:
 *
 *   --keys=N --queries=N --bodies=N --points=N --res=N --seed=N
 *
 * plus runner controls:
 *
 *   --jobs=N        worker threads (default: hardware concurrency)
 *   --json=FILE     append one JSON record per run ("-" = stdout)
 *   --json-timing=0 omit wall_ms from the records, making them
 *                   byte-identical across --jobs settings
 *   --trace FILE[:mask]  write a Chrome trace-event JSON of every run
 *                   (also accepted as --trace=FILE[:mask]). The optional
 *                   mask selects categories (warp,rta,pipe,mem,op or
 *                   "all"). Each job records into its own sim::Tracer
 *                   (safe under --jobs N); all runs merge into FILE as
 *                   separate trace processes, and multi-job sweeps
 *                   additionally write FILE-derived per-job files.
 *                   Tracing also prints a stall-cause attribution table.
 *
 * Every bench parses its flags with a FlagSet: `--help` lists them and
 * an unknown flag exits 64.
 *
 * Benches queue every simulation as a Sweep job, run the whole sweep
 * through the thread pool, then print their tables from the collected
 * results — output is identical to the old serial drivers.
 */

#ifndef TTA_BENCH_COMMON_HH
#define TTA_BENCH_COMMON_HH

#include <atomic>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/runner.hh"
#include "sim/trace.hh"
#include "workloads/btree_workload.hh"
#include "workloads/nbody_workload.hh"
#include "workloads/raytracing_workload.hh"
#include "workloads/rtnn_workload.hh"

namespace bench {

using namespace tta;
using namespace ::tta::workloads;

struct Args
{
    size_t keys = 100000;
    size_t queries = 16384;
    size_t bodies = 4096;
    size_t points = 32768;
    uint32_t res = 48;
    uint64_t seed = 7;
    uint64_t jobs = 0;       //!< runner threads; 0 = hardware concurrency
    uint64_t jsonTiming = 1; //!< include wall_ms in JSON records
    std::string json;        //!< JSON record sink; empty = off, "-" = stdout
    std::string trace;       //!< Chrome-trace sink; empty = tracing off
    uint32_t traceMask = sim::TraceAllCategories;

    /** Split "FILE[:mask]" into the trace path + category mask. The
     *  suffix counts as a mask only if Tracer::parseMask accepts it, so
     *  plain paths containing ':' still work. */
    void
    setTraceSpec(const std::string &spec)
    {
        trace = spec;
        traceMask = sim::TraceAllCategories;
        size_t colon = spec.rfind(':');
        if (colon == std::string::npos || colon + 1 >= spec.size())
            return;
        try {
            traceMask = sim::Tracer::parseMask(spec.substr(colon + 1));
            trace = spec.substr(0, colon);
        } catch (const sim::FatalError &) {
            // Not a mask: the whole spec is the filename.
        }
    }

    /** Parse the shared flags (registerCommonFlags) strictly: --help
     *  lists them and exits 0, anything else exits 64. */
    static Args parse(int argc, char **argv);
};

/**
 * Registration-based CLI parser shared by every bench: each accepted
 * flag is registered once with its help line, `--help` is generated
 * from the registrations (so it can never drift from the accepted
 * flags), and unknown flags exit 64, the usage exit code.
 *
 * Value flags accept both `--name=V` and `--name V`. Numeric values are
 * strict: an empty value, trailing characters, a sign on an unsigned
 * flag or a value out of the field's range exits 64 with a message
 * that names the flag and the value.
 */
class FlagSet
{
  public:
    static constexpr int kExitUsage = 64;

    FlagSet(std::string prog, std::string blurb)
        : prog_(std::move(prog)), blurb_(std::move(blurb))
    {
    }

    /** Unsigned integer flag: --name=N (or --name N). */
    template <class T>
    void
    number(const char *name, T &field, const char *help)
    {
        static_assert(std::is_unsigned_v<T>);
        std::string flag_name = std::string("--") + name;
        add(name, Arity::Required, help,
            [&field, flag_name](const std::string &v) {
                field = static_cast<T>(parseUnsigned(
                    flag_name, v, std::numeric_limits<T>::max()));
            });
    }

    /** Floating-point flag; the value must be finite. */
    void
    real(const char *name, double &field, const char *help)
    {
        std::string flag_name = std::string("--") + name;
        add(name, Arity::Required, help,
            [&field, flag_name](const std::string &v) {
                char *end = nullptr;
                errno = 0;
                double x = std::strtod(v.c_str(), &end);
                if (v.empty() || std::isspace(static_cast<unsigned char>(
                                     v[0])) ||
                    *end != '\0' || errno == ERANGE || !std::isfinite(x))
                    badValue(flag_name, v, "a finite number");
                field = x;
            });
    }

    /** String flag. */
    void
    str(const char *name, std::string &field, const char *help)
    {
        add(name, Arity::Required, help,
            [&field](const std::string &v) { field = v; });
    }

    /** Valueless flag: presence sets @p field true. */
    void
    flag(const char *name, bool &field, const char *help)
    {
        add(name, Arity::None, help,
            [&field](const std::string &) { field = true; });
    }

    /** Arbitrary handler; @p takes_value decides --name vs --name=V. */
    void
    custom(const char *name, bool takes_value, const char *help,
           std::function<void(const std::string &)> fn)
    {
        add(name, takes_value ? Arity::Required : Arity::None, help,
            std::move(fn));
    }

    void
    printHelp() const
    {
        std::printf("usage: %s [flags]\n", prog_.c_str());
        if (!blurb_.empty())
            std::printf("%s\n", blurb_.c_str());
        std::printf("flags:\n");
        for (const auto &o : opts_) {
            std::string left = "--" + o.name;
            if (o.arity == Arity::Required)
                left += "=V";
            std::printf("  %-26s %s\n", left.c_str(), o.help.c_str());
        }
        std::printf("  %-26s %s\n", "--help", "print this and exit 0");
    }

    /** Parse argv; handles --help (exit 0), unknowns exit 64. */
    void
    parse(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            if (a == "--help" || a == "-h") {
                printHelp();
                std::exit(0);
            }
            const Opt *opt = nullptr;
            std::string value;
            bool have_value = false;
            if (a.rfind("--", 0) == 0) {
                size_t eq = a.find('=');
                std::string name = a.substr(2, eq == std::string::npos
                                                   ? std::string::npos
                                                   : eq - 2);
                opt = find(name);
                if (opt && eq != std::string::npos) {
                    value = a.substr(eq + 1);
                    have_value = true;
                }
            }
            if (!opt) {
                std::fprintf(stderr,
                             "unknown flag %s (--help lists flags)\n",
                             a.c_str());
                std::exit(kExitUsage);
            }
            if (opt->arity == Arity::Required && !have_value) {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "--%s needs a value\n",
                                 opt->name.c_str());
                    std::exit(kExitUsage);
                }
                value = argv[++i];
            } else if (opt->arity == Arity::None && have_value) {
                std::fprintf(stderr, "--%s takes no value\n",
                             opt->name.c_str());
                std::exit(kExitUsage);
            }
            opt->fn(value);
        }
    }

  private:
    [[noreturn]] static void
    badValue(const std::string &flag, const std::string &v,
             const char *want)
    {
        std::fprintf(stderr, "bad value for %s: '%s' (want %s)\n",
                     flag.c_str(), v.c_str(), want);
        std::exit(kExitUsage);
    }

    /** Whole-string unsigned decimal in [0, @p max]; anything else
     *  (empty, a sign or space, trailing characters, ERANGE, or above
     *  @p max) exits 64. */
    static uint64_t
    parseUnsigned(const std::string &flag, const std::string &v,
                  uint64_t max)
    {
        char *end = nullptr;
        errno = 0;
        unsigned long long x = std::strtoull(v.c_str(), &end, 10);
        if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0])) ||
            *end != '\0')
            badValue(flag, v, "an unsigned integer");
        if (errno == ERANGE || x > max)
            badValue(flag, v,
                     ("an unsigned integer <= " + std::to_string(max))
                         .c_str());
        return x;
    }

    enum class Arity
    {
        None,
        Required
    };

    struct Opt
    {
        std::string name;
        Arity arity;
        std::string help;
        std::function<void(const std::string &)> fn;
    };

    void
    add(const char *name, Arity arity, const char *help,
        std::function<void(const std::string &)> fn)
    {
        opts_.push_back({name, arity, help, std::move(fn)});
    }

    const Opt *
    find(const std::string &name) const
    {
        for (const auto &o : opts_)
            if (o.name == name)
                return &o;
        return nullptr;
    }

    std::string prog_;
    std::string blurb_;
    std::vector<Opt> opts_;
};

/**
 * Register the shared workload/runner flags on a FlagSet, so every
 * bench keeps one source of truth for the common surface.
 */
inline void
registerCommonFlags(FlagSet &fs, Args &args)
{
    fs.number("keys", args.keys, "B-Tree key count");
    fs.number("queries", args.queries, "queries / arrivals per run");
    fs.number("bodies", args.bodies, "n-body population");
    fs.number("points", args.points, "point-cloud size");
    fs.number("res", args.res, "framebuffer resolution (NxN)");
    fs.number("seed", args.seed, "workload RNG seed");
    fs.number("jobs", args.jobs,
              "runner threads (0 = hardware concurrency)");
    fs.str("json", args.json,
           "append one JSON record per run ('-' = stdout)");
    fs.number("json-timing", args.jsonTiming,
              "0 omits wall_ms for byte-identical records");
    fs.custom("trace", true, "Chrome-trace output FILE[:mask]",
              [&args](const std::string &v) { args.setTraceSpec(v); });
}

inline Args
Args::parse(int argc, char **argv)
{
    Args args;
    FlagSet fs(argv[0], "");
    registerCommonFlags(fs, args);
    fs.parse(argc, argv);
    return args;
}

inline sim::Config
modeConfig(sim::AccelMode mode)
{
    sim::Config cfg;
    cfg.accelMode = mode;
    return cfg;
}

inline double
speedup(const RunMetrics &base, const RunMetrics &accel)
{
    return static_cast<double>(base.cycles) / accel.cycles;
}

inline double
geomean(const std::vector<double> &xs)
{
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return xs.empty() ? 0.0 : std::exp(acc / xs.size());
}

/**
 * Host-side build cache for read-only state that many consumers share
 * at once: service tenant data is built once per key and shared across
 * tenants, devices and the scenarios of one bench_service process.
 *
 * Thread-safe: concurrent pool jobs asking for the same key build it
 * once (the others block until the prototype is ready); distinct keys
 * build concurrently.
 */
class WorkloadCache
{
  public:
    /**
     * The shared immutable prototype for @p key, built on first use.
     * @p build must return the shared_ptr<const W> to cache, so types
     * whose internals self-reference (and so must never move) are built
     * in place.
     */
    template <class W, class Build>
    std::shared_ptr<const W>
    getShared(const std::string &key, Build &&build)
    {
        auto entry = lookup<W>(key);
        std::call_once(entry->once, [&] { entry->proto = build(); });
        return entry->proto;
    }

    /** Lookups that found an already-cached prototype / total. */
    uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    uint64_t lookups() const
    {
        return lookups_.load(std::memory_order_relaxed);
    }

  private:
    template <class W>
    struct Entry
    {
        std::once_flag once;
        std::shared_ptr<const W> proto;
    };

    template <class W>
    std::shared_ptr<Entry<W>>
    lookup(const std::string &key)
    {
        lookups_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu_);
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            auto entry = std::make_shared<Entry<W>>();
            cache_[key] = entry;
            return entry;
        }
        hits_.fetch_add(1, std::memory_order_relaxed);
        return std::static_pointer_cast<Entry<W>>(it->second);
    }

    std::mutex mu_;
    std::map<std::string, std::shared_ptr<void>> cache_;
    std::atomic<uint64_t> lookups_{0};
    std::atomic<uint64_t> hits_{0};
};

/**
 * A queued-up experiment sweep.
 *
 * add() enqueues one simulation (the callback builds its own workload so
 * concurrent jobs share nothing); run() executes every job across the
 * --jobs thread pool, records per-run JSON if requested, and aborts the
 * bench if any job failed. Results keep submission order: metrics(i) /
 * record(i) correspond to the i-th add().
 */
class Sweep
{
  public:
    using RunFn =
        std::function<RunMetrics(const sim::Config &, sim::StatRegistry &)>;

    explicit Sweep(const Args &args) : args_(args) {}

    /** Queue one run; returns its index into metrics()/record(). */
    size_t
    add(std::string name, const sim::Config &cfg, RunFn fn)
    {
        size_t idx = jobs_.size();
        sim::Job job;
        job.name = std::move(name);
        job.config = cfg;
        job.seed = args_.seed;
        if (!args_.trace.empty())
            job.tracer = std::make_shared<sim::Tracer>(args_.traceMask);
        job.fn = [this, idx, fn = std::move(fn)](
                     const sim::Config &config, sim::StatRegistry &stats,
                     sim::RunRecord &rec) {
            RunMetrics m = fn(config, stats);
            metrics_[idx] = m;
            rec.cycles = m.cycles;
            rec.values["simt_efficiency"] = m.simtEfficiency;
            rec.values["dram_utilization"] = m.dramUtilization;
            rec.values["insts_total"] =
                static_cast<double>(m.totalInsts());
            rec.values["flops"] = static_cast<double>(m.flops);
            rec.values["dram_bytes"] = static_cast<double>(m.dramBytes);
            rec.values["nodes_visited"] =
                static_cast<double>(m.nodesVisited);
            rec.values["node_bytes_fetched"] =
                static_cast<double>(m.nodeBytesFetched);
            rec.values["energy_total"] = m.energy.total();
        };
        jobs_.push_back(std::move(job));
        return idx;
    }

    /** Execute all queued jobs; call once, before reading results. */
    void
    run()
    {
        metrics_.assign(jobs_.size(), RunMetrics{});
        sim::ExperimentRunner runner(
            static_cast<unsigned>(args_.jobs));
        records_ = runner.run(jobs_);
        emitJson();
        emitTraces();
        for (const auto &rec : records_) {
            if (rec.failed()) {
                std::fprintf(stderr, "run '%s' failed: %s\n",
                             rec.name.c_str(), rec.error.c_str());
                std::exit(1);
            }
        }
        if (!args_.trace.empty())
            printStallReport();
    }

    const RunMetrics &metrics(size_t i) const { return metrics_[i]; }
    const RunMetrics &operator[](size_t i) const { return metrics_[i]; }
    const sim::RunRecord &record(size_t i) const { return records_[i]; }
    size_t size() const { return jobs_.size(); }

  private:
    void
    emitJson()
    {
        if (args_.json.empty())
            return;
        std::ofstream file;
        std::ostream *os = nullptr;
        if (args_.json == "-") {
            os = &std::cout;
        } else {
            file.open(args_.json, std::ios::app);
            if (!file) {
                std::fprintf(stderr, "cannot open %s for JSON records\n",
                             args_.json.c_str());
                std::exit(1);
            }
            os = &file;
        }
        for (const auto &rec : records_) {
            rec.writeJson(*os, args_.jsonTiming != 0);
            *os << "\n";
        }
    }

    /**
     * Export event traces (no-op unless --trace was given). All runs
     * merge into the requested file as separate Chrome-trace processes;
     * multi-job sweeps additionally write one file per job next to it.
     * Runs single-threaded after the pool joins, so any --jobs setting
     * is safe.
     */
    void
    emitTraces()
    {
        if (args_.trace.empty())
            return;
        std::ofstream merged(args_.trace);
        if (!merged) {
            std::fprintf(stderr, "cannot open %s for trace output\n",
                         args_.trace.c_str());
            std::exit(1);
        }
        merged << "{\"traceEvents\":[\n";
        bool first = true;
        uint64_t dropped = 0;
        for (size_t i = 0; i < jobs_.size(); ++i) {
            if (!jobs_[i].tracer)
                continue;
            jobs_[i].tracer->writeEvents(merged,
                                         static_cast<uint32_t>(i + 1),
                                         jobs_[i].name, first);
            dropped += jobs_[i].tracer->droppedEvents();
        }
        merged << "\n],\"displayTimeUnit\":\"ns\"}\n";

        if (jobs_.size() > 1) {
            for (size_t i = 0; i < jobs_.size(); ++i) {
                if (!jobs_[i].tracer)
                    continue;
                std::ofstream per(perJobTracePath(jobs_[i].name));
                if (per)
                    jobs_[i].tracer->writeJson(per, jobs_[i].name);
            }
        }
        std::fprintf(stderr,
                     "trace: wrote %s (categories: %s)%s\n",
                     args_.trace.c_str(),
                     sim::Tracer::maskToString(args_.traceMask).c_str(),
                     dropped ? " [ring overflow: oldest events dropped]"
                             : "");
    }

    /** "<stem>.<sanitized job name><ext>" next to the merged file. */
    std::string
    perJobTracePath(const std::string &job_name) const
    {
        std::string safe;
        for (char c : job_name) {
            safe += (std::isalnum(static_cast<unsigned char>(c)) ||
                     c == '-' || c == '_')
                        ? c : '_';
        }
        size_t dot = args_.trace.rfind('.');
        size_t slash = args_.trace.rfind('/');
        if (dot == std::string::npos ||
            (slash != std::string::npos && dot < slash)) {
            return args_.trace + "." + safe + ".json";
        }
        return args_.trace.substr(0, dot) + "." + safe +
               args_.trace.substr(dot);
    }

    /**
     * Per-run stall-cause attribution derived from the core counters
     * (see SimtCore::classifyStall). "accel" is the paper's
     * "intersection busy" (the SM parked while traversal runs on the
     * accelerator). Reconvergence never stalls issue in this model —
     * divergence costs show up as SIMT efficiency instead.
     */
    void
    printStallReport() const
    {
        std::printf("-----------------------------------------------------"
                    "---------------------------\n");
        std::printf("Stall-cause attribution (cycles; %% of all stall "
                    "cycles):\n");
        std::printf("  %-28s %12s %8s %8s %8s %8s\n", "run", "stall_cyc",
                    "issue", "mem", "accel", "exec");
        for (const auto &rec : records_) {
            auto total = rec.stats.counterValue("core.stall_cycles");
            auto pct = [&](const char *name) {
                return total == 0
                           ? 0.0
                           : 100.0 * rec.stats.counterValue(name) / total;
            };
            std::printf("  %-28s %12llu %7.1f%% %7.1f%% %7.1f%% %7.1f%%\n",
                        rec.name.c_str(),
                        static_cast<unsigned long long>(total),
                        pct("core.stall_issue"), pct("core.stall_mem"),
                        pct("core.stall_accel"), pct("core.stall_exec"));
        }
    }

    Args args_;
    std::vector<sim::Job> jobs_;
    std::vector<RunMetrics> metrics_;
    std::vector<sim::RunRecord> records_;
};

inline void
printHeader(const char *figure, const char *what, const Args &args)
{
    std::printf("==========================================================="
                "=====================\n");
    std::printf("%s: %s\n", figure, what);
    std::printf("  workload sizes: keys=%zu queries=%zu bodies=%zu "
                "points=%zu res=%ux%u seed=%llu\n",
                args.keys, args.queries, args.bodies, args.points,
                args.res, args.res,
                static_cast<unsigned long long>(args.seed));
    std::printf("  (paper scale via --keys/--queries/... overrides; "
                "shapes hold at these defaults)\n");
    std::printf("-----------------------------------------------------------"
                "---------------------\n");
}

} // namespace bench

#endif // TTA_BENCH_COMMON_HH
