#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <type_traits>

namespace tta::sim {

namespace {

/** Test hook replacing the raw hardware_concurrency() probe. */
std::atomic<unsigned (*)()> hw_probe_hook{nullptr};

/** FNV-1a over the bytes of a trivially copyable value. */
template <typename T>
void
fnvMix(uint64_t &h, const T &v)
{
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    __builtin_memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Shortest round-trippable decimal form: deterministic for a given
 *  binary, and what makes serial/parallel records byte-comparable. */
std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
configDigest(const Config &cfg)
{
    // Every Config field, in declaration order; a new field goes here too.
    uint64_t h = 0xcbf29ce484222325ull; // FNV offset basis
    fnvMix(h, cfg.numSms);
    fnvMix(h, cfg.maxWarpsPerSm);
    fnvMix(h, cfg.warpSize);
    fnvMix(h, cfg.l1SizeBytes);
    fnvMix(h, cfg.l1LatencyCycles);
    fnvMix(h, cfg.l2SizeBytes);
    fnvMix(h, cfg.l2Assoc);
    fnvMix(h, cfg.l2LatencyCycles);
    fnvMix(h, cfg.lineSizeBytes);
    fnvMix(h, cfg.l1MshrEntries);
    fnvMix(h, cfg.l2MshrEntries);
    fnvMix(h, cfg.coreClockMhz);
    fnvMix(h, cfg.memClockMhz);
    fnvMix(h, cfg.dramChannels);
    fnvMix(h, cfg.dramServiceLatency);
    fnvMix(h, cfg.dramBytesPerMemCycle);
    fnvMix(h, cfg.warpBufferWarps);
    fnvMix(h, cfg.intersectionSets);
    fnvMix(h, cfg.rayBoxLatency);
    fnvMix(h, cfg.rayTriLatency);
    fnvMix(h, cfg.intersectionLatencyScale);
    fnvMix(h, cfg.ttaIsolatedMinMax);
    fnvMix(h, cfg.rtaCoalescing);
    fnvMix(h, cfg.rtaArbiterWidth);
    fnvMix(h, cfg.rtaChildPrefetch);
    fnvMix(h, cfg.rtaFetchWidth);
    fnvMix(h, cfg.bvhNodeWidth);
    fnvMix(h, cfg.bvhQuantized);
    fnvMix(h, cfg.icntHopLatency);
    fnvMix(h, cfg.opUnitCopies);
    fnvMix(h, cfg.rcpUnitCopies);
    fnvMix(h, cfg.perfectNodeFetch);
    fnvMix(h, cfg.perfectMemory);
    fnvMix(h, cfg.accelMode);
    fnvMix(h, cfg.watchdogCycles);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
RunRecord::writeJson(std::ostream &os, bool include_timing) const
{
    os << "{\"name\":\"" << jsonEscape(name) << "\""
       << ",\"config\":\"" << configDigest << "\""
       << ",\"seed\":" << seed << ",\"cycles\":" << cycles;
    if (failed())
        os << ",\"error\":\"" << jsonEscape(error) << "\"";

    os << ",\"values\":{";
    bool first = true;
    for (const auto &[k, v] : values) {
        os << (first ? "" : ",") << "\"" << jsonEscape(k)
           << "\":" << jsonNumber(v);
        first = false;
    }
    os << "},\"counters\":{";
    first = true;
    for (const auto &[k, c] : stats.counters()) {
        os << (first ? "" : ",") << "\"" << jsonEscape(k)
           << "\":" << c.value();
        first = false;
    }
    os << "},\"scalars\":{";
    first = true;
    for (const auto &[k, s] : stats.scalars()) {
        os << (first ? "" : ",") << "\"" << jsonEscape(k)
           << "\":" << jsonNumber(s.value());
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[k, hist] : stats.histograms()) {
        os << (first ? "" : ",") << "\"" << jsonEscape(k) << "\":{"
           << "\"count\":" << hist.count()
           << ",\"mean\":" << jsonNumber(hist.mean())
           << ",\"max\":" << jsonNumber(hist.maxValue())
           << ",\"overflow\":" << hist.overflow() << "}";
        first = false;
    }
    os << "}";
    if (include_timing)
        os << ",\"wall_ms\":" << jsonNumber(wallSeconds * 1e3);
    os << "}";
}

std::string
RunRecord::toJson(bool include_timing) const
{
    std::ostringstream os;
    writeJson(os, include_timing);
    return os.str();
}

ExperimentRunner::ExperimentRunner(unsigned threads) : threads_(threads)
{
    if (threads_ == 0)
        threads_ = hardwareConcurrency();
}

unsigned
ExperimentRunner::hardwareConcurrency()
{
    unsigned (*hook)() = hw_probe_hook.load(std::memory_order_relaxed);
    unsigned v = hook ? hook() : std::thread::hardware_concurrency();
    // The standard permits a 0 return ("not computable"); treating that
    // as one core keeps the pool out of the zero-thread regime.
    return v ? v : 1;
}

void
ExperimentRunner::setHardwareConcurrencyHookForTest(unsigned (*probe)())
{
    hw_probe_hook.store(probe, std::memory_order_relaxed);
}

std::vector<RunRecord>
ExperimentRunner::run(const std::vector<Job> &jobs) const
{
    std::vector<RunRecord> records(jobs.size());
    std::atomic<size_t> next{0};

    auto worker = [&] {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            const Job &job = jobs[i];
            RunRecord &rec = records[i];
            rec.name = job.name;
            rec.configDigest = sim::configDigest(job.config);
            rec.seed = job.seed;
            rec.stats.setTracer(job.tracer.get());
            auto t0 = std::chrono::steady_clock::now();
            try {
                if (job.fn)
                    job.fn(job.config, rec.stats, rec);
                else
                    rec.error = "job has no body";
            } catch (const std::exception &e) {
                rec.error = e.what();
            } catch (...) {
                rec.error = "unknown exception";
            }
            rec.stats.setTracer(nullptr);
            rec.wallSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
        }
    };

    unsigned n = static_cast<unsigned>(
        std::min<size_t>(threads_, jobs.size() ? jobs.size() : 1));
    if (n <= 1) {
        worker();
        return records;
    }
    std::vector<std::thread> pool;
    pool.reserve(n);
    for (unsigned t = 0; t < n; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    return records;
}

} // namespace tta::sim
