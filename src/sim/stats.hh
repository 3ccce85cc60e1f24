/**
 * @file
 * Lightweight statistics framework.
 *
 * Components register named statistics with a StatRegistry; benches dump
 * them as text or CSV. Three concrete kinds cover everything this
 * repository measures:
 *
 *  - Counter:   monotonically increasing 64-bit event count.
 *  - Scalar:    arbitrary double (set or accumulated).
 *  - Histogram: fixed-bucket distribution with mean / max tracking, used
 *               for occupancy and latency distributions.
 *
 * Statistics are intentionally pull-based and allocation-free on the hot
 * path: incrementing a Counter is a single add.
 */

#ifndef TTA_SIM_STATS_HH
#define TTA_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace tta::sim {

class Tracer;

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void operator+=(uint64_t n) { value_ += n; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/** An arbitrary floating-point statistic. */
class Scalar
{
  public:
    void set(double v) { value_ = v; }
    void operator+=(double v) { value_ += v; }
    double value() const { return value_; }
    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * A simple distribution: tracks count, sum, min, max and a fixed set of
 * linear buckets over [0, bucketWidth * nBuckets).
 */
class Histogram
{
  public:
    Histogram() : Histogram(1.0, 32) {}

    Histogram(double bucket_width, size_t n_buckets)
        : bucketWidth_(bucket_width), buckets_(n_buckets, 0)
    {}

    /** Record one sample. Samples beyond the bucketed range still land in
     *  the last bucket (so bucket sums match count()), but are tracked in
     *  an overflow count so a clipped tail is visible in the dump. */
    void sample(double v) { sampleN(v, 1); }

    /**
     * Record `n` identical samples in one shot — the event-driven
     * kernel's bulk catch-up for per-cycle occupancy sampling over a
     * skipped quiescent stretch. Bit-identical to calling sample(v) n
     * times for the integer-valued samples this repo records (v * n is
     * exact, and repeated summation of an integer double is too).
     */
    void
    sampleN(double v, uint64_t n)
    {
        if (n == 0)
            return;
        bool was_empty = count_ == 0;
        count_ += n;
        sum_ += v * n;
        min_ = was_empty ? v : std::min(min_, v);
        max_ = was_empty ? v : std::max(max_, v);
        size_t idx = v <= 0.0 ? 0
            : static_cast<size_t>(v / bucketWidth_);
        if (idx >= buckets_.size()) {
            idx = buckets_.size() - 1;
            overflow_ += n;
        }
        buckets_[idx] += n;
    }

    /**
     * Fold another histogram (same bucket layout) into this one. Count,
     * overflow, sum and buckets add; min/max combine. Exact for the
     * integer-valued samples this repo records, so merged per-device
     * histograms equal one histogram fed every sample.
     */
    void
    merge(const Histogram &o)
    {
        if (o.count_ == 0)
            return;
        bool was_empty = count_ == 0;
        count_ += o.count_;
        overflow_ += o.overflow_;
        sum_ += o.sum_;
        min_ = was_empty ? o.min_ : std::min(min_, o.min_);
        max_ = was_empty ? o.max_ : std::max(max_, o.max_);
        for (size_t i = 0; i < buckets_.size() && i < o.buckets_.size();
             ++i)
            buckets_[i] += o.buckets_[i];
    }

    double bucketWidth() const { return bucketWidth_; }
    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }
    /** Samples that fell past the last bucket (clamped into it). */
    uint64_t overflow() const { return overflow_; }
    const std::vector<uint64_t> &buckets() const { return buckets_; }

    void
    reset()
    {
        count_ = 0;
        overflow_ = 0;
        sum_ = min_ = max_ = 0.0;
        std::fill(buckets_.begin(), buckets_.end(), 0);
    }

  private:
    double bucketWidth_;
    uint64_t count_ = 0;
    uint64_t overflow_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::vector<uint64_t> buckets_;
};

/**
 * Registry of named statistics.
 *
 * Names are hierarchical, dot-separated (e.g. "sm0.l1d.misses"). The
 * registry owns the stat objects; components hold raw pointers, which stay
 * valid for the registry's lifetime (std::map nodes are stable).
 */
class StatRegistry
{
  public:
    /** Create (or fetch) a counter under the given name. */
    Counter &counter(const std::string &name) { return counters_[name]; }

    /** Create (or fetch) a scalar under the given name. */
    Scalar &scalar(const std::string &name) { return scalars_[name]; }

    /** Create (or fetch) a histogram under the given name. */
    Histogram &
    histogram(const std::string &name, double bucket_width = 1.0,
              size_t n_buckets = 32)
    {
        auto it = histograms_.find(name);
        if (it == histograms_.end()) {
            it = histograms_.emplace(name,
                                     Histogram(bucket_width, n_buckets))
                     .first;
        }
        return it->second;
    }

    /** Look up a counter's value; 0 if absent. */
    uint64_t
    counterValue(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second.value();
    }

    /** Look up a scalar's value; 0 if absent. */
    double
    scalarValue(const std::string &name) const
    {
        auto it = scalars_.find(name);
        return it == scalars_.end() ? 0.0 : it->second.value();
    }

    /** Look up a histogram; nullptr if absent. */
    const Histogram *
    findHistogram(const std::string &name) const
    {
        auto it = histograms_.find(name);
        return it == histograms_.end() ? nullptr : &it->second;
    }

    /** Reset every registered statistic to zero. */
    void reset();

    /**
     * Fold every statistic of `other` into this registry (creating
     * missing entries with the source's histogram layout). A
     * service::DeviceGroup gives every device a private registry and
     * absorbs them into the service registry in device order.
     */
    void absorb(const StatRegistry &other);

    /** Dump all stats, one "name value" line each, sorted by name. */
    void dump(std::ostream &os) const;

    /** Dump all stats as CSV rows "name,value". */
    void dumpCsv(std::ostream &os) const;

    /**
     * dump() into a string. The canonical equality oracle for the
     * kernel-equivalence tests: two runs are bit-identical iff their
     * dumpString()s compare equal (every counter, scalar and histogram
     * participates, in sorted order).
     */
    std::string dumpString() const;

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Scalar> &scalars() const
    {
        return scalars_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

    /**
     * The event tracer for the run this registry belongs to, or nullptr
     * (the default: tracing off). Components fetch their TraceStreams
     * from here at construction, alongside registering their stats —
     * the registry is already the one per-run object every component
     * receives, so it doubles as the trace attachment point. The
     * registry does not own the tracer.
     */
    Tracer *tracer() const { return tracer_; }
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Scalar> scalars_;
    std::map<std::string, Histogram> histograms_;
    Tracer *tracer_ = nullptr;
};

} // namespace tta::sim

#endif // TTA_SIM_STATS_HH
