/**
 * @file
 * Tag-array cache model with MSHRs.
 *
 * Timing-only: data always lives in GlobalMemory; the cache tracks which
 * lines are resident to decide hit/miss and merges outstanding misses to
 * the same line in Miss Status Holding Registers. Used for the per-SM L1
 * (fully associative LRU, Table II) and the unified L2 (16-way LRU).
 */

#ifndef TTA_MEM_CACHE_HH
#define TTA_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "mem/request.hh"
#include "sim/stats.hh"

namespace tta::mem {

/**
 * Open-addressing line-address map with a fixed, construction-time
 * capacity (the caller knows its maximum occupancy: resident lines are
 * bounded by the tag store, MSHRs by their register count). Linear
 * probing at <= 50% load with backward-shift deletion; every cache
 * lookup in the simulator funnels through one of these, and the
 * std::unordered_map it replaces was a top-three profile entry.
 */
class AddrMap
{
  public:
    static constexpr uint32_t kNone = ~uint32_t{0};

    explicit AddrMap(size_t max_entries)
    {
        size_t cap = 16;
        while (cap < max_entries * 2)
            cap <<= 1;
        mask_ = cap - 1;
        slots_.assign(cap, Slot{});
    }

    /** Value for `key`, or kNone when absent. */
    uint32_t
    lookup(Addr key) const
    {
        size_t i = probe(key);
        return slots_[i].used ? slots_[i].val : kNone;
    }

    /** Pointer to the value for `key`, nullptr when absent. */
    uint32_t *
    find(Addr key)
    {
        size_t i = probe(key);
        return slots_[i].used ? &slots_[i].val : nullptr;
    }

    /** Insert `key` (must be absent). */
    void
    insert(Addr key, uint32_t val)
    {
        size_t i = probe(key);
        slots_[i] = {key, val, true};
        ++size_;
    }

    /** Remove `key` if present, backward-shifting displaced entries. */
    void
    erase(Addr key)
    {
        size_t hole = probe(key);
        if (!slots_[hole].used)
            return;
        slots_[hole].used = false;
        --size_;
        for (size_t i = (hole + 1) & mask_; slots_[i].used;
             i = (i + 1) & mask_) {
            size_t home = hash(slots_[i].key) & mask_;
            // Movable iff the hole lies on i's probe path [home, i).
            if (((i - home) & mask_) >= ((i - hole) & mask_)) {
                slots_[hole] = slots_[i];
                slots_[i].used = false;
                hole = i;
            }
        }
    }

    size_t size() const { return size_; }

    void
    clear()
    {
        for (Slot &slot : slots_)
            slot.used = false;
        size_ = 0;
    }

  private:
    struct Slot
    {
        Addr key = 0;
        uint32_t val = 0;
        bool used = false;
    };

    static size_t
    hash(Addr key)
    {
        uint64_t x = key;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 33;
        return static_cast<size_t>(x);
    }

    size_t
    probe(Addr key) const
    {
        size_t i = hash(key) & mask_;
        while (slots_[i].used && slots_[i].key != key)
            i = (i + 1) & mask_;
        return i;
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    size_t size_ = 0;
};

class Cache
{
  public:
    enum class Result
    {
        Hit,        //!< line resident
        MissNew,    //!< miss; new MSHR allocated, forward downstream
        MissMerged, //!< miss; merged into an existing MSHR, do not forward
        NoMshr,     //!< miss but MSHRs exhausted; retry later
    };

    /**
     * @param name        stat prefix (e.g. "sm0.l1d").
     * @param size_bytes  total capacity.
     * @param assoc       ways per set; == size/line for fully associative.
     * @param line_size   line size in bytes.
     * @param mshrs       max outstanding distinct line misses.
     */
    Cache(const std::string &name, uint32_t size_bytes, uint32_t assoc,
          uint32_t line_size, uint32_t mshrs, sim::StatRegistry &stats);

    /** Look up a line; allocate/merge an MSHR on miss. */
    Result access(Addr line_addr, bool is_write);

    /** Install a line returned from downstream and free its MSHR. */
    void fill(Addr line_addr);

    /** True if the line currently has an outstanding MSHR. */
    bool missPending(Addr line_addr) const;

    /** Invalidate all resident lines (between kernels in tests). */
    void flush();

    uint32_t lineSize() const { return lineSize_; }
    uint64_t hits() const { return hits_->value(); }
    /** All misses, read + write (compatibility view). */
    uint64_t misses() const { return misses_->value(); }
    /** Read misses: allocate an MSHR and fill the line. */
    uint64_t readMisses() const { return readMisses_->value(); }
    /** Write-through misses: forwarded downstream, never allocated, so
     *  they say nothing about residency of the read working set. */
    uint64_t writeMisses() const { return writeMisses_->value(); }

  private:
    static constexpr uint32_t kNil = ~uint32_t{0};

    /**
     * Tag store entry, threaded on a per-set recency list (valid lines)
     * or the per-set free stack (invalid ways). Recency is an intrusive
     * doubly-linked list rather than timestamps so the LRU victim is
     * O(1): the fully-associative L1 (thousands of ways) made the old
     * scan-for-oldest the hottest function in the whole simulator.
     */
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        uint32_t prev = kNil;
        uint32_t next = kNil;
    };

    uint32_t setIndex(Addr line_addr) const;
    void unlink(uint32_t set, uint32_t idx);
    void pushMru(uint32_t set, uint32_t idx);
    /** Move an already-valid line to the MRU end of its set. */
    void touch(uint32_t set, uint32_t idx);

    uint32_t assoc_;
    uint32_t lineSize_;
    uint32_t numSets_;
    uint32_t mshrCapacity_;

    /** ways-per-set tag store, sets_ concatenated. */
    std::vector<Line> lines_;
    std::vector<uint32_t> mru_;      //!< per-set recency list head
    std::vector<uint32_t> lru_;      //!< per-set recency list tail
    std::vector<uint32_t> freeHead_; //!< per-set stack of invalid ways
    /** resident lines: line addr -> index into lines_. */
    AddrMap where_;
    /** outstanding line-miss registers: line addr -> merged count. */
    AddrMap mshrs_;

    sim::Counter *hits_;
    sim::Counter *misses_;
    sim::Counter *readMisses_;
    sim::Counter *writeMisses_;
    sim::Counter *mshrMerges_;
    sim::Counter *mshrStalls_;
};

} // namespace tta::mem

#endif // TTA_MEM_CACHE_HH
