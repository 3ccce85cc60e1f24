/**
 * @file
 * The GPU memory system: per-SM L1 caches, an interconnect delay, a shared
 * banked L2, and a bandwidth-modelled DRAM, wired per Table II.
 *
 * Requests are line-granularity MemRequests; reads produce MemResponses
 * back to the issuing SM's response queue, writes are write-through and
 * fire-and-forget (they still consume DRAM bandwidth). All latencies are
 * in core-clock cycles; DRAM transfer time accounts for the 3500:1365
 * memory:core clock ratio.
 *
 * Limit-study knobs (Fig 17): Config::perfectMemory short-circuits every
 * request to a next-cycle response; Config::perfectNodeFetch does the same
 * only for RTA node fetches ("Perf. RT").
 */

#ifndef TTA_MEM_MEMSYS_HH
#define TTA_MEM_MEMSYS_HH

#include <deque>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "mem/cache.hh"
#include "mem/global_memory.hh"
#include "mem/request.hh"
#include "sim/config.hh"
#include "sim/ticked.hh"
#include "sim/trace.hh"

namespace tta::mem {

class MemSystem : public sim::TickedComponent
{
  public:
    MemSystem(const sim::Config &cfg, sim::StatRegistry &stats);

    /** True when SM sm_id may sendRequest() this cycle (its L1 input
     *  queue has room). */
    bool canAccept(uint32_t sm_id) const;

    /** Issue a line transaction from an SM (core or RTA). */
    void sendRequest(const MemRequest &req);

    /**
     * Core read-completion queue for an SM (CoreLoad responses); the
     * consumer pops from the front. Accelerator node-fetch responses
     * land in rtaResponses() instead, so neither consumer scans past
     * the other's entries.
     */
    std::deque<MemResponse> &responses(uint32_t sm_id)
    {
        return responses_[sm_id];
    }

    /** RTA/TTA node-fetch completion queue for an SM. */
    std::deque<MemResponse> &rtaResponses(uint32_t sm_id)
    {
        return rtaResponses_[sm_id];
    }

    void tick(sim::Cycle cycle) override;
    bool busy() const override;
    sim::Cycle nextEventCycle(sim::Cycle cycle) const override;
    void catchUp(sim::Cycle now) override;

    /**
     * Register the component to wake when a response is pushed for
     * SM sm_id (cores for CoreLoad responses, accelerators for RtaNode).
     * Unset consumers simply never sleep on this memory system.
     */
    void setCoreWaker(uint32_t sm_id, sim::TickedComponent *comp)
    {
        coreWaker_[sm_id] = comp;
    }
    void setRtaWaker(uint32_t sm_id, sim::TickedComponent *comp)
    {
        rtaWaker_[sm_id] = comp;
    }

    /** Fraction of DRAM data-bus cycles busy since construction. */
    double dramUtilization() const;
    /** Total bytes moved across the DRAM pins. */
    uint64_t dramBytes() const
    {
        return dramBytesRead_->value() + dramBytesWritten_->value();
    }

    /** Drop all cached lines (used between benchmark phases). */
    void flushCaches();

    uint32_t lineSize() const { return cfg_.lineSizeBytes; }

  private:
    struct Timed
    {
        sim::Cycle ready;
        MemRequest req;
        bool operator>(const Timed &o) const { return ready > o.ready; }
    };
    using TimedQueue =
        std::priority_queue<Timed, std::vector<Timed>, std::greater<Timed>>;

    struct TimedFill
    {
        sim::Cycle ready;
        Addr lineAddr;
        uint32_t smId;
        bool operator>(const TimedFill &o) const { return ready > o.ready; }
    };
    using FillQueue = std::priority_queue<TimedFill, std::vector<TimedFill>,
                                          std::greater<TimedFill>>;

    void tickL1(sim::Cycle cycle, uint32_t sm);
    void tickL2(sim::Cycle cycle);
    void tickDram(sim::Cycle cycle);
    void tickFills(sim::Cycle cycle);
    void completeAtL1(sim::Cycle cycle, uint32_t sm, Addr line_addr);
    /** Deliver a read completion: wakes the consumer (before the push,
     *  per the wake-before-mutate rule), then enqueues the response. */
    void pushResponse(const MemResponse &resp);

    const sim::Config cfg_;

    // Per-SM front end.
    std::vector<std::unique_ptr<Cache>> l1_;
    std::vector<std::deque<Timed>> l1In_;
    std::vector<std::deque<MemResponse>> responses_;
    std::vector<std::deque<MemResponse>> rtaResponses_;
    /** L1 MSHR payload: line -> requests waiting on the fill. */
    std::vector<std::unordered_map<Addr, std::vector<MemRequest>>>
        l1Pending_;

    // Shared levels.
    std::unique_ptr<Cache> l2_;
    TimedQueue toL2_;
    /** L2 MSHR payload: line -> SMs waiting on the fill. */
    std::unordered_map<Addr, std::vector<uint32_t>> l2Pending_;
    TimedQueue toDram_;
    /** fills travelling DRAM->L2 (smIds resolved at completion). */
    FillQueue dramDone_;
    /** fills travelling L2->L1 for a given SM. */
    FillQueue l1Fills_;

    /** L1-hit responses in flight (delayed by the L1 latency). */
    struct TimedResp
    {
        sim::Cycle ready;
        MemResponse resp;
        bool operator>(const TimedResp &o) const { return ready > o.ready; }
    };
    std::priority_queue<TimedResp, std::vector<TimedResp>,
                        std::greater<TimedResp>>
        delayedResponses_;

    // DRAM channel state.
    std::vector<sim::Cycle> channelFree_;
    double transferCyclesPerLine_;

    // Bookkeeping.
    uint64_t inflight_ = 0;
    sim::Cycle ticks_ = 0;
    sim::Cycle lastAccounted_ = 0; //!< queue-depth sampling settled here
    std::vector<sim::TickedComponent *> coreWaker_;
    std::vector<sim::TickedComponent *> rtaWaker_;
    static constexpr uint32_t kL1QueueDepth = 64;
    static constexpr uint32_t kL1AccessesPerCycle = 2;
    static constexpr uint32_t kL2AccessesPerCycle = 4;
    static constexpr uint32_t kIcntLatency = 8;

    // Event tracing (all nullptr when the mem category is off).
    std::vector<sim::TraceStream *> l1Trace_; //!< per-SM access/fill
    sim::TraceStream *l2Trace_ = nullptr;
    std::vector<sim::TraceStream *> dramTrace_; //!< per-channel bus spans

    sim::Counter *reads_;
    sim::Counter *writes_;
    sim::Counter *dramReads_;
    sim::Counter *dramWrites_;
    sim::Counter *dramBytesRead_;
    sim::Counter *dramBytesWritten_;
    sim::Scalar *dramBusyCycles_;
    sim::Histogram *l1QueueDepth_;
};

} // namespace tta::mem

#endif // TTA_MEM_MEMSYS_HH
