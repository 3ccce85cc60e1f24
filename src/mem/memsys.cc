#include "mem/memsys.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace tta::mem {

MemSystem::MemSystem(const sim::Config &cfg, sim::StatRegistry &stats)
    : sim::TickedComponent("memsys"), cfg_(cfg)
{
    l1In_.resize(cfg_.numSms);
    responses_.resize(cfg_.numSms);
    rtaResponses_.resize(cfg_.numSms);
    l1Pending_.resize(cfg_.numSms);
    coreWaker_.resize(cfg_.numSms, nullptr);
    rtaWaker_.resize(cfg_.numSms, nullptr);
    for (uint32_t sm = 0; sm < cfg_.numSms; ++sm) {
        std::string name = "sm" + std::to_string(sm) + ".l1d";
        uint32_t lines = cfg_.l1SizeBytes / cfg_.lineSizeBytes;
        // Table II: fully associative LRU L1.
        l1_.push_back(std::make_unique<Cache>(name, cfg_.l1SizeBytes, lines,
                                              cfg_.lineSizeBytes,
                                              cfg_.l1MshrEntries, stats));
    }
    l2_ = std::make_unique<Cache>("l2", cfg_.l2SizeBytes, cfg_.l2Assoc,
                                  cfg_.lineSizeBytes, cfg_.l2MshrEntries,
                                  stats);

    channelFree_.assign(cfg_.dramChannels, 0);
    transferCyclesPerLine_ = static_cast<double>(cfg_.lineSizeBytes) /
        (cfg_.dramBytesPerMemCycle * cfg_.memClockRatio());

    reads_ = &stats.counter("memsys.reads");
    writes_ = &stats.counter("memsys.writes");
    dramReads_ = &stats.counter("dram.reads");
    dramWrites_ = &stats.counter("dram.writes");
    dramBytesRead_ = &stats.counter("dram.bytes_read");
    dramBytesWritten_ = &stats.counter("dram.bytes_written");
    dramBusyCycles_ = &stats.scalar("dram.busy_cycles");
    l1QueueDepth_ = &stats.histogram("memsys.l1_queue_depth", 4.0, 32);

    l1Trace_.resize(cfg_.numSms, nullptr);
    dramTrace_.resize(cfg_.dramChannels, nullptr);
    if (auto *tracer = stats.tracer()) {
        for (uint32_t sm = 0; sm < cfg_.numSms; ++sm) {
            l1Trace_[sm] = tracer->stream(
                "memsys.sm" + std::to_string(sm) + ".l1", sim::TraceMem);
        }
        l2Trace_ = tracer->stream("memsys.l2", sim::TraceMem);
        for (uint32_t ch = 0; ch < cfg_.dramChannels; ++ch) {
            dramTrace_[ch] = tracer->stream(
                "dram.ch" + std::to_string(ch), sim::TraceMem);
        }
    }
}

bool
MemSystem::canAccept(uint32_t sm_id) const
{
    return l1In_[sm_id].size() < kL1QueueDepth;
}

void
MemSystem::sendRequest(const MemRequest &req)
{
    panic_if(req.smId >= cfg_.numSms, "bad SM id %u", req.smId);
    if (req.isWrite)
        ++*writes_;
    else
        ++*reads_;

    bool perfect = cfg_.perfectMemory ||
        (cfg_.perfectNodeFetch && req.source == RequestSource::RtaNode);
    if (perfect) {
        // Delivered on the next tick via the zero-latency path: model
        // as an immediate response enqueued directly.
        if (!req.isWrite)
            pushResponse({req.addr, req.source, req.smId, req.tag});
        return;
    }

    // Wake ourselves before the push: catch-up replays the queue-depth
    // samples the skipped cycles would have taken of the old depth.
    wakeNow();
    ++inflight_;
    l1In_[req.smId].push_back({ticks_ + 1, req});
}

void
MemSystem::pushResponse(const MemResponse &resp)
{
    bool for_rta = resp.source == RequestSource::RtaNode;
    sim::TickedComponent *waiter =
        for_rta ? rtaWaker_[resp.smId] : coreWaker_[resp.smId];
    if (waiter)
        waiter->wakeNow();
    (for_rta ? rtaResponses_ : responses_)[resp.smId].push_back(resp);
}

void
MemSystem::tick(sim::Cycle cycle)
{
    catchUp(cycle);
    lastAccounted_ = cycle + 1;
    ticks_ = cycle;
    l1QueueDepth_->sample(static_cast<double>(l1In_[0].size()));
    // Producer-to-consumer order within the cycle: fills first so lines
    // installed by older requests are visible, then new accesses.
    tickFills(cycle);
    tickDram(cycle);
    tickL2(cycle);
    for (uint32_t sm = 0; sm < cfg_.numSms; ++sm)
        tickL1(cycle, sm);
}

void
MemSystem::catchUp(sim::Cycle now)
{
    if (now <= lastAccounted_)
        return;
    uint64_t n = now - lastAccounted_;
    lastAccounted_ = now;
    // Each skipped cycle, a polling tick would have sampled the
    // (unchanged — wakes settle this before any push) input-queue depth
    // and advanced the tick count that normalizes DRAM utilization.
    l1QueueDepth_->sampleN(static_cast<double>(l1In_[0].size()), n);
    ticks_ = now - 1;
}

sim::Cycle
MemSystem::nextEventCycle(sim::Cycle cycle) const
{
    sim::Cycle next = sim::kAsleep;
    for (const auto &in : l1In_) {
        if (!in.empty()) {
            next = cycle + 1; // retrying or draining the front end
            break;
        }
    }
    auto consider = [&next](sim::Cycle ready) {
        next = std::min(next, ready);
    };
    if (!toL2_.empty())
        consider(toL2_.top().ready);
    if (!toDram_.empty())
        consider(toDram_.top().ready);
    if (!dramDone_.empty())
        consider(dramDone_.top().ready);
    if (!l1Fills_.empty())
        consider(l1Fills_.top().ready);
    if (!delayedResponses_.empty())
        consider(delayedResponses_.top().ready);
    if (next == sim::kAsleep)
        return next; // idle: a sendRequest() wake re-arms us
    return std::max(next, cycle + 1);
}

void
MemSystem::tickL1(sim::Cycle cycle, uint32_t sm)
{
    auto &in = l1In_[sm];
    const bool was_full = in.size() >= kL1QueueDepth;
    for (uint32_t n = 0; n < kL1AccessesPerCycle && !in.empty(); ++n) {
        if (in.front().ready > cycle)
            break;
        const MemRequest req = in.front().req;
        Cache::Result res = l1_[sm]->access(req.addr, req.isWrite);
        if (res == Cache::Result::NoMshr) {
            if (l1Trace_[sm])
                l1Trace_[sm]->instant(cycle, "mshr_stall");
            break; // structural stall; retry next cycle
        }
        in.pop_front();
        if (l1Trace_[sm]) {
            l1Trace_[sm]->instant(cycle, res == Cache::Result::Hit
                                             ? "hit" : "miss");
        }

        sim::Cycle done = cycle + cfg_.l1LatencyCycles;
        switch (res) {
          case Cache::Result::Hit:
            if (req.isWrite) {
                // Write-through: still propagates downstream.
                toL2_.push({done + kIcntLatency, req});
            } else {
                delayedResponses_.push(
                    {done, {req.addr, req.source, req.smId, req.tag}});
            }
            break;
          case Cache::Result::MissNew:
            if (!req.isWrite)
                l1Pending_[sm][req.addr].push_back(req);
            toL2_.push({done + kIcntLatency, req});
            break;
          case Cache::Result::MissMerged:
            l1Pending_[sm][req.addr].push_back(req);
            break;
          case Cache::Result::NoMshr:
            break; // unreachable
        }
    }
    // Back-pressure cleared: a core that went to sleep on a refused
    // sendRequest (canAccept() false) has no other wake edge for this
    // resource. We tick after the cores, so the wake resolves to the
    // next cycle — the first cycle a polling core would see the space.
    if (was_full && in.size() < kL1QueueDepth && coreWaker_[sm])
        coreWaker_[sm]->wake(cycle);
}

void
MemSystem::tickL2(sim::Cycle cycle)
{
    for (uint32_t n = 0; n < kL2AccessesPerCycle && !toL2_.empty(); ++n) {
        if (toL2_.top().ready > cycle)
            break;
        const MemRequest req = toL2_.top().req;
        toL2_.pop();
        Cache::Result res = l2_->access(req.addr, req.isWrite);
        if (res == Cache::Result::NoMshr) {
            if (l2Trace_)
                l2Trace_->instant(cycle, "mshr_stall");
            // Retry next cycle.
            toL2_.push({cycle + 1, req});
            continue;
        }
        if (l2Trace_) {
            l2Trace_->instant(cycle, res == Cache::Result::Hit
                                         ? "hit" : "miss");
        }
        sim::Cycle done = cycle + cfg_.l2LatencyCycles;
        if (req.isWrite) {
            // Write-through to DRAM regardless of L2 hit/miss.
            toDram_.push({done, req});
            continue;
        }
        switch (res) {
          case Cache::Result::Hit:
            l1Fills_.push({done, req.addr, req.smId});
            break;
          case Cache::Result::MissNew:
            l2Pending_[req.addr].push_back(req.smId);
            toDram_.push({done, req});
            break;
          case Cache::Result::MissMerged:
            l2Pending_[req.addr].push_back(req.smId);
            break;
          case Cache::Result::NoMshr:
            break; // unreachable
        }
    }
}

void
MemSystem::tickDram(sim::Cycle cycle)
{
    while (!toDram_.empty() && toDram_.top().ready <= cycle) {
        const MemRequest req = toDram_.top().req;
        toDram_.pop();

        uint32_t chan = static_cast<uint32_t>(
            (req.addr / cfg_.lineSizeBytes) % cfg_.dramChannels);
        sim::Cycle start = std::max<sim::Cycle>(cycle, channelFree_[chan]);
        auto xfer =
            static_cast<sim::Cycle>(std::ceil(transferCyclesPerLine_));
        channelFree_[chan] = start + xfer;
        *dramBusyCycles_ += static_cast<double>(xfer);
        if (dramTrace_[chan]) {
            dramTrace_[chan]->complete(start, xfer,
                                       req.isWrite ? "write" : "read");
        }

        if (req.isWrite) {
            ++*dramWrites_;
            *dramBytesWritten_ += req.size ? req.size : cfg_.lineSizeBytes;
            --inflight_; // writes complete at the DRAM pins
            continue;
        }
        ++*dramReads_;
        *dramBytesRead_ += cfg_.lineSizeBytes;
        sim::Cycle done = start + cfg_.dramServiceLatency + xfer;
        dramDone_.push({done, req.addr, req.smId});
    }
}

void
MemSystem::tickFills(sim::Cycle cycle)
{
    // L1-hit responses mature after the L1 access latency.
    while (!delayedResponses_.empty() &&
           delayedResponses_.top().ready <= cycle) {
        const MemResponse resp = delayedResponses_.top().resp;
        delayedResponses_.pop();
        pushResponse(resp);
        --inflight_;
    }

    // DRAM -> L2 fills: wake every SM waiting on the line.
    while (!dramDone_.empty() && dramDone_.top().ready <= cycle) {
        Addr line = dramDone_.top().lineAddr;
        dramDone_.pop();
        l2_->fill(line);
        auto it = l2Pending_.find(line);
        if (it == l2Pending_.end())
            continue;
        for (uint32_t sm : it->second)
            l1Fills_.push({cycle + kIcntLatency, line, sm});
        l2Pending_.erase(it);
    }

    // L2 -> L1 fills: install line and answer all merged requests.
    while (!l1Fills_.empty() && l1Fills_.top().ready <= cycle) {
        TimedFill fill = l1Fills_.top();
        l1Fills_.pop();
        completeAtL1(cycle, fill.smId, fill.lineAddr);
    }
}

void
MemSystem::completeAtL1(sim::Cycle cycle, uint32_t sm, Addr line_addr)
{
    if (l1Trace_[sm])
        l1Trace_[sm]->instant(cycle, "fill");
    l1_[sm]->fill(line_addr);
    auto it = l1Pending_[sm].find(line_addr);
    if (it == l1Pending_[sm].end())
        return;
    for (const MemRequest &req : it->second) {
        pushResponse({req.addr, req.source, req.smId, req.tag});
        --inflight_;
    }
    l1Pending_[sm].erase(it);
}

bool
MemSystem::busy() const
{
    return inflight_ != 0;
}

double
MemSystem::dramUtilization() const
{
    if (ticks_ == 0)
        return 0.0;
    double total = static_cast<double>(ticks_) * cfg_.dramChannels;
    return std::min(1.0, dramBusyCycles_->value() / total);
}

void
MemSystem::flushCaches()
{
    for (auto &l1 : l1_)
        l1->flush();
    l2_->flush();
}

} // namespace tta::mem
