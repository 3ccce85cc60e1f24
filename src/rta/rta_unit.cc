#include "rta/rta_unit.hh"

#include <bit>
#include <cmath>

#include "sim/logging.hh"

namespace tta::rta {

namespace {

/** Built-in single-uop program for two-level BVH ray transforms. */
const ttaplus::Program &
xformProgram()
{
    static const ttaplus::Program prog = ttaplus::programs::rayTransform();
    return prog;
}

} // namespace

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::RayBox: return "raybox";
      case OpKind::RayTriangle: return "raytri";
      case OpKind::QueryKey: return "querykey";
      case OpKind::PointDist: return "pointdist";
      case OpKind::RaySphere: return "raysphere";
      case OpKind::ForceLeaf: return "forceleaf";
      case OpKind::Transform: return "transform";
      case OpKind::None: return "none";
    }
    return "?";
}

RtaUnit::RtaUnit(const sim::Config &cfg, uint32_t sm_id,
                 mem::MemSystem &memsys, sim::StatRegistry &stats)
    : sim::TickedComponent("rta" + std::to_string(sm_id)),
      cfg_(cfg), smId_(sm_id), memsys_(&memsys)
{
    // Node-fetch responses (and prefetch completions) wake this unit.
    memsys.setRtaWaker(smId_, this);
    warps_.resize(cfg_.warpBufferWarps);
    for (auto &warp : warps_)
        warp.rays.resize(cfg_.warpSize);

    auto scaled = [&](uint32_t base) {
        return std::max<uint32_t>(
            1, static_cast<uint32_t>(
                   std::lround(base * cfg_.intersectionLatencyScale)));
    };
    uint32_t box_latency = cfg_.ttaIsolatedMinMax ? 3u
                                                  : scaled(cfg_.rayBoxLatency);
    boxPipe_ = std::make_unique<IntersectionPipeline>(
        "rta.box", cfg_.intersectionSets, box_latency, stats);
    triPipe_ = std::make_unique<IntersectionPipeline>(
        "rta.tri", cfg_.intersectionSets, scaled(cfg_.rayTriLatency),
        stats);
    xformPipe_ = std::make_unique<IntersectionPipeline>(
        "rta.xform", cfg_.intersectionSets, 4, stats);
    if (cfg_.accelMode == sim::AccelMode::TtaPlus)
        engine_ = std::make_unique<ttaplus::TtaPlusEngine>(cfg_, stats,
                                                           name());
    shader_ = std::make_unique<ShaderModel>(stats);

    // Stat names are shared across SMs, but trace streams must be
    // per-instance; hand each pipeline a stream named after this unit.
    if (auto *tracer = stats.tracer()) {
        if (tracer->wants(sim::TraceRta)) {
            unitStream_ = tracer->stream(name(), sim::TraceRta);
            warpStreams_.resize(cfg_.warpBufferWarps, nullptr);
            for (uint32_t w = 0; w < cfg_.warpBufferWarps; ++w) {
                warpStreams_[w] = tracer->stream(
                    name() + ".w" + std::to_string(w), sim::TraceRta);
            }
        }
        boxPipe_->setTrace(tracer->stream(name() + ".box",
                                          sim::TracePipe));
        triPipe_->setTrace(tracer->stream(name() + ".tri",
                                          sim::TracePipe));
        xformPipe_->setTrace(tracer->stream(name() + ".xform",
                                            sim::TracePipe));
    }

    nodesVisited_ = &stats.counter("rta.nodes_visited");
    raysCompleted_ = &stats.counter("rta.rays_completed");
    warpBufReads_ = &stats.counter("rta.warp_buffer_reads");
    warpBufWrites_ = &stats.counter("rta.warp_buffer_writes");
    warpOccupancy_ = &stats.histogram("rta.warp_occupancy", 1.0, 8);
    prefetches_ = &stats.counter("rta.prefetches");
    nodeBytesFetched_ = &stats.counter("rta.node_bytes_fetched");
    for (int k = 0; k < 8; ++k) {
        opCounters_[k] = &stats.counter(
            std::string("rta.ops.") +
            opKindName(static_cast<OpKind>(k)));
    }
}

RtaUnit::~RtaUnit() = default;

bool
RtaUnit::launchWarp(sim::Cycle cycle, gpu::SimtCore *core,
                    uint32_t warp_slot, uint32_t active_mask,
                    const std::vector<uint32_t> &lane_operands)
{
    panic_if(!spec_, "RtaUnit::launchWarp with no TraversalSpec configured");
    panic_if(active_mask == 0, "traversal launch with empty mask");
    for (auto &warp : warps_) {
        if (warp.valid)
            continue;
        // Wake before mutating: settles skipped-cycle occupancy samples
        // against the pre-launch state; the launching core ticks before
        // this unit, so the wake resolves to this same cycle and the
        // arbiter sees the new rays when the unit ticks later on.
        wake(cycle);
        warp.valid = true;
        warp.core = core;
        warp.coreSlot = warp_slot;
        warp.remaining = std::popcount(active_mask);
        warp.launchOrder = launchCounter_++;
        uint16_t warp_idx = static_cast<uint16_t>(&warp - warps_.data());
        for (uint32_t lane = 0; lane < cfg_.warpSize; ++lane) {
            RaySlot &ray = warp.rays[lane];
            ray = RaySlot{};
            if (!(active_mask & (1u << lane)))
                continue;
            ray.state = RayState{};
            ray.state.active = true;
            ray.state.done = false;
            spec_->initRay(ray.state, lane_operands[lane]);
            ray.phase = Phase::Ready;
            readyQueue_.emplace_back(warp_idx,
                                     static_cast<uint16_t>(lane));
            // Ray setup writes the ray layout into the warp buffer.
            *warpBufWrites_ += 1;
        }
        ++validWarps_;
        if (unitStream_)
            warpStreams_[warp_idx]->begin(cycle, "traversal");
        return true;
    }
    return false; // warp buffer full: the SM retries (back-pressure)
}

void
RtaUnit::finishRay(sim::Cycle cycle, uint32_t warp_idx, uint32_t ray_idx)
{
    WarpSlot &warp = warps_[warp_idx];
    RaySlot &ray = warp.rays[ray_idx];
    spec_->finishRay(ray.state);
    ray.state.done = true;
    ray.phase = Phase::Idle;
    *warpBufWrites_ += 1;
    ++*raysCompleted_;
    panic_if(warp.remaining == 0, "ray finish accounting error");
    if (--warp.remaining == 0) {
        // Result writeback for the warp (two line writes: 32 rays x 8B).
        for (int i = 0; i < 2; ++i) {
            mem::MemRequest req;
            req.addr = 0; // result region modelled, address immaterial
            req.size = cfg_.lineSizeBytes;
            req.isWrite = true;
            req.source = mem::RequestSource::RtaWriteback;
            req.smId = smId_;
            memsys_->sendRequest(req);
        }
        warp.valid = false;
        --validWarps_;
        if (unitStream_)
            warpStreams_[warp_idx]->end(cycle); // closes "traversal"
        warp.core->accelDone(warp.coreSlot, cycle);
    }
}

void
RtaUnit::stepRay(sim::Cycle cycle, uint32_t warp_idx, uint32_t ray_idx)
{
    WarpSlot &warp = warps_[warp_idx];
    RaySlot &ray = warp.rays[ray_idx];
    if (ray.state.stack.empty()) {
        finishRay(cycle, warp_idx, ray_idx);
        return;
    }
    ray.currentRef = ray.state.stack.back();
    ray.state.stack.pop_back();
    ray.linesToIssue.clear();
    spec_->fetchLines(ray.state, ray.currentRef, ray.linesToIssue);
    ray.pendingFetches = static_cast<uint32_t>(ray.linesToIssue.size());
    if (ray.pendingFetches == 0) {
        dispatchTest(cycle, warp_idx, ray_idx);
        return;
    }
    ray.phase = Phase::WaitFetch;
    ray.fetchStart = cycle;
    fetchQueue_.emplace_back(static_cast<uint16_t>(warp_idx),
                             static_cast<uint16_t>(ray_idx));
}

void
RtaUnit::dispatchTest(sim::Cycle cycle, uint32_t warp_idx, uint32_t ray_idx)
{
    WarpSlot &warp = warps_[warp_idx];
    RaySlot &ray = warp.rays[ray_idx];

    // Operation arbiter: decode + read the ray entry from the warp buffer.
    *warpBufReads_ += 1;
    ++*nodesVisited_;
    ++ray.state.nodesVisited;

    size_t stack_before = ray.state.stack.size();
    NodeOutcome outcome = spec_->processNode(ray.state, ray.currentRef);
    *opCounters_[static_cast<int>(outcome.op)] += outcome.opCount;
    // Intermediate values / stack updates write back to the warp buffer.
    *warpBufWrites_ += 1;

    // Optional one-level child prefetcher: warm the caches with the
    // lines of everything the test just pushed. Prefetch responses carry
    // no waiters; they only install lines.
    if (cfg_.rtaChildPrefetch &&
        ray.state.stack.size() > stack_before) {
        std::vector<uint64_t> lines;
        for (size_t i = stack_before; i < ray.state.stack.size(); ++i)
            spec_->fetchLines(ray.state, ray.state.stack[i], lines);
        uint32_t issued = 0;
        for (uint64_t line : lines) {
            if (issued >= 4 || !memsys_->canAccept(smId_))
                break;
            if (inflightLines_.count(line))
                continue; // a demand fetch is already in flight
            mem::MemRequest req;
            req.addr = line;
            req.size = cfg_.lineSizeBytes;
            req.source = mem::RequestSource::RtaNode;
            req.smId = smId_;
            req.tag = line;
            memsys_->sendRequest(req);
            ++*prefetches_;
            ++issued;
        }
    }

    const sim::AccelMode mode = cfg_.accelMode;
    sim::Cycle done = cycle + 1; // pure stack manipulation: 1 cycle
    uint8_t pipe_tag = 0;
    Phase wait_phase = Phase::WaitTest;

    auto native_ff = [&](IntersectionPipeline &pipe,
                         uint32_t latency_override = 0) {
        done = pipe.dispatch(cycle, outcome.opCount);
        if (latency_override) {
            // Subset datapath (e.g. Point-to-Point inside the Ray-Tri
            // unit): same structural sets, shorter latency.
            sim::Cycle shortened =
                done - pipe.latency() + latency_override;
            done = shortened > cycle ? shortened : cycle + 1;
        }
        pipe_tag = &pipe == boxPipe_.get() ? 1
                   : &pipe == triPipe_.get() ? 2 : 3;
    };
    auto via_shader = [&](uint32_t calls, bool bulk = false) {
        done = shader_->execute(cycle, std::max(1u, calls), bulk);
        wait_phase = Phase::WaitShader;
    };
    auto via_engine = [&]() {
        const ttaplus::Program &prog =
            outcome.op == OpKind::Transform
                ? xformProgram()
                : (outcome.isLeaf ? spec_->leafProgram()
                                  : spec_->innerProgram());
        if (outcome.opCount > 0) {
            done = engine_->executeMany(cycle, prog, outcome.isLeaf,
                                        outcome.opCount);
        }
    };

    if (outcome.op != OpKind::None) {
        if (outcome.useShader) {
            // The application supplied an SM intersection shader (the
            // unstarred RTNN / WKND_PT configurations).
            via_shader(outcome.opCount);
        } else if (mode == sim::AccelMode::TtaPlus) {
            via_engine();
        } else {
            switch (outcome.op) {
              case OpKind::RayBox:
                native_ff(*boxPipe_);
                break;
              case OpKind::RayTriangle:
                native_ff(*triPipe_);
                break;
              case OpKind::Transform:
                native_ff(*xformPipe_);
                break;
              case OpKind::QueryKey:
                fatal_if(mode == sim::AccelMode::BaselineRta,
                         "Query-Key comparison is not supported by the "
                         "baseline RTA; use TTA or TTA+");
                native_ff(*boxPipe_); // modified Ray-Box path (Fig 8-1)
                break;
              case OpKind::PointDist:
                fatal_if(mode == sim::AccelMode::BaselineRta,
                         "Point-to-Point distance is not supported by the "
                         "baseline RTA; use TTA or TTA+");
                // Subset of the Ray-Triangle pipeline (Fig 8-2): sub,
                // dot, multiply, compare stages only.
                native_ff(*triPipe_, 13);
                break;
              case OpKind::RaySphere:
                // Needs SQRT: intersection shader on the SM.
                via_shader(outcome.opCount);
                break;
              case OpKind::ForceLeaf:
                // Needs SQRT, but only accumulates: deferred bulk work
                // on the SM (no per-visit pipeline round trip).
                via_shader(outcome.opCount, true);
                break;
              case OpKind::None:
                break;
            }
        }
    }

    // Auxiliary force computations (N-Body approximated inner nodes):
    // native leaf-program executions on TTA+, shader calls otherwise.
    if (outcome.auxForceOps > 0) {
        sim::Cycle aux;
        if (mode == sim::AccelMode::TtaPlus) {
            aux = engine_->executeMany(cycle, spec_->leafProgram(), true,
                                       outcome.auxForceOps);
        } else {
            // Force terms only accumulate: deferred bulk work.
            aux = shader_->execute(cycle, outcome.auxForceOps, true);
            wait_phase = Phase::WaitShader;
        }
        done = std::max(done, aux);
    }

    completions_.push({done, static_cast<uint16_t>(warp_idx),
                       static_cast<uint16_t>(ray_idx), pipe_tag,
                       static_cast<uint16_t>(outcome.opCount)});
    ray.phase = wait_phase;
    if (unitStream_ && done > cycle) {
        warpStreams_[warp_idx]->complete(
            cycle, done - cycle,
            wait_phase == Phase::WaitShader ? "shader" : "test");
    }
}

void
RtaUnit::issueFetches(sim::Cycle cycle)
{
    (void)cycle;
    // The hardware memory scheduler issues cfg_.rtaFetchWidth node
    // requests per cycle (one in the Table II baseline; wide SoA nodes
    // span several lines, which motivates a wider fetch port — see the
    // node-width sensitivity sweep), coalescing rays waiting on the
    // same line (FIFO across rays). A line merged into an in-flight
    // request still consumes its issue slot.
    for (uint32_t n = 0; n < cfg_.rtaFetchWidth; ++n) {
        if (fetchQueue_.empty() || !memsys_->canAccept(smId_))
            return;
        auto [w, r] = fetchQueue_.front();
        RaySlot &ray = warps_[w].rays[r];
        uint64_t line = ray.linesToIssue.back();
        ray.linesToIssue.pop_back();
        if (ray.linesToIssue.empty())
            fetchQueue_.pop_front();

        auto it = inflightLines_.find(line);
        if (it != inflightLines_.end()) {
            it->second.emplace_back(w, r);
            if (cfg_.rtaCoalescing)
                continue; // merged with the in-flight request
            // Ablation: no coalescing — issue a duplicate request. The
            // first response wakes every waiter; the duplicate costs
            // bandwidth.
        } else {
            inflightLines_[line].emplace_back(w, r);
        }
        mem::MemRequest req;
        req.addr = line;
        req.size = cfg_.lineSizeBytes;
        req.isWrite = false;
        req.source = mem::RequestSource::RtaNode;
        req.smId = smId_;
        req.tag = line;
        *nodeBytesFetched_ += req.size;
        memsys_->sendRequest(req);
    }
}

void
RtaUnit::drainResponses(sim::Cycle cycle)
{
    // The queue is RTA-only (RtaNode): core load responses are
    // delivered on the memory system's core responses() queue instead.
    auto &queue = memsys_->rtaResponses(smId_);
    for (const mem::MemResponse &resp : queue) {
        auto waiters = inflightLines_.find(resp.tag);
        if (waiters != inflightLines_.end()) {
            for (auto [w, r] : waiters->second) {
                RaySlot &ray = warps_[w].rays[r];
                if (ray.phase == Phase::WaitFetch &&
                    ray.pendingFetches > 0 &&
                    --ray.pendingFetches == 0 &&
                    ray.linesToIssue.empty()) {
                    dispatchQueue_.emplace_back(w, r);
                    if (unitStream_ && cycle > ray.fetchStart) {
                        warpStreams_[w]->complete(
                            ray.fetchStart, cycle - ray.fetchStart,
                            "fetch");
                    }
                }
            }
            inflightLines_.erase(waiters);
        }
    }
    queue.clear();
}

void
RtaUnit::drainCompletions(sim::Cycle cycle)
{
    while (!completions_.empty() && completions_.top().ready <= cycle) {
        Completion c = completions_.top();
        completions_.pop();
        switch (c.pipe) {
          case 1: boxPipe_->complete(c.count, cycle); break;
          case 2: triPipe_->complete(c.count, cycle); break;
          case 3: xformPipe_->complete(c.count, cycle); break;
          default: break;
        }
        RaySlot &ray = warps_[c.warp].rays[c.ray];
        ray.phase = Phase::Ready;
        readyQueue_.emplace_back(c.warp, c.ray);
    }
}

void
RtaUnit::tick(sim::Cycle cycle)
{
    catchUp(cycle);
    lastAccounted_ = cycle + 1;
    if (validWarps_ == 0) {
        nextEvent_ = sim::kAsleep;
        return; // nothing in flight; skip all bookkeeping
    }
    drainCompletions(cycle);
    drainResponses(cycle);

    // Operation arbiter: dispatch rays whose node data arrived.
    for (uint32_t n = 0;
         n < cfg_.rtaArbiterWidth && !dispatchQueue_.empty(); ++n) {
        auto [w, r] = dispatchQueue_.front();
        dispatchQueue_.pop_front();
        dispatchTest(cycle, w, r);
    }

    // Traversal state machines: pop the next node / retire rays.
    for (uint32_t n = 0;
         n < cfg_.rtaArbiterWidth && !readyQueue_.empty(); ++n) {
        auto [w, r] = readyQueue_.front();
        readyQueue_.pop_front();
        stepRay(cycle, w, r);
    }

    issueFetches(cycle);

    boxPipe_->sampleOccupancy();
    triPipe_->sampleOccupancy();
    warpOccupancy_->sample(validWarps_);

    if (unitStream_) {
        // Queue depths, emitted on change only (counter-event tracks).
        auto ready = static_cast<uint32_t>(readyQueue_.size());
        auto fetch = static_cast<uint32_t>(fetchQueue_.size());
        if (ready != lastReadyDepth_) {
            lastReadyDepth_ = ready;
            unitStream_->counter(cycle, "ready_queue", ready);
        }
        if (fetch != lastFetchDepth_) {
            lastFetchDepth_ = fetch;
            unitStream_->counter(cycle, "fetch_queue", fetch);
        }
    }

    // Next externally visible work: the arbiter/fetch scheduler runs
    // again next cycle while any queue holds rays; otherwise the next
    // test/shader completion (WaitTest and WaitShader both retire via
    // completions_). With every ray parked in WaitFetch the memory
    // system's response path (pushResponse) wakes us.
    if (validWarps_ == 0) {
        nextEvent_ = sim::kAsleep;
    } else if (!dispatchQueue_.empty() || !readyQueue_.empty() ||
               !fetchQueue_.empty()) {
        nextEvent_ = cycle + 1;
    } else if (!completions_.empty()) {
        nextEvent_ = completions_.top().ready;
    } else {
        nextEvent_ = sim::kAsleep;
    }
}

void
RtaUnit::catchUp(sim::Cycle now)
{
    if (now <= lastAccounted_)
        return;
    uint64_t n = now - lastAccounted_;
    lastAccounted_ = now;
    if (validWarps_ == 0)
        return; // the polling tick samples nothing when idle
    boxPipe_->sampleOccupancyN(n);
    triPipe_->sampleOccupancyN(n);
    warpOccupancy_->sampleN(validWarps_, n);
}

bool
RtaUnit::busy() const
{
    return validWarps_ != 0;
}

} // namespace tta::rta
