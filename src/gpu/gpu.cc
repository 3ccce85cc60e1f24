#include "gpu/gpu.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace tta::gpu {

Gpu::Gpu(const sim::Config &cfg, sim::StatRegistry &stats)
    : cfg_(cfg), stats_(&stats), sim_(stats)
{
    gmem_ = std::make_unique<mem::GlobalMemory>();
    memsys_ = std::make_unique<mem::MemSystem>(cfg_, stats);
    for (uint32_t sm = 0; sm < cfg_.numSms; ++sm) {
        cores_.push_back(std::make_unique<SimtCore>(
            cfg_, sm, *memsys_, *gmem_, stats));
    }
    // Tick order: cores issue, then extra components (accelerators are
    // appended by the caller), then the memory system retires.
    for (uint32_t sm = 0; sm < cfg_.numSms; ++sm)
        sim_.add(cores_[sm].get());
    sim_.add(memsys_.get());
    // Producer→consumer wake edges for the event-driven kernel: memory
    // responses wake the requesting core (accelerators register their
    // own waker when they attach).
    for (uint32_t sm = 0; sm < cfg_.numSms; ++sm)
        memsys_->setCoreWaker(sm, cores_[sm].get());
    sim_.setWatchdog(cfg_.watchdogCycles);
}

Gpu::~Gpu() = default;

bool
Gpu::dispatch(std::vector<DispatchState> &states)
{
    bool remaining = false;
    for (const auto &st : states)
        remaining |= !st.done();
    if (!remaining)
        return false; // everything dispatched: skip the core scan
    // Breadth-first across cores: one warp per SM per pass, so work
    // spreads over all SMs instead of filling the first one. Each core
    // keeps its own launch cursor so co-scheduled kernels interleave on
    // every SM (a single global cursor would align with the SM count and
    // segregate kernels onto disjoint SMs).
    if (dispatchCursor_.size() != cores_.size())
        dispatchCursor_.assign(cores_.size(), 0);
    bool progress = true;
    while (progress) {
        progress = false;
        for (size_t ci = 0; ci < cores_.size(); ++ci) {
            auto &core = cores_[ci];
            if (core->freeSlots() == 0)
                continue;
            // Round-robin across launches that still have threads.
            size_t tried = 0;
            DispatchState *pick = nullptr;
            while (tried < states.size()) {
                DispatchState &cand =
                    states[dispatchCursor_[ci] % states.size()];
                ++dispatchCursor_[ci];
                ++tried;
                if (!cand.done()) {
                    pick = &cand;
                    break;
                }
            }
            if (!pick)
                break;
            uint64_t base = pick->nextThread;
            uint32_t n = static_cast<uint32_t>(
                std::min<uint64_t>(cfg_.warpSize,
                                   pick->launch.numThreads - base));
            pick->nextThread += n;
            core->launchWarp(pick->launch.prog, base, n,
                             &pick->launch.params);
            progress = true;
        }
    }
    for (const auto &st : states)
        remaining |= !st.done();
    return remaining;
}

sim::Cycle
Gpu::runKernel(const KernelProgram &prog, uint64_t num_threads,
               std::vector<uint32_t> params)
{
    return runKernels({Launch{&prog, num_threads, std::move(params)}});
}

sim::Cycle
Gpu::runKernels(std::vector<Launch> launches)
{
    panic_if(launches.empty(), "runKernels with no launches");
    std::vector<DispatchState> states;
    states.reserve(launches.size());
    for (auto &launch : launches) {
        panic_if(!launch.prog, "null kernel program");
        states.push_back({std::move(launch), 0});
    }

    sim::Cycle start = sim_.cycle();
    bool remaining = true;
    const sim::Cycle max_cycles = cfg_.watchdogCycles;
    // Quiescence is re-checked after every *processed* cycle, matching
    // the polling loop's per-cycle check boundary, so both kernels
    // finish with the identical cycle count (any ticks still scheduled
    // past quiescence would be no-ops by the sleep/wake contract and
    // are abandoned).
    while (remaining || sim_.anyBusy()) {
        if (remaining)
            remaining = dispatch(states);
        if (!sim_.advance(start + max_cycles)) {
            // Event-driven kernel with nothing scheduled: a busy
            // component missed a wake edge (a model bug, not a user
            // error).
            panic("simulation stalled: component(s) busy with no "
                  "scheduled wakeup; still-busy components: [%s]",
                  sim_.busyComponentNames().c_str());
        }
        panic_if(sim_.cycle() - start > max_cycles,
                 "kernel did not finish within %llu cycles; "
                 "still-busy components: [%s]",
                 static_cast<unsigned long long>(max_cycles),
                 sim_.busyComponentNames().c_str());
    }
    sim_.finishAccounting();
    return sim_.cycle() - start;
}

} // namespace tta::gpu
