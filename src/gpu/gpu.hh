/**
 * @file
 * GPU top-level: wires the SIMT cores, the memory system and (optionally)
 * one traversal accelerator per SM, and runs kernels to completion.
 *
 * Supports co-scheduling several kernels in one run (used by the N-Body
 * kernel-fusion experiment, Section V-A: traversal on the TTA while the
 * general-purpose cores execute the force post-processing).
 */

#ifndef TTA_GPU_GPU_HH
#define TTA_GPU_GPU_HH

#include <memory>
#include <vector>

#include "gpu/core.hh"
#include "gpu/kernel.hh"
#include "mem/global_memory.hh"
#include "mem/memsys.hh"
#include "sim/config.hh"
#include "sim/ticked.hh"

namespace tta::gpu {

/** One kernel launch request. */
struct Launch
{
    const KernelProgram *prog;
    uint64_t numThreads;
    std::vector<uint32_t> params;
};

class Gpu
{
  public:
    Gpu(const sim::Config &cfg, sim::StatRegistry &stats);
    ~Gpu();

    mem::GlobalMemory &memory() { return *gmem_; }
    mem::MemSystem &memsys() { return *memsys_; }
    SimtCore &core(uint32_t sm) { return *cores_[sm]; }
    sim::Simulator &simulator() { return sim_; }
    const sim::Config &config() const { return cfg_; }
    sim::StatRegistry &stats() { return *stats_; }

    /**
     * Attach per-SM accelerator devices. The devices must also be
     * TickedComponents (or be driven by one) registered via addComponent().
     */
    void attachAccel(uint32_t sm, AccelDevice *dev)
    {
        cores_[sm]->setAccel(dev);
    }

    /** Register an extra ticked component (e.g. an RTA) into the run
     *  loop. */
    void addComponent(sim::TickedComponent *comp) { sim_.add(comp); }

    /** Run a single kernel to completion; returns elapsed cycles. */
    sim::Cycle runKernel(const KernelProgram &prog, uint64_t num_threads,
                         std::vector<uint32_t> params = {});

    /** Co-schedule several kernels; returns elapsed cycles until all
     *  finish. Warps are dispatched round-robin across launches. */
    sim::Cycle runKernels(std::vector<Launch> launches);

  private:
    struct DispatchState
    {
        Launch launch;
        uint64_t nextThread = 0;
        bool done() const { return nextThread >= launch.numThreads; }
    };

    /** Fill free warp slots from pending launches; true if any remain. */
    bool dispatch(std::vector<DispatchState> &states);

    const sim::Config cfg_;
    sim::StatRegistry *stats_;
    std::unique_ptr<mem::GlobalMemory> gmem_;
    std::unique_ptr<mem::MemSystem> memsys_;
    std::vector<std::unique_ptr<SimtCore>> cores_;
    sim::Simulator sim_;
    std::vector<size_t> dispatchCursor_;
};

} // namespace tta::gpu

#endif // TTA_GPU_GPU_HH
