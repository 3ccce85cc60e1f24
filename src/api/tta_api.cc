#include "api/tta_api.hh"

#include "sim/logging.hh"

namespace tta::api {

TtaPipelineDesc &
TtaPipelineDesc::decodeR(std::vector<uint32_t> field_sizes)
{
    ray_ = tta::DataLayout(name_ + ".ray", std::move(field_sizes));
    return *this;
}

TtaPipelineDesc &
TtaPipelineDesc::decodeI(std::vector<uint32_t> field_sizes)
{
    inner_ = tta::DataLayout(name_ + ".inner", std::move(field_sizes));
    return *this;
}

TtaPipelineDesc &
TtaPipelineDesc::decodeL(std::vector<uint32_t> field_sizes)
{
    leaf_ = tta::DataLayout(name_ + ".leaf", std::move(field_sizes));
    return *this;
}

TtaPipelineDesc &
TtaPipelineDesc::configI(const ttaplus::Program *prog)
{
    innerProg_ = prog;
    return *this;
}

TtaPipelineDesc &
TtaPipelineDesc::configL(const ttaplus::Program *prog)
{
    leafProg_ = prog;
    return *this;
}

TtaPipelineDesc &
TtaPipelineDesc::configTerminate(const tta::TerminationConfig &term)
{
    term_ = term;
    return *this;
}

TtaPipeline
TtaPipeline::create(const TtaPipelineDesc &desc)
{
    fatal_if(desc.rayLayout().numFields() == 0,
             "pipeline '%s': DecodeR was not called", desc.name().c_str());
    fatal_if(desc.innerLayout().numFields() == 0,
             "pipeline '%s': DecodeI was not called", desc.name().c_str());
    fatal_if(desc.leafLayout().numFields() == 0,
             "pipeline '%s': DecodeL was not called", desc.name().c_str());
    return TtaPipeline(desc);
}

gpu::KernelProgram
makeTraversalLauncher()
{
    // The entire traversal is the single traverseTreeTTA instruction:
    // this is the 91% dynamic-instruction reduction of Fig 20.
    gpu::KernelBuilder b("traversal_launcher");
    b.tid(0);
    b.accelTraverse(0);
    b.exit();
    return b.build();
}

TtaDevice::TtaDevice(const sim::Config &cfg, sim::StatRegistry &stats,
                     uint32_t device_index)
    : cfg_(cfg), stats_(stats), deviceIndex_(device_index),
      launcher_(makeTraversalLauncher())
{
    gpu_ = std::make_unique<gpu::Gpu>(cfg_, stats);
    if (cfg_.accelMode != sim::AccelMode::BaselineGpu) {
        for (uint32_t sm = 0; sm < cfg_.numSms; ++sm) {
            rtas_.push_back(std::make_unique<rta::RtaUnit>(
                cfg_, sm, gpu_->memsys(), stats));
            gpu_->attachAccel(sm, rtas_.back().get());
            gpu_->addComponent(rtas_.back().get());
        }
    }
}

TtaDevice::~TtaDevice() = default;

void
TtaDevice::validate(const TtaPipeline &pipeline,
                    rta::TraversalSpec *spec) const
{
    fatal_if(!spec, "bindPipeline with null spec");
    fatal_if(rtas_.empty(),
             "bindPipeline on a BaselineGpu device (no accelerators)");
    if (cfg_.accelMode == sim::AccelMode::TtaPlus) {
        fatal_if(!pipeline.desc().innerProgram(),
                 "pipeline '%s': TTA+ requires ConfigI",
                 pipeline.desc().name().c_str());
        fatal_if(!pipeline.desc().leafProgram(),
                 "pipeline '%s': TTA+ requires ConfigL",
                 pipeline.desc().name().c_str());
    }
}

void
TtaDevice::activateSlot(uint32_t slot)
{
    fatal_if(slot >= slots_.size(),
             "cmdTraverseTree on unbound slot %u (have %zu)", slot,
             slots_.size());
    for (auto &rta : rtas_)
        rta->setSpec(slots_[slot].spec);
    activeSlot_ = slot;
}

void
TtaDevice::bindPipeline(const TtaPipeline &pipeline,
                        rta::TraversalSpec *spec)
{
    validate(pipeline, spec);
    slots_.clear();
    slots_.push_back({pipeline.desc().name(), spec});
    activateSlot(0);
}

uint32_t
TtaDevice::bindPipelineSlot(const TtaPipeline &pipeline,
                            rta::TraversalSpec *spec)
{
    validate(pipeline, spec);
    slots_.push_back({pipeline.desc().name(), spec});
    uint32_t slot = static_cast<uint32_t>(slots_.size() - 1);
    activateSlot(slot);
    return slot;
}

sim::Cycle
TtaDevice::cmdTraverseTree(uint64_t n_queries)
{
    return cmdTraverseTree(0u, n_queries);
}

sim::Cycle
TtaDevice::cmdTraverseTree(uint32_t slot, uint64_t n_queries)
{
    fatal_if(slots_.empty(), "cmdTraverseTree before bindPipeline");
    if (slot != activeSlot_) {
        activateSlot(slot);
        // Registered lazily so single-slot devices (every figure
        // workload) keep their stat registries byte-identical.
        ++stats_.counter("api.slot_switches");
    }
    return gpu_->runKernel(launcher_, n_queries);
}

} // namespace tta::api
