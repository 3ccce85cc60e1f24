#include "gpu/core.hh"

#include <bit>
#include <cmath>
#include <cstring>

#include "mem/coalescer.hh"
#include "sim/logging.hh"

namespace tta::gpu {

namespace {

float
asFloat(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

uint32_t
asBits(float f)
{
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

/** Does this opcode read rs1 / rs2? Write rd? */
struct RegUse
{
    bool readsRs1;
    bool readsRs2;
    bool writesRd;
};

RegUse
regUse(Opcode op)
{
    switch (op) {
      case Opcode::MovI:
      case Opcode::Tid:
      case Opcode::Param:
        return {false, false, true};
      case Opcode::Mov:
      case Opcode::VoteAny:
      case Opcode::INot:
      case Opcode::IShlI:
      case Opcode::IShrI:
      case Opcode::IAddI:
      case Opcode::IMulI:
      case Opcode::FAddI:
      case Opcode::FMulI:
      case Opcode::FNeg:
      case Opcode::FAbs:
      case Opcode::FSqrt:
      case Opcode::FRcp:
      case Opcode::CvtIF:
      case Opcode::CvtFI:
        return {true, false, true};
      case Opcode::Load:
        return {true, false, true};
      case Opcode::Store:
        return {true, true, false};
      case Opcode::BranchZ:
      case Opcode::BranchNZ:
      case Opcode::AccelTraverse:
        return {true, false, false};
      case Opcode::Jump:
      case Opcode::Exit:
        return {false, false, false};
      default:
        return {true, true, true}; // three-operand ALU
    }
}

bool
isFloatOp(Opcode op)
{
    switch (op) {
      case Opcode::FAdd:
      case Opcode::FSub:
      case Opcode::FMul:
      case Opcode::FDiv:
      case Opcode::FAddI:
      case Opcode::FMulI:
      case Opcode::FMin:
      case Opcode::FMax:
      case Opcode::FNeg:
      case Opcode::FAbs:
      case Opcode::FSqrt:
      case Opcode::FRcp:
      case Opcode::SetEqF:
      case Opcode::SetLtF:
      case Opcode::SetLeF:
        return true;
      default:
        return false;
    }
}

} // namespace

SimtCore::SimtCore(const sim::Config &cfg, uint32_t sm_id,
                   mem::MemSystem &memsys, mem::GlobalMemory &gmem,
                   sim::StatRegistry &stats)
    : sim::TickedComponent("sm" + std::to_string(sm_id)),
      cfg_(cfg), smId_(sm_id), memsys_(&memsys), gmem_(&gmem)
{
    warps_.resize(cfg_.maxWarpsPerSm);
    for (auto &warp : warps_)
        warp.regs.resize(cfg_.warpSize * kNumRegs, 0);

    instsAlu_ = &stats.counter("core.insts_alu");
    instsSfu_ = &stats.counter("core.insts_sfu");
    instsMem_ = &stats.counter("core.insts_mem");
    instsCtrl_ = &stats.counter("core.insts_ctrl");
    instsAccel_ = &stats.counter("core.insts_accel");
    activeLaneSum_ = &stats.counter("core.active_lane_sum");
    issued_ = &stats.counter("core.issued");
    laneInsts_ = &stats.counter("core.lane_insts");
    flopCount_ = &stats.counter("core.flops");
    stallCycles_ = &stats.counter("core.stall_cycles");
    memTransactions_ = &stats.counter("core.mem_transactions");
    stallIssue_ = &stats.counter("core.stall_issue");
    stallMem_ = &stats.counter("core.stall_mem");
    stallAccel_ = &stats.counter("core.stall_accel");
    stallExec_ = &stats.counter("core.stall_exec");

    tracer_ = stats.tracer();
    if (tracer_ && !tracer_->wants(sim::TraceWarp))
        tracer_ = nullptr;
    warpStreams_.resize(cfg_.maxWarpsPerSm, nullptr);
}

sim::TraceStream *
SimtCore::warpStream(uint32_t slot)
{
    if (!warpStreams_[slot]) {
        warpStreams_[slot] = tracer_->stream(
            name() + ".w" + std::to_string(slot), sim::TraceWarp);
    }
    return warpStreams_[slot];
}

uint32_t
SimtCore::freeSlots() const
{
    return static_cast<uint32_t>(warps_.size()) - residentWarps_;
}

void
SimtCore::launchWarp(const KernelProgram *prog, uint64_t base,
                     uint32_t n_threads, const std::vector<uint32_t> *params)
{
    panic_if(n_threads == 0 || n_threads > cfg_.warpSize,
             "bad warp thread count %u", n_threads);
    // Wake before mutating: settles skipped-cycle stall accounting
    // against the still-empty core, then schedules the issue tick.
    wakeNow();
    for (uint32_t slot = 0; slot < warps_.size(); ++slot) {
        WarpContext &warp = warps_[slot];
        if (warp.state != WarpContext::State::Invalid)
            continue;
        warp.state = WarpContext::State::Active;
        warp.prog = prog;
        warp.params = params;
        warp.baseThread = base;
        warp.launchMask = n_threads == 32
            ? 0xffffffffu : ((1u << n_threads) - 1);
        warp.age = nextAge_++;
        warp.stack.start(0, warp.launchMask);
        warp.pendingRegs = 0;
        warp.pendingLoads.clear();
        std::fill(warp.regs.begin(), warp.regs.end(), 0);
        ++residentWarps_;
        return;
    }
    panic("launchWarp with no free slot on SM %u", smId_);
}

void
SimtCore::accelDone(uint32_t warp_slot, sim::Cycle cycle)
{
    WarpContext &warp = warps_[warp_slot];
    panic_if(warp.state != WarpContext::State::WaitAccel,
             "accelDone for a warp not waiting on the accelerator");
    // Wake before mutating: the accelerator ticks after this core, so
    // the wake resolves to cycle + 1 (polling visibility) and catch-up
    // accounting still sees the warp as WaitAccel for this cycle.
    wake(cycle);
    warp.state = WarpContext::State::Active;
    if (tracer_)
        warpStream(warp_slot)->end(cycle); // closes "accel_wait"
}

void
SimtCore::drainResponses()
{
    // The queue is core-only (CoreLoad): accelerator responses are
    // delivered on the memory system's rtaResponses() queue instead.
    auto &queue = memsys_->responses(smId_);
    for (const mem::MemResponse &resp : queue) {
        uint32_t slot = static_cast<uint32_t>(resp.tag >> 32);
        uint32_t token = static_cast<uint32_t>(resp.tag);
        WarpContext &warp = warps_[slot];
        for (auto load = warp.pendingLoads.begin();
             load != warp.pendingLoads.end(); ++load) {
            if (static_cast<uint32_t>(load->token) != token)
                continue;
            if (--load->transactionsLeft == 0) {
                uint8_t rd = load->rd;
                warp.pendingLoads.erase(load);
                // Clear the scoreboard bit only if no other outstanding
                // load targets the same register.
                bool still_pending = false;
                for (const auto &other : warp.pendingLoads)
                    still_pending |= other.rd == rd;
                if (!still_pending)
                    warp.pendingRegs &= ~(1u << rd);
            }
            break;
        }
    }
    queue.clear();
}

void
SimtCore::drainWriteback(sim::Cycle cycle)
{
    while (!writebacks_.empty() && writebacks_.top().ready <= cycle) {
        const Writeback &wb = writebacks_.top();
        WarpContext &warp = warps_[wb.slot];
        uint32_t mask = wb.regMask;
        // Keep bits that a still-outstanding load also owns.
        for (const auto &load : warp.pendingLoads)
            mask &= ~(1u << load.rd);
        warp.pendingRegs &= ~mask;
        writebacks_.pop();
    }
}

bool
SimtCore::canIssue(const WarpContext &warp) const
{
    if (warp.state != WarpContext::State::Active || warp.stack.empty())
        return false;
    const Instruction &inst = warp.prog->insts[warp.stack.pc()];
    // Exit drains all in-flight loads/writebacks first so a reused warp
    // slot never receives a stale writeback.
    if (inst.op == Opcode::Exit)
        return warp.pendingRegs == 0 && warp.pendingLoads.empty();
    RegUse use = regUse(inst.op);
    uint32_t hazard = 0;
    if (use.readsRs1)
        hazard |= 1u << inst.rs1;
    if (use.readsRs2)
        hazard |= 1u << inst.rs2;
    if (use.writesRd)
        hazard |= 1u << inst.rd;
    return (warp.pendingRegs & hazard) == 0;
}

void
SimtCore::countIssue(const Instruction &inst, uint32_t mask)
{
    uint32_t lanes = std::popcount(mask);
    switch (instClass(inst.op)) {
      case InstClass::Alu: ++*instsAlu_; break;
      case InstClass::Sfu: ++*instsSfu_; break;
      case InstClass::Memory: ++*instsMem_; break;
      case InstClass::Control: ++*instsCtrl_; break;
      case InstClass::Accel: ++*instsAccel_; break;
    }
    ++*issued_;
    *activeLaneSum_ += lanes;
    *laneInsts_ += lanes;
    if (isFloatOp(inst.op))
        *flopCount_ += lanes;
}

void
SimtCore::execAlu(WarpContext &warp, const Instruction &inst, uint32_t mask)
{
    if (inst.op == Opcode::VoteAny) {
        // Cross-lane: any active lane with a non-zero predicate.
        uint32_t any = 0;
        for (uint32_t lane = 0; lane < cfg_.warpSize; ++lane) {
            if ((mask & (1u << lane)) &&
                warp.regValue(lane, inst.rs1) != 0)
                any = 1;
        }
        for (uint32_t lane = 0; lane < cfg_.warpSize; ++lane) {
            if (mask & (1u << lane))
                warp.reg(lane, inst.rd) = any;
        }
        return;
    }
    for (uint32_t lane = 0; lane < cfg_.warpSize; ++lane) {
        if (!(mask & (1u << lane)))
            continue;
        uint32_t a = warp.regValue(lane, inst.rs1);
        uint32_t b = warp.regValue(lane, inst.rs2);
        float fa = asFloat(a);
        float fb = asFloat(b);
        int32_t ia = static_cast<int32_t>(a);
        int32_t ib = static_cast<int32_t>(b);
        uint32_t result = 0;
        switch (inst.op) {
          case Opcode::IAdd: result = a + b; break;
          case Opcode::ISub: result = a - b; break;
          case Opcode::IMul: result = a * b; break;
          case Opcode::IAddI:
            result = a + static_cast<uint32_t>(inst.imm);
            break;
          case Opcode::IMulI:
            result = a * static_cast<uint32_t>(inst.imm);
            break;
          case Opcode::IAnd: result = a & b; break;
          case Opcode::IOr: result = a | b; break;
          case Opcode::IXor: result = a ^ b; break;
          case Opcode::INot: result = ~a; break;
          case Opcode::IShlI: result = a << (inst.imm & 31); break;
          case Opcode::IShrI: result = a >> (inst.imm & 31); break;
          case Opcode::SetEqI: result = a == b; break;
          case Opcode::SetNeI: result = a != b; break;
          case Opcode::SetLtI: result = ia < ib; break;
          case Opcode::SetLeI: result = ia <= ib; break;
          case Opcode::SetEqF: result = fa == fb; break;
          case Opcode::SetLtF: result = fa < fb; break;
          case Opcode::SetLeF: result = fa <= fb; break;
          case Opcode::IMin: result = static_cast<uint32_t>(
                                 std::min(ia, ib));
            break;
          case Opcode::IMax: result = static_cast<uint32_t>(
                                 std::max(ia, ib));
            break;
          case Opcode::FAdd: result = asBits(fa + fb); break;
          case Opcode::FSub: result = asBits(fa - fb); break;
          case Opcode::FMul: result = asBits(fa * fb); break;
          case Opcode::FDiv: result = asBits(fa / fb); break;
          case Opcode::FAddI: result = asBits(fa + inst.immF()); break;
          case Opcode::FMulI: result = asBits(fa * inst.immF()); break;
          case Opcode::FMin: result = asBits(std::fmin(fa, fb)); break;
          case Opcode::FMax: result = asBits(std::fmax(fa, fb)); break;
          case Opcode::FNeg: result = asBits(-fa); break;
          case Opcode::FAbs: result = asBits(std::fabs(fa)); break;
          case Opcode::FSqrt: result = asBits(std::sqrt(fa)); break;
          case Opcode::FRcp: result = asBits(1.0f / fa); break;
          case Opcode::CvtIF:
            result = asBits(static_cast<float>(ia));
            break;
          case Opcode::CvtFI:
            result = static_cast<uint32_t>(static_cast<int32_t>(fa));
            break;
          case Opcode::MovI: result = static_cast<uint32_t>(inst.imm); break;
          case Opcode::Mov: result = a; break;
          case Opcode::Tid:
            result = static_cast<uint32_t>(warp.baseThread + lane);
            break;
          case Opcode::Param:
            panic_if(!warp.params ||
                     static_cast<size_t>(inst.imm) >= warp.params->size(),
                     "Param index %d out of range", inst.imm);
            result = (*warp.params)[inst.imm];
            break;
          default:
            panic("execAlu on non-ALU opcode %s", opcodeName(inst.op));
        }
        warp.reg(lane, inst.rd) = result;
    }
}

bool
SimtCore::execMemory(sim::Cycle cycle, uint32_t slot, WarpContext &warp,
                     const Instruction &inst, uint32_t mask)
{
    const bool is_store = inst.op == Opcode::Store;
    if (!is_store && warp.pendingLoads.size() >= kMaxPendingLoads)
        return false;
    if (!memsys_->canAccept(smId_))
        return false;

    std::vector<mem::Addr> &addrs = addrBuf_;
    addrs.assign(cfg_.warpSize, 0);
    for (uint32_t lane = 0; lane < cfg_.warpSize; ++lane) {
        if (!(mask & (1u << lane)))
            continue;
        uint64_t base = warp.regValue(lane, inst.rs1);
        addrs[lane] = base + static_cast<int64_t>(inst.imm);
    }
    std::vector<mem::CoalescedAccess> &transactions = coalesceBuf_;
    mem::coalesce(addrs, mask, 4, cfg_.lineSizeBytes, transactions);
    *memTransactions_ += transactions.size();

    if (is_store) {
        for (uint32_t lane = 0; lane < cfg_.warpSize; ++lane) {
            if (mask & (1u << lane))
                gmem_->write<uint32_t>(addrs[lane],
                                       warp.regValue(lane, inst.rs2));
        }
        for (const auto &txn : transactions) {
            mem::MemRequest req;
            req.addr = txn.lineAddr;
            req.size = std::popcount(txn.laneMask) * 4;
            req.isWrite = true;
            req.source = mem::RequestSource::CoreStore;
            req.smId = smId_;
            memsys_->sendRequest(req);
        }
        return true;
    }

    // Load: functional read now, timing via the scoreboard.
    for (uint32_t lane = 0; lane < cfg_.warpSize; ++lane) {
        if (mask & (1u << lane))
            warp.reg(lane, inst.rd) = gmem_->read<uint32_t>(addrs[lane]);
    }
    uint32_t token = static_cast<uint32_t>(nextToken_++);
    for (const auto &txn : transactions) {
        mem::MemRequest req;
        req.addr = txn.lineAddr;
        req.size = cfg_.lineSizeBytes;
        req.isWrite = false;
        req.source = mem::RequestSource::CoreLoad;
        req.smId = smId_;
        req.tag = (static_cast<uint64_t>(slot) << 32) | token;
        memsys_->sendRequest(req);
    }
    warp.pendingLoads.push_back(
        {token, inst.rd, static_cast<uint32_t>(transactions.size())});
    warp.pendingRegs |= 1u << inst.rd;
    (void)cycle;
    return true;
}

bool
SimtCore::execAccel(sim::Cycle cycle, uint32_t slot, WarpContext &warp,
                    const Instruction &inst, uint32_t mask)
{
    panic_if(!accel_, "AccelTraverse with no accelerator attached");
    std::vector<uint32_t> operands(cfg_.warpSize, 0);
    for (uint32_t lane = 0; lane < cfg_.warpSize; ++lane)
        operands[lane] = warp.regValue(lane, inst.rs1);
    if (!accel_->launchWarp(cycle, this, slot, mask, operands))
        return false;
    warp.state = WarpContext::State::WaitAccel;
    if (tracer_)
        warpStream(slot)->begin(cycle, "accel_wait");
    return true;
}

bool
SimtCore::issue(sim::Cycle cycle, uint32_t slot)
{
    WarpContext &warp = warps_[slot];
    const Instruction &inst = warp.prog->insts[warp.stack.pc()];
    uint32_t mask = warp.stack.activeMask();

    if (tracer_ && !warp.traceLive) {
        warp.traceLive = true;
        warpStream(slot)->begin(cycle, "warp");
    }

    switch (instClass(inst.op)) {
      case InstClass::Memory:
        if (!execMemory(cycle, slot, warp, inst, mask))
            return false;
        warp.stack.advance();
        break;

      case InstClass::Accel:
        if (!execAccel(cycle, slot, warp, inst, mask))
            return false;
        warp.stack.advance();
        break;

      case InstClass::Control:
        if (inst.op == Opcode::Exit) {
            warp.stack.exitLanes();
            if (warp.stack.empty()) {
                warp.state = WarpContext::State::Invalid;
                warp.prog = nullptr;
                --residentWarps_;
                if (tracer_ && warp.traceLive) {
                    warp.traceLive = false;
                    warpStream(slot)->end(cycle); // closes "warp"
                }
            }
        } else if (inst.op == Opcode::Jump) {
            warp.stack.jump(inst.target);
        } else {
            uint32_t taken = 0;
            for (uint32_t lane = 0; lane < cfg_.warpSize; ++lane) {
                if (!(mask & (1u << lane)))
                    continue;
                uint32_t v = warp.regValue(lane, inst.rs1);
                bool t = inst.op == Opcode::BranchZ ? v == 0 : v != 0;
                if (t)
                    taken |= 1u << lane;
            }
            warp.stack.branch(taken, inst.target, inst.reconv);
        }
        break;

      case InstClass::Alu:
      case InstClass::Sfu:
        execAlu(warp, inst, mask);
        // Result available after the pipe latency.
        warp.pendingRegs |= 1u << inst.rd;
        writebacks_.push(
            {cycle + instLatency(inst.op), slot, 1u << inst.rd});
        warp.stack.advance();
        break;
    }

    countIssue(inst, mask);
    return true;
}

void
SimtCore::tick(sim::Cycle cycle)
{
    catchUp(cycle);
    lastAccounted_ = cycle + 1;
    if (residentWarps_ == 0) {
        nextEvent_ = sim::kAsleep; // a launchWarp wake re-arms us
        return;
    }
    drainWriteback(cycle);
    drainResponses();

    // Greedy-then-oldest: stay on the last warp while it can issue, else
    // pick the oldest ready warp.
    int pick = -1;
    if (lastIssued_ >= 0 && canIssue(warps_[lastIssued_]))
        pick = lastIssued_;
    if (pick < 0) {
        uint64_t best_age = UINT64_MAX;
        for (uint32_t slot = 0; slot < warps_.size(); ++slot) {
            if (canIssue(warps_[slot]) && warps_[slot].age < best_age) {
                best_age = warps_[slot].age;
                pick = static_cast<int>(slot);
            }
        }
    }

    if (pick >= 0 && issue(cycle, static_cast<uint32_t>(pick))) {
        lastIssued_ = pick;
        nextEvent_ = cycle + 1;
        return;
    }
    // Structural stall on the greedy warp: try the others once.
    if (pick >= 0) {
        for (uint32_t slot = 0; slot < warps_.size(); ++slot) {
            if (static_cast<int>(slot) == pick || !canIssue(warps_[slot]))
                continue;
            if (issue(cycle, slot)) {
                lastIssued_ = static_cast<int>(slot);
                nextEvent_ = cycle + 1;
                return;
            }
        }
    }
    if (busy()) {
        ++*stallCycles_;
        classifyStall(pick >= 0);
    }
    // The core's state is frozen until a writeback matures or an
    // external event arrives: data/accel stalls clear via load responses
    // and accelDone, and each structural blocker delivers a wake when it
    // frees (accelDone fires as the accel warp slot frees; the memory
    // system wakes us when its input-queue back-pressure clears). Failed
    // issue attempts have no side effects, so the skipped retries a
    // polling kernel would have made are pure no-ops; catchUp() replays
    // their per-cycle stall attribution.
    frozenStructural_ = pick >= 0;
    nextEvent_ =
        writebacks_.empty() ? sim::kAsleep : writebacks_.top().ready;
}

void
SimtCore::catchUp(sim::Cycle now)
{
    if (now <= lastAccounted_)
        return;
    uint64_t n = now - lastAccounted_;
    lastAccounted_ = now;
    if (residentWarps_ == 0)
        return;
    // Each cycle the event-driven kernel skipped, a polling tick would
    // have re-run the same failing issue scan (the core's state is
    // frozen while it sleeps; wakes settle this accounting before
    // producers mutate it) and recorded one stall of the same class as
    // the tick that put the core to sleep.
    *stallCycles_ += n;
    classifyStall(frozenStructural_, n);
}

/**
 * Attribute one stall cycle to its dominant cause. Priority order:
 *
 *  - structural: a warp *could* issue but the downstream resource
 *    refused (memory-system back-pressure, pending-load table full,
 *    accelerator warp buffer full) -> stall_issue;
 *  - data: some Active warp is scoreboard-blocked on an outstanding
 *    load -> stall_mem, else on an ALU/SFU writeback -> stall_exec;
 *  - otherwise every resident warp is parked in WaitAccel ->
 *    stall_accel (the paper's "intersection busy": the SM idles while
 *    traversal runs on the accelerator).
 *
 * Reconvergence is not a stall source in this model: divergence
 * serializes paths inside issued instructions and therefore shows up in
 * SIMT efficiency (active_lane_sum / lane capacity), not here. The four
 * counters always sum to core.stall_cycles.
 */
void
SimtCore::classifyStall(bool structural, uint64_t n)
{
    if (structural) {
        *stallIssue_ += n;
        return;
    }
    bool any_load = false;
    bool any_exec = false;
    bool any_active = false;
    for (const auto &warp : warps_) {
        if (warp.state != WarpContext::State::Active)
            continue;
        any_active = true;
        if (!warp.pendingLoads.empty())
            any_load = true;
        else if (warp.pendingRegs != 0)
            any_exec = true;
    }
    if (any_load)
        *stallMem_ += n;
    else if (any_exec)
        *stallExec_ += n;
    else if (!any_active)
        *stallAccel_ += n;
    else
        *stallIssue_ += n;
}

bool
SimtCore::busy() const
{
    return residentWarps_ != 0;
}

} // namespace tta::gpu
