/**
 * @file
 * Exhaustive ISA semantics tests: every opcode executed on the simulated
 * core against a host-computed expectation, plus scoreboard-hazard,
 * memory-coalescing, divergence-nesting and determinism properties.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "gpu/gpu.hh"
#include "sim/rng.hh"

using namespace tta;
using namespace tta::gpu;

namespace {

/** Run a 2-operand op over per-thread inputs and collect outputs. */
std::vector<uint32_t>
runBinaryOp(Opcode op, const std::vector<uint32_t> &a,
            const std::vector<uint32_t> &b)
{
    sim::Config cfg;
    sim::StatRegistry stats;
    Gpu gpu(cfg, stats);
    uint64_t in_a = gpu.memory().alloc(4 * a.size());
    uint64_t in_b = gpu.memory().alloc(4 * b.size());
    uint64_t out = gpu.memory().alloc(4 * a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        gpu.memory().write<uint32_t>(in_a + 4 * i, a[i]);
        gpu.memory().write<uint32_t>(in_b + 4 * i, b[i]);
    }
    KernelBuilder kb("binop");
    kb.tid(1);
    kb.ishli(2, 1, 2);
    kb.param(3, 0);
    kb.iadd(3, 3, 2);
    kb.load(4, 3);
    kb.param(3, 1);
    kb.iadd(3, 3, 2);
    kb.load(5, 3);
    kb.emit(op, 6, 4, 5);
    kb.param(3, 2);
    kb.iadd(3, 3, 2);
    kb.store(3, 6);
    KernelProgram prog = kb.build();
    gpu.runKernel(prog, a.size(),
                  {static_cast<uint32_t>(in_a), static_cast<uint32_t>(in_b),
                   static_cast<uint32_t>(out)});
    std::vector<uint32_t> result(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        result[i] = gpu.memory().read<uint32_t>(out + 4 * i);
    return result;
}

uint32_t
f2u(float f)
{
    uint32_t u;
    std::memcpy(&u, &f, 4);
    return u;
}

float
u2f(uint32_t u)
{
    float f;
    std::memcpy(&f, &u, 4);
    return f;
}

} // namespace

struct BinCase
{
    Opcode op;
    const char *name;
    uint32_t (*expect)(uint32_t, uint32_t);
};

/** Prints a case as its mnemonic. gtest's default is a byte dump that
 *  includes pointers, and the ctest ID carries the printed value, so
 *  the IDs would change with every build. */
void
PrintTo(const BinCase &c, std::ostream *os)
{
    *os << c.name;
}

class BinaryOps : public ::testing::TestWithParam<BinCase>
{};

/** Names each case after its mnemonic (iadd, fadd, ...). */
static std::string
binCaseName(const ::testing::TestParamInfo<BinCase> &info)
{
    return info.param.name;
}

TEST_P(BinaryOps, MatchesHostSemantics)
{
    sim::Rng rng(101);
    std::vector<uint32_t> a, b;
    for (int i = 0; i < 64; ++i) {
        if (i < 32) {
            a.push_back(static_cast<uint32_t>(rng.next()));
            b.push_back(static_cast<uint32_t>(rng.next() | 1));
        } else {
            a.push_back(f2u(rng.uniform(-100.0f, 100.0f)));
            b.push_back(f2u(rng.uniform(0.5f, 100.0f)));
        }
    }
    auto got = runBinaryOp(GetParam().op, a, b);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(got[i], GetParam().expect(a[i], b[i]))
            << GetParam().name << " lane " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Integer, BinaryOps,
    ::testing::Values(
        BinCase{Opcode::IAdd, "iadd",
                [](uint32_t a, uint32_t b) { return a + b; }},
        BinCase{Opcode::ISub, "isub",
                [](uint32_t a, uint32_t b) { return a - b; }},
        BinCase{Opcode::IMul, "imul",
                [](uint32_t a, uint32_t b) { return a * b; }},
        BinCase{Opcode::IAnd, "iand",
                [](uint32_t a, uint32_t b) { return a & b; }},
        BinCase{Opcode::IOr, "ior",
                [](uint32_t a, uint32_t b) { return a | b; }},
        BinCase{Opcode::IXor, "ixor",
                [](uint32_t a, uint32_t b) { return a ^ b; }},
        BinCase{Opcode::SetEqI, "seteqi",
                [](uint32_t a, uint32_t b) -> uint32_t {
                    return a == b;
                }},
        BinCase{Opcode::SetNeI, "setnei",
                [](uint32_t a, uint32_t b) -> uint32_t {
                    return a != b;
                }},
        BinCase{Opcode::SetLtI, "setlti",
                [](uint32_t a, uint32_t b) -> uint32_t {
                    return static_cast<int32_t>(a) <
                           static_cast<int32_t>(b);
                }},
        BinCase{Opcode::IMin, "imin",
                [](uint32_t a, uint32_t b) -> uint32_t {
                    return static_cast<uint32_t>(
                        std::min(static_cast<int32_t>(a),
                                 static_cast<int32_t>(b)));
                }}),
    binCaseName);

INSTANTIATE_TEST_SUITE_P(
    Float, BinaryOps,
    ::testing::Values(
        BinCase{Opcode::FAdd, "fadd",
                [](uint32_t a, uint32_t b) {
                    return f2u(u2f(a) + u2f(b));
                }},
        BinCase{Opcode::FSub, "fsub",
                [](uint32_t a, uint32_t b) {
                    return f2u(u2f(a) - u2f(b));
                }},
        BinCase{Opcode::FMul, "fmul",
                [](uint32_t a, uint32_t b) {
                    return f2u(u2f(a) * u2f(b));
                }},
        BinCase{Opcode::FDiv, "fdiv",
                [](uint32_t a, uint32_t b) {
                    return f2u(u2f(a) / u2f(b));
                }},
        BinCase{Opcode::FMin, "fmin",
                [](uint32_t a, uint32_t b) {
                    return f2u(std::fmin(u2f(a), u2f(b)));
                }},
        BinCase{Opcode::FMax, "fmax",
                [](uint32_t a, uint32_t b) {
                    return f2u(std::fmax(u2f(a), u2f(b)));
                }},
        BinCase{Opcode::SetLtF, "setltf",
                [](uint32_t a, uint32_t b) -> uint32_t {
                    return u2f(a) < u2f(b);
                }},
        BinCase{Opcode::SetLeF, "setlef",
                [](uint32_t a, uint32_t b) -> uint32_t {
                    return u2f(a) <= u2f(b);
                }}),
    binCaseName);

TEST(IsaSemantics, UnaryAndImmediateOps)
{
    sim::Config cfg;
    sim::StatRegistry stats;
    Gpu gpu(cfg, stats);
    uint64_t out = gpu.memory().alloc(4096);
    KernelBuilder b("unary");
    b.tid(1);
    b.iaddi(2, 1, 100);    // tid + 100
    b.imuli(2, 2, 3);      // * 3
    b.ishli(3, 1, 4);      // tid << 4
    b.ishri(3, 3, 2);      // >> 2 (== tid * 4)
    b.inot(4, 1);          // ~tid
    b.cvtif(5, 1);
    b.fmuli(5, 5, -1.5f);
    b.fabs_(6, 5);         // |tid * -1.5|
    b.fneg(7, 6);          // -(that)
    b.iadd(8, 2, 3);
    b.param(9, 0);
    b.ishli(10, 1, 4);
    b.iadd(9, 9, 10);
    b.store(9, 8, 0);
    b.store(9, 4, 4);
    b.store(9, 6, 8);
    b.store(9, 7, 12);
    KernelProgram prog = b.build();
    gpu.runKernel(prog, 48, {static_cast<uint32_t>(out)});
    for (uint32_t t = 0; t < 48; ++t) {
        EXPECT_EQ(gpu.memory().read<uint32_t>(out + 16 * t),
                  (t + 100) * 3 + t * 4);
        EXPECT_EQ(gpu.memory().read<uint32_t>(out + 16 * t + 4), ~t);
        EXPECT_FLOAT_EQ(gpu.memory().read<float>(out + 16 * t + 8),
                        std::fabs(t * -1.5f));
        EXPECT_FLOAT_EQ(gpu.memory().read<float>(out + 16 * t + 12),
                        -std::fabs(t * -1.5f));
    }
}

TEST(IsaSemantics, ScoreboardOrdersDependencyChains)
{
    // A long chain of dependent SFU ops must produce the precise value,
    // proving the scoreboard never lets a consumer read early.
    sim::Config cfg;
    sim::StatRegistry stats;
    Gpu gpu(cfg, stats);
    uint64_t out = gpu.memory().alloc(4096);
    KernelBuilder b("chain");
    b.tid(1);
    b.cvtif(2, 1);
    b.faddi(2, 2, 2.0f);
    for (int i = 0; i < 8; ++i) {
        b.fsqrt(2, 2);
        b.fmuli(2, 2, 3.0f);
    }
    b.param(3, 0);
    b.ishli(4, 1, 2);
    b.iadd(3, 3, 4);
    b.store(3, 2);
    KernelProgram prog = b.build();
    gpu.runKernel(prog, 32, {static_cast<uint32_t>(out)});
    for (uint32_t t = 0; t < 32; ++t) {
        float want = t + 2.0f;
        for (int i = 0; i < 8; ++i)
            want = std::sqrt(want) * 3.0f;
        EXPECT_FLOAT_EQ(gpu.memory().read<float>(out + 4 * t), want);
    }
}

TEST(IsaSemantics, CoalescingVisibleInTransactionCounts)
{
    auto count_txns = [](uint32_t stride) {
        sim::Config cfg;
        sim::StatRegistry stats;
        Gpu gpu(cfg, stats);
        uint64_t buf = gpu.memory().alloc(1 << 20, 128);
        KernelBuilder b("stride");
        b.tid(1);
        b.imuli(2, 1, static_cast<int32_t>(stride));
        b.param(3, 0);
        b.iadd(3, 3, 2);
        b.load(4, 3);
        KernelProgram prog = b.build();
        gpu.runKernel(prog, 32, {static_cast<uint32_t>(buf)});
        return stats.counterValue("core.mem_transactions");
    };
    // One warp: unit-stride words hit one line; 128B stride hits 32.
    EXPECT_EQ(count_txns(4), 1u);
    EXPECT_EQ(count_txns(128), 32u);
}

TEST(IsaSemantics, NestedDivergence)
{
    // Three nested data-dependent branches; every thread must still get
    // its own value.
    sim::Config cfg;
    sim::StatRegistry stats;
    Gpu gpu(cfg, stats);
    uint64_t out = gpu.memory().alloc(4096);
    KernelBuilder b("nest");
    b.tid(1);
    b.movi(9, 0);
    b.movi(2, 1);
    b.iand(3, 1, 2); // bit0
    b.ifThenElse(
        3,
        [&]() {
            b.movi(4, 2);
            b.iand(5, 1, 4); // bit1
            b.ifThen(5, [&]() { b.iaddi(9, 9, 100); });
            b.iaddi(9, 9, 10);
        },
        [&]() {
            b.movi(4, 4);
            b.iand(5, 1, 4); // bit2
            b.ifThenElse(5, [&]() { b.iaddi(9, 9, 1000); },
                         [&]() { b.iaddi(9, 9, 1); });
        });
    b.param(6, 0);
    b.ishli(7, 1, 2);
    b.iadd(6, 6, 7);
    b.store(6, 9);
    KernelProgram prog = b.build();
    gpu.runKernel(prog, 64, {static_cast<uint32_t>(out)});
    for (uint32_t t = 0; t < 64; ++t) {
        uint32_t want;
        if (t & 1)
            want = (t & 2 ? 100 : 0) + 10;
        else
            want = (t & 4) ? 1000 : 1;
        EXPECT_EQ(gpu.memory().read<uint32_t>(out + 4 * t), want)
            << "tid " << t;
    }
}

TEST(IsaSemantics, DeterministicCycleCounts)
{
    auto run_once = [] {
        sim::Config cfg;
        sim::StatRegistry stats;
        Gpu gpu(cfg, stats);
        uint64_t buf = gpu.memory().alloc(1 << 16);
        KernelBuilder b("det");
        b.tid(1);
        b.movi(2, 0);
        b.doWhile([&]() -> Reg {
            b.iaddi(2, 2, 1);
            b.movi(3, 17);
            b.iand(4, 1, 3);
            b.iaddi(4, 4, 1);
            b.setlti(5, 2, 4);
            return 5;
        });
        b.param(6, 0);
        b.ishli(7, 1, 2);
        b.iadd(6, 6, 7);
        b.store(6, 2);
        KernelProgram prog = b.build();
        return gpu.runKernel(prog, 4096, {static_cast<uint32_t>(buf)});
    };
    EXPECT_EQ(run_once(), run_once());
}
