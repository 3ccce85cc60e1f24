/**
 * @file
 * Memory-subsystem tests: functional store, coalescer, caches with MSHRs,
 * and the end-to-end memory system timing paths.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/coalescer.hh"
#include "mem/device_image.hh"
#include "mem/global_memory.hh"
#include "mem/memsys.hh"
#include "sim/config.hh"

using namespace tta;
using namespace tta::mem;

// --- GlobalMemory ------------------------------------------------------

TEST(GlobalMemory, ReadWriteRoundTrip)
{
    GlobalMemory gmem(1u << 20);
    Addr a = gmem.alloc(64);
    gmem.write<uint32_t>(a, 0xdeadbeef);
    gmem.write<float>(a + 4, 3.5f);
    EXPECT_EQ(gmem.read<uint32_t>(a), 0xdeadbeefu);
    EXPECT_FLOAT_EQ(gmem.read<float>(a + 4), 3.5f);
}

TEST(GlobalMemory, AllocAlignmentAndNullReserved)
{
    GlobalMemory gmem(1u << 20);
    Addr a = gmem.alloc(10, 64);
    Addr b = gmem.alloc(10, 128);
    EXPECT_NE(a, 0u); // address 0 reserved as "null"
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 128, 0u);
    EXPECT_GT(b, a);
}

TEST(GlobalMemory, AllocPastCapacityIsFatal)
{
    GlobalMemory gmem(4096);
    Addr a = gmem.alloc(1024);
    EXPECT_THROW(gmem.alloc(4096), sim::FatalError);
    // SIZE_MAX must not wrap the bounds check into a bogus address.
    EXPECT_THROW(gmem.alloc(SIZE_MAX), sim::FatalError);
    // Failed requests leave the allocator untouched.
    EXPECT_EQ(gmem.allocTop(), a + 1024);
    EXPECT_EQ(gmem.alloc(64), a + 1024);
    try {
        gmem.alloc(8192);
        FAIL() << "over-capacity alloc did not throw";
    } catch (const sim::FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("8192 bytes requested"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("allocTop 1152"), std::string::npos) << msg;
        EXPECT_NE(msg.find("capacity 4096"), std::string::npos) << msg;
    }
}

namespace {

/** Resident set of this process in bytes (0 if it cannot be read). */
size_t
residentBytes()
{
    std::ifstream statm("/proc/self/statm");
    size_t total = 0, resident = 0;
    statm >> total >> resident;
    return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

} // namespace

TEST(GlobalMemory, ConstructionCommitsNoPages)
{
    size_t before = residentBytes();
    ASSERT_GT(before, 0u) << "cannot read /proc/self/statm";
    std::vector<std::unique_ptr<GlobalMemory>> devices;
    for (int d = 0; d < 4; ++d)
        devices.push_back(std::make_unique<GlobalMemory>(256ull << 20));
    size_t after = residentBytes();
    EXPECT_LT(after, before + (16ull << 20))
        << "four 256 MB memories grew the resident set from " << before
        << " to " << after << " bytes";
}

TEST(GlobalMemory, UnwrittenBytesReadZero)
{
    GlobalMemory gmem;
    Addr a = gmem.alloc(4096);
    for (Addr off = 0; off < 4096; off += 8)
        gmem.write<uint64_t>(a + off, ~0ull);
    EXPECT_EQ(gmem.read<uint8_t>(0), 0u);
    EXPECT_EQ(gmem.read<uint8_t>(gmem.capacity() - 1), 0u);
}

TEST(GlobalMemoryDeathTest, AccessNearAddressMaxPanics)
{
    GlobalMemory gmem(1u << 20);
    // addr + size wraps to a small number here; the check must not.
    // (volatile: a constant address makes gcc warn about the copy that
    // the check guards.)
    volatile Addr near_max = UINT64_MAX - 3;
    EXPECT_DEATH(gmem.read<uint64_t>(near_max), "out of bounds");
    EXPECT_DEATH(gmem.write<uint32_t>(near_max + 3, 1u), "out of bounds");
}

// --- Mapped device images ------------------------------------------------

namespace {

/** A 1000-byte image whose byte i is (i * 7 + 1) mod 256, so no payload
 *  byte is zero. */
DeviceImage
patternImage()
{
    return DeviceImage(1000, [](uint8_t *p) {
        for (size_t i = 0; i < 1000; ++i)
            p[i] = static_cast<uint8_t>(i * 7 + 1);
    });
}

/** The fatal() text of @p fn, or "" if it returns normally. */
template <typename Fn>
std::string
fatalText(Fn &&fn)
{
    try {
        fn();
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(GlobalMemoryImage, MapsAtTheFirstAddressWithoutACopy)
{
    const DeviceImage image = patternImage();
    GlobalMemory gmem(1u << 20);
    Addr base = gmem.map(image);
    EXPECT_EQ(base, GlobalMemory::kFirstAddr);
    EXPECT_EQ(base, DeviceImage::kBase);
    EXPECT_EQ(gmem.allocTop(), image.end());
    for (Addr a = 0; a < base; ++a)
        ASSERT_EQ(gmem.read<uint8_t>(a), 0u) << "null reservation " << a;
    std::vector<uint8_t> bytes(image.bytes());
    gmem.readBytes(base, bytes.data(), bytes.size());
    EXPECT_EQ(0, std::memcmp(bytes.data(), image.payload(), bytes.size()));
    // Past the payload, the image's last page and the rest read zero.
    EXPECT_EQ(gmem.read<uint8_t>(image.end()), 0u);
    EXPECT_EQ(gmem.read<uint8_t>(image.fileBytes()), 0u);
    // Allocation continues after the image, as after a copy.
    EXPECT_EQ(gmem.alloc(16), (image.end() + 63) & ~Addr{63});
}

TEST(GlobalMemoryImage, DeviceWriteIntoImageIsFatal)
{
    const DeviceImage image = patternImage();
    GlobalMemory gmem(1u << 20);
    Addr base = gmem.map(image);
    const std::string named = "device write into a mapped read-only image";
    uint8_t buf[16] = {};
    EXPECT_NE(fatalText([&] { gmem.write<uint32_t>(base, 1u); }).find(named),
              std::string::npos);
    EXPECT_NE(fatalText([&] { gmem.write<uint8_t>(image.end() - 1, 1); })
                  .find(named),
              std::string::npos);
    EXPECT_NE(fatalText([&] { gmem.writeBytes(base + 500, buf, 16); })
                  .find(named),
              std::string::npos);
    // A write straddling either edge of the image touches image bytes.
    EXPECT_NE(fatalText([&] { gmem.writeBytes(base - 8, buf, 16); })
                  .find(named),
              std::string::npos);
    EXPECT_NE(fatalText([&] { gmem.writeBytes(image.end() - 8, buf, 16); })
                  .find(named),
              std::string::npos);
    // The image is untouched, and writes beside it are allowed.
    EXPECT_EQ(gmem.read<uint8_t>(base), 1u);
    EXPECT_EQ(fatalText([&] { gmem.writeBytes(base - 16, buf, 16); }), "");
    EXPECT_EQ(fatalText([&] { gmem.writeBytes(image.end(), buf, 16); }), "");
}

TEST(GlobalMemoryImage, LastPageWritesStayInTheirDevice)
{
    const DeviceImage image = patternImage();
    ASSERT_LT(image.end() + 64, image.fileBytes())
        << "the test needs room after the image in its last page";
    GlobalMemory a(1u << 20), b(1u << 20);
    a.map(image);
    b.map(image);
    Addr x = a.alloc(16);
    ASSERT_EQ(b.alloc(16), x);
    ASSERT_LT(x, image.fileBytes()) << "x is not on the image's last page";
    a.write<uint32_t>(x, 0xabcd1234u);
    EXPECT_EQ(a.read<uint32_t>(x), 0xabcd1234u);
    EXPECT_EQ(b.read<uint32_t>(x), 0u);
    GlobalMemory c(1u << 20);
    c.map(image);
    EXPECT_EQ(c.read<uint32_t>(x), 0u);
    // The image bytes that share that page are unchanged everywhere.
    EXPECT_EQ(a.read<uint8_t>(image.end() - 1), image.payload()[999]);
    EXPECT_EQ(c.read<uint8_t>(image.end() - 1), image.payload()[999]);
}

TEST(GlobalMemoryImage, TooLargeImageIsTheExhaustionError)
{
    const DeviceImage image(8192, [](uint8_t *) {});
    GlobalMemory gmem(4096);
    EXPECT_NE(fatalText([&] { gmem.map(image); })
                  .find("simulated memory exhausted"),
              std::string::npos);
}

TEST(GlobalMemoryImageDeathTest, MapNeedsAFreshDevice)
{
    const DeviceImage image = patternImage();
    GlobalMemory gmem(1u << 20);
    gmem.alloc(4);
    EXPECT_DEATH(gmem.map(image), "fresh device");
}

// --- Coalescer ------------------------------------------------------------

TEST(Coalescer, UniformAccessOneTransaction)
{
    std::vector<Addr> addrs(32, 0x1000);
    auto txns = coalesce(addrs, 0xffffffffu, 4, 128);
    ASSERT_EQ(txns.size(), 1u);
    EXPECT_EQ(txns[0].lineAddr, 0x1000u & ~127u);
    EXPECT_EQ(txns[0].laneMask, 0xffffffffu);
}

TEST(Coalescer, ConsecutiveWordsOneLine)
{
    std::vector<Addr> addrs(32);
    for (int lane = 0; lane < 32; ++lane)
        addrs[lane] = 0x2000 + lane * 4; // 128B, one line exactly
    auto txns = coalesce(addrs, 0xffffffffu, 4, 128);
    EXPECT_EQ(txns.size(), 1u);
}

TEST(Coalescer, StridedAccessesScatter)
{
    std::vector<Addr> addrs(32);
    for (int lane = 0; lane < 32; ++lane)
        addrs[lane] = 0x4000 + lane * 256; // every lane its own line
    auto txns = coalesce(addrs, 0xffffffffu, 4, 128);
    EXPECT_EQ(txns.size(), 32u);
}

TEST(Coalescer, InactiveLanesIgnoredAndStraddles)
{
    std::vector<Addr> addrs(32, 0);
    addrs[3] = 0x1000 + 126; // straddles a line boundary
    auto txns = coalesce(addrs, 1u << 3, 4, 128);
    ASSERT_EQ(txns.size(), 2u);
    EXPECT_EQ(txns[0].laneMask, 1u << 3);
    EXPECT_EQ(txns[1].laneMask, 1u << 3);
}

TEST(CoalescerDeath, NonPowerOfTwoLineSizePanics)
{
    std::vector<Addr> addrs(4, 0x1000);
    EXPECT_DEATH(coalesce(addrs, 0xfu, 4, 96), "power of two");
    EXPECT_DEATH(coalesce(addrs, 0xfu, 4, 0), "power of two");
}

TEST(CoalescerDeath, MoreThanThirtyTwoLanesPanics)
{
    std::vector<Addr> addrs(33, 0x1000);
    EXPECT_DEATH(coalesce(addrs, 0xffffffffu, 4, 128), "32-lane");
}

// --- Cache -------------------------------------------------------------

TEST(Cache, HitAfterFillAndLru)
{
    sim::StatRegistry stats;
    // Four lines, 2-way: two sets.
    Cache cache("c", 512, 2, 128, 8, stats);
    EXPECT_EQ(cache.access(0x0000, false), Cache::Result::MissNew);
    cache.fill(0x0000);
    EXPECT_EQ(cache.access(0x0000, false), Cache::Result::Hit);

    // Fill the set (same set: stride = numSets * lineSize = 256).
    EXPECT_EQ(cache.access(0x0100, false), Cache::Result::MissNew);
    cache.fill(0x0100);
    EXPECT_EQ(cache.access(0x0100, false), Cache::Result::Hit);
    // Touch 0x0000 so 0x0100 becomes LRU, then evict with a third line.
    cache.access(0x0000, false);
    EXPECT_EQ(cache.access(0x0200, false), Cache::Result::MissNew);
    cache.fill(0x0200);
    EXPECT_EQ(cache.access(0x0000, false), Cache::Result::Hit);
    EXPECT_EQ(cache.access(0x0100, false), Cache::Result::MissNew);
}

TEST(Cache, MshrMergingAndExhaustion)
{
    sim::StatRegistry stats;
    Cache cache("c", 1024, 8, 128, 2, stats);
    EXPECT_EQ(cache.access(0x1000, false), Cache::Result::MissNew);
    EXPECT_EQ(cache.access(0x1000, false), Cache::Result::MissMerged);
    EXPECT_EQ(cache.access(0x2000, false), Cache::Result::MissNew);
    // Both MSHRs taken: a third distinct miss stalls.
    EXPECT_EQ(cache.access(0x3000, false), Cache::Result::NoMshr);
    cache.fill(0x1000);
    EXPECT_EQ(cache.access(0x3000, false), Cache::Result::MissNew);
    EXPECT_TRUE(cache.missPending(0x2000));
    EXPECT_FALSE(cache.missPending(0x1000));
}

TEST(Cache, WritesAreNoAllocate)
{
    sim::StatRegistry stats;
    Cache cache("c", 1024, 8, 128, 4, stats);
    EXPECT_EQ(cache.access(0x1000, true), Cache::Result::MissNew);
    // The write did not allocate the line or an MSHR.
    EXPECT_FALSE(cache.missPending(0x1000));
    EXPECT_EQ(cache.access(0x1000, false), Cache::Result::MissNew);
}

TEST(Cache, ReadAndWriteMissesCountedSeparately)
{
    sim::StatRegistry stats;
    Cache cache("c", 1024, 8, 128, 4, stats);

    EXPECT_EQ(cache.access(0x1000, false), Cache::Result::MissNew);
    cache.fill(0x1000);
    cache.access(0x1000, false); // hit
    cache.access(0x2000, true);  // write miss (no-allocate)
    cache.access(0x2000, true);  // still a write miss
    EXPECT_EQ(cache.access(0x3000, false), Cache::Result::MissNew);
    // Merging into an in-flight MSHR is not another miss.
    EXPECT_EQ(cache.access(0x3000, false), Cache::Result::MissMerged);

    EXPECT_EQ(stats.counterValue("c.read_misses"), 2u);
    EXPECT_EQ(stats.counterValue("c.write_misses"), 2u);
    // The combined counter (consumed by the energy model) is their sum.
    EXPECT_EQ(stats.counterValue("c.misses"),
              stats.counterValue("c.read_misses") +
                  stats.counterValue("c.write_misses"));
    EXPECT_EQ(stats.counterValue("c.hits"), 1u);
}

// --- MemSystem ------------------------------------------------------------

namespace {

/** Run the memory system until a response arrives; returns cycles. */
sim::Cycle
timeRead(MemSystem &memsys, uint32_t sm, Addr addr, sim::Cycle &clock)
{
    MemRequest req;
    req.addr = addr;
    req.size = 128;
    req.smId = sm;
    req.tag = 0x42;
    memsys.sendRequest(req);
    sim::Cycle start = clock;
    while (memsys.responses(sm).empty()) {
        memsys.tick(clock++);
        if (clock - start > 100000)
            ADD_FAILURE() << "response never arrived";
    }
    memsys.responses(sm).clear();
    return clock - start;
}

} // namespace

TEST(MemSystem, ColdMissThenL1Hit)
{
    sim::Config cfg;
    sim::StatRegistry stats;
    MemSystem memsys(cfg, stats);
    sim::Cycle clock = 0;
    sim::Cycle cold = timeRead(memsys, 0, 0x10000, clock);
    sim::Cycle hit = timeRead(memsys, 0, 0x10000, clock);
    EXPECT_GT(cold, hit);
    EXPECT_GE(hit, cfg.l1LatencyCycles);
    EXPECT_GT(cold, cfg.l2LatencyCycles); // went at least to L2+DRAM
    EXPECT_EQ(stats.counterValue("dram.reads"), 1u);
}

TEST(MemSystem, L2SharedAcrossSms)
{
    sim::Config cfg;
    sim::StatRegistry stats;
    MemSystem memsys(cfg, stats);
    sim::Cycle clock = 0;
    timeRead(memsys, 0, 0x20000, clock); // SM0 warms L2
    sim::Cycle sm1 = timeRead(memsys, 1, 0x20000, clock);
    // SM1 misses its L1 but hits L2: faster than DRAM, slower than L1.
    EXPECT_EQ(stats.counterValue("dram.reads"), 1u);
    EXPECT_GT(sm1, cfg.l1LatencyCycles);
}

TEST(MemSystem, PerfectMemoryShortCircuits)
{
    sim::Config cfg;
    cfg.perfectMemory = true;
    sim::StatRegistry stats;
    MemSystem memsys(cfg, stats);
    MemRequest req;
    req.addr = 0x8000;
    req.smId = 2;
    memsys.sendRequest(req);
    EXPECT_EQ(memsys.responses(2).size(), 1u);
    EXPECT_FALSE(memsys.busy());
}

TEST(MemSystem, PerfectNodeFetchOnlyAffectsRtaTraffic)
{
    sim::Config cfg;
    cfg.perfectNodeFetch = true;
    sim::StatRegistry stats;
    MemSystem memsys(cfg, stats);
    MemRequest rta;
    rta.addr = 0x9000;
    rta.smId = 0;
    rta.source = RequestSource::RtaNode;
    memsys.sendRequest(rta);
    EXPECT_EQ(memsys.rtaResponses(0).size(), 1u); // instant
    memsys.rtaResponses(0).clear();

    sim::Cycle clock = 0;
    sim::Cycle core = timeRead(memsys, 0, 0xA000, clock);
    EXPECT_GT(core, cfg.l1LatencyCycles); // normal path for core loads
}

TEST(MemSystem, WritesConsumeDramBandwidth)
{
    sim::Config cfg;
    sim::StatRegistry stats;
    MemSystem memsys(cfg, stats);
    MemRequest req;
    req.addr = 0x30000;
    req.size = 64;
    req.isWrite = true;
    req.smId = 0;
    memsys.sendRequest(req);
    sim::Cycle clock = 0;
    while (memsys.busy() && clock < 10000)
        memsys.tick(clock++);
    EXPECT_FALSE(memsys.busy());
    EXPECT_EQ(stats.counterValue("dram.writes"), 1u);
    EXPECT_EQ(stats.counterValue("dram.bytes_written"), 64u);
}

TEST(MemSystem, DramUtilizationBounded)
{
    sim::Config cfg;
    sim::StatRegistry stats;
    MemSystem memsys(cfg, stats);
    sim::Cycle clock = 0;
    for (int i = 0; i < 100; ++i) {
        MemRequest req;
        req.addr = 0x100000 + i * 4096; // distinct lines and channels
        req.size = 128;
        req.smId = i % 8;
        req.tag = i;
        memsys.sendRequest(req);
    }
    while (memsys.busy() && clock < 200000)
        memsys.tick(clock++);
    EXPECT_FALSE(memsys.busy());
    double util = memsys.dramUtilization();
    EXPECT_GT(util, 0.0);
    EXPECT_LE(util, 1.0);
    EXPECT_EQ(stats.counterValue("dram.reads"), 100u);
}
