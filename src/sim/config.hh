/**
 * @file
 * Simulator configuration.
 *
 * Defaults follow Table II of the paper (the Vulkan-Sim configuration used
 * in the evaluation). Benches mutate individual fields for sensitivity
 * studies (Fig 14) and limit studies (Fig 17).
 */

#ifndef TTA_SIM_CONFIG_HH
#define TTA_SIM_CONFIG_HH

#include <cstdint>

namespace tta::sim {

/** Which accelerator (if any) executes tree traversals. */
enum class AccelMode
{
    BaselineGpu, //!< traversal in software on the SIMT cores
    BaselineRta, //!< fixed-function RTA (ray tracing only)
    Tta,         //!< TTA: modified fixed-function units
    TtaPlus,     //!< TTA+: modular programmable OP units
};

const char *accelModeName(AccelMode mode);

/** GPU + accelerator configuration (Table II defaults). */
struct Config
{
    // --- SIMT core organization -----------------------------------------
    uint32_t numSms = 8;            //!< # Streaming Multiprocessors
    uint32_t maxWarpsPerSm = 32;    //!< resident warp contexts per SM
    uint32_t warpSize = 32;         //!< threads per warp

    // --- Memory hierarchy ------------------------------------------------
    uint32_t l1SizeBytes = 64 * 1024;    //!< L1D, fully assoc LRU
    uint32_t l1LatencyCycles = 20;
    uint32_t l2SizeBytes = 3 * 1024 * 1024; //!< unified L2
    uint32_t l2Assoc = 16;
    uint32_t l2LatencyCycles = 160;
    uint32_t lineSizeBytes = 128;        //!< cache line / DRAM burst
    uint32_t l1MshrEntries = 64;
    uint32_t l2MshrEntries = 256;

    // --- Clocks (MHz); compute : icnt : L2 : memory = 1365:1365:1365:3500
    double coreClockMhz = 1365.0;
    double memClockMhz = 3500.0;

    // --- DRAM model --------------------------------------------------------
    uint32_t dramChannels = 4;
    uint32_t dramServiceLatency = 100;  //!< core cycles, bank access time
    /** Bytes transferable per memory-clock cycle per channel. */
    uint32_t dramBytesPerMemCycle = 16;

    // --- RTA / TTA (one unit per SM) -------------------------------------
    uint32_t warpBufferWarps = 4;     //!< warp buffer size (Fig 14 sweep)
    uint32_t intersectionSets = 4;    //!< parallel intersection unit sets
    uint32_t rayBoxLatency = 13;      //!< fixed-function Ray-Box latency
    uint32_t rayTriLatency = 37;      //!< fixed-function Ray-Tri latency
    /** Extra multiplier on fixed-function intersection latency (Fig 14
     *  evaluates 10x). */
    double intersectionLatencyScale = 1.0;
    /** TTA isolated min/max configuration: 3-cycle query-key test. */
    bool ttaIsolatedMinMax = false;
    /** Merge node requests across rays in the RTA memory scheduler
     *  (Section II-C advantage 3). Off = ablation. */
    bool rtaCoalescing = true;
    /** Node decodes / dispatches the operation arbiter handles per
     *  cycle. */
    uint32_t rtaArbiterWidth = 4;
    /** Prefetch the lines of children pushed by a node test (a one-level
     *  treelet prefetcher, cf. the paper's Fig 17 "Perf. RT" limit and
     *  its citation of Chou et al. [16]). Extension; off by default. */
    bool rtaChildPrefetch = false;
    /** Node-fetch requests the RTA may issue per cycle (Fig 14-style
     *  fetch-bandwidth axis for the wide-node study; 1 = paper model). */
    uint32_t rtaFetchWidth = 1;

    // --- Tree node layout (wide SoA study axis) ---------------------------
    /** BVH children per inner node: 2 = binary 64B layout, 4/8 = wide
     *  struct-of-arrays layout (WideBvhNodeLayout). */
    uint32_t bvhNodeWidth = 2;
    /** Wide nodes use the compressed (quantized-plane) encoding; only
     *  meaningful when bvhNodeWidth > 2. */
    bool bvhQuantized = false;

    // --- TTA+ --------------------------------------------------------------
    uint32_t icntHopLatency = 1;      //!< crossbar transfer latency
    /** Instances of each OP unit type. Table II provisions four
     *  intersection-unit *sets*; Table IV reports the area of one set. */
    uint32_t opUnitCopies = 4;
    uint32_t rcpUnitCopies = 12;      //!< 3 RCPs per set (Table IV) x 4

    // --- Limit-study knobs (Fig 17) ---------------------------------------
    bool perfectNodeFetch = false;    //!< "Perf. RT": zero-latency nodes
    bool perfectMemory = false;       //!< "Perf. Mem": all memory 0-latency

    // --- Which accelerator to use ------------------------------------------
    AccelMode accelMode = AccelMode::BaselineGpu;

    // --- Robustness --------------------------------------------------------
    /** Deadlock watchdog: a full-machine run that has not quiesced after
     *  this many cycles panics with the list of still-busy components
     *  instead of hanging forever. Large enough that no legitimate
     *  workload in this repository comes near it. */
    uint64_t watchdogCycles = 4'000'000'000ull;

    /** Ratio of memory clock to core clock (DRAM bandwidth accounting). */
    double memClockRatio() const { return memClockMhz / coreClockMhz; }

    /** Peak DRAM bytes per *core* cycle across all channels. */
    double
    dramPeakBytesPerCoreCycle() const
    {
        return static_cast<double>(dramBytesPerMemCycle) * dramChannels *
               memClockRatio();
    }
};

} // namespace tta::sim

#endif // TTA_SIM_CONFIG_HH
