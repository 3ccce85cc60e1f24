/**
 * @file
 * Figure 12: performance of the selected applications on TTA and TTA+
 * relative to the baseline GPU (top: CUDA applications, bottom: RTA
 * applications).
 *
 * Paper expectations: up to 5.4x for B-Tree variants (geomean ~2.4x,
 * better when queries outnumber keys; B+Tree lowest), 1.1-1.7x N-Body
 * (kernel fusion adds ~1.2x, to ~1.9x), RTNN already beats CUDA on the
 * RTA and gains up to ~1.4x more from offloading the intersection
 * shaders (*RTNN); unstarred RTNN slows down on TTA+.
 */

#include "bench_common.hh"

using namespace bench;

int
main(int argc, char **argv)
{
    Args args = Args::parse(argc, argv);
    printHeader("Figure 12", "Speedup over the baseline GPU", args);

    Sweep sweep(args);

    // --- B-Tree variants over a key-count sweep -------------------------
    struct BTreeRow
    {
        trees::BTreeKind kind;
        size_t keys;
        size_t base, tta, ttap;
    };
    std::vector<BTreeRow> btree_rows;
    for (auto kind : {trees::BTreeKind::BTree, trees::BTreeKind::BStarTree,
                      trees::BTreeKind::BPlusTree}) {
        for (size_t keys : {args.keys / 10, args.keys, args.keys * 10}) {
            std::string tag = std::string("btree/") +
                              trees::bTreeKindName(kind) + "/" +
                              std::to_string(keys);
            auto runBase = [kind, keys, &args](const sim::Config &cfg,
                                               sim::StatRegistry &stats) {
                BTreeWorkload wl(kind, keys, args.queries, args.seed);
                return wl.runBaseline(cfg, stats);
            };
            auto runAccel = [kind, keys, &args](const sim::Config &cfg,
                                                sim::StatRegistry &stats) {
                BTreeWorkload wl(kind, keys, args.queries, args.seed);
                return wl.runAccelerated(cfg, stats);
            };
            BTreeRow row;
            row.kind = kind;
            row.keys = keys;
            row.base = sweep.add(tag + "/base",
                                 modeConfig(sim::AccelMode::BaselineGpu),
                                 runBase);
            row.tta = sweep.add(tag + "/tta",
                                modeConfig(sim::AccelMode::Tta), runAccel);
            row.ttap = sweep.add(tag + "/ttaplus",
                                 modeConfig(sim::AccelMode::TtaPlus),
                                 runAccel);
            btree_rows.push_back(row);
        }
    }

    // --- N-Body -----------------------------------------------------------
    struct NBodyRow
    {
        int dims;
        size_t base, tta, ttap, fused;
    };
    std::vector<NBodyRow> nbody_rows;
    for (int dims : {2, 3}) {
        std::string tag = std::string("nbody/") + std::to_string(dims) +
                          "d";
        auto runBase = [dims, &args](const sim::Config &cfg,
                                     sim::StatRegistry &stats) {
            NBodyWorkload wl(dims, args.bodies, args.seed);
            return wl.runBaseline(cfg, stats);
        };
        auto runAccel = [dims, &args](bool fuse) {
            return [dims, fuse, &args](const sim::Config &cfg,
                                       sim::StatRegistry &stats) {
                NBodyWorkload wl(dims, args.bodies, args.seed);
                return wl.runAccelerated(cfg, stats, fuse);
            };
        };
        NBodyRow row;
        row.dims = dims;
        row.base = sweep.add(tag + "/base",
                             modeConfig(sim::AccelMode::BaselineGpu),
                             runBase);
        row.tta = sweep.add(tag + "/tta", modeConfig(sim::AccelMode::Tta),
                            runAccel(false));
        row.ttap = sweep.add(tag + "/ttaplus",
                             modeConfig(sim::AccelMode::TtaPlus),
                             runAccel(false));
        row.fused = sweep.add(tag + "/ttaplus-fused",
                              modeConfig(sim::AccelMode::TtaPlus),
                              runAccel(true));
        nbody_rows.push_back(row);
    }

    // --- RTNN radius search -------------------------------------------------
    auto rtnnBase = [&args](const sim::Config &cfg,
                            sim::StatRegistry &stats) {
        RtnnWorkload wl(args.points, args.queries / 4, 1.0f, args.seed);
        return wl.runBaseline(cfg, stats);
    };
    auto rtnnAccel = [&args](bool offload) {
        return [offload, &args](const sim::Config &cfg,
                                sim::StatRegistry &stats) {
            RtnnWorkload wl(args.points, args.queries / 4, 1.0f,
                            args.seed);
            return wl.runAccelerated(cfg, stats, offload);
        };
    };
    size_t rtnn_cuda = sweep.add(
        "rtnn/base", modeConfig(sim::AccelMode::BaselineGpu), rtnnBase);
    struct Cfg
    {
        const char *name;
        sim::AccelMode mode;
        bool offload;
        size_t idx;
    };
    std::vector<Cfg> rtnn_cfgs = {
        {"RTNN (RTA)", sim::AccelMode::BaselineRta, false, 0},
        {"RTNN (TTA)", sim::AccelMode::Tta, false, 0},
        {"*RTNN (TTA)", sim::AccelMode::Tta, true, 0},
        {"RTNN (TTA+)", sim::AccelMode::TtaPlus, false, 0},
        {"*RTNN (TTA+)", sim::AccelMode::TtaPlus, true, 0},
    };
    for (Cfg &c : rtnn_cfgs)
        c.idx = sweep.add(std::string("rtnn/") + c.name,
                          modeConfig(c.mode), rtnnAccel(c.offload));

    sweep.run();

    // --- Print the figure from the collected results ----------------------
    std::printf("B-Tree query speedup vs CUDA baseline "
                "(%zu queries):\n", args.queries);
    std::printf("%-10s %10s %12s %10s %10s\n", "tree", "keys",
                "base(cyc)", "TTA", "TTA+");
    std::vector<double> tta_geo, ttap_geo;
    for (const BTreeRow &row : btree_rows) {
        const RunMetrics &base = sweep[row.base];
        const RunMetrics &tta = sweep[row.tta];
        const RunMetrics &ttap = sweep[row.ttap];
        std::printf("%-10s %10zu %12llu %9.2fx %9.2fx\n",
                    trees::bTreeKindName(row.kind), row.keys,
                    static_cast<unsigned long long>(base.cycles),
                    speedup(base, tta), speedup(base, ttap));
        tta_geo.push_back(speedup(base, tta));
        ttap_geo.push_back(speedup(base, ttap));
    }
    std::printf("%-10s %10s %12s %9.2fx %9.2fx   (paper: ~2.4x geomean, "
                "up to 5.4x)\n\n", "geomean", "-", "-", geomean(tta_geo),
                geomean(ttap_geo));

    std::printf("N-Body force-pass speedup vs CUDA baseline "
                "(%zu bodies):\n", args.bodies);
    std::printf("%-10s %12s %10s %10s %12s\n", "dims", "base(cyc)", "TTA",
                "TTA+", "TTA+fused");
    for (const NBodyRow &row : nbody_rows) {
        const RunMetrics &base = sweep[row.base];
        std::printf("%-10s %12llu %9.2fx %9.2fx %11.2fx\n",
                    row.dims == 2 ? "NBODY-2D" : "NBODY-3D",
                    static_cast<unsigned long long>(base.cycles),
                    speedup(base, sweep[row.tta]),
                    speedup(base, sweep[row.ttap]),
                    speedup(base, sweep[row.fused]));
    }
    std::printf("(paper: 1.1-1.7x; merging the post-processing kernel "
                "adds ~1.2x, reaching ~1.9x on TTA+)\n\n");

    std::printf("Radius search speedup vs CUDA baseline "
                "(%zu points, %zu queries):\n", args.points,
                args.queries / 4);
    std::printf("%-14s %10s\n", "config", "speedup");
    for (const Cfg &c : rtnn_cfgs)
        std::printf("%-14s %9.2fx\n", c.name,
                    speedup(sweep[rtnn_cuda], sweep[c.idx]));
    std::printf("(paper: RTNN beats CUDA outright; *RTNN gains up to "
                "~1.4x more by replacing the intersection shaders; "
                "unstarred RTNN slows down on TTA+)\n");
    return 0;
}
