#!/usr/bin/env bash
# Record the benchmark sections BENCH_8-BENCH_10.
#
# BENCH_4-BENCH_7 stay committed as history and are no longer
# re-recorded: BENCH_5 and BENCH_6 measured a threaded simulation kernel
# that has since been deleted, and BENCH_4 and BENCH_7 came from a
# host-time harness that was deleted with the vector backends of the
# batched intersection tests. perfbench (BENCHMARK.json) is the
# host-time benchmark.
#
# BENCH_8: the traversal-as-a-service layer (bench_service): five
# traffic scenarios (Poisson/bursty/closed-loop, mixed tenants,
# cancels) at a million arrivals each, recording sustained throughput
# and p50/p99/p999 latency in simulated cycles and microseconds. The
# run includes bench_service's own determinism cross-check: every
# scenario is replayed unchanged and with the staging mode flipped, and
# the batch log + latency histograms must be bit-identical (the bench
# exits 2 otherwise, failing the recording).
#
# BENCH_9: the multi-device open-loop overload study (bench_service
# --bench=overload): per device count {1, 2, 4}, a closed-loop probe
# measures the group's saturated capacity, then an open-loop Poisson
# sweep offers 0.2x-2x that capacity and records throughput plus
# p50/p99/p999 per SLO class per cell. The run gates aggregate
# saturated throughput at 4 devices >= 1.8x one device; throughput is
# in simulated cycles, so host core count does not matter. (Kernel /
# staging / device-count bit-identity is covered by bench_service
# --check-determinism on the d1/d2/d4 scenarios and by
# tests/test_service_multidev.cc, not re-proven here.)
#
# BENCH_10: the locality-aware scheduling-policy study (bench_service
# --bench=sched): per device count {1, 2, 4}, a closed-loop lld probe
# measures saturated capacity, then both policies (lld and affinity)
# face the identical 1.5x-capacity Poisson trace over a six-tenant
# B-Tree fleet sized so one device's L2 holds one or two tenants' hot
# paths but never the whole fleet. The run gates affinity >= 1.15x lld
# saturated throughput at 4 devices with p99 not regressed (exit 7);
# throughput is simulated cycles, host-independent.
#
# Usage: scripts/record_bench.sh [build-dir] [bench8-out] [bench9-out] \
#            [bench10-out]
#
# RECORD_SECTIONS=8,9,10 (default: all) picks which BENCH_N sections
# run — e.g. RECORD_SECTIONS=9 records only the overload study.

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${1:-build}
OUT8=${2:-BENCH_8.json}
OUT9=${3:-BENCH_9.json}
OUT10=${4:-BENCH_10.json}
SECTIONS=${RECORD_SECTIONS:-8,9,10}
HOST_CORES=$(nproc)

# want N: is section BENCH_N selected?
want() {
    case ",$SECTIONS," in
      *",$1,"*) return 0 ;;
      *) return 1 ;;
    esac
}

BENCH8_DIR= BENCH9_DIR= BENCH10_DIR=
trap 'rm -rf ${BENCH8_DIR:+"$BENCH8_DIR"} ${BENCH9_DIR:+"$BENCH9_DIR"} \
    ${BENCH10_DIR:+"$BENCH10_DIR"}' EXIT

# ---------------------------------------------------------------------
# BENCH_8: traversal-as-a-service throughput and latency SLOs.
# ---------------------------------------------------------------------

if want 8; then

BENCH8_DIR=$(mktemp -d)

BENCH8_QUERIES=${BENCH8_QUERIES:-1000000}

echo "== bench_service, 5 scenarios x $BENCH8_QUERIES arrivals" \
     "(+ determinism cross-check) =="
"$BUILD"/bench/bench_service --queries="$BENCH8_QUERIES" \
    --check-determinism --json="$BENCH8_DIR/service.jsonl"

python3 - "$BENCH8_DIR/service.jsonl" "$OUT8" "$HOST_CORES" \
    "$BENCH8_QUERIES" <<'EOF'
import json
import sys

jsonl, out, host_cores, queries = sys.argv[1:5]
scenarios = {}
for line in open(jsonl):
    line = line.strip()
    if not line:
        continue
    rec = json.loads(line)
    v = rec["values"]
    scenarios[rec["name"]] = {
        "completed": int(v["completed"]),
        "canceled": int(v["canceled"]),
        "batches": int(v["batches"]),
        "expired_dispatches": int(v["expired_dispatches"]),
        "makespan_cycles": rec["cycles"],
        "throughput_qpmc": round(v["throughput_qpmc"], 2),
        "lat_p50_us": round(v["lat_p50_us"], 2),
        "lat_p99_us": round(v["lat_p99_us"], 2),
        "lat_p999_us": round(v["lat_p999_us"], 2),
        "wall_ms": rec.get("wall_ms"),
    }

total = sum(s["completed"] for s in scenarios.values())
report = {
    "bench": "BENCH_8",
    "description": "traversal-as-a-service: sustained throughput and "
                   "tail latency per traffic scenario (three tenants "
                   "on one persistent device; qpmc = completed queries "
                   "per million simulated cycles, us at the configured "
                   "core clock)",
    "host_cores": int(host_cores),
    "arrivals_per_scenario": int(queries),
    "determinism_cross_check": "passed: every scenario bit-identical "
                               "on rerun and with the staging mode "
                               "flipped; bench_service exits 2 on "
                               "divergence",
    "scenarios": scenarios,
    "summary": {
        "total_completed_queries": total,
        "min_throughput_qpmc": round(
            min(s["throughput_qpmc"] for s in scenarios.values()), 2),
        "worst_p999_us": round(
            max(s["lat_p999_us"] for s in scenarios.values()), 2),
    },
}
json.dump(report, open(out, "w"), indent=2)
print(f"wrote {out}: {total} completed queries across "
      f"{len(scenarios)} scenarios")
EOF

fi # want 8

# ---------------------------------------------------------------------
# BENCH_9: multi-device open-loop overload study.
# ---------------------------------------------------------------------

if want 9; then

BENCH9_DIR=$(mktemp -d)
BENCH9_QUERIES=${BENCH9_QUERIES:-120000}

echo "== bench_service --bench=overload ($BENCH9_QUERIES arrivals" \
     "per cell, devices 1/2/4, 1.8x scaling gate) =="
"$BUILD"/bench/bench_service --bench=overload \
    --queries="$BENCH9_QUERIES" --check-overload-scaling=1.8 \
    --json="$BENCH9_DIR/overload.jsonl"

python3 - "$BENCH9_DIR/overload.jsonl" "$OUT9" "$HOST_CORES" \
    "$BENCH9_QUERIES" <<'EOF'
import json
import sys

jsonl, out, host_cores, queries = sys.argv[1:5]
probes = {}
cells = {}
for line in open(jsonl):
    line = line.strip()
    if not line:
        continue
    rec = json.loads(line)
    name = rec["name"]
    if not name.startswith("overload/"):
        continue
    v = rec["values"]
    d = str(int(v["devices"]))
    if name.startswith("overload/probe/"):
        probes[d] = {
            "closed_loop_capacity_qpmc": round(v["throughput_qpmc"], 2),
            "completed": int(v["completed"]),
            "batches": int(v["batches"]),
        }
        continue
    cell = {
        "offered_factor": v["offered_factor"],
        "offered_qpmc": round(v["offered_qpmc"], 2),
        "throughput_qpmc": round(v["throughput_qpmc"], 2),
        "lat_p50_us": round(v["lat_p50_us"], 2),
        "lat_p99_us": round(v["lat_p99_us"], 2),
        "lat_p999_us": round(v["lat_p999_us"], 2),
        "expired_dispatches": int(v["expired_dispatches"]),
    }
    for cls in ("latency", "throughput"):
        for pct in ("p50", "p99", "p999"):
            key = f"class_{cls}_{pct}_cycles"
            if key in v:
                cell[key] = int(v[key])
    cells.setdefault(d, []).append(cell)

for lst in cells.values():
    lst.sort(key=lambda c: c["offered_factor"])

sat = {
    d: next((c["throughput_qpmc"] for c in lst
             if c["offered_factor"] == 2.0), None)
    for d, lst in cells.items()
}
scaling = (round(sat["4"] / sat["1"], 2)
           if sat.get("4") and sat.get("1") else None)

report = {
    "bench": "BENCH_9",
    "description": "multi-device open-loop overload study: per device "
                   "count, a closed-loop probe measures the group's "
                   "saturated capacity, then Poisson arrivals offer "
                   "0.2x-2x of it (three tenants, btree lane in the "
                   "latency-sensitive SLO class; qpmc = completed "
                   "queries per million simulated cycles)",
    "host_cores": int(host_cores),
    "arrivals_per_cell": int(queries),
    "scaling_gate": "passed: saturated (2.0x offered) aggregate "
                    "throughput at 4 devices >= 1.8x one device "
                    "(bench_service exits 6 otherwise; simulated "
                    "cycles, host-independent)",
    "closed_loop_capacity": probes,
    "offered_load_sweep": cells,
    "summary": {
        "saturated_qpmc_by_devices": sat,
        "d4_vs_d1_saturated_scaling": scaling,
    },
}
json.dump(report, open(out, "w"), indent=2)
print(f"wrote {out}: d4/d1 saturated scaling {scaling}x "
      f"({len(cells)} device counts x "
      f"{max((len(l) for l in cells.values()), default=0)} "
      f"load factors)")
EOF

fi # want 9

# ---------------------------------------------------------------------
# BENCH_10: locality-aware scheduling-policy study.
# ---------------------------------------------------------------------

if want 10; then

BENCH10_DIR=$(mktemp -d)
BENCH10_QUERIES=${BENCH10_QUERIES:-120000}

echo "== bench_service --bench=sched ($BENCH10_QUERIES arrivals per" \
     "cell, policies lld/affinity x devices 1/2/4," \
     "1.15x gain gate at d4) =="
"$BUILD"/bench/bench_service --bench=sched \
    --queries="$BENCH10_QUERIES" --check-sched-gain=1.15 \
    --json="$BENCH10_DIR/sched.jsonl"

python3 - "$BENCH10_DIR/sched.jsonl" "$OUT10" "$HOST_CORES" \
    "$BENCH10_QUERIES" <<'EOF'
import json
import sys

jsonl, out, host_cores, queries = sys.argv[1:5]
probes = {}
cells = {}
for line in open(jsonl):
    line = line.strip()
    if not line:
        continue
    rec = json.loads(line)
    name = rec["name"]
    if not name.startswith("sched/"):
        continue
    v = rec["values"]
    d = str(int(v["devices"]))
    if name.startswith("sched/probe/"):
        probes[d] = {
            "closed_loop_capacity_qpmc": round(v["throughput_qpmc"], 2),
            "completed": int(v["completed"]),
            "batches": int(v["batches"]),
        }
        continue
    policy = name.rsplit("/", 1)[1]
    cells.setdefault(d, {})[policy] = {
        "throughput_qpmc": round(v["throughput_qpmc"], 2),
        "lat_p50_us": round(v["lat_p50_us"], 2),
        "lat_p99_us": round(v["lat_p99_us"], 2),
        "lat_p999_us": round(v["lat_p999_us"], 2),
        "expired_dispatches": int(v["expired_dispatches"]),
        "batches": int(v["batches"]),
        "l2_misses": int(v["l2_misses"]),
        "dram_reads": int(v["dram_reads"]),
    }

gains = {
    d: {
        pol: round(by_pol[pol]["throughput_qpmc"] /
                   by_pol["lld"]["throughput_qpmc"], 3)
        for pol in by_pol
    }
    for d, by_pol in cells.items()
    if "lld" in by_pol
}
d4 = cells.get("4", {})
gate_gain = gains.get("4", {}).get("affinity")
locality = None
if "lld" in d4 and "affinity" in d4 and d4["lld"]["l2_misses"]:
    locality = round(
        1.0 - d4["affinity"]["l2_misses"] / d4["lld"]["l2_misses"], 3)

report = {
    "bench": "BENCH_10",
    "description": "locality-aware multi-device scheduling: per device "
                   "count, a closed-loop lld probe measures saturated "
                   "capacity, then both policies face identical "
                   "1.5x-capacity Poisson arrivals over a six-tenant "
                   "B-Tree fleet whose per-tenant hot sets overflow one "
                   "device L2 (qpmc = completed queries per million "
                   "simulated cycles)",
    "host_cores": int(host_cores),
    "arrivals_per_cell": int(queries),
    "gain_gate": "passed: affinity >= 1.15x lld saturated throughput at 4 "
                 "devices with p99 not regressed (bench_service exits "
                 "7 otherwise; simulated cycles, host-independent)",
    "closed_loop_capacity": probes,
    "policies": cells,
    "throughput_vs_lld": gains,
    "summary": {
        "d4_affinity_vs_lld": gate_gain,
        "d4_affinity_l2_miss_reduction": locality,
        "d4_p99_us": {pol: c["lat_p99_us"] for pol, c in d4.items()},
    },
}
json.dump(report, open(out, "w"), indent=2)
print(f"wrote {out}: d4 affinity/lld {gate_gain}x, affinity L2-miss "
      f"reduction {locality}")
EOF

fi # want 10
