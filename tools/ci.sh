#!/usr/bin/env bash
# The full pre-merge gate, in order:
#   1. plain tier-1 (Release, -O2 -DNDEBUG — the configuration the
#      tracked benchmark numbers come from);
#   2. smokes of the sim_throughput and shard_scaling benches;
#   3. one run of every paper bench, every example and perf_microbench
#      at the smallest shape (policies are named by strings, so a
#      misspelt name fails only at run time);
#   4. the chaos-recovery and supervise drills (kill -> salvage ->
#      resume, bytes identical to serial);
#   5. tournament, fleet and fleet_scaling smokes;
#   6. the perf-ledger smoke (perfbench/run.py --smoke: pinned digests
#      of all three workloads through both passes);
#   7. the sim_throughput perf gate and the grid_throughput gate;
#   8. tier-1 under UBSan, ASan and TSan.
#
#   tools/ci.sh            # everything
#   tools/ci.sh -j8        # extra args forwarded to every ctest
#
# Each configuration uses its own build directory (build-ci,
# build-ubsan, build-asan, build-tsan; the ledger builds under
# build-ci/perfbench) so they never poison each other's caches.  Fails
# on the first stage that fails.
#
# The hot-path regression tests (byte-identity goldens, allocation guard)
# carry the additional ctest label `perf`; after touching the engine,
# `ctest --test-dir build-ci -L perf` re-runs just those.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

echo "== plain tier-1 (Release) =="
build_dir="${repo_root}/build-ci"
cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j"$(nproc)"
ctest --test-dir "${build_dir}" -L tier1 --output-on-failure "$@"

echo "== sim_throughput smoke =="
# DUFP_SMOKE: tiny profile, one repetition.  Validates that the bench
# runs and emits parseable JSON matching bench/sim_throughput_schema.json
# (structurally; the full run in the perf gate below is what gates).
smoke_dir="${build_dir}/smoke-out"
rm -rf "${smoke_dir}"
DUFP_SMOKE=1 DUFP_OUT_DIR="${smoke_dir}" "${build_dir}/bench/sim_throughput"
python3 - "${smoke_dir}/BENCH_sim_throughput.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("schema_version", "bench", "smoke", "config", "baseline",
            "serial", "speedup"):
    assert key in doc, f"missing key: {key}"
assert doc["schema_version"] == 4
assert doc["smoke"] is True
serial = doc["serial"]
assert serial["ticks"] > 0
# Event-leaping accounting: every tick must be classified exactly once
# (leapt on the calm fast path or stepped exactly) — a gap or an overlap
# here means the leaping engine dropped or double-counted simulated time.
leap = serial["leap"]
total = leap["leapt_ticks"] + leap["stepped_ticks"]
assert total == int(serial["ticks"]), (
    f"leap split {total} != ticks {serial['ticks']}")
print("sim_throughput smoke: JSON OK, leap split accounts for every tick")
EOF

echo "== shard_scaling smoke =="
# Forks real worker processes on a shrunk grid and byte-compares the
# gathered outputs against a serial run — the bench itself exits
# non-zero on any byte drift, so this doubles as a cheap cross-process
# determinism gate.
DUFP_SMOKE=1 DUFP_OUT_DIR="${smoke_dir}" "${build_dir}/bench/shard_scaling"
python3 - "${smoke_dir}/BENCH_shard_scaling.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for key in ("schema_version", "bench", "smoke", "config",
            "single_process", "processes_2", "processes_4"):
    assert key in doc, f"missing key: {key}"
assert doc["schema_version"] == 2
assert doc["config"]["host_cpus"] >= 1
# Every multi-process row carries exactly one of: a real speedup (multi-
# core host) or the skip marker (1 CPU — the row still byte-checks).
for key in ("processes_2", "processes_4"):
    row = doc[key]
    assert row["identical_bytes"] is True
    assert ("speedup_vs_single" in row) != ("skipped_reason" in row), (
        f"{key}: want exactly one of speedup_vs_single / skipped_reason")
    if "skipped_reason" in row:
        assert row["skipped_reason"] == "host_cpus==1"
print("shard_scaling smoke: JSON OK, gathered bytes identical")
EOF

echo "== paper benches, examples and microbench smoke =="
# Each binary runs once at the smallest shape (1 repetition, 1 socket)
# and must exit 0.  They name their policies by registry strings, which
# no compiler checks, so this is where a misspelt name would fail.
bins_dir="${smoke_dir}/bins"
rm -rf "${bins_dir}"
mkdir -p "${bins_dir}"
run_smoke() {
  (cd "${bins_dir}" && DUFP_REPS=1 DUFP_SOCKETS=1 DUFP_QUIET=1 \
      DUFP_OUT_DIR="${smoke_dir}/figs" "$@" > /dev/null) || {
    echo "bins smoke: $* exited non-zero" >&2
    exit 1
  }
}
for b in table1_architecture fig1a_static_capping fig1b_phase_capping \
    fig1c_partial_cap_time fig3a_slowdown fig3b_processor_power \
    fig3c_energy fig4_dram_power fig5_frequency_trace ablation_interval \
    ablation_min_cap ablation_cap_step ablation_freq_control baseline_dnpc \
    fault_storm; do
  run_smoke "${build_dir}/bench/${b}"
done
for e in quickstart capping_study custom_workload phase_explorer \
    trace_replay_demo budget_balancer_demo; do
  run_smoke "${build_dir}/examples/${e}"
done
run_smoke "${build_dir}/bench/perf_microbench" --benchmark_min_time=0.001
echo "bins smoke: 15 paper benches, 6 examples and perf_microbench exited 0"

echo "== chaos recovery smoke =="
# The failure-model gate (DESIGN.md § Failure model & recovery): a
# seeded DUFP_CHAOS worker self-SIGKILLs mid-record, a second worker
# completes every chunk the victim never claimed, `gather --partial`
# salvages the torn stream and writes a retry manifest, `run --resume`
# executes exactly the missing jobs — and the final gather must be
# byte-identical to an unfailed serial run.  One worker per phase keeps
# the whole drill deterministic (no claim races), so the exit codes are
# asserted exactly: 137 (SIGKILL), 6 (incomplete), 0, 0.
chaos_dir="${build_dir}/chaos-out"
rm -rf "${chaos_dir}"
mkdir -p "${chaos_dir}/claims"
shard_worker="${build_dir}/cli/dufp_shard_worker"
"${shard_worker}" spec > "${chaos_dir}/spec.json" 2> /dev/null
DUFP_QUIET=1 "${shard_worker}" serial --spec "${chaos_dir}/spec.json" \
    --out "${chaos_dir}/serial" 2> /dev/null
status=0
DUFP_QUIET=1 DUFP_CHAOS=0.3 DUFP_CHAOS_SEED=1 "${shard_worker}" run \
    --spec "${chaos_dir}/spec.json" --out "${chaos_dir}/w0.jsonl" \
    --chunk-size 4 --claim-dir "${chaos_dir}/claims" --owner w0 \
    2> /dev/null || status=$?
[[ "${status}" -eq 137 ]] || {
  echo "chaos smoke: expected the chaos worker to die by SIGKILL (137)," \
       "got ${status}" >&2
  exit 1
}
[[ -f "${chaos_dir}/w0.jsonl.partial" && ! -f "${chaos_dir}/w0.jsonl" ]] || {
  echo "chaos smoke: a killed worker must leave only a .partial stream" >&2
  exit 1
}
# The victim's lease is fresh, so a huge TTL keeps its chunk orphaned —
# the gap --resume exists to fill.
DUFP_QUIET=1 "${shard_worker}" run --spec "${chaos_dir}/spec.json" \
    --out "${chaos_dir}/w1.jsonl" --chunk-size 4 \
    --claim-dir "${chaos_dir}/claims" --owner w1 --lease-ttl 100000 \
    2> /dev/null
status=0
"${shard_worker}" gather --spec "${chaos_dir}/spec.json" \
    --out "${chaos_dir}/gathered" --partial \
    "${chaos_dir}/w0.jsonl.partial" "${chaos_dir}/w1.jsonl" \
    2> /dev/null || status=$?
[[ "${status}" -eq 6 && -f "${chaos_dir}/gathered.retry.json" ]] || {
  echo "chaos smoke: partial gather should exit 6 + write a retry" \
       "manifest (exit ${status})" >&2
  exit 1
}
DUFP_QUIET=1 "${shard_worker}" run --resume "${chaos_dir}/gathered.retry.json" \
    --out "${chaos_dir}/rescue.jsonl" 2> /dev/null
"${shard_worker}" gather --spec "${chaos_dir}/spec.json" \
    --out "${chaos_dir}/gathered" --partial \
    "${chaos_dir}/w0.jsonl.partial" "${chaos_dir}/w1.jsonl" \
    "${chaos_dir}/rescue.jsonl" 2> /dev/null
cmp "${chaos_dir}/gathered.csv" "${chaos_dir}/serial.csv" || {
  echo "chaos smoke: DETERMINISM VIOLATION: recovered gather differs" \
       "from serial" >&2
  exit 1
}
echo "chaos smoke: kill -> salvage -> resume -> bytes identical to serial"

echo "== supervise smoke =="
# The same storm under the supervisor: chaos workers die, get restarted
# with backoff, repeat offenders poison their chunks — and whatever is
# left unrecovered must be honestly reported via a retry manifest that a
# clean rescue run completes.  Worker/chunk interleaving is timing-
# dependent, so only the end-to-end property is asserted: supervised +
# (optional) rescue gathers byte-identical to serial.
sup_dir="${build_dir}/chaos-out/sup"
mkdir -p "${sup_dir}"
status=0
DUFP_QUIET=1 DUFP_CHAOS=0.3 DUFP_CHAOS_SEED=1 "${shard_worker}" supervise \
    --spec "${chaos_dir}/spec.json" --out-dir "${sup_dir}" --workers 2 \
    --chunk-size 4 --lease-ttl 100000 --max-restarts 3 \
    --gather "${sup_dir}/gathered" > "${sup_dir}/outputs.txt" \
    2> /dev/null || status=$?
sup_files=()
while IFS= read -r line; do sup_files+=("${line}"); done \
    < "${sup_dir}/outputs.txt"
if [[ "${status}" -eq 6 ]]; then
  DUFP_QUIET=1 "${shard_worker}" run \
      --resume "${sup_dir}/gathered.retry.json" \
      --out "${sup_dir}/rescue.jsonl" 2> /dev/null
  "${shard_worker}" gather --spec "${chaos_dir}/spec.json" \
      --out "${sup_dir}/gathered" --partial \
      "${sup_files[@]}" "${sup_dir}/rescue.jsonl" 2> /dev/null
elif [[ "${status}" -ne 0 ]]; then
  echo "supervise smoke: unexpected exit ${status}" >&2
  exit 1
fi
cmp "${sup_dir}/gathered.csv" "${chaos_dir}/serial.csv" || {
  echo "supervise smoke: DETERMINISM VIOLATION: supervised gather" \
       "differs from serial" >&2
  exit 1
}
echo "supervise smoke: supervised chaos run recovered, bytes identical"

echo "== tournament smoke =="
# Every registered policy on a tiny grid (1 app x 1 tolerance x 1 rep)
# through the shard engine, schema-checking the ranked leaderboard CSV:
# all policies present, ranks sequential from 1, violation/energy
# columns parse.  Catches a policy whose registration or factory broke
# without running the full tournament.
DUFP_SMOKE=1 DUFP_QUIET=1 DUFP_OUT_DIR="${smoke_dir}" \
    "${build_dir}/bench/tournament"
python3 - "${smoke_dir}/tournament.csv" <<'EOF'
import csv, sys
with open(sys.argv[1]) as f:
    rows = list(csv.DictReader(f))
expected_cols = {"rank", "policy", "cells", "violations",
                 "mean_slowdown_pct", "worst_slowdown_pct",
                 "mean_pkg_power_savings_pct", "mean_dram_power_savings_pct",
                 "mean_energy_change_pct"}
assert rows, "empty leaderboard"
assert expected_cols <= set(rows[0]), f"missing columns: {expected_cols - set(rows[0])}"
assert len(rows) >= 7, f"expected >= 7 ranked policies, got {len(rows)}"
assert [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))
for legacy in ("DUF", "DUFP", "DUFP-F", "DNPC"):
    assert any(r["policy"] == legacy for r in rows), f"missing {legacy}"
for r in rows:
    int(r["violations"]); float(r["mean_energy_change_pct"])
print(f"tournament smoke: {len(rows)} policies ranked, CSV OK")
EOF

echo "== fleet smoke =="
# Fleet-scale hierarchical budgeting (DESIGN.md § Fleet-scale
# hierarchical power budgeting): the 2x2-rack reference fleet through
# every execution path.  The serial run is the golden; a 2-shard static
# run must gather to byte-identical outputs; dropping a shard must exit
# 6 and write a retry manifest whose resume run completes the bytes.
# All exit codes are asserted exactly.
fleet_dir="${build_dir}/fleet-out"
rm -rf "${fleet_dir}"
mkdir -p "${fleet_dir}"
"${shard_worker}" fleet-spec > "${fleet_dir}/spec.json" 2> /dev/null
DUFP_QUIET=1 "${shard_worker}" fleet-serial --spec "${fleet_dir}/spec.json" \
    --out "${fleet_dir}/serial" 2> /dev/null
for shard in 0 1; do
  DUFP_QUIET=1 "${shard_worker}" fleet-run --spec "${fleet_dir}/spec.json" \
      --out "${fleet_dir}/w${shard}.jsonl" --shard "${shard}" --shards 2 \
      2> /dev/null
done
"${shard_worker}" fleet-gather --spec "${fleet_dir}/spec.json" \
    --out "${fleet_dir}/gathered" \
    "${fleet_dir}/w0.jsonl" "${fleet_dir}/w1.jsonl" 2> /dev/null
for suffix in alloc.csv summary.csv prom; do
  cmp "${fleet_dir}/gathered.${suffix}" "${fleet_dir}/serial.${suffix}" || {
    echo "fleet smoke: DETERMINISM VIOLATION: sharded ${suffix} differs" \
         "from serial" >&2
    exit 1
  }
done
# Salvage + resume: shard 1's nodes are missing, the partial gather must
# say so via exit 6 + a manifest, and the resume run must fill the gap.
status=0
"${shard_worker}" fleet-gather --spec "${fleet_dir}/spec.json" \
    --out "${fleet_dir}/partial" --partial \
    "${fleet_dir}/w0.jsonl" 2> /dev/null || status=$?
[[ "${status}" -eq 6 && -f "${fleet_dir}/partial.retry.json" ]] || {
  echo "fleet smoke: partial fleet-gather should exit 6 + write a retry" \
       "manifest (exit ${status})" >&2
  exit 1
}
DUFP_QUIET=1 "${shard_worker}" fleet-run \
    --resume "${fleet_dir}/partial.retry.json" \
    --out "${fleet_dir}/rescue.jsonl" 2> /dev/null
"${shard_worker}" fleet-gather --spec "${fleet_dir}/spec.json" \
    --out "${fleet_dir}/partial" \
    "${fleet_dir}/w0.jsonl" "${fleet_dir}/rescue.jsonl" 2> /dev/null
cmp "${fleet_dir}/partial.alloc.csv" "${fleet_dir}/serial.alloc.csv" || {
  echo "fleet smoke: DETERMINISM VIOLATION: resumed gather differs from" \
       "serial" >&2
  exit 1
}
echo "fleet smoke: serial = sharded = salvage+resume, bytes identical"

echo "== fleet_scaling smoke =="
# Every registered fleet allocator on the 2x2x2 smoke fleet, serial vs
# supervised-sharded byte-compared inside the bench (it exits non-zero
# on drift), then the scorecard JSON/CSV schema-checked.
DUFP_SMOKE=1 DUFP_QUIET=1 DUFP_OUT_DIR="${smoke_dir}" \
    "${build_dir}/bench/fleet_scaling"
python3 - "${smoke_dir}/BENCH_fleet_scaling.json" \
    "${smoke_dir}/fleet_scaling.csv" <<'EOF'
import csv, json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema_version"] == 1
assert doc["bench"] == "fleet_scaling"
assert doc["smoke"] is True
for key in ("racks", "nodes_per_rack", "sockets_per_node", "sockets",
            "epochs", "budget_w", "traffic"):
    assert key in doc["config"], f"missing config key: {key}"
allocators = ("static-equal", "proportional", "fastcap")
for name in allocators:
    entry = doc[name]
    assert entry["identical_bytes"] is True, f"{name}: byte drift"
    assert entry["total_energy_j"] > 0
    assert 0.0 <= entry["violation_rate"] <= 1.0
    assert 0.0 < entry["jain_fairness"] <= 1.0
with open(sys.argv[2]) as f:
    rows = list(csv.DictReader(f))
assert len(rows) == len(allocators), f"expected {len(allocators)} rows"
expected_cols = {"allocator", "traffic", "budget_w", "total_energy_j",
                 "violation_rate", "jain_fairness", "mean_speed"}
assert expected_cols <= set(rows[0]), \
    f"missing columns: {expected_cols - set(rows[0])}"
assert {r["allocator"] for r in rows} == set(allocators)
print(f"fleet_scaling smoke: {len(rows)} allocators ranked, bytes"
      " identical, schema OK")
EOF

echo "== perf ledger smoke =="
# perfbench's self-test: tiny shapes of paper_grid, policy_storm and
# fleet_1024, each through the untraced and the traced pass.  Every
# process must print the pinned digest of its workload, and every
# traced run must reconcile its layers against the engine's own counts;
# run.py exits non-zero otherwise.  The ledger builds from ../src as its
# own CMake package, here under the CI build directory.
(cd "${repo_root}" &&
  CARGO_TARGET_DIR="${build_dir}/perfbench" python3 perfbench/run.py --smoke)

echo "== perf gate (sim_throughput, full run) =="
# A real (non-smoke) run of the tracked throughput bench, gated on the
# serial speedup over the pre-optimisation seed engine.  The tracked
# number is ~14.6x (BENCH_sim_throughput.json — event-leaping engine
# plus the untraced-run trace-row skip); the default floor of 9.0x
# leaves ~40% noise margin so shared CI hosts don't flake, while still
# catching any real hot-path regression (the pre-leaping engine
# measured ~2.2x and would fail this gate).
# Override per-host with DUFP_CI_MIN_SERIAL_SPEEDUP.
perf_dir="${build_dir}/perf-out"
rm -rf "${perf_dir}"
DUFP_OUT_DIR="${perf_dir}" "${build_dir}/bench/sim_throughput"
min_serial="${DUFP_CI_MIN_SERIAL_SPEEDUP:-9.0}"
python3 - "${perf_dir}/BENCH_sim_throughput.json" "${min_serial}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
min_serial = float(sys.argv[2])
serial = doc["speedup"]["serial_vs_baseline"]
assert serial >= min_serial, (
    f"perf gate: serial_vs_baseline {serial:.2f}x < floor {min_serial}x")
print(f"perf gate: serial_vs_baseline {serial:.2f}x >= {min_serial}x")
EOF

echo "== grid_throughput gate (shared cell cache, pooled runs) =="
# The tournament-shaped smoke grid (95 jobs) four ways: uncached (a
# run_once loop, shared cell cache off), cached cold, cached warm, and
# pooled (2 threads, cache on and cleared), every leg byte-compared
# against uncached through the finalized evaluation CSV — the bench
# exits non-zero on any drift or a non-warm repeat, so this is also a
# grid-scale identity gate.
# Counts are deterministic, so they gate exactly: the cached cold leg
# builds at most 5% of the uncached leg's cell edges, the warm repeat
# none.  Time gates on pooled_vs_uncached, the median of 5 alternating
# uncached/pooled pairs inside the one invocation (2.9x on a 4-vCPU
# host with its CPUs free); the floor defaults to 1.5x.
# Override per-host with DUFP_CI_MIN_GRID_SPEEDUP.  On 1 CPU the pooled
# leg is skipped and only the counts gate.
DUFP_SMOKE=1 DUFP_QUIET=1 DUFP_OUT_DIR="${perf_dir}" \
    "${build_dir}/bench/grid_throughput"
min_grid="${DUFP_CI_MIN_GRID_SPEEDUP:-1.5}"
python3 - "${perf_dir}/BENCH_grid_throughput.json" "${min_grid}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
min_grid = float(sys.argv[2])
for key in ("schema_version", "bench", "smoke", "config", "uncached",
            "cached_cold", "cached_warm", "pooled", "speedup",
            "shared_cache", "per_job"):
    assert key in doc, f"missing key: {key}"
assert doc["schema_version"] == 2
for key in ("cached_cold", "cached_warm"):
    assert doc[key]["identical_bytes"] is True, f"{key}: byte drift"
assert doc["uncached"]["cells"]["shared_hits"] == 0, (
    "uncached leg must run with the shared cache off")
uncached = doc["uncached"]["cells"]["cold_builds"]
cold = doc["cached_cold"]["cells"]["cold_builds"]
warm = doc["cached_warm"]["cells"]["cold_builds"]
assert uncached > 0, "uncached leg built no cell edge: nothing to amortize"
assert cold <= 0.05 * uncached, (
    f"grid gate: cached cold leg built {cold} cell edges, more than 5% "
    f"of the uncached leg's {uncached}")
# A repeat of the identical grid must start fully warm.
assert warm == 0, f"warm repeat ran {warm} cold edge builds (want 0)"
print(f"grid gate: cold edge builds {uncached} -> {cold} -> {warm} "
      f"(uncached -> cached cold -> cached warm), bytes identical")
pooled = doc["pooled"]
if "skipped_reason" in pooled:
    assert pooled["skipped_reason"] == "host_cpus==1"
    print("grid gate: pooled leg skipped (host_cpus==1)")
else:
    assert pooled["identical_bytes"] is True, "pooled: byte drift"
    ratio = doc["speedup"]["pooled_vs_uncached"]
    assert ratio >= min_grid, (
        f"grid gate: pooled_vs_uncached {ratio:.2f}x < floor {min_grid}x")
    print(f"grid gate: pooled_vs_uncached {ratio:.2f}x >= {min_grid}x "
          f"(median of {doc['config']['pairs']} pairs)")
print(f"grid report: cached_cold_vs_uncached "
      f"{doc['speedup']['cached_cold_vs_uncached']:.2f}x (not gated)")
EOF

# Archive the gated numbers per commit so regressions can be bisected
# from history rather than re-measured.
history_dir="${repo_root}/out/bench_history"
mkdir -p "${history_dir}"
sha="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo nogit)"
cp "${perf_dir}/BENCH_sim_throughput.json" "${history_dir}/${sha}.json"
cp "${perf_dir}/BENCH_grid_throughput.json" \
    "${history_dir}/${sha}.grid_throughput.json"
echo "perf gate: archived ${history_dir}/${sha}.json and ${sha}.grid_throughput.json"

echo "== tier-1 under UBSan =="
"${repo_root}/tools/run_tier1_ubsan.sh" "$@"

echo "== tier-1 under ASan =="
"${repo_root}/tools/run_tier1_asan.sh" "$@"

echo "== tier-1 under TSan =="
"${repo_root}/tools/run_tier1_tsan.sh" "$@"

echo "== ci: all stages passed =="
