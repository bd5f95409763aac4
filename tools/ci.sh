#!/usr/bin/env bash
# The full pre-merge gate, in order:
#   1. plain tier-1 (Release, -O2 -DNDEBUG — the configuration the
#      tracked benchmark numbers come from), plus the larger budget of
#      the generated stepped-vs-leapt identity test;
#   2. an x86-64-v3 (FMA) Release build with -DDUFP_WERROR=ON: the perf
#      label and the generated twin, so the -ffp-contract=off contract
#      and a warning-free tree both hold;
#   3. smokes of the sim_throughput and shard_scaling benches;
#   4. one run of the paper driver (every section), every example and
#      perf_microbench at the smallest shape (policies are named by
#      strings, so a misspelt name fails only at run time), and the
#      driver's exit 2 for an unknown section;
#   5. the chaos-recovery and supervise drills (kill -> salvage ->
#      resume, bytes identical to serial);
#   6. tournament and fleet_scaling smokes (the fleet CLI loop is the
#      tier-1 ShardWorkerCliTest.GridAndFleetShareTheVerbs);
#   7. the perf-ledger smoke (perfbench/run.py --smoke: pinned digests
#      of all three workloads through both passes), then the ledger's
#      full-size untraced digests against values pinned here: paper_grid
#      and fleet_1024 at seeds 2 and 3, and policy_storm (its one fixed
#      storm, through two shard files and a gather);
#   8. the sim_throughput perf gate and the grid_throughput gate;
#   9. the symbol census (tools/symbol_census.py): no strong src/
#      function that only tests reach, beyond its allowlist;
#  10. tier-1 under UBSan, ASan and TSan.
#
#   tools/ci.sh            # everything
#   tools/ci.sh -j8        # extra args forwarded to every ctest
#
# Each configuration uses its own build directory (build-ci, build-v3,
# build-census, build-ubsan, build-asan, build-tsan; the ledger builds
# under build-ci/perfbench) so they never poison each other's caches.
# Fails on the first stage that fails.
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
# Tier-1 runs 72 generated configurations leap-on against leap-off; the
# DISABLED_ twin draws ten times as many past them (~20 s).
"${build_dir}/tests/perf_leap_identity_test" --gtest_also_run_disabled_tests \
    --gtest_filter='GeneratedLeapIdentityTest.DISABLED_*'

echo "== x86-64-v3 build with -Werror: the floating-point contract =="
# A target with FMA, where byte identity holds only because
# src/common/CMakeLists.txt sets -ffp-contract=off (GCC's C++ default
# fuses a*b + c).  Every warning is an error here.  The hot-path goldens
# (label perf) and the generated stepped-vs-leapt twin must still pass;
# the host must run x86-64-v3 code (AVX2, FMA).
v3_dir="${repo_root}/build-v3"
cmake -B "${v3_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release \
    -DDUFP_WERROR=ON -DCMAKE_CXX_FLAGS=-march=x86-64-v3
cmake --build "${v3_dir}" -j"$(nproc)"
ctest --test-dir "${v3_dir}" -L perf --output-on-failure "$@"
"${v3_dir}/tests/perf_leap_identity_test" --gtest_also_run_disabled_tests \
    --gtest_filter='GeneratedLeapIdentityTest.DISABLED_*'

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

echo "== paper driver, examples and microbench smoke =="
# Each binary runs once at the smallest shape (1 repetition, 1 socket)
# and must exit 0.  They name their policies by registry strings, which
# no compiler checks, so this is where a misspelt name would fail.  The
# paper driver runs every section; its bytes at this shape are the
# tier-1 PaperDriverTest golden.
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
run_smoke "${build_dir}/bench/paper"
status=0
"${build_dir}/bench/paper" no_such_section > /dev/null 2>&1 || status=$?
[[ "${status}" -eq 2 ]] || {
  echo "bins smoke: paper with an unknown section exited ${status}, want 2" >&2
  exit 1
}
for e in quickstart capping_study custom_workload phase_explorer \
    trace_replay_demo budget_balancer_demo; do
  run_smoke "${build_dir}/examples/${e}"
done
run_smoke "${build_dir}/bench/perf_microbench" --benchmark_min_time=0.001
echo "bins smoke: paper (15 sections; an unknown one exits 2), 6 examples" \
     "and perf_microbench exited 0"

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
# run.py pins seed 1 only.  The governor's exact integer window sums left
# every byte where the double running sums had it, and these digests,
# recorded before that change, keep that checked on two more seeds.  The
# smoke runs the storm only at its tiny shape; the full-size storm is the
# one run that writes, gathers and merges ~2 MB of telemetry records, so
# its digest (run.py's pin) holds the shard codec and the merged
# exposition here.
ledger="${build_dir}/perfbench/perfbench/perfbench_ledger"
seeds_dir="${build_dir}/ledger-seeds"
rm -rf "${seeds_dir}"
mkdir -p "${seeds_dir}"
while read -r workload seed want; do
  got="$("${ledger}" --workload "${workload}" --seed "${seed}" --trace 0 \
      --work-dir "${seeds_dir}" < /dev/null 2> /dev/null | tail -n 1 |
    python3 -c 'import json, sys; print(json.load(sys.stdin)["digest"])')"
  [[ "${got}" == "${want}" ]] || {
    echo "ledger seeds: ${workload} seed ${seed}: digest ${got}," \
         "want ${want}" >&2
    exit 1
  }
done <<'PINNED'
paper_grid 2 c634e6cb82199d03
paper_grid 3 73bde59cff4c74a3
fleet_1024 2 58264678543531c5
fleet_1024 3 59c830c5b5089209
policy_storm 1 773ab1a965b9d615
PINNED
echo "ledger seeds: paper_grid and fleet_1024 digests hold at seeds 2 and 3," \
     "policy_storm at full size"

echo "== perf gate (sim_throughput, full run) =="
# A real (non-smoke) run of the tracked throughput bench, gated on the
# serial speedup over the pre-optimisation seed engine.  The tracked
# number is ~50x (BENCH_sim_throughput.json; this gate has read 41-50x,
# and a single ~3 ms run swings widely).  The default floor of 9.0x sits
# far below it on purpose: it exists to catch a lost fast path (the
# pre-leaping engine measured ~2.2x and would fail this gate), not to
# track the number, so shared CI hosts don't flake.
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

echo "== grid_throughput gate (pooled runs, cell-edge and flip counts) =="
# The tournament-shaped smoke grid (95 jobs) two ways: uncached (the
# sequential leg, a run_once loop) and pooled (2 threads), the pooled
# leg byte-compared against uncached through the finalized evaluation
# CSV — the bench exits non-zero on any drift, so this is also a
# grid-scale identity gate.
# Counts are deterministic, so they gate exactly.  Cold cell-edge builds
# must stay a few probes each (probes <= 5 x cold builds; a closed-form
# build takes about four, a seeded bisection took ~26), so they never
# dominate a run again.  Flip ticks must mostly stay inside the
# governor's calm-run kernel: the ticks that leave it to fill a socket
# state's entry stay at most a quarter of all flip ticks, so the in-kernel
# path cannot quietly decay into the fill path.  And every run builds its
# own edges, so the pooled leg's per-job cold builds and its flip counts
# equal the sequential leg's whichever worker ran which job.
# Time gates on pooled_vs_uncached, the median of 5 alternating
# uncached/pooled pairs inside the one invocation; the floor defaults to
# 1.5x.  The ratio measures the pool's second CPU: 1.8-2.1x on a 4-vCPU
# host when the pool gets two CPUs, 0.99-1.01x when it gets one (a plain
# two-thread spin loop reads the same on such a host).  Override per-host
# with DUFP_CI_MIN_GRID_SPEEDUP.  On 1 CPU the pooled leg is skipped and
# only the probe count gates.
DUFP_SMOKE=1 DUFP_QUIET=1 DUFP_OUT_DIR="${perf_dir}" \
    "${build_dir}/bench/grid_throughput"
min_grid="${DUFP_CI_MIN_GRID_SPEEDUP:-1.5}"
python3 - "${perf_dir}/BENCH_grid_throughput.json" "${min_grid}" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
min_grid = float(sys.argv[2])
for key in ("schema_version", "bench", "smoke", "config", "uncached",
            "pooled", "speedup", "per_job"):
    assert key in doc, f"missing key: {key}"
assert doc["schema_version"] == 4
builds = doc["uncached"]["cells"]["cold_builds"]
probes = doc["uncached"]["cells"]["probes"]
assert builds > 0, "sequential leg built no cell edge: nothing to gate"
assert probes <= 5 * builds, (
    f"grid gate: {probes} probes over {builds} cold edge builds, more "
    f"than 5 per build")
print(f"grid gate: {builds} cold edge builds, {probes} probes "
      f"({probes / builds:.2f} per build <= 5)")
flips = doc["uncached"]["flips"]["flip_ticks"]
fills = doc["uncached"]["flips"]["flip_fills"]
assert flips > 0, "sequential leg took no flip tick: nothing to gate"
assert 4 * fills <= flips, (
    f"grid gate: {fills} of {flips} flip ticks left the calm-run kernel "
    f"to fill an entry, more than a quarter")
print(f"grid gate: {fills} of {flips} flip ticks filled an entry "
      f"({fills / flips:.1%} <= 25%)")
pooled = doc["pooled"]
if "skipped_reason" in pooled:
    assert pooled["skipped_reason"] == "host_cpus==1"
    print("grid gate: pooled leg skipped (host_cpus==1)")
else:
    assert pooled["identical_bytes"] is True, "pooled: byte drift"
    # Equal per job, so equal in sum.
    assert doc["per_job"]["pooled"] == doc["per_job"]["uncached"], (
        f"grid gate: the pooled leg built {pooled['cells']['cold_builds']} "
        f"cell edges, the sequential leg {builds}, or they differ per job")
    assert pooled["flips"] == doc["uncached"]["flips"], (
        f"grid gate: pooled flips {pooled['flips']} != sequential "
        f"{doc['uncached']['flips']}")
    print(f"grid gate: pooled cold edge builds "
          f"{pooled['cells']['cold_builds']} = sequential, per job, flip "
          f"counts = sequential, bytes identical")
    ratio = doc["speedup"]["pooled_vs_uncached"]
    assert ratio >= min_grid, (
        f"grid gate: pooled_vs_uncached {ratio:.2f}x < floor {min_grid}x")
    print(f"grid gate: pooled_vs_uncached {ratio:.2f}x >= {min_grid}x "
          f"(median of {doc['config']['pairs']} pairs)")
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

echo "== symbol census =="
# Builds the non-test targets at -O0 with one section per function,
# links with --gc-sections, and fails on any strong src/ symbol that no
# bench, example, CLI or the perf ledger reaches unless
# tools/symbol_census_allowlist.txt names it with a reason, and on any
# allowlist entry that is now reached or gone.
"${repo_root}/tools/symbol_census.py" "${repo_root}/build-census"

echo "== tier-1 under UBSan =="
"${repo_root}/tools/run_tier1_ubsan.sh" "$@"

echo "== tier-1 under ASan =="
"${repo_root}/tools/run_tier1_asan.sh" "$@"

echo "== tier-1 under TSan =="
"${repo_root}/tools/run_tier1_tsan.sh" "$@"

echo "== ci: all stages passed =="
