#!/usr/bin/env bash
# The full pre-merge gate, in order:
#   1. plain tier-1 (Release, -O2 -DNDEBUG — the configuration the
#      ledger builds), plus the larger budget of the generated
#      stepped-vs-leapt identity test;
#   2. an x86-64-v3 (FMA) Release build with -DDUFP_WERROR=ON: the perf
#      label and the generated twin, so the -ffp-contract=off contract
#      and a warning-free tree both hold;
#   3. one run of the paper driver (every section), every example and
#      perf_microbench at the smallest shape (policies are named by
#      strings, so a misspelt name fails only at run time), and the
#      driver's exit 2 for an unknown section;
#   4. the chaos-recovery and supervise drills (kill -> salvage ->
#      resume, bytes identical to serial);
#   5. tournament and fleet_scaling smokes (the fleet CLI loop is the
#      tier-1 ShardWorkerCliTest.GridAndFleetShareTheVerbs);
#   6. the perf-ledger smoke (perfbench/run.py --smoke: pinned digests
#      of all three workloads through both passes), then the ledger's
#      full-size untraced digests against values pinned here: paper_grid
#      and fleet_1024 at seeds 2 and 3, and policy_storm (its one fixed
#      storm, through two shard files and a gather);
#   7. the ledger gate: one traced paper_grid record (run.py --trace 1)
#      held to the serial floor, the stretch share, the probes per cold
#      edge build, the pooled speedup and the tracing overhead, then
#      archived under out/bench_history;
#   8. the symbol census (tools/symbol_census.py): no strong src/
#      function that only tests reach, beyond its allowlist;
#   9. tier-1 under UBSan, ASan and TSan.
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

echo "== paper driver, examples and microbench smoke =="
# Each binary runs once at the smallest shape (1 repetition, 1 socket)
# and must exit 0.  They name their policies by registry strings, which
# no compiler checks, so this is where a misspelt name would fail.  The
# paper driver runs every section; its bytes at this shape are the
# tier-1 PaperDriverTest golden.
smoke_dir="${build_dir}/smoke-out"
rm -rf "${smoke_dir}"
bins_dir="${smoke_dir}/bins"
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
# Every registered fleet allocator ranked on the reference fleet (the
# spec `dufp_shard_worker spec --reference fleet` prints; that serial and
# supervised runs of it give the same bytes for every allocator is the
# tier-1 FleetShardTest), then the scorecard CSV schema-checked: one row
# per registered allocator, today's columns, values in range.
"${shard_worker}" spec --reference fleet > "${smoke_dir}/fleet.json" \
    2> /dev/null
DUFP_OUT_DIR="${smoke_dir}" "${build_dir}/bench/fleet_scaling" \
    "${smoke_dir}/fleet.json" > /dev/null
python3 - "${smoke_dir}/fleet_scaling.csv" <<'EOF'
import csv, sys
with open(sys.argv[1]) as f:
    reader = csv.DictReader(f)
    rows = list(reader)
allocators = ("static-equal", "proportional", "fastcap")
assert len(rows) == len(allocators), f"expected {len(allocators)} rows"
expected_cols = ["allocator", "traffic", "racks", "nodes_per_rack",
                 "sockets_per_node", "epochs", "budget_w", "total_energy_j",
                 "pkg_energy_j", "dram_energy_j", "violation_rate",
                 "jain_fairness", "mean_speed", "faults_injected",
                 "degradations"]
assert reader.fieldnames == expected_cols, \
    f"columns {reader.fieldnames}, want {expected_cols}"
assert {r["allocator"] for r in rows} == set(allocators)
for r in rows:
    assert float(r["total_energy_j"]) > 0, r
    assert 0.0 <= float(r["violation_rate"]) <= 1.0, r
    assert 0.0 < float(r["jain_fairness"]) <= 1.0, r
print(f"fleet_scaling smoke: {len(rows)} allocators ranked, CSV OK")
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

echo "== ledger gate (traced paper_grid) =="
# Every timing CI holds comes from one record: the ledger's paper_grid,
# untraced and traced processes alternating for 12 s (6 s fits only one
# or two traced ones, too few for a median).  "Traced ticks" are the
# stretch ticks plus one tick per exact-step and control-step call; the
# ledger reconciles that sum against the engine's own count, so a record
# whose sum is off is not `correct`.  The record must show:
#   - `correct`, and at least 3 traced processes;
#   - the serial floor: traced ticks per second of the traced pass, which
#     runs every job on one thread, >= 2,858,463, that is 9.0 x the
#     317,607 ticks/s the engine ran before its fast paths.  It exists to
#     catch a lost engine path, not to track the number (24-30M on a
#     4-vCPU host);
#   - stretch ticks >= 99% of traced ticks;
#   - cold cell-edge builds that stay a few probes each (probes <= 5 x
#     cold builds; a closed-form build takes about four, a seeded
#     bisection took ~26);
#   - pooled speedup >= 1.5: the traced pass's wall over the untraced
#     processes' wall (a 2-thread pool).  It measures the pool's second
#     CPU, so on 1 CPU it is skipped;
#   - tracing overhead (trace.overhead_share) <= 0.10, so the traced
#     pass's own cost cannot carry the speedup.
# The record is archived per commit so regressions can be bisected from
# history rather than re-measured.
gate_out="${build_dir}/ledger-gate.txt"
(cd "${repo_root}" &&
  CARGO_TARGET_DIR="${build_dir}/perfbench" python3 perfbench/run.py \
      --workload paper_grid --trace 1 --seconds 12) > "${gate_out}"
record="$(sed -n 's/^record: //p' "${gate_out}")"
[[ -f "${record}" ]] || {
  echo "ledger gate: run.py printed no record" >&2
  exit 1
}
python3 - "${record}" "$(nproc)" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    rec = json.load(f)
cpus = int(sys.argv[2])
if not rec["correct"]:
    sys.exit(f"ledger gate: record not correct: {rec['problems']}")
failed = []
def check(ok, what):
    print(f"ledger gate: {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failed.append(what)
traced = sum(1 for r in rec["runs"] if r["trace"] == 1)
check(traced >= 3, f"{traced} traced processes (>= 3)")
m = rec["per_layer"]
stretch = m["sim.tier2_stretch.ticks"]
ticks = stretch + m["sim.exact_step.calls"] + m["core.control_step.calls"]
floor = 9.0 * 317607
rate = ticks / m["trace.wall_s"]
check(rate >= floor, f"{rate:,.0f} traced ticks/s (>= {floor:,.0f})")
check(stretch >= 0.99 * ticks,
      f"{stretch:,.0f} of {ticks:,.0f} traced ticks in stretches (>= 99%)")
builds, probes = m["rapl.cold_builds"], m["rapl.probes"]
check(0 < builds and probes <= 5 * builds,
      f"{probes:,.0f} probes over {builds:,.0f} cold edge builds (<= 5 each)")
overhead = m["trace.overhead_share"]
check(overhead <= 0.10, f"tracing overhead {overhead:.3f} (<= 0.10)")
if cpus >= 2:
    speedup = m["trace.wall_s"] / rec["end_to_end"]["wall_s"]
    check(speedup >= 1.5, f"pooled speedup {speedup:.2f}x (>= 1.5x)")
else:
    print("ledger gate: skip pooled speedup (1 CPU)")
if failed:
    sys.exit(f"ledger gate: {len(failed)} check(s) failed")
EOF
history_dir="${repo_root}/out/bench_history"
mkdir -p "${history_dir}"
sha="$(git -C "${repo_root}" rev-parse --short HEAD 2>/dev/null || echo nogit)"
cp "${record}" "${history_dir}/${sha}.json"
echo "ledger gate: archived ${history_dir}/${sha}.json"

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
