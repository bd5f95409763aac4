#!/usr/bin/env bash
# Orchestrates a local multi-process sharded grid or fleet run (DESIGN.md
# § Sharded execution).  The same spec + JSONL contract works across
# machines: run `dufp_shard_worker run` per machine, move the shard
# files anywhere (scp, object store, ...), and `gather` on any host.
#
#   tools/shard_run.sh                          # reference grid, 2 shards
#   tools/shard_run.sh -n 4                     # 4 worker processes
#   tools/shard_run.sh -s my_spec.json -n 8
#   tools/shard_run.sh -n 4 -d 2                # dynamic, 2-job chunks
#   tools/shard_run.sh -n 3 -c                  # also run serial + diff
#
# Options:
#   -n SHARDS   worker process count                  (default 2)
#   -s SPEC     grid or fleet spec JSON (default: built-in reference grid)
#   -o OUTDIR   output directory                      (default out/shard)
#   -t THREADS  in-process threads per worker  (default 1; grid specs only)
#   -d CHUNK    dynamic chunk-claiming mode with this chunk size
#               (default: static round-robin)
#   -b BINARY   dufp_shard_worker path     (default build/cli/dufp_shard_worker)
#   -c          cross-check: also run the grid serially and byte-compare
#               the gathered outputs (proves determinism on this spec)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

shards=2
spec=""
out_dir="${repo_root}/out/shard"
threads=""
chunk=0
check=0
worker="${repo_root}/build/cli/dufp_shard_worker"

while getopts "n:s:o:t:d:b:c" opt; do
  case "${opt}" in
    n) shards="${OPTARG}" ;;
    s) spec="${OPTARG}" ;;
    o) out_dir="${OPTARG}" ;;
    t) threads="${OPTARG}" ;;
    d) chunk="${OPTARG}" ;;
    b) worker="${OPTARG}" ;;
    c) check=1 ;;
    *) exit 2 ;;
  esac
done

if [[ ! -x "${worker}" ]]; then
  echo "shard_run: ${worker} not built (cmake --build build -j)" >&2
  exit 1
fi

mkdir -p "${out_dir}"

# Interrupting an orchestrated run must not leave droppings that poison
# the next one: kill any workers still running, then sweep stale lease
# claims and torn `.jsonl.partial` streams.  Completed outputs (renamed
# `.jsonl`, `.done` markers, gathered CSVs) are left alone — and on a
# real salvage you would run `gather --partial` *before* rerunning.
pids=()
cleanup() {
  local status=$?
  for pid in "${pids[@]:-}"; do
    kill -9 "${pid}" 2> /dev/null || true
  done
  for pid in "${pids[@]:-}"; do
    wait "${pid}" 2> /dev/null || true
  done
  rm -f "${out_dir}"/*.jsonl.partial
  if [[ -d "${out_dir}/claims" ]]; then
    rm -f "${out_dir}/claims"/*.claim
  fi
  exit "${status}"
}
trap cleanup EXIT INT TERM

if [[ -z "${spec}" ]]; then
  spec="${out_dir}/spec.json"
  "${worker}" spec > "${spec}"
  echo "shard_run: wrote reference spec to ${spec}"
fi

extra_args=()
if [[ -n "${threads}" ]]; then
  extra_args+=(--threads "${threads}")
fi
if [[ "${chunk}" -gt 0 ]]; then
  claim_dir="${out_dir}/claims"
  rm -rf "${claim_dir}"
  mkdir -p "${claim_dir}"
  extra_args+=(--chunk-size "${chunk}" --claim-dir "${claim_dir}")
  echo "shard_run: dynamic mode, chunk size ${chunk}"
fi

# Launch every worker as its own process; each streams its JSONL
# independently, exactly as it would on separate machines.
files=()
for ((k = 0; k < shards; ++k)); do
  file="${out_dir}/shard${k}.jsonl"
  files+=("${file}")
  "${worker}" run --spec "${spec}" --out "${file}" \
    --shard "${k}" --shards "${shards}" \
    "${extra_args[@]}" &
  pids+=($!)
done

failed=0
for pid in "${pids[@]}"; do
  wait "${pid}" || failed=1
done
if [[ "${failed}" -ne 0 ]]; then
  echo "shard_run: a worker failed; not gathering" >&2
  exit 1
fi

"${worker}" gather --spec "${spec}" --out "${out_dir}/gathered" "${files[@]}"
echo "shard_run: gathered ${shards} shards -> ${out_dir}/gathered.*"

if [[ "${check}" -eq 1 ]]; then
  echo "shard_run: cross-checking against a serial in-process run"
  "${worker}" serial --spec "${spec}" --out "${out_dir}/serial"
  for produced in "${out_dir}/gathered".*; do
    ref="${out_dir}/serial${produced#"${out_dir}/gathered"}"
    [[ -f "${ref}" ]] || { echo "shard_run: missing ${ref}" >&2; exit 1; }
    cmp "${produced}" "${ref}" || {
      echo "shard_run: DETERMINISM VIOLATION: ${produced} != ${ref}" >&2
      exit 1
    }
  done
  echo "shard_run: gathered outputs byte-identical to serial"
fi
