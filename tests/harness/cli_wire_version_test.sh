#!/usr/bin/env bash
# The CLI side of the wire version check: `gather` refuses a shard file
# whose header still says version 1 as a spec/format mismatch (exit 3),
# and gathers the same file with its v2 header intact (exit 0).
#
#   cli_wire_version_test.sh DUFP_SHARD_WORKER WORK_DIR
set -euo pipefail

worker="$1"
dir="$2"
rm -rf "${dir}"
mkdir -p "${dir}"

cat > "${dir}/spec.json" <<'SPEC'
{"format":"dufp-grid-spec","version":1,"name":"cli-wire-version","apps":["EP"],"modes":["DUF"],"tolerances":[0.1],"repetitions":1,"seed":1,"sockets":1,"fault_rate":0,"fault_seed":0,"telemetry":true}
SPEC
DUFP_QUIET=1 "${worker}" run --spec "${dir}/spec.json" \
    --out "${dir}/v2.jsonl" 2> /dev/null
"${worker}" gather --spec "${dir}/spec.json" --out "${dir}/v2" \
    "${dir}/v2.jsonl" 2> /dev/null

grep -q '"version":2' "${dir}/v2.jsonl"
sed '1s/"version":2/"version":1/' "${dir}/v2.jsonl" > "${dir}/v1.jsonl"
status=0
"${worker}" gather --spec "${dir}/spec.json" --out "${dir}/v1" \
    "${dir}/v1.jsonl" 2> "${dir}/v1.err" || status=$?
if [[ "${status}" -ne 3 ]]; then
  echo "gather of a version-1 file exited ${status}, want 3" >&2
  cat "${dir}/v1.err" >&2
  exit 1
fi
grep -q "version 1" "${dir}/v1.err"
