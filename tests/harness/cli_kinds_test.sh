#!/usr/bin/env bash
# One set of CLI verbs for both spec kinds.  The reference grid and the
# reference fleet each go through `spec`, `serial`, a 2-shard static
# `run` + `gather`, `supervise --gather`, a one-shard `gather --partial`
# (exit 6 and a retry manifest) and `run --resume` + a second gather;
# every output file must be byte-identical to `serial`'s.  Then the
# strict rejections: exit 2 for a flag the verb does not take, an integer
# that is not the whole token or is out of range, and --threads on a
# fleet; exit 3 for a spec key no reader consumes, a document that is
# not JSON and a spec without a key; exit 5 for a spec that cannot be
# opened.
#
#   cli_kinds_test.sh DUFP_SHARD_WORKER WORK_DIR
set -euo pipefail

worker="$1"
dir="$2"
rm -rf "${dir}"
mkdir -p "${dir}"
export DUFP_QUIET=1

fail() {
  echo "cli_kinds_test: $*" >&2
  exit 1
}

# expect_exit CODE CMD...: CMD must exit with CODE; its stderr is kept in
# ${dir}/stderr.txt.
expect_exit() {
  local want="$1"
  shift
  local status=0
  "$@" > /dev/null 2> "${dir}/stderr.txt" || status=$?
  if [[ "${status}" -ne "${want}" ]]; then
    cat "${dir}/stderr.txt" >&2
    fail "exit ${status}, want ${want}: $*"
  fi
}

# same_outputs A B: prefixes A and B carry the same output files (retry
# manifests aside), byte for byte.
same_outputs() {
  local a="$1" b="$2" n=0 m=0 f
  for f in "${a}".*; do
    [[ "${f}" == *.retry.json ]] && continue
    cmp "${f}" "${b}${f#"${a}"}" || fail "${f} differs from ${b}${f#"${a}"}"
    n=$((n + 1))
  done
  for f in "${b}".*; do
    [[ "${f}" == *.retry.json ]] || m=$((m + 1))
  done
  [[ "${n}" -gt 0 && "${n}" -eq "${m}" ]] ||
    fail "${a}.* has ${n} output files, ${b}.* has ${m}"
}

for kind in grid fleet; do
  k="${dir}/${kind}"
  "${worker}" spec --reference "${kind}" > "${k}.json" 2> /dev/null
  grep -q "\"format\":\"dufp-${kind}-spec\"" "${k}.json" ||
    fail "spec --reference ${kind} printed no ${kind} spec"
  "${worker}" serial --spec "${k}.json" --out "${k}.serial" 2> /dev/null

  for shard in 0 1; do
    "${worker}" run --spec "${k}.json" --out "${k}.w${shard}.jsonl" \
        --shard "${shard}" --shards 2 2> /dev/null
  done
  "${worker}" gather --spec "${k}.json" --out "${k}.gathered" \
      "${k}.w0.jsonl" "${k}.w1.jsonl" 2> /dev/null
  same_outputs "${k}.serial" "${k}.gathered"

  mkdir -p "${k}.sup"
  "${worker}" supervise --spec "${k}.json" --out-dir "${k}.sup" \
      --workers 2 --gather "${k}.supervised" > /dev/null 2>&1
  same_outputs "${k}.serial" "${k}.supervised"

  expect_exit 6 "${worker}" gather --spec "${k}.json" --out "${k}.partial" \
      --partial "${k}.w0.jsonl"
  [[ -f "${k}.partial.retry.json" ]] || fail "${kind}: no retry manifest"
  "${worker}" run --resume "${k}.partial.retry.json" \
      --out "${k}.rescue.jsonl" 2> /dev/null
  "${worker}" gather --spec "${k}.json" --out "${k}.resumed" \
      "${k}.w0.jsonl" "${k}.rescue.jsonl" 2> /dev/null
  same_outputs "${k}.serial" "${k}.resumed"
done

grid="${dir}/grid.json"
fleet="${dir}/fleet.json"
out="${dir}/rejected"
expect_exit 2 "${worker}" run --spec "${grid}" --out "${out}.jsonl" \
    --shrads 2 --shard 0
grep -q -- "--shrads" "${dir}/stderr.txt" || fail "the error must name --shrads"
expect_exit 2 "${worker}" run --spec "${grid}" --out "${out}.jsonl" \
    --shards 2x
expect_exit 2 "${worker}" run --spec "${grid}" --out "${out}.jsonl" \
    --chunk-size 0x3 --claim-dir "${dir}"
expect_exit 2 "${worker}" run --spec "${grid}" --out "${out}.jsonl" \
    --chunk-size -4 --claim-dir "${dir}"
grep -q -- "--chunk-size" "${dir}/stderr.txt" ||
  fail "the error must name --chunk-size"
expect_exit 2 "${worker}" serial --spec "${fleet}" --out "${out}" --threads 2
grep -q -- "--threads" "${dir}/stderr.txt" || fail "the error must name --threads"
[[ -z "$(ls "${out}"* 2> /dev/null)" ]] || fail "a rejected command wrote output"

sed 's/"traffic":"diurnal"/&,"traffic_profile":"flat"/' "${fleet}" \
    > "${dir}/fleet_typo.json"
expect_exit 3 "${worker}" serial --spec "${dir}/fleet_typo.json" --out "${out}"
grep -q '"traffic_profile"' "${dir}/stderr.txt" ||
  fail "the error must name the unknown key"
sed 's/"telemetry":false/&,"threads":4/' "${grid}" > "${dir}/grid_typo.json"
expect_exit 3 "${worker}" serial --spec "${dir}/grid_typo.json" --out "${out}"
grep -q '"threads"' "${dir}/stderr.txt" || fail "the error must name the unknown key"

# A manifest cut short is not JSON, and a spec without "seed" lacks a key:
# both are bad documents (exit 3), not internal errors.
head -c 200 "${dir}/grid.partial.retry.json" > "${dir}/cut.retry.json"
expect_exit 3 "${worker}" run --resume "${dir}/cut.retry.json" \
    --out "${out}.jsonl"
grep -q "unexpected end of input" "${dir}/stderr.txt" ||
  fail "the error must say the manifest ends early"
sed 's/"seed":[0-9]*,//' "${grid}" > "${dir}/grid_no_seed.json"
if grep -q '"seed"' "${dir}/grid_no_seed.json"; then
  fail "the seed key is still there"
fi
expect_exit 3 "${worker}" serial --spec "${dir}/grid_no_seed.json" --out "${out}"
grep -q "seed" "${dir}/stderr.txt" || fail "the error must name the missing key"
expect_exit 5 "${worker}" serial --spec "${dir}/no_such_spec.json" --out "${out}"
[[ -z "$(ls "${out}"* 2> /dev/null)" ]] || fail "a rejected command wrote output"
