#!/usr/bin/env python3
"""The perf ledger: end-to-end and per-layer timings of three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload fleet_1024 --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload all        # every workload in turn
    python3 perfbench/run.py --smoke               # the benchmark's own self-test

Every invocation first builds perfbench_ledger (perfbench/CMakeLists.txt)
under $CARGO_TARGET_DIR (default .bench_build), then starts one fresh
ledger process per repetition until the next one would end past
--seconds, so every repetition starts with an empty cell-edge cache, as a
user command does.

--trace 0 times the untraced workload from outside the process and prints
the end-to-end metrics.  --trace 1 alternates untraced and traced
processes and prints the per-layer metrics of the traced pass.  Timings
are medians over the repetitions.  Each workload's output ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_grid", "policy_storm", "fleet_1024")

# FNV-1a digests of each workload's deterministic outputs under the
# default seed (grids: evaluation CSV + merged Prometheus; fleet:
# allocation CSV + summary CSV + Prometheus).  Any other seed reports its
# digest and only requires every process of the invocation to agree.
# policy_storm runs one fixed storm whatever the seed (see kStormSeed in
# ledger.cpp), so its digest is checked on every seed.
DEFAULT_SEED = 1
SEED_FREE = ("policy_storm",)
PINNED = {
    (False, "paper_grid"): "fb47e3a3deead7d2",
    (False, "policy_storm"): "773ab1a965b9d615",
    (False, "fleet_1024"): "7cd83b8b44d5629a",
    (True, "paper_grid"): "2224bea77a1d186c",
    (True, "policy_storm"): "748681b538f1f7a9",
    (True, "fleet_1024"): "8fe68425f470a597",
}

MIN_REPS = 3                # untraced repetitions per invocation, at least
MAX_UNATTRIBUTED = 0.05     # traced wall the layer self-times may leave
CHILD_TIMEOUT_S = 120.0     # one ledger process; the full shapes take < 10 s

# Per-layer metrics printed in the final JSON line (BENCHMARK.json
# "per_layer").  The run.* rows sum each harness layer with its fleet
# counterpart, and run.output.s the finalize and wire layers, so every
# timed row measures work all three workloads do; the module-level rows
# are printed in the table above the JSON line.
RUN_SUMS = {
    "run.plan.s": ("harness.build_plan.s", "fleet.plan.s"),
    "run.prepare.s": ("harness.prepare_run.s", "fleet.prepare_node.s"),
    "run.prepare.calls": ("harness.prepare_run.calls", "fleet.prepare_node.calls"),
    "run.finish.s": ("harness.finish.s", "fleet.finish_node.s"),
    "run.output.s": ("harness.finalize.s", "fleet.finalize.s", "harness.encode.s",
                     "harness.wire_write.s", "harness.wire_read.s", "harness.decode.s"),
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures and builds the ledger (both no-ops when up to date);
    returns its path."""
    bdir = os.path.join(build_root(), "perfbench")
    out = sys.stderr
    subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=out, stderr=out, check=True)
    subprocess.run(["cmake", "--build", bdir, "--target", "perfbench_ledger",
                    "-j", str(os.cpu_count() or 1)], stdout=out, stderr=out, check=True)
    return os.path.join(bdir, "perfbench_ledger")


def source_identity():
    """The git commit when the checkout has one, else a digest of the
    sources the ledger was built from."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10)
        if sha.returncode == 0:
            return {"git_sha": sha.stdout.strip()}
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", os.path.relpath(HERE)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"git_sha": None, "source_sha1": h.hexdigest()}


class Ledger:
    def __init__(self, exe, work_dir):
        self.exe = exe
        self.work_dir = work_dir

    def run(self, workload, seed, trace, smoke):
        """One ledger process, timed from here on CLOCK_MONOTONIC."""
        cmd = [self.exe, "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--work-dir", self.work_dir]
        if smoke:
            cmd.append("--smoke")
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            t_end = time.monotonic()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            rec = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            rec = {"trace": trace, "jobs": 0, "failed": 0, "sim_socket_s": 0.0,
                   "error": "no result line (exit %d)" % proc.returncode}
        rec["exit"] = proc.returncode
        rec["wall_s"] = t_end - t_spawn
        rec["setup_s"] = rec.get("t_first_exec", t_spawn) - t_spawn
        rec["cpu_s"] = usage.ru_utime + usage.ru_stime
        rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        return rec


def run_problems(rec):
    """Why one process's run is not correct (empty = fine)."""
    problems = []
    if rec.get("error"):
        problems.append("error: " + rec["error"])
    elif rec["exit"] != 0:
        problems.append("exit code %d" % rec["exit"])
    layers = rec.get("layers")
    if rec.get("trace") == 1 and not rec.get("error"):
        if layers is None:
            problems.append("traced run without layers")
        else:
            problems += layers["checks"]["problems"]
            if layers["checks"]["mismatches"] and not layers["checks"]["problems"]:
                problems.append("reconciliation mismatch")
            share = layers["trace.unattributed_share"]
            if share > MAX_UNATTRIBUTED:
                problems.append("unattributed share %.4f > %.2f" % (share, MAX_UNATTRIBUTED))
    return problems


def judge(workload, seed, smoke, runs):
    """correct, attempted, failed and the problems found over all runs."""
    problems = []
    for r in runs:
        problems += ["%s trace=%s: %s" % (workload, r.get("trace"), p) for p in run_problems(r)]
    digests = {r.get("digest") for r in runs if not r.get("error")}
    pinned = PINNED[(smoke, workload)]
    must_pin = seed == DEFAULT_SEED or workload in SEED_FREE
    digest_ok = len(digests) <= 1 and not (must_pin and digests and digests != {pinned})
    if not digest_ok:
        problems.append("%s: digests %s (pinned %s for %s)"
                        % (workload, sorted(digests), pinned,
                           "this seed" if must_pin else "the default seed only"))
    attempted = sum(r.get("jobs", 0) for r in runs)
    # A digest mismatch fails every job.
    failed = sum(r.get("failed", 0) for r in runs) if digest_ok else attempted
    return not problems, max(attempted, 1), failed, problems


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(untraced):
    return {
        "wall_s": (median([r["wall_s"] for r in untraced]), "s"),
        "setup_s": (median([r["setup_s"] for r in untraced]), "s"),
        "cpu_s": (median([r["cpu_s"] for r in untraced]), "s"),
        "sim_socket_s_per_s": (median([r["sim_socket_s"] / r["wall_s"] for r in untraced]), "s/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in untraced]), "MB"),
    }


def unit_of(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ns") or name.endswith(".ns_per_tick"):
        return "ns"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    return "count"


def per_layer(untraced, traced):
    """Medians of every traced-layer metric, the run.* sums and the
    tracing overhead (traced wall / untraced CPU seconds - 1)."""
    names = [k for k in traced[0]["layers"] if k != "checks"]
    metrics = {k: median([r["layers"][k] for r in traced]) for k in names}
    for name, parts in RUN_SUMS.items():
        metrics[name] = median([sum(r["layers"][p] for p in parts) for r in traced])
    metrics["trace.overhead_share"] = (
        metrics["trace.wall_s"] / median([r["cpu_s"] for r in untraced]) - 1.0)
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def benchmark_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def print_table(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print("  %-36s %18.6f %s" % (name, value, unit))


def measure(ledger, workload, seed, seconds, trace):
    """Repetitions (an untraced process, plus a traced one when tracing)
    until the next one would end past `seconds`."""
    start = time.monotonic()
    untraced, traced = [], []
    while True:
        untraced.append(ledger.run(workload, seed, 0, False))
        if trace:
            traced.append(ledger.run(workload, seed, 1, False))
        elapsed = time.monotonic() - start
        per_rep = elapsed / len(untraced)
        if (trace or len(untraced) >= MIN_REPS) and elapsed + per_rep > seconds:
            return untraced, traced


def measure_and_report(ledger, workload, seed, seconds, trace):
    untraced, traced = measure(ledger, workload, seed, seconds, trace)
    runs = untraced + traced
    correct, attempted, failed, problems = judge(workload, seed, False, runs)
    for p in problems:
        log("perfbench: " + p)

    e2e = end_to_end(untraced)
    layers = per_layer(untraced, traced) if traced and correct else {}
    host = dict(runs[0].get("host", {}), python=platform.python_version(), **source_identity())
    print("perfbench %s seed=%d trace=%d: %d untraced + %d traced process(es)"
          % (workload, seed, trace, len(untraced), len(traced)))
    print("host: " + json.dumps(host, sort_keys=True))
    print("digest: %s" % ", ".join(sorted({str(r.get("digest")) for r in runs})))
    e2e_table = dict(e2e, failed_share=(failed / attempted, "ratio"))
    print_table("end to end (median of %d):" % len(untraced), e2e_table)
    if layers:
        print_table("per layer (median of %d traced):" % len(traced), layers)

    spec = benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    source = layers if trace else e2e
    # A failed traced pass has no layers to report; its zeros go out with
    # correct=false.
    metrics = {m["name"]: {"value": source[m["name"]][0] if source else 0.0,
                           "unit": m["unit"]} for m in wanted}

    record = {"workload": workload, "seed": seed, "trace": trace,
              "host": host, "correct": correct, "problems": problems,
              "attempted": attempted, "failed": failed,
              "end_to_end": {k: v[0] for k, v in e2e_table.items()},
              "per_layer": {k: v[0] for k, v in layers.items()},
              "runs": [{k: v for k, v in r.items() if k not in ("layers", "host")} for r in runs]}
    results = os.path.join(build_root(), "perfbench-results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("record: " + path)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


def smoke_run(ledger):
    """Tiny shapes of every workload through both passes: digests pinned
    and traced == untraced, reconciliation clean."""
    ok = True
    for workload in WORKLOADS:
        runs = [ledger.run(workload, DEFAULT_SEED, t, True) for t in (0, 1)]
        correct, _, _, problems = judge(workload, DEFAULT_SEED, True, runs)
        for p in problems:
            log("perfbench smoke: " + p)
        share = runs[1].get("layers", {}).get("trace.unattributed_share", float("nan"))
        print("smoke %-12s %s  digest %s  unattributed %.4f"
              % (workload, "ok  " if correct else "FAIL", runs[0].get("digest"), share))
        ok = ok and correct
    print("smoke: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test: tiny shapes of every workload, both passes")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    work_dir = os.path.join(build_root(), "perfbench-work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    try:
        ledger = Ledger(exe, work_dir)
        if args.smoke:
            return smoke_run(ledger)
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            measure_and_report(ledger, workload, args.seed, args.seconds, args.trace)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
