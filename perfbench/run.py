#!/usr/bin/env python3
"""The repository benchmark: cold and warm design-space exploration.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gpcc checkout. Builds perfbench/bench.exe with dune,
then measures rounds of the workload's explore jobs for S seconds. Each job
runs in a fresh process, on a store of the round's own (cold workloads) or
on the store other processes populated during set-up (warm-replay). The first
round checks each winner against the CPU reference; every round must pick
the same winners with the same funnel counts.

With --trace 0 the rounds are untraced and the end-to-end metrics are
reported; with --trace 1 untraced and traced rounds alternate and the
per-layer metrics are reported. Every metric is printed as
"name value unit", then the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit code is 0
only when every check passed. See perfbench/README.md for the metrics and
the layer each one belongs to.
"""

import argparse
import functools
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
STORES = os.path.join(HERE, "_stores")

# jobs are (registry workload, problem size); "small" sizes are for the
# self-test only
WORKLOADS = {
    "cold-verify": {
        "warm": False,
        "min_rounds": 2,
        "jobs": [("mm", 256), ("strsm", 256), ("conv", 256)],
        "small": [("mm", 64), ("strsm", 64), ("conv", 64)],
    },
    "cold-simulate": {
        "warm": False,
        "min_rounds": 3,
        "jobs": [("mm", 512), ("rd", 1048576), ("tp", 4096),
                 ("demosaic", 1024), ("imregionmax", 1024)],
        "small": [("mm", 128), ("rd", 65536), ("tp", 256),
                  ("demosaic", 128), ("imregionmax", 128)],
    },
    "warm-replay": {
        "warm": True,
        "min_rounds": 2,
        "jobs": [("fft", 1024), ("mm", 256)],
        "small": [("fft", 256), ("mm", 64)],
    },
}

# any of these would change the path being measured
PINNED_ENV = ["GPCC_SYMVERIFY", "GPCC_CHECK", "GPCC_BACKEND", "GPCC_INTERP",
              "GPCC_FAST", "GPCC_JOBS", "GPCC_CACHE_MAX_MB"]

# a run must end within this many seconds of the build finishing
DEADLINE_S = 165.0
SETUP_PROBES = 5
POPULATES = 3


class BenchError(Exception):
    pass


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
                       cwd=ROOT, env=env, capture_output=True, text=True,
                       timeout=880)
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stdout + p.stderr)


def spawn(job, store, deadline, *flags):
    """One fresh process running one job."""
    cmd = [EXE, *flags, "%s:%d" % job]
    env = dict(os.environ, GPCC_CACHE_DIR=store, GPCC_JOBS="1")
    t0 = time.time()
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd[1:]))
    wall = time.time() - t0
    if p.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {p.returncode}: {p.stderr.strip()}")
    r = json.loads(p.stdout.strip().splitlines()[-1])
    r["setup_s"] = r.pop("first_job_at") - t0
    r["wall_s"] = wall
    return r


# per-job values that combine into a round by maximum; the others add up
PEAKS = {"peak_rss_mb", "top_heap_mb"}


def combine(a, b, key=None):
    if isinstance(a, dict):
        return {k: combine(a[k], b[k], k) for k in a}
    if isinstance(a, list):
        return [combine(x, y) for x, y in zip(a, b)]
    return max(a, b) if key in PEAKS else a + b


def bench_round(jobs, store, deadline, *flags):
    """The jobs in order, one fresh process each, all on one store."""
    parts = [spawn(job, store, deadline, *flags) for job in jobs]
    r = functools.reduce(combine, [{k: v for k, v in p.items() if k not in ("job", "env")}
                                   for p in parts])
    if "job" in parts[0]:
        r["jobs"] = [p["job"] for p in parts]
        r["env"] = parts[0]["env"]
    r["traced"] = "--trace" in flags
    return r


def signature(r):
    """What tracing, warmth and repetition must not change."""
    return [(j["workload"], j["size"], j["winner"], j["configs"], j["distinct"],
             j["pruned"], j["measured"], len(j["failures"])) for j in r["jobs"]]


def winners(r):
    return [(j["workload"], j["size"], j["winner"]) for j in r["jobs"]]


def ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(r, untraced_s, traced_s, check_s):
    """Per-layer metrics of one traced round."""
    L = r["layers"]
    passes = L["passes"]
    m = {"ast.parse_s": (L["parse"]["s"], "s")}
    for p in passes:
        m[f"passes.{p}_s"] = (passes[p]["s"], "s")
    m["passes.runs"] = (sum(p["runs"] for p in passes.values()), "count")
    m.update({
        "analysis.verify_s": (L["verify_s"], "s"),
        "analysis.symbolic_proofs": (L["symbolic_proofs"], "count"),
        "analysis.concrete_fallbacks": (L["concrete_fallbacks"], "count"),
        "analysis.memo_hit_ratio": (ratio(L["memo_hits"], L["memo_misses"]), "ratio"),
        "analysis.cost_model_s": (L["cost_model"]["s"], "s"),
        "sim.probe_s": (L["probe"]["s"], "s"),
        "sim.probe_calls": (L["probe"]["calls"], "count"),
        "sim.run_s": (L["run"]["s"], "s"),
        "sim.run_calls": (L["run"]["calls"], "count"),
        "sim.coalescer_memo_hit_ratio": (ratio(*L["coalescer_memo"]), "ratio"),
        "sim.plane_hit_ratio": (ratio(*L["plane"]), "ratio"),
        "sim.closed_form_credits": (L["closed_form"], "count"),
        "sim.devmem_s": (L["devmem"]["s"], "s"),
    })
    for key in ["distinct", "pruned", "partial_runs", "measured"]:
        m[f"core.funnel_{key}"] = (sum(j[key] for j in r["jobs"]), "count")
    named = (sum(p["s"] for p in passes.values()) + L["verify_s"]
             + L["cost_model"]["s"] + L["probe"]["s"] + L["run"]["s"]
             + L["devmem"]["s"])
    explore = r["explore_s"]
    m.update({
        "core.traced_explore_s": (explore, "s"),
        "core.unattributed_s": (explore - named, "s"),
        "core.unattributed_share": ((explore - named) / explore, "ratio"),
        "util.store_hits": (r["store_hits"], "count"),
        "util.store_misses": (r["store_misses"], "count"),
        "util.store_lock_contention": (r["store_lock_contention"], "count"),
        "workloads.inputs_s": (L["inputs"]["s"], "s"),
        "workloads.check_s": (check_s, "s"),
        "gc.major_collections": (L["major_collections"], "count"),
        "gc.top_heap_mb": (L["top_heap_mb"], "MB"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
    })
    return m


def run(args, spec, jobs, work):
    problems = []
    start = time.monotonic()
    deadline = start + DEADLINE_S
    populates = []
    shared = os.path.join(work, "store")
    if spec["warm"]:
        # other processes fill the store, so in-process memos stay cold;
        # populating is timed several times and the rounds use the last store
        for _ in range(POPULATES):
            shutil.rmtree(shared, ignore_errors=True)
            populates.append(bench_round(jobs, shared, deadline))
    populate_s = statistics.median(p["wall_s"] for p in populates) if populates else 0.0
    for p in populates:
        if p["store_hits"]:
            problems.append(f"store hit while populating: {p['store_hits']}")

    # set-up alone, repeated: a single process start is too short to time
    setups = []
    for k in range(SETUP_PROBES):
        store = os.path.join(work, f"setup{k}")
        setups.append(bench_round(jobs, store, deadline, "--setup-only")["setup_s"])
        shutil.rmtree(store, ignore_errors=True)

    rounds = []
    measure_start = time.monotonic()
    while True:
        i = len(rounds)
        store = shared if spec["warm"] else os.path.join(work, f"round{i}")
        flags = (["--trace"] if args.trace == 1 and i % 2 == 1 else []) + (
            ["--check"] if i == 0 else [])
        r = bench_round(jobs, store, deadline, *flags)
        if not spec["warm"]:
            shutil.rmtree(store, ignore_errors=True)
        rounds.append(r)
        now = time.monotonic()
        per_round = (now - measure_start) / len(rounds)
        if len(rounds) >= spec["min_rounds"] and (
                now - measure_start >= args.seconds or now + per_round > deadline):
            break

    for i, r in enumerate(rounds):
        tag = f"round {i}{' (traced)' if r['traced'] else ''}"
        if not spec["warm"] and r["store_hits"]:
            problems.append(f"{tag}: {r['store_hits']} store hits on a cold workload")
        sim_calls = r["layers"]["probe"]["calls"] + r["layers"]["run"]["calls"]
        if spec["warm"] and sim_calls:
            problems.append(f"{tag}: {sim_calls} simulator calls on warm-replay")
        if signature(r) != signature(rounds[0]):
            problems.append(f"{tag}: winners or funnel counts differ from round 0: "
                            f"{signature(r)} vs {signature(rounds[0])}")
    for p in populates:
        if winners(p) != winners(rounds[0]):
            problems.append(f"warm winners {winners(rounds[0])} differ from cold "
                            f"winners {winners(p)}")

    checked = rounds[0]["jobs"]
    attempts = fails = 0
    speedups = []
    for j in checked:
        name = f"{j['workload']}@{j['size']}"
        attempts += j["configs"]
        fails += len(j["failures"])
        if j["winner"] is not None:
            attempts += 1
        if j["check"] is None:
            speedups.append(j["naive_ms"] / j["winner_ms"])
        else:
            fails += 1
            problems.append(f"reference check failed for {name}: {j['check']}")

    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    explore_s = statistics.median(r["explore_s"] for r in untraced)
    if args.trace == 0:
        metrics = {
            "setup_s": (populate_s + statistics.median(
                setups + [r["setup_s"] for r in rounds]), "s"),
            "explore_s": (explore_s, "s"),
            "ok_ratio": (1.0 - fails / attempts, "ratio"),
            "winner_speedup_geomean": (
                math.exp(statistics.fmean(map(math.log, speedups))) if speedups else 0.0, "x"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
        }
    else:
        # the traced round of median explore time, so its layers add up
        mid = sorted(traced, key=lambda r: r["explore_s"])[(len(traced) - 1) // 2]
        metrics = layer_metrics(mid, explore_s,
                                statistics.median(r["explore_s"] for r in traced),
                                rounds[0]["layers"]["check_s"])

    env = dict(rounds[0]["env"], seed=args.seed, workload=args.workload,
               round_explore_s=[[round(j["explore_s"], 3) for j in r["jobs"]]
                                for r in rounds],
               traced_rounds=len(traced),
               jobs_order=[f"{w}:{n}" for w, n in jobs])
    print("env " + json.dumps(env))
    for p in problems:
        print("FAILED " + p, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    n_jobs = len(jobs) * (len(rounds) + len(populates))
    return {
        "correct": not problems,
        "attempted": n_jobs,
        "failed": min(n_jobs, len(problems)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced problem sizes (self-test only)")
    args = ap.parse_args()

    pinned = [v for v in PINNED_ENV if v in os.environ]
    if pinned:
        sys.exit(f"refusing to run: {', '.join(pinned)} would change the measured path")
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit(f"refusing to run: {ROOT} is not a gpcc checkout")

    spec = WORKLOADS[args.workload]
    jobs = list(spec["small"] if args.small else spec["jobs"])
    random.Random(args.seed).shuffle(jobs)
    try:
        build()
        os.makedirs(STORES, exist_ok=True)
        work = tempfile.mkdtemp(prefix=args.workload + "-", dir=STORES)
        try:
            result = run(args, spec, jobs, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                os.rmdir(STORES)
            except OSError:
                pass  # another run is still using it
    except BenchError as e:
        sys.exit(f"benchmark error: {e}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
