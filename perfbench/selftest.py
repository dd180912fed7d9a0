#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload once at reduced sizes, untraced and traced, and checks
that each run passes, that it prints every metric BENCHMARK.json names with
the same unit (and no other), and that the traced layers never add up to
more than the traced explore time. Then checks that the benchmark refuses
to run with a pinned environment variable set, or outside a checkout.
Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = ["python3", "perfbench/run.py"]


def fail(msg):
    sys.exit("selftest FAILED: " + msg)


def bench(cwd, *args, env=None):
    return subprocess.run(RUN + list(args), cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def last_json(stdout):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace, kind in [(0, "end_to_end"), (1, "per_layer")]:
            tag = f"{w['name']} --trace {trace}"
            p = bench(ROOT, "--workload", w["name"], "--seed", "7", "--seconds", "1",
                      "--trace", str(trace), "--small")
            out = last_json(p.stdout)
            if p.returncode != 0 or out is None or not out["correct"]:
                fail(f"{tag} exited {p.returncode}:\n{p.stdout}{p.stderr}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                fail(f"{tag}: metrics {sorted(got.items())} != {sorted(want.items())}")
            lines = p.stdout.splitlines()
            for name, unit in want.items():
                if not any(l.startswith(name + " ") and l.endswith(" " + unit) for l in lines):
                    fail(f"{tag}: no '{name} <value> {unit}' line")
            if trace == 1:
                m = out["metrics"]
                unattributed = m["core.unattributed_s"]["value"]
                if unattributed < -0.01 * m["core.traced_explore_s"]["value"]:
                    fail(f"{tag}: layers overlap, unattributed time {unattributed}")
            print(f"ok {tag}: {len(got)} metrics, {out['attempted']} jobs")

    p = bench(ROOT, "--workload", "cold-verify", "--seed", "1", "--seconds", "1",
              "--trace", "0", "--small", env=dict(os.environ, GPCC_FAST="1"))
    if p.returncode == 0 or last_json(p.stdout) is not None:
        fail("ran with GPCC_FAST set")
    print("ok refuses a pinned environment variable")

    os.makedirs(os.path.join(HERE, "_stores"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, "_stores"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_stores", "__pycache__"))
        p = bench(bare, "--workload", "cold-verify", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
        if p.returncode == 0 or last_json(p.stdout) is not None:
            fail("ran outside a checkout")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, "_stores"))
        except OSError:
            pass
    print("ok refuses to run outside a checkout")


if __name__ == "__main__":
    main()
