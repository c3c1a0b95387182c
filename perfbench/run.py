#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Benchmark run (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload splash --seed 1 --seconds 36 --trace 0

builds the Go program under perfbench/ into .bench_build/ (every Go cache
is kept there too) and runs it from the repository root with the given
arguments. Its last line of output is the JSON summary.

Steadiness check:

    python3 perfbench/run.py --steadiness [--runs 5] [--seconds 36]
                             [--workloads splash,syscall,service]

runs each workload in two sets of --runs runs with distinct seeds, prints
every end-to-end metric's median and quartiles per set and over both sets
("all"), its spread (the interquartile distance as a share of the median)
against a third of its bound, and whether the two sets' medians agree
within the bound.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    """Compile the benchmark; every cache the toolchain writes stays in BUILD."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def run_once(args, capture=False):
    """Run the built benchmark from the repository root."""
    cmd = [BINARY, "--build-dir", BUILD] + list(args)
    if capture:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    return subprocess.run(cmd, cwd=ROOT)


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(argv):
    runs, seconds, workloads = 5, None, None
    it = iter(argv)
    for a in it:
        if a == "--runs":
            runs = int(next(it))
        elif a == "--seconds":
            seconds = next(it)
        elif a == "--workloads":
            workloads = next(it).split(",")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = seconds or str(spec["run_seconds"])
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for wl in workloads:
        sets = []
        for s in range(2):
            values = {}
            for k in range(runs):
                seed = 1000 * (s + 1) + k
                proc = run_once(["--workload", wl, "--seed", str(seed), "--seconds", seconds, "--trace", "0"], capture=True)
                try:
                    res = json.loads(proc.stdout.strip().splitlines()[-1])
                except (IndexError, ValueError):
                    res = {}
                if proc.returncode != 0 or not res.get("correct"):
                    print(f"{wl} seed {seed}: run failed (exit {proc.returncode})")
                    ok = False
                    continue
                for name, m in res["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            sets.append(values)
        print(f"\n{wl}: two sets of {runs} runs, {seconds} s each")
        print(f"{'metric':28} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
        for name, bound in bounds.items():
            meds = []
            both = sets[0].get(name, []) + sets[1].get(name, [])
            for s, v in enumerate([sets[0].get(name, []), sets[1].get(name, []), both]):
                label = "all" if s == 2 else str(s)
                if len(v) < 2:
                    print(f"{name:28} {label:>3} too few runs")
                    ok = False
                    continue
                q1, q2, q3 = quartiles(v)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                flag = "" if spread <= bound / 3 else "  WIDE"
                print(f"{name:28} {label:>3} {q1:12.4f} {q2:12.4f} {q3:12.4f} {spread:8.4f} {bound / 3:8.4f}{flag}")
                if s < 2:
                    meds.append(q2)
            if len(meds) == 2:
                worse = max(meds[1] / meds[0], meds[0] / meds[1]) - 1 if min(meds) > 0 else float("inf")
                agree = worse <= bound
                ok = ok and agree
                print(f"{'':28} sets differ by {worse:.4f} of the median (bound {bound}): {'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if "--steadiness" in argv:
        argv.remove("--steadiness")
        return steadiness(argv)
    return run_once(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
