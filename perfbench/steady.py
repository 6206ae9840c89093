#!/usr/bin/env python3
"""Steadiness evidence for the benchmark.

Runs each workload several times, each time under another seed, and
prints, per workload and metric, the median, the quartiles and the
quartile spread as a share of the median, next to the metric's bound
from BENCHMARK.json; plus failures and 429s per workload.  It exits
non-zero if any run was incorrect or had a failed request.  With
--runs 1 it is the one command that prints every end-to-end metric,
one row per workload.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --out set1.json
    python3 perfbench/steady.py --compare set1.json set2.json

--compare checks that a second set of runs agrees with a first: every
metric's second median is within its bound of the first.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds):
    cmd = spec()["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    rejected = 0
    for line in lines:
        hit = re.search(r"(\d+) answered 429", line)
        if hit:
            rejected = int(hit.group(1))
    return res, rejected


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None, help="save the raw values as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    a = ap.parse_args()
    s = spec()
    bounds = {m["name"]: m.get("bound") for m in s["end_to_end"]}
    if a.compare:
        better = {m["name"]: m["better"] for m in s["end_to_end"]}
        return compare(a.compare, bounds, better)
    raw, bad = {}, 0
    for w in [w["name"] for w in s["workloads"]]:
        vals, att, fail, rej, correct = {}, 0, 0, 0, True
        for k in range(a.runs):
            res, r = one_run(w, a.first_seed + k, s["run_seconds"])
            correct = correct and res["correct"]
            att, fail, rej = att + res["attempted"], fail + res["failed"], rej + r
            for name, m in res["metrics"].items():
                vals.setdefault(name, []).append(m["value"])
            units = {name: m["unit"] for name, m in res["metrics"].items()}
        raw[w] = vals
        bad += not correct or fail > 0
        row = "  ".join(f"{n}={statistics.median(v):.6g}{units[n]}" for n, v in sorted(vals.items()))
        print(f"{w}: {row}  runs={a.runs} correct={correct} failed={fail}/{att} 429s={rej}")
        for n, v in sorted(vals.items()):
            med, q1, q3, sp = spread(v)
            b = bounds.get(n)
            flag = "" if b is None else ("  ok" if sp < b / 3 else ("  WIDE(>b/3)" if sp <= b else "  OVER BOUND"))
            print(f"    {n:28s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={sp:.4f}"
                  + ("" if b is None else f" bound={b}") + flag)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(raw, f, indent=1)
    return 1 if bad else 0


def compare(paths, bounds, better):
    with open(paths[0]) as f:
        first = json.load(f)
    with open(paths[1]) as f:
        second = json.load(f)
    bad = 0
    for w, vals in first.items():
        for n, v in sorted(vals.items()):
            b = bounds.get(n)
            m1, m2 = statistics.median(v), statistics.median(second[w][n])
            change = (m2 - m1) / m1 if m1 else 0.0
            worse = change if better.get(n) == "lower" else -change
            ok = b is None or worse <= b
            bad += not ok
            print(f"{w:17s} {n:28s} first={m1:.6g} second={m2:.6g} change={change:+.4f}"
                  + ("" if b is None else f" bound={b}") + ("" if ok else "  DISAGREE"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
