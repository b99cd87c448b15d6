#!/usr/bin/env python3
"""Collect omnibench results and compare two sets of them.

    compare.py run OUT_DIR [--runs 5] [--first-seed 1] [--seconds S]
                           [--trace 0|1] [--workloads a,b]
        Run bench/omnibench/run.py once per workload and seed, saving the
        result line as OUT_DIR/<workload>.s<seed>.json and the full output
        as OUT_DIR/<workload>.s<seed>.log.

    compare.py compare BASE_DIR HEAD_DIR [--same]
        Per workload and end-to-end metric: both sides' median and
        quartiles, the fraction of seed-paired runs HEAD wins, and a
        verdict. Per-layer metrics (from --trace 1 runs) get the same
        numbers but no verdict: they have no bound. Exits 1 on any
        regression or on a rise in the failed fraction. With --same, BASE
        and HEAD are two sets of runs of one commit and every end-to-end
        metric must agree within its bound: neither direction regressed
        or unresolved. ("improved" between two sets of one commit means
        the host drifted between them by more than BASE's spread.)

Verdicts, with bound = the metric's bound from BENCHMARK.json:
    improved    HEAD wins >= 9/10 of the pairs and the medians differ by
                more than BASE's interquartile range
    unresolved  either side's spread exceeds the bound, unless every HEAD
                run beats every BASE run
    regressed   HEAD's median is worse than BASE's by more than the bound
    no-worse    otherwise
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def bench_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    return spec, e2e, layer


def load_dir(path):
    """{workload: {seed: result}} from <workload>.s<seed>.json files."""
    runs = {}
    for f in sorted(Path(path).glob("*.s*.json")):
        workload, _, seed = f.stem.rpartition(".s")
        lines = [ln for ln in f.read_text().splitlines() if ln.strip()]
        if not lines:
            continue
        runs.setdefault(workload, {})[int(seed)] = json.loads(lines[-1])
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def fail_frac(result):
    return result["failed"] / max(1, result["attempted"])


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def verdict(base, head, direction, bound):
    """Verdict for one metric; base/head are seed-aligned value lists."""
    bq1, bmed, bq3 = quartiles(base)
    _, hmed, _ = quartiles(head)
    pairs = list(zip(base, head))
    wins = sum(better(h, b, direction) for b, h in pairs)
    win_frac = wins / len(pairs) if pairs else 0.0
    worse = (hmed - bmed) if direction == "lower" else (bmed - hmed)
    worse_frac = worse / abs(bmed) if bmed else 0.0
    all_better = all(better(h, b, direction) for h in head for b in base)
    if win_frac >= 0.9 and abs(hmed - bmed) > (bq3 - bq1) and worse < 0:
        v = "improved"
    elif max(spread(base), spread(head)) > bound and not all_better:
        v = "unresolved"
    elif worse_frac > bound:
        v = "regressed"
    else:
        v = "no-worse"
    return v, win_frac, worse_frac


def cmd_run(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec, _, _ = bench_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for w in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT)
            (out / f"{w}.s{seed}.log").write_text(done.stdout + done.stderr)
            lines = [ln for ln in done.stdout.splitlines() if ln.strip()]
            if done.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {done.returncode}",
                      file=sys.stderr)
                continue
            (out / f"{w}.s{seed}.json").write_text(lines[-1] + "\n")
            print(f"{w} seed {seed}: ok", file=sys.stderr)
    return 0


def values(results, name):
    return [r["metrics"][name]["value"] for r in results
            if name in r["metrics"]]


def row(name, b, h, win, worse, verdict_text):
    bq1, bmed, bq3 = quartiles(b)
    hq1, hmed, hq3 = quartiles(h)
    print(f"  {name:32s} base {bmed:<11.5g} [{bq1:.5g}, {bq3:.5g}]  "
          f"head {hmed:<11.5g} [{hq1:.5g}, {hq3:.5g}]  "
          f"wins={win:4.0%} worse={worse:+7.2%}  {verdict_text}")


def cmd_compare(args):
    _, e2e, layer = bench_spec()
    base_runs, head_runs = load_dir(args.base), load_dir(args.head)
    status = 0
    for workload in sorted(set(base_runs) | set(head_runs)):
        base_by, head_by = base_runs.get(workload, {}), head_runs.get(workload, {})
        if not base_by or not head_by:
            print(f"== {workload}: missing on one side")
            status = 1
            continue
        base = [base_by[s] for s in sorted(base_by)]
        head = [head_by[s] for s in sorted(head_by)]
        print(f"== {workload}: {len(base)} base runs, {len(head)} head runs")
        bf = max(fail_frac(r) for r in base)
        hf = max(fail_frac(r) for r in head)
        if hf > bf:
            print(f"  failed fraction rose: {bf:.4g} -> {hf:.4g}")
            status = 1
        for name, m in e2e.items():
            b, h = values(base, name), values(head, name)
            if not b or not h:
                continue
            v, win, worse = verdict(b, h, m["better"], m["bound"])
            if args.same:
                back, _, _ = verdict(h, b, m["better"], m["bound"])
                agree = not {v, back} & {"regressed", "unresolved"}
                if not agree:
                    status = 1
                v = f"{v}/{back} {'agree' if agree else 'DISAGREE'}"
            elif v == "regressed":
                status = 1
            row(name, b, h, win, worse, v)
        for name, m in layer.items():
            b, h = values(base, name), values(head, name)
            if not b or not h:
                continue
            _, win, worse = verdict(b, h, m["better"], float("inf"))
            row(name, b, h, win, worse, "(no bound)")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--runs", type=int, default=5)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--workloads", default="")
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("head")
    c.add_argument("--same", action="store_true")
    args = ap.parse_args()
    return {"run": cmd_run, "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
