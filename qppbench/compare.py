#!/usr/bin/env python3
"""Runs and compares sets of benchmark runs.

  python3 qppbench/compare.py run --out A.jsonl [--workloads W ...] [--seeds 1-10]
      Runs run.py once per workload and seed (untraced, run_seconds long)
      and has it append every result to A.jsonl.
  python3 qppbench/compare.py diff A.jsonl B.jsonl
      For each workload and end-to-end metric of BENCHMARK.json: the median
      and quartiles of each set, each set's spread (interquartile range over
      median), and whether the sets agree: both spreads within the metric's
      bound, B's median no worse than A's by more than the bound, and the
      same share of failed operations. Exits 1 when any pair disagrees.
  python3 qppbench/compare.py smoke
      A short run of every workload with the check self-test, plus one traced
      run: every check must have run and passed, on every workload.

Run from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

# Every check the driver has; smoke mode requires each to have run.
ALL_CHECKS = [
    "dbgen_cardinality", "template1_recompute", "template6_recompute",
    "replan_same_rows", "tcp_matches_in_process", "hybrid_error_not_worse",
    "selftest_dbgen_cardinality", "selftest_template1_recompute",
    "selftest_template6_recompute", "selftest_replan_same_rows",
    "selftest_tcp_matches_in_process", "selftest_hybrid_error_not_worse",
]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds=None, trace=0, selftest=False, results=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if selftest:
        cmd.append("--selftest")
    if results is not None:
        cmd += ["--results", results]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


def cmd_run(args):
    spec = load_spec()
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            code, result = run_once(workload, seed, args.seconds, results=args.out)
            if result is None:
                print(f"{workload} seed {seed}: no result (exit {code})")
                return 1
            m = result["metrics"]
            print(f"{workload} seed {seed}: exit {code} correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
    return 0


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace", 0):
                continue
            runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def cmd_diff(args):
    spec = load_spec()
    a, b = load_set(args.a), load_set(args.b)
    ok = True
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            print(f"{name}: missing from {'A' if name not in a else 'B'}")
            ok = False
            continue
        print(f"== {name}: {len(a[name])} runs in A, {len(b[name])} in B")
        share = []
        for runs in (a[name], b[name]):
            shares = {r["failed"] / r["attempted"] for r in runs}
            share.append(shares)
        same_share = len(share[0] | share[1]) == 1
        print(f"   failed share A {sorted(share[0])} B {sorted(share[1])}: "
              f"{'same' if same_share else 'DIFFERENT'}")
        ok &= same_share
        for m in spec["end_to_end"]:
            key, bound = m["name"], m["bound"]
            va = [r["metrics"][key]["value"] for r in a[name]]
            vb = [r["metrics"][key]["value"] for r in b[name]]
            ma, q1a, q3a, sa = summarize(va)
            mb, q1b, q3b, sb = summarize(vb)
            if m["better"] == "lower":
                worse = (mb - ma) / ma if ma else 0.0
            else:
                worse = (ma - mb) / ma if ma else 0.0
            agree = sa <= bound and sb <= bound and worse <= bound
            ok &= agree
            print(f"   {key:15s} A {ma:12.5g} [{q1a:.5g}, {q3a:.5g}] spread {sa:6.3f}  "
                  f"B {mb:12.5g} [{q1b:.5g}, {q3b:.5g}] spread {sb:6.3f}  "
                  f"worse {worse:+7.3f} bound {bound:.2f}  {'agree' if agree else 'DISAGREE'}")
    print("sets agree" if ok else "sets DISAGREE")
    return 0 if ok else 1


def cmd_smoke(args):
    spec = load_spec()
    seen = {}
    ok = True
    for w in spec["workloads"]:
        code, result = run_once(w["name"], args.seed, 1, selftest=True)
        good = code == 0 and result is not None and result["correct"]
        print(f"{w['name']}: exit {code}, correct {result and result['correct']}")
        ok &= good
        path = os.path.join(".bench_out", f"checks-{w['name']}-{args.seed}.json")
        with open(path) as f:
            for check, counts in json.load(f).items():
                runs, failed = seen.get(check, (0, 0))
                seen[check] = (runs + counts["runs"], failed + counts["failed"])
    for check in ALL_CHECKS:
        runs, failed = seen.get(check, (0, 0))
        status = "ok" if runs > 0 and failed == 0 else "NOT EXERCISED" if runs == 0 else "FAILED"
        print(f"  {check:30s} runs {runs:6d} failed {failed}  {status}")
        ok &= status == "ok"
    traced = spec["workloads"][-1]["name"]
    code, result = run_once(traced, args.seed, 1, trace=1)
    names = {m["name"] for m in spec["per_layer"]}
    traced_ok = code == 0 and result is not None and set(result["metrics"]) == names
    print(f"traced {traced}: exit {code}, per-layer metrics "
          f"{'complete' if traced_ok else 'INCOMPLETE'}")
    ok &= traced_ok
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--workloads", nargs="*")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float)
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b")
    s = sub.add_parser("smoke")
    s.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    return {"run": cmd_run, "diff": cmd_diff, "smoke": cmd_smoke}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
