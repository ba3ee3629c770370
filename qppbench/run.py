#!/usr/bin/env python3
"""Builds the QPP engine with optimizations and runs one benchmark workload.

Usage (from the repository root):
  python3 qppbench/run.py --workload NAME --seed N [--seconds S] --trace 0|1
  python3 qppbench/run.py --regen-logs          # rebuild qppbench/data/*.log

--seconds defaults to run_seconds in BENCHMARK.json. The build goes to
$CARGO_TARGET_DIR/cmake (default .bench_build/cmake); the driver's trace and
check files go to .bench_out/. The last line of stdout is the run's result
as one JSON object; each result is also appended, with its workload, seed
and trace flag, to --results (default .bench_out/results.jsonl), the file
compare.py reads. The exit code is non-zero when the build fails, the
driver fails, or any correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
OUT_DIR = ".bench_out"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The driver must end well within the 180 s a run is allowed.
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"[qppbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "cmake")


def build():
    """Configures (once) and builds the driver; returns its path."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir, ignore_errors=True)  # retry the configure next time
            raise SystemExit("qppbench: cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        raise SystemExit("qppbench: build failed")
    return os.path.join(bdir, "qppbench_driver")


def default_seconds():
    with open(SPEC) as f:
        return json.load(f)["run_seconds"]


def parse_result(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured window (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="also feed every check a tampered input it must reject")
    ap.add_argument("--regen-logs", action="store_true",
                    help="regenerate the frozen training logs with RunWorkload")
    ap.add_argument("--results", default=os.path.join(OUT_DIR, "results.jsonl"),
                    help="file each result is appended to")
    args = ap.parse_args()
    if not args.regen_logs and not args.workload:
        ap.error("--workload is required")
    if not args.regen_logs and args.seconds is None:
        args.seconds = default_seconds()

    driver = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.regen_logs:
        return subprocess.run([driver, "--regen-logs", os.path.join(HERE, "data")]).returncode

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", os.path.join(HERE, "data"), "--out", OUT_DIR]
    if args.selftest:
        cmd.append("--selftest")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 3
    result = parse_result(proc.stdout)
    if result is None:
        sys.stderr.write(proc.stdout)
        log(f"driver exited {proc.returncode} without a result")
        return proc.returncode or 4
    with open(args.results, "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "trace": args.trace, "seconds": args.seconds,
                            "result": result}) + "\n")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode == 0 and not result["correct"]:
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
