#!/usr/bin/env python3
"""Build and run the repository benchmark (see benchmark/README.md).

One run, the form BENCHMARK.json's command takes:

    python3 benchmark/run_benchmark.py --workload crowded_mrhs --seed 42 \\
        --seconds 15 --trace 0

builds the driver into build-benchmark/ (a no-op once built), runs one
workload in one process, prints every metric with its unit, and prints
as its last line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports BENCHMARK.json's end-to-end
metrics; --trace 1 reports its per-layer metrics and leaves trace.json
and layers.json in build-benchmark/runs/<workload>-seed<n>-traced/.

    --smoke       every workload, plain and traced, at tiny sizes; checks
                  the output schema (under a minute in total)
    --calibrate   two sets of runs per workload, one set after the other;
                  prints each end-to-end metric's median, IQR and
                  set-to-set change next to its bound (--save keeps them)
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-benchmark"
DRIVER = BUILD / "mrhs_benchmark"
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def threads():
    """OpenMP threads per run: one per CPU the process may use."""
    return len(os.sched_getaffinity(0))


def build():
    """Configure once, then bring the driver up to date (stdout is kept
    for results, so the build log goes to stderr)."""
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "mrhs_benchmark", "-j", str(threads())],
                   check=True, stdout=sys.stderr, timeout=900)


def run_driver(workload, seed, seconds, traced, smoke=False):
    out_dir = BUILD / "runs" / (f"{workload}-seed{seed}"
                                + ("-traced" if traced else "")
                                + ("-smoke" if smoke else ""))
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds),
           "--out-dir", str(out_dir.relative_to(ROOT))]
    if traced:
        cmd.append("--traced")
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, OMP_NUM_THREADS=str(threads()))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=DRIVER_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}: {cmd}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not smoke:
        check_reference(result)
    return result


def check_reference(result):
    """At the reference seed, a stepping workload's MSD after 64 steps
    must match reference.json to 1e-4 relative. The positions CRC is
    reported as bitwise_same but does not gate, so a deliberate rounding
    change still passes."""
    with open(ROOT / "benchmark" / "reference.json") as f:
        ref = json.load(f)
    entry = ref["workloads"].get(result["workload"])
    if entry is None or result["seed"] != ref["seed"]:
        return
    checks = result["checks"]
    msd_ok = abs(checks["msd"] - entry["msd"]) <= 1e-4 * entry["msd"]
    checks["reference_msd"] = msd_ok
    checks["bitwise_same"] = checks["positions_crc"] == entry["positions_crc"]
    result["correct"] = result["correct"] and msd_ok


def result_line(result, spec, traced):
    """The result line: exactly the metrics BENCHMARK.json lists for
    this mode, each with its unit."""
    metrics = {}
    for m in spec["per_layer" if traced else "end_to_end"]:
        value = result["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError(f"{result['workload']}: metric {m['name']} "
                               f"missing or not finite: {value!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def print_result(workload, line):
    for name, m in line["metrics"].items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{workload}  correct={line['correct']} "
          f"attempted={line['attempted']} failed={line['failed']}")


def spread(values):
    """(median, IQR as a share of the median)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def calibrate(spec, args):
    workloads = [w["name"] for w in spec["workloads"]]
    sets = []
    for set_index in range(2):
        runs = {w: [] for w in workloads}
        for w in workloads:
            for i in range(args.runs):
                seed = args.seed + i
                log(f"calibrate: set {set_index + 1} {w} seed {seed}")
                result = run_driver(w, seed, args.seconds, traced=False)
                runs[w].append(result_line(result, spec, False))
        sets.append(runs)
    traced = {}
    for w in workloads:
        log(f"calibrate: traced {w} seed {args.seed}")
        result = run_driver(w, args.seed, args.seconds, traced=True)
        traced[w] = result_line(result, spec, True) | {
            "info": result["info"], "checks": result["checks"]}

    print(f"{'workload':20} {'metric':15} {'median1':>10} {'iqr1':>7} "
          f"{'median2':>10} {'iqr2':>7} {'change':>7} {'bound':>6}")
    summary = {}
    for w in workloads:
        summary[w] = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            values = [[r["metrics"][name]["value"] for r in s[w]]
                      for s in sets]
            (med1, iqr1), (med2, iqr2) = spread(values[0]), spread(values[1])
            worse = 1.0 if m["better"] == "lower" else -1.0
            change = worse * (med2 - med1) / med1
            summary[w][name] = {
                "median": [med1, med2], "iqr_share": [iqr1, iqr2],
                "q1_q3": [statistics.quantiles(v, n=4)[0::2] for v in values],
                "change_worse": change, "bound": m["bound"], "values": values}
            print(f"{w:20} {name:15} {med1:10.4g} {iqr1:7.1%} {med2:10.4g} "
                  f"{iqr2:7.1%} {change:+7.1%} {m['bound']:6.2f}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"date": time.strftime("%Y-%m-%d"),
                       "threads": threads(), "runs_per_set": args.runs,
                       "seeds": [args.seed, args.seed + args.runs - 1],
                       "seconds": args.seconds, "end_to_end": summary,
                       "per_layer": traced}, f, indent=1)
            f.write("\n")
        log(f"calibrate: wrote {args.save}")


def smoke(spec):
    start = time.monotonic()
    ok = True
    for w in spec["workloads"]:
        for traced in (False, True):
            result = run_driver(w["name"], 42, 1, traced, smoke=True)
            line = result_line(result, spec, traced)
            good = line["correct"] and line["failed"] == 0 and \
                line["attempted"] >= 1
            ok = ok and good
            print(f"smoke {w['name']:20} {'traced' if traced else 'plain ':6} "
                  f"{'ok' if good else 'FAILED'} "
                  f"({len(line['metrics'])} metrics)")
    print(f"smoke {'passed' if ok else 'FAILED'} in "
          f"{time.monotonic() - start:.1f} s")
    return 0 if ok else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per workload and set (--calibrate)")
    parser.add_argument("--save", help="write --calibrate results as JSON")
    args = parser.parse_args()
    if not (args.smoke or args.calibrate or args.workload):
        parser.error("one of --workload, --smoke or --calibrate is required")

    build()
    if args.smoke:
        return smoke(spec)
    if args.calibrate:
        calibrate(spec, args)
        return 0
    result = run_driver(args.workload, args.seed, args.seconds,
                        traced=args.trace == 1)
    line = result_line(result, spec, args.trace == 1)
    print_result(args.workload, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, IndexError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"run_benchmark: error: {e}")
        sys.exit(1)
