#!/usr/bin/env python3
"""Run a curated bench subset and merge their JSON sidecars into one
trajectory file (BENCH_<date>.json at the repo root by default).

Every bench binary writes a schema-versioned `mrhs-bench-report`
sidecar next to its printed table (bench/bench_common.hpp). This
runner:

  1. runs each curated bench N times (--repeat) at smoke sizes,
     pointing the sidecar at a temp path via MRHS_REPORT_OUT;
  2. validates each sidecar's schema header;
  3. merges everything into a `mrhs-bench-trajectory` document:

       {
         "schema": "mrhs-bench-trajectory", "schema_version": 1,
         "created": "YYYY-MM-DD", "git_sha": "...",
         "benches": {"<bench>": {"runs": [<report>, ...]}, ...}
       }

scripts/perf_compare.py diffs two trajectories (median across runs,
noise-aware thresholds). CI runs this at smoke sizes; the committed
BENCH_*.json files are the performance history of the repo.

Exit codes: 0 ok, 1 a bench failed, 2 a sidecar violated the schema.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMA_NAME = "mrhs-bench-report"
SCHEMA_VERSION = 1
TRAJECTORY_SCHEMA = "mrhs-bench-trajectory"
TRAJECTORY_VERSION = 1

# Curated smoke set: small enough for CI, together covering GSPMV
# roofline attribution (tab02, fig02, fig07), solver phase breakdowns
# (tab06), guess construction (fig05), the matrix suite (tab01), and
# incremental assembly (abl04).
CURATED = {
    "tab01_matrices": ["--particles", "2000"],
    "tab02_spmv_baseline": ["--particles", "2000"],
    "fig02_relative_time": ["--particles", "2000", "--max_m", "32"],
    "fig05_guess_error": ["--particles", "600"],
    "fig07_tmrhs_vs_m": ["--particles", "800", "--steps", "4"],
    "tab06_timings_size": ["--sizes", "300,600,1200", "--steps", "4"],
    "abl04_incremental_assembly": ["--particles", "600", "--steps", "6"],
    "tab08_moptimal": ["--scale", "100"],
    "abl05_autotune_m": ["--particles", "500", "--steps", "24",
                         "--max_m", "12"],
    "abl06_ensemble": ["--particles", "500", "--steps", "6",
                       "--kmax", "8"],
}


def git_sha(repo: Path) -> str:
    """HEAD's sha, suffixed "-dirty" when tracked files are modified, so
    a trajectory never names a commit that did not produce it."""
    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", "-C", str(repo), *args],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    try:
        head = git("rev-parse", "HEAD")
        if head.returncode != 0:
            return ""
        status = git("status", "--porcelain", "--untracked-files=no")
    except OSError:
        return ""
    sha = head.stdout.strip()
    return sha + "-dirty" if status.stdout.strip() else sha


def validate_report(report: dict, path: Path) -> list[str]:
    """Return schema violations (empty list when clean)."""
    errors = []
    if report.get("schema") != SCHEMA_NAME:
        errors.append(f"{path}: schema is {report.get('schema')!r}, "
                      f"want {SCHEMA_NAME!r}")
    if report.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"{path}: schema_version is "
                      f"{report.get('schema_version')!r}, "
                      f"want {SCHEMA_VERSION}")
    for key, typ in (("bench", str), ("phases", list), ("kernels", list),
                     ("values", dict), ("machine", dict)):
        if not isinstance(report.get(key), typ):
            errors.append(f"{path}: missing or mistyped key {key!r}")
    for k in report.get("kernels", []):
        for field in ("name", "bytes", "flops", "seconds",
                      "gbytes_per_sec", "pct_of_roofline"):
            if field not in k:
                errors.append(f"{path}: kernel entry missing {field!r}")
                break
    return errors


def run_bench(bench_dir: Path, name: str, extra_args: list[str],
              sidecar: Path, sha: str, timeout: float) -> dict | None:
    exe = bench_dir / name
    if not exe.exists():
        print(f"bench_runner: SKIP {name} (not built at {exe})")
        return None
    env = dict(os.environ)
    env["MRHS_REPORT_OUT"] = str(sidecar)
    if sha:
        env["MRHS_GIT_SHA"] = sha
    proc = subprocess.run([str(exe), *extra_args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        print(f"bench_runner: FAIL {name} (exit {proc.returncode})")
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RuntimeError(name)
    if not sidecar.exists():
        raise ValueError(f"{name} wrote no sidecar at {sidecar}")
    with open(sidecar) as f:
        return json.load(f)


def main() -> int:
    repo = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench-dir", type=Path,
                        default=repo / "build" / "bench",
                        help="directory holding the bench executables")
    parser.add_argument("--out", type=Path, default=None,
                        help="trajectory output "
                             "(default: BENCH_<date>.json at repo root)")
    parser.add_argument("--repeat", type=int, default=3,
                        help="runs per bench (perf_compare uses the median)")
    parser.add_argument("--only", action="append", default=None,
                        help="run only this bench (repeatable)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-run timeout in seconds")
    args = parser.parse_args()

    date = datetime.date.today().isoformat()
    out = args.out or repo / f"BENCH_{date}.json"
    sha = git_sha(repo)

    selected = {k: v for k, v in CURATED.items()
                if args.only is None or k in args.only}
    if not selected:
        print(f"bench_runner: nothing selected from {sorted(CURATED)}")
        return 1

    trajectory: dict = {
        "schema": TRAJECTORY_SCHEMA,
        "schema_version": TRAJECTORY_VERSION,
        "created": date,
        "git_sha": sha,
        "benches": {},
    }
    schema_errors: list[str] = []
    failed = False
    with tempfile.TemporaryDirectory(prefix="mrhs_bench_") as tmp:
        for name, extra in selected.items():
            runs = []
            for rep in range(args.repeat):
                sidecar = Path(tmp) / f"{name}.{rep}.json"
                try:
                    report = run_bench(args.bench_dir, name, extra, sidecar,
                                       sha, args.timeout)
                except (RuntimeError, ValueError,
                        subprocess.TimeoutExpired) as err:
                    print(f"bench_runner: {name} run {rep} failed: {err}")
                    failed = True
                    break
                if report is None:  # not built: skip the whole bench
                    break
                schema_errors += validate_report(report, sidecar)
                runs.append(report)
            if runs:
                trajectory["benches"][name] = {"runs": runs}
                print(f"bench_runner: {name}: {len(runs)} run(s) merged")

    if schema_errors:
        for e in schema_errors:
            print(f"bench_runner: SCHEMA: {e}")
        return 2
    if not trajectory["benches"]:
        print("bench_runner: no benches produced reports")
        return 1

    with open(out, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")
    print(f"bench_runner: wrote {out} "
          f"({len(trajectory['benches'])} benches)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
