#!/usr/bin/env python3
"""End-to-end chaos drill through the quickstart CLI.

Requires a quickstart binary with fault injection compiled in (Debug,
a sanitizer preset, or -DMRHS_FAULTS=ON); registered as the
`check_chaos` ctest only in such builds. Drives quickstart four ways
and cross-validates:

  * baseline:  12 fault-free steps, final positions as hex floats;
  * chaos:     the same run with --faults stepper.position.nan@5 — a
    NaN coordinate injected after step 5, which is mid-chunk for
    --rhs 4 (chunk [4,8)). The run must still exit 0, report exactly
    one rollback and zero degradations (the first corruption at a
    snapshot epoch is a plain retry), and its final positions must be
    EXACTLY the baseline's — bitwise, not approximate: the rollback
    replays the counter-keyed noise stream, so a transient fault
    leaves no trace in the trajectory;
  * escalation: 16 steps with --snapshot-every 4 and NaNs after steps
    5 and 4 (hits @5 and @6: the second strikes the replay of the
    epoch [4,8)). The repeat strike halves m; the epoch [8,12) then
    ends without a rollback and promotes back, so the run must exit 0
    and report `rollbacks 2, degradations 1, recoveries 1 (level:
    full)`;
  * a schedule naming an unknown site must be refused with a nonzero
    exit and a diagnostic on stderr (a chaos run that silently arms
    nothing would pass vacuously).

Usage: check_chaos.py /path/to/quickstart
Exit code 0 on success; prints the first failure otherwise.
"""

import re
import subprocess
import sys
import tempfile
from pathlib import Path

PARTICLES = "96"
STEPS = "12"
RHS = "4"
FAULT = "stepper.position.nan@5"
ESCALATION = "stepper.position.nan@5,stepper.position.nan@6"


def fail(msg):
    print(f"FAIL: {msg}")
    sys.exit(1)


def run(binary, *flags, steps=STEPS, expect_ok=True):
    cmd = [str(binary), "--particles", PARTICLES, "--phi", "0.35",
           "--steps", steps, "--rhs", RHS, *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=240)
    if expect_ok and proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n"
             f"{proc.stdout}\n{proc.stderr}")
    return proc


def resilience_summary(stdout):
    m = re.search(r"resilience: rollbacks (\d+), degradations (\d+), "
                  r"recoveries (\d+) \(level: (\w+)\)", stdout)
    if m is None:
        fail(f"no resilience summary line in:\n{stdout}")
    return (*(int(g) for g in m.groups()[:3]), m.group(4))


def read_positions(path):
    lines = Path(path).read_text().strip().splitlines()
    if len(lines) != int(PARTICLES):
        fail(f"{path}: expected {PARTICLES} position lines, got {len(lines)}")
    return lines


def main():
    if len(sys.argv) != 2:
        fail("usage: check_chaos.py /path/to/quickstart")
    binary = Path(sys.argv[1])
    if not binary.exists():
        fail(f"binary not found: {binary}")

    with tempfile.TemporaryDirectory(prefix="mrhs_chaos_") as td:
        tmp = Path(td)
        base_pos = tmp / "baseline.txt"
        chaos_pos = tmp / "chaos.txt"

        # Fault-free reference run.
        proc = run(binary, "--positions-out", str(base_pos))
        if resilience_summary(proc.stdout) != (0, 0, 0, "full"):
            fail(f"baseline run reported resilience events:\n{proc.stdout}")

        # Chaos run: one NaN injected mid-chunk. Must complete, cost
        # exactly one rollback, and not descend the degradation ladder.
        proc = run(binary, "--faults", FAULT,
                   "--positions-out", str(chaos_pos))
        rollbacks, degradations, _, _ = resilience_summary(proc.stdout)
        if rollbacks != 1:
            fail(f"expected exactly 1 rollback, got {rollbacks}:\n"
                 f"{proc.stdout}")
        if degradations != 0:
            fail(f"transient fault must not degrade (got {degradations}):\n"
                 f"{proc.stdout}")

        # Bitwise identity: the replayed trajectory IS the baseline.
        baseline = read_positions(base_pos)
        chaos = read_positions(chaos_pos)
        mismatches = [i for i, (a, b) in enumerate(zip(baseline, chaos))
                      if a != b]
        if mismatches:
            i = mismatches[0]
            fail(f"{len(mismatches)} particles differ after rollback; "
                 f"first at index {i}:\n  baseline: {baseline[i]}\n"
                 f"  chaos:    {chaos[i]}")

        # Escalation: a repeat strike in one epoch descends one rung,
        # and the next rollback-free epoch promotes back to full MRHS.
        proc = run(binary, "--snapshot-every", "4", "--faults", ESCALATION,
                   steps="16")
        summary = resilience_summary(proc.stdout)
        if summary != (2, 1, 1, "full"):
            fail(f"expected rollbacks 2, degradations 1, recoveries 1 "
                 f"(level: full), got {summary}:\n{proc.stdout}")

        # Unknown sites are hard errors, never silently ignored.
        proc = run(binary, "--faults", "no.such.site@1", expect_ok=False)
        if proc.returncode == 0:
            fail("unknown fault site was accepted")
        if "unknown site" not in proc.stderr.lower():
            fail(f"unknown site not diagnosed on stderr:\n{proc.stderr}")

    print("OK: chaos run rolled back once and reproduced the fault-free "
          "trajectory bitwise; a repeat strike escalated and a clean "
          "epoch promoted back; bad schedules rejected")


if __name__ == "__main__":
    main()
