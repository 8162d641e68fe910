#!/usr/bin/env python3
"""End-to-end check of the observability layer.

Runs the quickstart example with --trace-out / --trace-jsonl /
--metrics-out, then validates that:

  * the Chrome-trace file parses as JSON and has the expected shape
    ({"traceEvents": [...]}, 'X'/'i' events with name/ts/pid/tid);
  * the mandatory top-level spans for an MRHS run are present
    (construct, Chebyshev, solves, chunk, kernels);
  * spans nest sanely (durations non-negative, every span fits inside
    the enclosing mrhs.chunk span on the same thread lane);
  * the JSONL export parses line by line and matches the event count;
  * the metrics file parses and carries CG iteration counts, per-solve
    residual histograms, and a GSPMV effective-bandwidth gauge.

Usage: check_trace.py /path/to/quickstart
Exit code 0 on success; prints the first failure otherwise.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REQUIRED_SPANS = {
    "Construct",
    "Cheb vectors",
    "Calc guesses",
    "1st solve",
    "2nd solve",
    "mrhs.chunk",
    "step.sd",
    "block_cg.solve",
    "cg.solve",
    "gspmv.apply",
}

REQUIRED_COUNTERS = {
    "cg.solves",
    "cg.iterations",
    "block_cg.solves",
    "stepper.steps",
    "stepper.chunks",
    "gspmv.calls",
    "gspmv.bytes",
    "gspmv.flops",
}

REQUIRED_HISTOGRAMS = {
    "cg.iterations_per_solve",
    "cg.exit_relative_residual",
    "block_cg.exit_relative_residual",
    "mrhs.guess_rel_error",
}


def fail(message):
    print(f"check_trace: FAIL: {message}")
    sys.exit(1)


def check_event(event):
    for key in ("name", "ph", "ts", "pid", "tid"):
        if key not in event:
            fail(f"event missing '{key}': {event}")
    if event["ph"] not in ("X", "i"):
        fail(f"unexpected event phase {event['ph']!r}: {event}")
    if event["ph"] == "X":
        if "dur" not in event:
            fail(f"complete event missing 'dur': {event}")
        if event["dur"] < 0:
            fail(f"negative duration: {event}")


def main():
    if len(sys.argv) != 2:
        fail(f"usage: {sys.argv[0]} /path/to/quickstart")
    quickstart = Path(sys.argv[1])
    if not quickstart.exists():
        fail(f"quickstart binary not found: {quickstart}")

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.json"
        jsonl_path = Path(tmp) / "trace.jsonl"
        metrics_path = Path(tmp) / "metrics.json"
        cmd = [
            str(quickstart),
            "--particles", "200",
            "--steps", "4",
            "--rhs", "2",
            "--trace-out", str(trace_path),
            "--trace-jsonl", str(jsonl_path),
            "--metrics-out", str(metrics_path),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            fail(f"quickstart exited {proc.returncode}:\n{proc.stderr}")

        for path in (trace_path, jsonl_path, metrics_path):
            if not path.exists():
                fail(f"artifact not written: {path}")

        # --- Chrome trace ---------------------------------------------
        trace = json.loads(trace_path.read_text())
        if "traceEvents" not in trace:
            fail("trace JSON has no 'traceEvents' key")
        events = trace["traceEvents"]
        if not events:
            fail("trace has no events")
        for event in events:
            check_event(event)

        names = {e["name"] for e in events}
        missing = REQUIRED_SPANS - names
        if missing:
            fail(f"missing required spans: {sorted(missing)}")

        # Nesting sanity: every event on a chunk's thread lane that
        # starts inside the chunk must also end inside it.
        chunks = [e for e in events if e["name"] == "mrhs.chunk"]
        if not chunks:
            fail("no mrhs.chunk spans")
        for chunk in chunks:
            lo, hi = chunk["ts"], chunk["ts"] + chunk["dur"]
            for e in events:
                if e is chunk or e["tid"] != chunk["tid"] or e["ph"] != "X":
                    continue
                starts_inside = lo <= e["ts"] < hi
                if starts_inside and e["ts"] + e["dur"] > hi + 1.0:
                    fail(f"span leaks out of its chunk: {e['name']}")

        # --- JSONL ----------------------------------------------------
        lines = [ln for ln in jsonl_path.read_text().splitlines() if ln]
        if len(lines) != len(events):
            fail(f"jsonl has {len(lines)} lines but trace has "
                 f"{len(events)} events")
        for line in lines:
            check_event(json.loads(line))

        # --- Metrics --------------------------------------------------
        metrics = json.loads(metrics_path.read_text())
        for section in ("counters", "gauges", "histograms"):
            if section not in metrics:
                fail(f"metrics JSON has no '{section}' section")

        counters = metrics["counters"]
        missing = REQUIRED_COUNTERS - counters.keys()
        if missing:
            fail(f"missing counters: {sorted(missing)}")
        for name in ("cg.solves", "stepper.steps", "gspmv.calls"):
            if counters[name] <= 0:
                fail(f"counter {name} is not positive: {counters[name]}")

        if counters["stepper.steps"] != 4:
            fail(f"expected 4 steps, metrics say {counters['stepper.steps']}")

        gauge = metrics["gauges"].get("gspmv.effective_bandwidth_gbps", 0)
        if gauge <= 0:
            fail(f"gspmv.effective_bandwidth_gbps not positive: {gauge}")

        hists = metrics["histograms"]
        missing = REQUIRED_HISTOGRAMS - hists.keys()
        if missing:
            fail(f"missing histograms: {sorted(missing)}")
        for name in REQUIRED_HISTOGRAMS:
            hist = hists[name]
            for key in ("bounds", "counts", "count", "sum", "min", "max"):
                if key not in hist:
                    fail(f"histogram {name} missing '{key}'")
            if len(hist["counts"]) != len(hist["bounds"]) + 1:
                fail(f"histogram {name}: counts/bounds size mismatch")
            if hist["count"] <= 0:
                fail(f"histogram {name} recorded no observations")
            if sum(hist["counts"]) != hist["count"]:
                fail(f"histogram {name}: bucket counts do not sum to count")

    print(f"check_trace: OK ({len(events)} events, "
          f"{len(counters)} counters, {len(hists)} histograms)")


if __name__ == "__main__":
    main()
