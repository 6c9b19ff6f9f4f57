"""Timed iterations of one workload in a fresh process.

Started by run.py once per run, after it has prepared the inputs, so that
``ru_maxrss`` covers loading the inputs and running the workload but not
generating them.  Runs iterations back to back (one caller, closed loop)
until ``--seconds`` have passed.  The first iteration is a warm-up: its
outputs are checked, its time is not reported.  After it come at least one
iteration of each kind; with ``--trace 1`` it alternates untraced and traced
iterations.  Each iteration is timed against speed.py's reference.  Writes
one JSON document to ``--result`` and the raw spans of traced iterations to ``--spans``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def _bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def iterate(workload, state, out: Path, warmup: bool, traced: bool, spans_fh) -> dict:
    tracer = tracing.Tracer() if traced else None
    error = None
    try:
        with speed.timed() as timing:
            if traced:
                with tracing.installed(tracer):
                    result = workload.run(state, out)
            else:
                result = workload.run(state, out)
        outcome = workload.check(state, out, result)
    except Exception:  # a crash is reported as a failed check, not raised
        error = traceback.format_exc()
        outcome = Outcome()
    outcome.checks.insert(0, ("iteration completed", error is None))
    wall = timing.wall_s
    rec = {
        "warmup": warmup,
        "traced": traced,
        "wall_s": wall,
        "wall_ref_s": timing.adjusted_s,
        "ref_mean_s": statistics.fmean(timing.ref_s),
        "ref_samples": len(timing.ref_s),
        "checks": outcome.checks,
        "digest": outcome.digest,
        "forecast_days": outcome.forecast_days,
        "error": error,
    }
    if traced:
        rec["layers"] = tracing.layer_metrics(tracer, _bytes_under(out))
        rec["spans"] = tracing.span_table(tracer.spans)
        rec["modules"] = tracing.module_table(tracer.spans, wall)
        for s in tracer.spans:
            spans_fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}) + "\n")
        spans_fh.write("\n")  # blank line separates iterations
    return rec


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--scale", required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--spans", required=True, type=Path)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.scale)
    state = workload.load(args.inputs)
    modes = (False, True) if args.trace else (False,)
    iterations = []
    deadline = time.perf_counter() + args.seconds
    with open(args.spans, "w") as spans_fh:
        # start another iteration only if the slowest one so far would still end in time
        while len(iterations) < 1 + len(modes) or (
            time.perf_counter() + max(it["wall_s"] for it in iterations) <= deadline
        ):
            k = len(iterations)
            out = args.inputs.parent / f"out{k}"
            out.mkdir()
            iterations.append(iterate(workload, state, out, k == 0, k > 0 and modes[(k - 1) % len(modes)], spans_fh))
            shutil.rmtree(out)
            gc.collect()
    doc = {
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    args.result.write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
