"""Benchmark harness for tradeflow.

    python3 perfbench/run.py --workload NAME [--seed N] --seconds S --trace 0|1
                             [--scale full|toy] [--expect-digest HEX]

Run from the root of a source checkout.  One run:

1. prepares the workload's inputs from ``--seed`` SETUP_REPEATS times, each
   into a fresh directory (``setup_s`` is the median);
2. starts worker.py in a fresh process, which runs the workload back to
   back for ``--seconds`` and checks every iteration's outputs;
3. prints a detail line (environment, samples, checks, digests, and with
   ``--trace 1`` the span report) and, as the last line, the result:
   ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
   the end-to-end metrics, ``--trace 1`` the per-layer ones.

Every set-up and every iteration is timed against the reference computation
in speed.py, and the reported times are rescaled by it, so that the host's
drifting speed cancels out; the raw times are in the detail line.

``--expect-digest`` adds one check per iteration that the output digest
equals a digest from another run, e.g. one made at another commit.
Everything the run writes goes under ``.perfbench/`` in the checkout; the
inputs are deleted at exit, the detail and spans are kept in
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170  # the worker is stopped if the whole run would take longer

END_TO_END_UNITS = {"wall_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    h = hashlib.sha256()
    for f in sorted((SRC / "tradeflow").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "seed": seed,
    }


def run_worker(args, inputs: Path, work: Path, started: float):
    """Start the worker and wait for it; return (document, spans path, failure)."""
    result, spans = work / "worker.json", work / "spans.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--scale", args.scale,
           "--inputs", str(inputs), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result), "--spans", str(spans)]
    budget = max(10.0, RUN_DEADLINE_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return None, None, f"worker stopped after {budget:.0f} s"
    if proc.returncode != 0 or not result.exists():
        print(proc.stderr[-4000:], file=sys.stderr)
        return None, None, f"worker exited with code {proc.returncode}"
    return json.loads(result.read_text()), spans, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", default=1, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "toy"))
    ap.add_argument("--expect-digest", default=None)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "tradeflow" / "__init__.py").is_file():
        print(f"error: no tradeflow sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is imported here and in the worker, which inherits them
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import speed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.scale)

    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = ROOT / ".perfbench" / tag
    setup_s, setup_adj, doc, failure = [], [], None, None
    try:
        for k in range(SETUP_REPEATS):
            inputs = work / f"inputs{k}"
            inputs.mkdir(parents=True)
            with speed.timed() as timing:
                workload.prepare(args.seed, inputs)
            setup_s.append(timing.wall_s)
            setup_adj.append(timing.adjusted_s)
            if k + 1 < SETUP_REPEATS:
                shutil.rmtree(inputs)
        doc, spans, failure = run_worker(args, inputs, work, started)
        if spans is not None and args.trace:
            shutil.move(str(spans), results_dir / f"{tag}-spans.jsonl")
    except Exception:  # a crash in set-up is reported as a failed check
        failure = "set-up raised:\n" + traceback.format_exc()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail, result = summarize(args, doc, setup_s, setup_adj, failure)
    detail["environment"] = environment(args.seed)
    (results_dir / f"{tag}.json").write_text(json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


def summarize(args, doc, setup_s, setup_adj, failure):
    """Reduce the worker's iterations to the detail record and the result line."""
    setup = statistics.median(setup_adj) if setup_adj else 0.0
    if doc is None:  # set-up or the worker crashed, or was stopped: one failed check
        iterations, peak = [], 0.0
        checks = [(failure, False)]
    else:
        iterations, peak = doc["iterations"], doc["peak_rss_mb"]
        checks = [tuple(c) for it in iterations for c in it["checks"]]
    digests = [it["digest"] for it in iterations]
    for k, d in enumerate(digests[1:], start=1):
        checks.append((f"iteration {k} digest equals iteration 0 digest", d == digests[0]))
    if args.expect_digest is not None:
        checks += [(f"iteration {k} digest equals --expect-digest", d == args.expect_digest)
                   for k, d in enumerate(digests)]
    attempted, failed = len(checks), sum(1 for _, ok in checks if not ok)

    timed = [it for it in iterations if not it["warmup"]]
    plain = [it["wall_ref_s"] for it in timed if not it["traced"]]
    traced = [it for it in timed if it["traced"]]
    wall = statistics.median(plain) if plain else 0.0  # 0.0 only when nothing ran; correct is false then
    days = iterations[0]["forecast_days"] if iterations else 0
    detail = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "setup_s_samples": setup_s,
        "setup_ref_s_samples": setup_adj,
        "wall_s_samples": [it["wall_s"] for it in timed if not it["traced"]],
        "ref_mean_s_samples": [it["ref_mean_s"] for it in timed if not it["traced"]],
        "wall_ref_s_samples": plain,
        "wall_ref_s_quartiles": statistics.quantiles(plain, n=4) if len(plain) > 1 else plain,
        "warmup_wall_s": iterations[0]["wall_s"] if iterations else None,
        "peak_rss_mb": peak,
        "forecast_days": days,
        "forecast_day_s": wall / days if days else None,
        "failed_frac": failed / attempted,
        "failed_checks": [name for name, ok in checks if not ok],
        "errors": [it["error"] for it in iterations if it["error"]],
        "digest": digests[0] if digests else None,
    }
    if args.trace == 0:
        values = {"wall_ref_s": wall, "peak_rss_mb": peak, "setup_s": setup}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        traced_wall = [it["wall_ref_s"] for it in traced]
        overhead = statistics.median(traced_wall) - wall if traced_wall else 0.0
        names = tracing.layer_metrics(tracing.Tracer(), 0)
        layers = {k: statistics.median(it["layers"][k] for it in traced) if traced else 0 for k in names}
        layers["trace.overhead_s"] = overhead
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        last = traced[-1] if traced else {}
        detail["trace"] = {
            "traced_wall_ref_s_samples": traced_wall,
            "overhead_s": overhead,
            "overhead_frac": overhead / wall if wall else None,
            "spans": last.get("spans"),
            "modules": last.get("modules"),
            "repeat_ratios": {k: v for k, v in layers.items() if k.endswith("repeat_ratio")},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, result


if __name__ == "__main__":
    sys.exit(main())
