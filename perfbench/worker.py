"""Workload process: import gpcl, warm up, run timed passes, write a result.

Closed loop, one caller: each operation starts after the previous one
returns.  Operations run in whole cycles of passes over the workload's
inputs until the requested time has elapsed, so every run times the same
inputs, each equally often.
With ``--trace 1`` the first half of the time repeats pass 0 untraced and
the second half repeats it traced; the difference of the two medians is
the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _run_op(workload, key, op, pool, refs, verified, tracer=None):
    import workloads

    idx = tracer.open_op() if tracer else None
    t0 = time.perf_counter()
    try:
        out = op()
        err = None
    except Exception as exc:  # the run goes on; the op counts as failed
        traceback.print_exc(file=sys.stderr)
        out, err = None, type(exc).__name__
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.close(idx)
    got = {"error": err} if err else workloads.outcome(workload, out)
    # Evaluations at the reference estimate run once per input, before any
    # tracing, outside the timed operation.
    probe = None if key in verified else op
    verified.add(key)
    check = workloads.check(workload, key, pool, got, refs, probe)
    return {
        "key": key,
        "seconds": seconds,
        "units": workloads.op_units(workload),
        "check": check,
        "failures": workloads.failures(workload, got, check_failed=check is not None),
    }


def _passes(workload, ops, pool, refs, seconds, verified, tracer=None, fresh=True):
    """Whole cycles of passes until ``seconds`` have elapsed.

    A cycle is the workload's distinct passes, so every run covers the same
    inputs equally often.  ``fresh=False`` repeats pass 0 instead.
    """
    import workloads

    cycle = workloads.distinct_passes(workload) if fresh else 1
    records = []
    t_end = time.perf_counter() + seconds
    k = 0
    while True:
        records.extend(_run_op(workload, key, op, pool, refs, verified, tracer) for key, op in ops(k))
        k += fresh
        if k % cycle == 0 and time.perf_counter() >= t_end:
            return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import gpcl  # noqa: F401  (timed: numpy, scipy and every gpcl module)
    import gpcl.cli  # noqa: F401

    import_s = time.perf_counter() - t0

    import workloads

    manifest = json.loads((args.work / "manifest.json").read_text())
    workload, pool = manifest["workload"], manifest["pool"]
    ops = workloads.build_ops(manifest, args.work)
    t1 = time.perf_counter()
    ops(0)[0][1]()  # warm-up: lazy imports, caches, first-touch allocations
    setup_s = import_s + time.perf_counter() - t1
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.setup_only:
        args.out.write_text(json.dumps(result))
        return 0

    import numpy
    import scipy

    refs = workloads.load_refs(workload)
    verified: set[str] = set()
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if args.trace:
        import spans as tracing

        # Both halves repeat the same pass, so counts per operation are exact.
        plain = _passes(workload, ops, pool, refs, args.seconds / 2, verified, fresh=False)
        tracer = tracing.Tracer()
        tracer.install()
        traced = _passes(workload, ops, pool, refs, args.seconds / 2, verified, tracer, fresh=False)
        overhead = statistics.median(r["seconds"] for r in traced) - statistics.median(
            r["seconds"] for r in plain
        )
        op_bytes = sum(it.get("bytes", 0) for it in manifest["inputs"])
        layers, missing, refusals = tracing.layer_metrics(tracer, len(traced), op_bytes, overhead)
        op_mean = statistics.fmean(r["seconds"] for r in traced)
        result.update(
            records=plain,
            traced_records=traced,
            layers=layers,
            missing_metrics=missing,
            missing_targets=tracer.missing,
            refusals=refusals,
            traced_ops=len(traced),
            coverage=1.0 - layers["unattributed_s"]["value"] / op_mean,
        )
        tracer.write(args.work / "spans.jsonl")
    else:
        result["records"] = _passes(workload, ops, pool, refs, args.seconds, verified)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
