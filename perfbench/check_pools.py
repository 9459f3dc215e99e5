"""Run every operation of every pool entry once through the benchmark's checks.

    PYTHONPATH=src:perfbench python3 perfbench/check_pools.py --workload panel_fits

``--seed n`` of the benchmark selects pool entry ``n % POOL``, so a seed
the benchmark is run with can only fail a check that fails here.  Each
operation runs once with its probe at the reference estimate, as in the
first pass of a run.  Prints one line per failed check and exits 1 if any
failed.
"""
from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--pools", type=int, nargs="*", help="pool entries to check (default: all)")
    args = ap.parse_args(argv)

    refs = workloads.load_refs(args.workload)
    state = Path.cwd() / ".perfbench"
    state.mkdir(exist_ok=True)
    bad = 0
    for pool in args.pools if args.pools is not None else range(workloads.POOL):
        work = Path(tempfile.mkdtemp(prefix="perfbench-check-", dir=state))
        try:
            # In its own process, as in a run, so the generator's memory is freed.
            subprocess.run(
                [sys.executable, str(HERE / "workloads.py"), args.workload, str(pool), str(work)], check=True
            )
            manifest = json.loads((work / "manifest.json").read_text())
            ops = workloads.build_ops(manifest, work)
            n = 0
            for key, op in (kv for k in range(workloads.distinct_passes(args.workload)) for kv in ops(k)):
                try:
                    got = workloads.outcome(args.workload, op())
                except Exception as exc:  # counted like a run counts it
                    got = {"error": type(exc).__name__}
                reason = workloads.check(args.workload, key, pool, got, refs, op)
                n += 1
                if reason:
                    bad += 1
                    print(f"pool {pool} {key}: {reason}")
            print(f"pool {pool}: {n} operations checked", file=sys.stderr)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    print(f"{bad} failed checks")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
