"""Record the reference outcomes that the benchmark's checks compare with.

    PYTHONPATH=src:perfbench python3 perfbench/record_refs.py --workload panel_fits

Runs every operation of every pool entry once and writes
``perfbench/refs/<workload>.json``.  References are recorded once, at the
commit that introduced the benchmark, and are not re-recorded to make a
later change pass.
"""
from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def _refs_text(meta: dict, pools: dict) -> str:
    """JSON with one line per pool entry, so diffs stay readable."""
    entries = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in pools.items())
    return f'{{\n "meta": {json.dumps(meta, sort_keys=True)},\n "pools": {{\n{entries}\n }}\n}}\n'


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("panel_fits", "fit_13m", "rv_ticks"))
    ap.add_argument("--commit", default="unknown", help="commit the references describe")
    args = ap.parse_args(argv)

    pools = {}
    for pool in range(workloads.POOL):
        work = Path(tempfile.mkdtemp(prefix="perfbench-refs-", dir=Path.cwd() / ".perfbench"))
        try:
            manifest = workloads.prepare(args.workload, pool, work)
            entry = {}
            ops = workloads.build_ops(manifest, work)
            for key, op in (kv for k in range(workloads.distinct_passes(args.workload)) for kv in ops(k)):
                try:
                    entry[key] = workloads.outcome(args.workload, op())
                except Exception as exc:  # recorded: the check then expects it
                    entry[key] = {"error": type(exc).__name__}
            pools[str(pool)] = entry
            print(f"pool {pool}: {json.dumps(entry)[:200]}", file=sys.stderr)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    meta = {
        "commit": args.commit,
        "loglik_rel_tol": workloads.LOGLIK_REL_TOL,
        "pool": workloads.POOL,
    }
    out = workloads.REFS_DIR / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(_refs_text(meta, pools))
    return 0


if __name__ == "__main__":
    sys.exit(main())
