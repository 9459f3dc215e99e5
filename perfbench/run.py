"""gpcl benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload panel_fits --seed 1 --seconds 10 --trace 0

Generates the workload's inputs from the seed (without gpcl), runs the
workload in a fresh process with BLAS pinned to one thread, repeats the
set-up in two more processes, checks every operation's output, and prints
the metrics.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""
from __future__ import annotations

import os

# Before numpy is imported anywhere, here or in a child process.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROCESSES = 3  # set-up is measured in this many fresh processes
# The whole run, generation and every process included, must end within
# DEADLINE_FIXED_S + DEADLINE_PER_S * --seconds (170 s at --seconds 10).
DEADLINE_FIXED_S = 120
DEADLINE_PER_S = 5


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "gpcl").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _run(cmd, root: Path, deadline: float, env=None) -> None:
    """Run a child to completion within the run's deadline, its stdout to our stderr."""
    timeout = max(1.0, deadline - time.monotonic())
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=timeout, stdout=sys.stderr)


def _worker(root: Path, work: Path, out: Path, deadline: float, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(HERE / "worker.py"), "--work", str(work), "--out", str(out), *extra]
    _run(cmd, root, deadline, env)
    return json.loads(out.read_text())


def _tail(values):
    """Highest integer percentile with at least ten samples beyond it."""
    if len(values) < 2:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for p in range(99, 0, -1):
        beyond = sum(v > cuts[p - 1] for v in values)
        if beyond >= 10:
            return p, cuts[p - 1], beyond
    return None


def _report(workload: str, args, manifest: dict, main: dict, setups: list, root: Path, gen_s: float):
    records = main["records"]
    checked = records + main.get("traced_records", [])
    units = sum(r["units"] for r in records)
    per_unit = [r["seconds"] / r["units"] for r in records]
    busy = sum(r["seconds"] for r in records)
    bad = [r for r in checked if r["check"]]
    kinds = Counter()
    for r in records:
        kinds.update(r["failures"])
    versions = main["versions"]
    print(f"perfbench workload={workload} seed={args.seed} pool={manifest['pool']} "
          f"trace={args.trace} seconds={args.seconds} loop=closed clients=1")
    print(f"env nproc={os.cpu_count()} python={versions['python']} numpy={versions['numpy']} "
          f"scipy={versions['scipy']} blas_threads=1 ({' '.join(f'{k}={v}' for k, v in PINNED.items())}) "
          f"commit={_commit(root)} src_sha256={_source_digest(root)}")
    print(f"inputs generated in {gen_s:.3f} s (not part of any metric)")
    for it in manifest["inputs"]:
        extra = " ".join(f"{k}={v}" for k, v in it.items() if k != "key")
        print(f"input {it['key']} {extra}")
    setup_s = statistics.median(setups)
    print(f"setup_s = {setup_s:.4f} s (median of {len(setups)} processes: "
          + ", ".join(f"{s:.4f}" for s in setups) + "; import + warm-up op)")
    by_key = {}
    for r in records:
        by_key.setdefault(r["key"], []).append(r["seconds"] / r["units"])
    # Median over inputs of each input's median: repeats of one input only
    # average out timing noise, and two-input workloads get their midpoint.
    p50 = statistics.median(statistics.median(v) for v in by_key.values())
    n = len(records)
    if len(by_key) <= 4:
        for key, v in by_key.items():
            print(f"op {key}: median {statistics.median(v):.6f} s over {len(v)} (min {min(v):.6f}, max {max(v):.6f})")
    if workload in ("panel_fits", "fit_13m"):
        print(f"fit_p50_s = {p50:.6f} s (n={n} fits over {len(by_key)} inputs)")
    if workload == "panel_fits":
        tail = _tail(per_unit)
        if tail:
            print(f"fit_tail_s = {tail[1]:.6f} s (p{tail[0]}, {tail[2]} samples beyond, n={n})")
    if workload == "study_cells":
        print(f"reps_per_s = {units / busy:.4f} 1/s (n={units} replications in {n} run_mc_study calls)")
    if workload == "rv_ticks":
        print(f"tick_pipeline_s = {p50:.6f} s (median, n={n} passes)")
    failed_units = sum(kinds.values())
    breakdown = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())) or "none"
    print(f"fail_frac = {failed_units / units:.4f} ratio ({failed_units}/{units} "
          f"{'replications' if workload == 'study_cells' else 'operations'}; {breakdown})")
    print(f"peak_rss_mb = {main['peak_rss_mb']:.3f} MB (n=1 workload process)")
    print(f"checks: {len(checked) - len(bad)}/{len(checked)} operations correct")
    for r in bad[:10]:
        print(f"check failed: {r['key']}: {r['check']}")
    result = {"correct": not bad, "attempted": len(checked), "failed": len(bad)}
    if args.trace:
        print(f"traced ops={main['traced_ops']} coverage={main['coverage']:.4f} "
              f"(named layers' share of traced op time)")
        for name, exc_count in sorted(main["refusals"].items()):
            print(f"sandwich refusals {name}={exc_count}")
        for name in main["missing_targets"]:
            print(f"missing target: {name} (not found in gpcl; nothing wrapped)")
        for name in main["missing_metrics"]:
            print(f"missing metric: {name} (needs a missing target; not reported)")
        for key, m in main["layers"].items():
            basis = "per fit" if key.endswith("_per_fit") else "median call" if key.endswith("_us") else "per operation"
            print(f"{key} = {m['value']:.6g} {m['unit']} ({basis})")
        result["metrics"] = main["layers"]
    else:
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_s": {"value": p50, "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
        print(f"op_p50_s = {p50:.6f} s (median over {len(by_key)} inputs of each input's median; "
              f"{n} operations, per {'replication' if workload == 'study_cells' else 'operation'})")
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0 or not math.isfinite(args.seconds):
        return _fail("--seconds must be positive")
    if args.seed < 0:
        return _fail("--seed must be nonnegative")

    root = Path.cwd()
    if not (root / "src" / "gpcl" / "__init__.py").is_file():
        return _fail(f"no gpcl sources under {root / 'src'}; run from the repository root")
    if args.workload != "study_cells" and not (workloads.REFS_DIR / f"{args.workload}.json").is_file():
        return _fail(f"missing references for {args.workload}")

    deadline = time.monotonic() + DEADLINE_FIXED_S + DEADLINE_PER_S * args.seconds
    state = root / ".perfbench"
    work = state / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        try:
            _run([sys.executable, str(HERE / "workloads.py"), args.workload, str(args.seed), str(work)],
                 root, deadline)
        except (subprocess.SubprocessError, OSError) as exc:
            return _fail(f"input generation failed: {exc}")
        manifest = json.loads((work / "manifest.json").read_text())
        gen_s = time.perf_counter() - t0
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            main_result = _worker(root, work, work / "main.json", deadline, *extra)
            setups = [main_result["setup_s"]]
            for i in range(SETUP_PROCESSES - 1):
                probe = _worker(root, work, work / f"setup{i}.json", deadline, "--setup-only")
                setups.append(probe["setup_s"])
        except (subprocess.SubprocessError, OSError, ValueError) as exc:
            return _fail(f"workload process failed: {exc}")
        if args.trace:
            shutil.copyfile(work / "spans.jsonl", state / f"spans-{args.workload}.jsonl")
        _report(args.workload, args, manifest, main_result, setups, root, gen_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
