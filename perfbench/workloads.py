"""The four workloads: their inputs, their operations and their checks.

``prepare`` runs in the benchmark's parent process and writes the inputs of
one seed to a work directory without importing ``gpcl``.  ``build_ops``
runs in the workload process, after ``gpcl`` is imported, and returns the
operations of one pass in a fixed order.  Every operation returns an
outcome that ``check`` compares with the references recorded at the
commit that introduced the benchmark.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import inputs

NAMES = ("panel_fits", "study_cells", "fit_13m", "rv_ticks")

# Inputs are drawn from a pool of this many seeds; ``--seed n`` selects
# entry ``n % POOL``, so a reference exists for every seed.
POOL = 32

PANEL_N = 13_140  # three years at 12 observations a day
PANEL_DELTA = 1.0 / 12.0
# A pass fits one series per panel point; pass k uses set k % PANEL_SETS.
# Runs are made of whole cycles over the sets, so every run fits the same
# series, each equally often, however fast the code is.
PANEL_SETS = 16
BIG_N = 5760 * 2278  # 2,278 days at 15-second sampling
BIG_DELTA = 1.0 / 5760.0
BIG_POINTS = (("fou", "B"), ("cauchy", "B"))
# A pass fits one series per point; pass k uses set k % BIG_SETS.  Fit time
# depends on the series (some fOU B series take ~35% longer to fit), so a
# second set keeps one such series from moving the run's median by ~20%.
# Each series is 105 MB on disk, which bounds the number of sets.
BIG_SETS = 2
STUDY_CELLS = (("fou", "B"), ("cauchy", "D"))
STUDY_T = 1095
STUDY_REPS = 40  # two failed replications stay within the study's 5% rule
STUDY_SETS = 2  # pass k of a study run uses replication seeds k % STUDY_SETS
TICK_DAYS = 90
TICK_RATE = 5760  # mean trades a day

# A fit fails its check when it ends this far (relative) below the
# reference log-likelihood; higher is always accepted.
LOGLIK_REL_TOL = 1e-8
# Standard errors computed at the reference estimate must match the
# reference ones to this relative tolerance: the sandwich depends only on
# the parameter point, the tuple set, delta and n, not on the data.
SE_REL_TOL = 1e-6
# A fit that ends at the reference log-likelihood (within LOGLIK_REL_TOL)
# has reached the reference optimum, so its own standard errors must match
# the reference ones to this looser tolerance.  A fit that ends strictly
# higher has found another point, and its SEs are not compared.
SE_FIT_REL_TOL = 1e-2

_TAGS = {name: i + 1 for i, name in enumerate(NAMES)}
REFS_DIR = Path(__file__).resolve().parent / "refs"


def pool_index(seed: int) -> int:
    return int(seed) % POOL


def distinct_passes(workload: str) -> int:
    """Passes with distinct inputs before a run starts repeating them."""
    return {"panel_fits": PANEL_SETS, "study_cells": STUDY_SETS, "fit_13m": BIG_SETS}.get(workload, 1)


def _panel_points():
    for rep in range(PANEL_SETS):
        for family in ("fou", "cauchy"):
            for panel in "ABCDE":
                yield family, panel, rep


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the inputs of ``workload`` for ``seed``; return their manifest."""
    pool = pool_index(seed)
    tag = _TAGS[workload]
    manifest = {"workload": workload, "seed": int(seed), "pool": pool, "inputs": []}
    if workload == "panel_fits":
        rows = []
        for i, (family, panel, rep) in enumerate(_panel_points()):
            rng = inputs.rng_for(tag, pool, i)
            x = inputs.gaussian_path(family, inputs.PANELS[family][panel], PANEL_DELTA, PANEL_N, rng)
            rows.append(x)
            manifest["inputs"].append(
                {"key": f"{family}-{panel}-{rep}", "family": family, "digest": inputs.digest_array(x)}
            )
        np.save(work / "panel.npy", np.stack(rows))
    elif workload == "fit_13m":
        items = []
        for j, (family, panel) in enumerate(BIG_POINTS):
            rngs = [inputs.rng_for(tag, pool, rep * len(BIG_POINTS) + j) for rep in range(BIG_SETS)]
            paths = inputs.gaussian_paths(family, inputs.PANELS[family][panel], BIG_DELTA, BIG_N, rngs)
            for rep, x in enumerate(paths):
                key = f"{family}-{panel}-{rep}"
                np.save(work / f"{key}.npy", x)
                items.append((rep, j, {"key": key, "family": family, "digest": inputs.digest_array(x)}))
                del x
        manifest["inputs"] = [it for _, _, it in sorted(items, key=lambda t: t[:2])]
    elif workload == "rv_ticks":
        path = work / "trades.csv"
        path.write_text(inputs.tick_csv_text(inputs.rng_for(tag, pool), TICK_DAYS, TICK_RATE))
        manifest["inputs"].append(
            {"key": "trades", "digest": inputs.digest_file(path), "bytes": path.stat().st_size}
        )
    elif workload == "study_cells":
        # gpcl simulates inside the operation; only the study seed is given,
        # from the pool, so every seed runs a study checked by check_pools.py.
        manifest["inputs"] = [
            {"key": f"{family}-{panel}-T{STUDY_T}", "family": family, "study_seed": pool}
            for family, panel in STUDY_CELLS
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (work / "manifest.json").write_text(json.dumps(manifest))
    return manifest


# ---------------------------------------------------------------------------
# Operations (workload process only).


def _std_errors(sandwich_at) -> tuple[str, list | None]:
    """The CLI's standard errors: the sandwich, else its nominal fallback.

    ``sandwich_at(nominal)`` returns a ``SandwichReport``.  Returns the kind
    (``ok``, ``nominal`` or the exception raised) and the values.
    """
    from gpcl.errors import GpclError

    try:
        report = sandwich_at(False)
        kind = "ok"
        if report.std_errors is None:
            report = sandwich_at(True)
            kind = "nominal"
    except GpclError as exc:
        return type(exc).__name__, None
    return kind, [float(v) for v in report.std_errors]


def _fit_op(y, family: str, mean_mode: str):
    """What ``gpcl fit`` does after reading its file: fit, then the sandwich.

    The returned callable carries ``objective_at(theta)``, the composite
    log-likelihood of the same series at a given point, and
    ``std_errors_at(theta, mu)``, the standard errors at a given point, for
    the check.
    """
    from gpcl import asymptotics, likelihood
    from gpcl.models import CauchyParams, FouParams, ModelSpec

    def op():
        result = likelihood.fit_mcle(y, family, mean_mode=mean_mode, known_mean=0.0)
        se, se_values = "not-run", None
        if result.converged:
            se, se_values = _std_errors(lambda nominal: asymptotics.attach_std_errors(result, nominal=nominal))
        return {
            "loglik": float(result.loglik),
            "theta": [float(v) for v in result.theta_hat],
            "mu": float(result.mu_value),
            "converged": bool(result.converged),
            "se": se,
            "se_values": se_values,
        }

    def model_at(theta, mu=0.0):
        return ModelSpec((FouParams if family == "fou" else CauchyParams)(*theta, mu=mu), mean_mode)

    def objective_at(theta):
        return likelihood.cl_eval(model_at(theta), y, likelihood.build_default_tuples())

    def std_errors_at(theta, mu):
        model, tuples = model_at(theta, mu), likelihood.build_default_tuples()
        return _std_errors(
            lambda nominal: asymptotics.sandwich(model, tuples, y.delta, y.values.size, nominal=nominal)
        )

    op.objective_at = objective_at
    op.std_errors_at = std_errors_at
    return op


def _study_op(family: str, panel: str, seed: int):
    from gpcl import cli

    config = cli.StudyConfig(
        family=family, panels=(panel,), big_t=(STUDY_T,), replications=STUDY_REPS,
        mean_mode="known:0", seed=seed,
    )

    def op():
        return cli.run_mc_study(config)

    return op


def _rv_op(path: str):
    from gpcl import hf

    def op():
        ticks = hf.ingest_ticks(path)
        return ticks, hf.build_rv_series(ticks), hf.volume_series(ticks), hf.volatility_signature(ticks)

    return op


def build_ops(manifest: dict, work: Path):
    """A function of the pass index returning that pass's (key, callable) pairs.

    Panel fits cycle through ``PANEL_SETS`` pre-generated input sets, big
    fits through ``BIG_SETS`` and study cells through ``STUDY_SETS``
    replication seeds; rv_ticks repeats one pass.  Trace runs repeat pass 0.
    """
    from gpcl.simulate import SampleSeries

    workload = manifest["workload"]
    items = manifest["inputs"]
    if workload == "study_cells":
        return lambda k: [
            (it["key"], _study_op(family, panel, it["study_seed"] * 10_000 + k % STUDY_SETS))
            for it, (family, panel) in zip(items, STUDY_CELLS)
        ]
    if workload == "panel_fits":
        values = np.load(work / "panel.npy")
        fits = [
            (it["key"], _fit_op(SampleSeries(values[i], PANEL_DELTA, origin="EMPIRICAL"), it["family"], "estimated"))
            for i, it in enumerate(items)
        ]
        per_pass = len(fits) // PANEL_SETS
        return lambda k: fits[(k % PANEL_SETS) * per_pass : (k % PANEL_SETS + 1) * per_pass]
    if workload == "fit_13m":
        # A pass loads its own series, so one set at a time is in memory.
        per_pass = len(items) // BIG_SETS
        return lambda k: [
            (it["key"], _fit_op(SampleSeries(np.load(work / f"{it['key']}.npy"), BIG_DELTA, origin="EMPIRICAL"), it["family"], "known"))
            for it in items[(k % BIG_SETS) * per_pass : (k % BIG_SETS + 1) * per_pass]
        ]
    ops = [("trades", _rv_op(str(work / "trades.csv")))]
    return lambda k: ops


def op_units(workload: str) -> int:
    """Work units in one operation: replications for a study cell, else one."""
    return STUDY_REPS if workload == "study_cells" else 1


# ---------------------------------------------------------------------------
# Outcomes and checks.


def _g12(values) -> str:
    return ",".join("" if not math.isfinite(v) else f"{v:.12g}" for v in np.ravel(values).tolist())


def rv_digest(out) -> str:
    """Digest of the tick pipeline's outputs at the CLI's 12 significant digits."""
    import hashlib

    ticks, rv, vol, sig = out
    parts = [
        f"rows={ticks.rows_total},{ticks.rows_malformed},{len(ticks)}",
        "rv:" + _g12(rv.day_index) + "|" + _g12(rv.values) + "|" + ";".join(rv.diagnostics),
        "vol:" + _g12(vol.values) + "|" + ";".join(vol.diagnostics),
        "sig:" + "|".join(_g12(a) for a in (sig.seconds, sig.scaled_rv, sig.lower, sig.upper)) + f"|{sig.n_days}",
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


def outcome(workload: str, out) -> dict:
    """The JSON-able part of an operation's result that the check reads."""
    if workload == "rv_ticks":
        ticks, rv, vol, _ = out
        return {
            "digest": rv_digest(out),
            "malformed": int(ticks.rows_malformed),
            "diagnostics": [d.split(":")[0] for d in rv.diagnostics + vol.diagnostics],
        }
    if workload == "study_cells":
        cells = [
            {"reps_used": c.reps_used, "failures": c.failures}
            for c in out.cells
        ]
        return {"cells": cells, "csv": out.to_csv_text()}
    return out


def load_refs(workload: str) -> dict:
    """Recorded outcomes by pool entry and input key (empty for studies)."""
    path = REFS_DIR / f"{workload}.json"
    return json.loads(path.read_text())["pools"] if path.exists() else {}


def _rel_diff(a, b) -> float:
    """Largest elementwise |a - b| / |b| (inf when the shapes differ).

    |b| is floored at 1e-6 of the largest |b|: the sandwich clips a
    negative variance to zero and leaves round-off, of order 1e-19, where
    a variance nearly vanishes, and that round-off is not compared.
    """
    if a is None or b is None or len(a) != len(b):
        return math.inf
    floor = max(1e-6 * max((abs(y) for y in b), default=0.0), 1e-300)
    return max((abs(x - y) / max(abs(y), floor) for x, y in zip(a, b)), default=0.0)


def check(workload: str, key: str, pool: int, got: dict, refs: dict, probe=None) -> str | None:
    """None when the outcome is correct, else the reason it is not.

    ``probe``, when given, is the operation; its ``objective_at`` and
    ``std_errors_at`` are evaluated at the reference estimate and must
    reproduce the reference log-likelihood and standard errors.
    """
    if workload == "study_cells":
        return f"raised {got['error']}" if "error" in got else _check_study(got)
    ref = refs.get(str(pool), {}).get(key)
    if ref is None:
        return f"no reference for pool {pool} {key}"
    if "error" in got:
        return None if got["error"] == ref.get("error") else f"raised {got['error']}"
    if workload == "rv_ticks":
        return None if got["digest"] == ref["digest"] else f"digest {got['digest']} != {ref['digest']}"
    if "error" in ref:
        return None  # the reference raised; any finished fit is no worse
    if ref["converged"] and not got["converged"]:
        return "did not converge; the reference did"
    good_se = ("ok", "nominal")
    if ref["se"] in good_se and got["se"] not in good_se:
        return f"standard errors {got['se']}; the reference had them ({ref['se']})"
    tol = LOGLIK_REL_TOL * (1.0 + abs(ref["loglik"]))
    if not (math.isfinite(got["loglik"]) and got["loglik"] >= ref["loglik"] - tol):
        return f"loglik {got['loglik']!r} below reference {ref['loglik']!r}"
    if not all(math.isfinite(v) for v in got["theta"]):
        return "non-finite estimate"
    if got["se_values"] is not None and not all(math.isfinite(v) and v >= 0 for v in got["se_values"]):
        return f"standard errors not finite and nonnegative: {got['se_values']}"
    same_optimum = got["loglik"] <= ref["loglik"] + tol
    if same_optimum and got["se"] == ref["se"] and got["se_values"] is not None:
        diff = _rel_diff(got["se_values"], ref["se_values"])
        if not diff <= SE_FIT_REL_TOL:
            return f"standard errors {got['se_values']} differ from the reference {ref['se_values']} by {diff:.3g}"
    if probe is not None:
        try:
            at_ref = probe.objective_at(ref["theta"])
            # The reference ran the sandwich only when its fit converged.
            se_at_ref = probe.std_errors_at(ref["theta"], ref["mu"]) if ref["converged"] else None
        except Exception as exc:  # a broken objective or sandwich is a failed check
            return f"evaluation at the reference estimate raised {type(exc).__name__}: {exc}"
        if not abs(at_ref - ref["loglik"]) <= tol:
            return f"objective at the reference estimate {at_ref!r} != {ref['loglik']!r}"
        if se_at_ref is None:
            return None
        if se_at_ref[0] != ref["se"]:
            return f"standard errors at the reference estimate: {se_at_ref[0]}, reference {ref['se']}"
        if ref["se_values"] is not None and not _rel_diff(se_at_ref[1], ref["se_values"]) <= SE_REL_TOL:
            return f"standard errors at the reference estimate {se_at_ref[1]} != {ref['se_values']}"
    return None


def _check_study(got: dict) -> str | None:
    for cell in got["cells"]:
        if cell["reps_used"] + cell["failures"] != STUDY_REPS:
            return f"reps_used + failures != {STUDY_REPS}: {cell}"
        if cell["failures"] > 0.05 * STUDY_REPS:
            return f"more than 5% failed replications: {cell}"
    rows = [ln for ln in got["csv"].splitlines() if ln and not ln.startswith("#")]
    if len(rows) < 2:
        return "study CSV has no data rows"
    for line in rows[1:]:
        fields = line.split(",")[3:]
        if not all(math.isfinite(float(f)) for f in fields if f) or "" in fields:
            return f"non-finite study row: {line}"
    return None


def failures(workload: str, got: dict, check_failed: bool = False) -> dict:
    """Failed work units by kind, counted toward ``fail_frac``.

    An operation fails if it failed its check (all its units), raised, did
    not converge, or had its standard errors refused; a study cell counts
    its failed replications.  Each failed unit is counted once, under the
    first of these kinds that applies.
    """
    if check_failed:
        return {"check-failed": op_units(workload)}
    if "error" in got:
        return {f"raised:{got['error']}": op_units(workload)}
    if workload == "study_cells":
        n = sum(cell["failures"] for cell in got["cells"])
        return {"replication-failed": n} if n else {}
    if workload == "rv_ticks":
        return {}
    if not got["converged"]:
        return {"not-converged": 1}
    if got["se"] not in ("ok", "nominal"):
        return {f"se-unavailable:{got['se']}": 1}
    return {}


if __name__ == "__main__":
    import sys

    # Input generation runs in its own process, so its memory peak is not
    # inherited by the workload process through fork/exec accounting.
    prepare(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
