"""Batch command-line surface: option parsing and output formatting.

The commands call into the library; the replication loops of ``mc-study``
and ``compare-mle`` are ``gpcl.study``'s.

Subcommands
-----------
simulate     draw a synthetic series from a named panel (or explicit
             parameters) and write it as CSV
fit          moment-estimator initialization, composite-likelihood fit,
             sandwich standard errors; JSON report on stdout
mc-study     replicated bias/std/RMSE study of the composite-likelihood
             estimator against the method-of-moments benchmark
compare-mle  runtime and accuracy of the composite likelihood against the
             exact Gaussian likelihood over a grid of series lengths
heatmap      composite-likelihood surface over (kappa|beta) x alpha with
             the remaining parameters fixed at sample statistics
profile      profile composite likelihood over kappa (or beta), maximizing
             alpha pointwise
rv           tick files -> gridded, corrected, truncated log-realized-
             variance series
volume       tick files -> detrended log-volume series (single frequency
             or a sweep)
signature    tick files -> volatility signature table

Configuration comes from a flat ``KEY=VALUE`` file (``--config``) with
individual flags taking precedence.  All floats are emitted with 12
significant digits so that repeated runs with the same seed produce
byte-identical outputs.

Exit codes: 0 success, 2 configuration, 3 data, 4 convergence/study
failure, 5 budget.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.optimize

from .asymptotics import DEFAULT_LAG_TRUNCATION, attach_std_errors
from .errors import (
    BudgetError,
    ConfigError,
    DataError,
    DomainError,
    GpclError,
    StudyError,
)
from .hf import (
    RvSeries,
    TickData,
    build_rv_series,
    ingest_ticks,
    volatility_signature,
    volume_series,
)
from .likelihood import (
    DEFAULT_STRIDES,
    _cl_value,
    _ClCore,
    build_default_tuples,
    fit_mcle,
)
from .mle import FULL_LIKELIHOOD_CAP
from .models import FAMILIES, Family, FamilySpec, ModelSpec
from .simulate import read_series_csv, simulate, write_series_csv
from .study import (
    StudyConfig,
    _fmt,
    _log,
    check_design,
    panel_params,
    parse_mean_mode,
    run_mc_study,
    run_replications,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4
EXIT_BUDGET = 5

# Per-family CLI defaults: the log-spaced (kappa|beta) axis of heatmap and
# profile, and simulate's explicit parameters on the reporting scale.
CLI_DEFAULTS = {
    "fou": {"axis": "1e-4:1:25", "simulate": {"kappa": 0.01, "nu": 1.0, "alpha": -0.4}},
    "cauchy": {"axis": "0.05:3:25", "simulate": {"beta": 1.0, "nu": 1.0, "alpha": 0.0}},
}

PSEUDO_PARAMETER_NOTE = (
    "estimates are specific to the fitted correlation family; if the data "
    "were generated by a different family the fit targets the best "
    "approximation within this one (pseudo-true parameters)"
)


def _round12(obj):
    """Recursively round floats to 12 significant digits for JSON output."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _json_text(payload: dict) -> str:
    return json.dumps(_round12(payload), indent=2, sort_keys=True) + "\n"


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        fh = open(path, "w", newline="")
        try:
            yield fh
        finally:
            fh.close()


# ---------------------------------------------------------------------------
# Option plumbing: flat KEY=VALUE config file with flag overrides.


def _load_config(path) -> dict:
    out = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip().lower().replace("-", "_")] = value.strip()
    return out


class Opts:
    """Merged view of CLI flags over a config file over defaults."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.cfg = _load_config(ns.config) if getattr(ns, "config", None) else {}

    def get(self, key: str, default=None, cast=None):
        value = getattr(self.ns, key, None)
        if value is None and key in self.cfg:
            value = self.cfg[key]
        if value is None:
            return default
        # Flags parsed with an argparse type= arrive already converted; comma
        # lists and config-file values arrive as strings and need the cast.
        if cast is not None and isinstance(value, str):
            try:
                value = cast(value)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"option {key}: {exc}") from exc
        return value


def _family_spec(opts: Opts) -> FamilySpec:
    """The ``--family`` option (default fou) as its table entry."""
    name = opts.get("family", "fou")
    try:
        return FAMILIES[Family(name)]
    except ValueError:
        raise ConfigError(f"unknown family {name!r} (expected fou or cauchy)") from None


def _parse_bool(text) -> bool:
    value = str(text).strip().lower()
    if value in ("true", "yes", "1"):
        return True
    if value in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false/yes/no/1/0, got {text!r}")


def _parse_int_list(text) -> tuple:
    if isinstance(text, (tuple, list)):
        return tuple(int(v) for v in text)
    try:
        items = tuple(int(p) for p in str(text).split(",") if p.strip())
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from exc
    if not items:
        raise ConfigError(f"empty integer list {text!r}")
    return items


def _parse_axis(text, log_spaced: bool) -> np.ndarray:
    """'lo:hi:num' -> grid, log-spaced for positive scale axes."""
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(f"axis spec must be lo:hi:num, got {text!r}")
    try:
        lo, hi, num = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad axis spec {text!r}") from exc
    if num < 1:
        raise ConfigError(f"axis needs at least one point, got {num}")
    if lo > hi:
        raise ConfigError(f"axis lower bound {lo} exceeds upper bound {hi}")
    if num == 1:
        return np.array([lo])
    if log_spaced:
        if lo <= 0:
            raise ConfigError(f"log-spaced axis needs positive bounds, got {lo}")
        return np.exp(np.linspace(math.log(lo), math.log(hi), num))
    return np.linspace(lo, hi, num)


def _tuple_set(opts: Opts):
    """Explicit TupleSet when q/strides were configured, else None (auto)."""
    q = opts.get("q", cast=int)
    strides = opts.get("strides", cast=_parse_int_list)
    if q is None and strides is None:
        return None
    return build_default_tuples(
        q if q is not None else 3,
        strides if strides is not None else DEFAULT_STRIDES,
    )


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(opts: Opts) -> int:
    spec = _family_spec(opts)
    family = spec.family.value
    big_t = opts.get("big_t", 1095, cast=int)
    n_per_day = opts.get("n_per_day", 12, cast=int)
    seed = opts.get("seed", 0, cast=int)
    out = opts.get("out")
    mu = opts.get("mu", 0.0, cast=float)
    if out is None:
        raise ConfigError("simulate requires --out (series file path)")
    if big_t < 1 or n_per_day < 1:
        raise ConfigError(f"big_t and n_per_day must be >= 1, got {big_t}, {n_per_day}")

    panel = opts.get("panel")
    if panel is not None:
        params = panel_params(family, panel, mu=mu)
    else:
        defaults = CLI_DEFAULTS[family]["simulate"]
        params = spec.from_report(*(opts.get(k, d, cast=float) for k, d in defaults.items()), mu=mu)

    n = big_t * n_per_day
    series = simulate(params, n, 1.0 / n_per_day, seed=[seed])
    write_series_csv(series, out)
    _log(f"wrote {n} observations to {out} (family={family}, seed={seed})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def _sandwich_dict(report) -> dict:
    return {
        "param_names": list(report.param_names),
        "H": [[float(v) for v in row] for row in report.H_matrix],
        "V": None
        if report.V_matrix is None
        else [[float(v) for v in row] for row in report.V_matrix],
        "G_inverse": None
        if report.G_inverse is None
        else [[float(v) for v in row] for row in report.G_inverse],
        "std_errors": None
        if report.std_errors is None
        else [float(v) for v in report.std_errors],
        "lag_truncation": int(report.lag_truncation),
        "n": int(report.n),
        "regime": report.regime.to_dict(),
        "diagnostics": list(report.diagnostics),
    }


def cmd_fit(opts: Opts) -> int:
    series_path = opts.get("series")
    if series_path is None:
        raise ConfigError("fit requires --series (input CSV path)")
    spec = _family_spec(opts)
    mode, known_mean = parse_mean_mode(opts.get("mean_mode", "estimated"))
    lag_trunc = opts.get("lag_trunc", DEFAULT_LAG_TRUNCATION, cast=int)
    delta = opts.get("delta", cast=float)

    y = read_series_csv(series_path, delta=delta)
    result = fit_mcle(
        y, spec.family, q_set=_tuple_set(opts), mean_mode=mode, known_mean=known_mean
    )
    _log(
        "regime: "
        f"{result.regime.roughness.name}/{result.regime.memory.name}/"
        f"{result.regime.clt_case.name} (decay exponent {result.regime.beta_decay:.6g})"
    )

    notes = [PSEUDO_PARAMETER_NOTE]
    sandwich_payload = None
    if result.converged:
        try:
            report = attach_std_errors(result, lag_cap=lag_trunc)
            if report.std_errors is None:
                # The limit theory refuses honest errors here; report nominal
                # plug-in values instead, clearly tagged.
                report = attach_std_errors(result, lag_cap=lag_trunc, nominal=True)
                notes.append(
                    "reported standard errors are nominal plug-in values "
                    "computed outside the standard Gaussian regime"
                )
            sandwich_payload = _sandwich_dict(report)
        except GpclError as exc:
            notes.append(f"standard errors unavailable: {exc}")
    else:
        notes.append("fit did not converge; partial result reported")

    payload = {
        "fit": result.to_dict(),
        "report_scale": spec.report(result.theta_hat),
        "sandwich": sandwich_payload,
        "notes": notes,
    }
    text = _json_text(payload)
    sys.stdout.write(text)
    out = opts.get("out")
    if out is not None:
        Path(out).write_text(text)
    return EXIT_OK if result.converged else EXIT_CONVERGENCE


# ---------------------------------------------------------------------------
# mc-study


def cmd_mc_study(opts: Opts) -> int:
    config = StudyConfig(
        family=_family_spec(opts).family.value,
        panels=tuple(
            str(p).upper() for p in str(opts.get("panels", "A,B,C,D,E")).split(",") if p
        ),
        big_t=opts.get("big_t", (1095, 1825, 2555), cast=_parse_int_list),
        n_per_day=opts.get("n_per_day", 12, cast=int),
        replications=opts.get("reps", 200, cast=int),
        q=opts.get("q", 3, cast=int),
        strides=opts.get("strides", DEFAULT_STRIDES, cast=_parse_int_list),
        mean_mode=str(opts.get("mean_mode", "known:0")),
        seed=opts.get("seed", 20240915, cast=int),
        out=opts.get("out"),
    )
    report = run_mc_study(config)
    text = report.to_csv_text()
    with _open_out(config.out) as fh:
        fh.write(text)
    if config.out:
        _log(f"wrote study report to {config.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare-mle


def cmd_compare_mle(opts: Opts) -> int:
    spec = _family_spec(opts)
    family = spec.family.value
    panel = str(opts.get("panel", "B")).upper()
    big_t_grid = opts.get("big_t", (10, 50, 100, 150), cast=_parse_int_list)
    n_per_day = opts.get("n_per_day", 12, cast=int)
    reps = opts.get("reps", 3, cast=int)
    seed = opts.get("seed", 20240915, cast=int)
    mode, known_mean = parse_mean_mode(opts.get("mean_mode", "known:0"))
    check_design(big_t_grid, n_per_day, reps)

    params = panel_params(family, panel)
    truth = spec.theta(params)[2]
    delta = 1.0 / n_per_day
    q_set = _tuple_set(opts)

    lines = [
        "# gpcl compare-mle",
        f"# family={family} panel={panel} n_per_day={n_per_day} reps={reps} seed={seed}",
        f"# rmse on {spec.names[2]}; times in seconds (mean over reps)",
    ]
    dropped = [t for t in big_t_grid if t * n_per_day > FULL_LIKELIHOOD_CAP]
    if dropped:
        lines.append(
            f"# note: grid truncated; T={','.join(map(str, dropped))} exceed the "
            f"full-likelihood cap of {FULL_LIKELIHOOD_CAP} observations"
        )
    lines.append("T,n,ml_time,cl_time,time_ratio,ml_rmse,cl_rmse,rmse_ratio")

    for big_t in big_t_grid:
        n = big_t * n_per_day
        if n > FULL_LIKELIHOOD_CAP:
            continue
        # Both likelihoods fit the same draws; each time includes the draws.
        times, rmses = [], []
        for likelihood in ("exact", "composite"):
            t0 = time.perf_counter()
            res = run_replications(
                params, n, delta, lambda rep: [seed, big_t, rep], reps,
                likelihood=likelihood, q_set=q_set, mean_mode=mode, known_mean=known_mean,
            )
            times.append((time.perf_counter() - t0) / reps)
            if res.failures:
                raise res.failures[0][1]
            rmses.append(float(np.sqrt(np.mean(np.square(res.theta[:, 2] - truth)))))
        (ml_time, cl_time), (ml_rmse, cl_rmse) = times, rmses
        values = (ml_time, cl_time, cl_time / ml_time, ml_rmse, cl_rmse, cl_rmse / ml_rmse)
        lines.append(",".join([str(big_t), str(n)] + [_fmt(v) for v in values]))
        _log(f"compare-mle: T={big_t} n={n} done (ml {ml_time:.3g}s, cl {cl_time:.3g}s)")
    with _open_out(opts.get("out")) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# heatmap


def cmd_heatmap(opts: Opts) -> int:
    series_path = opts.get("series")
    if series_path is None:
        raise ConfigError("heatmap requires --series (input CSV path)")
    spec = _family_spec(opts)
    family = spec.family.value
    y = read_series_csv(series_path, delta=opts.get("delta", cast=float))

    x_name = spec.names[0]
    xs = _parse_axis(opts.get("grid_x", CLI_DEFAULTS[family]["axis"]), log_spaced=True)
    alphas = _parse_axis(opts.get("grid_alpha", "-0.45:0.45:19"), log_spaced=False)
    max_cells = opts.get("max_cells", 10_000, cast=int)
    if xs.size * alphas.size > max_cells:
        raise BudgetError(
            f"grid of {xs.size}x{alphas.size} = {xs.size * alphas.size} cells "
            f"exceeds the budget of {max_cells} (raise --max-cells to override)"
        )

    # The sweep holds the location and scale at their sample statistics so
    # the surface shows only (persistence, roughness).
    mu = float(np.nanmean(y.values))
    nu = float(np.nanstd(y.values))
    q_set = _tuple_set(opts) or build_default_tuples()

    grid = np.full((xs.size, alphas.size), np.nan)
    failures = 0
    try:
        core = _ClCore(y, q_set)
    except GpclError as exc:
        raise DataError("composite likelihood failed on every grid cell") from exc
    for i, x in enumerate(xs):
        for j, a in enumerate(alphas):
            try:
                grid[i, j] = _cl_value(core, ModelSpec(spec.from_report(x, nu, a, mu), "known"))
            except GpclError:
                failures += 1
    if not np.isfinite(grid).any():
        raise DataError("composite likelihood failed on every grid cell")
    best = np.unravel_index(np.nanargmax(grid), grid.shape)

    mode, known_mean = parse_mean_mode(opts.get("mean_mode", "estimated"))
    fit_cell = None
    fit_note = ""
    try:
        fit = fit_mcle(y, spec.family, q_set=q_set, mean_mode=mode, known_mean=known_mean)
        fit_x, fit_a = fit.theta_hat[0], spec.report(fit.theta_hat)["alpha"]
        fit_cell = (
            int(np.argmin(np.abs(np.log(xs) - math.log(fit_x)))),
            int(np.argmin(np.abs(alphas - fit_a))),
        )
        fit_note = (
            f"# mcle {x_name}={_fmt(fit_x)} alpha={_fmt(fit_a)} "
            f"loglik={_fmt(fit.loglik)} converged={fit.converged}"
        )
    except GpclError as exc:
        fit_note = f"# mcle marker unavailable: {exc}"

    lines = [
        "# gpcl heatmap",
        f"# family={family} series={series_path}",
        f"# fixed mu={_fmt(mu)} nu={_fmt(nu)} (sample statistics)",
        f"# argmax {x_name}={_fmt(xs[best[0]])} alpha={_fmt(alphas[best[1]])} "
        f"cl={_fmt(grid[best])}",
        fit_note,
    ]
    if failures:
        lines.append(f"# eval-failures: {failures}")
    lines.append("x_param,x,alpha,cl,is_argmax,is_mcle_cell")
    for i, x in enumerate(xs):
        for j, a in enumerate(alphas):
            lines.append(
                ",".join(
                    [
                        x_name,
                        _fmt(x),
                        _fmt(a),
                        _fmt(grid[i, j]),
                        "1" if (i, j) == best else "0",
                        "1" if fit_cell == (i, j) else "0",
                    ]
                )
            )
    with _open_out(opts.get("out")) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# profile


def cmd_profile(opts: Opts) -> int:
    series_path = opts.get("series")
    if series_path is None:
        raise ConfigError("profile requires --series (input CSV path)")
    spec = _family_spec(opts)
    family = spec.family.value
    y = read_series_csv(series_path, delta=opts.get("delta", cast=float))
    mode, known_mean = parse_mean_mode(opts.get("mean_mode", "estimated"))
    q_set = _tuple_set(opts) or build_default_tuples()
    x_name = spec.names[0]
    xs = list(_parse_axis(opts.get("axis", CLI_DEFAULTS[family]["axis"]), log_spaced=True))
    include_fit = opts.get("include_fit", True, cast=_parse_bool)
    fix = opts.get("fix", "fit")
    if fix not in ("fit", "sample"):
        raise ConfigError(f"--fix must be 'fit' or 'sample', got {fix!r}")

    fit = None
    fit_note = ""
    try:
        fit = fit_mcle(y, spec.family, q_set=q_set, mean_mode=mode, known_mean=known_mean)
        fit_note = (
            f"# mcle {x_name}={_fmt(fit.theta_hat[0])} loglik={_fmt(fit.loglik)} "
            f"converged={fit.converged}"
        )
    except GpclError as exc:
        fit_note = f"# mcle fit unavailable: {exc}"
        if fix == "fit":
            raise DataError(
                f"profile with --fix fit needs a successful fit: {exc}"
            ) from exc

    if fix == "fit":
        nu = float(fit.theta_hat[1])
        mu = float(fit.mu_value)
    else:
        nu = float(np.nanstd(y.values))
        mu = float(np.nanmean(y.values))

    try:
        core = _ClCore(y, q_set)
    except GpclError as exc:
        raise DataError("profile evaluation failed at every point") from exc

    # The family's own roughness box, on the alpha scale.
    roughness = spec.defs[2]
    alpha_bounds = (roughness.lo - spec.alpha_offset, roughness.hi - spec.alpha_offset)

    def _inner_max(x):
        def objective(a):
            try:
                return -_cl_value(core, ModelSpec(spec.from_report(x, nu, a, mu), mode))
            except GpclError:
                return np.inf

        res = scipy.optimize.minimize_scalar(
            objective,
            bounds=alpha_bounds,
            method="bounded",
            options={"xatol": 1e-7},
        )
        if not np.isfinite(res.fun):
            return np.nan, np.nan
        return float(res.x), float(-res.fun)

    rows = []
    for x in xs:
        alpha_max, cl = _inner_max(float(x))
        rows.append((float(x), alpha_max, cl, 0))
    if include_fit and fit is not None:
        x_hat = float(fit.theta_hat[0])
        alpha_max, cl = _inner_max(x_hat)
        rows.append((x_hat, alpha_max, cl, 1))
        rows.sort(key=lambda r: r[0])

    finite = [r[2] for r in rows if math.isfinite(r[2])]
    if not finite:
        raise DataError("profile evaluation failed at every point")
    cl_max = max(finite)

    lines = [
        "# gpcl profile",
        f"# family={family} series={series_path} fix={fix} "
        f"mu={_fmt(mu)} nu={_fmt(nu)}",
        fit_note,
        "x_param,x,alpha_max,cl,profile_norm,at_fit,ok",
    ]
    for x, alpha_max, cl, at_fit in rows:
        ok = math.isfinite(cl)
        lines.append(
            ",".join(
                [
                    x_name,
                    _fmt(x),
                    _fmt(alpha_max) if ok else "",
                    _fmt(cl) if ok else "",
                    _fmt(math.exp(cl - cl_max)) if ok else "",
                    str(at_fit),
                    "1" if ok else "0",
                ]
            )
        )
    with _open_out(opts.get("out")) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tick pipeline commands


def _ingest_path(path) -> TickData:
    p = Path(path)
    if p.is_dir():
        files = sorted(p.glob("*.csv"))
        if not files:
            raise DataError(f"{p}: no .csv files found")
        parts = [ingest_ticks(f) for f in files]
        ts = np.concatenate([t.timestamp_ms for t in parts])
        order = np.argsort(ts, kind="stable")
        return TickData(
            timestamp_ms=ts[order],
            price=np.concatenate([t.price for t in parts])[order],
            quantity=np.concatenate([t.quantity for t in parts])[order],
            quote_volume=np.concatenate([t.quote_volume for t in parts])[order],
            rows_total=sum(t.rows_total for t in parts),
            rows_malformed=sum(t.rows_malformed for t in parts),
            source=str(p),
        )
    return ingest_ticks(p)


def _write_block_csv(series: RvSeries, path) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "block", "value"])
        for d, day in enumerate(series.day_index):
            for b in range(series.blocks_per_day):
                v = series.values[d, b]
                writer.writerow(
                    [int(day), b, _fmt(v) if np.isfinite(v) else ""]
                )


def _pipeline_report(ticks: TickData, series_list) -> dict:
    return {
        "rows_total": int(ticks.rows_total),
        "rows_malformed": int(ticks.rows_malformed),
        "source": ticks.source,
        "series": [
            {
                "kind": s.kind,
                "blocks_per_day": int(s.blocks_per_day),
                "n_days": int(len(s.day_index)),
                "corrected": bool(s.corrected),
                "diagnostics": list(s.diagnostics),
            }
            for s in series_list
        ],
    }


def _report_path(out) -> Path | None:
    if out in (None, "-"):
        return None
    p = Path(out)
    return p.with_suffix(p.suffix + ".report.json")


def cmd_rv(opts: Opts) -> int:
    data = opts.get("data")
    if data is None:
        raise ConfigError("rv requires --data (tick CSV file or directory)")
    ticks = _ingest_path(data)
    series = build_rv_series(
        ticks,
        slot_seconds=opts.get("slot_seconds", 15, cast=int),
        preavg_window=opts.get("preavg_window", 5, cast=int),
        blocks_per_day=opts.get("blocks", 12, cast=int),
        truncation_c=opts.get("trunc_c", 4.0, cast=float),
    )
    out = opts.get("out")
    _write_block_csv(series, out)
    report = _report_path(out)
    if report is not None:
        report.write_text(_json_text(_pipeline_report(ticks, [series])))
        _log(f"wrote {out} and {report}")
    return EXIT_OK


def cmd_volume(opts: Opts) -> int:
    data = opts.get("data")
    if data is None:
        raise ConfigError("volume requires --data (tick CSV file or directory)")
    ticks = _ingest_path(data)
    block_grid = opts.get("block_grid", cast=_parse_int_list)
    out = opts.get("out")
    if block_grid is not None:
        if out in (None, "-"):
            raise ConfigError("volume --block-grid requires --out (file stem)")
        base = Path(out)
        all_series = []
        for blocks in block_grid:
            series = volume_series(ticks, blocks_per_day=blocks)
            path = base.with_name(f"{base.stem}_{blocks}{base.suffix or '.csv'}")
            _write_block_csv(series, path)
            all_series.append(series)
        report = _report_path(out)
        if report is not None:
            report.write_text(_json_text(_pipeline_report(ticks, all_series)))
        _log(f"wrote one volume series per frequency: blocks={block_grid}")
        return EXIT_OK
    series = volume_series(ticks, blocks_per_day=opts.get("blocks", 12, cast=int))
    _write_block_csv(series, out)
    report = _report_path(out)
    if report is not None:
        report.write_text(_json_text(_pipeline_report(ticks, [series])))
        _log(f"wrote {out} and {report}")
    return EXIT_OK


def cmd_signature(opts: Opts) -> int:
    data = opts.get("data")
    if data is None:
        raise ConfigError("signature requires --data (tick CSV file or directory)")
    ticks = _ingest_path(data)
    seconds = opts.get("freqs", (1, 5, 15, 60, 300, 600), cast=_parse_int_list)
    table = volatility_signature(ticks, seconds=seconds)
    lines = [
        "# gpcl signature",
        f"# n_days={table.n_days}",
        "seconds,scaled_rv,lower,upper",
    ]
    for i in range(len(table.seconds)):
        lines.append(
            ",".join(
                [
                    str(int(table.seconds[i])),
                    _fmt(table.scaled_rv[i]),
                    _fmt(table.lower[i]),
                    _fmt(table.upper[i]),
                ]
            )
        )
    with _open_out(opts.get("out")) as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcl",
        description=(
            "Composite-likelihood estimation for stationary Gaussian processes: "
            "simulation, fitting, replication studies, and tick-data pipelines."
        ),
        epilog=(
            "exit codes: 0 success, 2 configuration, 3 data, "
            "4 convergence/study failure, 5 budget"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat KEY=VALUE config file")
        p.add_argument("--family", choices=[f.value for f in Family])
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path ('-' or omitted = stdout)")

    p = sub.add_parser("simulate", help="draw a synthetic series to CSV")
    common(p)
    p.add_argument("--panel", help="named parameter set A-E")
    p.add_argument("--big-t", type=int, dest="big_t", help="horizon in days")
    p.add_argument("--n-per-day", type=int, dest="n_per_day")
    p.add_argument("--kappa", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--mu", type=float)

    p = sub.add_parser("fit", help="MME init -> MCLE fit -> sandwich SEs (JSON)")
    common(p)
    p.add_argument("--series", help="input series CSV")
    p.add_argument("--delta", type=float, help="override the series time step")
    p.add_argument("--q", type=int, choices=(2, 3))
    p.add_argument("--strides")
    p.add_argument("--mean-mode", dest="mean_mode", help="known[:<v>] or estimated")
    p.add_argument("--lag-trunc", type=int, dest="lag_trunc")

    p = sub.add_parser("mc-study", help="replicated bias/std/RMSE study")
    common(p)
    p.add_argument("--panels", help="comma list of panels (default A,B,C,D,E)")
    p.add_argument("--big-t", dest="big_t", help="comma list of horizons in days")
    p.add_argument("--n-per-day", type=int, dest="n_per_day")
    p.add_argument("--reps", type=int)
    p.add_argument("--q", type=int, choices=(2, 3))
    p.add_argument("--strides")
    p.add_argument("--mean-mode", dest="mean_mode")

    p = sub.add_parser(
        "compare-mle", help="runtime/RMSE of composite vs full likelihood"
    )
    common(p)
    p.add_argument("--panel")
    p.add_argument("--big-t", dest="big_t", help="comma list of horizons in days")
    p.add_argument("--n-per-day", type=int, dest="n_per_day")
    p.add_argument("--reps", type=int)
    p.add_argument("--q", type=int, choices=(2, 3))
    p.add_argument("--strides")
    p.add_argument("--mean-mode", dest="mean_mode")

    p = sub.add_parser("heatmap", help="cl surface over (kappa|beta) x alpha")
    common(p)
    p.add_argument("--series")
    p.add_argument("--delta", type=float)
    p.add_argument("--grid-x", dest="grid_x", help="lo:hi:num (log-spaced)")
    p.add_argument("--grid-alpha", dest="grid_alpha", help="lo:hi:num (linear)")
    p.add_argument("--max-cells", type=int, dest="max_cells")
    p.add_argument("--q", type=int, choices=(2, 3))
    p.add_argument("--strides")
    p.add_argument("--mean-mode", dest="mean_mode")

    p = sub.add_parser("profile", help="profile cl over kappa|beta, maxing alpha")
    common(p)
    p.add_argument("--series")
    p.add_argument("--delta", type=float)
    p.add_argument("--axis", help="lo:hi:num (log-spaced outer grid)")
    p.add_argument(
        "--fix",
        choices=("fit", "sample"),
        help="hold (mu, nu) at the fitted values (default) or sample statistics",
    )
    p.add_argument(
        "--include-fit",
        action=argparse.BooleanOptionalAction,
        dest="include_fit",
        help="append the fitted point to the outer grid (default: yes)",
    )
    p.add_argument("--q", type=int, choices=(2, 3))
    p.add_argument("--strides")
    p.add_argument("--mean-mode", dest="mean_mode")

    p = sub.add_parser("rv", help="tick data -> log-realized-variance series")
    common(p)
    p.add_argument("--data", help="tick CSV file or directory of CSVs")
    p.add_argument("--slot-seconds", type=int, dest="slot_seconds")
    p.add_argument("--preavg-window", type=int, dest="preavg_window")
    p.add_argument("--blocks", type=int)
    p.add_argument("--trunc-c", type=float, dest="trunc_c")

    p = sub.add_parser("volume", help="tick data -> detrended log-volume series")
    common(p)
    p.add_argument("--data")
    p.add_argument("--blocks", type=int)
    p.add_argument(
        "--block-grid",
        dest="block_grid",
        help="comma list of blocks-per-day; one output series per entry",
    )

    p = sub.add_parser("signature", help="tick data -> volatility signature table")
    common(p)
    p.add_argument("--data")
    p.add_argument("--freqs", help="comma list of sampling intervals in seconds")

    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "mc-study": cmd_mc_study,
    "compare-mle": cmd_compare_mle,
    "heatmap": cmd_heatmap,
    "profile": cmd_profile,
    "rv": cmd_rv,
    "volume": cmd_volume,
    "signature": cmd_signature,
}


def _exit_code_for(exc: GpclError) -> int:
    if isinstance(exc, (ConfigError, DomainError)):
        return EXIT_CONFIG
    if isinstance(exc, BudgetError):
        return EXIT_BUDGET
    if isinstance(exc, StudyError):
        return EXIT_CONVERGENCE
    return EXIT_DATA


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        opts = Opts(ns)
        return _COMMANDS[ns.command](opts)
    except GpclError as exc:
        _log(f"error: {exc}")
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
