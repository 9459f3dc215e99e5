"""Replication studies: simulate at a seed, fit, collect the estimates.

``run_replications`` is the one loop that repeats simulate -> fit (composite
or exact likelihood) over seeded replications and records what each one
returned or raised.  ``run_mc_study`` builds the ``gpcl mc-study`` design on
it: the Monte Carlo panels crossed with horizons, composite likelihood
against the method of moments.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

import numpy as np

from .asymptotics import attach_std_errors
from .errors import ConfigError, DomainError, GpclError, StudyError
from .likelihood import DEFAULT_STRIDES, TupleSet, build_default_tuples, fit_mcle
from .mle import fit_mle
from .mme import mme_estimate
from .models import FAMILIES, CauchyParams, Family, FouParams, Params, spec_of
from .simulate import simulate

# Monte Carlo panels: five (persistence, scale, roughness) corners per
# family, ordered from rough/persistent to smooth/fast-reverting.
PANELS = {
    "fou": {
        "A": FouParams(kappa=0.005, nu=1.25, hurst=0.05),
        "B": FouParams(kappa=0.010, nu=0.75, hurst=0.10),
        "C": FouParams(kappa=0.015, nu=0.50, hurst=0.30),
        "D": FouParams(kappa=0.035, nu=0.30, hurst=0.50),
        "E": FouParams(kappa=0.070, nu=0.20, hurst=0.70),
    },
    "cauchy": {
        "A": CauchyParams(beta=0.25, nu=1.25, alpha=-0.45),
        "B": CauchyParams(beta=0.50, nu=0.75, alpha=-0.40),
        "C": CauchyParams(beta=0.75, nu=0.50, alpha=-0.20),
        "D": CauchyParams(beta=1.00, nu=0.30, alpha=0.00),
        "E": CauchyParams(beta=1.25, nu=0.20, alpha=0.20),
    },
}
PANEL_ORDER = "ABCDE"


def _log(msg: str) -> None:
    print(f"gpcl: {msg}", file=sys.stderr)


def panel_params(family: str, panel: str, mu: float = 0.0) -> Params:
    try:
        base = PANELS[family][panel.upper()]
    except KeyError:
        raise ConfigError(
            f"unknown panel {panel!r} for family {family!r} (expected A-E)"
        ) from None
    return dataclasses.replace(base, mu=mu)


def parse_mean_mode(text) -> tuple:
    """'known', 'known:<value>', or 'estimated' -> (mode, known_mean)."""
    text = str(text).strip().lower()
    if text == "estimated":
        return "estimated", 0.0
    if text == "known":
        return "known", 0.0
    if text.startswith("known:"):
        try:
            return "known", float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad mean-mode value {text!r}") from exc
    raise ConfigError(f"mean-mode must be 'known[:<value>]' or 'estimated', got {text!r}")


def check_design(big_t, n_per_day: int, replications: int) -> None:
    """Refuse a replication design with no replications or no observations."""
    if replications < 1:
        raise ConfigError(f"replications must be >= 1, got {replications}")
    if any(t < 1 for t in big_t):
        raise ConfigError(f"horizons must be >= 1, got {big_t}")
    if n_per_day < 1:
        raise ConfigError(f"n_per_day must be >= 1, got {n_per_day}")


# ---------------------------------------------------------------------------
# The replication runner


@dataclass(frozen=True)
class Replications:
    """Per-replication outcomes of ``run_replications``, one row per rep.

    ``theta`` (R, p) holds every fit that returned, converged or not; a row
    is NaN only where the replication raised, and ``failures`` lists those
    as (rep, exception) pairs in rep order.  ``mu`` is the mean in effect.
    ``std_errors`` (R, p, plus the mean's when it is estimated) and ``mme``
    (R, p + 1: the moment estimates on the ``(kappa|beta, nu, alpha)``
    reporting scale, then the mean) are None unless asked for, and are
    filled only for converged fits; a refused sandwich leaves its row NaN.
    """

    theta: np.ndarray
    mu: np.ndarray
    converged: np.ndarray
    std_errors: np.ndarray | None
    mme: np.ndarray | None
    failures: tuple


def run_replications(
    params: Params,
    n: int,
    delta: float,
    seed_of,
    reps: int,
    likelihood: str = "composite",
    q_set: TupleSet | None = None,
    mean_mode: str = "known",
    known_mean: float = 0.0,
    std_errors: bool = False,
    mme: bool = False,
) -> Replications:
    """Simulate ``reps`` paths of ``params`` at seeds ``seed_of(rep)`` and fit each.

    ``likelihood`` is ``"composite"`` (``fit_mcle`` with ``q_set``) or
    ``"exact"`` (``fit_mle``).  A ``GpclError`` raised by a fit, its
    sandwich or its moment estimate is recorded and the next rep runs; an
    error from the simulator propagates, as it concerns every rep alike.
    """
    if likelihood not in ("composite", "exact"):
        raise DomainError(f"likelihood must be 'composite' or 'exact', got {likelihood!r}")
    spec = spec_of(params)
    p = len(spec.names)
    theta = np.full((reps, p), np.nan)
    mu = np.full(reps, np.nan)
    converged = np.zeros(reps, dtype=bool)
    ses = np.full((reps, p + (mean_mode == "estimated")), np.nan) if std_errors else None
    mmes = np.full((reps, p + 1), np.nan) if mme else None
    failures = []
    for rep in range(reps):
        y = simulate(params, n, delta, seed_of(rep))
        try:
            if likelihood == "composite":
                fit = fit_mcle(y, spec.family, q_set, mean_mode=mean_mode, known_mean=known_mean)
            else:
                fit = fit_mle(y, spec.family, mean_mode=mean_mode, known_mean=known_mean)
            if fit.converged and std_errors:
                attach_std_errors(fit)
            moments = None
            if fit.converged and mme:
                moments = mme_estimate(
                    y, spec.family, known_mean=None if mean_mode == "estimated" else known_mean
                )
        except GpclError as exc:
            failures.append((rep, exc))
            continue
        theta[rep], mu[rep], converged[rep] = fit.theta_hat, fit.mu_value, fit.converged
        if fit.std_errors is not None:
            ses[rep] = fit.std_errors
        if moments is not None:
            mmes[rep] = [*moments.report().values(), moments.mu_hat]
    return Replications(theta, mu, converged, ses, mmes, tuple(failures))


# ---------------------------------------------------------------------------
# mc-study


@dataclass(frozen=True)
class StudyConfig:
    """Design of a replication study: panels x horizons at one family."""

    family: str = "fou"
    panels: tuple = ("A", "B", "C", "D", "E")
    big_t: tuple = (1095, 1825, 2555)
    n_per_day: int = 12
    replications: int = 200
    q: int = 3
    strides: tuple = DEFAULT_STRIDES
    mean_mode: str = "known:0"
    seed: int = 20240915
    out: str | None = None

    def __post_init__(self):
        if self.family not in PANELS:
            raise ConfigError(f"unknown family {self.family!r}")
        bad = [p for p in self.panels if p.upper() not in PANELS[self.family]]
        if bad:
            raise ConfigError(f"unknown panels {bad} (expected A-E)")
        check_design(self.big_t, self.n_per_day, self.replications)


@dataclass(frozen=True)
class StudyRow:
    param: str
    true_value: float
    mcle_bias: float
    mcle_std: float
    mme_bias: float
    mme_std: float
    rmse_mcle: float
    rmse_mme: float

    @property
    def rmse_ratio(self) -> float:
        return self.rmse_mcle / self.rmse_mme


@dataclass(frozen=True)
class StudyCell:
    panel: str
    big_t: int
    reps_used: int
    failures: int
    rows: tuple


@dataclass(frozen=True)
class StudyReport:
    """Per-(panel, horizon) bias/std/RMSE summary for both estimators."""

    config: StudyConfig
    cells: tuple
    warnings: tuple = ()

    def __post_init__(self):
        for cell in self.cells:
            for row in cell.rows:
                if not row.rmse_ratio > 0:
                    raise StudyError(
                        f"non-positive RMSE ratio for {cell.panel}/T={cell.big_t} "
                        f"{row.param}: {row.rmse_ratio}"
                    )

    def to_csv_text(self) -> str:
        cfg = self.config
        lines = [
            "# gpcl mc-study",
            f"# family={cfg.family} mean_mode={cfg.mean_mode} "
            f"n_per_day={cfg.n_per_day} replications={cfg.replications} "
            f"seed={cfg.seed} q={cfg.q} strides={','.join(map(str, cfg.strides))}",
            "# rmse_ratio = RMSE(composite likelihood) / RMSE(method of moments)",
        ]
        for w in self.warnings:
            lines.append(f"# warning: {w}")
        for cell in self.cells:
            lines.append(
                f"# panel={cell.panel} T={cell.big_t} "
                f"reps_used={cell.reps_used} failures={cell.failures}"
            )
        lines.append(
            "panel,T,param,true,mcle_bias,mcle_std,mme_bias,mme_std,"
            "rmse_mcle,rmse_mme,rmse_ratio"
        )
        for cell in self.cells:
            for r in cell.rows:
                values = (r.true_value, r.mcle_bias, r.mcle_std, r.mme_bias, r.mme_std,
                          r.rmse_mcle, r.rmse_mme, r.rmse_ratio)
                lines.append(",".join([cell.panel, str(cell.big_t), r.param, *map(_fmt, values)]))
        return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    """Canonical float rendering: 12 significant digits, blank if not finite."""
    xf = float(x)
    return f"{xf:.12g}" if math.isfinite(xf) else ""


def _study_row(param: str, true_value: float, a: np.ndarray, b: np.ndarray) -> StudyRow:
    """Bias, std and RMSE of the composite (``a``) and moment (``b``) draws."""
    used = a.size
    return StudyRow(
        param=param,
        true_value=true_value,
        mcle_bias=float(np.mean(a) - true_value),
        mcle_std=float(np.std(a, ddof=1)) if used > 1 else 0.0,
        mme_bias=float(np.mean(b) - true_value),
        mme_std=float(np.std(b, ddof=1)) if used > 1 else 0.0,
        rmse_mcle=float(np.sqrt(np.mean((a - true_value) ** 2))),
        rmse_mme=float(np.sqrt(np.mean((b - true_value) ** 2))),
    )


def run_mc_study(config: StudyConfig) -> StudyReport:
    """Replicate simulate -> (MCLE, MME) over the configured design.

    A replication fails if it raised or its composite fit did not converge;
    each failure is logged to stderr, and more than 5% failed in one cell
    raises ``StudyError``.
    """
    spec = FAMILIES[Family(config.family)]
    mode, known_mean = parse_mean_mode(config.mean_mode)
    q_set = build_default_tuples(config.q, config.strides)
    reps = config.replications
    warnings = []
    if reps == 1:
        warnings.append("replications=1: replication stds are degenerate and reported as 0")
    cells = []
    for panel in config.panels:
        panel = panel.upper()
        params = panel_params(config.family, panel)
        truth = spec.report(spec.theta(params))
        if mode == "estimated":
            truth["mu"] = params.mu
        for big_t in config.big_t:
            res = run_replications(
                params, big_t * config.n_per_day, 1.0 / config.n_per_day,
                lambda rep: [config.seed, PANEL_ORDER.index(panel), big_t, rep], reps,
                q_set=q_set, mean_mode=mode, known_mean=known_mean, mme=True,
            )
            raised = dict(res.failures)
            for rep in np.flatnonzero(~res.converged):
                why = raised.get(rep, "composite-likelihood fit did not converge")
                _log(f"mc-study rep failed (panel={panel}, T={big_t}, rep={rep}): {why}")
            failures = int(np.count_nonzero(~res.converged))
            if failures > 0.05 * reps:
                raise StudyError(
                    f"panel {panel} T={big_t}: {failures}/{reps} "
                    "replications failed (more than 5%)"
                )
            # Composite estimates on the reporting scale, as the moment ones are.
            mcle = np.column_stack(
                [res.theta[:, :2], res.theta[:, 2] - spec.alpha_offset, res.mu]
            )[res.converged]
            mme = res.mme[res.converged]
            rows = tuple(
                _study_row(k, true_value, mcle[:, j], mme[:, j])
                for j, (k, true_value) in enumerate(truth.items())
            )
            cells.append(StudyCell(panel, big_t, reps - failures, failures, rows))
    return StudyReport(config=config, cells=tuple(cells), warnings=tuple(warnings))
