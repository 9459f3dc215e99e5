"""Exact Gaussian likelihood on the full Toeplitz covariance.

This is the small-n oracle: a plain Cholesky of the dense n-by-n
covariance, deliberately capped because the cost grows cubically.  It
anchors the identity "composite likelihood with the single full tuple
equals the exact likelihood" and the runtime comparisons against the
composite fit.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz

from ._optim import maximize
from .errors import (
    CovarianceError,
    DataError,
    GpclError,
    SampleSizeError,
)
from .likelihood import _normalize_mean_mode, _start_vector
from .models import Family, ModelSpec, correlation_grid, family_spec
from .simulate import SampleSeries

__all__ = ["MleResult", "full_loglik", "fit_mle", "FULL_LIKELIHOOD_CAP"]

FULL_LIKELIHOOD_CAP = 4096

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class MleResult:
    """Exact-likelihood fit output (see EstimationResult for field meanings)."""

    family: Family
    param_names: tuple[str, ...]
    theta_hat: np.ndarray
    mu_hat: float | str
    mu_value: float
    loglik: float
    runtime_seconds: float
    n: int
    delta: float
    iterations: int
    converged: bool
    init: np.ndarray
    mean_mode: str
    diagnostics: tuple[str, ...] = ()


def _dense_factor(model: ModelSpec, n: int, delta: float, n_cap: int):
    if n > n_cap:
        raise SampleSizeError(
            f"full likelihood is capped at n={n_cap} (Cholesky cost grows as "
            f"n^3); got n={n}. Use the composite likelihood instead."
        )
    params = model.params
    sigma = toeplitz(params.nu**2 * correlation_grid(params, delta, n))
    try:
        c, low = cho_factor(sigma, lower=True, check_finite=False)
    except (np.linalg.LinAlgError, ValueError):
        raise CovarianceError(
            f"full covariance of order {n} is not positive definite"
        ) from None
    logdet = 2.0 * float(np.log(np.diag(c)).sum())
    return (c, low), logdet


def full_loglik(model: ModelSpec, y: SampleSeries, n_cap: int = FULL_LIKELIHOOD_CAP) -> float:
    """Exact log-density of the series under the stationary Gaussian model.

    Uses ``model.params.mu`` as the mean; in estimated-mean mode the GLS
    profile value (exact for the full covariance) is substituted first, so
    the value matches the profiled composite likelihood of the full tuple.
    """
    vals = y.values
    if not np.isfinite(vals).all():
        raise DataError("full likelihood requires a gap-free series")
    n = vals.size
    factor, logdet = _dense_factor(model, n, y.delta, n_cap)
    if model.mean_is_estimated:
        ones = np.ones(n)
        w_ones = cho_solve(factor, ones, check_finite=False)
        mu = float(w_ones @ vals) / float(w_ones @ ones)
    else:
        mu = model.params.mu
    u = vals - mu
    quad = float(u @ cho_solve(factor, u, check_finite=False))
    return -0.5 * (n * _LOG_2PI + logdet + quad)


def fit_mle(
    y: SampleSeries,
    family,
    init=None,
    mean_mode: str = "known",
    known_mean: float = 0.0,
    max_iters: int = 500,
    n_cap: int = FULL_LIKELIHOOD_CAP,
) -> MleResult:
    """Maximize the exact likelihood; same optimizer contract as fit_mcle."""
    if not isinstance(y, SampleSeries):
        raise DataError("y must be a SampleSeries (wrap raw values first)")
    spec = family_spec(family)
    mode = _normalize_mean_mode(mean_mode)
    n = y.values.size
    if n > n_cap:
        raise SampleSizeError(
            f"full likelihood is capped at n={n_cap} (Cholesky cost grows as "
            f"n^3); got n={n}. Use the composite likelihood instead."
        )
    diagnostics: list[str] = []
    init_used = _start_vector(y, spec, init, mode, known_mean, diagnostics)

    mode_kwargs = {"mean_mode": mode}

    def objective(theta: np.ndarray) -> float:
        try:
            params = spec.make(theta, known_mean if mode == "known" else 0.0)
            return full_loglik(ModelSpec(params, **mode_kwargs), y, n_cap=n_cap)
        except GpclError:
            return -math.inf

    start = time.perf_counter()
    opt = maximize(objective, spec.defs, init_used, max_iters=max_iters)
    runtime = time.perf_counter() - start

    theta_hat = opt.x
    params_tmp = spec.make(theta_hat, known_mean if mode == "known" else 0.0)
    model_hat = ModelSpec(params_tmp, **mode_kwargs)
    loglik = full_loglik(model_hat, y, n_cap=n_cap)
    if mode == "estimated":
        factor, _ = _dense_factor(model_hat, n, y.delta, n_cap)
        ones = np.ones(n)
        w_ones = cho_solve(factor, ones, check_finite=False)
        mu_value = float(w_ones @ y.values) / float(w_ones @ ones)
    else:
        mu_value = float(known_mean)

    converged = bool(opt.step_converged and math.isfinite(loglik))
    if not opt.step_converged:
        diagnostics.append("step-criterion-unmet")
    return MleResult(
        family=spec.family,
        param_names=spec.names,
        theta_hat=theta_hat,
        mu_hat="known" if mode == "known" else mu_value,
        mu_value=mu_value,
        loglik=loglik,
        runtime_seconds=runtime,
        n=n,
        delta=y.delta,
        iterations=opt.nfev,
        converged=converged,
        init=init_used,
        mean_mode=mode,
        diagnostics=tuple(diagnostics),
    )
