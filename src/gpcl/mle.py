"""Exact Gaussian likelihood on the full Toeplitz covariance.

This is the small-n oracle: a plain Cholesky of the dense n-by-n
covariance, deliberately capped because the cost grows cubically.  It
anchors the identity "composite likelihood with the single full tuple
equals the exact likelihood" and the runtime comparisons against the
composite fit.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, toeplitz

from .errors import CovarianceError, DataError, SampleSizeError
from .likelihood import EstimationResult, _fit, _series_length
from .models import ModelSpec, Params, correlation_grid
from .simulate import SampleSeries

__all__ = ["full_loglik", "fit_mle", "FULL_LIKELIHOOD_CAP"]

FULL_LIKELIHOOD_CAP = 4096

_LOG_2PI = math.log(2.0 * math.pi)


class _ExactCore:
    """A gap-free series of at most ``n_cap`` points, ready for exact evaluation."""

    __slots__ = ("values", "delta", "n")
    masked_rows = 0  # gaps are refused, never masked

    def __init__(self, series: SampleSeries, n_cap: int):
        n = _series_length(series)
        if n > n_cap:
            raise SampleSizeError(
                f"full likelihood is capped at n={n_cap} (Cholesky cost grows as "
                f"n^3); got n={n}. Use the composite likelihood instead."
            )
        if not np.isfinite(series.values).all():
            raise DataError("full likelihood requires a gap-free series")
        self.values = series.values
        self.delta = series.delta
        self.n = n

    def evaluate(self, params: Params, mu: float | None) -> tuple[float, float]:
        """Exact log-likelihood and the mean actually used.

        ``mu=None`` substitutes the GLS mean, which is exact for the full
        covariance; otherwise the given value is held fixed.
        """
        n = self.n
        sigma = toeplitz(params.nu**2 * correlation_grid(params, self.delta, n))
        try:
            factor = cho_factor(sigma, lower=True, check_finite=False)
        except (np.linalg.LinAlgError, ValueError):
            raise CovarianceError(
                f"full covariance of order {n} is not positive definite"
            ) from None
        logdet = 2.0 * float(np.log(np.diag(factor[0])).sum())
        if mu is None:
            ones = np.ones(n)
            w_ones = cho_solve(factor, ones, check_finite=False)
            mu = float(w_ones @ self.values) / float(w_ones @ ones)
        u = self.values - mu
        quad = float(u @ cho_solve(factor, u, check_finite=False))
        return -0.5 * (n * _LOG_2PI + logdet + quad), mu


def full_loglik(model: ModelSpec, y: SampleSeries, n_cap: int = FULL_LIKELIHOOD_CAP) -> float:
    """Exact log-density of the series under the stationary Gaussian model.

    Uses ``model.params.mu`` as the mean; in estimated-mean mode the GLS
    profile value (exact for the full covariance) is substituted first, so
    the value matches the profiled composite likelihood of the full tuple.
    """
    mu = None if model.mean_is_estimated else model.params.mu
    return _ExactCore(y, n_cap).evaluate(model.params, mu)[0]


def fit_mle(
    y: SampleSeries,
    family,
    init=None,
    mean_mode: str = "known",
    known_mean: float = 0.0,
    max_iters: int = 500,
    n_cap: int = FULL_LIKELIHOOD_CAP,
) -> EstimationResult:
    """Maximize the exact likelihood through the driver ``fit_mcle`` uses.

    The result has no tuple set (``tuple_set`` is None) and no standard
    errors, and ``converged`` rests on the step criterion alone: the
    composite fit's natural-scale gradient criterion is not applied.
    """
    return _fit(y, family, _ExactCore(y, n_cap), None, init, mean_mode, known_mean, max_iters)
