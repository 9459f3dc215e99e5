"""Moment-based benchmark estimators built on realized power variations.

The roughness index comes from a change-of-frequency ratio of strided
second-order power variations; the remaining parameters follow from
second-moment identities (fOU) or from least-squares matching of the
sample autocorrelation at a fixed set of lags (Cauchy).  These estimators
are fast and derivative-free, and double as starting values for the
composite-likelihood fit.

Gap markers (NaN) in empirical series are skipped term-by-term; all
normalizations use the count of surviving terms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import gamma as gamma_fn

from ._optim import ParamDef
from .errors import (
    DataError,
    DegenerateSeriesError,
    DomainError,
    GpclError,
    NonIdentifiedError,
    SampleSizeError,
)
from .models import FAMILIES, CauchyParams, Family, cauchy_acf
from .simulate import SampleSeries

__all__ = [
    "MmeResult",
    "power_variation",
    "cof_alpha",
    "mme_fou",
    "mme_cauchy",
    "mme_estimate",
    "match_beta",
    "fou_init",
    "cauchy_init",
]

_FOU = FAMILIES[Family.FOU]
_CAUCHY = FAMILIES[Family.CAUCHY]
BETA_SEARCH_BOUNDS = (_CAUCHY.defs[0].lo, _CAUCHY.defs[0].hi)
DEFAULT_MATCH_LAGS = (1, 6, 12, 24, 60)


@dataclass(frozen=True)
class MmeResult:
    """Moment-estimator output; exactly one of kappa_hat / beta_hat is set."""

    family: Family
    alpha_hat: float
    hurst_hat: float
    nu_hat: float
    mu_hat: float
    kappa_hat: float | None = None
    beta_hat: float | None = None

    def __post_init__(self) -> None:
        if self.hurst_hat != self.alpha_hat + 0.5:
            raise DomainError("hurst_hat must equal alpha_hat + 0.5 exactly")

    def report(self) -> dict:
        """Estimates on the shared ``(kappa|beta, nu, alpha)`` reporting scale."""
        first = FAMILIES[self.family].names[0]
        return {first: getattr(self, f"{first}_hat"), "nu": self.nu_hat, "alpha": self.alpha_hat}


def _coerce(y, delta):
    """Accept a SampleSeries or a plain vector (then ``delta`` is required)."""
    if isinstance(y, SampleSeries):
        vals = y.values
        if delta is None:
            delta = y.delta
    else:
        vals = np.asarray(y, dtype=float)
        if vals.ndim != 1:
            raise DataError(f"series must be one-dimensional, got shape {vals.shape}")
    if delta is None:
        raise DataError("delta is required when y is a bare vector")
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(f"delta must be positive and finite, got {delta}")
    return vals, delta


def _strided_diff_terms(vals: np.ndarray, k: int, eta: int) -> np.ndarray:
    d = vals
    for _ in range(k):
        d = d[eta:] - d[:-eta]
    return d[np.isfinite(d)]


def power_variation(y, p: float, k: int, eta: int, delta=None) -> float:
    """Sum of |k-th order, eta-strided difference|^p over all full windows.

    The first usable index is ``eta*k`` past the series start, giving
    ``n - eta*k`` terms on a gap-free series.
    """
    vals, _ = _coerce(y, delta if delta is not None else 1.0)
    if not p > 0:
        raise DomainError(f"p must be > 0, got {p}")
    if k not in (1, 2):
        raise DomainError(f"difference order k must be 1 or 2, got {k}")
    if eta not in (1, 2):
        raise DomainError(f"stride eta must be 1 or 2, got {eta}")
    if vals.size <= eta * k:
        raise SampleSizeError(
            f"need more than eta*k = {eta * k} observations, got {vals.size}"
        )
    terms = _strided_diff_terms(vals, k, eta)
    if terms.size == 0:
        raise DataError("every difference term hits a gap marker")
    return float(np.sum(np.abs(terms) ** p))


def cof_alpha(y, delta=None, p: float = 2.0) -> float:
    """Roughness index from the change-of-frequency ratio.

    Doubling the stride of the second-order variation scales it by
    ``2^{p(alpha + 1/2)}``, so ``alpha = log2(ratio)/p - 1/2``.  Values
    outside (-1/2, 1/2) are returned as-is; range policing happens where
    a model parameter is actually constructed.
    """
    vals, delta = _coerce(y, delta)
    v_wide = power_variation(vals, p, 2, 2, delta)
    v_narrow = power_variation(vals, p, 2, 1, delta)
    if v_narrow <= 0.0 or v_wide <= 0.0:
        raise DegenerateSeriesError(
            "power variation vanished (constant or linear series); "
            "the frequency ratio is undefined"
        )
    return math.log2(v_wide / v_narrow) / p - 0.5


def _mean_and_msd(vals: np.ndarray, known_mean) -> tuple[float, float]:
    finite = vals[np.isfinite(vals)]
    if finite.size == 0:
        raise DataError("series has no usable observations")
    mu = float(known_mean) if known_mean is not None else float(finite.mean())
    msd = float(np.mean((finite - mu) ** 2))
    return mu, msd


def _fou_kappa(vals: np.ndarray, delta: float, hurst: float, msd: float) -> float | None:
    """``kappa`` from the stationary-variance identity ``msd = a^2 H Gamma(2H) kappa^{-2H}``.

    The amplitude ``a^2`` comes from the second-difference variation; None
    when it or the sample variance ``msd`` vanishes.
    """
    two_h = 2.0 * hurst
    diffs = _strided_diff_terms(vals, 2, 1)
    amp_sq = float(np.sum(diffs**2)) / ((diffs.size + 2) * (4.0 - 2.0**two_h) * delta**two_h)
    if not (msd > 0.0 and amp_sq > 0.0):
        return None
    return (msd / (amp_sq * hurst * gamma_fn(two_h))) ** (-1.0 / two_h)


def mme_fou(y, delta=None, known_mean=None) -> MmeResult:
    """Moment estimators for the fOU family.

    The roughness comes from ``cof_alpha``; the second-difference variation
    identifies the diffusion-scale amplitude, and combining it with the
    sample variance inverts the stationary-variance identity
    ``var = a^2 H Gamma(2H) kappa^{-2H}`` for ``kappa``.  The reported
    ``nu_hat`` is the stationary standard deviation (the model's ``nu``
    parametrization); ``mu_hat`` is the sample average unless a known mean
    is supplied.
    """
    vals, delta = _coerce(y, delta)
    alpha = cof_alpha(vals, delta)
    hurst = alpha + 0.5
    if not 0.0 < hurst < 1.0:
        raise DomainError(
            f"implied Hurst exponent {hurst:.4f} lies outside (0, 1); "
            "clamp only for MCLE initialization, never for reported "
            "moment-estimator output"
        )
    mu, msd = _mean_and_msd(vals, known_mean)
    kappa = _fou_kappa(vals, delta, hurst, msd)
    if kappa is None:
        raise DegenerateSeriesError("zero variance; fOU moments undefined")
    return MmeResult(
        family=Family.FOU,
        alpha_hat=alpha,
        hurst_hat=hurst,
        nu_hat=math.sqrt(msd),
        mu_hat=mu,
        kappa_hat=kappa,
    )


def mme_estimate(y, family: Family, known_mean=None) -> MmeResult:
    """``mme_fou`` or ``mme_cauchy``, whichever estimates ``family``."""
    estimate = mme_fou if family is Family.FOU else mme_cauchy
    return estimate(y, known_mean=known_mean)


def _sample_acf(vals: np.ndarray, mu: float, msd: float, lags) -> np.ndarray:
    """Pairwise-complete sample autocorrelations at integer grid lags."""
    z = vals - mu
    out = np.empty(len(lags))
    for i, h in enumerate(lags):
        prod = z[: z.size - h] * z[h:]
        prod = prod[np.isfinite(prod)]
        if prod.size == 0:
            raise DataError(f"no complete observation pairs at lag {h}")
        out[i] = prod.mean() / msd
    return out


def match_beta(rho_hat, lags, alpha: float, delta: float, bounds=BETA_SEARCH_BOUNDS) -> float:
    """Least-squares decay exponent matching correlations at the given lags.

    ``lags`` are in grid units; the fit minimizes the sum of squared
    differences between ``rho_hat`` and the model correlation with the
    supplied roughness ``alpha``.  A minimizer stuck at either search
    bound means the lag set carries no information about the decay.
    """
    rho_hat = np.asarray(rho_hat, dtype=float)
    times = np.asarray(lags, dtype=float) * delta
    if rho_hat.shape != times.shape:
        raise DomainError("rho_hat and lags must have matching shapes")
    lo, hi = bounds

    def loss(b: float) -> float:
        model = cauchy_acf(CauchyParams(beta=b, nu=1.0, alpha=alpha), times)
        return float(np.sum((rho_hat - model) ** 2))

    res = minimize_scalar(loss, bounds=(lo, hi), method="bounded", options={"xatol": 1e-9})
    beta = float(res.x)
    if beta <= lo + 1e-6 or beta >= hi - 1e-3:
        raise NonIdentifiedError(
            f"decay matching ran to the search bound ({beta:.6g}); "
            "the sampled lags do not identify beta"
        )
    return beta


def mme_cauchy(y, delta=None, known_mean=None, match_lags=DEFAULT_MATCH_LAGS) -> MmeResult:
    """Moment estimators for the Cauchy family.

    Roughness from ``cof_alpha`` (must land inside (-1/2, 1/2) here),
    ``nu_hat`` as the root mean squared deviation from the mean, and the
    decay exponent from correlation matching at ``match_lags``.
    """
    vals, delta = _coerce(y, delta)
    alpha = cof_alpha(vals, delta)
    if not -0.5 < alpha < 0.5:
        raise DomainError(
            f"roughness estimate {alpha:.4f} lies outside (-1/2, 1/2); "
            "clamp only for MCLE initialization, never for reported "
            "moment-estimator output"
        )
    mu, msd = _mean_and_msd(vals, known_mean)
    if msd <= 0.0:
        raise DegenerateSeriesError("zero variance; Cauchy moments undefined")
    lags = [int(h) for h in match_lags if 0 < h < vals.size]
    if not lags:
        raise SampleSizeError("series shorter than every correlation-matching lag")
    rho_hat = _sample_acf(vals, mu, msd, lags)
    beta = match_beta(rho_hat, lags, alpha, delta)
    return MmeResult(
        family=Family.CAUCHY,
        alpha_hat=alpha,
        hurst_hat=alpha + 0.5,
        nu_hat=math.sqrt(msd),
        mu_hat=mu,
        beta_hat=beta,
    )


# ---------------------------------------------------------------------------
# Starting values for the likelihood fits: same moments, but clamped into
# the optimizer's box instead of raising, with notes recording what had to
# be patched up.
# ---------------------------------------------------------------------------


def _clip_noted(value: float, box: ParamDef, notes: list[str]) -> float:
    clipped = min(max(value, box.lo), box.hi)
    if clipped != value and "init-clamped" not in notes:
        notes.append("init-clamped")
    return clipped


def fou_init(y, delta=None, known_mean=None) -> tuple[np.ndarray, list[str]]:
    """Clamped (kappa, nu, hurst) start vector for the fOU likelihood fit."""
    vals, delta = _coerce(y, delta)
    notes: list[str] = []
    _, msd = _mean_and_msd(vals, known_mean)
    nu = math.sqrt(msd) if msd > 0 else 1.0
    try:
        alpha = cof_alpha(vals, delta)
    except GpclError:
        notes.append("init-fallback")
        return _FOU.start(nu), notes
    kappa_box, _, hurst_box = _FOU.defs
    hurst = _clip_noted(alpha + 0.5, hurst_box, notes)
    kappa = _fou_kappa(vals, delta, hurst, msd)
    if kappa is None:
        kappa = _FOU.neutral[0]
        notes.append("init-fallback")
    kappa = _clip_noted(kappa, kappa_box, notes)
    return np.array([kappa, nu, hurst]), notes


def cauchy_init(y, delta=None, known_mean=None, match_lags=DEFAULT_MATCH_LAGS) -> tuple[np.ndarray, list[str]]:
    """Clamped (beta, nu, alpha) start vector for the Cauchy likelihood fit."""
    vals, delta = _coerce(y, delta)
    notes: list[str] = []
    mu, msd = _mean_and_msd(vals, known_mean)
    nu = math.sqrt(msd) if msd > 0 else 1.0
    try:
        alpha = cof_alpha(vals, delta)
    except GpclError:
        notes.append("init-fallback")
        return _CAUCHY.start(nu), notes
    beta_box, _, alpha_box = _CAUCHY.defs
    alpha = _clip_noted(alpha, alpha_box, notes)
    beta = _CAUCHY.neutral[0]
    try:
        lags = [int(h) for h in match_lags if 0 < h < vals.size]
        if lags and msd > 0:
            beta = match_beta(_sample_acf(vals, mu, msd, lags), lags, alpha, delta)
        else:
            notes.append("init-fallback")
    except GpclError:
        notes.append("init-fallback")
    beta = _clip_noted(beta, beta_box, notes)
    return np.array([beta, nu, alpha]), notes
