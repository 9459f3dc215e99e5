"""Parametric autocorrelation families and rate-regime classification.

Two stationary Gaussian families are supported:

* a fractional Ornstein-Uhlenbeck process parametrized by mean reversion
  ``kappa``, stationary standard deviation ``nu``, and Hurst exponent
  ``hurst`` (roughness index ``alpha = hurst - 1/2``);
* a Cauchy-class process parametrized by roughness index ``alpha``,
  memory decay exponent ``beta``, and standard deviation ``nu``, whose
  correlation is ``(1 + |h|^{2a+1})^{-b/(2a+1)}``.

Both expose true correlations (``rho(0) == 1``); autocovariances are
``nu**2 * rho``.  Correlations are evaluated at exactly the lags asked
for; the fOU correlation has a special-function closed form with an
adaptive-quadrature twin kept for cross-checking.

``FAMILIES`` maps each ``Family`` to its ``FamilySpec``, the one place that
says what distinguishes the two: the params type, the free parameters in
order with the boxes and transforms the fits search, theta <-> params
conversion, the report map to ``(kappa|beta, nu, alpha)``, the neutral
start, the correlation function and the inputs of ``classify_regime``.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc, hyp1f1

from ._optim import ParamDef
from .errors import DomainError

__all__ = [
    "Family",
    "FouParams",
    "CauchyParams",
    "ModelSpec",
    "FamilySpec",
    "FAMILIES",
    "family_spec",
    "spec_of",
    "Roughness",
    "Memory",
    "CltCase",
    "RegimeLabel",
    "fou_acf",
    "cauchy_acf",
    "acv_vector",
    "correlation_at_lags",
    "correlation_grid",
    "classify_regime",
    "arfima_d_from_beta",
]

# Integration window: exp(-40) is far below the quadrature tolerance, so the
# truncated mass never registers.
_QUAD_CUT = 40.0
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-11


class Family(enum.Enum):
    FOU = "fou"
    CAUCHY = "cauchy"


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class FouParams:
    """Fractional Ornstein-Uhlenbeck parameters.

    ``kappa``: mean-reversion speed (> 0, per day when lags are in days).
    ``nu``: stationary standard deviation (> 0).
    ``hurst``: Hurst exponent of the driving noise, in (0, 1).
    ``mu``: stationary mean.
    """

    kappa: float
    nu: float
    hurst: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "kappa", _check_finite("kappa", self.kappa))
        object.__setattr__(self, "nu", _check_finite("nu", self.nu))
        object.__setattr__(self, "hurst", _check_finite("hurst", self.hurst))
        object.__setattr__(self, "mu", _check_finite("mu", self.mu))
        if self.kappa <= 0:
            raise DomainError(f"kappa must be > 0, got {self.kappa}")
        if self.nu <= 0:
            raise DomainError(f"nu must be > 0, got {self.nu}")
        if not 0.0 < self.hurst < 1.0:
            raise DomainError(f"hurst must lie in (0, 1), got {self.hurst}")

    @property
    def alpha(self) -> float:
        """Roughness index, ``hurst - 1/2``."""
        return self.hurst - 0.5

    @property
    def scale_b(self) -> float:
        """Variance-normalizing constant ``sqrt(kappa^{2H} / (H * Gamma(2H)))``."""
        two_h = 2.0 * self.hurst
        return math.sqrt(self.kappa**two_h / (self.hurst * gamma_fn(two_h)))


@dataclass(frozen=True)
class CauchyParams:
    """Cauchy-class parameters.

    ``beta``: tail decay exponent (> 0); long memory when beta <= 1.
    ``nu``: stationary standard deviation (> 0).
    ``alpha``: roughness index in (-1/2, 1/2); rough paths when alpha < 0.
    ``mu``: stationary mean.
    """

    beta: float
    nu: float
    alpha: float
    mu: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _check_finite("beta", self.beta))
        object.__setattr__(self, "nu", _check_finite("nu", self.nu))
        object.__setattr__(self, "alpha", _check_finite("alpha", self.alpha))
        object.__setattr__(self, "mu", _check_finite("mu", self.mu))
        if self.beta <= 0:
            raise DomainError(f"beta must be > 0, got {self.beta}")
        if self.nu <= 0:
            raise DomainError(f"nu must be > 0, got {self.nu}")
        if not -0.5 < self.alpha < 0.5:
            raise DomainError(f"alpha must lie in (-1/2, 1/2), got {self.alpha}")

    @property
    def fractal_exponent(self) -> float:
        """Origin-behavior exponent ``2*alpha + 1``, in (0, 2)."""
        return 2.0 * self.alpha + 1.0


Params = FouParams | CauchyParams

@dataclass(frozen=True)
class ModelSpec:
    """A parametric family plus how its mean is treated during estimation.

    ``mean_mode`` is ``"known"`` (the mean is ``params.mu`` and fixed) or
    ``"estimated"`` (the mean is profiled out / reported by estimators;
    ``params.mu`` is then the current value, e.g. the simulation truth).
    """

    params: Params
    mean_mode: str = "known"

    def __post_init__(self) -> None:
        spec_of(self.params)
        if self.mean_mode not in ("known", "estimated"):
            raise DomainError(f"mean_mode must be 'known' or 'estimated', got {self.mean_mode!r}")

    @property
    def spec(self) -> FamilySpec:
        return spec_of(self.params)

    @property
    def family(self) -> Family:
        return self.spec.family

    @property
    def mean_is_estimated(self) -> bool:
        return self.mean_mode == "estimated"


class Roughness(enum.Enum):
    ROUGH = "rough"
    BROWNIAN = "brownian"
    SMOOTH = "smooth"


class Memory(enum.Enum):
    SHORT = "short"
    LONG = "long"


class CltCase(enum.Enum):
    CASE1_GAUSSIAN = "CASE1_GAUSSIAN"
    CASE2_BOUNDARY = "CASE2_BOUNDARY"
    CASE3_ROSENBLATT = "CASE3_ROSENBLATT"


@dataclass(frozen=True)
class RegimeLabel:
    roughness: Roughness
    memory: Memory
    clt_case: CltCase
    beta_decay: float

    def to_dict(self) -> dict:
        return {
            "roughness": self.roughness.name,
            "memory": self.memory.name,
            "clt_case": self.clt_case.name,
            "beta_decay": float(self.beta_decay),
        }


def _fou_shifted_integrand(y: float, x: float, two_h: float) -> float:
    # Variance-reduced form of the defining integral: subtracting
    # x^{2H} * e^{-|y|} inside the integral (its total mass is exactly
    # 2 x^{2H}) removes the catastrophic cancellation at large kappa*h.
    return math.exp(-abs(y)) * (abs(x + y) ** two_h - x**two_h)


def _fou_correlation_scalar(kappa: float, hurst: float, h: float) -> float:
    x = kappa * abs(h)
    two_h = 2.0 * hurst
    pts = sorted({p for p in (-x, 0.0) if -_QUAD_CUT < p < _QUAD_CUT})
    integral, _ = quad(
        _fou_shifted_integrand,
        -_QUAD_CUT,
        _QUAD_CUT,
        args=(x, two_h),
        points=pts or None,
        epsabs=_QUAD_EPSABS,
        epsrel=_QUAD_EPSREL,
        limit=400,
    )
    # The shifted integral equals I(x) - 2 x^{2H}, i.e. twice the bracketed
    # quantity of the raw expression; the prefactor b^2 / (2 kappa^{2H})
    # = 1 / (2 H Gamma(2H)) then makes rho_0 = 1.
    return 0.25 * integral / (hurst * gamma_fn(two_h))


# Beyond this point exp(x) would lose the closed form to overflow and
# cancellation; an even-order asymptotic expansion takes over.
_FOU_ASYMPTOTIC_X = 600.0


def _fou_correlation_closed(kappa: float, hurst: float, h) -> np.ndarray:
    """Vectorized fOU correlation via incomplete-gamma / 1F1 identities.

    Splitting the defining integral at its kinks gives, with ``x = kappa|h|``
    and ``a = 2H + 1``,

        I(x) = e^x Gamma(a) Q(a, x)                       (right tail)
             + x^a e^{-x} 1F1(a; a+1; x) / a              (inner piece)
             + Gamma(a) e^{-x},                           (reflected tail)

    where ``Q`` is the regularized upper incomplete gamma, and the
    correlation is ``(I(x) - 2 x^{2H}) / (4 H Gamma(2H))``.  For ``x``
    beyond the overflow range the even terms of the large-``x`` expansion
    ``I - 2x^{2H} = 2 x^{2H} sum_{k even} ff_k(2H) / x^k`` are used
    (``ff_k`` the falling factorial), which is also free of cancellation.
    At ``H = 1/2`` the closed form collapses to ``e^{-x}`` exactly.
    """
    x = kappa * np.abs(np.asarray(h, dtype=float))
    two_h = 2.0 * hurst
    a = two_h + 1.0
    norm = 4.0 * hurst * gamma_fn(two_h)
    out = np.empty(x.shape, dtype=float)

    small = x < _FOU_ASYMPTOTIC_X
    if small.any():
        xs = x[small]
        gam_a = gamma_fn(a)
        ex_neg = np.exp(-xs)
        i_val = (
            np.exp(xs) * gam_a * gammaincc(a, xs)
            + xs**a * ex_neg * hyp1f1(a, a + 1.0, xs) / a
            + gam_a * ex_neg
        )
        out[small] = (i_val - 2.0 * xs**two_h) / norm
    if not small.all():
        xb = x[~small]
        series = np.zeros_like(xb)
        ff = 1.0
        inv_x2 = 1.0 / (xb * xb)
        power = np.ones_like(xb)
        for k in range(1, 13):
            ff *= two_h - (k - 1)
            if k % 2 == 0:
                power = power * inv_x2
                series += ff * power
        out[~small] = xb**two_h * series / (2.0 * hurst * gamma_fn(two_h))
    return out


def fou_acf(params: FouParams, h):
    """Correlation of the stationary fOU process at lag ``h`` (time units).

    Evaluates the defining integral in closed form (incomplete gamma plus
    confluent hypergeometric pieces) normalized so the lag-zero value is
    exactly one.  Accepts a scalar or an array of lags; negative lags are
    folded by symmetry.
    """
    arr = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("lag h must be finite")
    out = _fou_correlation_closed(params.kappa, params.hurst, arr)
    if arr.ndim == 0:
        return float(out[()])
    return out


def cauchy_acf(params: CauchyParams, h):
    """Correlation ``(1 + |h|^{2a+1})^{-b/(2a+1)}`` of the Cauchy class."""
    arr = np.asarray(h, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("lag h must be finite")
    a = params.fractal_exponent
    out = (1.0 + np.abs(arr) ** a) ** (-params.beta / a)
    if arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class FamilySpec:
    """Everything that distinguishes one parametric family from the other.

    ``defs`` are the free parameters in the params type's field order, each
    with the box the likelihood fits search and the optimizer's transform
    (log for positive parameters, scaled logit for interval ones);
    moment-estimator starting values are clipped into the same boxes.
    ``alpha_offset`` is the third parameter minus the roughness index
    (``hurst = alpha + 1/2``), which gives the report map
    ``theta -> (kappa|beta, nu, alpha)``.  ``neutral`` is the start used
    where the data carry no moment information, with ``nu`` as a
    placeholder.  ``correlation(params, times)`` evaluates the correlation at
    a 1-d array of time lags, and ``regime(params)`` gives the decay
    exponent and the long-memory flag that ``classify_regime`` labels.
    """

    family: Family
    params_type: type
    defs: tuple[ParamDef, ...]
    alpha_offset: float
    neutral: tuple[float, float, float]
    correlation: Callable[[Params, np.ndarray], np.ndarray]
    regime: Callable[[Params], tuple[float, bool]]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.defs)

    def make(self, theta, mu: float) -> Params:
        return self.params_type(*theta, mu=mu)

    def theta(self, params: Params) -> np.ndarray:
        return np.array([getattr(params, name) for name in self.names])

    def start(self, nu: float) -> np.ndarray:
        """The neutral start vector at scale ``nu``."""
        return np.array([self.neutral[0], nu, self.neutral[2]])

    def report(self, theta) -> dict:
        """``theta`` on the shared ``(kappa|beta, nu, alpha)`` reporting scale."""
        return {
            self.names[0]: float(theta[0]),
            "nu": float(theta[1]),
            "alpha": float(theta[2]) - self.alpha_offset,
        }

    def from_report(self, x: float, nu: float, alpha: float, mu: float) -> Params:
        """Params from reporting-scale values, the inverse of ``report``."""
        return self.params_type(x, nu, alpha + self.alpha_offset, mu=mu)


FAMILIES = {
    Family.FOU: FamilySpec(
        family=Family.FOU,
        params_type=FouParams,
        defs=(
            ParamDef("kappa", 1e-8, 1e3, "log"),
            ParamDef("nu", 1e-8, 1e3, "log"),
            ParamDef("hurst", 0.001, 0.999, "logit"),
        ),
        alpha_offset=0.5,
        neutral=(0.1, 1.0, 0.5),
        correlation=lambda p, t: _fou_correlation_closed(p.kappa, p.hurst, t),
        regime=lambda p: (2.0 * (1.0 - p.hurst), p.hurst > 0.5),
    ),
    Family.CAUCHY: FamilySpec(
        family=Family.CAUCHY,
        params_type=CauchyParams,
        defs=(
            ParamDef("beta", 1e-4, 50.0, "log"),
            ParamDef("nu", 1e-8, 1e3, "log"),
            ParamDef("alpha", -0.499, 0.499, "logit"),
        ),
        alpha_offset=0.0,
        neutral=(1.0, 1.0, 0.0),
        correlation=cauchy_acf,
        regime=lambda p: (p.beta, p.beta <= 1.0),
    ),
}
_SPEC_BY_TYPE = {spec.params_type: spec for spec in FAMILIES.values()}


def family_spec(family) -> FamilySpec:
    """Table entry for a ``Family`` or its name (case-insensitive)."""
    if not isinstance(family, Family):
        try:
            family = Family(str(family).lower())
        except ValueError:
            raise DomainError(f"unknown family {family!r}") from None
    return FAMILIES[family]


def spec_of(params: Params) -> FamilySpec:
    """Table entry for a params instance's family."""
    spec = _SPEC_BY_TYPE.get(type(params))
    if spec is None:
        raise DomainError(f"unsupported params type {type(params).__name__}")
    return spec


def _raw_correlation(params: Params, times: np.ndarray) -> np.ndarray:
    return spec_of(params).correlation(params, times)


def correlation_at_lags(params: Params, delta: float, lags) -> np.ndarray:
    """Correlations at integer lag multiples of ``delta``, shaped like ``lags``."""
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(f"delta must be positive and finite, got {delta}")
    lag_arr = np.asarray(lags, dtype=np.int64)
    if lag_arr.size == 0:
        return np.empty(lag_arr.shape)
    if lag_arr.min() < 0:
        raise DomainError("lags must be nonnegative integers")
    vals = _raw_correlation(params, lag_arr.ravel() * delta)
    return vals.reshape(lag_arr.shape)


def correlation_grid(params: Params, delta: float, n_lags: int) -> np.ndarray:
    """Dense correlation grid ``rho(0), rho(delta), ..., rho((n_lags-1) delta)``."""
    if n_lags < 1:
        raise DomainError("n_lags must be >= 1")
    return _raw_correlation(params, np.arange(n_lags) * delta)


def acv_vector(model: ModelSpec, lags, delta: float) -> np.ndarray:
    """Autocovariances ``nu^2 * rho(lag * delta)`` at integer lags."""
    rho = correlation_at_lags(model.params, delta, lags)
    return model.params.nu**2 * rho


def classify_regime(model: ModelSpec) -> RegimeLabel:
    """Roughness/memory labels and the CLT case of the score asymptotics.

    The decay exponent ``beta_decay`` is the hyperbolic tail index of the
    correlation: ``2(1 - H)`` for the fOU family and ``beta`` for the Cauchy
    class.  The central-limit case is the standard Gaussian one whenever the
    exponent exceeds 1/2 (as it does wherever the correlation is
    integrable), the boundary case at exactly 1/2, and the Rosenblatt regime
    below 1/2.
    """
    p = model.params
    beta_decay, long_memory = model.spec.regime(p)
    alpha = p.alpha
    if alpha < 0:
        rough = Roughness.ROUGH
    elif alpha == 0:
        rough = Roughness.BROWNIAN
    else:
        rough = Roughness.SMOOTH
    if beta_decay > 0.5:
        case = CltCase.CASE1_GAUSSIAN
    elif beta_decay == 0.5:
        case = CltCase.CASE2_BOUNDARY
    else:
        case = CltCase.CASE3_ROSENBLATT
    return RegimeLabel(
        roughness=rough,
        memory=Memory.LONG if long_memory else Memory.SHORT,
        clt_case=case,
        beta_decay=beta_decay,
    )


def arfima_d_from_beta(beta_decay: float) -> float:
    """Fractional differencing order implied by a decay exponent in (0, 1]."""
    b = float(beta_decay)
    if not (math.isfinite(b) and 0.0 < b <= 1.0):
        raise DomainError(f"beta_decay must lie in (0, 1], got {beta_decay}")
    return (1.0 - b) / 2.0
