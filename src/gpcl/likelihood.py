"""Tuple-based composite likelihood: evaluation, GLS mean, score, and fit.

The objective is a sum of low-dimensional Gaussian log-densities over
sliding index tuples.  Because every tuple shares one covariance matrix
across all window positions, the data enter only through per-tuple
sufficient statistics (counts, column sums, cross products) computed once
per series; each objective evaluation then costs O(K q^2) regardless of
the series length.  Evaluation is single-threaded and accumulates tuples
in declaration order, so results are bit-stable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from . import mme as _mme
from ._optim import clamp_to_box, maximize
from .errors import (
    CovarianceError,
    DataError,
    DomainError,
    EvaluationError,
    GpclError,
    SampleSizeError,
)
from .models import (
    FAMILIES,
    Family,
    FamilySpec,
    ModelSpec,
    Params,
    RegimeLabel,
    classify_regime,
    correlation_at_lags,
    family_spec,
)
from .simulate import SampleSeries

__all__ = [
    "TupleSet",
    "EstimationResult",
    "build_default_tuples",
    "tuple_covariance",
    "cl_eval",
    "cl_score",
    "gls_mean",
    "fit_mcle",
    "DEFAULT_STRIDES",
]

_LOG_2PI = math.log(2.0 * math.pi)
_GRAD_TOL = 1e-4
# Tuples at least this long skip the cross-product route and whiten the
# stacked windows directly (cheaper and more stable when q is large).
_WHITEN_MIN_Q = 9

DEFAULT_STRIDES = (1, 6, 12, 24, 60)


@dataclass(frozen=True)
class TupleSet:
    """Index tuples defining the composite likelihood.

    Each tuple starts at 0 with strictly increasing nonnegative entries;
    a tuple (0, k_2, ..., k_q) contributes one q-variate density per
    window position i, sliding over the series.
    """

    tuples: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        norm = []
        for tup in self.tuples:
            clean = tuple(int(k) for k in tup)
            if len(clean) < 1 or clean[0] != 0:
                raise DomainError(f"tuple {tup} must start at index 0")
            if any(b <= a for a, b in zip(clean, clean[1:])):
                raise DomainError(f"tuple {tup} must be strictly increasing")
            norm.append(clean)
        if not norm:
            raise DomainError("a TupleSet needs at least one tuple")
        object.__setattr__(self, "tuples", tuple(norm))

    @property
    def K(self) -> int:
        return len(self.tuples)

    @property
    def q_max(self) -> int:
        return max(len(t) for t in self.tuples)

    @property
    def max_index(self) -> int:
        return max(t[-1] for t in self.tuples)


def build_default_tuples(q: int = 3, strides=DEFAULT_STRIDES) -> TupleSet:
    """Pairwise (0, l) or triwise (0, l, 2l) tuples, one per stride."""
    if q not in (2, 3):
        raise DomainError(f"q must be 2 or 3, got {q}")
    strides = tuple(int(s) for s in strides)
    if not strides:
        raise DomainError("strides must be nonempty")
    if any(s <= 0 for s in strides):
        raise DomainError(f"strides must be positive, got {strides}")
    if len(set(strides)) != len(strides):
        raise DomainError(f"strides must be distinct, got {strides}")
    if q == 2:
        return TupleSet(tuple((0, s) for s in strides))
    return TupleSet(tuple((0, s, 2 * s) for s in strides))


def _lag_gather(tuples) -> tuple[np.ndarray, list[np.ndarray]]:
    """Distinct within-tuple lags, and each tuple's lag matrix as indices into them."""
    mats = [np.abs(np.subtract.outer(t, t)) for t in map(np.asarray, tuples)]
    lags, flat = np.unique(np.concatenate([m.ravel() for m in mats]), return_inverse=True)
    cuts = np.cumsum([m.size for m in mats])[:-1]
    return lags, [i.reshape(m.shape) for i, m in zip(np.split(flat, cuts), mats)]


def _tuple_sigmas(params: Params, delta: float, lags, index) -> list[np.ndarray]:
    """Every tuple's covariance from one correlation evaluation at ``lags``."""
    acv = params.nu**2 * correlation_at_lags(params, delta, lags)
    return [acv[idx] for idx in index]


def tuple_covariance(model: ModelSpec, tup, delta: float) -> np.ndarray:
    """Within-tuple covariance matrix, verified positive definite."""
    tup = tuple(int(k) for k in tup)
    if len(tup) < 1 or tup[0] != 0 or any(b <= a for a, b in zip(tup, tup[1:])):
        raise DomainError(f"invalid index tuple {tup}")
    (sigma,) = _tuple_sigmas(model.params, delta, *_lag_gather((tup,)))
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise CovarianceError(
            f"near-singular covariance for tuple {tup}"
        ) from None
    return sigma


# ---------------------------------------------------------------------------
# Sufficient statistics.  The series is centered at its (gap-aware) sample
# mean once; any candidate mean then enters only as the scalar offset
# m = mu - ybar, keeping the cross products well conditioned.
# ---------------------------------------------------------------------------


class _TupleStats:
    __slots__ = ("tup", "q", "count", "s1", "s2", "windows")

    def __init__(self, tup, q, count, s1, s2, windows):
        self.tup = tup
        self.q = q
        self.count = count
        self.s1 = s1
        self.s2 = s2
        self.windows = windows


class _ClCore:
    """Per-series workspace shared by every objective evaluation."""

    __slots__ = ("delta", "n", "ybar", "stats", "masked_rows", "lags", "lag_index")

    def __init__(self, series: SampleSeries, q_set: TupleSet):
        vals = series.values
        self.delta = series.delta
        self.n = vals.size
        if q_set.max_index >= self.n:
            raise SampleSizeError(
                f"max tuple index {q_set.max_index} needs a series longer "
                f"than {q_set.max_index}, got n={self.n}"
            )
        finite = np.isfinite(vals)
        if not finite.any():
            raise DataError("series has no usable observations")
        self.ybar = float(vals[finite].mean())
        self.lags, self.lag_index = _lag_gather(q_set.tuples)
        z = vals - self.ybar
        has_gap = not finite.all()
        self.masked_rows = 0
        self.stats: list[_TupleStats] = []
        for tup in q_set.tuples:
            q = len(tup)
            rows = self.n - tup[-1]
            cols = [z[k : k + rows] for k in tup]
            if has_gap:
                valid = np.ones(rows, dtype=bool)
                for c in cols:
                    valid &= np.isfinite(c)
                count = int(valid.sum())
                self.masked_rows += rows - count
                if count == 0:
                    raise DataError(f"tuple {tup}: every window hits a gap")
                cols = [c[valid] for c in cols]
            else:
                count = rows
            s1 = np.array([c.sum() for c in cols])
            if q < _WHITEN_MIN_Q:
                s2 = np.empty((q, q))
                for a in range(q):
                    for b in range(a, q):
                        s2[a, b] = s2[b, a] = float(cols[a] @ cols[b])
                self.stats.append(_TupleStats(tup, q, count, s1, s2, None))
            else:
                self.stats.append(_TupleStats(tup, q, count, s1, None, np.column_stack(cols)))

    def _factor(self, params: Params):
        dense = []
        sigmas = _tuple_sigmas(params, self.delta, self.lags, self.lag_index)
        for st, sigma in zip(self.stats, sigmas):
            try:
                c, low = cho_factor(sigma, lower=True, check_finite=False)
            except (np.linalg.LinAlgError, ValueError):
                raise CovarianceError(
                    f"near-singular covariance for tuple {st.tup}"
                ) from None
            logdet = 2.0 * float(np.log(np.diag(c)).sum())
            inv = cho_solve((c, low), np.eye(st.q), check_finite=False)
            dense.append((c, logdet, inv))
        return dense

    def evaluate(self, params: Params, mu: float | None) -> tuple[float, float]:
        """Composite log-likelihood and the mean actually used.

        ``mu=None`` profiles the mean out in GLS form; otherwise the given
        value is held fixed.
        """
        dense = self._factor(params)
        if mu is None:
            num = 0.0
            den = 0.0
            for st, (_, _, inv) in zip(self.stats, dense):
                num += float((inv @ st.s1).sum())
                den += st.count * float(inv.sum())
            if den <= 0.0:
                raise EvaluationError(
                    "GLS denominator is nonpositive; covariance inverses are corrupt"
                )
            m = num / den
        else:
            m = mu - self.ybar
        total = 0.0
        for st, (c, logdet, inv) in zip(self.stats, dense):
            if st.s2 is not None:
                s_c = st.s2 - m * (st.s1[:, None] + st.s1[None, :]) + st.count * m * m
                quad = float((inv * s_c).sum())
            else:
                w = solve_triangular(c, (st.windows - m).T, lower=True, check_finite=False)
                quad = float((w * w).sum())
            total += -0.5 * (st.count * (st.q * _LOG_2PI + logdet) + quad)
        return total, m + self.ybar


def _normalize_mean_mode(mean_mode: str) -> str:
    mode = str(mean_mode).lower()
    if mode not in ("known", "estimated"):
        raise DomainError(f"mean_mode must be 'known' or 'estimated', got {mean_mode!r}")
    return mode


def _cl_value(core: _ClCore, model: ModelSpec) -> float:
    """``cl_eval`` on a prebuilt workspace; a non-finite value raises."""
    mu = None if model.mean_is_estimated else model.params.mu
    val, _ = core.evaluate(model.params, mu)
    if not math.isfinite(val):
        raise EvaluationError(f"composite likelihood is not finite ({val})")
    return val


def cl_eval(model: ModelSpec, y: SampleSeries, q_set: TupleSet) -> float:
    """Composite log-likelihood of the series under the model.

    With an estimated mean the GLS profile value is substituted before
    evaluation; with a known mean ``model.params.mu`` is used.
    """
    return _cl_value(_ClCore(y, q_set), model)


def gls_mean(model: ModelSpec, y: SampleSeries, q_set: TupleSet) -> float:
    """Weighted-least-squares mean implied by the model's shape parameters."""
    core = _ClCore(y, q_set)
    _, mu_hat = core.evaluate(model.params, None)
    return mu_hat


def _fd_step(name: str, value: float) -> float:
    # Relative step with a floor; the mean uses a unit floor because the
    # objective is exactly quadratic in it (no truncation error, so a
    # larger step only reduces rounding noise).
    if name == "mu":
        h = 1e-5 * max(abs(value), 1.0)
    else:
        h = 1e-5 * max(abs(value), 0.01)
    # Stay strictly inside the parameter's legal domain.
    if name == "hurst":
        h = min(h, (1.0 - value) / 4, value / 4)
    elif name == "alpha":
        h = min(h, (0.5 - value) / 4, (value + 0.5) / 4)
    elif name != "mu":
        h = min(h, value / 4)
    return h


def _score_from_core(core: _ClCore, family: Family, params: Params, mean_mode: str) -> np.ndarray:
    spec = FAMILIES[family]
    theta = spec.theta(params)
    estimated = mean_mode == "estimated"
    entries = []
    for r, name in enumerate(spec.names):
        h = _fd_step(name, theta[r])
        up, dn = theta.copy(), theta.copy()
        up[r] += h
        dn[r] -= h
        mu_arg = None if estimated else params.mu
        f_up, _ = core.evaluate(spec.make(up, params.mu), mu_arg)
        f_dn, _ = core.evaluate(spec.make(dn, params.mu), mu_arg)
        entries.append((f_up - f_dn) / (2.0 * h))
    if estimated:
        h = _fd_step("mu", params.mu)
        f_up, _ = core.evaluate(params, params.mu + h)
        f_dn, _ = core.evaluate(params, params.mu - h)
        entries.append((f_up - f_dn) / (2.0 * h))
    return np.array(entries)


def cl_score(model: ModelSpec, y: SampleSeries, q_set: TupleSet) -> np.ndarray:
    """Central finite-difference gradient of ``cl_eval`` over free parameters.

    Shape parameters are differenced on their natural scale (profiling the
    mean when it is estimated); the mean entry, present only in estimated
    mode, is the partial derivative at the model's current ``mu``.
    """
    core = _ClCore(y, q_set)
    return _score_from_core(core, model.family, model.params, model.mean_mode)


@dataclass
class EstimationResult:
    """Fit output of the composite (``fit_mcle``) or exact (``fit_mle``) likelihood.

    ``mu_hat`` is the GLS estimate in estimated-mean mode and the string
    marker ``"known"`` otherwise; ``mu_value`` always carries the numeric
    mean in effect.  ``tuple_set`` is None for an exact fit.
    ``std_errors`` stays None until the sandwich module fills it in.
    """

    family: Family
    param_names: tuple[str, ...]
    theta_hat: np.ndarray
    mu_hat: float | str
    mu_value: float
    loglik: float
    iterations: int
    converged: bool
    regime: RegimeLabel
    init: np.ndarray
    n: int
    delta: float
    tuple_set: TupleSet | None
    mean_mode: str
    std_errors: np.ndarray | None = None
    diagnostics: tuple[str, ...] = ()

    @property
    def params(self) -> Params:
        return FAMILIES[self.family].make(self.theta_hat, self.mu_value)

    def to_dict(self) -> dict:
        out = {
            "family": self.family.value,
            "param_names": list(self.param_names),
            "theta_hat": [float(v) for v in self.theta_hat],
            "mu_hat": self.mu_hat if isinstance(self.mu_hat, str) else float(self.mu_hat),
            "mu_value": float(self.mu_value),
            "loglik": float(self.loglik),
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
            "mean_mode": self.mean_mode,
            "regime": self.regime.to_dict(),
            "init": [float(v) for v in self.init],
            "n": int(self.n),
            "delta": float(self.delta),
            "tuples": None
            if self.tuple_set is None
            else [list(t) for t in self.tuple_set.tuples],
            "std_errors": None
            if self.std_errors is None
            else [float(v) for v in self.std_errors],
            "diagnostics": list(self.diagnostics),
        }
        return out


def _series_length(y) -> int:
    """Length of ``y``, which must be a ``SampleSeries``."""
    if not isinstance(y, SampleSeries):
        raise DataError("y must be a SampleSeries (wrap raw values first)")
    return y.values.size


def _default_tuples_for(n: int) -> TupleSet:
    strides = [s for s in DEFAULT_STRIDES if 2 * s <= n - 2]
    if strides:
        return build_default_tuples(3, strides)
    if n >= 3:
        return build_default_tuples(2, (1,))
    raise SampleSizeError(f"series of length {n} is too short to form any tuple")


def _start_vector(
    y: SampleSeries, spec: FamilySpec, init, mode: str, known_mean: float, diagnostics: list[str]
) -> np.ndarray:
    """Moment-estimator start (or ``init``) clamped into the box; notes go to ``diagnostics``."""
    if init is None:
        km = known_mean if mode == "known" else None
        start = _mme.fou_init if spec.family is Family.FOU else _mme.cauchy_init
        init_vec, notes = start(y, known_mean=km)
        diagnostics.extend(notes)
    else:
        init_vec = np.asarray(init, dtype=float)
        if init_vec.shape != (3,):
            raise DomainError(
                f"init must have 3 entries {spec.names}, got shape {init_vec.shape}"
            )
    init_used, moved = clamp_to_box(init_vec, spec.defs)
    if moved and "init-clamped" not in diagnostics:
        diagnostics.append("init-clamped")
    return init_used


def _fit(
    y: SampleSeries,
    family,
    core,
    tuple_set: TupleSet | None,
    init,
    mean_mode: str,
    known_mean: float,
    max_iters: int,
) -> EstimationResult:
    """Maximize ``core``'s log-likelihood over the family's free parameters.

    ``core`` is a ``_ClCore`` or an ``mle._ExactCore``: ``evaluate(params,
    mu)`` returns the log-likelihood and the mean it used, the GLS mean when
    ``mu`` is None, and ``masked_rows`` counts windows dropped at gaps.  A
    constant series skips the optimizer and is reported as degenerate.
    ``converged`` means the polish step contracted below 1e-8 at a finite
    log-likelihood.
    """
    spec = family_spec(family)
    mode = _normalize_mean_mode(mean_mode)
    mu_fixed = float(known_mean) if mode == "known" else None
    mu_make = 0.0 if mu_fixed is None else mu_fixed
    diagnostics: list[str] = []

    finite_vals = y.values[np.isfinite(y.values)]
    ybar = float(finite_vals.mean())
    scale = float(finite_vals.std())
    if not scale > 1e-14 * (1.0 + abs(ybar)):
        theta_hat = spec.start(1e-8)
        init_used = theta_hat.copy()
        mu_value = ybar if mu_fixed is None else mu_fixed
        loglik, iterations, converged = math.nan, 0, False
        diagnostics.append("degenerate-data")
    else:
        init_used = _start_vector(y, spec, init, mode, known_mean, diagnostics)
        if core.masked_rows:
            diagnostics.append(f"masked-rows:{core.masked_rows}")

        def objective(theta: np.ndarray) -> float:
            try:
                val, _ = core.evaluate(spec.make(theta, mu_make), mu_fixed)
            except GpclError:
                return -math.inf
            return val

        opt = maximize(objective, spec.defs, init_used, max_iters=max_iters)
        theta_hat = opt.x
        loglik, mu_value = core.evaluate(spec.make(theta_hat, mu_make), mu_fixed)
        iterations = opt.nfev
        converged = bool(opt.step_converged and math.isfinite(loglik))
        if not opt.step_converged:
            diagnostics.append("step-criterion-unmet")

    return EstimationResult(
        family=spec.family,
        param_names=spec.names,
        theta_hat=theta_hat,
        mu_hat="known" if mode == "known" else mu_value,
        mu_value=mu_value,
        loglik=loglik,
        iterations=iterations,
        converged=converged,
        regime=classify_regime(ModelSpec(spec.make(theta_hat, mu_value))),
        init=init_used,
        n=y.values.size,
        delta=y.delta,
        tuple_set=tuple_set,
        mean_mode=mode,
        std_errors=None,
        diagnostics=tuple(diagnostics),
    )


def fit_mcle(
    y: SampleSeries,
    family,
    q_set: TupleSet | None = None,
    init=None,
    mean_mode: str = "known",
    known_mean: float = 0.0,
    max_iters: int = 500,
) -> EstimationResult:
    """Maximize the composite likelihood over the family's free parameters.

    Optimization runs on transformed coordinates (log for positive
    parameters, scaled logit for interval ones) with moment-estimator
    starting values unless ``init`` overrides them.  ``converged`` requires
    both the final polish step to contract below 1e-8 and the natural-scale
    score to satisfy the first-order criterion.
    """
    n = _series_length(y)
    q_set = _default_tuples_for(n) if q_set is None else q_set
    if n <= q_set.max_index + 1:
        raise SampleSizeError(
            f"need n > max tuple index + 1 = {q_set.max_index + 1}, got n={n}"
        )
    core = _ClCore(y, q_set)
    result = _fit(y, family, core, q_set, init, mean_mode, known_mean, max_iters)
    if result.iterations:  # zero only when degenerate data skipped the optimizer
        score = _score_from_core(core, result.family, result.params, result.mean_mode)
        if not np.max(np.abs(score)) <= _GRAD_TOL * (1.0 + abs(result.loglik)):
            result.converged = False
            result.diagnostics += ("gradient-criterion-unmet",)
    return result
