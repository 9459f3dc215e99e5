"""Sandwich covariance of the composite-likelihood estimator.

The estimator's asymptotic covariance has the familiar robust form
H^{-1} V H^{-1}: H is the expected per-window information of the tuple
densities, while V is the long-run variance of the score, a quadruple sum
over tuple pairs and a doubly infinite lag shift.  Because the model is
stationary Gaussian, every expectation reduces to sums of products of
autocovariances, so both matrices are computed from the model alone — no
data enter beyond the plugged-in parameter point.

Numeric standard errors are only meaningful in the square-integrable
regime (decay exponent above 1/2).  At or below that threshold the score
obeys nonstandard limit theory, so this module refuses to print numbers
unless explicitly asked for nominal ones.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DomainError, RegimeError, TruncationError
from .likelihood import EstimationResult, TupleSet, _fd_step, _lag_gather, _tuple_sigmas
from .models import (
    CltCase,
    ModelSpec,
    Params,
    RegimeLabel,
    classify_regime,
    correlation_grid,
)

__all__ = [
    "SandwichReport",
    "sensitivity_H",
    "variability_V",
    "sandwich",
    "attach_std_errors",
    "DEFAULT_LAG_TRUNCATION",
]

DEFAULT_LAG_TRUNCATION = 10_000
_TAIL_TOL = 0.01
_RATE_LABELS = {
    CltCase.CASE2_BOUNDARY: "sqrt(n/L_gamma(n))",
    CltCase.CASE3_ROSENBLATT: "n^beta",
}


@dataclass
class SandwichReport:
    """H^{-1} V H^{-1} covariance pieces for one parameter point.

    ``std_errors`` is None outside the standard Gaussian regime unless the
    report was requested with ``nominal=True``, in which case the values
    are plug-ins computed despite the nonstandard limit (and flagged in
    ``diagnostics``).  Parameter order is the family's shape parameters
    followed by ``mu`` when the mean is estimated.
    """

    param_names: tuple[str, ...]
    H_matrix: np.ndarray
    V_matrix: np.ndarray | None
    G_inverse: np.ndarray | None
    std_errors: np.ndarray | None
    lag_truncation: int
    regime: RegimeLabel
    n: int
    diagnostics: tuple[str, ...] = ()


def _free_names(model: ModelSpec) -> tuple[str, ...]:
    names = model.spec.names
    return names + ("mu",) if model.mean_is_estimated else names


def _tuple_factors(model: ModelSpec, q_set: TupleSet, delta: float):
    """Per-tuple (entries, Sigma^{-1}, (dSigma/dtheta_r, ...)) at the model point."""
    params = model.params
    spec = model.spec
    theta = spec.theta(params)
    lags, index = _lag_gather(q_set.tuples)
    sigmas = _tuple_sigmas(params, delta, lags, index)
    # dsig_by_param[r][k]: central difference of tuple k's Sigma in theta_r
    dsig_by_param = []
    for r, name in enumerate(spec.names):
        h = _fd_step(name, theta[r])
        up, dn = theta.copy(), theta.copy()
        up[r] += h
        dn[r] -= h
        s_up = _tuple_sigmas(spec.make(up, params.mu), delta, lags, index)
        s_dn = _tuple_sigmas(spec.make(dn, params.mu), delta, lags, index)
        dsig_by_param.append([(u - d) / (2.0 * h) for u, d in zip(s_up, s_dn)])
    out = []
    for tup, sigma, dsigs in zip(q_set.tuples, sigmas, zip(*dsig_by_param)):
        c = cho_factor(sigma, lower=True, check_finite=False)
        inv = cho_solve(c, np.eye(len(tup)), check_finite=False)
        out.append((np.asarray(tup), inv, dsigs))
    return out


def sensitivity_H(model: ModelSpec, q_set: TupleSet, delta: float) -> np.ndarray:
    """Expected information per window, summed over tuples.

    Covariance-parameter entries are (1/2) tr(S^{-1} dS_r S^{-1} dS_s); the
    mu cell, present when the mean is estimated, is 1' S^{-1} 1, and the
    mean/covariance cross terms vanish for Gaussian densities.
    """
    names = _free_names(model)
    p_shape = len(model.spec.names)
    p = len(names)
    h_mat = np.zeros((p, p))
    for _, inv, dsigs in _tuple_factors(model, q_set, delta):
        w = [inv @ d for d in dsigs]
        for r in range(p_shape):
            for s in range(r, p_shape):
                val = 0.5 * float(np.trace(w[r] @ w[s]))
                h_mat[r, s] += val
                if s != r:
                    h_mat[s, r] += val
        if model.mean_is_estimated:
            h_mat[-1, -1] += float(inv.sum())
    return h_mat


def _acv_grid(params: Params, delta: float, n_lags: int) -> np.ndarray:
    return params.nu**2 * correlation_grid(params, delta, n_lags)


def _pair_shift_sums(acv: np.ndarray, lag_cap: int, d_max: int):
    """C(d) = sum_{|l| <= L} gamma(l) gamma(l+d) and B(d) = sum gamma(l+d).

    Exact tails of ``acv`` (which extends to lag_cap + d_max) are used on
    the shifted side, so no wrap-around or zero-padding bias enters.
    """
    ls = np.arange(-lag_cap, lag_cap + 1)
    base = acv[np.abs(ls)]
    c_arr = np.empty(d_max + 1)
    b_arr = np.empty(d_max + 1)
    for d in range(d_max + 1):
        shifted = acv[np.abs(ls + d)]
        c_arr[d] = float(base @ shifted)
        b_arr[d] = float(shifted.sum())
    return c_arr, b_arr


def _v_from_shift_sums(factors, c_arr, b_arr, p_shape, with_mu):
    p = p_shape + 1 if with_mu else p_shape
    v_mat = np.zeros((p, p))
    prepared = []
    for tup, inv, dsigs in factors:
        d_mats = [-(inv @ ds @ inv) for ds in dsigs]
        prepared.append((tup, d_mats, inv @ np.ones(len(tup))))
    for tup1, d1, w1 in prepared:
        for tup2, d2, w2 in prepared:
            m = tup1[:, None] - tup2[None, :]
            # t[a,b,c,d] pairs gamma-shift sums for entries (a,b) of the
            # first tuple against (c,d) of the second
            t = (
                c_arr[np.abs(m[None, :, None, :] - m[:, None, :, None])]
                + c_arr[np.abs(m[None, :, :, None] - m[:, None, None, :])]
            )
            for r in range(p_shape):
                for s in range(p_shape):
                    v_mat[r, s] += 0.25 * float(
                        np.einsum("ab,cd,abcd->", d1[r], d2[s], t)
                    )
            if with_mu:
                v_mat[-1, -1] += float(w1 @ b_arr[np.abs(m)] @ w2)
    return v_mat


def _tail_factor(regime: RegimeLabel) -> float:
    # Remaining tail of a power-decay gamma^2 sum beyond L, expressed as a
    # multiple of the last decade (L/10, L]: integral comparison gives
    # 1/(10^{2 beta - 1} - 1).
    expo = 2.0 * regime.beta_decay - 1.0
    return 1.0 / (10.0**expo - 1.0)


def _variability(model: ModelSpec, q_set: TupleSet, delta: float, lag_cap: int):
    if lag_cap < 100:
        raise DomainError(f"lag truncation must be at least 100, got {lag_cap}")
    regime = classify_regime(model)
    d_max = 2 * q_set.max_index
    acv = _acv_grid(model.params, delta, lag_cap + d_max + 1)
    factors = _tuple_factors(model, q_set, delta)
    p_shape = len(model.spec.names)
    with_mu = model.mean_is_estimated

    c_full, b_full = _pair_shift_sums(acv, lag_cap, d_max)
    c_prev, b_prev = _pair_shift_sums(acv, lag_cap // 10, d_max)
    v_full = _v_from_shift_sums(factors, c_full, b_full, p_shape, with_mu)
    v_prev = _v_from_shift_sums(factors, c_prev, b_prev, p_shape, with_mu)

    scale = float(np.linalg.norm(v_full))
    last_decade = float(np.linalg.norm(v_full - v_prev))
    tail_fraction = last_decade * _tail_factor(regime) / scale if scale > 0 else 0.0
    return v_full, tail_fraction, regime


def variability_V(
    model: ModelSpec,
    q_set: TupleSet,
    delta: float,
    lag_cap: int = DEFAULT_LAG_TRUNCATION,
    nominal: bool = False,
) -> np.ndarray:
    """Long-run score variance per window (the quadruple-sum matrix).

    Requires the standard Gaussian regime (decay exponent above 1/2);
    ``nominal=True`` overrides the refusal for plug-in reporting.  Raises
    ``TruncationError`` when the extrapolated tail beyond ``lag_cap``
    exceeds 1% of the matrix norm.
    """
    regime = classify_regime(model)
    if regime.clt_case is not CltCase.CASE1_GAUSSIAN and not nominal:
        raise RegimeError(
            f"score variance diverges under {regime.clt_case.value}: "
            f"convergence rate is {_RATE_LABELS[regime.clt_case]}, not sqrt(n); "
            "pass nominal=True to force a plug-in value"
        )
    v_mat, tail_fraction, _ = _variability(model, q_set, delta, lag_cap)
    if regime.clt_case is CltCase.CASE1_GAUSSIAN and tail_fraction > _TAIL_TOL:
        raise TruncationError(
            f"lag truncation {lag_cap} leaves an estimated tail of "
            f"{100 * tail_fraction:.2f}% of ||V||; increase the truncation"
        )
    return v_mat


def _invert_h(h_mat: np.ndarray):
    eigs = np.linalg.eigvalsh(h_mat)
    if eigs[0] <= 1e-12 * max(1.0, eigs[-1]):
        return np.linalg.pinv(h_mat, hermitian=True), (
            "H-indefinite: pseudo-inverse used; the point may not be a "
            "proper interior optimum",
        )
    return np.linalg.inv(h_mat), ()


def sandwich(
    model: ModelSpec,
    q_set: TupleSet,
    delta: float,
    n: int,
    lag_cap: int = DEFAULT_LAG_TRUNCATION,
    nominal: bool = False,
) -> SandwichReport:
    """Full sandwich report at a parameter point for a series of length n.

    Outside the standard regime the report carries the rate label and no
    numbers (H only), unless ``nominal=True`` forces plug-in values.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    names = _free_names(model)
    regime = classify_regime(model)
    h_mat = sensitivity_H(model, q_set, delta)
    diagnostics: tuple[str, ...] = ()

    if regime.clt_case is not CltCase.CASE1_GAUSSIAN:
        label = _RATE_LABELS[regime.clt_case]
        if not nominal:
            return SandwichReport(
                param_names=names,
                H_matrix=h_mat,
                V_matrix=None,
                G_inverse=None,
                std_errors=None,
                lag_truncation=lag_cap,
                regime=regime,
                n=n,
                diagnostics=(
                    f"no standard errors: {regime.clt_case.value} limit, "
                    f"rate {label}",
                ),
            )
        diagnostics += (f"nominal ({regime.clt_case.value} regime): rate {label}",)

    v_mat, tail_fraction, _ = _variability(model, q_set, delta, lag_cap)
    if regime.clt_case is CltCase.CASE1_GAUSSIAN and tail_fraction > _TAIL_TOL:
        raise TruncationError(
            f"lag truncation {lag_cap} leaves an estimated tail of "
            f"{100 * tail_fraction:.2f}% of ||V||; increase the truncation"
        )
    diagnostics += (f"tail-fraction:{tail_fraction:.2e}",)

    h_inv, flags = _invert_h(h_mat)
    diagnostics += flags
    g_inv = h_inv @ v_mat @ h_inv
    g_inv = 0.5 * (g_inv + g_inv.T)
    diag = np.diag(g_inv).copy()
    if np.any(diag < -1e-10 * max(1.0, float(np.abs(diag).max()))):
        diagnostics += ("negative-variance-clipped",)
    std = np.sqrt(np.clip(diag, 0.0, None) / n)
    return SandwichReport(
        param_names=names,
        H_matrix=h_mat,
        V_matrix=v_mat,
        G_inverse=g_inv,
        std_errors=std,
        lag_truncation=lag_cap,
        regime=regime,
        n=n,
        diagnostics=diagnostics,
    )


def attach_std_errors(
    result: EstimationResult,
    lag_cap: int = DEFAULT_LAG_TRUNCATION,
    nominal: bool = False,
) -> SandwichReport:
    """Compute the sandwich at a fit's point and store its std_errors."""
    model = ModelSpec(result.params, result.mean_mode)
    report = sandwich(
        model, result.tuple_set, result.delta, result.n, lag_cap=lag_cap, nominal=nominal
    )
    result.std_errors = report.std_errors
    if report.std_errors is None:
        result.diagnostics = tuple(result.diagnostics) + tuple(report.diagnostics)
    return report
