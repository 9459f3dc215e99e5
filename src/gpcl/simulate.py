"""Simulation of stationary Gaussian paths, and series CSV I/O.

Cauchy-class paths and fractional Gaussian noise are exact: the stationary
autocovariance is embedded in a circulant matrix and sampled by FFT.  fOU
paths are not exact: ``simulate_fou`` filters fGn through an Euler-type
AR(1) recursion, whose covariance differs from the model's (on panel A
the variance is about 7.6% high).  ``simulate(params, n, delta, seed)``
picks the simulator of the params' family.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .errors import DataError, DomainError, EmbeddingError
from .models import CauchyParams, Family, FouParams, Params, correlation_grid, spec_of

__all__ = [
    "SampleSeries",
    "circulant_embed",
    "simulate_fgn",
    "simulate_fou",
    "simulate_cauchy",
    "simulate",
    "write_series_csv",
    "read_series_csv",
]

_EIG_EPS_REL = 1e-8


@dataclass(frozen=True)
class SampleSeries:
    """A regularly sampled series with its grid spacing in time units."""

    values: np.ndarray
    delta: float
    origin: str = "SIMULATED"
    label: str = ""

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1:
            raise DataError("series values must be one-dimensional")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise DomainError(f"delta must be positive, got {self.delta}")
        if self.origin not in ("SIMULATED", "EMPIRICAL"):
            raise DomainError(f"unknown origin {self.origin!r}")
        if np.any(np.isinf(vals)):
            raise DataError("series values must not be infinite")
        # Empirical series may carry NaN as an explicit gap marker (e.g.
        # dropped blocks in tick pipelines); simulated output never does.
        if self.origin == "SIMULATED" and np.any(np.isnan(vals)):
            raise DataError("simulated series must be finite everywhere")

    @property
    def n(self) -> int:
        return self.values.size


def _as_seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _embedding_spectrum(acv: np.ndarray) -> np.ndarray:
    """sqrt(eigenvalues / M) of the circulant extension of the acv prefix."""
    n = acv.size
    first_row = np.concatenate([acv, acv[-2:0:-1]])  # period M = 2(n-1)
    eig = np.fft.rfft(first_row).real
    top = eig.max()
    if top <= 0:
        raise EmbeddingError("circulant embedding has no positive eigenvalue")
    floor = -_EIG_EPS_REL * top
    if eig.min() < floor:
        raise EmbeddingError(
            f"circulant embedding failed: min eigenvalue {eig.min():.3e} "
            f"below {floor:.3e}; the autocovariance prefix is not embeddable"
        )
    eig = np.maximum(eig, 0.0)
    full = np.concatenate([eig, eig[-2:0:-1]])
    return np.sqrt(full / full.size)


def _embed_paths(acv: np.ndarray, n: int, rng: np.random.Generator, n_paths: int) -> np.ndarray:
    """Stationary Gaussian paths (n_paths, n) with autocovariance ``acv``.

    Synthesis: with eigenvalues lam_k of the circulant first row and i.i.d.
    standard complex Gaussians xi_k, the real part of FFT(sqrt(lam/M) xi)
    has exactly the circulant covariance, hence the target Toeplitz law on
    the first n coordinates.
    """
    if n == 1:
        return math.sqrt(acv[0]) * rng.standard_normal((n_paths, 1))
    scale = _embedding_spectrum(acv[:n])
    m = scale.size
    z = rng.standard_normal((n_paths, m)) + 1j * rng.standard_normal((n_paths, m))
    z *= scale
    return np.fft.fft(z, axis=1).real[:, :n]


def circulant_embed(acv, n: int, seed, delta: float = 1.0, label: str = "") -> SampleSeries:
    """One exact stationary Gaussian path of length ``n`` from an acv prefix.

    The prefix is extended to a circulant of period ``2(n-1)``; eigenvalues
    in ``[-1e-8 * max, 0)`` are clipped to zero and anything lower raises
    ``EmbeddingError``.
    """
    acv = np.asarray(acv, dtype=float)
    if acv.ndim != 1 or acv.size < n or n < 1:
        raise DomainError("need an autocovariance value for every requested lag")
    if acv[0] <= 0 or np.any(np.abs(acv) > acv[0] * (1 + 1e-12)):
        raise DomainError("invalid autocovariance prefix: need gamma_0 > 0 and |gamma_j| <= gamma_0")
    rng = np.random.default_rng(_as_seed_sequence(seed))
    values = _embed_paths(acv, n, rng, 1)[0]
    return SampleSeries(values=values, delta=delta, label=label)


def _fgn_acv(hurst: float, n: int, delta: float) -> np.ndarray:
    j = np.arange(n, dtype=float)
    two_h = 2.0 * hurst
    return 0.5 * delta**two_h * (np.abs(j + 1) ** two_h - 2 * np.abs(j) ** two_h + np.abs(j - 1) ** two_h)


def _pow2_lag_count(n: int) -> int:
    """Number of lags m >= n such that the embedding period 2(m-1) is a power of two."""
    if n < 3:
        return n
    m = 1 << (2 * n - 3).bit_length()  # next power of two >= 2n-2
    return m // 2 + 1


def simulate_fgn(hurst: float, n: int, delta: float, seed) -> SampleSeries:
    """Fractional Gaussian noise: stationary fBm increments on the delta grid."""
    if not 0.0 < hurst < 1.0:
        raise DomainError(f"hurst must lie in (0, 1), got {hurst}")
    if n < 1:
        raise DomainError("n must be >= 1")
    # Extend the acv prefix so the FFT length is a power of two, then keep
    # the first n coordinates (a marginal of an exact simulation is exact).
    m = _pow2_lag_count(n)
    acv = _fgn_acv(hurst, m, delta)
    rng = np.random.default_rng(_as_seed_sequence(seed))
    values = _embed_paths(acv, m, rng, 1)[0, :n]
    return SampleSeries(values=values, delta=delta, label=f"fgn(H={hurst:g})")


def simulate_fou(params: FouParams, n: int, delta: float, seed) -> SampleSeries:
    """Fractional Ornstein-Uhlenbeck path on the delta grid (not exact).

    Uses the Euler-type recursion
    ``Y_t = mu + (Y_{t-d} - mu) e^{-kappa d} + nu b e^{-kappa d/2} dB_H``
    started from an independent draw of the stationary marginal
    N(mu, nu^2).  The recursion only approximates the fOU covariance
    ``nu^2 * fou_acf``; even at ``H = 1/2`` its stationary variance is
    ``nu^2 kappa d / sinh(kappa d)`` rather than ``nu^2``.
    """
    if n < 2:
        raise DomainError("n must be >= 2")
    root = _as_seed_sequence(seed)
    init_seq, fgn_seq = root.spawn(2)
    x0 = params.nu * np.random.default_rng(init_seq).standard_normal()
    fgn = simulate_fgn(params.hurst, n - 1, delta, fgn_seq).values
    a = math.exp(-params.kappa * delta)
    c = params.nu * params.scale_b * math.exp(-params.kappa * delta / 2.0)
    # x_i = a x_{i-1} + c g_i, vectorized as an IIR filter with state a*x0.
    x_rest = lfilter([1.0], [1.0, -a], c * fgn, zi=np.array([a * x0]))[0]
    values = params.mu + np.concatenate([[x0], x_rest])
    return SampleSeries(values=values, delta=delta, label=f"fou(k={params.kappa:g},H={params.hurst:g})")


def simulate_cauchy(params: CauchyParams, n: int, delta: float, seed) -> SampleSeries:
    """Cauchy-class path via circulant embedding of the exact autocovariance."""
    if n < 2:
        raise DomainError("n must be >= 2")
    m = _pow2_lag_count(n)
    acv = params.nu**2 * correlation_grid(params, delta, m)
    rng = np.random.default_rng(_as_seed_sequence(seed))
    values = params.mu + _embed_paths(acv, m, rng, 1)[0, :n]
    return SampleSeries(values=values, delta=delta, label=f"cauchy(b={params.beta:g},a={params.alpha:g})")


def simulate(params: Params, n: int, delta: float, seed) -> SampleSeries:
    """A path of ``n`` points from the family of ``params``.

    Dispatches to ``simulate_fou`` or ``simulate_cauchy``; ``seed`` is
    anything ``np.random.SeedSequence`` accepts, or a SeedSequence.
    """
    family = spec_of(params).family
    if not (math.isfinite(delta) and delta > 0):
        raise DomainError(f"delta must be positive, got {delta}")
    sim = simulate_fou if family is Family.FOU else simulate_cauchy
    return sim(params, n, delta, seed)


def write_series_csv(series: SampleSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "time", "value"])
        for i, v in enumerate(series.values):
            writer.writerow([i, f"{i * series.delta:.12g}", f"{v:.12g}"])


def read_series_csv(path, delta: float | None = None, origin: str = "EMPIRICAL") -> SampleSeries:
    """Read a series written by :func:`write_series_csv` (or any CSV whose
    last column is the value).

    Without an explicit ``delta``, a ``time`` column supplies it; failing
    that, a ``day,block`` layout (as ``gpcl rv`` and ``gpcl volume`` write)
    gives 1 / (blocks per day), and otherwise it is 1.  In an empirical
    series a blank value is a gap and is read as NaN.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty series file")
    header = [c.strip().lower() for c in rows[0]]
    has_header = any(not _is_number(c) for c in rows[0])
    body = rows[1:] if has_header else rows
    if not body:
        raise DataError(f"{path}: no data rows")
    time_col = header.index("time") if has_header and "time" in header else None
    value_col = header.index("value") if has_header and "value" in header else len(body[0]) - 1
    gap = "nan" if origin == "EMPIRICAL" else ""
    try:
        values = np.array([float(r[value_col].strip() or gap) for r in body])
    except (ValueError, IndexError) as exc:
        raise DataError(f"{path}: malformed series row ({exc})") from exc
    if delta is None:
        if time_col is not None and len(body) >= 2:
            delta = float(body[1][time_col]) - float(body[0][time_col])
        elif has_header and {"day", "block"} <= set(header):
            block_col = header.index("block")
            delta = 1.0 / len({r[block_col].strip() for r in body})
        else:
            delta = 1.0
    if delta <= 0:
        raise DataError(f"{path}: could not infer a positive time step")
    return SampleSeries(values=values, delta=delta, origin=origin, label=str(path))


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
