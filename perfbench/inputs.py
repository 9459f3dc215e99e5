"""Benchmark inputs, generated from the workload seed with numpy and scipy only.

Nothing here imports ``gpcl``: the series come from exact circulant
embedding of the closed-form model correlations, and the tick file from a
small synthetic market, so a change to the package's own simulator or
correlation code leaves every input (and its digest) unchanged.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy import fft as sfft
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc, hyp1f1

# The paper's Monte Carlo panels, (shape, nu, roughness) per corner:
# fOU (kappa, nu, hurst) and Cauchy (beta, nu, alpha).
PANELS = {
    "fou": {
        "A": (0.005, 1.25, 0.05),
        "B": (0.010, 0.75, 0.10),
        "C": (0.015, 0.50, 0.30),
        "D": (0.035, 0.30, 0.50),
        "E": (0.070, 0.20, 0.70),
    },
    "cauchy": {
        "A": (0.25, 1.25, -0.45),
        "B": (0.50, 0.75, -0.40),
        "C": (0.75, 0.50, -0.20),
        "D": (1.00, 0.30, 0.00),
        "E": (1.25, 0.20, 0.20),
    },
}

# Negative circulant eigenvalues above this share of the largest are
# rounding noise and are clipped; anything lower means the embedding is
# not exact and generation stops.
_EIG_TOL = 1e-8


def fou_correlation(kappa: float, hurst: float, t: np.ndarray) -> np.ndarray:
    """Stationary fOU correlation at time lags ``t`` (incomplete-gamma form).

    With ``x = kappa |t|`` and ``a = 2H + 1`` the defining integral is
    ``e^x G(a) Q(a, x) + x^a e^-x 1F1(a; a+1; x) / a + G(a) e^-x`` and the
    correlation is ``(I - 2 x^{2H}) / (4 H G(2H))``.  Valid while ``e^x``
    stays finite, which every benchmark lag range satisfies by far.
    """
    x = kappa * np.abs(np.asarray(t, dtype=float))
    if x.size and x.max() >= 600.0:
        raise ValueError("lag range beyond the closed form's overflow limit")
    two_h = 2.0 * hurst
    a = two_h + 1.0
    gam_a = gamma_fn(a)
    ex_neg = np.exp(-x)
    total = np.exp(x) * gam_a * gammaincc(a, x)
    total += x**a * ex_neg * hyp1f1(a, a + 1.0, x) / a
    total += gam_a * ex_neg
    total -= 2.0 * x**two_h
    return total / (4.0 * hurst * gamma_fn(two_h))


def cauchy_correlation(beta: float, alpha: float, t: np.ndarray) -> np.ndarray:
    """Cauchy-class correlation ``(1 + |t|^{2a+1})^{-b/(2a+1)}``."""
    s = 2.0 * alpha + 1.0
    return (1.0 + np.abs(np.asarray(t, dtype=float)) ** s) ** (-beta / s)


def autocovariance(family: str, params: tuple, delta: float, n_lags: int) -> np.ndarray:
    """``nu^2 rho(k delta)`` for ``k = 0 .. n_lags-1``."""
    t = np.arange(n_lags) * delta
    shape, nu, rough = params
    if family == "fou":
        rho = fou_correlation(shape, rough, t)
    else:
        rho = cauchy_correlation(shape, rough, t)
    return nu * nu * rho


def _embedding_period(n: int) -> int:
    """Smallest even FFT-friendly period ``m >= 2(n-1)``."""
    m = sfft.next_fast_len(max(2 * (n - 1), 2), real=True)
    while m % 2:
        m = sfft.next_fast_len(m + 1, real=True)
    return m


def gaussian_paths(family: str, params: tuple, delta: float, n: int, rngs):
    """Exact stationary paths of length ``n`` by circulant embedding, one per generator.

    The autocovariance is laid out over ``m/2 + 1`` lags and mirrored into a
    circulant of even period ``m``.  With eigenvalues ``lam`` (real, since
    the first row is symmetric), Hermitian half-spectrum coefficients
    ``c_0, c_{m/2} ~ N(0, lam)`` and ``c_k ~ CN(0, lam_k)`` otherwise give
    ``irfft(c) * sqrt(m)`` with exactly the circulant covariance, whose
    leading ``n x n`` block is the target Toeplitz law.  The spectrum is
    computed once; each path draws its coefficients from its own generator,
    so a path does not depend on the others drawn with it.
    """
    m = _embedding_period(n)
    half = m // 2 + 1
    acv = autocovariance(family, params, delta, half)
    lam = sfft.rfft(np.concatenate([acv, acv[-2:0:-1]])).real
    del acv
    top = float(lam.max())
    if lam.min() < -_EIG_TOL * top:
        raise ValueError(
            f"{family}{params}: circulant embedding of period {m} has eigenvalue "
            f"{lam.min():.3e} (max {top:.3e}); not exactly embeddable"
        )
    np.maximum(lam, 0.0, out=lam)
    amp = np.sqrt(lam)
    del lam
    for rng in rngs:
        coef = np.empty(half, dtype=complex)
        coef.real = rng.standard_normal(half)
        coef.imag = rng.standard_normal(half)
        coef[1:-1] *= math.sqrt(0.5)
        coef.imag[0] = 0.0
        coef.imag[-1] = 0.0
        coef *= amp
        path = sfft.irfft(coef, m)
        del coef
        path *= math.sqrt(m)
        yield np.ascontiguousarray(path[:n])
        del path


def gaussian_path(family: str, params: tuple, delta: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """One path of :func:`gaussian_paths`."""
    return next(gaussian_paths(family, params, delta, n, [rng]))


def rng_for(*key: int) -> np.random.Generator:
    """Independent generator for one input, keyed by integers."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


def digest_array(arr: np.ndarray) -> str:
    """Short sha256 of an array's little-endian float64 bytes."""
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def digest_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Synthetic trades.  Uneven intraday intensity, a stochastic daily volatility
# level with a weekday effect, bid-ask style noise, a few jumps, whole days
# without trades, one trading halt (empty blocks), rows out of order and
# under 1% malformed rows, so every diagnostics path of the pipeline runs.

MS_PER_DAY = 86_400_000
_FIRST_DAY = 19_358  # 2023-01-01
_BAD_ROWS = (
    "{id},abc,0.5,1000.0,{t},true",
    "{id},-5.0,0.5,1000.0,{t},false",
    "{id},20000.0,,1000.0,{t},true",
    "{id},20000.0,0.5",
    "{id},nan,0.5,1000.0,{t},false",
    "{id},20000.0,-1.0,1000.0,{t},true",
)


def tick_csv_text(rng: np.random.Generator, n_days: int, trades_per_day: int) -> str:
    """CSV text of a synthetic trade tape (id, price, qty, quote_qty, time)."""
    missing = set(rng.choice(np.arange(5, n_days - 5), size=3, replace=False).tolist())
    halt_day = int(rng.integers(10, n_days - 10))
    while halt_day in missing:
        halt_day += 1
    weekday_scale = np.array([1.1, 1.0, 1.0, 1.05, 1.15, 0.7, 0.6])
    chunks = []
    log_price = math.log(20_000.0)
    for d in range(n_days):
        if d in missing:
            continue
        day = _FIRST_DAY + d
        count = int(rng.poisson(trades_per_day))
        u = np.sort(rng.random(count))
        # Monotone warp: intensity 1 + 0.6 cos(2 pi u) peaks at the day's
        # ends, like a U-shaped session profile.
        frac = u + 0.6 * np.sin(2 * math.pi * u) / (2 * math.pi)
        ms = np.floor(frac * (MS_PER_DAY - 1)).astype(np.int64)
        if d == halt_day:
            halt = (ms >= 36_000_000) & (ms < 43_200_000)  # 10:00-12:00 UTC
            ms = ms[~halt]
            count = ms.size
        vol_day = 0.02 * math.exp(0.3 * rng.standard_normal())
        vol_day *= weekday_scale[(day + 3) % 7]
        spot = vol_day / math.sqrt(count) * (1.0 + 0.5 * np.cos(2 * math.pi * ms / MS_PER_DAY))
        steps = spot * rng.standard_normal(count)
        jumps = rng.random(count) < 2.0 / trades_per_day
        steps[jumps] += rng.choice([-1.0, 1.0], size=int(jumps.sum())) * 8.0 * vol_day / math.sqrt(96)
        path = log_price + np.cumsum(steps)
        log_price = float(path[-1])
        noise = 1e-5 * rng.standard_normal(count)
        price = np.round(np.exp(path + noise), 2)
        qty = np.round(rng.lognormal(-3.0, 1.0, count), 5) + 1e-5
        quote = np.round(price * qty, 6)
        chunks.append((day * MS_PER_DAY + ms, price, qty, quote))
    t = np.concatenate([c[0] for c in chunks])
    price = np.concatenate([c[1] for c in chunks])
    qty = np.concatenate([c[2] for c in chunks])
    quote = np.concatenate([c[3] for c in chunks])
    order = np.arange(t.size)
    # A few adjacent pairs swapped: ingestion must sort them back.
    swaps = rng.choice(t.size - 1, size=t.size // 5000, replace=False)
    order[swaps], order[swaps + 1] = order[swaps + 1], order[swaps].copy()
    lines = [
        f"{i},{price[j]:.2f},{qty[j]:.5f},{quote[j]:.6f},{t[j]},{'true' if i % 2 else 'false'}"
        for i, j in enumerate(order.tolist())
    ]
    bad_at = rng.choice(len(lines), size=t.size // 400, replace=False)
    for k, pos in enumerate(np.sort(bad_at).tolist()):
        template = _BAD_ROWS[k % len(_BAD_ROWS)]
        bad = template.format(id=10_000_000 + k, t=int(t[pos]))
        lines[pos] = bad + "\n" + lines[pos]
    return "id,price,qty,quote_qty,time,is_buyer_maker\n" + "\n".join(lines) + "\n"
