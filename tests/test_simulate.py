import math

import numpy as np
import pytest

from gpcl import CauchyParams, DomainError, EmbeddingError, FouParams, cauchy_acf
from gpcl.errors import DataError
from gpcl.simulate import (
    SampleSeries,
    _embed_paths,
    _fgn_acv,
    circulant_embed,
    read_series_csv,
    simulate,
    simulate_cauchy,
    simulate_fgn,
    simulate_fou,
    write_series_csv,
)


def test_fgn_acv_oracle_values():
    # Direct evaluation of (d^{2H}/2)(|j+1|^{2H} - 2|j|^{2H} + |j-1|^{2H}).
    g = _fgn_acv(0.7, 3, 1.0)
    assert g[0] == pytest.approx(1.0)
    assert g[1] == pytest.approx((2**1.4 - 2) / 2)  # 0.3195079...
    g = _fgn_acv(0.1, 2, 1.0)
    assert g[1] == pytest.approx((2**0.2 - 2) / 2)  # -0.4256508..., anti-persistent
    assert g[1] < 0
    # Brownian increments are white.
    g = _fgn_acv(0.5, 8, 0.25)
    assert g[0] == pytest.approx(0.25)
    assert np.max(np.abs(g[1:])) < 1e-15


def test_fgn_partial_sum_variance_identity():
    # The variance of the partial sum of increments must equal the fBm
    # marginal variance (m*delta)^{2H}; this is a deterministic identity of
    # the acv prefix (sum over the full Toeplitz matrix).
    for hurst in (0.1, 0.5, 0.7):
        m, delta = 64, 1.0 / 12.0
        g = _fgn_acv(hurst, m, delta)
        total = m * g[0] + 2 * np.sum((m - np.arange(1, m)) * g[1:])
        assert total == pytest.approx((m * delta) ** (2 * hurst), rel=1e-12)


def test_circulant_embed_deterministic():
    acv = _fgn_acv(0.3, 128, 1.0)
    a = circulant_embed(acv, 128, seed=99)
    b = circulant_embed(acv, 128, seed=99)
    assert np.array_equal(a.values, b.values)
    c = circulant_embed(acv, 128, seed=100)
    assert not np.array_equal(a.values, c.values)


def test_circulant_embed_single_point_marginal():
    rng = np.random.default_rng(7)
    draws = _embed_paths(np.array([1.0]), 1, rng, 10_000)[:, 0]
    assert abs(draws.mean()) < 0.03
    assert 0.95 < draws.var() < 1.05


def test_circulant_embed_white_noise():
    acv = np.zeros(512)
    acv[0] = 2.5
    s = circulant_embed(acv, 512, seed=3)
    x = s.values
    r1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(r1) < 3 / math.sqrt(512)
    assert x.var() == pytest.approx(2.5, rel=0.2)


def test_circulant_embed_exactness_small_n():
    # Sample covariance over many replications matches the target Toeplitz
    # entrywise within 5 standard errors (normal fourth-moment formula).
    n, reps = 64, 50_000
    acv = _fgn_acv(0.8, n, 1.0)
    rng = np.random.default_rng(2024)
    paths = _embed_paths(acv, n, rng, reps)
    emp = paths.T @ paths / reps
    target = np.array([[acv[abs(i - j)] for j in range(n)] for i in range(n)])
    se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / reps)
    assert np.all(np.abs(emp - target) <= 5 * se)


def test_circulant_embed_rejects_bad_prefix():
    with pytest.raises(DomainError):
        circulant_embed([0.0, 0.0], 2, seed=1)
    with pytest.raises(DomainError):
        circulant_embed([1.0, 2.0], 2, seed=1)
    # A genuinely non-embeddable prefix: strong negative lag-1 beyond the
    # boundary makes the circulant eigenvalues materially negative.
    with pytest.raises(EmbeddingError):
        circulant_embed([1.0, -0.9, 0.5, -0.2], 4, seed=1)


def test_fou_ou_transition_variance():
    # H = 1/2: residuals of the exact AR(1) conditional mean must have the
    # OU transition variance nu^2 (1 - e^{-2 kappa d}) up to the recursion's
    # O((kappa d)^2) increment approximation.
    params = FouParams(kappa=0.5, nu=1.3, hurst=0.5, mu=-2.0)
    n, delta = 100_000, 0.1
    y = simulate_fou(params, n, delta, seed=11).values
    a = math.exp(-params.kappa * delta)
    resid = (y[1:] - params.mu) - a * (y[:-1] - params.mu)
    target = params.nu**2 * (1 - math.exp(-2 * params.kappa * delta))
    assert resid.var() == pytest.approx(target, rel=0.02)


def test_fou_stationary_variance_panel_b():
    # kappa=0.01, nu=0.75, alpha=-0.40 -> H=0.1; pooled sample variance over
    # replications within 10% of nu^2.
    params = FouParams(kappa=0.01, nu=0.75, hurst=0.1)
    n, delta = 1825 * 12, 1.0 / 12.0
    vs = [simulate_fou(params, n, delta, seed=s).values.var() for s in range(20)]
    assert np.mean(vs) == pytest.approx(0.75**2, rel=0.10)


def test_fou_fast_mean_reversion_decorrelates():
    # Strong mean reversion: consecutive values nearly independent, lag-1
    # autocorrelation ~ e^{-kappa delta} ~ 0.  (H = 1/2 so the driving
    # increments themselves are white; the recursion degenerates for
    # kappa*delta >> 1 at other H, see the simulation docstring.)
    kappa, delta = 240.0, 1.0 / 12.0  # kappa*delta = 20
    params = FouParams(kappa=kappa, nu=1.0, hurst=0.5)
    y = simulate_fou(params, 20_000, delta, seed=5).values
    r1 = np.corrcoef(y[:-1], y[1:])[0, 1]
    assert abs(r1) < 3 / math.sqrt(20_000) + math.exp(-kappa * delta)


def test_fou_degenerate_level():
    params = FouParams(kappa=0.1, nu=1e-6, hurst=0.5, mu=5.0)
    y = simulate_fou(params, 1000, 1.0 / 12.0, seed=1).values
    assert np.max(np.abs(y - 5.0)) < 1e-4


def test_fou_seed_stream_reproducible():
    params = FouParams(kappa=0.05, nu=0.8, hurst=0.2, mu=1.0)
    a = simulate_fou(params, 500, 1.0 / 12.0, seed=42).values
    b = simulate_fou(params, 500, 1.0 / 12.0, seed=42).values
    assert np.array_equal(a, b)


def test_simulate_cauchy_acf_and_shift():
    params = CauchyParams(beta=1.25, nu=1.0, alpha=0.2, mu=-3.0)
    delta = 1.0 / 12.0
    rho12 = cauchy_acf(params, 12 * delta)
    acc = []
    means = []
    for s in range(200):
        y = simulate_cauchy(params, 4096, delta, seed=s).values
        z = y - params.mu  # center at truth: the sample-mean version has
        acc.append(np.dot(z[:-12], z[12:]) / np.dot(z, z))  # its own O(sum rho / n) bias
        means.append(y.mean())
    assert np.mean(acc) == pytest.approx(rho12, abs=0.01)
    assert np.mean(means) == pytest.approx(-3.0, abs=0.05)


def test_simulate_dispatch_and_validation():
    fou = FouParams(kappa=0.1, nu=1.0, hurst=0.4)
    y = simulate(fou, 64, 0.5, seed=9)
    assert y.n == 64 and y.delta == 0.5
    assert np.array_equal(y.values, simulate_fou(fou, 64, 0.5, seed=9).values)
    cauchy = CauchyParams(beta=1.0, nu=1.0, alpha=0.0)
    y = simulate(cauchy, 64, 0.5, seed=9)
    assert y.n == 64
    assert np.array_equal(y.values, simulate_cauchy(cauchy, 64, 0.5, seed=9).values)
    with pytest.raises(DomainError):
        simulate(cauchy, 1, 0.5, seed=9)
    with pytest.raises(DomainError):
        simulate(cauchy, 64, 0.0, seed=9)
    with pytest.raises(DomainError):
        simulate(object(), 64, 0.5, seed=9)


def test_sample_series_validation():
    with pytest.raises(DataError):
        SampleSeries(values=np.array([1.0, np.inf]), delta=1.0)
    with pytest.raises(DataError):
        SampleSeries(values=np.array([1.0, np.nan]), delta=1.0, origin="SIMULATED")
    s = SampleSeries(values=np.array([1.0, np.nan]), delta=1.0, origin="EMPIRICAL")
    assert s.n == 2


def test_series_csv_roundtrip(tmp_path):
    params = FouParams(kappa=0.1, nu=1.0, hurst=0.5)
    y = simulate_fou(params, 50, 1.0 / 12.0, seed=77)
    path = tmp_path / "series.csv"
    write_series_csv(y, path)
    back = read_series_csv(path)
    assert back.delta == pytest.approx(y.delta, rel=1e-9)
    assert np.max(np.abs(back.values - y.values)) < 1e-10


def test_submodule_import_binds_the_module():
    import gpcl.simulate as s

    assert callable(s.simulate_fou) and callable(s.simulate)
