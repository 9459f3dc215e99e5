import math
import time

import numpy as np
import pytest

from gpcl import (
    CauchyParams,
    DataError,
    FouParams,
    ModelSpec,
    SampleSeries,
    SampleSizeError,
    TupleSet,
    cl_eval,
    fit_mcle,
    fit_mle,
    full_loglik,
    simulate_cauchy,
    simulate_fou,
)
from gpcl import likelihood
from gpcl.asymptotics import attach_std_errors
from gpcl.errors import CovarianceError, DomainError

DELTA = 1.0 / 12.0


def test_full_loglik_single_standard_normal_point():
    model = ModelSpec(CauchyParams(beta=1.0, nu=1.0, alpha=0.0, mu=0.0), "known")
    y = SampleSeries(np.array([0.0]), delta=1.0)
    assert full_loglik(model, y) == pytest.approx(-0.5 * math.log(2 * math.pi), rel=1e-14)


def test_full_loglik_iid_limit_is_sum_of_univariates():
    # Mean reversion fast enough to kill all correlation makes the full
    # covariance diagonal, so the joint density factorizes.
    params = FouParams(kappa=1e6, nu=1.5, hurst=0.5, mu=0.25)
    y = SampleSeries(np.array([0.3, -1.2, 2.0]), delta=1.0)
    got = full_loglik(ModelSpec(params, "known"), y)
    z = (y.values - 0.25) / 1.5
    want = float(np.sum(-0.5 * (math.log(2 * math.pi) + 2 * math.log(1.5) + z**2)))
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("n", [16, 64, 256])
def test_full_loglik_equals_composite_with_full_tuple(n):
    params = FouParams(kappa=0.3, nu=1.1, hurst=0.25, mu=0.0)
    y = simulate_fou(params, n, DELTA, seed=[812, n])
    model = ModelSpec(params, "known")
    full = full_loglik(model, y)
    composite = cl_eval(model, y, TupleSet((tuple(range(n)),)))
    assert composite == pytest.approx(full, abs=1e-8 * (1 + abs(full)))


def test_full_loglik_equals_composite_cauchy():
    params = CauchyParams(beta=0.7, nu=0.8, alpha=-0.25, mu=0.4)
    y = simulate_cauchy(params, 128, DELTA, seed=813)
    model = ModelSpec(params, "known")
    full = full_loglik(model, y)
    composite = cl_eval(model, y, TupleSet((tuple(range(128)),)))
    assert composite == pytest.approx(full, abs=1e-8 * (1 + abs(full)))


def test_full_loglik_size_cap():
    params = CauchyParams(beta=1.0, nu=1.0, alpha=0.0)
    y = SampleSeries(np.zeros(5000), delta=1.0)
    with pytest.raises(SampleSizeError, match="composite"):
        full_loglik(ModelSpec(params, "known"), y)


def test_full_loglik_rejects_gaps():
    params = CauchyParams(beta=1.0, nu=1.0, alpha=0.0)
    vals = np.array([0.1, np.nan, 0.3])
    y = SampleSeries(vals, delta=1.0, origin="EMPIRICAL")
    with pytest.raises(DataError, match="gap"):
        full_loglik(ModelSpec(params, "known"), y)


def test_full_loglik_non_spd_covariance():
    # An almost-smooth Cauchy path sampled at a nanoscale step gives a
    # numerically singular near-ones covariance matrix.
    params = CauchyParams(beta=0.5, nu=1.0, alpha=0.499)
    y = SampleSeries(np.zeros(32), delta=1e-8)
    with pytest.raises(CovarianceError):
        full_loglik(ModelSpec(params, "known"), y)


def test_full_loglik_estimated_mean_iid_is_sample_mean():
    params = FouParams(kappa=1e6, nu=1.0, hurst=0.5, mu=0.0)
    rng = np.random.default_rng(7)
    vals = rng.normal(2.0, 1.0, size=50)
    y = SampleSeries(vals, delta=1.0)
    # with a diagonal covariance the GLS mean is the plain average, and the
    # estimated-mean objective equals the known-mean one at that value
    got = full_loglik(ModelSpec(params, "estimated"), y)
    centered = ModelSpec(FouParams(kappa=1e6, nu=1.0, hurst=0.5, mu=float(vals.mean())), "known")
    assert got == pytest.approx(full_loglik(centered, y), rel=1e-12)


def test_fit_mle_and_mcle_recover_roughness_small_sample():
    # Short rough series: both optimizers land near H=0.10; the full
    # likelihood is tighter at this n than the composite one.
    params = FouParams(kappa=0.01, nu=0.75, hurst=0.1)
    mle_hits = mcle_hits = 0
    for rep in range(6):
        y = simulate_fou(params, 1200, DELTA, seed=[808, rep])
        r_mle = fit_mle(y, "fou", mean_mode="known", known_mean=0.0)
        r_mcle = fit_mcle(y, "fou", mean_mode="known", known_mean=0.0)
        assert r_mle.converged and r_mcle.converged
        mle_hits += abs(r_mle.theta_hat[2] - 0.1) <= 0.02
        mcle_hits += abs(r_mcle.theta_hat[2] - 0.1) <= 0.04
    assert mle_hits >= 5
    assert mcle_hits >= 5


def test_fit_mle_result_fields():
    params = CauchyParams(beta=1.0, nu=0.5, alpha=0.0, mu=0.0)
    y = simulate_cauchy(params, 300, DELTA, seed=814)
    res = fit_mle(y, "cauchy", mean_mode="estimated")
    assert res.n == 300
    assert math.isfinite(res.loglik)
    assert isinstance(res.mu_hat, float)
    assert res.param_names == ("beta", "nu", "alpha")
    known = fit_mle(y, "cauchy", mean_mode="known", known_mean=0.0)
    assert known.mu_hat == "known"
    assert known.mu_value == 0.0


def test_fit_mle_constant_series_is_degenerate():
    y = SampleSeries(np.full(200, 1.5), delta=DELTA)
    res = fit_mle(y, "cauchy", mean_mode="estimated")
    assert not res.converged
    assert res.diagnostics == ("degenerate-data",)
    assert res.iterations == 0


def test_fit_mle_refuses_gaps_before_optimizing(monkeypatch):
    def no_optimizer(*args, **kwargs):
        raise AssertionError("the optimizer ran on a gapped series")

    monkeypatch.setattr(likelihood, "maximize", no_optimizer)
    params = CauchyParams(beta=1.0, nu=0.5, alpha=0.0, mu=0.0)
    vals = simulate_cauchy(params, 300, DELTA, seed=817).values.copy()
    vals[150] = np.nan
    y = SampleSeries(vals, delta=DELTA, origin="EMPIRICAL")
    with pytest.raises(DataError, match="gap"):
        fit_mle(y, "cauchy", mean_mode="estimated")


def test_attach_std_errors_refuses_exact_fit():
    params = CauchyParams(beta=1.0, nu=0.5, alpha=0.0, mu=0.0)
    y = simulate_cauchy(params, 200, DELTA, seed=818)
    res = fit_mle(y, "cauchy", mean_mode="known", known_mean=0.0)
    assert res.tuple_set is None
    with pytest.raises(DomainError, match="exact-likelihood fit"):
        attach_std_errors(res)
    assert res.std_errors is None


def test_exact_and_composite_results_have_the_same_fields():
    params = CauchyParams(beta=1.0, nu=0.5, alpha=0.0, mu=0.0)
    y = simulate_cauchy(params, 200, DELTA, seed=819)
    exact = fit_mle(y, "cauchy", mean_mode="estimated").to_dict()
    composite = fit_mcle(y, "cauchy", mean_mode="estimated").to_dict()
    assert exact.keys() == composite.keys()
    assert exact["tuples"] is None
    assert composite["tuples"]


def test_fit_mle_scale_equivariance():
    c = 3.0
    params = CauchyParams(beta=0.9, nu=0.6, alpha=-0.2, mu=0.0)
    y = simulate_cauchy(params, 300, DELTA, seed=815)
    y_scaled = SampleSeries(c * y.values, delta=y.delta)
    a = fit_mle(y, "cauchy", mean_mode="known", known_mean=0.0)
    b = fit_mle(y_scaled, "cauchy", mean_mode="known", known_mean=0.0)
    assert b.theta_hat[0] == pytest.approx(a.theta_hat[0], abs=1e-6 * (1 + a.theta_hat[0]))
    assert b.theta_hat[2] == pytest.approx(a.theta_hat[2], abs=1e-6)
    assert b.theta_hat[1] == pytest.approx(c * a.theta_hat[1], rel=1e-6)


def test_full_loglik_runtime_superlinear():
    # Dense Cholesky: quadrupling n must cost at least 8x per evaluation.
    params = CauchyParams(beta=1.0, nu=0.5, alpha=0.0, mu=0.0)
    model = ModelSpec(params, "known")
    times = {}
    for n in (512, 2048):
        y = simulate_cauchy(params, n, DELTA, seed=816)
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            full_loglik(model, y)
            samples.append(time.perf_counter() - t0)
        times[n] = np.median(samples)
    assert times[2048] / times[512] >= 8.0
