import math
import time

import numpy as np
import pytest

from gpcl import (
    CauchyParams,
    DataError,
    DomainError,
    FouParams,
    ModelSpec,
    SampleSeries,
    SampleSizeError,
    TupleSet,
    build_default_tuples,
    cl_eval,
    cl_score,
    fit_mcle,
    gls_mean,
    simulate_cauchy,
    simulate_fou,
    tuple_covariance,
)
from gpcl.models import correlation_at_lags
from gpcl.study import run_replications

from one_thread import call_in_one_thread_child

DELTA = 1.0 / 12.0


# ---------------------------------------------------------------------------
# Tuple sets
# ---------------------------------------------------------------------------


def test_build_default_tuples_triwise():
    q = build_default_tuples(3, (1, 6))
    assert q.tuples == ((0, 1, 2), (0, 6, 12))
    full = build_default_tuples()
    assert full.K == 5
    assert full.max_index == 120
    assert full.q_max == 3


def test_build_default_tuples_pairwise():
    assert build_default_tuples(2, (5,)).tuples == ((0, 5),)


def test_build_default_tuples_validation():
    with pytest.raises(DomainError):
        build_default_tuples(3, ())
    with pytest.raises(DomainError):
        build_default_tuples(3, (1, 1))
    with pytest.raises(DomainError):
        build_default_tuples(3, (0, 2))
    with pytest.raises(DomainError):
        build_default_tuples(4, (1,))


def test_tuple_set_validation():
    with pytest.raises(DomainError):
        TupleSet(((1, 2),))  # must start at zero
    with pytest.raises(DomainError):
        TupleSet(((0, 3, 3),))  # strictly increasing
    with pytest.raises(DomainError):
        TupleSet(())
    q = TupleSet(((0,), (0, 2, 5, 9)))
    assert q.K == 2 and q.q_max == 4 and q.max_index == 9


# ---------------------------------------------------------------------------
# Tuple covariances
# ---------------------------------------------------------------------------


def test_tuple_covariance_cauchy_pair():
    model = ModelSpec(CauchyParams(beta=1.0, nu=1.0, alpha=0.0))
    sigma = tuple_covariance(model, (0, 1), 1.0)
    assert sigma == pytest.approx(np.array([[1.0, 0.5], [0.5, 1.0]]), abs=1e-12)


def test_tuple_covariance_singleton():
    model = ModelSpec(FouParams(kappa=0.3, nu=2.5, hurst=0.7))
    assert tuple_covariance(model, (0,), 1.0) == pytest.approx(np.array([[6.25]]))


def test_tuple_covariance_ou_closed_form():
    model = ModelSpec(FouParams(kappa=0.1, nu=1.0, hurst=0.5))
    sigma = tuple_covariance(model, (0, 12, 24), DELTA)
    assert sigma[0, 1] == pytest.approx(math.exp(-0.1), abs=1e-9)
    assert sigma[0, 2] == pytest.approx(math.exp(-0.2), abs=1e-9)
    assert sigma[1, 2] == pytest.approx(math.exp(-0.1), abs=1e-9)
    assert np.allclose(np.diag(sigma), 1.0)


def test_tuple_covariance_rejects_bad_tuple():
    model = ModelSpec(CauchyParams(beta=1.0, nu=1.0, alpha=0.0))
    with pytest.raises(DomainError):
        tuple_covariance(model, (1, 2), 1.0)


# ---------------------------------------------------------------------------
# Evaluation identities
# ---------------------------------------------------------------------------


def test_cl_eval_white_noise_at_origin():
    # Mean reversion this fast kills the lag-1 correlation, so ten zeros
    # under a pair tuple are nine independent standard bivariate normals
    # evaluated at the origin.
    p = FouParams(kappa=1e6, nu=1.0, hurst=0.5)
    assert abs(correlation_at_lags(p, 1.0, [1])[0]) < 1e-8
    y = SampleSeries(np.zeros(10), delta=1.0)
    val = cl_eval(ModelSpec(p, "known"), y, TupleSet(((0, 1),)))
    assert val == pytest.approx(-9.0 * math.log(2.0 * math.pi), rel=1e-12)


def test_cl_eval_translation_identity():
    params = CauchyParams(beta=0.8, nu=1.1, alpha=-0.1, mu=0.4)
    y = simulate_cauchy(params, 600, DELTA, seed=21)
    q = build_default_tuples(3, (1, 6, 12))
    base = cl_eval(ModelSpec(params, "known"), y, q)
    shifted_params = CauchyParams(beta=0.8, nu=1.1, alpha=-0.1, mu=0.4 + 5.0)
    y_shift = SampleSeries(y.values + 5.0, delta=y.delta)
    shifted = cl_eval(ModelSpec(shifted_params, "known"), y_shift, q)
    assert shifted == pytest.approx(base, abs=1e-8 * (1 + abs(base)))


def test_cl_eval_scale_shift_bookkeeping():
    # Scaling data and (nu, mu) by c and shifting by s changes the value by
    # exactly -(sum of tuple dimensions times window counts) * log c.
    c, s = 2.0, 0.75
    params = CauchyParams(beta=0.6, nu=0.9, alpha=0.15, mu=-1.0)
    y = simulate_cauchy(params, 500, DELTA, seed=33)
    n = y.values.size
    q = TupleSet(((0, 1), (0, 3, 6), (0, 2)))
    base = cl_eval(ModelSpec(params, "known"), y, q)
    scaled_params = CauchyParams(beta=0.6, nu=0.9 * c, alpha=0.15, mu=-1.0 * c + s)
    y_scaled = SampleSeries(c * y.values + s, delta=y.delta)
    scaled = cl_eval(ModelSpec(scaled_params, "known"), y_scaled, q)
    dims = 2 * (n - 1) + 3 * (n - 6) + 2 * (n - 2)
    assert scaled == pytest.approx(base - dims * math.log(c), abs=1e-8 * (1 + abs(base)))


def test_cl_eval_requires_tuples_inside_series():
    params = CauchyParams(beta=1.0, nu=1.0, alpha=0.0)
    y = SampleSeries(np.zeros(10), delta=1.0)
    with pytest.raises(SampleSizeError):
        cl_eval(ModelSpec(params), y, TupleSet(((0, 10),)))


def test_cl_eval_gap_masking_matches_manual_sum():
    # A NaN knocks out every window that touches it; the remaining windows
    # are summed as if nothing else existed.
    params = CauchyParams(beta=1.0, nu=1.3, alpha=0.1, mu=0.0)
    vals = np.array([0.4, -0.2, np.nan, 0.9, -1.1, 0.3])
    y = SampleSeries(vals, delta=1.0, origin="EMPIRICAL")
    q = TupleSet(((0, 1),))
    got = cl_eval(ModelSpec(params, "known"), y, q)

    sigma = tuple_covariance(ModelSpec(params), (0, 1), 1.0)
    inv = np.linalg.inv(sigma)
    _, logdet = np.linalg.slogdet(sigma)
    manual = 0.0
    for i in (0, 3, 4):
        u = vals[[i, i + 1]]
        manual += -0.5 * (2 * math.log(2 * math.pi) + logdet + u @ inv @ u)
    assert got == pytest.approx(manual, abs=1e-10 * (1 + abs(manual)))


@pytest.mark.parametrize(
    "params",
    [
        FouParams(kappa=0.3, nu=1.2, hurst=0.3, mu=0.4),
        CauchyParams(beta=0.8, nu=0.7, alpha=-0.2, mu=0.4),
    ],
)
def test_cl_eval_mixed_tuples_match_per_window_sum(params):
    # Tuples of different lengths share some lags (1, 2, 4, 5) and not
    # others (3, 6, 9); each tuple's covariance must come out of the shared
    # lag evaluation exactly as tuple_covariance builds it alone.
    q = TupleSet(((0,), (0, 2), (0, 1, 5), (0, 3, 4, 9)))
    vals = simulate_fou(FouParams(kappa=0.5, nu=1.0, hurst=0.4), 40, DELTA, seed=8).values + 0.5
    vals[17] = np.nan
    y = SampleSeries(vals, delta=DELTA, origin="EMPIRICAL")
    terms = []  # (q, Sigma^{-1}, log det Sigma, complete windows)
    for tup in q.tuples:
        sigma = tuple_covariance(ModelSpec(params), tup, DELTA)
        rows = np.arange(vals.size - tup[-1])[:, None] + np.asarray(tup)
        windows = vals[rows]
        windows = windows[np.isfinite(windows).all(axis=1)]
        terms.append((len(tup), np.linalg.inv(sigma), np.linalg.slogdet(sigma)[1], windows))

    def manual(mu):
        return sum(
            -0.5 * (w.shape[0] * (qq * math.log(2 * math.pi) + logdet)
                    + np.einsum("wa,ab,wb->", w - mu, inv, w - mu))
            for qq, inv, logdet, w in terms
        )

    known = manual(params.mu)
    gls_mu = sum(float((w @ inv).sum()) for _, inv, _, w in terms) / sum(
        w.shape[0] * float(inv.sum()) for _, inv, _, w in terms
    )
    profiled = manual(gls_mu)
    assert cl_eval(ModelSpec(params, "known"), y, q) == pytest.approx(known, rel=1e-10)
    assert cl_eval(ModelSpec(params, "estimated"), y, q) == pytest.approx(profiled, rel=1e-10)
    assert gls_mean(ModelSpec(params, "estimated"), y, q) == pytest.approx(gls_mu, rel=1e-10)


# ---------------------------------------------------------------------------
# GLS mean
# ---------------------------------------------------------------------------


def test_gls_mean_singleton_is_sample_mean():
    rng = np.random.default_rng(8)
    vals = rng.normal(3.0, 2.0, size=400)
    y = SampleSeries(vals, delta=1.0)
    model = ModelSpec(CauchyParams(beta=1.0, nu=2.0, alpha=0.0), "estimated")
    got = gls_mean(model, y, TupleSet(((0,),)))
    assert got == pytest.approx(vals.mean(), rel=1e-12)


def test_gls_mean_diagonal_case_is_stacked_mean():
    # With uncorrelated tuples the weights collapse and the estimate is the
    # plain average of every tuple slot (interior points counted once per
    # window they appear in).
    rng = np.random.default_rng(9)
    vals = rng.normal(0.5, 1.0, size=300)
    y = SampleSeries(vals, delta=1.0)
    model = ModelSpec(FouParams(kappa=1e6, nu=1.0, hurst=0.5), "estimated")
    got = gls_mean(model, y, TupleSet(((0, 1), (0, 2))))
    stacked = np.concatenate([vals[:-1], vals[1:], vals[:-2], vals[2:]])
    assert got == pytest.approx(stacked.mean(), rel=1e-10)


def test_gls_mean_tracks_sample_mean():
    # Locating a strongly persistent rough path: the composite GLS mean is
    # unbiased and a dead draw against the plain sample mean (replication-sd
    # ratio near one), because the tuple weights are uniform across window
    # positions up to edge effects of order max_lag/n.
    params = FouParams(kappa=0.005, nu=1.25, hurst=0.05, mu=0.0)
    model = ModelSpec(params, "estimated")
    q = build_default_tuples()
    gls, plain = [], []
    for rep in range(200):
        y = simulate_fou(params, 13140, DELTA, seed=[555, rep])
        gls.append(gls_mean(model, y, q))
        plain.append(float(y.values.mean()))
    assert abs(np.mean(gls)) <= 0.05
    assert 0.95 <= np.std(gls) / np.std(plain) <= 1.05
    assert 0.22 <= np.std(gls) <= 0.42


# ---------------------------------------------------------------------------
# Score
# ---------------------------------------------------------------------------


def _richardson(fun, x0, h):
    return (fun(x0 - 2 * h) - 8 * fun(x0 - h) + 8 * fun(x0 + h) - fun(x0 + 2 * h)) / (12 * h)


def test_cl_score_matches_richardson():
    y = simulate_cauchy(CauchyParams(beta=1.0, nu=0.5, alpha=0.0), 3000, DELTA, seed=61)
    q = build_default_tuples(3, (1, 6, 12))
    rng = np.random.default_rng(4)
    for _ in range(10):
        theta = np.array(
            [rng.uniform(0.3, 2.0), rng.uniform(0.3, 1.5), rng.uniform(-0.3, 0.3)]
        )
        model = ModelSpec(
            CauchyParams(beta=theta[0], nu=theta[1], alpha=theta[2], mu=0.0), "known"
        )
        score = cl_score(model, y, q)
        for r in range(3):
            def f(v, r=r):
                t = theta.copy()
                t[r] = v
                m = ModelSpec(CauchyParams(beta=t[0], nu=t[1], alpha=t[2], mu=0.0), "known")
                return cl_eval(m, y, q)

            want = _richardson(f, theta[r], 1e-4 * max(abs(theta[r]), 0.01))
            assert score[r] == pytest.approx(want, abs=1e-3 * max(1.0, abs(want)))


def test_cl_score_mu_entry_zero_at_gls():
    params = FouParams(kappa=0.1, nu=1.0, hurst=0.3, mu=0.0)
    y = simulate_fou(params, 2000, DELTA, seed=62)
    q = build_default_tuples(3, (1, 6))
    mu_hat = gls_mean(ModelSpec(params, "estimated"), y, q)
    at_gls = FouParams(kappa=0.1, nu=1.0, hurst=0.3, mu=mu_hat)
    score = cl_score(ModelSpec(at_gls, "estimated"), y, q)
    assert abs(score[-1]) < 1e-4


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def test_fit_mcle_replicates_brownian_cauchy_panel():
    # beta=1, nu=0.3, alpha=0 at the long span: the roughness estimate is
    # unbiased to +-0.002 with replication sd at most 0.012.
    params = CauchyParams(beta=1.0, nu=0.3, alpha=0.0)
    res = run_replications(params, 21900, DELTA, lambda rep: [606, rep], 200)
    assert not res.failures
    alphas = res.theta[:, 2]  # every fit, converged or not
    assert res.converged.sum() >= 195
    assert abs(np.mean(alphas)) <= 0.002
    assert np.std(alphas) <= 0.012


def test_fit_mcle_scale_equivariance():
    c = 3.0
    params = CauchyParams(beta=0.9, nu=0.6, alpha=-0.2, mu=0.0)
    y = simulate_cauchy(params, 2000, DELTA, seed=44)
    y_scaled = SampleSeries(c * y.values, delta=y.delta)
    a = fit_mcle(y, "cauchy", mean_mode="known", known_mean=0.0)
    b = fit_mcle(y_scaled, "cauchy", mean_mode="known", known_mean=0.0)
    assert b.theta_hat[0] == pytest.approx(a.theta_hat[0], abs=1e-6 * (1 + a.theta_hat[0]))
    assert b.theta_hat[2] == pytest.approx(a.theta_hat[2], abs=1e-6)
    assert b.theta_hat[1] == pytest.approx(c * a.theta_hat[1], rel=1e-6)


def test_fit_mcle_deterministic():
    params = CauchyParams(beta=0.5, nu=0.75, alpha=-0.4, mu=-3.0)
    y = simulate_cauchy(params, 5000, DELTA, seed=50)
    a = fit_mcle(y, "cauchy", mean_mode="estimated")
    b = fit_mcle(y, "cauchy", mean_mode="estimated")
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert a.mu_value == b.mu_value
    assert a.iterations == b.iterations


def test_fit_mcle_estimated_mean_reports_gls():
    params = FouParams(kappa=0.5, nu=1.0, hurst=0.35, mu=4.0)
    y = simulate_fou(params, 8000, DELTA, seed=51)
    res = fit_mcle(y, "fou", mean_mode="estimated")
    assert isinstance(res.mu_hat, float)
    assert res.mu_hat == res.mu_value
    assert res.mu_hat == pytest.approx(4.0, abs=0.5)
    # score at the optimum satisfies the first-order criterion, mu included
    score = cl_score(ModelSpec(res.params, "estimated"), y, res.tuple_set)
    assert np.max(np.abs(score)) <= 1e-4 * (1 + abs(res.loglik))


def test_fit_mcle_known_mean_marker():
    params = FouParams(kappa=0.5, nu=1.0, hurst=0.5, mu=0.0)
    y = simulate_fou(params, 3000, DELTA, seed=52)
    res = fit_mcle(y, "fou", mean_mode="known", known_mean=0.0)
    assert res.mu_hat == "known"
    assert res.mu_value == 0.0


def test_fit_mcle_degenerate_series():
    y = SampleSeries(np.full(500, 3.25), delta=1.0)
    res = fit_mcle(y, "fou")
    assert not res.converged
    assert "degenerate-data" in res.diagnostics
    assert res.theta_hat[1] == 1e-8


def test_fit_mcle_gap_markers_are_masked():
    params = CauchyParams(beta=1.0, nu=0.5, alpha=0.0, mu=0.0)
    base = simulate_cauchy(params, 4000, DELTA, seed=53)
    vals = base.values.copy()
    vals[100:110] = np.nan
    y = SampleSeries(vals, delta=DELTA, origin="EMPIRICAL")
    res = fit_mcle(y, "cauchy", mean_mode="known", known_mean=0.0)
    assert any(d.startswith("masked-rows:") for d in res.diagnostics)
    assert res.converged


def test_fit_mcle_init_override_and_clamping():
    params = CauchyParams(beta=1.0, nu=0.5, alpha=0.0, mu=0.0)
    y = simulate_cauchy(params, 3000, DELTA, seed=54)
    res = fit_mcle(y, "cauchy", init=[1.0, 0.5, 0.9], mean_mode="known")
    assert "init-clamped" in res.diagnostics
    assert res.init[2] < 0.5  # clamped into the box interior
    with pytest.raises(DomainError):
        fit_mcle(y, "cauchy", init=[1.0, 0.5])


def test_fit_mcle_sample_size_precondition():
    params = CauchyParams(beta=1.0, nu=0.5, alpha=0.0)
    y = simulate_cauchy(params, 100, DELTA, seed=55)
    with pytest.raises(SampleSizeError):
        fit_mcle(y, "cauchy", q_set=build_default_tuples(3, (60,)))


def test_fit_mcle_identification_grid():
    # Over a grid spanning five decades of mean reversion and nearly the
    # whole roughness range, the composite likelihood (nu and mu held at
    # truth) must peak in or next to the cell containing the true point in
    # at least 90% of replications: no spurious distant maxima.
    from gpcl import GpclError
    from gpcl.likelihood import _ClCore

    true = FouParams(kappa=0.01, nu=0.75, hurst=0.1)
    q = build_default_tuples()
    kappas = np.exp(np.linspace(math.log(1e-5), math.log(10.0), 21))
    hursts = np.linspace(0.02, 0.92, 21)
    i0 = int(np.argmin(np.abs(np.log(kappas) - math.log(0.01))))
    j0 = int(np.argmin(np.abs(hursts - 0.1)))
    hits = 0
    for rep in range(50):
        y = simulate_fou(true, 21900, DELTA, seed=[707, rep])
        core = _ClCore(y, q)
        best, arg = -np.inf, None
        for i, k in enumerate(kappas):
            for j, h in enumerate(hursts):
                try:
                    val, _ = core.evaluate(FouParams(kappa=k, nu=0.75, hurst=h), 0.0)
                except GpclError:
                    continue  # near-singular corner cells simply cannot win
                if val > best:
                    best, arg = val, (i, j)
        if abs(arg[0] - i0) <= 1 and abs(arg[1] - j0) <= 1:
            hits += 1
    assert hits >= 45


def _cl_eval_cpu_times() -> list[float]:
    """Best-of-9 process CPU time of one evaluation at n = 500k and 1M.

    Each repeat sweeps both n, so a slow spell costs one repeat of each
    rather than every repeat of one.
    """
    params = CauchyParams(beta=1.0, nu=0.5, alpha=0.0, mu=0.0)
    model = ModelSpec(params, "known")
    q = build_default_tuples()
    ys = [simulate_cauchy(params, n, DELTA, seed=71) for n in (500_000, 1_000_000)]
    for y in ys:
        cl_eval(model, y, q)  # warm caches before measuring
    times = [math.inf] * len(ys)
    for _ in range(9):
        for i, y in enumerate(ys):
            t0 = time.process_time()
            cl_eval(model, y, q)
            times[i] = min(times[i], time.process_time() - t0)
    return times


def test_cl_eval_cost_is_linear_in_n():
    # Doubling the series length should double the evaluation cost.  The
    # minimum over repeats is the least-noise runtime estimate, and the band
    # still separates linear growth cleanly from constant (1x) or quadratic
    # (4x) alternatives.  The timings run as a07's do, in a child process
    # with one BLAS thread.
    t_half, t_full = call_in_one_thread_child("test_likelihood", "_cl_eval_cpu_times")
    ratio = t_full / t_half
    assert 1.4 <= ratio <= 2.9, f"scaling ratio {ratio:.2f}"
