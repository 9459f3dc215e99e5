import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcl import (
    FAMILIES,
    CauchyParams,
    CltCase,
    DomainError,
    Family,
    FouParams,
    Memory,
    ModelSpec,
    Roughness,
    acv_vector,
    arfima_d_from_beta,
    cauchy_acf,
    classify_regime,
    correlation_at_lags,
    fou_acf,
)
from gpcl.models import family_spec, spec_of


def test_fou_params_validation():
    with pytest.raises(DomainError):
        FouParams(kappa=0.0, nu=1.0, hurst=0.5)
    with pytest.raises(DomainError):
        FouParams(kappa=0.1, nu=-1.0, hurst=0.5)
    with pytest.raises(DomainError):
        FouParams(kappa=0.1, nu=1.0, hurst=1.0)
    with pytest.raises(DomainError):
        FouParams(kappa=math.nan, nu=1.0, hurst=0.5)
    p = FouParams(kappa=0.1, nu=2.0, hurst=0.3, mu=-1.5)
    assert p.alpha == pytest.approx(-0.2)


def test_cauchy_params_validation():
    with pytest.raises(DomainError):
        CauchyParams(beta=0.0, nu=1.0, alpha=0.0)
    with pytest.raises(DomainError):
        CauchyParams(beta=1.0, nu=1.0, alpha=0.5)
    p = CauchyParams(beta=0.25, nu=1.25, alpha=-0.45)
    assert p.fractal_exponent == pytest.approx(0.1)


def test_model_spec_family_and_mean_mode():
    m = ModelSpec(FouParams(kappa=0.1, nu=1.0, hurst=0.5), mean_mode="estimated")
    assert m.family is Family.FOU
    assert m.mean_is_estimated
    with pytest.raises(DomainError):
        ModelSpec(FouParams(kappa=0.1, nu=1.0, hurst=0.5), mean_mode="fixed")


def test_family_table_invariants():
    boxes = {
        Family.FOU: {"kappa": (1e-8, 1e3, "log"), "nu": (1e-8, 1e3, "log"), "hurst": (0.001, 0.999, "logit")},
        Family.CAUCHY: {"beta": (1e-4, 50.0, "log"), "nu": (1e-8, 1e3, "log"), "alpha": (-0.499, 0.499, "logit")},
    }
    points = {Family.FOU: (0.02, 0.7, 0.3), Family.CAUCHY: (0.8, 0.7, -0.2)}
    for family, spec in FAMILIES.items():
        assert spec.family is family
        fields = [f.name for f in dataclasses.fields(spec.params_type)]
        assert list(spec.names) + ["mu"] == fields
        assert {d.name: (d.lo, d.hi, d.scale) for d in spec.defs} == boxes[family]
        theta = np.array(points[family])
        params = spec.make(theta, 1.5)
        assert isinstance(params, spec.params_type) and params.mu == 1.5
        assert np.array_equal(spec.theta(params), theta)
        assert spec_of(params) is spec and ModelSpec(params).spec is spec
        assert family_spec(family) is spec and family_spec(family.value.upper()) is spec
        back = spec.from_report(*spec.report(theta).values(), mu=1.5)
        assert spec.theta(back) == pytest.approx(theta, rel=1e-15) and back.mu == 1.5
    assert FAMILIES[Family.FOU].report([0.02, 0.7, 0.3]) == {"kappa": 0.02, "nu": 0.7, "alpha": 0.3 - 0.5}
    assert FAMILIES[Family.CAUCHY].report([0.8, 0.7, -0.2]) == {"beta": 0.8, "nu": 0.7, "alpha": -0.2}
    with pytest.raises(DomainError):
        family_spec("frac")
    with pytest.raises(DomainError):
        spec_of(object())


def test_fou_acf_is_ou_at_half():
    # At H = 1/2 the process is the classical OU with correlation e^{-kappa h}.
    for kappa in (0.005, 0.07):
        p = FouParams(kappa=kappa, nu=1.0, hurst=0.5)
        h = np.arange(0.0, 50.01, 0.5)
        got = fou_acf(p, h)
        assert np.max(np.abs(got - np.exp(-kappa * h))) < 1e-7


def test_fou_acf_examples():
    p = FouParams(kappa=0.1, nu=1.0, hurst=0.5)
    assert fou_acf(p, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert fou_acf(p, 2.0) == pytest.approx(math.exp(-0.2), abs=1e-9)


def test_fou_acf_unit_at_zero_random_params():
    rng = np.random.default_rng(42)
    for _ in range(25):
        p = FouParams(
            kappa=10 ** rng.uniform(-3, 1),
            nu=10 ** rng.uniform(-1, 1),
            hurst=rng.uniform(0.01, 0.99),
        )
        assert abs(fou_acf(p, 0.0) - 1.0) < 1e-8


def test_fou_acf_rough_tail_ratio():
    # Hyperbolic tail: rho_h ~ C h^{2H-2}.  Two empirical estimates of C at
    # well-separated lags must agree once h is deep in the tail.
    p = FouParams(kappa=0.01, nu=1.0, hurst=0.1)
    c1 = fou_acf(p, 2000.0) / 2000.0 ** (2 * 0.1 - 2)
    c2 = fou_acf(p, 4000.0) / 4000.0 ** (2 * 0.1 - 2)
    assert c1 < 0  # rough paths have a negative long-lag correlation
    assert abs(c1 / c2 - 1.0) < 0.02


def test_fou_acf_rejects_bad_lag():
    p = FouParams(kappa=0.1, nu=1.0, hurst=0.5)
    with pytest.raises(DomainError):
        fou_acf(p, math.inf)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_fou_closed_form_matches_quadrature():
    # The special-function evaluation and the adaptive quadrature of the
    # defining integral are independent routes to the same function; they
    # must agree to the quadrature tolerance across roughness regimes and
    # from the origin deep into the tail (including across the asymptotic
    # switch-over).
    from gpcl.models import _fou_correlation_closed, _fou_correlation_scalar

    xs = [0.0, 1e-6, 1e-3, 0.04, 0.3, 1.0, 4.7, 20.0, 95.0, 400.0, 650.0, 2000.0]
    for hurst in (0.05, 0.1, 0.35, 0.5, 0.62, 0.75, 0.9, 0.97):
        closed = _fou_correlation_closed(1.0, hurst, np.asarray(xs))
        for x, got in zip(xs, closed):
            want = _fou_correlation_scalar(1.0, hurst, x)
            assert got == pytest.approx(want, abs=2e-9), (hurst, x)


def test_cauchy_acf_closed_form_values():
    assert cauchy_acf(CauchyParams(beta=1.0, nu=1.0, alpha=0.0), 1.0) == pytest.approx(0.5)
    assert cauchy_acf(CauchyParams(beta=0.5, nu=1.0, alpha=-0.25), 4.0) == pytest.approx(1.0 / 3.0)
    assert cauchy_acf(CauchyParams(beta=0.25, nu=1.0, alpha=-0.45), 1.0) == pytest.approx(2.0**-2.5)
    assert cauchy_acf(CauchyParams(beta=7.3, nu=0.2, alpha=0.31), 0.0) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(
    beta=st.floats(0.05, 10.0),
    alpha=st.floats(-0.49, 0.49),
    h=st.floats(0.0, 1e6),
)
def test_cauchy_acf_bounds_and_monotonicity(beta, alpha, h):
    p = CauchyParams(beta=beta, nu=1.0, alpha=alpha)
    r = cauchy_acf(p, h)
    assert 0.0 < r <= 1.0
    assert cauchy_acf(p, h + 1.0) <= r + 1e-15


def test_cauchy_tail_index():
    # rho_h * h^beta approaches a constant; the approach is slow when the
    # fractal exponent 2*alpha+1 is small, so pick the probe lags from it.
    for alpha, beta in [(-0.1, 0.75), (0.0, 1.0), (0.2, 1.25), (-0.2, 0.25)]:
        p = CauchyParams(beta=beta, nu=1.0, alpha=alpha)
        a = p.fractal_exponent
        h1 = max(1e4, (100.0 * beta / a) ** (1.0 / a))
        h1 = min(h1, 1e10)
        v1 = cauchy_acf(p, h1) * h1**beta
        v2 = cauchy_acf(p, 10 * h1) * (10 * h1) ** beta
        assert abs(v1 / v2 - 1.0) < 0.02


def test_acf_absolute_decay_sampled():
    grid = np.array([1.0, 5.0, 25.0, 125.0, 625.0])
    p_fou = FouParams(kappa=0.05, nu=1.0, hurst=0.3)
    vals = np.abs(fou_acf(p_fou, grid))
    assert np.all(vals <= 1.0)
    assert np.all(np.diff(vals) < 0)
    p_cau = CauchyParams(beta=0.75, nu=1.0, alpha=-0.3)
    vals = cauchy_acf(p_cau, grid)
    assert np.all(np.diff(vals) < 0)


def test_acv_vector_scaling():
    m = ModelSpec(FouParams(kappa=0.3, nu=2.0, hurst=0.5))
    got = acv_vector(m, [0], delta=1.0)
    assert got[0] == pytest.approx(4.0, abs=1e-9)
    got = acv_vector(m, [0, 24], delta=1.0 / 12.0)
    assert got[1] / got[0] == pytest.approx(math.exp(-0.3 * 2.0), abs=1e-9)
    m2 = ModelSpec(CauchyParams(beta=1.0, nu=1.0, alpha=0.0))
    got = acv_vector(m2, [0, 1], delta=1.0)
    assert got == pytest.approx([1.0, 0.5])
    with pytest.raises(DomainError):
        acv_vector(m2, [-1], delta=1.0)
    with pytest.raises(DomainError):
        acv_vector(m2, [0], delta=0.0)


def test_correlation_cache_consistency():
    p = FouParams(kappa=0.02, nu=1.0, hurst=0.2)
    lags = np.array([0, 1, 6, 12, 1, 6])
    first = correlation_at_lags(p, 1.0 / 12.0, lags)
    second = correlation_at_lags(p, 1.0 / 12.0, lags)
    assert np.array_equal(first, second)
    direct = fou_acf(p, lags * (1.0 / 12.0))
    assert np.max(np.abs(first - direct)) < 1e-12


def test_classify_regime_fou():
    lbl = classify_regime(ModelSpec(FouParams(kappa=0.01, nu=1.0, hurst=0.1)))
    assert (lbl.roughness, lbl.memory, lbl.clt_case) == (
        Roughness.ROUGH,
        Memory.SHORT,
        CltCase.CASE1_GAUSSIAN,
    )
    assert lbl.beta_decay == pytest.approx(1.8)
    lbl = classify_regime(ModelSpec(FouParams(kappa=0.01, nu=1.0, hurst=0.5)))
    assert (lbl.roughness, lbl.memory) == (Roughness.BROWNIAN, Memory.SHORT)
    assert lbl.clt_case is CltCase.CASE1_GAUSSIAN
    lbl = classify_regime(ModelSpec(FouParams(kappa=0.01, nu=1.0, hurst=0.7)))
    assert (lbl.roughness, lbl.memory, lbl.clt_case) == (
        Roughness.SMOOTH,
        Memory.LONG,
        CltCase.CASE1_GAUSSIAN,
    )
    assert classify_regime(ModelSpec(FouParams(kappa=1.0, nu=1.0, hurst=0.75))).clt_case is CltCase.CASE2_BOUNDARY
    assert classify_regime(ModelSpec(FouParams(kappa=1.0, nu=1.0, hurst=0.9))).clt_case is CltCase.CASE3_ROSENBLATT


def test_classify_regime_cauchy():
    lbl = classify_regime(ModelSpec(CauchyParams(beta=0.25, nu=1.0, alpha=-0.3)))
    assert (lbl.roughness, lbl.memory, lbl.clt_case) == (
        Roughness.ROUGH,
        Memory.LONG,
        CltCase.CASE3_ROSENBLATT,
    )
    assert lbl.beta_decay == pytest.approx(0.25)
    assert classify_regime(ModelSpec(CauchyParams(beta=0.5, nu=1.0, alpha=0.0))).clt_case is CltCase.CASE2_BOUNDARY
    lbl = classify_regime(ModelSpec(CauchyParams(beta=1.0, nu=1.0, alpha=0.2)))
    assert (lbl.memory, lbl.clt_case) == (Memory.LONG, CltCase.CASE1_GAUSSIAN)
    lbl = classify_regime(ModelSpec(CauchyParams(beta=1.25, nu=1.0, alpha=0.2)))
    assert (lbl.roughness, lbl.memory) == (Roughness.SMOOTH, Memory.SHORT)


@settings(max_examples=60, deadline=None)
@given(hurst=st.floats(0.01, 0.99))
def test_classify_fou_never_rough_and_long(hurst):
    lbl = classify_regime(ModelSpec(FouParams(kappa=0.1, nu=1.0, hurst=hurst)))
    assert not (lbl.roughness is Roughness.ROUGH and lbl.memory is Memory.LONG)


def test_arfima_d_from_beta():
    assert arfima_d_from_beta(1.0) == pytest.approx(0.0)
    assert arfima_d_from_beta(0.2) == pytest.approx(0.4)
    assert arfima_d_from_beta(0.5) == pytest.approx(0.25)
    with pytest.raises(DomainError):
        arfima_d_from_beta(0.0)
    with pytest.raises(DomainError):
        arfima_d_from_beta(1.2)
