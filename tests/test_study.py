"""The replication runner against a hand-written loop, and its failure rules."""

import dataclasses

import numpy as np
import pytest

import gpcl.study as study
from gpcl.asymptotics import attach_std_errors
from gpcl.errors import EvaluationError
from gpcl.likelihood import fit_mcle
from gpcl.mle import fit_mle
from gpcl.mme import mme_estimate
from gpcl.models import CauchyParams, FouParams, spec_of
from gpcl.simulate import simulate
from gpcl.study import run_replications

DELTA = 1.0 / 12.0
CAUCHY_D = CauchyParams(beta=1.0, nu=0.30, alpha=0.0)


def _reference(params, n, reps, likelihood, mean_mode, extras):
    """The loop the runner replaces, as the ported tests used to write it."""
    family = spec_of(params).family
    theta, mu, converged, ses, mmes = [], [], [], [], []
    for rep in range(reps):
        y = simulate(params, n, DELTA, seed=[5, rep])
        fit = fit_mle if likelihood == "exact" else fit_mcle
        r = fit(y, family, mean_mode=mean_mode, known_mean=0.0)
        theta.append(r.theta_hat)
        mu.append(r.mu_value)
        converged.append(r.converged)
        if extras and r.converged:
            attach_std_errors(r)
            m = mme_estimate(y, family, known_mean=None if mean_mode == "estimated" else 0.0)
            ses.append(r.std_errors)
            mmes.append([*m.report().values(), m.mu_hat])
    return theta, mu, converged, ses, mmes


@pytest.mark.parametrize(
    "params, n, likelihood, mean_mode, extras",
    [
        (CAUCHY_D, 600, "composite", "known", False),
        (FouParams(kappa=0.015, nu=0.50, hurst=0.30), 600, "composite", "estimated", True),
        (CAUCHY_D, 120, "exact", "known", False),
    ],
)
def test_runner_matches_reference_loop_bit_for_bit(params, n, likelihood, mean_mode, extras):
    res = run_replications(
        params, n, DELTA, lambda rep: [5, rep], 3, likelihood=likelihood,
        mean_mode=mean_mode, std_errors=extras, mme=extras,
    )
    theta, mu, converged, ses, mmes = _reference(params, n, 3, likelihood, mean_mode, extras)
    assert res.failures == ()
    assert res.theta.tobytes() == np.asarray(theta).tobytes()
    assert res.mu.tobytes() == np.asarray(mu).tobytes()
    assert res.converged.tolist() == converged
    if extras:  # every fit converged and had its sandwich at this point
        assert res.std_errors.tobytes() == np.asarray(ses).tobytes()
        assert res.mme.tobytes() == np.asarray(mmes).tobytes()
    else:
        assert res.std_errors is None and res.mme is None


def test_raised_and_non_converged_reps(monkeypatch):
    # Rep 1 raises and rep 2 does not converge; rep 2 still runs, and only
    # the raised rep loses its row.
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise EvaluationError("injected")
        fit = fit_mcle(*args, **kwargs)
        return dataclasses.replace(fit, converged=False) if len(calls) == 3 else fit

    monkeypatch.setattr(study, "fit_mcle", flaky)
    res = run_replications(CAUCHY_D, 600, DELTA, lambda rep: [5, rep], 3, std_errors=True, mme=True)
    theta, *_ = _reference(CAUCHY_D, 600, 3, "composite", "known", False)
    assert len(calls) == 3
    assert [(rep, type(exc)) for rep, exc in res.failures] == [(1, EvaluationError)]
    assert res.converged.tolist() == [True, False, False]
    assert np.isnan(res.theta[1]).all() and np.isnan(res.mu[1])
    for rep in (0, 2):
        assert res.theta[rep].tobytes() == theta[rep].tobytes()
    assert np.isfinite(res.std_errors[0]).all() and np.isfinite(res.mme[0]).all()
    assert np.isnan(res.std_errors[1:]).all() and np.isnan(res.mme[1:]).all()
