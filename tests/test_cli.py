"""End-to-end tests of the batch command-line interface.

Commands run in-process through ``gpcl.cli.main`` so return codes and
stdout/stderr can be asserted directly; files go to pytest tmp dirs.
"""

import csv
import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

import gpcl.cli as cli
from gpcl.cli import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_DATA,
    EXIT_OK,
    StudyConfig,
    main,
)
from gpcl.errors import ConfigError, EvaluationError
from gpcl.simulate import SampleSeries, simulate_fgn, write_series_csv


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def csv_rows(text):
    """Data rows of a CLI table: skip comments and the header line."""
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


def comments(text):
    return [l for l in text.splitlines() if l.startswith("#")]


@pytest.fixture(scope="module")
def series_dir(tmp_path_factory):
    """Pre-simulated series files shared across tests."""
    d = tmp_path_factory.mktemp("series")
    assert main(
        ["simulate", "--family", "fou", "--panel", "B", "--big-t", "200",
         "--seed", "7", "--out", str(d / "fou_b.csv")]
    ) == EXIT_OK
    assert main(
        ["simulate", "--family", "cauchy", "--panel", "D", "--big-t", "1500",
         "--seed", "61", "--out", str(d / "cauchy_d.csv")]
    ) == EXIT_OK
    assert main(
        ["simulate", "--family", "cauchy", "--beta", "0.25", "--nu", "1.0",
         "--alpha", "0.1", "--big-t", "150", "--seed", "21",
         "--out", str(d / "cauchy_lm.csv")]
    ) == EXIT_OK
    # Increments of fractional Brownian motion, cumulated: a series generated
    # exactly at the zero-reversion boundary of the fOU family.
    fgn = simulate_fgn(hurst=0.125, n=27000, delta=1.0 / 12, seed=[56])
    fbm = SampleSeries(values=np.cumsum(fgn.values), delta=fgn.delta)
    write_series_csv(fbm, d / "fbm.csv")
    return d


def write_ticks(path, days, rng, random_sizes=False):
    """Brownian log prices traded every 30 seconds on each of ``days``, in
    unit sizes or, with ``random_sizes``, exponential ones."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["price", "qty", "quote_qty", "time"])
        for day in days:
            logp = np.log(50.0) + np.cumsum(rng.standard_normal(2880) * 0.001)
            sizes = rng.exponential(1.0, 2880) if random_sizes else np.ones(2880)
            for i, (price, size) in enumerate(zip(np.exp(logp), sizes)):
                t = day * 86_400_000 + i * 30_000 + 29_999
                writer.writerow([f"{price:.7f}", size, f"{price * size:.7f}", t])


@pytest.fixture(scope="module")
def tick_dir(tmp_path_factory):
    """31 days of ticks in unit sizes, split over two files."""
    d = tmp_path_factory.mktemp("ticks")
    rng = np.random.default_rng(7)
    for part, days in (("a", range(0, 16)), ("b", range(16, 31))):
        write_ticks(d / f"{part}.csv", days, rng)
    return d


# ---------------------------------------------------------------------------
# simulate


def test_simulate_row_count_and_seed_repeat(tmp_path, capsys):
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    code, _, _ = run_cli(
        ["simulate", "--family", "fou", "--panel", "C", "--big-t", "150",
         "--seed", "5", "--out", out1], capsys)
    assert code == EXIT_OK
    with open(out1) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "time", "value"]
    assert len(rows) == 1 + 150 * 12

    run_cli(["simulate", "--family", "fou", "--panel", "C", "--big-t", "150",
             "--seed", "5", "--out", out2], capsys)
    assert sha(out1) == sha(out2)
    run_cli(["simulate", "--family", "fou", "--panel", "C", "--big-t", "150",
             "--seed", "6", "--out", out3], capsys)
    assert sha(out1) != sha(out3)


def test_simulate_bad_family_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--family", "frac", "--out", "x.csv"])
    assert err.value.code == 2
    capsys.readouterr()


def test_simulate_requires_out(capsys):
    code, _, err = run_cli(["simulate", "--family", "fou"], capsys)
    assert code == EXIT_CONFIG
    assert "--out" in err


def test_simulate_explicit_parameters(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code, _, _ = run_cli(
        ["simulate", "--family", "cauchy", "--beta", "0.8", "--nu", "0.5",
         "--alpha=-0.1", "--big-t", "50", "--seed", "1", "--out", out], capsys)
    assert code == EXIT_OK
    values = np.loadtxt(out, delimiter=",", skiprows=1, usecols=2)
    assert values.shape == (600,)
    assert abs(np.std(values) - 0.5) < 0.1


# ---------------------------------------------------------------------------
# fit


def test_fit_recovers_panel_b(series_dir, capsys):
    code, out, err = run_cli(
        ["fit", "--series", series_dir / "fou_b.csv", "--family", "fou",
         "--mean-mode", "known:0"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["fit"]["converged"] is True
    # one-shot recovery at n = 2400: the roughness estimate sits near -0.40
    assert abs(payload["report_scale"]["alpha"] - (-0.40)) < 0.04
    assert payload["fit"]["regime"]["clt_case"] == "CASE1_GAUSSIAN"
    ses = payload["sandwich"]["std_errors"]
    assert len(ses) == 3 and all(s > 0 for s in ses)
    assert any("pseudo-true" in note for note in payload["notes"])
    assert "regime:" in err


def test_fit_writes_out_file(series_dir, tmp_path, capsys):
    out = tmp_path / "fit.json"
    code, stdout, _ = run_cli(
        ["fit", "--series", series_dir / "fou_b.csv", "--family", "fou",
         "--mean-mode", "known:0", "--out", out], capsys)
    assert code == EXIT_OK
    assert out.read_text() == stdout


def test_fit_empty_file_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code, _, err = run_cli(["fit", "--series", empty], capsys)
    assert code == EXIT_DATA
    assert "empty" in err


def test_fit_requires_series(capsys):
    code, _, _ = run_cli(["fit", "--family", "fou"], capsys)
    assert code == EXIT_CONFIG


def test_fit_nonconvergence_exits_nonzero_with_partial_result(
    series_dir, capsys, monkeypatch
):
    real_fit = cli.fit_mcle

    def stubborn(*args, **kwargs):
        return dataclasses.replace(real_fit(*args, **kwargs), converged=False)

    monkeypatch.setattr(cli, "fit_mcle", stubborn)
    code, out, _ = run_cli(
        ["fit", "--series", series_dir / "fou_b.csv", "--family", "fou",
         "--mean-mode", "known:0"], capsys)
    assert code == EXIT_CONVERGENCE
    payload = json.loads(out)
    assert payload["fit"]["converged"] is False
    assert payload["sandwich"] is None
    assert any("did not converge" in n for n in payload["notes"])


def test_fit_long_memory_series_reports_nominal_ses(series_dir, capsys):
    """Outside the Gaussian-limit regime the fit still prints errors, tagged."""
    code, out, _ = run_cli(
        ["fit", "--series", series_dir / "cauchy_lm.csv", "--family", "cauchy",
         "--mean-mode", "known:0"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["fit"]["regime"]["clt_case"] == "CASE3_ROSENBLATT"
    ses = payload["sandwich"]["std_errors"]
    assert len(ses) == 3 and all(s > 0 for s in ses)
    assert payload["sandwich"]["diagnostics"][0].startswith("nominal (")
    assert any("nominal" in n for n in payload["notes"])


def test_fit_other_family_converges_with_pseudo_parameter_note(series_dir, capsys):
    code, out, _ = run_cli(
        ["fit", "--series", series_dir / "cauchy_lm.csv", "--family", "fou",
         "--mean-mode", "known:0"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["fit"]["converged"] is True
    assert any("pseudo-true" in n for n in payload["notes"])


# ---------------------------------------------------------------------------
# mc-study


def test_mc_study_byte_identical_and_dominant_roughness(tmp_path, capsys):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["mc-study", "--family", "fou", "--panels", "B", "--big-t", "120",
            "--reps", "6", "--seed", "11"]
    assert run_cli(args + ["--out", out1], capsys)[0] == EXIT_OK
    assert run_cli(args + ["--out", out2], capsys)[0] == EXIT_OK
    assert sha(out1) == sha(out2)

    text = out1.read_text()
    assert "# panel=B T=120 reps_used=6 failures=0" in comments(text)
    rows = csv_rows(text)
    assert [r[2] for r in rows] == ["kappa", "nu", "alpha"]
    ratios = {r[2]: float(r[10]) for r in rows}
    assert all(v > 0 for v in ratios.values())
    # the composite likelihood pins roughness far better than the moment
    # estimator at short horizons
    assert ratios["alpha"] < 0.8


def test_mc_study_estimated_mean_adds_mu_row(capsys):
    code, out, _ = run_cli(
        ["mc-study", "--family", "fou", "--panels", "C", "--big-t", "120",
         "--reps", "3", "--mean-mode", "estimated", "--seed", "2"], capsys)
    assert code == EXIT_OK
    rows = csv_rows(out)
    assert [r[2] for r in rows] == ["kappa", "nu", "alpha", "mu"]


def test_mc_study_single_replication_warns_and_zeroes_stds(capsys):
    code, out, _ = run_cli(
        ["mc-study", "--family", "fou", "--panels", "C", "--big-t", "120",
         "--reps", "1", "--seed", "3"], capsys)
    assert code == EXIT_OK
    assert any("replications=1" in c for c in comments(out))
    for row in csv_rows(out):
        assert row[5] == "0" and row[7] == "0"  # mcle_std, mme_std


def test_mc_study_excess_failures_exit_nonzero(capsys):
    # rough Cauchy at a tiny horizon: the moment estimator's roughness
    # estimate leaves the admissible interval, so the sole replication fails
    code, _, err = run_cli(
        ["mc-study", "--family", "cauchy", "--panels", "A", "--big-t", "120",
         "--reps", "1", "--mean-mode", "estimated", "--seed", "3"], capsys)
    assert code == EXIT_CONVERGENCE
    assert "replications failed" in err
    assert "rep failed" in err  # individual failures are logged


def test_mc_study_config_validation(capsys):
    assert run_cli(["mc-study", "--panels", "Z"], capsys)[0] == EXIT_CONFIG
    assert run_cli(["mc-study", "--reps", "0"], capsys)[0] == EXIT_CONFIG
    with pytest.raises(ConfigError):
        StudyConfig(replications=0)
    with pytest.raises(ConfigError):
        StudyConfig(panels=("A", "Q"))


def test_mc_study_pairwise_tuples(capsys):
    code, out, _ = run_cli(
        ["mc-study", "--family", "fou", "--panels", "C", "--big-t", "120",
         "--reps", "2", "--q", "2", "--strides", "1,6", "--seed", "4"], capsys)
    assert code == EXIT_OK
    assert any("q=2 strides=1,6" in c for c in comments(out))


# ---------------------------------------------------------------------------
# compare-mle


def test_compare_mle_single_point_and_cap_truncation(capsys):
    code, out, _ = run_cli(
        ["compare-mle", "--big-t", "10", "--reps", "2", "--seed", "5"], capsys)
    assert code == EXIT_OK
    assert len(csv_rows(out)) == 1

    code, out, _ = run_cli(
        ["compare-mle", "--big-t", "10,400", "--reps", "1", "--seed", "5"],
        capsys)
    assert code == EXIT_OK
    assert len(csv_rows(out)) == 1  # T=400 exceeds the cap and is dropped
    assert any("full-likelihood cap" in c for c in comments(out))

    for flag in ("--n-per-day", "--big-t"):  # a zero rate or horizon is refused
        code, _, err = run_cli(["compare-mle", flag, "0", "--reps", "1"], capsys)
        assert code == EXIT_CONFIG and "must be >= 1" in err


def test_compare_mle_runtime_ratio_falls_rmse_ratio_steady(capsys):
    code, out, _ = run_cli(
        ["compare-mle", "--big-t", "10,40", "--reps", "2", "--seed", "5"],
        capsys)
    assert code == EXIT_OK
    rows = csv_rows(out)
    assert len(rows) == 2
    time_ratio = [float(r[4]) for r in rows]
    rmse_ratio = [float(r[7]) for r in rows]
    # the full likelihood's cubic cost takes over quickly
    assert time_ratio[1] < 0.5 * time_ratio[0]
    # estimates are seed-deterministic even though times are not
    assert 0.5 < rmse_ratio[0] < 0.9
    assert 0.5 < rmse_ratio[1] < 0.9


# ---------------------------------------------------------------------------
# heatmap


def test_heatmap_argmax_cell_contains_truth(series_dir, tmp_path, capsys):
    out = tmp_path / "hm.csv"
    code, _, _ = run_cli(
        ["heatmap", "--series", series_dir / "cauchy_d.csv", "--family",
         "cauchy", "--grid-x", "0.3:3:7", "--grid-alpha=-0.3:0.3:7",
         "--out", out], capsys)
    assert code == EXIT_OK
    text = out.read_text()
    rows = csv_rows(text)
    assert len(rows) == 49
    argmax = [r for r in rows if r[4] == "1"]
    assert len(argmax) == 1
    x_star, a_star = float(argmax[0][1]), float(argmax[0][2])
    # the argmax node is the grid point nearest the simulation truth (1.0, 0.0)
    log_step = math.log(3 / 0.3) / 6
    assert abs(math.log(x_star) - math.log(1.0)) <= log_step / 2
    assert abs(a_star - 0.0) <= 0.05
    # the independently fitted point lands in the same cell
    assert argmax[0][5] == "1"
    assert any(c.startswith("# mcle ") for c in comments(text))


def test_heatmap_single_cell(series_dir, capsys):
    code, out, _ = run_cli(
        ["heatmap", "--series", series_dir / "fou_b.csv", "--family", "fou",
         "--grid-x", "0.01:0.01:1", "--grid-alpha=-0.4:-0.4:1"], capsys)
    assert code == EXIT_OK
    rows = csv_rows(out)
    assert len(rows) == 1
    assert rows[0][4] == "1"
    assert float(rows[0][3]) < 0


def test_heatmap_budget_error(series_dir, capsys):
    code, _, err = run_cli(
        ["heatmap", "--series", series_dir / "fou_b.csv",
         "--grid-x", "1e-4:1:200", "--grid-alpha=-0.45:0.45:200"], capsys)
    assert code == EXIT_BUDGET
    assert "budget" in err


def test_heatmap_requires_series(capsys):
    assert run_cli(["heatmap", "--family", "fou"], capsys)[0] == EXIT_CONFIG


# ---------------------------------------------------------------------------
# profile


def test_profile_max_matches_fit(series_dir, capsys):
    code, out, _ = run_cli(
        ["profile", "--series", series_dir / "fou_b.csv", "--family", "fou",
         "--axis", "1e-3:0.1:5", "--mean-mode", "known:0"], capsys)
    assert code == EXIT_OK
    fit_loglik = None
    for c in comments(out):
        if c.startswith("# mcle "):
            fit_loglik = float(c.split("loglik=")[1].split()[0])
    rows = csv_rows(out)
    at_fit = [r for r in rows if r[5] == "1"]
    assert len(at_fit) == 1
    assert at_fit[0][4] == "1"  # normalized profile peaks at the fitted point
    cl_max = max(float(r[3]) for r in rows if r[6] == "1")
    assert abs(cl_max - fit_loglik) <= 1e-4 * abs(fit_loglik)
    for r in rows:
        assert float(r[4]) <= 1.0


def test_profile_single_point(series_dir, capsys):
    code, out, _ = run_cli(
        ["profile", "--series", series_dir / "fou_b.csv", "--family", "fou",
         "--axis", "0.01:0.01:1", "--mean-mode", "known:0",
         "--no-include-fit"], capsys)
    assert code == EXIT_OK
    assert len(csv_rows(out)) == 1


def test_profile_interior_maximum_for_cauchy(series_dir, capsys):
    code, out, _ = run_cli(
        ["profile", "--series", series_dir / "cauchy_d.csv", "--family",
         "cauchy", "--axis", "0.2:3:9", "--mean-mode", "known:0"], capsys)
    assert code == EXIT_OK
    rows = csv_rows(out)
    cls = [float(r[3]) for r in rows]
    k = cls.index(max(cls))
    assert 0 < k < len(rows) - 1  # maximum strictly inside the sweep
    assert rows[k][5] == "1"  # ... and it is the fitted point


def test_profile_boundary_ridge_on_cumulated_fractional_noise(series_dir, capsys):
    """Series generated at zero reversion pull the sweep toward the boundary.

    The profile over the persistence parameter peaks in the lowest decade of
    the default grid and falls monotonically above the peak, while the inner
    roughness maximizer drifts up toward zero rather than into long memory.
    """
    code, out, _ = run_cli(
        ["profile", "--series", series_dir / "fbm.csv", "--family", "fou",
         "--axis", "1e-4:1:10", "--fix", "sample", "--no-include-fit"],
        capsys)
    assert code == EXIT_OK
    rows = csv_rows(out)
    xs = [float(r[1]) for r in rows]
    cls = [float(r[3]) for r in rows]
    k = cls.index(max(cls))
    assert xs[k] <= 1e-3
    assert all(cls[i] > cls[i + 1] for i in range(k, len(cls) - 1))
    assert float(rows[-1][2]) > -0.15  # alpha levels out near zero at large x


def test_profile_inner_failures_are_flagged(series_dir, capsys, monkeypatch):
    real_eval = cli._cl_value

    def flaky(core, model):
        kappa = model.params.kappa
        if abs(kappa - 0.01) < 1e-12:
            raise EvaluationError("synthetic failure")
        return real_eval(core, model)

    monkeypatch.setattr(cli, "_cl_value", flaky)
    code, out, _ = run_cli(
        ["profile", "--series", series_dir / "fou_b.csv", "--family", "fou",
         "--axis", "0.001:0.1:3", "--mean-mode", "known:0",
         "--no-include-fit"], capsys)
    assert code == EXIT_OK
    rows = csv_rows(out)
    flags = {float(r[1]): r[6] for r in rows}
    assert flags[0.01] == "0"
    assert sum(1 for v in flags.values() if v == "1") == 2
    failed = [r for r in rows if r[6] == "0"]
    assert failed[0][3] == "" and failed[0][4] == ""


# ---------------------------------------------------------------------------
# tick pipeline commands


def test_rv_command_deterministic_with_report(tick_dir, tmp_path, capsys):
    out1, out2 = tmp_path / "rv1.csv", tmp_path / "rv2.csv"
    args = ["rv", "--data", tick_dir, "--slot-seconds", "60", "--blocks", "12"]
    assert run_cli(args + ["--out", out1], capsys)[0] == EXIT_OK
    assert run_cli(args + ["--out", out2], capsys)[0] == EXIT_OK
    assert sha(out1) == sha(out2)

    with open(out1) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["day", "block", "value"]
    assert len(rows) == 1 + 31 * 12
    values = np.array([float(r[2]) for r in rows[1:] if r[2]])
    assert np.isfinite(values).all()

    report = json.loads((tmp_path / "rv1.csv.report.json").read_text())
    assert report["rows_total"] == 31 * 2880
    assert report["rows_malformed"] == 0
    assert report["series"][0]["kind"] == "log_rv"
    assert report["series"][0]["n_days"] == 31


def test_volume_block_grid_emits_one_series_per_frequency(
    tick_dir, tmp_path, capsys
):
    out = tmp_path / "vol.csv"
    code, _, _ = run_cli(
        ["volume", "--data", tick_dir, "--block-grid", "12,24", "--out", out],
        capsys)
    assert code == EXIT_OK
    for blocks in (12, 24):
        path = tmp_path / f"vol_{blocks}.csv"
        assert path.exists()
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 31 * blocks
    report = json.loads((tmp_path / "vol.csv.report.json").read_text())
    assert [s["blocks_per_day"] for s in report["series"]] == [12, 24]
    assert all(s["kind"] == "log_volume" for s in report["series"])


def test_rv_and_volume_output_with_a_missing_day_can_be_fitted(tmp_path, capsys):
    # Day 20 has no trades, so both series carry its 12 blocks as blanks.
    ticks = tmp_path / "ticks.csv"
    write_ticks(ticks, [d for d in range(40) if d != 20], np.random.default_rng(11), True)
    for command, *extra in (("rv", "--slot-seconds", "60"), ("volume",)):
        series = tmp_path / f"{command}.csv"
        code, _, _ = run_cli([command, "--data", ticks, "--out", series, *extra], capsys)
        assert code == EXIT_OK
        assert sum(line.endswith(",") for line in series.read_text().splitlines()) == 12
        code, out, _ = run_cli(["fit", "--series", series, "--family", "cauchy"], capsys)
        assert code == EXIT_OK
        fit = json.loads(out)["fit"]
        assert fit["delta"] == pytest.approx(1 / 12, rel=1e-12)
        assert any(d.startswith("masked-rows:") for d in fit["diagnostics"])


def test_volume_block_grid_requires_out(tick_dir, capsys):
    code, _, _ = run_cli(
        ["volume", "--data", tick_dir, "--block-grid", "12,24"], capsys)
    assert code == EXIT_CONFIG


def test_signature_flat_for_noiseless_ticks(tick_dir, capsys):
    code, out, _ = run_cli(
        ["signature", "--data", tick_dir, "--freqs", "30,60,300"], capsys)
    assert code == EXIT_OK
    rows = csv_rows(out)
    assert [int(r[0]) for r in rows] == [30, 60, 300]
    scaled = {int(r[0]): float(r[1]) for r in rows}
    assert scaled[300] == 1.0  # anchored at the slowest frequency
    for s, v in scaled.items():
        assert abs(v - 1.0) < 0.05
    for r in rows:
        assert float(r[2]) < float(r[1]) < float(r[3])


def test_pipeline_commands_require_data(capsys):
    assert run_cli(["rv", "--out", "x.csv"], capsys)[0] == EXIT_CONFIG
    assert run_cli(["volume"], capsys)[0] == EXIT_CONFIG
    assert run_cli(["signature"], capsys)[0] == EXIT_CONFIG


def test_rv_missing_directory_is_data_error(tmp_path, capsys):
    empty = tmp_path / "noticks"
    empty.mkdir()
    code, _, _ = run_cli(["rv", "--data", empty, "--out", "x.csv"], capsys)
    assert code == EXIT_DATA


# ---------------------------------------------------------------------------
# config files


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(
        "# study defaults\nfamily=fou\npanel=C\nbig_t=150\nseed=9\n"
        f"out={tmp_path / 'a.csv'}\n"
    )
    assert run_cli(["simulate", "--config", cfg], capsys)[0] == EXIT_OK
    assert (tmp_path / "a.csv").exists()

    # an explicit flag wins over the file
    code, _, _ = run_cli(
        ["simulate", "--config", cfg, "--seed", "10",
         "--out", tmp_path / "b.csv"], capsys)
    assert code == EXIT_OK
    assert sha(tmp_path / "a.csv") != sha(tmp_path / "b.csv")


def test_config_file_syntax_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family fou\n")
    code, _, err = run_cli(["simulate", "--config", cfg], capsys)
    assert code == EXIT_CONFIG
    assert "KEY=VALUE" in err


@pytest.mark.parametrize("command", ["simulate", "fit", "mc-study", "compare-mle", "heatmap", "profile"])
@pytest.mark.parametrize("family", ["FOU", "fuo"])
def test_config_file_family_outside_choices(tmp_path, capsys, command, family):
    # A config-file family gets the same choices as --family: no case folding
    # and no fallback to the other family.
    cfg = tmp_path / "family.cfg"
    cfg.write_text(f"family={family}\n")
    out = tmp_path / "out.csv"
    code, _, err = run_cli(
        [command, "--config", cfg, "--series", tmp_path / "absent.csv", "--out", out]
        if command in ("fit", "heatmap", "profile")
        else [command, "--config", cfg, "--out", out],
        capsys,
    )
    assert code == EXIT_CONFIG
    assert f"unknown family '{family}'" in err
    assert not out.exists()


def test_config_file_boolean_include_fit(series_dir, tmp_path, capsys):
    args = ["profile", "--series", series_dir / "fou_b.csv", "--family", "fou",
            "--axis", "0.005:0.05:3", "--mean-mode", "known:0"]
    _, flag_out, _ = run_cli(args + ["--no-include-fit"], capsys)
    cfg = tmp_path / "profile.cfg"
    cfg.write_text("include_fit=false\n")
    code, cfg_out, _ = run_cli(args + ["--config", cfg], capsys)
    assert code == EXIT_OK
    assert cfg_out == flag_out
    assert len(csv_rows(cfg_out)) == 3
    cfg.write_text("include_fit=maybe\n")
    code, _, err = run_cli(args + ["--config", cfg], capsys)
    assert code == EXIT_CONFIG
    assert "include_fit" in err


def test_config_file_missing(capsys):
    code, _, _ = run_cli(["simulate", "--config", "/nonexistent.cfg"], capsys)
    assert code == EXIT_CONFIG
