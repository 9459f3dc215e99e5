"""Tick pipeline: ingestion, gridding, corrections, block series."""
import numpy as np
import pytest
from scipy.special import digamma

from gpcl import hf
from gpcl.errors import ConfigError, DataError, IngestError

SEC_PER_DAY = 86_400


def make_ticks(times_ms, prices, quote=None):
    times_ms = np.asarray(times_ms, dtype=np.int64)
    prices = np.asarray(prices, dtype=float)
    qty = np.ones_like(prices)
    quote = prices * qty if quote is None else np.asarray(quote, dtype=float)
    return hf.TickData(times_ms, prices, qty, quote, len(prices), 0)


def brownian_ticks(seed, n_days, per_block_sigma, ticks_per_sec=1, p0=100.0):
    """Piecewise-constant-volatility log price sampled on a uniform clock."""
    rng = np.random.default_rng(seed)
    blocks = per_block_sigma.shape[1]
    ticks_per_day = SEC_PER_DAY * ticks_per_sec
    per_block = ticks_per_day // blocks
    inc_sd = np.repeat(per_block_sigma / np.sqrt(per_block), per_block, axis=1)
    increments = rng.standard_normal((n_days, ticks_per_day)) * inc_sd
    logp = np.cumsum(increments.reshape(-1)) + np.log(p0)
    step = 1000 // ticks_per_sec
    t = np.arange(n_days * ticks_per_day, dtype=np.int64) * step + step - 1
    return make_ticks(t, np.exp(logp))


# ---------------------------------------------------------------- ingestion

def test_ingest_empty_file(tmp_path):
    f = tmp_path / "empty.csv"
    f.write_text("")
    data = hf.ingest_ticks(f)
    assert len(data) == 0
    assert data.rows_total == 0 and data.rows_malformed == 0


def test_ingest_sorts_out_of_order_rows(tmp_path):
    f = tmp_path / "ticks.csv"
    f.write_text(
        "1,100.5,2.0,201.0,2000,True,True\n"
        "2,101.0,1.0,101.0,1000,False,True\n"
    )
    data = hf.ingest_ticks(f)
    assert list(data.timestamp_ms) == [1000, 2000]
    assert list(data.price) == [101.0, 100.5]
    assert data.timestamp_ms[0] == 1000 and data.price[0] == 101.0
    assert data.quantity[0] == 1.0 and data.quote_volume[0] == 101.0


def test_ingest_synthetic_day_has_all_seconds(tmp_path):
    f = tmp_path / "day.csv"
    with open(f, "w") as fh:
        for s in range(SEC_PER_DAY):
            fh.write(f"{s},100,1.0,100.0,{s * 1000},True,True\n")
    data = hf.ingest_ticks(f)
    assert len(data) == SEC_PER_DAY
    assert np.all(data.price == 100.0)
    assert data.day_range() == (0, 0)


def test_ingest_header_and_extra_columns(tmp_path):
    f = tmp_path / "with_header.csv"
    f.write_text(
        "id,price,qty,quote_qty,time,is_buyer_maker,is_best_match,venue\n"
        "7,250.0,0.4,100.0,5000,False,True,spot\n"
    )
    data = hf.ingest_ticks(f)
    assert len(data) == 1
    assert data.price[0] == 250.0 and data.timestamp_ms[0] == 5000


def test_ingest_malformed_fraction(tmp_path):
    good = [f"{i},100,1,100,{1000 * i},T,T" for i in range(400)]
    ok_file = tmp_path / "ok.csv"
    ok_file.write_text("\n".join(good + ["x,notaprice,1,100,4,T,T"]) + "\n")
    data = hf.ingest_ticks(ok_file)  # 1/401 < 1%: kept, counted
    assert data.rows_malformed == 1 and len(data) == 400

    bad_file = tmp_path / "bad.csv"
    bad = [f"{i},-5,1,100,{1000 * i},T,T" for i in range(6)]
    bad_file.write_text("\n".join(good + bad) + "\n")
    with pytest.raises(IngestError, match="malformed"):
        hf.ingest_ticks(bad_file)


# ------------------------------------------------------------------ gridding

def test_grid_constant_price_fills_all_slots():
    t = np.arange(0, SEC_PER_DAY, 60, dtype=np.int64) * 1000 + 1
    ticks = make_ticks(t, np.full(len(t), 42.0))
    grid = hf.grid_prices(ticks, slot_seconds=15)
    assert grid.slots_per_day == 5760
    assert grid.values.shape == (1, 5760)
    np.testing.assert_allclose(grid.values, np.log(42.0))


def test_grid_preavg_is_mean_around_boundary():
    # window 2 = one trade each side of the boundary; the slot value is the
    # mean of the two logs
    boundary = 15_000
    t = [boundary - 1, boundary + 1, 80_000_000]
    ticks = make_ticks(t, [100.0, 101.0, 101.0])
    grid = hf.grid_prices(ticks, slot_seconds=15, preavg_window=2)
    expected = 0.5 * (np.log(100.0) + np.log(101.0))
    assert grid.values[0, 0] == pytest.approx(expected, rel=1e-14)


def test_grid_single_trade_is_previous_tick():
    t = [1_000, 80_000_000]
    ticks = make_ticks(t, [99.0, 99.0])
    grid = hf.grid_prices(ticks, slot_seconds=15, preavg_window=5)
    assert grid.values[0, 0] == pytest.approx(np.log(99.0), rel=1e-14)


def test_grid_drops_tradeless_day():
    t = [5_000, 2 * SEC_PER_DAY * 1000 + 5_000]  # day 0 and day 2 only
    ticks = make_ticks(t, [100.0, 100.0])
    grid = hf.grid_prices(ticks, slot_seconds=60)
    assert list(grid.day_index) == [0, 2]
    assert any(d == "day-dropped:1" for d in grid.diagnostics)
    r = hf.log_returns(grid)
    # the first slot of day 2 must not difference across the hole
    assert np.isnan(r[1, 0])


def reference_preavg(times, logp, boundary_ms, window):
    """Scalar reference for one slot: the former per-boundary gridding loop."""
    idx = int(np.searchsorted(times, boundary_ms, side="right"))
    before = idx - 1
    after = idx
    ahead_cap = window // 2
    taken = []
    n_after = 0
    while len(taken) < window:
        d_before = boundary_ms - times[before] if before >= 0 else None
        d_after = (
            times[after] - boundary_ms
            if after < len(times) and n_after < ahead_cap
            else None
        )
        if d_before is None and d_after is None:
            break
        if d_after is None or (d_before is not None and d_before <= d_after):
            taken.append(before)
            before -= 1
        else:
            taken.append(after)
            after += 1
            n_after += 1
    if not taken:
        return np.nan
    return float(np.mean(logp[np.asarray(taken)]))


def reference_grid(ticks, days, slot_seconds, window):
    logp = np.log(ticks.price)
    slot_ms = slot_seconds * 1000
    return np.array([
        [
            reference_preavg(ticks.timestamp_ms, logp, day * 86_400_000 + s * slot_ms, window)
            for s in range(1, SEC_PER_DAY // slot_seconds + 1)
        ]
        for day in days
    ])


def edge_case_tape():
    """Days 0, 1 and 3 of trades (day 2 missing) with every gridding edge case.

    Slot ends fall every 600 s.  Day 0 starts with a slot before any trade,
    has trades at equal distance on both sides of two boundaries (at 2400 s
    the tie decides which trades a window of two averages), one trade
    exactly on a boundary, a four-hour halt and trades just before
    midnight; day 1 opens with trades just after midnight.
    """
    rng = np.random.default_rng(19)
    day = 86_400_000
    hand = [
        1_199_000, 1_201_000, 1_198_000, 1_202_000, 1_202_000,  # ties around 1200 s
        1_800_000,  # exactly on the 1800 s boundary
        2_398_000, 2_399_000, 2_402_000,  # a tie that decides which trades count
        36_000_000 - 7, 50_400_000 + 3,  # either side of a 10:00-14:00 halt
        day - 40, day - 1, day + 1, day + 3, day + 250,  # around midnight
        day + 600_000 - 500, day + 600_000 + 500,  # a tie on day 1
    ]
    spread = np.concatenate([
        rng.integers(3_000_000, 36_000_000, 150),
        rng.integers(50_400_000, day, 150),
        rng.integers(day, 2 * day, 300),
        rng.integers(3 * day, 4 * day, 300),
    ])
    times = np.sort(np.concatenate([hand, spread])).astype(np.int64)
    prices = 100.0 * np.exp(np.cumsum(rng.standard_normal(times.size) * 1e-3))
    return make_ticks(times, prices)


def test_grid_matches_scalar_reference():
    ticks = edge_case_tape()
    for window in (1, 2, 3, 5, 7):
        grid = hf.grid_prices(ticks, slot_seconds=600, preavg_window=window)
        assert list(grid.day_index) == [0, 1, 3]
        expected = reference_grid(ticks, grid.day_index, 600, window)
        assert np.isnan(expected).sum() == (1 if window == 1 else 0)
        np.testing.assert_array_equal(grid.values, expected)
    # the signature grid: window 1 over every day in range, the missing one too
    got = hf._grid_days(ticks, np.arange(4), 600, 1)
    np.testing.assert_array_equal(got, reference_grid(ticks, range(4), 600, 1))


def test_grid_slot_seconds_must_divide_day():
    ticks = make_ticks([1000], [100.0])
    with pytest.raises(ConfigError, match="divide"):
        hf.grid_prices(ticks, slot_seconds=7)


# --------------------------------------------------------------- corrections

def test_diurnal_flat_returns_give_uniform_factors():
    rng = np.random.default_rng(31)
    slots = 96
    r = rng.standard_normal((250, slots)) * 0.01
    factors, diags = hf.diurnal_factors(r)
    assert factors.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.abs(factors - 1.0 / slots).max() < 0.0045 / slots * 96  # 5 sigma
    assert diags == ()
    corrected = hf.apply_diurnal(r, factors)
    assert abs(corrected.var() / r.var() - 1.0) < 0.005


def test_diurnal_recovers_injected_shape():
    rng = np.random.default_rng(32)
    slots = 96
    shape = 1.0 + 0.8 * np.cos(np.linspace(0, 2 * np.pi, slots, endpoint=False))
    r = rng.standard_normal((250, slots)) * 0.01 * shape[None, :]
    factors, _ = hf.diurnal_factors(r)
    truth = shape**2 / (shape**2).sum()
    assert np.corrcoef(factors, truth)[0, 1] > 0.99


def test_diurnal_floors_silent_slot():
    rng = np.random.default_rng(33)
    r = rng.standard_normal((40, 24)) * 0.01
    r[:, 5] = 0.0
    factors, diags = hf.diurnal_factors(r)
    assert factors[5] > 0.0
    assert any(d.startswith("zero-variance-slots-floored:1") for d in diags)


def test_diurnal_needs_thirty_days():
    with pytest.raises(DataError, match="30 days"):
        hf.diurnal_factors(np.ones((29, 24)))


def test_dow_identical_days_give_unit_factors():
    days = np.arange(100, 170)
    factors, diags = hf.dow_factors(days, np.full(70, 3.0))
    np.testing.assert_allclose(factors, 1.0, rtol=1e-12)
    assert diags == ()


def test_dow_weekend_effect_recovered():
    days = np.arange(700, 770)
    weekday = (days + 3) % 7
    rv = np.where(weekday >= 5, 2.0, 1.0)
    factors, _ = hf.dow_factors(days, rv)
    # overall mean is 9/7, so the weekend factor is 2/(9/7)
    np.testing.assert_allclose(factors[5:], 14.0 / 9.0, rtol=1e-12)
    np.testing.assert_allclose(factors[:5], 7.0 / 9.0, rtol=1e-12)
    r = np.ones((70, 4))
    corrected = hf.apply_dow(r, days, factors)
    np.testing.assert_allclose(
        corrected[weekday >= 5], 1.0 / np.sqrt(14.0 / 9.0), rtol=1e-12
    )


def test_dow_short_and_gappy_samples_flagged():
    days = np.arange(10_000, 10_005)  # 5 days: misses 2 weekdays
    factors, diags = hf.dow_factors(days, np.ones(5))
    assert len(factors) == 7
    assert any(d.startswith("single-week-sample") for d in diags)
    assert any(d.startswith("missing-weekdays:2") for d in diags)


def test_truncation_identity_without_exceedances():
    rng = np.random.default_rng(34)
    r = rng.standard_normal((20, 480)) * 0.001
    out, n = hf.truncate_jumps(r)
    assert n == 0
    np.testing.assert_array_equal(out, r)
    out_inf, n_inf = hf.truncate_jumps(r, c=1e12)
    assert n_inf == 0
    np.testing.assert_array_equal(out_inf, r)


def test_truncation_zeroes_single_spike():
    # bounded noise keeps every ordinary return under the cutoff, so the
    # planted spike is the only exceedance
    rng = np.random.default_rng(35)
    r = rng.uniform(-1.0, 1.0, size=(20, 480)) * 0.001
    r[7, 100] = 0.02
    out, n = hf.truncate_jumps(r)
    assert n == 1
    assert out[7, 100] == 0.0
    untouched = np.ones_like(r, dtype=bool)
    untouched[7, 100] = False
    np.testing.assert_array_equal(out[untouched], r[untouched])


# -------------------------------------------------------------- block series

def test_block_rv_constant_returns():
    r = np.full((1, 5760), 2e-4)
    rv = hf.block_rv(r, blocks_per_day=12)
    np.testing.assert_allclose(rv.values, np.log(480 * 4e-8), rtol=1e-12)
    assert rv.delta == pytest.approx(1.0 / 12.0)


def test_block_rv_two_slot_arithmetic():
    r = np.array([[0.01, -0.02]])
    rv = hf.block_rv(r, blocks_per_day=1)
    assert rv.values[0, 0] == pytest.approx(np.log(5e-4), rel=1e-12)


def test_block_rv_log_chi_square_bias():
    """Constant sigma: mean log-RV has the known chi-square log bias."""
    rng = np.random.default_rng(36)
    s, m = 1e-3, 480
    r = rng.standard_normal((40, 5760)) * s
    rv = hf.block_rv(r, blocks_per_day=12)
    target = np.log(m * s**2) + digamma(m / 2.0) - np.log(m / 2.0)
    se = np.sqrt(2.0 / m / rv.values.size)
    assert abs(np.nanmean(rv.values) - target) < 4.0 * se


def test_block_rv_requires_divisible_blocks():
    with pytest.raises(ConfigError, match="divisible"):
        hf.block_rv(np.ones((2, 5760)), blocks_per_day=7)


def test_block_rv_drops_zero_blocks_and_marks_missing_days():
    r = np.ones((2, 8)) * 0.01
    r[0, :4] = 0.0  # first block of day 0 identically zero
    rv = hf.block_rv(r, day_index=np.array([5, 7]), blocks_per_day=2)
    assert np.isnan(rv.values[0, 0]) and np.isfinite(rv.values[0, 1])
    assert list(rv.day_index) == [5, 6, 7]
    assert np.isnan(rv.values[1]).all()  # calendar gap day 6
    assert any(d.startswith("empty-or-zero-blocks:1") for d in rv.diagnostics)
    assert any(d.startswith("missing-days:1") for d in rv.diagnostics)
    series = rv.to_sample_series()
    assert series.delta == pytest.approx(0.5)
    assert np.isnan(series.values).sum() == 3


def test_noiseless_rv_tracks_integrated_variance():
    """Block RV against true per-block variance: unit slope at 480 slots."""
    rng = np.random.default_rng(77)
    sigma = rng.uniform(0.5, 2.0, size=(3, 12)) * 0.01
    ticks = brownian_ticks(77, 3, sigma, ticks_per_sec=10)
    grid = hf.grid_prices(ticks, slot_seconds=15, preavg_window=5)
    rv = hf.block_rv(hf.log_returns(grid), day_index=grid.day_index)
    rv_lin = np.exp(rv.values).reshape(-1)
    iv = (sigma**2).reshape(-1)
    ok = np.isfinite(rv_lin)
    design = np.vstack([np.ones(ok.sum()), iv[ok]]).T
    coef, *_ = np.linalg.lstsq(design, rv_lin[ok], rcond=None)
    assert 0.95 < coef[1] < 1.05


# ----------------------------------------------------------------- signature

def test_signature_flat_without_noise():
    sigma = np.full((31, 12), 2e-4 * np.sqrt(7200.0))
    ticks = brownian_ticks(41, 31, sigma)
    table = hf.volatility_signature(ticks, seconds=(1, 5, 15, 60, 300, 600))
    assert table.scaled_rv[-1] == 1.0
    assert np.abs(table.scaled_rv - 1.0).max() < 0.05
    assert np.all(table.upper > table.lower)


def test_signature_rises_with_noise():
    rng = np.random.default_rng(42)
    sigma = np.full((31, 12), 2e-4 * np.sqrt(7200.0))
    clean = brownian_ticks(42, 31, sigma)
    noisy_price = clean.price * np.exp(rng.standard_normal(len(clean)) * 3e-4)
    ticks = make_ticks(clean.timestamp_ms, noisy_price)
    table = hf.volatility_signature(ticks, seconds=(1, 15, 60, 600))
    assert table.scaled_rv[0] > 2.0
    assert table.scaled_rv[0] > table.scaled_rv[1] > table.scaled_rv[3]


def test_signature_single_frequency_and_preconditions():
    sigma = np.full((31, 12), 1e-3)
    ticks = brownian_ticks(43, 31, sigma)
    table = hf.volatility_signature(ticks, seconds=(60,))
    assert table.scaled_rv.shape == (1,)
    assert table.scaled_rv[0] == 1.0
    with pytest.raises(ConfigError, match="divide"):
        hf.volatility_signature(ticks, seconds=(7,))
    short = brownian_ticks(44, 5, np.full((5, 12), 1e-3))
    with pytest.raises(DataError, match="30 days"):
        hf.volatility_signature(short, seconds=(60,))


# -------------------------------------------------------------------- volume

def test_volume_constant_stays_flat():
    t = np.arange(0, 31 * SEC_PER_DAY, 1, dtype=np.int64) * 1000 + 1
    ticks = make_ticks(t, np.full(len(t), 100.0), quote=np.full(len(t), 2.0))
    vs = hf.volume_series(ticks, blocks_per_day=12)
    assert vs.kind == "log_volume" and vs.corrected
    np.testing.assert_allclose(vs.values, np.log(2.0 * 7200), rtol=1e-9)
    slope = [d for d in vs.diagnostics if d.startswith("trend-slope-per-block:")]
    assert len(slope) == 1
    assert abs(float(slope[0].split(":", 1)[1])) < 1e-12


def test_volume_growth_is_detrended():
    n_days = 31
    t = np.arange(0, n_days * SEC_PER_DAY, 1, dtype=np.int64) * 1000 + 1
    growth = np.exp(0.01 * (np.arange(len(t)) / SEC_PER_DAY))
    ticks = make_ticks(t, np.full(len(t), 100.0), quote=2.0 * growth)
    vs = hf.volume_series(ticks, blocks_per_day=12)
    flat = vs.values.reshape(-1)
    idx = np.arange(flat.size, dtype=float)
    ok = np.isfinite(flat)
    slope, _ = np.polyfit(idx[ok], flat[ok], 1)
    resid = flat[ok] - np.polyval(np.polyfit(idx[ok], flat[ok], 1), idx[ok])
    se = np.sqrt(resid.var(ddof=2) / ((idx[ok] - idx[ok].mean()) ** 2).sum())
    assert abs(slope) < 2.0 * se


def test_volume_zero_block_dropped():
    # trades only in the first half of each of 2 days: 1 block of 2 present
    t = np.array([1_000, SEC_PER_DAY * 1000 + 1_000], dtype=np.int64)
    ticks = make_ticks(t, [100.0, 100.0], quote=[5.0, 5.0])
    vs = hf.volume_series(ticks, blocks_per_day=2)
    assert np.isfinite(vs.values[:, 0]).all()
    assert np.isnan(vs.values[:, 1]).all()
    assert any(d.startswith("zero-volume-blocks:2") for d in vs.diagnostics)


# ------------------------------------------------------------- full pipeline

def test_rv_pipeline_deterministic_and_variance_neutral():
    sigma = np.tile(
        (1.0 + 0.5 * np.cos(np.linspace(0, 2 * np.pi, 12))) * 1e-3, (35, 1)
    )
    ticks = brownian_ticks(45, 35, sigma)
    rv1 = hf.build_rv_series(ticks, slot_seconds=60)
    rv2 = hf.build_rv_series(ticks, slot_seconds=60)
    np.testing.assert_array_equal(rv1.values, rv2.values)
    assert rv1.corrected
    assert rv1.values.shape == (35, 12)
    assert np.isfinite(rv1.values).all()

    grid = hf.grid_prices(ticks, slot_seconds=60)
    r = hf.log_returns(grid)
    factors, _ = hf.diurnal_factors(r)
    corrected = hf.apply_diurnal(r, factors)
    raw_var = np.nanvar(r)
    assert abs(np.nanvar(corrected) / raw_var - 1.0) < 0.005
