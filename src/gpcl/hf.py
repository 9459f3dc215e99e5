"""Tick-data pipeline: gridded prices, corrected returns, block series.

Turns raw trade files into the two series the estimators consume — blockwise
log-realized-variance and blockwise log-volume — via 15-second previous-tick
gridding with pre-averaging, intraday and day-of-week variance corrections,
jump truncation, and (for volume) log-linear detrending.  A volatility
signature table is provided as a sampling-frequency diagnostic.

Every stage is deterministic given its inputs.  Calendar gaps (days or
blocks without usable data) surface as NaN so downstream consumers skip any
window that touches them instead of silently spanning the hole.  One
vectorized kernel, run one day at a time, grids the prices for both the RV
series and the signature table.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, IngestError
from .simulate import SampleSeries

__all__ = [
    "TickData",
    "GridSeries",
    "RvSeries",
    "SignatureTable",
    "ingest_ticks",
    "grid_prices",
    "log_returns",
    "diurnal_factors",
    "apply_diurnal",
    "dow_factors",
    "apply_dow",
    "truncate_jumps",
    "block_rv",
    "volatility_signature",
    "volume_series",
    "build_rv_series",
]

MS_PER_DAY = 86_400_000
_HEADER_SYNONYMS = {
    "price": "price",
    "qty": "quantity",
    "quantity": "quantity",
    "quote_qty": "quote_volume",
    "quote_quantity": "quote_volume",
    "quoteqty": "quote_volume",
    "time": "timestamp_ms",
    "timestamp": "timestamp_ms",
    "transact_time": "timestamp_ms",
}
# positional fallback: (trade id, price, qty, quote qty, time ms, ...)
_POSITIONAL = {"price": 1, "quantity": 2, "quote_volume": 3, "timestamp_ms": 4}


@dataclass
class TickData:
    """Validated trades as parallel arrays, sorted by timestamp."""

    timestamp_ms: np.ndarray
    price: np.ndarray
    quantity: np.ndarray
    quote_volume: np.ndarray
    rows_total: int
    rows_malformed: int
    source: str = ""

    def __len__(self) -> int:
        return len(self.timestamp_ms)

    def day_range(self) -> tuple[int, int]:
        """First and last epoch day touched by the data (inclusive)."""
        if len(self) == 0:
            raise DataError("no ticks")
        days = self.timestamp_ms // MS_PER_DAY
        return int(days[0]), int(days[-1])


@dataclass
class GridSeries:
    """Equidistant per-slot values on a day x slot grid.

    ``values[d, s]`` sits at the end of slot ``s``, i.e. at
    ``day_index[d] * 86400 + (s + 1) * slot_seconds`` seconds.  Only days
    with at least one trade appear; dropped days are listed in diagnostics.
    """

    day_index: np.ndarray
    values: np.ndarray
    slot_seconds: int
    kind: str = "log_price"
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if 86_400 % self.slot_seconds:
            raise ConfigError(
                f"slot_seconds must divide 86400, got {self.slot_seconds}"
            )
        if self.values.shape != (len(self.day_index), self.slots_per_day):
            raise ConfigError("grid shape does not match day_index/slot count")

    @property
    def slots_per_day(self) -> int:
        return 86_400 // self.slot_seconds


@dataclass
class RvSeries:
    """Per-block values (log-RV or log-volume) on the full calendar range.

    ``values[d, b]`` is block ``b`` of calendar day ``day_index[d]``; NaN
    marks a gap (missing day or dropped block).  ``delta`` is the block
    length as a fraction of a day.
    """

    day_index: np.ndarray
    values: np.ndarray
    blocks_per_day: int
    kind: str = "log_rv"
    corrected: bool = False
    diagnostics: tuple[str, ...] = ()

    @property
    def delta(self) -> float:
        return 1.0 / self.blocks_per_day

    def to_sample_series(self) -> SampleSeries:
        return SampleSeries(
            values=self.values.reshape(-1),
            delta=self.delta,
            origin="EMPIRICAL",
            label=self.kind,
        )


@dataclass
class SignatureTable:
    """Average daily RV per sampling frequency, scaled by the slowest one."""

    seconds: np.ndarray
    scaled_rv: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    n_days: int


def _parse_row(row, cols) -> tuple[int, float, float, float] | None:
    try:
        t = int(float(row[cols["timestamp_ms"]]))
        p = float(row[cols["price"]])
        q = float(row[cols["quantity"]])
        v = float(row[cols["quote_volume"]])
    except (ValueError, IndexError):
        return None
    if not (math.isfinite(p) and p > 0.0):
        return None
    if not (math.isfinite(q) and q >= 0.0 and math.isfinite(v) and v >= 0.0):
        return None
    return t, p, q, v


def _header_columns(row) -> dict | None:
    """Column map from a header row, or None if the row looks like data."""
    try:
        float(row[_POSITIONAL["price"]])
        return None
    except (ValueError, IndexError):
        pass
    cols = {}
    for i, name in enumerate(row):
        key = _HEADER_SYNONYMS.get(name.strip().lower())
        if key is not None and key not in cols:
            cols[key] = i
    if len(cols) == 4:
        return cols
    return dict(_POSITIONAL)


def ingest_ticks(path) -> TickData:
    """Read one trade CSV into sorted, validated arrays.

    The layout is (trade id, price, qty, quote qty, time ms, ...) with
    extra columns ignored; a header row is detected and mapped by name.
    Malformed rows are skipped and counted; more than 1% of them aborts
    the ingestion.
    """
    cols = dict(_POSITIONAL)
    rows: list[tuple[int, float, float, float]] = []
    total = bad = 0
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            if total == 0 and not rows and not bad:
                header = _header_columns(row)
                if header is not None and header != dict(_POSITIONAL):
                    cols = header
                    continue
                if header is not None:
                    # non-numeric first row with unknown names: header form
                    continue
            total += 1
            parsed = _parse_row(row, cols)
            if parsed is None:
                bad += 1
            else:
                rows.append(parsed)
    if total and bad > 0.01 * total:
        raise IngestError(
            f"{bad} of {total} rows malformed in {path} (>1%); refusing the file"
        )
    if rows:
        arr = np.asarray(rows, dtype=float)
        order = np.argsort(arr[:, 0], kind="stable")
        arr = arr[order]
        t, p, q, v = (
            arr[:, 0].astype(np.int64),
            arr[:, 1],
            arr[:, 2],
            arr[:, 3],
        )
    else:
        t = np.empty(0, dtype=np.int64)
        p = q = v = np.empty(0)
    return TickData(
        timestamp_ms=t,
        price=p,
        quantity=q,
        quote_volume=v,
        rows_total=total,
        rows_malformed=bad,
        source=str(path),
    )


def _grid_at(times, logp, boundaries, window):
    """Mean log price of the ``window`` trades nearest each boundary.

    Each of ``window`` steps takes one more trade for every boundary at
    once: the nearer of the next trade before and the next one after, the
    earlier on a tie.  At most ``window // 2`` of them may lie after the
    boundary, so the value never looks ahead further than the averaging
    half-window; with no trades after (or ``window == 1``) it degenerates to
    previous tick.  The search runs over the whole tape, so trades of a
    neighbouring day count.  Values are summed in the order taken, as
    ``np.mean`` does for fewer than 8 terms; a boundary with no trade on
    either side is NaN.
    """
    last = len(times) - 1
    after = np.searchsorted(times, boundaries, side="right")
    ahead_end = np.minimum(after + window // 2, last + 1)
    before = after - 1
    total = np.zeros(len(boundaries))
    for _ in range(window):
        has_after = after < ahead_end
        nearest_after = np.minimum(after, last)
        d_before = boundaries - times[np.maximum(before, 0)]
        d_after = times[nearest_after] - boundaries
        take_before = (before >= 0) & (~has_after | (d_before <= d_after))
        take_after = has_after & ~take_before
        pick = np.where(take_before, before, nearest_after)
        np.add(total, logp[pick], out=total, where=take_before | take_after)
        before -= take_before
        after += take_after
    count = after - before - 1
    with np.errstate(invalid="ignore"):
        return np.where(count > 0, total / count, np.nan)


def _grid_days(ticks: TickData, days, slot_seconds: int, window: int) -> np.ndarray:
    """``_grid_at`` on the slot ends of each epoch day, as a days x slots array.

    One day at a time, so the kernel's temporaries stay O(slots).
    """
    times = ticks.timestamp_ms
    logp = np.log(ticks.price)
    slot_ms = slot_seconds * 1000
    ends = np.arange(slot_ms, MS_PER_DAY + 1, slot_ms, dtype=np.int64)
    values = np.empty((len(days), len(ends)))
    for d, day in enumerate(days):
        values[d] = _grid_at(times, logp, day * MS_PER_DAY + ends, window)
    return values


def grid_prices(ticks: TickData, slot_seconds: int = 15, preavg_window: int = 5) -> GridSeries:
    """Log prices on the equidistant grid, pre-averaged around boundaries.

    Each present day's slots go through the same kernel that builds the
    signature grid (there with a window of one trade).  Days without a
    single trade are dropped (reported in diagnostics); a slot with no trade
    before it and none it may look ahead to is NaN.
    """
    if preavg_window < 1:
        raise ConfigError(f"preavg_window must be >= 1, got {preavg_window}")
    if 86_400 % slot_seconds:
        raise ConfigError(f"slot_seconds must divide 86400, got {slot_seconds}")
    if len(ticks) == 0:
        raise DataError("no ticks to grid")
    first_day, last_day = ticks.day_range()
    present = np.unique(ticks.timestamp_ms // MS_PER_DAY)
    dropped = np.setdiff1d(np.arange(first_day, last_day + 1), present)
    return GridSeries(
        day_index=present,
        values=_grid_days(ticks, present, slot_seconds, preavg_window),
        slot_seconds=slot_seconds,
        kind="log_price",
        diagnostics=tuple(f"day-dropped:{day}" for day in dropped),
    )


def log_returns(grid: GridSeries) -> np.ndarray:
    """Per-slot log-price differences with NaN at calendar gaps.

    The first slot of a day differences against the last slot of the
    previous day only when that day is actually the previous calendar day;
    otherwise (start of sample, dropped day) the return is NaN.
    """
    vals = grid.values
    flat = vals.reshape(-1)
    r = np.full_like(flat, np.nan)
    r[1:] = flat[1:] - flat[:-1]
    r = r.reshape(vals.shape)
    gap = np.diff(grid.day_index) != 1
    r[0, 0] = np.nan
    if gap.any():
        r[1:][gap, 0] = np.nan
    return r


def diurnal_factors(returns: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """Per-slot variance shares, normalized to sum to one.

    ``returns`` is a (days x slots) array; NaN entries are ignored.  Slots
    with no variation are floored at 1e-12 and reported.
    """
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2:
        raise DataError("returns must be a (days x slots) array")
    if returns.shape[0] < 30:
        raise DataError(
            f"diurnal factors need >= 30 days, got {returns.shape[0]}"
        )
    with np.errstate(invalid="ignore"):
        raw = np.nanmean(returns**2, axis=0)
    raw = np.where(np.isfinite(raw), raw, 0.0)
    diags: tuple[str, ...] = ()
    floored = raw < 1e-12
    if floored.any():
        raw = np.where(floored, 1e-12, raw)
        diags += (f"zero-variance-slots-floored:{int(floored.sum())}",)
    factors = raw / raw.sum()
    return factors, diags


def apply_diurnal(returns: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Rescale returns by 1/sqrt(factor x slots-per-day).

    Because the factors sum to one, the average rescaling is neutral: the
    total sample variance is preserved up to sampling noise.
    """
    factors = np.asarray(factors, dtype=float)
    slots = factors.shape[0]
    return returns / np.sqrt(factors * slots)


def dow_factors(
    day_index: np.ndarray, daily_rv: np.ndarray
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Mean daily RV per weekday, normalized to average one.

    ``day_index`` holds epoch days (day 0 = a Thursday).  Weekdays missing
    from the sample get factor 1 with a diagnostic; a sample of at most one
    week is flagged as too short to separate the weekday effect.
    """
    day_index = np.asarray(day_index)
    daily_rv = np.asarray(daily_rv, dtype=float)
    if day_index.shape != daily_rv.shape:
        raise DataError("day_index and daily_rv must align")
    weekday = (day_index + 3) % 7  # Monday = 0
    diags: tuple[str, ...] = ()
    if len(day_index) <= 7:
        diags += ("single-week-sample: weekday factors are poorly identified",)
    means = np.full(7, np.nan)
    for w in range(7):
        sel = (weekday == w) & np.isfinite(daily_rv)
        if sel.any():
            means[w] = daily_rv[sel].mean()
    missing = ~np.isfinite(means)
    if missing.any():
        diags += (f"missing-weekdays:{int(missing.sum())}",)
    overall = means[~missing].mean() if (~missing).any() else 1.0
    with np.errstate(invalid="ignore"):
        factors = np.where(missing, 1.0, means / overall)
    return factors, diags


def apply_dow(
    returns: np.ndarray, day_index: np.ndarray, factors: np.ndarray
) -> np.ndarray:
    """Divide each day's returns by the square root of its weekday factor."""
    weekday = (np.asarray(day_index) + 3) % 7
    scale = np.sqrt(np.asarray(factors, dtype=float)[weekday])
    return returns / scale[:, None]


def _daily_bipower(returns: np.ndarray) -> np.ndarray:
    """Bipower variance scale per day: (pi/2) x mean |r_i||r_{i-1}| x slots."""
    a = np.abs(returns)
    prod = a[:, 1:] * a[:, :-1]
    finite = np.isfinite(prod)
    counts = finite.sum(axis=1)
    sums = np.where(finite, prod, 0.0).sum(axis=1)
    mean_prod = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return (np.pi / 2.0) * mean_prod * returns.shape[1]


def truncate_jumps(returns: np.ndarray, c: float = 4.0) -> tuple[np.ndarray, int]:
    """Zero out returns larger than a local-volatility threshold.

    The cutoff is ``c x sigma_day x slots^{-0.49}`` with ``sigma_day`` the
    square root of the day's own bipower variance, so only moves far outside
    the continuous scale are removed.  Returns the cleaned array and how
    many entries were zeroed.
    """
    if not c > 0:
        raise ConfigError(f"truncation constant must be positive, got {c}")
    returns = np.asarray(returns, dtype=float)
    _, slots = returns.shape
    bp = _daily_bipower(returns)
    threshold = c * np.sqrt(bp) * slots**-0.49
    with np.errstate(invalid="ignore"):
        mask = np.abs(returns) > threshold[:, None]
    out = returns.copy()
    out[mask] = 0.0
    return out, int(mask.sum())


def block_rv(
    returns: np.ndarray,
    day_index: np.ndarray | None = None,
    blocks_per_day: int = 12,
    corrected: bool = False,
) -> RvSeries:
    """Log of per-block sums of squared returns, on the full calendar range.

    Blocks with no finite return or an exactly-zero sum become NaN (counted
    in diagnostics) rather than a floored log value; days missing from
    ``day_index`` appear as all-NaN rows so gaps stay visible downstream.
    """
    returns = np.asarray(returns, dtype=float)
    n_days, slots = returns.shape
    if slots % blocks_per_day:
        raise ConfigError(
            f"slots per day {slots} not divisible by blocks_per_day {blocks_per_day}"
        )
    if day_index is None:
        day_index = np.arange(n_days, dtype=np.int64)
    day_index = np.asarray(day_index, dtype=np.int64)
    per_block = slots // blocks_per_day
    shaped = returns.reshape(n_days, blocks_per_day, per_block)
    finite = np.isfinite(shaped)
    sums = np.where(finite, shaped, 0.0) ** 2
    rv = sums.sum(axis=2)
    usable = finite.any(axis=2) & (rv > 0.0)
    dropped = int((~usable).sum())
    values_present = np.where(usable, np.log(np.where(usable, rv, 1.0)), np.nan)

    full_days = np.arange(day_index[0], day_index[-1] + 1, dtype=np.int64)
    values = np.full((len(full_days), blocks_per_day), np.nan)
    values[day_index - day_index[0]] = values_present
    diags: tuple[str, ...] = ()
    if dropped:
        diags += (f"empty-or-zero-blocks:{dropped}",)
    n_gap_days = len(full_days) - n_days
    if n_gap_days:
        diags += (f"missing-days:{n_gap_days}",)
    return RvSeries(
        day_index=full_days,
        values=values,
        blocks_per_day=blocks_per_day,
        kind="log_rv",
        corrected=corrected,
        diagnostics=diags,
    )


def volatility_signature(
    ticks: TickData, seconds=(1, 5, 15, 60, 300, 600)
) -> SignatureTable:
    """Average daily RV per sampling frequency, scaled by the slowest.

    Each row carries a two-standard-error band (also scaled).  A flat
    profile indicates that microstructure noise is negligible over the
    requested frequencies; a rise toward high frequencies is the classic
    noise pattern.
    """
    seconds = tuple(int(s) for s in seconds)
    if not seconds:
        raise ConfigError("at least one sampling frequency is required")
    for s in seconds:
        if s < 1 or 86_400 % s:
            raise ConfigError(f"sampling frequency {s}s must divide 86400")
    anchor = max(seconds)
    first_day, last_day = ticks.day_range()
    n_days_range = last_day - first_day + 1
    if n_days_range < 30:
        raise DataError(
            f"volatility signature needs >= 30 days, got {n_days_range}"
        )
    days = np.arange(first_day, last_day + 1)
    means, ses = {}, {}
    for s in sorted(set(seconds)):
        grid = _grid_days(ticks, days, s, 1)
        flat = grid.reshape(-1)
        r = np.full_like(flat, np.nan)
        r[1:] = np.diff(flat)
        r = r.reshape(grid.shape)
        finite = np.isfinite(r)
        day_ok = finite.sum(axis=1) >= (grid.shape[1] // 2)
        rv = np.where(finite, r, 0.0) ** 2
        daily = rv.sum(axis=1)[day_ok]
        if len(daily) < 2:
            raise DataError(f"not enough usable days at {s}s sampling")
        means[s] = float(daily.mean())
        ses[s] = float(daily.std(ddof=1) / np.sqrt(len(daily)))
    scale = means[anchor]
    sec_arr = np.asarray(seconds, dtype=np.int64)
    scaled = np.asarray([means[s] / scale for s in seconds])
    lower = np.asarray([(means[s] - 2 * ses[s]) / scale for s in seconds])
    upper = np.asarray([(means[s] + 2 * ses[s]) / scale for s in seconds])
    return SignatureTable(
        seconds=sec_arr,
        scaled_rv=scaled,
        lower=lower,
        upper=upper,
        n_days=n_days_range,
    )


def volume_series(ticks: TickData, blocks_per_day: int = 12) -> RvSeries:
    """Deseasonalized, detrended log quote-volume per block.

    Per-block sums are divided by a block-of-day factor (level-volume means
    normalized to average one), logged, and the fitted linear time trend is
    removed while the intercept is kept.  Zero-volume blocks become NaN.
    """
    if blocks_per_day < 1 or 86_400 % blocks_per_day:
        raise ConfigError(f"blocks_per_day {blocks_per_day} must divide 86400")
    if len(ticks) == 0:
        raise DataError("no ticks")
    block_ms = MS_PER_DAY // blocks_per_day
    first_day, last_day = ticks.day_range()
    days = np.arange(first_day, last_day + 1, dtype=np.int64)
    n_days = len(days)
    sums = np.zeros((n_days, blocks_per_day))
    d = (ticks.timestamp_ms // MS_PER_DAY - first_day).astype(np.int64)
    b = ((ticks.timestamp_ms % MS_PER_DAY) // block_ms).astype(np.int64)
    np.add.at(sums, (d, b), ticks.quote_volume)

    diags: tuple[str, ...] = ()
    zero = sums <= 0.0
    if zero.any():
        diags += (f"zero-volume-blocks:{int(zero.sum())}",)
    vol = np.where(zero, np.nan, sums)

    finite = np.isfinite(vol)
    counts = finite.sum(axis=0)
    col_sums = np.where(finite, vol, 0.0).sum(axis=0)
    factor_raw = np.where(counts > 0, col_sums / np.maximum(counts, 1), 1.0)
    factors = factor_raw / factor_raw.mean()
    logv = np.log(vol / factors[None, :])

    flat = logv.reshape(-1)
    t = np.arange(flat.size, dtype=float)
    ok = np.isfinite(flat)
    if ok.sum() >= 2:
        slope, intercept = np.polyfit(t[ok], flat[ok], 1)
        flat = flat - slope * t
        diags += (f"trend-slope-per-block:{slope:.3e}",)
    return RvSeries(
        day_index=days,
        values=flat.reshape(n_days, blocks_per_day),
        blocks_per_day=blocks_per_day,
        kind="log_volume",
        corrected=True,
        diagnostics=diags,
    )


def build_rv_series(
    ticks: TickData,
    slot_seconds: int = 15,
    preavg_window: int = 5,
    blocks_per_day: int = 12,
    truncation_c: float = 4.0,
) -> RvSeries:
    """Full price pipeline: grid, correct, truncate, block.

    Chains grid_prices -> log_returns -> diurnal correction -> day-of-week
    correction -> jump truncation -> block_rv, accumulating diagnostics.
    """
    grid = grid_prices(ticks, slot_seconds=slot_seconds, preavg_window=preavg_window)
    r = log_returns(grid)
    factors, d1 = diurnal_factors(r)
    r = apply_diurnal(r, factors)
    with np.errstate(invalid="ignore"):
        daily = np.nansum(np.where(np.isfinite(r), r, 0.0) ** 2, axis=1)
    wfac, d2 = dow_factors(grid.day_index, daily)
    r = apply_dow(r, grid.day_index, wfac)
    r, n_zeroed = truncate_jumps(r, c=truncation_c)
    rv = block_rv(
        r, day_index=grid.day_index, blocks_per_day=blocks_per_day, corrected=True
    )
    rv.diagnostics = (
        grid.diagnostics
        + d1
        + d2
        + (f"returns-truncated:{n_zeroed}",)
        + rv.diagnostics
    )
    return rv
