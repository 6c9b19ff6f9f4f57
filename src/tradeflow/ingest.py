"""Trade stream parsing, time-grid construction and trader state classification.

Trades are bucketed into fixed slices (default one hour) restricted to the
trading session (default 09:00-16:00 London, weekdays only).  Within each
slice a trader is classified as net buyer (+1), net seller (-1), neutral (2)
or inactive (0) from the imbalance ratio of signed to gross volume.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, time, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np

STATE_BUY = 1
STATE_SELL = -1
STATE_NEUTRAL = 2
STATE_INACTIVE = 0

ACTIVE_STATES = (STATE_SELL, STATE_BUY, STATE_NEUTRAL)

TRADE_FIELDS = ("trader_id", "timestamp", "instrument", "signed_volume", "price")


@dataclass(frozen=True)
class TradeRecord:
    """One transaction.  Volume is signed: buys positive, sells negative."""

    trader_id: str
    timestamp: int  # milliseconds since epoch, UTC
    instrument: str
    signed_volume: float
    price: float


@dataclass(frozen=True)
class RejectedRow:
    line_no: int
    reason: str
    raw: str


class ParseError(ValueError):
    """Raised when the input stream is unusable as a whole."""


def _parse_timestamp(text: str) -> int:
    """Accept epoch milliseconds or ISO-8601; return epoch milliseconds."""
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1000)


def parse_trades(stream, max_reject_fraction: float = 0.10):
    """Parse a CSV trade stream.

    Parameters
    ----------
    stream : file-like, str or bytes
        CSV text with a header naming the five trade fields.
    max_reject_fraction : float
        Fatal if more than this fraction of data rows is malformed.

    Returns
    -------
    (records, rejects)
        ``records`` sorted ascending by timestamp; ``rejects`` is the list of
        malformed rows with reasons (never silently dropped).
    """
    if isinstance(stream, bytes):
        stream = io.StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty stream: no header row")
    header = [h.strip() for h in header]
    if set(TRADE_FIELDS) - set(header):
        missing = sorted(set(TRADE_FIELDS) - set(header))
        raise ParseError(f"header is missing required fields: {missing}")
    col = {name: header.index(name) for name in TRADE_FIELDS}

    records = []
    rejects = []
    n_rows = 0
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        n_rows += 1
        try:
            ts = _parse_timestamp(row[col["timestamp"]])
            volume = float(row[col["signed_volume"]])
            price = float(row[col["price"]])
        except (ValueError, IndexError) as exc:
            rejects.append(RejectedRow(line_no, f"unparseable: {exc}", ",".join(row)))
            continue
        if volume == 0:
            rejects.append(RejectedRow(line_no, "zero signed_volume", ",".join(row)))
            continue
        if not price > 0 or not math.isfinite(price) or not math.isfinite(volume):
            rejects.append(RejectedRow(line_no, "price must be positive and finite", ",".join(row)))
            continue
        records.append(
            TradeRecord(
                trader_id=row[col["trader_id"]].strip(),
                timestamp=ts,
                instrument=row[col["instrument"]].strip(),
                signed_volume=volume,
                price=price,
            )
        )
    if n_rows and len(rejects) / n_rows > max_reject_fraction:
        raise ParseError(
            f"{len(rejects)} of {n_rows} rows malformed "
            f"(> {max_reject_fraction:.0%}); first reject: {rejects[0]}"
        )
    records.sort(key=lambda r: r.timestamp)
    return records, rejects


@dataclass(frozen=True)
class TimeGrid:
    """Ordered, disjoint, equal-duration slices restricted to the session.

    ``starts``/``ends`` are epoch milliseconds (UTC); ``day_index`` numbers
    the trading days; ``local_hour`` is the slice's session hour in the
    session time zone.
    """

    starts: np.ndarray
    ends: np.ndarray
    day_index: np.ndarray
    local_hour: np.ndarray
    slice_duration: timedelta = timedelta(hours=1)
    session_start: time = time(9, 0)
    session_end: time = time(16, 0)
    tz: str = "Europe/London"
    include_weekends: bool = False

    def __post_init__(self):
        for name in ("starts", "ends", "day_index", "local_hour"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def n_days(self) -> int:
        return len(np.unique(self.day_index))

    def contiguous_with_previous(self) -> np.ndarray:
        """Boolean mask: slice t follows slice t-1 with no session gap."""
        ok = np.zeros(len(self), dtype=bool)
        if len(self) > 1:
            ok[1:] = self.ends[:-1] == self.starts[1:]
        return ok

    def window(self, t0: int, t1: int) -> "TimeGrid":
        """Sub-grid over slice indices [t0, t1)."""
        return replace(
            self,
            starts=self.starts[t0:t1],
            ends=self.ends[t0:t1],
            day_index=self.day_index[t0:t1],
            local_hour=self.local_hour[t0:t1],
        )

    def day_slices(self) -> list[np.ndarray]:
        """Slice-index arrays grouped per trading day, in order."""
        days = np.unique(self.day_index)
        return [np.flatnonzero(self.day_index == d) for d in days]


def build_grid(
    start_date,
    end_date,
    slice_duration: timedelta = timedelta(hours=1),
    session_start: time = time(9, 0),
    session_end: time = time(16, 0),
    tz: str = "Europe/London",
    include_weekends: bool = False,
) -> TimeGrid:
    """Build the session-filtered time grid over [start_date, end_date).

    Dates are calendar dates in the session time zone; a slice is kept only
    if it lies wholly inside the session on an included day.
    """
    zone = ZoneInfo(tz)
    if isinstance(start_date, str):
        start_date = datetime.fromisoformat(start_date).date()
    if isinstance(end_date, str):
        end_date = datetime.fromisoformat(end_date).date()
    starts, ends, day_index, local_hour = [], [], [], []
    day = start_date
    d = 0
    while day < end_date:
        if include_weekends or day.weekday() < 5:
            cursor = datetime.combine(day, session_start)
            session_close = datetime.combine(day, session_end)
            emitted = False
            while cursor + slice_duration <= session_close:
                t0 = cursor.replace(tzinfo=zone)
                t1 = (cursor + slice_duration).replace(tzinfo=zone)
                starts.append(int(t0.timestamp() * 1000))
                ends.append(int(t1.timestamp() * 1000))
                day_index.append(d)
                local_hour.append(cursor.hour)
                cursor += slice_duration
                emitted = True
            if emitted:
                d += 1
        day += timedelta(days=1)
    return TimeGrid(
        starts=np.array(starts, dtype=np.int64),
        ends=np.array(ends, dtype=np.int64),
        day_index=np.array(day_index, dtype=np.int64),
        local_hour=np.array(local_hour, dtype=np.int64),
        slice_duration=slice_duration,
        session_start=session_start,
        session_end=session_end,
        tz=tz,
        include_weekends=include_weekends,
    )


@dataclass
class StateMatrix:
    """Per-trader, per-slice states with the underlying volumes.

    ``V`` is net signed volume, ``G`` gross volume, ``sigma`` the state code,
    ``counts`` the per-slice trade count, all shaped (n_traders, n_slices).
    """

    traders: list
    grid: TimeGrid
    V: np.ndarray
    G: np.ndarray
    sigma: np.ndarray
    counts: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.counts is None:
            self.counts = np.zeros(self.V.shape, dtype=np.int64)

    @property
    def trade_counts(self) -> np.ndarray:
        """In-window trade count per trader (activity ranking)."""
        return self.counts.sum(axis=1)

    @property
    def n_traders(self) -> int:
        return len(self.traders)

    @property
    def n_slices(self) -> int:
        return len(self.grid)

    def index_of(self, trader_id) -> int:
        try:
            return self.traders.index(trader_id)
        except ValueError:
            raise KeyError(f"unknown trader {trader_id!r}")

    def select_traders(self, trader_ids) -> "StateMatrix":
        idx = np.array([self.index_of(t) for t in trader_ids], dtype=np.intp)
        return StateMatrix(
            traders=list(trader_ids),
            grid=self.grid,
            V=self.V[idx],
            G=self.G[idx],
            sigma=self.sigma[idx],
            counts=self.counts[idx],
        )

    def slice_window(self, t0: int, t1: int) -> "StateMatrix":
        """Restrict to slice indices [t0, t1); activity recounts in-window."""
        return StateMatrix(
            traders=list(self.traders),
            grid=self.grid.window(t0, t1),
            V=self.V[:, t0:t1],
            G=self.G[:, t0:t1],
            sigma=self.sigma[:, t0:t1],
            counts=self.counts[:, t0:t1],
        )


def classify_states(trades, grid: TimeGrid, rho0: float = 0.01) -> StateMatrix:
    """Classify every trader's state in every slice of the grid.

    Trades outside the session/weekend slices are ignored.  The boundary
    |rho| == rho0 is assigned to the neutral state so the rule is total.
    """
    if not 0.01 <= rho0 <= 0.1:
        raise ValueError(f"rho0 must lie in [0.01, 0.1], got {rho0}")
    traders = sorted({tr.trader_id for tr in trades})
    tindex = {t: k for k, t in enumerate(traders)}
    n, T = len(traders), len(grid)
    V = np.zeros((n, T))
    G = np.zeros((n, T))
    counts = np.zeros((n, T), dtype=np.int64)
    if trades and T:
        ts = np.array([tr.timestamp for tr in trades], dtype=np.int64)
        vol = np.array([tr.signed_volume for tr in trades])
        rows = np.array([tindex[tr.trader_id] for tr in trades], dtype=np.intp)
        pos = np.searchsorted(grid.starts, ts, side="right") - 1
        in_grid = (pos >= 0) & (ts < grid.ends[np.clip(pos, 0, T - 1)])
        rows, pos, vol = rows[in_grid], pos[in_grid], vol[in_grid]
        np.add.at(V, (rows, pos), vol)
        np.add.at(G, (rows, pos), np.abs(vol))
        np.add.at(counts, (rows, pos), 1)
    sigma = states_from_volumes(V, G, rho0)
    return StateMatrix(traders=traders, grid=grid, V=V, G=G, sigma=sigma, counts=counts)


def states_from_volumes(V: np.ndarray, G: np.ndarray, rho0: float) -> np.ndarray:
    """Apply the imbalance-ratio threshold rule elementwise."""
    sigma = np.full(V.shape, STATE_INACTIVE, dtype=np.int8)
    active = G > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(active, V / np.where(active, G, 1.0), 0.0)
    sigma[active & (rho > rho0)] = STATE_BUY
    sigma[active & (rho < -rho0)] = STATE_SELL
    sigma[active & (np.abs(rho) <= rho0)] = STATE_NEUTRAL
    return sigma


def filter_active(matrix: StateMatrix, top_n: int = 500, min_trades: int = 100) -> StateMatrix:
    """Keep the top_n most active traders having at least min_trades trades.

    Activity is ranked by in-grid trade count; ties break by trader id so
    the output does not depend on input ordering.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    counts = matrix.trade_counts
    order = sorted(range(matrix.n_traders), key=lambda k: (-int(counts[k]), str(matrix.traders[k])))
    keep = [k for k in order if counts[k] >= min_trades][:top_n]
    keep_ids = sorted((matrix.traders[k] for k in keep), key=str)
    return matrix.select_traders(keep_ids)


@dataclass(frozen=True)
class TailFit:
    alpha: float
    x_min: float
    n_tail: int
    ci_low: float
    ci_high: float


class TailFitError(ValueError):
    pass


def fit_tail_exponent(counts, min_samples: int = 1000, min_tail: int = 50) -> TailFit:
    """Fit a discrete power-law tail exponent to per-trader trade counts.

    Discrete MLE ``alpha = 1 + n / sum(log(x / (x_min - 1/2)))`` over the
    tail ``x >= x_min``; x_min is chosen by minimal Kolmogorov-Smirnov
    distance between the empirical tail and the fitted law.  The 95%% CI uses
    the standard error (alpha - 1) / sqrt(n_tail).
    """
    x = np.asarray(counts, dtype=np.float64)
    x = x[x > 0]
    if len(x) < min_samples:
        raise TailFitError(f"need at least {min_samples} positive counts, got {len(x)}")
    if np.all(x == x[0]):
        raise TailFitError("degenerate input: all counts equal")
    xs = np.sort(x)
    candidates = np.unique(xs)
    best = None
    for xmin in candidates:
        if xmin <= 0.5:
            continue
        tail = xs[xs >= xmin]
        n = len(tail)
        if n < min_tail:
            break
        denom = np.sum(np.log(tail / (xmin - 0.5)))
        if denom <= 0:
            continue
        alpha = 1.0 + n / denom
        # KS distance against the continuous-approximation tail CDF,
        # evaluated once per distinct count (the data are heavily tied)
        vals, cnts = np.unique(tail, return_counts=True)
        emp = np.cumsum(cnts) / n
        # P(X <= v) for an integer count v corresponds to the continuous
        # bin edge v + 1/2
        model = 1.0 - ((vals + 0.5) / (xmin - 0.5)) ** (1.0 - alpha)
        ks = np.max(np.abs(emp - model))
        if best is None or ks < best[0]:
            best = (ks, alpha, xmin, n)
    if best is None:
        raise TailFitError("no candidate x_min left a tail of sufficient size")
    _, alpha, xmin, n = best
    se = (alpha - 1.0) / math.sqrt(n)
    return TailFit(alpha=alpha, x_min=float(xmin), n_tail=n, ci_low=alpha - 1.96 * se, ci_high=alpha + 1.96 * se)


def trade_size_histogram(trades, bin_width: float):
    """Histogram of absolute trade sizes with a cumulative tail column.

    Returns a list of ``(bin_left, count, tail_count)`` rows where
    ``tail_count`` is the number of trades with size >= bin_left.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    sizes = np.array([abs(tr.signed_volume) for tr in trades])
    if len(sizes) == 0:
        return []
    bins = np.floor(sizes / bin_width).astype(np.int64)
    uniq, counts = np.unique(bins, return_counts=True)
    rows = []
    # tail counts accumulate from the right
    tails = np.cumsum(counts[::-1])[::-1]
    for b, c, t in zip(uniq, counts, tails):
        rows.append((float(b * bin_width), int(c), int(t)))
    return rows
