"""Trade columns, time-grid construction and trader state classification.

Trades are bucketed into fixed slices (default one hour) restricted to the
trading session (default 09:00-16:00 London, weekdays only).  Within each
slice a trader is classified as net buyer (+1), net seller (-1), neutral (2)
or inactive (0) from the imbalance ratio of signed to gross volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime, time, timedelta
from zoneinfo import ZoneInfo

import numpy as np

STATE_BUY = 1
STATE_SELL = -1
STATE_NEUTRAL = 2
STATE_INACTIVE = 0

ACTIVE_STATES = (STATE_SELL, STATE_BUY, STATE_NEUTRAL)

@dataclass(frozen=True, eq=False)
class Trades:
    """A trade stream as columns, one entry per trade, in stream order.

    ``trader``/``instrument`` are codes into the sorted id tables ``trader_ids``/
    ``instruments`` of Python strings (ids differing only by trailing NULs stay
    apart); ``timestamp`` is epoch ms (UTC); volume is signed: buys positive.
    """

    trader_ids: tuple
    trader: np.ndarray
    timestamp: np.ndarray
    instruments: tuple
    instrument: np.ndarray
    signed_volume: np.ndarray
    price: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)

    def take(self, index) -> "Trades":
        """The trades at ``index`` (index array or boolean mask); the id tables stay whole."""
        columns = ("trader", "timestamp", "instrument", "signed_volume", "price")
        return replace(self, **{c: getattr(self, c)[index] for c in columns})


def encode_ids(names: list, codes) -> tuple:
    """``(table, codes)``: ``codes`` (indices into ``names``) re-coded into the sorted table of the names used."""
    codes = np.asarray(codes, dtype=np.intp)
    used = np.flatnonzero(np.bincount(codes, minlength=len(names)))
    used = used[np.argsort(np.array(names, dtype=object)[used])]  # compares as Python sorts strings
    remap = np.zeros(len(names), dtype=np.int32)
    remap[used] = np.arange(len(used))
    return tuple(names[k] for k in used.tolist()), remap[codes]


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
    _columns = ("starts", "ends", "day_index", "local_hour")  # per-slice int64 arrays

    def __post_init__(self):
        for name in self._columns:
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def n_days(self) -> int:
        return len(self.day_bounds()) - 1

    def contiguous_with_previous(self) -> np.ndarray:
        """Boolean mask: slice t follows slice t-1 with no session gap."""
        ok = np.zeros(len(self), dtype=bool)
        ok[1:] = self.ends[:-1] == self.starts[1:]
        return ok

    def window(self, t0: int, t1: int) -> "TimeGrid":
        """Sub-grid over slice indices [t0, t1)."""
        return replace(self, **{name: getattr(self, name)[t0:t1] for name in self._columns})

    def slice_of(self, ms: np.ndarray) -> np.ndarray:
        """Index of the slice holding each epoch-ms time, -1 where no slice does."""
        pos = np.searchsorted(self.starts, ms, side="right") - 1
        if not len(self):
            return pos
        return np.where((pos >= 0) & (ms < self.ends[np.clip(pos, 0, len(self) - 1)]), pos, -1)

    def day_bounds(self) -> list[int]:
        """``n_days + 1`` slice bounds: trading day d is slices ``[b[d], b[d + 1])``."""
        if not len(self):
            return [0]
        return [0, *(np.flatnonzero(np.diff(self.day_index)) + 1).tolist(), len(self)]


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
    if slice_duration <= timedelta(0):
        raise ValueError(f"slice duration must be positive, got {slice_duration}")
    zone = ZoneInfo(tz)
    start_date, end_date = (
        datetime.fromisoformat(d).date() if isinstance(d, str) else d for d in (start_date, end_date)
    )
    starts, ends, day_index, local_hour = [], [], [], []
    day = start_date
    d = 0
    while day < end_date:
        if include_weekends or day.weekday() < 5:
            cursor = datetime.combine(day, session_start)
            session_close = datetime.combine(day, session_end)
            while cursor + slice_duration <= session_close:
                t0 = cursor.replace(tzinfo=zone)
                t1 = (cursor + slice_duration).replace(tzinfo=zone)
                starts.append(int(t0.timestamp() * 1000))
                ends.append(int(t1.timestamp() * 1000))
                day_index.append(d)
                local_hour.append(cursor.hour)
                cursor += slice_duration
            if day_index and day_index[-1] == d:
                d += 1
        day += timedelta(days=1)
    return TimeGrid(
        starts=starts, ends=ends, day_index=day_index, local_hour=local_hour, slice_duration=slice_duration,
        session_start=session_start, session_end=session_end, tz=tz, include_weekends=include_weekends,
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
    counts: np.ndarray

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
        return self._take(list(trader_ids), self.grid, idx)

    def slice_window(self, t0: int, t1: int) -> "StateMatrix":
        """Restrict to slice indices [t0, t1); activity recounts in-window."""
        return self._take(list(self.traders), self.grid.window(t0, t1), np.s_[:, t0:t1])

    def _take(self, traders, grid, index) -> "StateMatrix":
        """The matrix on ``traders`` and ``grid``, with every array indexed by ``index``."""
        return StateMatrix(traders, grid, self.V[index], self.G[index], self.sigma[index], self.counts[index])


def classify_states(trades, grid: TimeGrid, rho0: float = 0.01) -> StateMatrix:
    """Classify every trader's state in every slice of the grid.

    Traders are those with at least one trade in ``trades``, sorted by id.
    Trades outside the session/weekend slices are ignored.  The boundary
    |rho| == rho0 is assigned to the neutral state so the rule is total.
    """
    if not 0.01 <= rho0 <= 0.1:
        raise ValueError(f"rho0 must lie in [0.01, 0.1], got {rho0}")
    present, rows = np.unique(trades.trader, return_inverse=True)
    traders = [trades.trader_ids[k] for k in present.tolist()]
    n, T = len(traders), len(grid)
    V = np.zeros((n, T))
    G = np.zeros((n, T))
    counts = np.zeros((n, T), dtype=np.int64)
    pos = grid.slice_of(trades.timestamp)
    ok = pos >= 0
    rows, pos, vol = rows[ok], pos[ok], trades.signed_volume[ok]
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
    keep = sorted([k for k in order if counts[k] >= min_trades][:top_n], key=lambda k: str(matrix.traders[k]))
    return matrix._take([matrix.traders[k] for k in keep], matrix.grid, np.array(keep, dtype=np.intp))


@dataclass(frozen=True)
class TailFit:
    alpha: float
    x_min: float
    n_tail: int
    ci_low: float
    ci_high: float


class TailFitError(ValueError):
    pass


TAIL_MIN_SAMPLES = 1000  # positive counts a tail fit needs
TAIL_MIN_SIZE = 50  # smallest tail x >= x_min a candidate x_min may leave


def fit_tail_exponent(counts) -> TailFit:
    """Fit a discrete power-law tail exponent to per-trader trade counts.

    Discrete MLE ``alpha = 1 + n / sum(log(x / (x_min - 1/2)))`` over the
    tail ``x >= x_min``; x_min is chosen by minimal Kolmogorov-Smirnov
    distance between the empirical tail and the fitted law.  The 95% CI uses
    the standard error (alpha - 1) / sqrt(n_tail).
    """
    x = np.asarray(counts, dtype=np.float64)
    x = x[x > 0]
    if len(x) < TAIL_MIN_SAMPLES:
        raise TailFitError(f"need at least {TAIL_MIN_SAMPLES} positive counts, got {len(x)}")
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
        if n < TAIL_MIN_SIZE:
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
    bins = np.floor(np.abs(trades.signed_volume) / bin_width).astype(np.int64)
    uniq, counts = np.unique(bins, return_counts=True)
    rows = []
    # tail counts accumulate from the right
    tails = np.cumsum(counts[::-1])[::-1]
    for b, c, t in zip(uniq, counts, tails):
        rows.append((float(b * bin_width), int(c), int(t)))
    return rows
