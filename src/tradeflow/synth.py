"""Synthetic market generator with planted ground truth.

Plants trader groups (members copy their group's intended state with a
configurable fidelity), lag-1 lead-lag edges between groups, heavy-tailed
activity for noise traders, round-size bias in trade sizes, and a price path
whose next-slice drift is coupled to the planted flow so the VWAP direction
is predictable from lagged states.

A market is a function of its spec through one random stream: one
``numpy.random.Generator`` seeded with ``spec.seed`` draws the intended
states, the followers' copies and the price shocks, then each trader in turn,
group members first and noise traders after them.  A trader draws its trade
counts and states, then each of its active slices, in slice order, draws
``normal(max(k, 2))`` (price noise), ``integers(0, span, n)`` (timestamps) and
``random(n)`` (trade sizes), k being the slice's trade count and n = k; a
neutral slice trades at least twice (n = max(k, 2)) and draws ``random(n - 1)``
for its sells, its first trade buying their ``np.sum`` (whole multiples of
1000, so every order of adding gives the same bits).  The trades are then
assembled from these draws column-wise, once for the whole market.  A state or
a size is looked up from its uniforms as ``Generator.choice(values, p=weights)``
looks it up, without the argument checks ``choice`` makes on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .ingest import STATE_BUY, STATE_NEUTRAL, STATE_SELL, TimeGrid, Trades, build_grid, encode_ids

ROUND_SIZES = np.array([1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 50, 100], dtype=np.float64)
ROUND_WEIGHTS = np.array([0.10, 0.08, 0.04, 0.03, 0.08, 0.02, 0.22, 0.03, 0.16, 0.03, 0.14, 0.07])
ROUND_WEIGHTS = ROUND_WEIGHTS / ROUND_WEIGHTS.sum()
_STATES = np.array([STATE_SELL, STATE_BUY, STATE_NEUTRAL], dtype=np.int8)


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class PlantedEdge:
    leader: int  # group index (0-based)
    follower: int
    invert: bool = False  # follower copies the opposite direction


@dataclass
class MarketSpec:
    group_sizes: tuple = (6, 6, 6, 6, 6)
    n_noise_traders: int = 10
    sync_fidelity: float = 1.0
    leadlag_edges: tuple = ()
    copy_fidelity: float = 1.0
    alpha: float = 2.0  # activity tail exponent of noise traders
    n_weekdays: int = 75
    start_date: str = "2024-01-01"
    instrument: str = "EURUSD"
    member_rate: float = 2.0  # mean trades per member per slice
    neutral_prob: float = 0.2
    kappa: float = 0.0  # next-slice price drift per unit planted flow sign
    price_noise: float = 2e-4
    base_price: float = 1.10
    seed: int = 0

    def validate(self):
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not all(_is_integer(s) and s >= 1 for s in self.group_sizes):
            raise ValueError(f"group sizes must be positive integers, got {self.group_sizes!r}")
        for f in (self.sync_fidelity, self.copy_fidelity):
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"fidelities must lie in [0, 1], got {f}")
        if not self.alpha > 1:
            raise ValueError("activity tail exponent must exceed 1")
        for e in self.leadlag_edges:
            if not all(_is_integer(g) and 0 <= g < len(self.group_sizes) for g in (e.leader, e.follower)):
                raise ValueError(f"planted edge needs integer group indices below {len(self.group_sizes)}: {e}")
        if not _is_integer(self.n_weekdays) or self.n_weekdays < 1:
            raise ValueError(f"n_weekdays must be a positive integer, got {self.n_weekdays!r}")
        if not _is_integer(self.n_noise_traders) or self.n_noise_traders < 0:
            raise ValueError(f"n_noise_traders must be a non-negative integer, got {self.n_noise_traders!r}")
        if not (math.isfinite(self.member_rate) and self.member_rate >= 0):
            raise ValueError(f"member_rate must be finite and non-negative, got {self.member_rate!r}")
        if not 0.0 <= self.neutral_prob <= 1.0:
            raise ValueError(f"neutral_prob must lie in [0, 1], got {self.neutral_prob}")
        if not (math.isfinite(self.base_price) and self.base_price > 0):
            raise ValueError(f"base_price must be finite and positive, got {self.base_price!r}")
        if not (math.isfinite(self.price_noise) and self.price_noise >= 0):
            raise ValueError(f"price_noise must be finite and non-negative, got {self.price_noise!r}")
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa!r}")
        date.fromisoformat(str(self.start_date))  # YAML reads an unquoted date as a date


@dataclass
class GroundTruth:
    partition: dict  # trader -> group label (1-based)
    leadlag_edges: list  # (leader_label, follower_label, invert)
    intended_states: np.ndarray  # (n_groups, n_slices)
    grid: TimeGrid


def _grid_for(spec: MarketSpec) -> TimeGrid:
    start = date.fromisoformat(str(spec.start_date))
    day, n = start, 0
    while n < spec.n_weekdays:
        if day.weekday() < 5:
            n += 1
        day += timedelta(days=1)
    return build_grid(start, day)


def _cdf(p) -> np.ndarray:
    """The table that ``Generator.choice(a, size, p=p)`` searches: the cumulative weights, the last one 1."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf


def _pick(values, cdf, u):
    """``values`` drawn with the uniforms ``u``: ``Generator.choice(values, u.shape, p=p)`` when u is its ``random(u.shape)``."""
    return values[cdf.searchsorted(u, side="right")]


_ROUND_CDF = _cdf(ROUND_WEIGHTS)
_TRADE_SIZES = 1000.0 * ROUND_SIZES


def _draw_states(rng, size, neutral_prob):
    p_dir = (1.0 - neutral_prob) / 2.0
    return _pick(_STATES, _cdf([p_dir, p_dir, neutral_prob]), rng.random(size))


def sample_trade_counts(rng, n: int, alpha: float, cap: int = 10**6) -> np.ndarray:
    """Discrete power-law activity totals, P(n) ~ n^-alpha for n >= 1."""
    u = rng.random(n)
    x = np.floor(0.5 * (1.0 - u) ** (-1.0 / (alpha - 1.0)) + 0.5)
    return np.minimum(x, cap).astype(np.int64)


def _draw_cells(rng, code, k_per_slice, states, spans, draws):
    """Make the draws of one trader's active slices, in slice order; return their columns.

    ``draws`` holds three lists, of normals, raw timestamps and uniforms, each
    cell appending one array to each.  Returns ``(code, slice, k, state)``, one
    entry per active slice.
    """
    t = np.flatnonzero(k_per_slice)
    k, state = k_per_slice[t], states[t]
    normals, stamps, uniforms = draws
    normal, integers, random = rng.normal, rng.integers, rng.random
    for n, s, span in zip(k.tolist(), state.tolist(), spans[t].tolist()):
        normals.append(normal(size=max(n, 2)))
        neutral = s == STATE_NEUTRAL
        if neutral:
            n = max(n, 2)
        stamps.append(integers(0, span, size=n))
        uniforms.append(random(n - neutral))
    return np.full(len(t), code), t, k, state


def _assemble(grid, mid, cells, draws):
    """Columns (trader code, timestamp, signed volume, price) of the trades of ``cells``.

    ``cells`` and ``draws`` are what ``_draw_cells`` returned and collected.
    A cell's n trades get its sorted timestamps, its first n normals and its
    sizes in draw order; a neutral cell's sizes are its sells, after its buy.
    The buy's sum is exact: the sizes are whole multiples of 1000.
    """
    code, t, k, state = (np.concatenate(column) for column in zip(*cells))
    normals, stamps, uniforms = (np.concatenate(column) for column in draws)
    neutral = state == STATE_NEUTRAL
    n = np.where(neutral, np.maximum(k, 2), k)  # trades per cell
    cell = np.repeat(np.arange(len(n)), n)
    spare = np.maximum(k, 2) - n  # normals drawn but not used: 1 in a directional cell of one trade
    price = mid[t][cell] * (1.0 + 1e-4 * normals[np.arange(len(cell)) + (np.cumsum(spare) - spare)[cell]])
    ts = stamps[np.lexsort((stamps, cell))] + grid.starts[t][cell]
    size_cell = np.repeat(np.arange(len(n)), n - neutral)
    sizes = _pick(_TRADE_SIZES, _ROUND_CDF, uniforms)
    volume = np.empty(len(cell))
    # a size lands after its cell's buy and after the buys of the neutral cells before it
    volume[np.arange(len(sizes)) + np.cumsum(neutral)[size_cell]] = np.where(neutral, STATE_SELL, state)[size_cell] * sizes
    volume[(np.cumsum(n) - n)[neutral]] = np.bincount(size_cell, weights=sizes, minlength=len(n))[neutral]
    return np.repeat(code, n), ts, volume, price


def generate_market(spec: MarketSpec):
    """Generate a synthetic trade stream with known structure.

    Returns ``(trades, truth)`` where ``trades`` is a :class:`Trades` sorted by
    (timestamp, trader id) and ``truth`` holds the planted partition, lead-lag
    edges and per-slice intended group states.  Fully deterministic for a
    fixed spec.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    grid = _grid_for(spec)
    T = len(grid)
    n_groups = len(spec.group_sizes)

    # intended group states: leaders iid, followers copy the planted leader's
    # previous state with copy-fidelity
    followers = {e.follower: e for e in spec.leadlag_edges}
    intended = _draw_states(rng, (n_groups, T), spec.neutral_prob)
    for t in range(1, T):
        for g, edge in followers.items():
            if rng.random() < spec.copy_fidelity:
                prev = intended[edge.leader, t - 1]
                if edge.invert and prev != STATE_NEUTRAL:
                    prev = -prev
                intended[g, t] = prev

    # price path driven by the planted lagged flow
    weights = np.asarray(spec.group_sizes, dtype=np.float64)
    if n_groups:
        directional = np.where(intended == STATE_NEUTRAL, 0, intended).astype(np.float64)
        flow = (weights @ directional) / weights.sum()
    else:
        flow = np.zeros(T)
    mid = np.empty(T)
    mid[0] = spec.base_price
    shocks = rng.normal(size=T - 1)
    for t in range(1, T):
        mid[t] = mid[t - 1] * (1.0 + spec.kappa * flow[t - 1] + spec.price_noise * shocks[t - 1])

    names = []  # trader ids, indexed by trader code
    spans = grid.ends - grid.starts
    # one column tuple per trader and one array per cell; the empty first ones let a market without trades concatenate
    cells = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int8))]
    draws = ([np.empty(0)], [np.empty(0, np.int64)], [np.empty(0)])
    partition = {}
    truth_edges = []
    for e in spec.leadlag_edges:
        truth_edges.append((e.leader + 1, e.follower + 1, e.invert))

    # group members
    for g, size in enumerate(spec.group_sizes):
        for m in range(size):
            trader = f"g{g + 1:02d}m{m + 1:03d}"
            partition[trader] = g + 1
            names.append(trader)
            k_per_slice = rng.poisson(spec.member_rate, size=T)
            own = _draw_states(rng, T, spec.neutral_prob)
            follow = rng.random(T) < spec.sync_fidelity
            states = np.where(follow, intended[g], own)
            cells.append(_draw_cells(rng, len(names) - 1, k_per_slice, states, spans, draws))

    # heavy-tailed independent noise traders
    totals = sample_trade_counts(rng, spec.n_noise_traders, spec.alpha, cap=20 * T)
    for i in range(spec.n_noise_traders):
        names.append(f"noise{i + 1:05d}")
        k_per_slice = rng.multinomial(totals[i], np.full(T, 1.0 / T))
        states = _draw_states(rng, T, spec.neutral_prob)
        cells.append(_draw_cells(rng, len(names) - 1, k_per_slice, states, spans, draws))

    code, ts, volume, price = _assemble(grid, mid, cells, draws)
    trader_ids, code = encode_ids(names, code)
    instruments, instrument = encode_ids([spec.instrument], np.zeros(len(ts), dtype=np.int32))
    # sorted by (timestamp, trader id); ties keep their emission order
    trades = Trades(trader_ids, code, ts, instruments, instrument, volume, price).take(np.lexsort((code, ts)))
    truth = GroundTruth(partition=partition, leadlag_edges=truth_edges, intended_states=intended, grid=grid)
    return trades, truth
