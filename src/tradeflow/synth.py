"""Synthetic market generator with planted ground truth.

Plants trader groups (members copy their group's intended state with a
configurable fidelity), lag-1 lead-lag edges between groups, heavy-tailed
activity for noise traders, round-size bias in trade sizes, and a price path
whose next-slice drift is coupled to the planted flow so the VWAP direction
is predictable from lagged states.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .ingest import TimeGrid, Trades, build_grid, encode_ids

ROUND_SIZES = np.array([1, 2, 3, 4, 5, 7, 10, 15, 20, 30, 50, 100], dtype=np.float64)
ROUND_WEIGHTS = np.array([0.10, 0.08, 0.04, 0.03, 0.08, 0.02, 0.22, 0.03, 0.16, 0.03, 0.14, 0.07])
ROUND_WEIGHTS = ROUND_WEIGHTS / ROUND_WEIGHTS.sum()


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
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if any(s < 1 for s in self.group_sizes):
            raise ValueError("group sizes must be positive")
        for f in (self.sync_fidelity, self.copy_fidelity):
            if not 0.0 <= f <= 1.0:
                raise ValueError(f"fidelities must lie in [0, 1], got {f}")
        if not self.alpha > 1:
            raise ValueError("activity tail exponent must exceed 1")
        for e in self.leadlag_edges:
            if not (0 <= e.leader < len(self.group_sizes) and 0 <= e.follower < len(self.group_sizes)):
                raise ValueError(f"planted edge references unknown group: {e}")
        if self.n_weekdays < 1:
            raise ValueError("n_weekdays must be positive")
        if self.n_noise_traders < 0 or self.member_rate < 0:
            raise ValueError("n_noise_traders and member_rate must be non-negative")
        if not 0.0 <= self.neutral_prob <= 1.0:
            raise ValueError(f"neutral_prob must lie in [0, 1], got {self.neutral_prob}")
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


def _draw_states(rng, size, neutral_prob):
    p_dir = (1.0 - neutral_prob) / 2.0
    return rng.choice(np.array([-1, 1, 2], dtype=np.int8), size=size, p=[p_dir, p_dir, neutral_prob])


def sample_trade_counts(rng, n: int, alpha: float, cap: int = 10**6) -> np.ndarray:
    """Discrete power-law activity totals, P(n) ~ n^-alpha for n >= 1."""
    u = rng.random(n)
    x = np.floor(0.5 * (1.0 - u) ** (-1.0 / (alpha - 1.0)) + 0.5)
    return np.minimum(x, cap).astype(np.int64)


def _sizes(rng, k: int) -> np.ndarray:
    return 1000.0 * rng.choice(ROUND_SIZES, size=k, p=ROUND_WEIGHTS)


def _slice_trades(rng, code, grid, t, state, k, mid):
    """Columns (trader code, timestamp, signed volume, price) of k trades realizing a state in slice t."""
    prices = mid * (1.0 + 1e-4 * rng.normal(size=max(k, 2)))
    if state == 2 and k == 1:
        k = 2
    ts = np.sort(rng.integers(0, grid.ends[t] - grid.starts[t], size=k)) + grid.starts[t]
    if state == 2:
        sells = _sizes(rng, k - 1)
        volumes = np.concatenate(([sells.sum()], -sells))
    else:
        volumes = state * _sizes(rng, k)
    return np.full(k, code, dtype=np.int32), ts, volumes, prices[:k]


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
                if edge.invert and prev != 2:
                    prev = -prev
                intended[g, t] = prev

    # price path driven by the planted lagged flow
    weights = np.asarray(spec.group_sizes, dtype=np.float64)
    if n_groups:
        directional = np.where(np.abs(intended) == 1, intended, 0).astype(np.float64)
        flow = (weights @ directional) / weights.sum()
    else:
        flow = np.zeros(T)
    mid = np.empty(T)
    mid[0] = spec.base_price
    shocks = rng.normal(size=T - 1) if T > 1 else np.empty(0)
    for t in range(1, T):
        mid[t] = mid[t - 1] * (1.0 + spec.kappa * flow[t - 1] + spec.price_noise * shocks[t - 1])

    names = []  # trader ids, indexed by trader code
    # one column tuple per (trader, slice); the empty first one lets a market without trades concatenate
    parts = [(np.empty(0, np.int32), np.empty(0, np.int64), np.empty(0), np.empty(0))]
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
            for t in np.flatnonzero(k_per_slice):
                parts.append(_slice_trades(rng, len(names) - 1, grid, t, int(states[t]), int(k_per_slice[t]), mid[t]))

    # heavy-tailed independent noise traders
    totals = sample_trade_counts(rng, spec.n_noise_traders, spec.alpha, cap=20 * T)
    for i in range(spec.n_noise_traders):
        names.append(f"noise{i + 1:05d}")
        k_per_slice = rng.multinomial(totals[i], np.full(T, 1.0 / T))
        states = _draw_states(rng, T, spec.neutral_prob)
        for t in np.flatnonzero(k_per_slice):
            parts.append(_slice_trades(rng, len(names) - 1, grid, t, int(states[t]), int(k_per_slice[t]), mid[t]))

    code, ts, volume, price = (np.concatenate(column) for column in zip(*parts))
    trader_ids, code = encode_ids(names, code)
    instruments, instrument = encode_ids([spec.instrument], np.zeros(len(ts), dtype=np.int32))
    # sorted by (timestamp, trader id); ties keep their emission order
    trades = Trades(trader_ids, code, ts, instruments, instrument, volume, price).take(np.lexsort((code, ts)))
    truth = GroundTruth(partition=partition, leadlag_edges=truth_edges, intended_states=intended, grid=grid)
    return trades, truth
