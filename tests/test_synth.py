import hashlib
import json
import re
from datetime import date

import numpy as np
import pytest

from tradeflow.ingest import classify_states
from tradeflow.synth import (
    ROUND_SIZES,
    ROUND_WEIGHTS,
    MarketSpec,
    PlantedEdge,
    _cdf,
    _pick,
    generate_market,
    sample_trade_counts,
)


def _columns(trades):
    return (trades.trader_ids, trades.instruments) + tuple(
        getattr(trades, c).tolist() for c in ("trader", "timestamp", "instrument", "signed_volume", "price")
    )


def test_generation_is_deterministic():
    spec = MarketSpec(n_weekdays=5, seed=42)
    t1, g1 = generate_market(spec)
    t2, g2 = generate_market(MarketSpec(n_weekdays=5, seed=42))
    assert _columns(t1) == _columns(t2)
    assert np.array_equal(g1.intended_states, g2.intended_states)
    t3, _ = generate_market(MarketSpec(n_weekdays=5, seed=43))
    assert _columns(t1) != _columns(t3)


def test_partition_covers_members_and_noise():
    spec = MarketSpec(group_sizes=(3, 4), n_noise_traders=2, n_weekdays=5)
    _, truth = generate_market(spec)
    labels = sorted(set(truth.partition.values()))
    assert labels == [1, 2]
    assert sum(1 for g in truth.partition.values() if g == 1) == 3
    assert sum(1 for g in truth.partition.values() if g == 2) == 4
    assert not any(t.startswith("noise") for t in truth.partition)


def test_trades_sorted_and_inside_grid():
    spec = MarketSpec(n_weekdays=5, seed=1)
    trades, truth = generate_market(spec)
    ts = trades.timestamp
    # by (timestamp, trader id), and the id table is sorted
    assert np.array_equal(np.lexsort((trades.trader, ts)), np.arange(len(trades)))
    assert list(trades.trader_ids) == sorted(set(truth.partition) | {f"noise{i:05d}" for i in range(1, 11)})
    assert trades.instruments == ("EURUSD",) and not trades.instrument.any()
    assert ts.min() >= truth.grid.starts[0]
    assert ts.max() < truth.grid.ends[-1]


def test_full_fidelity_members_realize_intended_states():
    spec = MarketSpec(
        group_sizes=(4, 4), n_noise_traders=0, sync_fidelity=1.0,
        member_rate=5.0, n_weekdays=10, seed=3,
    )
    trades, truth = generate_market(spec)
    m = classify_states(trades, truth.grid)
    mismatches = 0
    checked = 0
    for trader, g in truth.partition.items():
        k = m.index_of(trader)
        active = m.sigma[k] != 0
        checked += int(active.sum())
        mismatches += int((m.sigma[k][active] != truth.intended_states[g - 1][active]).sum())
    assert checked > 100
    assert mismatches == 0


def test_neutral_state_nets_to_zero_volume():
    spec = MarketSpec(
        group_sizes=(2,), n_noise_traders=0, sync_fidelity=1.0,
        neutral_prob=1.0, member_rate=3.0, n_weekdays=5, seed=4,
    )
    trades, truth = generate_market(spec)
    m = classify_states(trades, truth.grid)
    active = m.G > 0
    assert active.any()
    assert np.all(m.V[active] == 0.0)
    assert np.all(m.sigma[active] == 2)


def test_leadlag_follower_copies_previous_state():
    spec = MarketSpec(
        group_sizes=(3, 3), leadlag_edges=(PlantedEdge(0, 1),),
        copy_fidelity=1.0, n_weekdays=10, seed=5,
    )
    _, truth = generate_market(spec)
    lead, follow = truth.intended_states
    assert np.array_equal(follow[1:], lead[:-1])
    assert truth.leadlag_edges == [(1, 2, False)]


def test_leadlag_inverted_edge():
    spec = MarketSpec(
        group_sizes=(3, 3), leadlag_edges=(PlantedEdge(0, 1, invert=True),),
        copy_fidelity=1.0, n_weekdays=10, seed=6,
    )
    _, truth = generate_market(spec)
    lead, follow = truth.intended_states
    directional = np.abs(lead[:-1]) == 1
    assert np.array_equal(follow[1:][directional], -lead[:-1][directional])
    assert np.array_equal(follow[1:][~directional], lead[:-1][~directional])


def test_trade_sizes_are_round_multiples():
    trades, _ = generate_market(MarketSpec(n_weekdays=5, seed=7))
    sizes = np.abs(trades.signed_volume)
    assert np.all(sizes % 1000 == 0)
    vals, counts = np.unique(sizes, return_counts=True)
    top = set(vals[np.argsort(counts)[-3:]].tolist())
    assert top & {10_000.0, 20_000.0, 50_000.0}


def test_power_law_counts_match_exponent():
    rng = np.random.default_rng(8)
    x = sample_trade_counts(rng, 50_000, alpha=2.0)
    from tradeflow.ingest import fit_tail_exponent

    fit = fit_tail_exponent(x)
    assert 1.9 < fit.alpha < 2.1


def test_spec_validation():
    with pytest.raises(ValueError):
        MarketSpec(group_sizes=(0,)).validate()
    with pytest.raises(ValueError):
        MarketSpec(sync_fidelity=1.5).validate()
    with pytest.raises(ValueError):
        MarketSpec(alpha=1.0).validate()
    with pytest.raises(ValueError):
        MarketSpec(leadlag_edges=(PlantedEdge(0, 9),)).validate()
    for edge in (PlantedEdge(0.5, 1), PlantedEdge(0, True)):  # generate_market indexed groups with them
        with pytest.raises(ValueError, match=r"^leadlag_edges\.(leader|follower) must be an integer"):
            MarketSpec(leadlag_edges=(edge,)).validate()
    # each of these crashed or built another market than it said: 'false' is truthy, so it planted an inverted edge
    for kwargs, key in [
        ({"leadlag_edges": (PlantedEdge(0, 1, invert="false"),)}, "leadlag_edges.invert"),
        ({"leadlag_edges": ((0, 1),)}, "leadlag_edges"), ({"group_sizes": (6, 6.0)}, "group_sizes"),
        ({"sync_fidelity": True}, "sync_fidelity"), ({"copy_fidelity": True}, "copy_fidelity"),
        ({"neutral_prob": True}, "neutral_prob"), ({"alpha": float("inf")}, "alpha"), ({"kappa": float("nan")}, "kappa"),
        ({"instrument": 5}, "instrument"), ({"start_date": 20240101}, "start_date"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(key)} must be"):
            MarketSpec(**kwargs).validate()


def test_start_date_may_be_a_date():
    # YAML reads an unquoted start_date of a config's market block as a date
    a = generate_market(MarketSpec(n_weekdays=3, start_date=date(2024, 1, 8)))[1].grid
    b = generate_market(MarketSpec(n_weekdays=3, start_date="2024-01-08"))[1].grid
    assert a.starts.tolist() == b.starts.tolist() and len(a) == 21


def test_price_drift_follows_planted_flow():
    spec = MarketSpec(
        group_sizes=(10,), n_noise_traders=0, sync_fidelity=1.0,
        neutral_prob=0.0, kappa=2e-3, price_noise=0.0, n_weekdays=20, seed=9,
    )
    trades, truth = generate_market(spec)
    m = classify_states(trades, truth.grid)
    from tradeflow.predict import vwap_series

    vwap = vwap_series(trades, truth.grid)
    d = np.sign(np.diff(vwap))
    lagged_state = truth.intended_states[0][:-1].astype(float)
    directional = np.abs(lagged_state) == 1
    ok = directional & ~np.isnan(d)
    agree = np.mean(d[ok] == lagged_state[ok])
    assert agree > 0.9


def _market_digest(trades, truth):
    """sha256 of every generated column (dtype, shape and bytes), the id tables and the ground truth."""
    h = hashlib.sha256()
    arrays = [getattr(trades, c) for c in ("trader", "timestamp", "instrument", "signed_volume", "price")]
    for a in arrays + [truth.intended_states]:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(json.dumps([trades.trader_ids, trades.instruments, sorted(truth.partition.items()),
                         truth.leadlag_edges]).encode())
    return h.hexdigest()


def _cells(trades, grid):
    """Per (trader, slice) cell of ``trades``: its trade count and its net volume."""
    cell = trades.trader.astype(np.int64) * len(grid) + np.searchsorted(grid.starts, trades.timestamp, side="right") - 1
    _, index, count = np.unique(cell, return_inverse=True, return_counts=True)
    return count, np.bincount(index, weights=trades.signed_volume)


# specs between them reach every branch of the trade loop; each test asserts the branch it pins
PINNED_SPECS = {
    # an inverted planted edge, no noise traders
    "inverted-no-noise": MarketSpec(
        group_sizes=(3, 2), n_noise_traders=0, leadlag_edges=(PlantedEdge(0, 1, invert=True),),
        copy_fidelity=1.0, member_rate=1.0, neutral_prob=0.4, kappa=1e-3, n_weekdays=3, seed=3,
    ),
    # noise traders only; at alpha = 1000 every activity total is 1 (0.5 (1 - u)^(-1/999) < 1.5
    # for every float u < 1), so each trader has one cell of one trade: a neutral one shows as two
    "noise-only-single-trades": MarketSpec(
        group_sizes=(), n_noise_traders=12, alpha=1000.0, neutral_prob=0.5, n_weekdays=2, seed=5,
    ),
    # heavy noise over one day: neutral noise cells of nine trades and more, whose buy np.sum adds pairwise
    "heavy-noise": MarketSpec(group_sizes=(4,), n_noise_traders=6, alpha=1.1, n_weekdays=1, seed=8),
    "no-trades": MarketSpec(group_sizes=(2,), n_noise_traders=0, member_rate=0.0, n_weekdays=2, seed=1),
    "default-week": MarketSpec(n_weekdays=5, seed=2),
}
PINNED_DIGESTS = {
    "inverted-no-noise": "6cf52fbda8198ad998a916a0d906db01b454283b1dbe69005da696ac122148da",
    "noise-only-single-trades": "c3d11ce2ef6105d2ea2971f47cfb7d4d898dc5de2d517f8fcb4b04cca350db5e",
    "heavy-noise": "c570e73707ba14079acc1c8d96ab112349ba9ff1a691f8a815a64c00af807ec5",
    "no-trades": "16c6e8918b712da4a1ae7de352b5ec49f717f2235abf5000e3f3a2494182f0cd",
    "default-week": "5a4a3c519104b725fac02e0f498e582cd5d640b3bd109374759af04bdb625ece",
}


@pytest.mark.parametrize("name", sorted(PINNED_SPECS))
def test_generated_market_is_pinned(name):
    # digests recorded from the generator that drew each cell's trades one slice at a time
    spec = PINNED_SPECS[name]
    trades, truth = generate_market(spec)
    dtypes = [getattr(trades, c).dtype for c in ("trader", "timestamp", "signed_volume", "price")]
    assert dtypes == [np.int32, np.int64, np.float64, np.float64]
    count, net = _cells(trades, truth.grid)
    if name == "inverted-no-noise":
        lead, follow = truth.intended_states
        directional = np.abs(lead[:-1]) == 1
        assert directional.any() and np.array_equal(follow[1:][directional], -lead[:-1][directional])
        assert not any(t.startswith("noise") for t in trades.trader_ids)
    elif name == "noise-only-single-trades":
        assert truth.partition == {} and len(trades.trader_ids) == 12
        assert sample_trade_counts(np.random.default_rng(0), 10_000, spec.alpha).max() == 1
        neutral = net == 0.0  # a directional cell's trades share one sign
        assert neutral.any() and np.all(count[neutral] == 2) and np.all(count[~neutral] == 1)
    elif name == "heavy-noise":
        assert (count[net == 0.0] >= 9).any()
    elif name == "no-trades":
        assert len(trades) == 0
    assert _market_digest(trades, truth) == PINNED_DIGESTS[name]


@pytest.mark.parametrize("weights", ["round-sizes", "states-0", "states-0.1", "states-0.2", "states-0.37", "states-1"])
@pytest.mark.parametrize("used", [0, 1, 7])
def test_cdf_lookup_equals_choice(weights, used):
    # the lookup must draw what Generator.choice(a, size, p=p) draws, and leave the stream where choice leaves it
    if weights == "round-sizes":
        values, p = ROUND_SIZES, ROUND_WEIGHTS
    else:
        neutral = float(weights.split("-")[1])
        values, p = np.array([-1, 1, 2], dtype=np.int8), [(1 - neutral) / 2, (1 - neutral) / 2, neutral]
    ours, theirs = np.random.default_rng(31), np.random.default_rng(31)
    for rng in (ours, theirs):  # a partly used generator: earlier draws of other kinds
        rng.normal(size=used)
        rng.integers(0, 3_600_000, size=used)
    cdf = _cdf(p)
    for size in list(range(51)) + [(3, 17)]:
        got, want = _pick(values, cdf, ours.random(size)), theirs.choice(values, size, p=p)
        assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want), size
    assert ours.bit_generator.state == theirs.bit_generator.state
