from datetime import date

import numpy as np
import pytest

from tradeflow.ingest import classify_states
from tradeflow.synth import (
    MarketSpec,
    PlantedEdge,
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
