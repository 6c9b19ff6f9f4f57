import numpy as np
import pytest

from tradeflow.ingest import StateMatrix, build_grid
from tradeflow.leadlag import (
    TraderLeadLagAdjacency,
    aggregate_groups,
    build_leadlag,
    expand_trader_leadlag,
)
from tradeflow.svn import FdrConfig


def _matrix(V, G, n_days=20):
    V = np.asarray(V, dtype=np.float64)
    grid = build_grid("2024-01-01", "2024-03-01").window(0, V.shape[1])
    from tradeflow.ingest import states_from_volumes

    return StateMatrix(
        traders=[f"t{k}" for k in range(V.shape[0])],
        grid=grid,
        V=V,
        G=np.asarray(G, dtype=np.float64),
        sigma=states_from_volumes(np.asarray(V, dtype=np.float64), np.asarray(G, dtype=np.float64), 0.01),
        counts=np.zeros(V.shape, dtype=np.int64),
    )


def test_aggregate_sums_and_reclassifies():
    # two traders with cancelling volumes form a neutral group
    V = [[1000.0], [-1000.0]]
    G = [[1000.0], [1000.0]]
    m = _matrix(V, G)
    series = aggregate_groups(m, {"t0": 1, "t1": 1})
    assert series.n_groups == 1
    assert series.V[0, 0] == 0.0
    assert series.G[0, 0] == 2000.0
    assert series.sigma[0, 0] == 2


def test_aggregate_ignores_unpartitioned_traders():
    V = [[1000.0], [-500.0]]
    G = [[1000.0], [500.0]]
    series = aggregate_groups(_matrix(V, G), {"t0": 3})
    assert series.labels == [3]
    assert series.V[0, 0] == 1000.0
    assert series.sigma[0, 0] == 1


def test_aggregate_empty_partition_errors():
    with pytest.raises(ValueError):
        aggregate_groups(_matrix([[1.0]], [[1.0]]), {})


def _series_from_sigma(sigma):
    sigma = np.asarray(sigma, dtype=np.int8)
    grid = build_grid("2024-01-01", "2024-06-01").window(0, sigma.shape[1])
    from tradeflow.leadlag import GroupStateSeries

    return GroupStateSeries(
        labels=list(range(1, sigma.shape[0] + 1)),
        grid=grid,
        V=np.zeros(sigma.shape),
        G=np.zeros(sigma.shape),
        sigma=sigma,
    )


def test_family_size_is_nine_n_squared():
    rng = np.random.default_rng(0)
    sigma = rng.choice([-1, 1, 2], size=(4, 140))
    net = build_leadlag(_series_from_sigma(sigma))
    assert net.n_tests == 9 * 16


def test_lag_pairs_never_cross_session_gaps():
    # 2 groups; follower copies the leader's previous state, but only the
    # within-day alignment should feed the test
    rng = np.random.default_rng(1)
    T = 70 * 7
    lead = rng.choice([-1, 1], size=T)
    sigma = np.stack([lead, np.roll(lead, 1)])
    series = _series_from_sigma(sigma)
    net = build_leadlag(series)
    # 6 aligned pairs per 7-slice day
    assert net.n_pairs == 70 * 6
    pairs = set(zip(net.edges["from_group"].tolist(), net.edges["to_group"].tolist()))
    assert (1, 2) in pairs


def test_follower_validated_and_direction_correct():
    rng = np.random.default_rng(2)
    T = 420
    lead = rng.choice([-1, 1, 2], size=T)
    follow = np.roll(lead, 1)
    noise = rng.choice([-1, 1, 2], size=T)
    net = build_leadlag(_series_from_sigma(np.stack([lead, follow, noise])))
    from_to = list(zip(net.edges["from_group"].tolist(), net.edges["to_group"].tolist()))
    pairs = set(from_to)
    assert (1, 2) in pairs
    assert (2, 1) not in pairs or from_to.count((1, 2)) > from_to.count((2, 1))
    assert all(p[1] != 3 or p[0] == 3 for p in pairs) or (1, 3) not in pairs


def test_leadlag_self_loops_allowed():
    # a group that repeats its own state should self-validate
    rng = np.random.default_rng(3)
    base = rng.choice([-1, 1], size=60)
    sigma = np.repeat(base, 7)[None, :]
    net = build_leadlag(_series_from_sigma(sigma))
    assert ((net.edges["from_group"] == 1) & (net.edges["to_group"] == 1)).any()


def _trader_pairs(lam):
    return {(lam.traders[a], lam.traders[b]) for a, b in zip(*np.nonzero(lam.matrix))}


def test_expand_trader_adjacency_blocks():
    from tradeflow.leadlag import LEADLAG_EDGE, LeadLagNetwork

    net = LeadLagNetwork(
        groups=[1, 2],
        edges=np.array([(1, 2, 1, 1, 10, 1e-6)], dtype=LEADLAG_EDGE),
        threshold=1e-6,
        n_tests=36,
        p0=0.05,
        n_pairs=100,
    )
    partition = {"a": 1, "b": 1, "c": 2}
    lam = expand_trader_leadlag(net, partition)
    assert _trader_pairs(lam) == {("a", "c"), ("b", "c")}


def test_expand_empty_network():
    from tradeflow.leadlag import LEADLAG_EDGE, LeadLagNetwork

    net = LeadLagNetwork(groups=[1], edges=np.zeros(0, LEADLAG_EDGE), threshold=0.0, n_tests=9, p0=0.05, n_pairs=10)
    lam = expand_trader_leadlag(net, {"a": 1})
    assert _trader_pairs(lam) == set()


def test_null_leadlag_rarely_validates():
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        sigma = rng.choice([-1, 1, 2], size=(5, 350))
        net = build_leadlag(_series_from_sigma(sigma))
        hits += len(net.edges) > 0
    assert hits <= 4
