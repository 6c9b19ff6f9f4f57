import dataclasses
import itertools
import tracemalloc
from dataclasses import astuple, dataclass
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tradeflow.svn as svn
from tradeflow.community import WeightedGraph, project_weighted
from tradeflow.ingest import ACTIVE_STATES, StateMatrix, build_grid
from tradeflow.leadlag import _lag_pairs
from tradeflow.svn import (
    STATE_PAIRS,
    SVN_EDGE,
    FdrConfig,
    _cooccurrence_tests,
    bh_fdr,
    build_svn,
    hypergeom_sf,
)


def exact_sf(T, n_i, n_j, x):
    """Independent oracle: exact rational upper tail by direct enumeration."""
    total = Fraction(0)
    for k in range(x, min(n_i, n_j) + 1):
        total += Fraction(comb(n_i, k) * comb(T - n_i, n_j - k), comb(T, n_j))
    return total


def test_hypergeom_hand_values():
    assert hypergeom_sf(10, 5, 5, 5) == pytest.approx(1 / 252, rel=1e-14)
    assert hypergeom_sf(10, 5, 5, 3) == pytest.approx(0.5, rel=1e-14)
    assert hypergeom_sf(10, 5, 5, 0) == 1.0


def test_hypergeom_argument_validation():
    with pytest.raises(ValueError):
        hypergeom_sf(10, 11, 5, 2)
    with pytest.raises(ValueError):
        hypergeom_sf(10, 5, 5, 6)
    with pytest.raises(ValueError):  # one bad entry in an array call
        hypergeom_sf(10, np.array([5, 5, 5]), np.array([5, 5, 5]), np.array([0, 6, 1]))


@given(
    T=st.integers(min_value=1, max_value=60),
    data=st.data(),
)
@settings(max_examples=150)
def test_hypergeom_matches_enumeration(T, data):
    n_i = data.draw(st.integers(min_value=0, max_value=T))
    n_j = data.draw(st.integers(min_value=0, max_value=T))
    x = data.draw(st.integers(min_value=0, max_value=min(n_i, n_j)))
    got = hypergeom_sf(T, n_i, n_j, x)
    want = float(exact_sf(T, n_i, n_j, x))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_hypergeom_array_matches_enumeration():
    rng = np.random.default_rng(1)
    T = 350
    n_i = rng.integers(0, T + 1, size=300)
    n_j = rng.integers(0, T + 1, size=300)
    x = np.array([rng.integers(0, min(a, b) + 1) for a, b in zip(n_i, n_j)])
    got = hypergeom_sf(T, n_i, n_j, x)
    assert isinstance(got, np.ndarray) and got.shape == (300,)
    for k in range(300):
        want = float(exact_sf(T, int(n_i[k]), int(n_j[k]), int(x[k])))
        assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-300)


def _long_tails(n, seed=0):
    """T, n_i, n_j and x of n tails of a 630-slice window, 1-40 terms each."""
    rng = np.random.default_rng(seed)
    T = 630
    n_i, n_j = rng.integers(20, 121, n), rng.integers(20, 121, n)
    hi = np.minimum(n_i, n_j)
    x = np.maximum(np.maximum(0, n_i + n_j - T), hi - rng.integers(0, 40, n))
    return T, n_i, n_j, x


@pytest.mark.parametrize("chunk", [1, 7])
def test_tail_chunks_keep_the_bits(chunk, monkeypatch):
    T, n_i, n_j, x = _long_tails(3_000)
    x[::10] = np.maximum(0, n_i + n_j - T)[::10]  # P = 1, never summed
    monkeypatch.setattr(svn, "_TAIL_CHUNK", 1 << 40)
    whole = hypergeom_sf(T, n_i, n_j, x)
    monkeypatch.setattr(svn, "_TAIL_CHUNK", chunk)
    assert (np.minimum(n_i, n_j) - x + 1 > chunk).sum() > 1_000  # tails longer than a chunk are chunks of their own
    assert hypergeom_sf(T, n_i, n_j, x).tobytes() == whole.tobytes()


def test_tail_sums_hold_bounded_memory():
    # 200k tails of about 4M terms: one pass over all the terms holds about 196 MB
    T, n_i, n_j, x = _long_tails(200_000)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        hypergeom_sf(T, n_i, n_j, x)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_bh_hand_stepped_example():
    # sorted p: 0.01 <= 1*0.05/4, 0.02 <= 2*0.05/4, 0.04 > 3*0.05/4, 0.9 > 4*0.05/4
    threshold, reject = bh_fdr([0.9, 0.01, 0.04, 0.02], 0.05)
    assert threshold == 0.02
    assert reject.tolist() == [False, True, False, True]


def test_bh_no_rejections():
    threshold, reject = bh_fdr([0.5, 0.9], 0.05)
    assert threshold == 0.0
    assert not reject.any()


def test_bh_external_family_size():
    # with m=100 the criteria tighten and only the smallest survives
    threshold, reject = bh_fdr([0.0004, 0.002], 0.05, n_tests=100)
    assert threshold == 0.0004
    assert reject.tolist() == [True, False]


def test_bh_refuses_family_smaller_than_p_values():
    with pytest.raises(ValueError):  # would reject all three
        bh_fdr([0.01, 0.02, 0.04], 0.05, n_tests=1)
    with pytest.raises(ValueError):  # would divide by zero
        bh_fdr([0.01, 0.02, 0.04], 0.05, n_tests=0)
    assert bh_fdr([0.01, 0.02, 0.04], 0.05, n_tests=3)[0] == 0.04


def test_bh_rejection_set_is_p0_monotone():
    rng = np.random.default_rng(2)
    p = rng.random(60)
    _, loose = bh_fdr(p, 0.10)
    _, tight = bh_fdr(p, 0.01)
    assert (tight <= loose).all()


def _matrix_from_sigma(sigma):
    grid = build_grid("2024-01-01", "2024-02-01")
    T = sigma.shape[1]
    grid = grid.window(0, T)
    return StateMatrix(
        traders=[f"t{k:02d}" for k in range(sigma.shape[0])],
        grid=grid,
        V=np.zeros(sigma.shape),
        G=np.zeros(sigma.shape),
        sigma=np.asarray(sigma, dtype=np.int8),
        counts=np.zeros(sigma.shape, dtype=np.int64),
    )


def test_build_svn_validates_synchronized_pair():
    rng = np.random.default_rng(3)
    T = 200
    shared = rng.choice([-1, 1], size=T)
    sigma = rng.choice([-1, 1, 2], size=(6, T)).astype(np.int8)
    sigma[0] = shared
    sigma[1] = shared
    net = build_svn(_matrix_from_sigma(sigma))
    pairs = {(i, j) for i, j, *_ in net.edges.tolist()}
    assert ("t00", "t01") in pairs
    # synchronized pair validated in both directional state pairs
    states = {(s_i, s_j) for i, j, s_i, s_j, *_ in net.edges.tolist() if (i, j) == ("t00", "t01")}
    assert {(1, 1), (-1, -1)} <= states


def test_build_svn_excludes_untestable_hypotheses():
    sigma = np.full((2, 60), 1, dtype=np.int8)  # only the buy state ever occurs
    net = build_svn(_matrix_from_sigma(sigma))
    assert net.n_tests == 1  # of the 9 state pairs only (+1,+1) is testable


def test_build_svn_refuses_short_windows():
    with pytest.raises(ValueError):
        build_svn(_matrix_from_sigma(np.zeros((2, 10), dtype=np.int8)))


def test_build_svn_edge_order_deterministic():
    rng = np.random.default_rng(4)
    sigma = rng.choice([-1, 1, 2], size=(10, 150)).astype(np.int8)
    sigma[3] = sigma[7]
    net = build_svn(_matrix_from_sigma(sigma))
    keys = net.edges[["i", "j", "state_i", "state_j"]].tolist()
    assert keys == sorted(keys)


def test_build_svn_null_rarely_rejects():
    # under a global iid null, BH leaves any validated edge with prob ~ p0
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sigma = rng.choice([-1, 1, 2], size=(20, 300)).astype(np.int8)
        net = build_svn(_matrix_from_sigma(sigma))
        hits += len(net.edges) > 0
    assert hits <= 4


def test_median_bound_exhaustive():
    # x <= floor(n_i*n_j/T) implies P(X >= x) >= 1/2, checked in integers:
    # 2 * sum_{k>=x} C(n_i,k) C(T-n_i,n_j-k) >= C(T,n_j)
    for T in range(1, 41):
        for n_i in range(T + 1):
            for n_j in range(T + 1):
                total = comb(T, n_j)
                tail = 0
                for k in range(min(n_i, n_j), -1, -1):
                    tail += comb(n_i, k) * comb(T - n_i, n_j - k)
                    if k * T <= n_i * n_j:
                        assert 2 * tail >= total, (T, n_i, n_j, k)


def _full_tests(lead, lag, ii, jj, T, p0, n_tests=None):
    """Reference for ``_cooccurrence_tests``: a p-value for every testable pair."""
    rows = []
    for s_i, s_j in STATE_PAIRS:
        co = (lead[s_i].astype(np.int64) @ lag[s_j].T.astype(np.int64))[ii, jj]
        n_i = lead[s_i].sum(axis=1)[ii]
        n_j = lag[s_j].sum(axis=1)[jj]
        for k in np.flatnonzero((n_i > 0) & (n_j > 0)):
            rows.append((s_i, s_j, int(ii[k]), int(jj[k]), int(co[k]), int(n_i[k]), int(n_j[k])))
    p = hypergeom_sf(T, [r[5] for r in rows], [r[6] for r in rows], [r[4] for r in rows])
    threshold, reject = bh_fdr(p, p0, n_tests)
    return threshold, len(rows), [r[:5] + (float(p[k]),) for k, r in enumerate(rows) if reject[k]]


def _svn_inputs(sigma):
    ind = {s: (sigma == s) for s in ACTIVE_STATES}
    iu, ju = np.triu_indices(sigma.shape[0], k=1)
    return ind, ind, iu, ju, sigma.shape[1], None


def _random_sigma():
    # iid states, then 15 random pairs share a random 10-40 % of their slices
    rng = np.random.default_rng(11)
    sigma = rng.choice([-1, 0, 1, 2], size=(30, 120))
    for _ in range(15):
        i, j = rng.choice(30, size=2, replace=False)
        copy = rng.random(120) < rng.uniform(0.1, 0.4)
        sigma[j, copy] = sigma[i, copy]
    return sigma


def _random_svn():
    return _svn_inputs(_random_sigma())


def _planted_sigma():
    rng = np.random.default_rng(12)
    sigma = rng.choice([-1, 0, 1, 2], size=(30, 160))
    for group in (range(0, 6), range(6, 14)):
        leader = sigma[group[0]]
        for r in group[1:]:
            copy = rng.random(160) < 0.7
            sigma[r, copy] = leader[copy]
    return sigma


def _planted_svn():
    return _svn_inputs(_planted_sigma())


def _median_svn():
    # one testable pair (+1, +1) with x = E[X] = 24*30/80 = 9 and p ~ 0.596:
    # BH at p0 > p rejects it, so the median skip must be off there
    sigma = np.zeros((2, 80), dtype=np.int8)
    sigma[0, :24] = 1
    sigma[1, 15:45] = 1
    return _svn_inputs(sigma)


def _one_slice_svn():
    # two traders active once, in the same slice: x = 1 = ceil(E[X]), p = 1/80,
    # so the median skip must stop at floor(E[X])
    sigma = np.zeros((2, 80), dtype=np.int8)
    sigma[:, 40] = -1
    return _svn_inputs(sigma)


def _planted_leadlag():
    # the follower series of tests/test_leadlag.py, as build_leadlag tests it
    rng = np.random.default_rng(2)
    T = 420
    lead = rng.choice([-1, 1, 2], size=T)
    sigma = np.stack([lead, np.roll(lead, 1), rng.choice([-1, 1, 2], size=T)])
    t_lead = _lag_pairs(build_grid("2024-01-01", "2024-06-01").window(0, T))
    gi, gj = np.divmod(np.arange(9), 3)
    return (
        {s: (sigma[:, t_lead] == s) for s in ACTIVE_STATES},
        {s: (sigma[:, t_lead + 1] == s) for s in ACTIVE_STATES},
        gi, gj, len(t_lead), 9 * 3 * 3,
    )


@pytest.mark.parametrize("make", [_random_svn, _planted_svn])
def test_shared_indicators_equal_copied_ones(make):
    # one dict for lead and lag takes the transposed, 6-product path; a copy takes the full one
    ind, _, ii, jj, T, _ = make()
    shared = _cooccurrence_tests(ind, ind, ii, jj, T, 0.05)
    copied = _cooccurrence_tests(ind, dict(ind), ii, jj, T, 0.05)
    assert len(shared[2][0]) > 0, "the case must reject something"
    assert shared[:2] == copied[:2]
    for got, want in zip(shared[2], copied[2]):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize(
    "make, p0",
    [
        (_random_svn, 0.05),
        (_random_svn, 0.6),
        (_planted_svn, 0.05),
        (_planted_svn, 0.6),
        (_median_svn, 0.6),
        (_one_slice_svn, 0.05),
        (_planted_leadlag, 0.05),
        (_planted_leadlag, 0.6),
    ],
)
def test_screened_tests_equal_full_reference(make, p0):
    lead, lag, ii, jj, T, n_tests = make()
    want = _full_tests(lead, lag, ii, jj, T, p0, n_tests)
    got = _cooccurrence_tests(lead, lag, ii, jj, T, p0, n_tests)
    assert want[2], "the case must reject something"
    if make is _median_svn:
        assert want[0] > 0.5
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert [len(column) for column in got[2]] == [len(want[2])] * 6
    assert list(zip(*(column.tolist() for column in got[2]))) == want[2]  # every rejected test, p-values to the bit


def test_fully_screened_window(monkeypatch):
    scored = []
    real_sf = svn.hypergeom_sf

    def recording_sf(T, n_i, n_j, x):
        scored.append(np.size(x))
        return real_sf(T, n_i, n_j, x)

    monkeypatch.setattr(svn, "hypergeom_sf", recording_sf)
    rng = np.random.default_rng(1)
    sigma = rng.choice([-1, 0, 1, 2], size=(4, 50)).astype(np.int8)
    net = build_svn(_matrix_from_sigma(sigma))
    assert sum(scored) == 0  # no test survives the screen
    occ = {s: (sigma == s).sum(axis=1) for s in ACTIVE_STATES}
    testable = sum(
        int(occ[a][i] > 0 and occ[b][j] > 0) for a, b in STATE_PAIRS for i, j in itertools.combinations(range(4), 2)
    )
    assert (net.threshold, net.n_tests, len(net.edges), net.nodes) == (0.0, testable, 0, [])


@dataclass(frozen=True)
class _Link:
    """One validated link as a record: how build_svn held its edges before they were columns."""

    i: object
    j: object
    state_i: int
    state_j: int
    co_count: int
    p_value: float


def _record_reference(matrix):
    """``build_svn`` and ``project_weighted`` with one record per link, sorted by key: (edges, nodes, graph)."""
    ind = {s: (matrix.sigma == s) for s in ACTIVE_STATES}
    iu, ju = np.triu_indices(matrix.n_traders, k=1)
    _, _, rejected = _cooccurrence_tests(ind, ind, iu, ju, matrix.n_slices, 0.05)
    edges = [_Link(matrix.traders[i], matrix.traders[j], s_i, s_j, x, p)
             for s_i, s_j, i, j, x, p in zip(*(column.tolist() for column in rejected))]
    edges.sort(key=lambda e: (str(e.i), str(e.j), e.state_i, e.state_j))
    nodes = sorted({e.i for e in edges} | {e.j for e in edges}, key=str)
    weights = {}
    for e in edges:
        if (e.state_i, e.state_j) in {(1, -1), (-1, 1)}:
            continue
        key = (e.i, e.j) if str(e.i) <= str(e.j) else (e.j, e.i)
        weights[key] = weights.get(key, 0) + 1
    graph_nodes = sorted({i for i, _ in weights} | {j for _, j in weights}, key=str)
    index = {n: k for k, n in enumerate(graph_nodes)}
    adj = [dict() for _ in graph_nodes]
    for (i, j), w in weights.items():
        adj[index[i]][index[j]] = w
        adj[index[j]][index[i]] = w
    return [astuple(e) for e in edges], nodes, WeightedGraph(graph_nodes, adj)


def _ids_out_of_str_order():
    # row order 10, 9, "2", "10b", "a\0", "a"; str order "10" < "10b" < "2" < "9" < "a" < "a\0"
    rng = np.random.default_rng(5)
    sigma = rng.choice([-1, 1, 2], size=(6, 150)).astype(np.int8)
    for src, dst, share in ((0, 1, 0.8), (1, 2, 0.6), (0, 3, 0.5), (2, 3, 0.7), (5, 4, 0.8), (1, 4, 0.4)):
        copy = rng.random(150) < share
        sigma[dst, copy] = sigma[src, copy]
    return dataclasses.replace(_matrix_from_sigma(sigma), traders=[10, 9, "2", "10b", "a\x00", "a"])


@pytest.mark.parametrize("make", [
    _ids_out_of_str_order,
    lambda: _matrix_from_sigma(_random_sigma()),
    lambda: _matrix_from_sigma(_planted_sigma()),
], ids=["ids-out-of-str-order", "random", "planted"])
def test_columnar_network_equals_the_record_reference(make):
    matrix = make()
    edges, nodes, graph = _record_reference(matrix)
    assert len(graph.nodes) > 3, "the case must validate links between several traders"
    net = build_svn(matrix)
    assert net.edges.dtype == SVN_EDGE
    assert net.edges.tolist() == edges  # same order, every field, p-values to the bit
    assert net.nodes == nodes
    projected = project_weighted(net)
    assert projected.nodes == graph.nodes
    assert all(got == want for got, want in zip(projected.adj, graph.adj, strict=True))
    # the neighbours' order sets the summation order of the map equation, so it must match too
    assert [list(row.items()) for row in projected.adj] == [list(row.items()) for row in graph.adj]
