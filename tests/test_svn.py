import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeflow.ingest import StateMatrix, build_grid
from tradeflow.svn import (
    STATE_PAIRS,
    FdrConfig,
    bh_fdr,
    build_svn,
    count_cooccurrences,
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


def test_count_cooccurrences_ignores_inactive():
    sigma = np.zeros((2, 60), dtype=np.int8)
    sigma[0, :10] = 1
    sigma[1, 5:15] = 1
    m = _matrix_from_sigma(sigma)
    x, n_i, n_j, T = count_cooccurrences(m, "t00", "t01", (1, 1))
    assert (x, n_i, n_j, T) == (5, 10, 10, 60)
    with pytest.raises(ValueError):
        count_cooccurrences(m, "t00", "t01", (0, 1))


def test_build_svn_validates_synchronized_pair():
    rng = np.random.default_rng(3)
    T = 200
    shared = rng.choice([-1, 1], size=T)
    sigma = rng.choice([-1, 1, 2], size=(6, T)).astype(np.int8)
    sigma[0] = shared
    sigma[1] = shared
    net = build_svn(_matrix_from_sigma(sigma))
    pairs = {(e.i, e.j) for e in net.edges}
    assert ("t00", "t01") in pairs
    # synchronized pair validated in both directional state pairs
    states = {(e.state_i, e.state_j) for e in net.edges if (e.i, e.j) == ("t00", "t01")}
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
    keys = [(e.i, e.j, e.state_i, e.state_j) for e in net.edges]
    assert keys == sorted(keys)


def test_build_svn_null_rarely_rejects():
    # under a global iid null, BH leaves any validated edge with prob ~ p0
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        sigma = rng.choice([-1, 1, 2], size=(20, 300)).astype(np.int8)
        net = build_svn(_matrix_from_sigma(sigma))
        hits += bool(net.edges)
    assert hits <= 4
