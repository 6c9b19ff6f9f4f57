import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeflow.leadlag import TraderLeadLagAdjacency
from tradeflow.stability import (
    adjusted_rand_index,
    export_river,
    leadlag_overlap_beta,
    overlap,
    relabel_partition,
)


def test_overlap_scores():
    s = overlap({"a", "b", "c"}, {"b", "c", "d"})
    assert s.oa == 2
    assert s.op == pytest.approx(2 / 4)
    assert overlap(set(), set()).op == 0.0


def test_relabel_inherits_by_max_overlap():
    prev = {"a": 1, "b": 1, "c": 2, "d": 2}
    raw = {"a": 10, "b": 10, "c": 20, "d": 20}
    labeled, nxt = relabel_partition(prev, raw, next_fresh=3)
    assert labeled == prev
    assert nxt == 3


def test_relabel_unmatched_gets_fresh_label():
    prev = {"a": 1, "b": 1}
    raw = {"a": 5, "b": 5, "x": 9, "y": 9}
    labeled, nxt = relabel_partition(prev, raw, next_fresh=2)
    assert labeled["a"] == labeled["b"] == 1
    assert labeled["x"] == labeled["y"] == 2
    assert nxt == 3


def test_relabel_tie_breaks_by_larger_absolute_overlap():
    # both new clusters have OP 1/2 vs prev group 1; the larger one wins
    prev = {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1}
    raw = {"a": 10, "b": 10, "c": 10, "d": 20, "e": 21, "f": 22}
    # overlaps vs group 1: cluster 10 has OA 3 OP 3/6, others OA 1 OP 1/6
    labeled, _ = relabel_partition(prev, raw, next_fresh=2)
    assert labeled["a"] == 1


def test_relabel_is_one_to_one():
    prev = {"a": 1, "b": 2}
    raw = {"a": 7, "b": 7}
    labeled, _ = relabel_partition(prev, raw, next_fresh=3)
    # the merged cluster inherits exactly one previous label
    assert len(set(labeled.values())) == 1
    assert labeled["a"] in (1, 2)


def test_relabel_threading_fresh_counter():
    prev = {"a": 1}
    raw1 = {"a": 3, "b": 4}
    labeled1, nxt = relabel_partition(prev, raw1, next_fresh=2)
    raw2 = {"a": 1, "b": 2, "c": 3}
    labeled2, nxt2 = relabel_partition(labeled1, raw2, next_fresh=nxt)
    assert nxt2 > nxt
    assert len(set(labeled2.values())) == 3


def test_ari_pinned_values():
    p = dict(enumerate([1, 1, 2, 2]))
    assert adjusted_rand_index(p, p) == 1.0
    q = dict(enumerate([1, 2, 1, 2]))
    assert adjusted_rand_index(p, q) == -0.5


def test_ari_identical_degenerate_partitions():
    p = {"a": 1, "b": 1}
    assert adjusted_rand_index(p, {"a": 9, "b": 9}) == 1.0


def test_ari_mismatched_elements_error():
    with pytest.raises(ValueError):
        adjusted_rand_index({"a": 1}, {"b": 1})


@given(
    labels=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=30),
    perm_seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=100)
def test_ari_invariant_under_relabeling(labels, perm_seed):
    rng = np.random.default_rng(perm_seed)
    mapping = {v: int(k) for v, k in zip(range(4), rng.permutation(100)[:4])}
    p = dict(enumerate(labels))
    q = {k: mapping[v] for k, v in p.items()}
    assert adjusted_rand_index(p, q) == pytest.approx(1.0)


def _adj(traders, edges):
    idx = {t: k for k, t in enumerate(traders)}
    m = np.zeros((len(traders), len(traders)), dtype=bool)
    for a, b in edges:
        m[idx[a], idx[b]] = True
    return TraderLeadLagAdjacency(traders=list(traders), matrix=m)


def test_beta_identical_is_one():
    a = _adj(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert leadlag_overlap_beta(a, a) == 1.0


def test_beta_half_overlap_worked_example():
    first = _adj(["a", "b", "c"], [("a", "b"), ("b", "c")])
    second = _adj(["a", "b", "c"], [("a", "b"), ("c", "a")])
    assert leadlag_overlap_beta(first, second) == 0.5


def test_beta_absent_without_links_or_common_traders():
    empty = _adj(["a", "b"], [])
    linked = _adj(["a", "b"], [("a", "b")])
    assert leadlag_overlap_beta(empty, linked) is None
    other = _adj(["x", "y"], [("x", "y")])
    assert leadlag_overlap_beta(linked, other) is None


def test_beta_restricts_to_common_traders():
    first = _adj(["a", "b", "z"], [("a", "b"), ("a", "z")])
    second = _adj(["a", "b"], [("a", "b")])
    assert leadlag_overlap_beta(first, second) == 1.0


def test_river_transition_counts():
    p1 = {"a": 1, "b": 1, "c": 2}
    p2 = {"a": 1, "b": 3, "c": 2, "d": 3}
    rows = export_river([p1, p2])
    assert rows == [(1, 1, 1, 1), (1, 1, 3, 1), (1, 2, 2, 1)]


def test_river_needs_two_partitions():
    with pytest.raises(ValueError):
        export_river([{"a": 1}])
