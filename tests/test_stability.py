from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeflow.leadlag import TraderLeadLagAdjacency
from tradeflow.stability import (
    adjusted_rand_index,
    export_river,
    leadlag_overlap_beta,
    relabel_partition,
)


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
    prev = {"a": 1, "b": 1, "c": 1, "d": 1, "e": 1, "f": 1}
    raw = {"a": 10, "b": 10, "c": 10, "d": 20, "e": 21, "f": 22}
    # overlaps vs group 1: cluster 10 has OA 3 OP 3/6, others OA 1 OP 1/6
    labeled, _ = relabel_partition(prev, raw, next_fresh=2)
    assert labeled["a"] == 1
    # cluster 10 vs group 2: OA 2, OP 2/(5+3-2); vs group 1: OA 1, OP 1/(1+3-1).
    # The OPs tie, and the larger OA wins over the smaller label
    prev = {"a": 2, "b": 2, "p": 2, "q": 2, "r": 2, "c": 1}
    labeled, nxt = relabel_partition(prev, {"a": 10, "b": 10, "c": 10}, next_fresh=3)
    assert labeled == {"a": 2, "b": 2, "c": 2} and nxt == 3


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


def test_ari_compares_the_traders_both_partitions_hold():
    # x is only in p and y only in q; over the shared a..d the pair is test_ari_pinned_values's
    p = {"x": 3, "a": 1, "b": 1, "c": 2, "d": 2}
    q = {"a": 1, "b": 2, "c": 1, "d": 2, "y": 3}
    assert adjusted_rand_index(p, q) == -0.5


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
    nobody = _adj([], [])
    assert leadlag_overlap_beta(linked, nobody) is None
    assert leadlag_overlap_beta(nobody, linked) is None


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


# Set-based reference implementations: each counts the shared traders on its
# own, as the three functions did before they read one contingency table.
def _reference_label_key(g):
    return (0, g) if isinstance(g, (int, np.integer)) else (1, str(g))


def _reference_relabel(previous, new_raw, next_fresh):
    prev_groups, new_groups = {}, {}
    for t, g in previous.items():
        prev_groups.setdefault(g, set()).add(t)
    for t, g in new_raw.items():
        new_groups.setdefault(g, set()).add(t)
    scored = []
    for pg, pmem in prev_groups.items():
        for ng, nmem in new_groups.items():
            inter, union = len(pmem & nmem), len(pmem | nmem)
            if inter > 0:
                scored.append((inter / union, inter, pg, ng))
    scored.sort(key=lambda r: (-r[0], -r[1], _reference_label_key(r[2]), _reference_label_key(r[3])))
    inherited, used_prev, used_new = {}, set(), set()
    for _, _, pg, ng in scored:
        if pg in used_prev or ng in used_new:
            continue
        inherited[ng] = pg
        used_prev.add(pg)
        used_new.add(ng)
    fresh = {}
    for ng in sorted(new_groups, key=_reference_label_key):
        if ng not in inherited:
            fresh[ng] = next_fresh
            next_fresh += 1
    return {t: inherited.get(g, fresh.get(g)) for t, g in new_raw.items()}, next_fresh


def _reference_ari(p, q):
    table, row_tot, col_tot = {}, {}, {}
    for el in p:
        a, b = p[el], q[el]
        table[(a, b)] = table.get((a, b), 0) + 1
        row_tot[a] = row_tot.get(a, 0) + 1
        col_tot[b] = col_tot.get(b, 0) + 1
    sum_comb = sum(comb(v, 2) for v in table.values())
    sum_rows = sum(comb(v, 2) for v in row_tot.values())
    sum_cols = sum(comb(v, 2) for v in col_tot.values())
    total = comb(len(p), 2)
    expected = Fraction(sum_rows * sum_cols, total) if total else Fraction(0)
    max_index = Fraction(sum_rows + sum_cols, 2)
    if max_index == expected:
        return 1.0
    return float((sum_comb - expected) / (max_index - expected))


def _reference_river(labeled_partitions):
    rows = []
    for t in range(1, len(labeled_partitions)):
        prev, cur = labeled_partitions[t - 1], labeled_partitions[t]
        counts = {}
        for trader, g in prev.items():
            g2 = cur.get(trader)
            if g2 is None:
                continue
            counts[(g, g2)] = counts.get((g, g2), 0) + 1
        for (g, g2), c in sorted(counts.items(),
                                 key=lambda kv: (_reference_label_key(kv[0][0]), _reference_label_key(kv[0][1]))):
            rows.append((t, g, g2, c))
    return rows


# a few labels over one small pool of traders, each partition holding a random
# subset in its own order: partial and disjoint trader sets, empty partitions,
# and OP and OA ties are all common
_labels = st.sampled_from([1, 2, 3, "x", "7"])


@st.composite
def _partitions(draw, min_size, max_size):
    pool = draw(st.lists(st.one_of(st.integers(min_value=0, max_value=7), st.sampled_from("abcdefgh")),
                         unique=True, max_size=12))
    partitions = []
    for _ in range(draw(st.integers(min_value=min_size, max_value=max_size))):
        order = draw(st.permutations(pool))
        partitions.append({t: draw(_labels) for t in order if draw(st.booleans())})
    return partitions


@given(pair=_partitions(2, 2), next_fresh=st.integers(min_value=1, max_value=20))
@settings(max_examples=300)
def test_relabel_equals_set_based_reference(pair, next_fresh):
    previous, new_raw = pair
    assert relabel_partition(previous, new_raw, next_fresh) == _reference_relabel(previous, new_raw, next_fresh)


@given(pair=_partitions(2, 2))
@settings(max_examples=300)
def test_ari_equals_reference_bit_for_bit(pair):
    # the reference takes equal element sets; the ARI of overlapping partitions is that of their restrictions
    p, q = pair
    common = [t for t in p if t in q]
    if not common:
        with pytest.raises(ValueError, match="share no element"):
            adjusted_rand_index(p, q)
        return
    assert adjusted_rand_index(p, q) == _reference_ari({t: p[t] for t in common}, {t: q[t] for t in common})


@given(partitions=_partitions(2, 4))
@settings(max_examples=300)
def test_river_equals_reference_in_order(partitions):
    assert export_river(partitions) == _reference_river(partitions)
