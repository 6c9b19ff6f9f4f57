"""Label propagation across re-clusterings and stability measures.

Two partitions are compared through one table: ``_contingency`` counts the
elements both hold per pair of labels.  Group labels are propagated from one
clustering to the next by maximal normalized overlap read from that table,
partition agreement is scored with the adjusted Rand index of the same
table, the river chart lists its entries, and trader-level lead-lag
persistence is measured with the conserved-link fraction beta.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np

from .leadlag import TraderLeadLagAdjacency


def _contingency(p: dict, q: dict) -> Counter:
    """``{(label in p, label in q): count}`` over the elements both hold, in ``p``'s order."""
    return Counter((a, q[el]) for el, a in p.items() if el in q)


def relabel_partition(previous: dict, new_raw: dict, next_fresh: int):
    """Propagate previous group labels onto a new raw partition.

    Each previous label goes to the new cluster with maximal normalized
    overlap OP = OA / (|g| + |g'| - OA), where the absolute overlap OA is the
    number of traders the previous group g and the new cluster g' share;
    matching is greedy in decreasing OP (ties broken by larger OA, then
    smaller previous label) and one-to-one.  Unmatched new clusters receive
    fresh labels from ``next_fresh`` on, in label order.
    Returns ``(labeled, next_fresh)`` with the next label still unused.
    """
    prev_size, new_size = Counter(previous.values()), Counter(new_raw.values())

    def rank(item):
        (pg, ng), oa = item
        return -oa / (prev_size[pg] + new_size[ng] - oa), -oa, _label_key(pg), _label_key(ng)

    inherited = {}
    used_prev = set()
    for (pg, ng), _ in sorted(_contingency(previous, new_raw).items(), key=rank):
        if pg in used_prev or ng in inherited:
            continue
        inherited[ng] = pg
        used_prev.add(pg)

    for ng in sorted(new_size, key=_label_key):
        if ng not in inherited:
            inherited[ng] = next_fresh
            next_fresh += 1
    return {t: inherited[g] for t, g in new_raw.items()}, next_fresh


def _label_key(g):
    return (0, g) if isinstance(g, (int, np.integer)) else (1, str(g))


def adjusted_rand_index(p: dict, q: dict) -> float:
    """Chance-corrected partition agreement over the elements both partitions hold.

    Scores ``_contingency(p, q)`` with that table's own row and column sums;
    ``ValueError`` when the partitions share no element.  1 for identical
    partitions, expectation 0 under independent random labelings.
    """
    table = _contingency(p, q)
    if not table:
        raise ValueError("partitions share no element")
    rows, cols = Counter(), Counter()
    for (a, b), v in table.items():
        rows[a] += v
        cols[b] += v
    sum_comb = sum(comb(v, 2) for v in table.values())
    sum_rows = sum(comb(v, 2) for v in rows.values())
    sum_cols = sum(comb(v, 2) for v in cols.values())
    total = comb(sum(table.values()), 2)
    # exact rational arithmetic so pinned values like -1/2 come out bit-exact
    expected = Fraction(sum_rows * sum_cols, total) if total else Fraction(0)
    max_index = Fraction(sum_rows + sum_cols, 2)
    if max_index == expected:
        return 1.0
    return float((sum_comb - expected) / (max_index - expected))


def leadlag_overlap_beta(first: TraderLeadLagAdjacency, second: TraderLeadLagAdjacency):
    """Conserved fraction of trader lead-lag links between inference windows.

    Restricted to traders present at both times; returns None (absent) when
    the first adjacency has no links over the common traders.
    """
    common = sorted(set(first.traders) & set(second.traders), key=str)
    pos_a = {t: k for k, t in enumerate(first.traders)}
    pos_b = {t: k for k, t in enumerate(second.traders)}
    ia = [pos_a[t] for t in common]
    ib = [pos_b[t] for t in common]
    a = first.matrix[np.ix_(ia, ia)]
    b = second.matrix[np.ix_(ib, ib)]
    denom = int(a.sum())
    if denom == 0:
        return None
    return float((a & b).sum() / denom)


def export_river(labeled_partitions: list):
    """Transition counts between consecutive labeled partitions.

    Returns rows ``(time_index, from_label, to_label, trader_count)`` for the
    river chart; only traders present at both times contribute.
    """
    if len(labeled_partitions) < 2:
        raise ValueError("need at least 2 consecutive labeled partitions")
    rows = []
    for t in range(1, len(labeled_partitions)):
        table = _contingency(labeled_partitions[t - 1], labeled_partitions[t])
        for (g, g2), c in sorted(table.items(), key=lambda kv: (_label_key(kv[0][0]), _label_key(kv[0][1]))):
            rows.append((t, g, g2, c))
    return rows
