"""Label propagation across re-clusterings and stability measures.

Group labels are propagated from one clustering to the next by maximal
normalized overlap, partition agreement is scored with the adjusted Rand
index, and trader-level lead-lag persistence with the conserved-link
fraction beta.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .leadlag import TraderLeadLagAdjacency


@dataclass(frozen=True)
class OverlapScore:
    oa: int  # |g & g'|
    op: float  # |g & g'| / |g | g'|


def overlap(prev_members: set, new_members: set) -> OverlapScore:
    inter = len(prev_members & new_members)
    union = len(prev_members | new_members)
    return OverlapScore(oa=inter, op=inter / union if union else 0.0)


def relabel_partition(previous: dict, new_raw: dict, next_fresh: int):
    """Propagate previous group labels onto a new raw partition.

    Each previous label goes to the new cluster with maximal normalized
    overlap; matching is greedy in decreasing overlap (ties broken by larger
    absolute overlap, then smaller previous label) and one-to-one.  Unmatched
    new clusters receive fresh labels from ``next_fresh`` on, in label order.
    Returns ``(labeled, next_fresh)`` with the next label still unused.
    """
    prev_groups = {}
    for t, g in previous.items():
        prev_groups.setdefault(g, set()).add(t)
    new_groups = {}
    for t, g in new_raw.items():
        new_groups.setdefault(g, set()).add(t)

    scored = []
    for pg, pmem in prev_groups.items():
        for ng, nmem in new_groups.items():
            s = overlap(pmem, nmem)
            if s.oa > 0:
                scored.append((s.op, s.oa, pg, ng))
    # decreasing OP, then decreasing OA, then smaller previous label
    scored.sort(key=lambda r: (-r[0], -r[1], _label_key(r[2]), _label_key(r[3])))

    inherited = {}
    used_prev, used_new = set(), set()
    for op, oa, pg, ng in scored:
        if pg in used_prev or ng in used_new:
            continue
        inherited[ng] = pg
        used_prev.add(pg)
        used_new.add(ng)

    labeled = {}
    fresh = {}
    for ng in sorted(new_groups, key=_label_key):
        if ng in inherited:
            continue
        fresh[ng] = next_fresh
        next_fresh += 1
    for t, g in new_raw.items():
        labeled[t] = inherited.get(g, fresh.get(g))
    return labeled, next_fresh


def _label_key(g):
    return (0, g) if isinstance(g, (int, np.integer)) else (1, str(g))


def adjusted_rand_index(p: dict, q: dict) -> float:
    """Chance-corrected partition agreement over the common element set.

    Both partitions must cover the same elements; 1 for identical
    partitions, expectation 0 under independent random labelings.
    """
    if set(p) != set(q):
        raise ValueError("partitions must cover the same element set")
    elements = list(p)
    n = len(elements)
    if n == 0:
        raise ValueError("empty partitions")
    table = {}
    row_tot, col_tot = {}, {}
    for el in elements:
        a, b = p[el], q[el]
        table[(a, b)] = table.get((a, b), 0) + 1
        row_tot[a] = row_tot.get(a, 0) + 1
        col_tot[b] = col_tot.get(b, 0) + 1
    sum_comb = sum(comb(v, 2) for v in table.values())
    sum_rows = sum(comb(v, 2) for v in row_tot.values())
    sum_cols = sum(comb(v, 2) for v in col_tot.values())
    total = comb(n, 2)
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
    if not common:
        return None
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
        prev, cur = labeled_partitions[t - 1], labeled_partitions[t]
        counts = {}
        for trader, g in prev.items():
            g2 = cur.get(trader)
            if g2 is None:
                continue
            counts[(g, g2)] = counts.get((g, g2), 0) + 1
        for (g, g2), c in sorted(counts.items(), key=lambda kv: (_label_key(kv[0][0]), _label_key(kv[0][1]))):
            rows.append((t, g, g2, c))
    return rows
