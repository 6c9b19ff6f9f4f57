"""Statistically validated synchronicity networks.

For every trader pair and every ordered pair of active states, the number of
co-occurring slices is tested against a hypergeometric null (random placement
of each trader's state occurrences over the window).  Benjamini-Hochberg
controls the false discovery rate over the whole family of tests.  The
lagged group network of ``leadlag`` is validated by the same routine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy.special import gammaln

from .ingest import ACTIVE_STATES, StateMatrix

STATE_PAIRS = tuple(product(ACTIVE_STATES, ACTIVE_STATES))
MIN_WINDOW_SLICES = 50  # shortest window (in slices) the co-occurrence tests accept


@dataclass(frozen=True)
class LinkCandidate:
    i: str
    j: str
    state_i: int
    state_j: int
    co_count: int
    n_i: int
    n_j: int
    T: int
    p_value: float


@dataclass(frozen=True)
class FdrConfig:
    p0: float = 0.05

    def __post_init__(self):
        if not 0 < self.p0 < 1:
            raise ValueError(f"p0 must lie in (0, 1), got {self.p0}")


@dataclass
class ValidatedNetwork:
    nodes: list
    edges: list  # LinkCandidate entries that passed FDR
    threshold: float
    n_tests: int
    p0: float
    T: int
    window: tuple = field(default=None)


def hypergeom_sf(T: int, n_i, n_j, x):
    """Exact upper tail P(X >= x), X hypergeometric(T, n_i marked, n_j drawn).

    ``n_i``, ``n_j`` and ``x`` are scalars or equal-length arrays sharing the
    window length ``T``; scalar arguments give a float, arrays an array.  The
    pmf over k = x..min(n_i, n_j) is summed from a log-factorial table by a
    segmented log-sum-exp over the ragged supports; exact to ~1e-13 relative
    error for any window length.
    """
    scalar = np.ndim(n_i) == np.ndim(n_j) == np.ndim(x) == 0
    T = int(T)
    n_i = np.atleast_1d(np.asarray(n_i, dtype=np.int64))
    n_j = np.atleast_1d(np.asarray(n_j, dtype=np.int64))
    x = np.atleast_1d(np.asarray(x, dtype=np.int64))
    hi = np.minimum(n_i, n_j)
    if ((n_i < 0) | (n_i > T) | (n_j < 0) | (n_j > T)).any():
        raise ValueError(f"need 0 <= n_i, n_j <= T = {T}")
    if ((x < 0) | (x > hi)).any():
        raise ValueError("need 0 <= x <= min(n_i, n_j)")
    out = np.ones(len(x), dtype=np.float64)
    need = x > np.maximum(0, n_i + n_j - T)  # else x is at or below the support: P = 1
    if need.any():
        ni, nj, xs, his = n_i[need], n_j[need], x[need], hi[need]
        lengths = his - xs + 1
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        k = np.repeat(xs, lengths) + (np.arange(offsets[-1]) - np.repeat(offsets[:-1], lengths))
        rep_ni = np.repeat(ni, lengths)
        rep_nj = np.repeat(nj, lengths)
        lf = gammaln(np.arange(T + 2, dtype=np.float64) + 1.0)  # lf[n] = log n!
        logpmf = (
            lf[rep_ni] - lf[k] - lf[rep_ni - k]
            + lf[T - rep_ni] - lf[rep_nj - k] - lf[T - rep_ni - rep_nj + k]
            - (lf[T] - lf[rep_nj] - lf[T - rep_nj])
        )
        seg_max = np.maximum.reduceat(logpmf, offsets[:-1])
        seg_sum = np.add.reduceat(np.exp(logpmf - np.repeat(seg_max, lengths)), offsets[:-1])
        out[need] = np.minimum(1.0, np.exp(seg_max) * seg_sum)
    return float(out[0]) if scalar else out


def count_cooccurrences(matrix: StateMatrix, i, j, state_pair):
    """Count slices where trader i is in state s_i and trader j in s_j.

    Returns (x, n_i, n_j, T).  The inactive state never matches.
    """
    s_i, s_j = state_pair
    if s_i not in ACTIVE_STATES or s_j not in ACTIVE_STATES:
        raise ValueError(f"state pair must be drawn from {ACTIVE_STATES}, got {state_pair}")
    row_i = matrix.sigma[matrix.index_of(i)]
    row_j = matrix.sigma[matrix.index_of(j)]
    a = row_i == s_i
    b = row_j == s_j
    return int((a & b).sum()), int(a.sum()), int(b.sum()), matrix.n_slices


def bh_fdr(p_values, p0: float, n_tests: int | None = None):
    """Benjamini-Hochberg threshold and rejection flags.

    ``n_tests`` may exceed ``len(p_values)`` when some hypotheses of the
    family were not explicitly scored (their p-values are treated as 1).
    """
    p = np.asarray(p_values, dtype=np.float64)
    if len(p) == 0:
        raise ValueError("p_values must be non-empty")
    m = len(p) if n_tests is None else int(n_tests)
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    crit = np.arange(1, len(p) + 1) * p0 / m
    ok = np.flatnonzero(ranked <= crit)
    if len(ok) == 0:
        return 0.0, np.zeros(len(p), dtype=bool)
    threshold = ranked[ok[-1]]
    return float(threshold), p <= threshold


def _cooccurrence_tests(lead: dict, lag: dict, ii, jj, T: int, p0: float, n_tests: int | None = None):
    """Validate the co-occurrences of row pairs (ii[k], jj[k]) in all 9 state pairs.

    ``lead[s]`` and ``lag[s]`` are boolean (rows, T) indicators of state s;
    the count x of slices where row i of ``lead`` is in s and row j of
    ``lag`` is in s' is tested against the hypergeometric tail.  Pairs where
    either side never shows its state are untestable and skipped.  BH runs
    over the tested p-values with family size ``n_tests`` (default: the
    number tested).  Returns ``(threshold, n_tested, rejected)``, ``rejected``
    holding ``(s, s', i, j, x, n_i, n_j, p)`` in state-pair, then pair order.
    """
    lead_occ = {s: lead[s].sum(axis=1).astype(np.int64) for s in ACTIVE_STATES}
    lag_occ = {s: lag[s].sum(axis=1).astype(np.int64) for s in ACTIVE_STATES}
    blocks = []
    for s_i, s_j in STATE_PAIRS:
        co = (lead[s_i].astype(np.int64) @ lag[s_j].T.astype(np.int64))[ii, jj]
        n_i = lead_occ[s_i][ii]
        n_j = lag_occ[s_j][jj]
        ok = (n_i > 0) & (n_j > 0)
        x, n_i, n_j = co[ok], n_i[ok], n_j[ok]
        blocks.append((s_i, s_j, ii[ok], jj[ok], x, n_i, n_j, hypergeom_sf(T, n_i, n_j, x)))
    pvals = np.concatenate([b[-1] for b in blocks])
    if len(pvals) == 0:
        return 0.0, 0, []
    threshold, reject = bh_fdr(pvals, p0, n_tests)
    rejected = []
    pos = 0
    for s_i, s_j, i, j, x, n_i, n_j, p in blocks:
        for k in np.flatnonzero(reject[pos : pos + len(p)]):
            rejected.append((s_i, s_j, int(i[k]), int(j[k]), int(x[k]), int(n_i[k]), int(n_j[k]), float(p[k])))
        pos += len(p)
    return threshold, len(pvals), rejected


def build_svn(matrix: StateMatrix, config: FdrConfig = FdrConfig()) -> ValidatedNetwork:
    """Build the statistically validated synchronicity network of a window.

    All 9 state pairs are tested for all trader pairs; pairs where either
    trader never shows the relevant state are untestable and excluded from
    the hypothesis count.  Isolated nodes are dropped from the result.
    """
    T = matrix.n_slices
    if T < MIN_WINDOW_SLICES:
        raise ValueError(f"window has {T} slices; need at least {MIN_WINDOW_SLICES}")
    ind = {s: (matrix.sigma == s) for s in ACTIVE_STATES}
    iu, ju = np.triu_indices(matrix.n_traders, k=1)
    threshold, n_tests, rejected = _cooccurrence_tests(ind, ind, iu, ju, T, config.p0)
    edges = [
        LinkCandidate(matrix.traders[i], matrix.traders[j], s_i, s_j, x, n_i, n_j, T, p)
        for s_i, s_j, i, j, x, n_i, n_j, p in rejected
    ]
    edges.sort(key=lambda e: (str(e.i), str(e.j), e.state_i, e.state_j))
    nodes = sorted({e.i for e in edges} | {e.j for e in edges}, key=str)
    return ValidatedNetwork(
        nodes=nodes,
        edges=edges,
        threshold=threshold,
        n_tests=n_tests,
        p0=config.p0,
        T=T,
    )
