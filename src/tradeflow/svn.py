"""Statistically validated synchronicity networks.

For every trader pair and every ordered pair of active states, the number of
co-occurring slices is tested against a hypergeometric null (random placement
of each trader's state occurrences over the window).  Benjamini-Hochberg
controls the false discovery rate over the whole family of tests.  The
lagged group network of ``leadlag`` is validated by the same routine.

A network's links are one array of its edge dtype (``SVN_EDGE`` here,
``leadlag.LEADLAG_EDGE``), whose field names are its edge file's header.

BH at level p0 never rejects a test with p > p0, so a p-value is computed
only for tests that could have p <= p0.  A count at the bottom of its
support (p = 1), a count at or below the hypergeometric median (p >= 1/2,
screened when p0 < 1/2) and a count whose first tail term already exceeds
p0 are dropped without summing their tails.  The surviving p-values, the BH
threshold, the rejection set and the family size are the same, to the bit,
as when every pair is tested in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np
from scipy.special import gammaln

from .ingest import ACTIVE_STATES, StateMatrix

STATE_PAIRS = tuple(product(ACTIVE_STATES, ACTIVE_STATES))
MIN_WINDOW_SLICES = 50  # shortest window (in slices) the co-occurrence tests accept
_TAIL_CHUNK = 1 << 16  # tail terms that hypergeom_sf sums at once; bounds its transient arrays
SCREEN_MARGIN = 1e-9  # log-space slack so that a screened test's computed p exceeds p0 despite round-off
# one validated link: traders i and j (i's row before j's), their states, the co-occurrence count and p
SVN_EDGE = np.dtype([("i", object), ("j", object), ("state_i", np.int64), ("state_j", np.int64),
                     ("co_count", np.int64), ("p_value", np.float64)])


@dataclass(frozen=True)
class FdrConfig:
    p0: float = 0.05

    def __post_init__(self):
        if not 0 < self.p0 < 1:
            raise ValueError(f"p0 must lie in (0, 1), got {self.p0}")


@dataclass
class ValidatedNetwork:
    nodes: list
    edges: np.ndarray  # SVN_EDGE links that passed FDR
    threshold: float
    n_tests: int
    p0: float
    T: int


def _log_factorials(T: int) -> np.ndarray:
    """Table lf with lf[n] = log n! for n = 0..T+1."""
    return gammaln(np.arange(T + 2, dtype=np.float64) + 1.0)


def _log_pmf(lf, T: int, n_i, n_j, k):
    """log P(X = k), X hypergeometric(T, n_i marked, n_j drawn), from the table lf.

    The one expression behind both the tail sums of ``hypergeom_sf`` and the
    first-term screen of ``_cooccurrence_tests``: equal arguments give equal
    bits in both.  Needs max(0, n_i + n_j - T) <= k <= min(n_i, n_j).
    """
    return (
        lf[n_i] - lf[k] - lf[n_i - k]
        + lf[T - n_i] - lf[n_j - k] - lf[T - n_i - n_j + k]
        - (lf[T] - lf[n_j] - lf[T - n_j])
    )


def _tail_sums(lf, T: int, n_i, n_j, x):
    """P(X >= x) for x above the bottom of each support, by one segmented log-sum-exp."""
    lengths = np.minimum(n_i, n_j) - x + 1
    offsets = np.concatenate(([0], np.cumsum(lengths)))
    k = np.repeat(x, lengths) + (np.arange(offsets[-1]) - np.repeat(offsets[:-1], lengths))
    logpmf = _log_pmf(lf, T, np.repeat(n_i, lengths), np.repeat(n_j, lengths), k)
    seg_max = np.maximum.reduceat(logpmf, offsets[:-1])
    seg_sum = np.add.reduceat(np.exp(logpmf - np.repeat(seg_max, lengths)), offsets[:-1])
    return np.minimum(1.0, np.exp(seg_max) * seg_sum)


def hypergeom_sf(T: int, n_i, n_j, x):
    """Exact upper tail P(X >= x), X hypergeometric(T, n_i marked, n_j drawn).

    ``n_i``, ``n_j`` and ``x`` are scalars or equal-length arrays sharing the
    window length ``T``; scalar arguments give a float, arrays an array.  The
    pmf over k = x..min(n_i, n_j) is summed from a log-factorial table by a
    segmented log-sum-exp over the ragged supports; exact to ~1e-13 relative
    error for any window length.  The tails are summed in chunks of whole
    tails of at most ``_TAIL_CHUNK`` terms (a longer tail is a chunk of its
    own), so the memory held stays bounded; each tail's terms are summed
    alone and in order, so the chunking leaves every bit as it is.
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
    need = np.flatnonzero(x > np.maximum(0, n_i + n_j - T))  # else x is at or below the support: P = 1
    if len(need):
        lf = _log_factorials(T)
        ends = np.cumsum(hi[need] - x[need] + 1)
        start = 0
        while start < len(need):
            base = ends[start - 1] if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, base + _TAIL_CHUNK, side="right")))
            chunk = need[start:stop]
            out[chunk] = _tail_sums(lf, T, n_i[chunk], n_j[chunk], x[chunk])
            start = stop
    return float(out[0]) if scalar else out


def bh_fdr(p_values, p0: float, n_tests: int | None = None):
    """Benjamini-Hochberg threshold and rejection flags.

    ``n_tests`` is the family size (default: ``len(p_values)``).  It may
    exceed ``len(p_values)`` when the hypotheses left out are known to have
    p > p0 (untestable ones count as p = 1): they rank after every p <= p0,
    so the threshold and the rejections are those of the full family.  A
    family smaller than the p-values given is refused.
    """
    p = np.asarray(p_values, dtype=np.float64)
    if len(p) == 0:
        raise ValueError("p_values must be non-empty")
    m = len(p) if n_tests is None else int(n_tests)
    if m < len(p):
        raise ValueError(f"family size n_tests = {m} is smaller than the {len(p)} p-values given")
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
    with family size ``n_tests`` (default: the number of testable pairs).
    Returns ``(threshold, n_tested, rejected)``, ``rejected`` being the
    arrays ``(s, s', i, j, x, p)`` of the rejected tests in state-pair, then
    pair order.

    Only tests that BH could reject get a p-value.  A testable pair is
    screened out, with p > p0 certain, when
      * x <= max(0, n_i + n_j - T): the whole support lies at or above x, p = 1;
      * p0 < 1/2 and x*T <= n_i*n_j: x is at most floor(E[X]) and the
        hypergeometric median is floor(E[X]) or ceil(E[X]), so p >= 1/2;
      * log pmf(x) > log p0 + SCREEN_MARGIN: the first tail term alone
        exceeds p0, and ``hypergeom_sf`` sums that very term (same
        ``_log_pmf`` bits) plus non-negative ones.
    The survivors go to ``hypergeom_sf`` as they are, so their p-values keep
    their bits, and BH runs on them with the full family size: screened
    tests rank after every p <= p0, so the threshold, the rejections and
    ``n_tested`` are those of testing every pair.

    When ``lead is lag`` (the synchronous network) the lag side reuses the
    lead side's float64 copies and occurrence counts, and the counts of
    (s', s) are the transpose of those of (s, s'), so 6 of the 9 products
    run.  The counts are whole numbers below 2**53, so their bits are those
    of the full path.
    """
    lf = _log_factorials(T)
    log_cut = np.log(p0) + SCREEN_MARGIN
    median_skip = log_cut < np.log(0.5)
    lead_occ = {s: lead[s].sum(axis=1).astype(np.int64) for s in ACTIVE_STATES}
    # float64 products run on BLAS and are exact: every count is at most T < 2**53
    lead_f = {s: lead[s].astype(np.float64) for s in ACTIVE_STATES}
    symmetric = lead is lag
    if symmetric:
        lag_occ, lag_f = lead_occ, lead_f
    else:
        lag_occ = {s: lag[s].sum(axis=1).astype(np.int64) for s in ACTIVE_STATES}
        lag_f = {s: lag[s].astype(np.float64) for s in ACTIVE_STATES}
    mirrored = {}  # (s', s) -> its counts, taken from the product of (s, s')
    n_tested = 0
    blocks = []
    for s_i, s_j in STATE_PAIRS:
        co = mirrored.pop((s_i, s_j), None)
        if co is None:
            product = lead_f[s_i] @ lag_f[s_j].T
            co = product[ii, jj].astype(np.int64)
            if symmetric and s_i != s_j:
                mirrored[s_j, s_i] = product[jj, ii].astype(np.int64)
            del product  # rows x rows: freed before the tail sums
        n_i = lead_occ[s_i][ii]
        n_j = lag_occ[s_j][jj]
        n_tested += int(((n_i > 0) & (n_j > 0)).sum())
        keep = co > np.maximum(0, n_i + n_j - T)  # implies n_i, n_j > 0
        if median_skip:
            keep &= co * T > n_i * n_j
        k = np.flatnonzero(keep)
        k = k[_log_pmf(lf, T, n_i[k], n_j[k], co[k]) <= log_cut]
        blocks.append((np.full(len(k), s_i), np.full(len(k), s_j), ii[k], jj[k], co[k],
                       hypergeom_sf(T, n_i[k], n_j[k], co[k])))
    tests = tuple(np.concatenate(column) for column in zip(*blocks))
    if len(tests[-1]) == 0:
        return 0.0, n_tested, tests
    threshold, reject = bh_fdr(tests[-1], p0, n_tested if n_tests is None else n_tests)
    return threshold, n_tested, tuple(column[reject] for column in tests)


def validated_edges(dtype, ids, rank, rejected) -> np.ndarray:
    """The ``rejected`` tests of ``_cooccurrence_tests`` as an array of ``dtype``.

    Row k is named ``ids[k]``.  Links are ordered by the ``rank`` of their
    first row, then of their second, then by their two states; the sort is
    stable, so links equal in all four keep the tests' order.
    """
    s_i, s_j, i, j, x, p = rejected
    order = np.lexsort((s_j, s_i, rank[j], rank[i]))
    edges = np.empty(len(order), dtype)
    for name, column in zip(dtype.names, (ids[i], ids[j], s_i, s_j, x, p)):
        edges[name] = column[order]
    return edges


def edge_nodes(edges) -> list:
    """Every trader that a link of ``edges`` names, sorted by ``str``."""
    return sorted({*edges["i"].tolist(), *edges["j"].tolist()}, key=str)


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
    # traders whose ids print alike share a rank, so the links order as a sort by str(id) would order them
    _, rank = np.unique(np.array([str(t) for t in matrix.traders], dtype=object), return_inverse=True)
    edges = validated_edges(SVN_EDGE, np.array(matrix.traders, dtype=object), rank, rejected)
    return ValidatedNetwork(
        nodes=edge_nodes(edges),
        edges=edges,
        threshold=threshold,
        n_tests=n_tests,
        p0=config.p0,
        T=T,
    )
