"""Statistical evaluation of forecast records.

Cumulative performance series, a serial-dependence-robust test of binary
predictive power (seeded circular-block-permutation reference method, with a
Newey-West asymptotic variant behind a method flag), one-sided location
tests, rank-statistic ROC-AUC and hourly conditioning.  ``sample_tests`` is
the one battery (predictive power plus location) run on a sample;
``forecast_report`` runs it on a whole forecast and on each hour of it.

Nothing here loads ``scipy.stats`` (about 45 MB resident): the normal and
Student t tails come from ``scipy.special``, and the arithmetic of the t
test and of the midranks is written out so that every value equals the
``scipy.stats`` one bit for bit (the tests compare them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, stdtr

_PERM_CHUNK = 1 << 16  # permuted elements (rows x padded length) drawn at a time by chou_chu_test


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    n: int
    method: str


@dataclass
class PerformanceSeries:
    sign_product: np.ndarray  # pred_sign * realized_sign per slice
    flow_product: np.ndarray  # pred_sign * realized_flow per slice
    cum_sign: np.ndarray
    cum_flow: np.ndarray
    cum_realized_flow: np.ndarray


def performance_series(predicted, realized_sign, realized_flow) -> PerformanceSeries:
    """Per-slice products and their prefix sums; zero predictions contribute 0."""
    p = np.asarray(predicted, dtype=np.float64)
    s = np.asarray(realized_sign, dtype=np.float64)
    f = np.asarray(realized_flow, dtype=np.float64)
    sign_product = p * s
    flow_product = p * f
    return PerformanceSeries(
        sign_product=sign_product,
        flow_product=flow_product,
        cum_sign=np.cumsum(sign_product),
        cum_flow=np.cumsum(flow_product),
        cum_realized_flow=np.cumsum(f),
    )


def _binary_pairs(predicted, realized):
    p = np.asarray(predicted)
    r = np.asarray(realized)
    keep = (p != 0) & (r != 0)
    return p[keep].astype(np.float64), r[keep].astype(np.float64)


def chou_chu_test(
    predicted,
    realized,
    method: str = "permutation",
    n_permutations: int = 10_000,
    seed: int = 0,
):
    """Test whether the binary predictions have power on the realized signs.

    H0: no predictive association, allowing serial dependence in both
    series.  The reference method permutes the realized series in circular
    blocks of length ceil(n^(1/3)); ``method="asymptotic"`` uses a
    Newey-West variance for the mean product instead.  Returns None when the
    realized series is constant (test undefined).

    The permutations are drawn in chunks of ``_PERM_CHUNK // (blocks x L)``
    rows (at least one), so memory stays bounded whatever ``n`` and
    ``n_permutations`` are.  The chunking does not change the p-value: every
    block start is one bounded draw from ``Generator.integers``, which below
    2**32 takes 32-bit words and keeps a leftover half-word between calls, so
    the draws are the same stream however they are split; and each permuted
    sum adds +-1 terms, which is exact in any order.
    """
    a, b = _binary_pairs(predicted, realized)
    n = len(a)
    if n < 30:
        raise ValueError(f"need n >= 30 binary pairs, got {n}")
    if len(np.unique(b)) < 2:
        return None
    stat = float(np.sum(a * b))
    L = max(1, math.ceil(n ** (1.0 / 3.0)))
    if method == "permutation":
        rng = np.random.default_rng(seed)
        nb = math.ceil(n / L)
        exceed = 0
        chunk = max(1, min(n_permutations, _PERM_CHUNK // (nb * L)))
        done = 0
        idx_base = np.arange(L)
        while done < n_permutations:
            m = min(chunk, n_permutations - done)
            starts = rng.integers(0, n, size=(m, nb))
            idx = (starts[:, :, None] + idx_base[None, None, :]) % n
            perm = b[idx.reshape(m, nb * L)[:, :n]]
            exceed += int(np.sum(perm @ a >= stat))
            done += m
        p = (1 + exceed) / (n_permutations + 1)
        return TestResult(statistic=stat, p_value=float(p), n=n, method="chou-chu-permutation")
    if method == "asymptotic":
        c = a * b
        mean = c.mean()
        lrv = _newey_west_lrv(c - mean, L)
        if lrv <= 0:
            return None
        z = mean / math.sqrt(lrv / n)
        p = float(ndtr(-z))
        return TestResult(statistic=float(z), p_value=p, n=n, method="chou-chu-asymptotic")
    raise ValueError(f"unknown method {method!r}")


def _newey_west_lrv(x, max_lag: int) -> float:
    n = len(x)
    gamma0 = float(np.dot(x, x) / n)
    lrv = gamma0
    for lag in range(1, min(max_lag, n - 1) + 1):
        w = 1.0 - lag / (max_lag + 1.0)
        lrv += 2.0 * w * float(np.dot(x[:-lag], x[lag:]) / n)
    return lrv


def _rankdata(x) -> np.ndarray:
    """1-based ranks of ``x`` as float64, tied values sharing the mean of their positions (midranks).

    A tie group at sorted positions i..j gets j - (j - i) / 2, an exact half,
    so this equals ``scipy.stats.rankdata(x)`` bit for bit on finite input.
    """
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def _wilcoxon_exact_greater(values) -> TestResult:
    """Exact one-sided signed-rank p-value with midranks for ties."""
    v = np.asarray(values, dtype=np.float64)
    v = v[v != 0]
    n = len(v)
    ranks2 = (2 * _rankdata(np.abs(v))).astype(np.int64)  # doubled midranks are integers
    w2_obs = int(ranks2[v > 0].sum())
    total = int(ranks2.sum())
    # distribution of the doubled statistic under random sign assignment
    dist = np.zeros(total + 1)
    dist[0] = 1.0
    for r in ranks2:
        shifted = np.zeros_like(dist)
        shifted[r:] = dist[: total + 1 - r]
        dist = 0.5 * (dist + shifted)
    p = float(dist[w2_obs:].sum())
    return TestResult(statistic=w2_obs / 2.0, p_value=p, n=n, method="wilcoxon-exact")


def _wilcoxon_normal_greater(values) -> TestResult:
    v = np.asarray(values, dtype=np.float64)
    v = v[v != 0]
    n = len(v)
    ranks = _rankdata(np.abs(v))
    w_plus = float(ranks[v > 0].sum())
    mean = n * (n + 1) / 4.0
    _, counts = np.unique(np.abs(v), return_counts=True)
    tie_term = float(np.sum(counts**3 - counts))
    var = (n * (n + 1) * (2 * n + 1) - tie_term / 2.0) / 24.0
    if var <= 0:
        return TestResult(statistic=w_plus, p_value=1.0, n=n, method="wilcoxon-normal")
    z = (w_plus - mean - 0.5) / math.sqrt(var)
    return TestResult(statistic=z, p_value=float(ndtr(-z)), n=n, method="wilcoxon-normal")


def location_tests(values):
    """One-sided t and Wilcoxon signed-rank tests of positive location.

    Exact Wilcoxon for n <= 50 (midrank ties handled by enumeration), normal
    approximation with tie correction beyond.  All-zero input leaves the
    Wilcoxon absent.  The t test is ``scipy.stats.ttest_1samp(v, 0.0,
    alternative="greater")``'s arithmetic, step for step; a sample without
    variance gives a NaN or infinite statistic, as there.
    """
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n < 10:
        raise ValueError(f"need n >= 10 values, got {n}")
    mean = np.mean(v)
    var = np.mean((v - np.mean(v, keepdims=True)) ** 2) * (np.float64(n) / np.float64(n - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stat = mean / np.sqrt(var / n)
    t_p = stdtr(np.float64(n - 1), -t_stat)
    t_res = TestResult(statistic=float(t_stat), p_value=float(t_p), n=n, method="t")
    nz = v[v != 0]
    if len(nz) == 0:
        return t_res, None
    if len(nz) <= 50:
        w_res = _wilcoxon_exact_greater(v)
    else:
        w_res = _wilcoxon_normal_greater(v)
    return t_res, w_res


def roc_auc(scores, outcomes) -> float:
    """AUC = P(score+ > score-) + P(equal)/2, via the rank statistic."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(outcomes)
    pos = s[y == 1]
    neg = s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("both outcome classes must be present")
    ranks = _rankdata(np.concatenate([pos, neg]))
    return float((ranks[: len(pos)].sum() - len(pos) * (len(pos) + 1) / 2.0) / (len(pos) * len(neg)))


def sample_tests(predicted, realized_sign, realized_flow, seed: int = 0) -> dict:
    """The predictive-power test on the signs and the location tests on ``predicted * realized_flow``.

    Returns ``{"chou_chu", "t", "wilcoxon"}`` (TestResults or None).  A test
    the sample cannot support reads None, and its reason goes under
    ``chou_chu_note`` or ``location_note``; so does a t test whose statistic
    is not finite (a sample without variance), which keeps the result strict JSON.
    """
    out = {}
    try:
        out["chou_chu"] = chou_chu_test(predicted, realized_sign, seed=seed)
    except ValueError as exc:
        out["chou_chu"], out["chou_chu_note"] = None, str(exc)
    try:
        out["t"], out["wilcoxon"] = location_tests(np.asarray(predicted) * np.asarray(realized_flow, dtype=np.float64))
    except ValueError as exc:
        out["t"] = out["wilcoxon"] = None
        out["location_note"] = str(exc)
        return out
    if not math.isfinite(out["t"].statistic):
        out["location_note"] = f"t statistic is {out['t'].statistic}: the values have no variance"
        out["t"] = None
    return out


MIN_PER_HOUR = 30  # observations an hour needs to be tested


def hourly_condition(predicted, realized_sign, realized_flow, hours):
    """Run :func:`sample_tests` within each session hour.

    Hours with fewer than ``MIN_PER_HOUR`` observations are omitted with a
    note.  Returns ``(table, omitted)`` where ``table`` maps hour to
    ``{"n", "chou_chu", "t", "wilcoxon"}`` plus the ``chou_chu_note`` and
    ``location_note`` of each test the hour cannot support, so an hour whose
    tests all read None says why.  Every hour's Chou-Chu permutations are
    seeded with 0.
    """
    predicted = np.asarray(predicted)
    realized_sign = np.asarray(realized_sign)
    realized_flow = np.asarray(realized_flow, dtype=np.float64)
    hours = np.asarray(hours)
    table, omitted = {}, {}
    for h in np.unique(hours):
        sel = hours == h
        n = int(sel.sum())
        if n < MIN_PER_HOUR:
            omitted[int(h)] = f"only {n} observations (need {MIN_PER_HOUR})"
            continue
        tests = sample_tests(predicted[sel], realized_sign[sel], realized_flow[sel], seed=0)
        table[int(h)] = {"n": n, **tests}
    return table, omitted


def forecast_report(predicted, realized_sign, realized_flow, hours, seed: int = 0) -> dict:
    """The evaluation of one forecast sample, in report order.

    :func:`sample_tests` on the whole sample (seeded with ``seed``), then
    ``hourly``/``hourly_omitted`` from :func:`hourly_condition` (string hour
    keys; its permutations are seeded with 0 whatever ``seed`` is, so a
    seed sweep leaves every hourly Chou-Chu p-value as it is).  An hour
    with enough observations stays in ``hourly`` even when none of its tests
    can run; its ``*_note`` keys say why.  Then, when some prediction is
    non-zero, ``accuracy`` (hit rate of the non-zero predictions) and
    ``base_rate`` (share of the commonest realized sign among them).
    """
    p, r = np.asarray(predicted), np.asarray(realized_sign)
    report = sample_tests(p, r, realized_flow, seed=seed)
    table, omitted = hourly_condition(p, r, realized_flow, hours)
    report["hourly"] = {str(h): entry for h, entry in table.items()}
    report["hourly_omitted"] = {str(h): note for h, note in omitted.items()}
    nonzero = p != 0
    if nonzero.any():
        report["accuracy"] = float(np.mean((p[nonzero] == r[nonzero]) & (r[nonzero] != 0)))
        _, counts = np.unique(r[nonzero][r[nonzero] != 0], return_counts=True)
        report["base_rate"] = float(counts.max() / counts.sum()) if len(counts) else None
    return report

