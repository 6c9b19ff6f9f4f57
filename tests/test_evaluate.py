import contextlib
import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps

from tradeflow import evaluate
from tradeflow.evaluate import (
    _rankdata,
    _wilcoxon_exact_greater,
    _wilcoxon_normal_greater,
    chou_chu_test,
    forecast_report,
    hourly_condition,
    location_tests,
    performance_series,
    roc_auc,
)


def test_performance_series_products_and_cumsums():
    s = performance_series([1, -1, 0], [1, 1, -1], [10.0, 20.0, -5.0])
    assert s.sign_product.tolist() == [1.0, -1.0, 0.0]
    assert s.flow_product.tolist() == [10.0, -20.0, 0.0]
    assert s.cum_sign.tolist() == [1.0, 0.0, 0.0]
    assert s.cum_flow.tolist() == [10.0, -10.0, -10.0]
    assert s.cum_realized_flow.tolist() == [10.0, 30.0, 25.0]


def test_chou_chu_detects_perfect_predictor():
    rng = np.random.default_rng(0)
    real = rng.choice([-1, 1], size=200)
    res = chou_chu_test(real, real, seed=1)
    assert res.p_value < 0.001
    assert res.method == "chou-chu-permutation"


def test_chou_chu_null_is_not_significant():
    rng = np.random.default_rng(1)
    pred = rng.choice([-1, 1], size=300)
    real = rng.choice([-1, 1], size=300)
    res = chou_chu_test(pred, real, seed=2, n_permutations=2000)
    assert res.p_value > 0.01


def test_chou_chu_drops_zeros_and_enforces_n():
    pred = np.array([1, -1, 0] * 9)
    real = np.array([1, 0, 1] * 9)
    with pytest.raises(ValueError):
        chou_chu_test(pred, real)


def test_chou_chu_constant_realized_absent():
    pred = np.random.default_rng(2).choice([-1, 1], size=100)
    assert chou_chu_test(pred, np.ones(100)) is None


def test_chou_chu_seed_reproducible():
    rng = np.random.default_rng(3)
    pred = rng.choice([-1, 1], size=120)
    real = rng.choice([-1, 1], size=120)
    a = chou_chu_test(pred, real, seed=5, n_permutations=1000)
    b = chou_chu_test(pred, real, seed=5, n_permutations=1000)
    assert a.p_value == b.p_value


def test_chou_chu_asymptotic_agrees_roughly():
    rng = np.random.default_rng(4)
    real = rng.choice([-1, 1], size=400)
    pred = np.where(rng.random(400) < 0.75, real, -real)
    p_perm = chou_chu_test(pred, real, seed=0, n_permutations=4000).p_value
    p_asym = chou_chu_test(pred, real, method="asymptotic").p_value
    assert p_perm < 0.01 and p_asym < 0.01


def test_wilcoxon_exact_matches_scipy_without_ties():
    rng = np.random.default_rng(5)
    v = rng.normal(0.3, 1.0, size=20)
    got = _wilcoxon_exact_greater(v)
    want = sps.wilcoxon(v, alternative="greater", mode="exact")
    assert got.p_value == pytest.approx(want.pvalue, rel=1e-12)


def test_wilcoxon_exact_handles_ties():
    v = np.array([1.0, 1.0, 1.0, -1.0, 2.0, 2.0, -2.0, 3.0, 0.5, -0.5, 4.0, 1.5])
    got = _wilcoxon_exact_greater(v)
    assert 0.0 < got.p_value < 1.0
    # doubled-midrank statistic stays a half-integer-friendly value
    assert got.statistic == pytest.approx(np.sum(sps.rankdata(np.abs(v))[v > 0]))


def test_location_tests_positive_shift_detected():
    rng = np.random.default_rng(6)
    v = rng.normal(0.5, 1.0, size=40)
    t_res, w_res = location_tests(v)
    assert t_res.p_value < 0.05
    assert w_res.p_value < 0.05
    assert w_res.method == "wilcoxon-exact"


def test_location_tests_large_sample_uses_normal():
    rng = np.random.default_rng(7)
    v = rng.normal(0.2, 1.0, size=300)
    _, w_res = location_tests(v)
    assert w_res.method == "wilcoxon-normal"
    want = sps.wilcoxon(v, alternative="greater", mode="approx", correction=True)
    assert w_res.p_value == pytest.approx(want.pvalue, rel=1e-6)


def test_location_tests_all_zero_wilcoxon_absent():
    t_res, w_res = location_tests(np.zeros(20))
    assert w_res is None
    assert np.isnan(t_res.statistic) or t_res.p_value >= 0.5


def test_location_tests_minimum_n():
    with pytest.raises(ValueError):
        location_tests(np.ones(5))


def brute_auc(scores, outcomes):
    scores = np.asarray(scores, dtype=float)
    outcomes = np.asarray(outcomes)
    pos = scores[outcomes == 1]
    neg = scores[outcomes == 0]
    wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
    return wins / (len(pos) * len(neg))


def test_roc_auc_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n = int(rng.integers(10, 200))
        scores = rng.integers(0, 10, size=n).astype(float)
        outcomes = rng.integers(0, 2, size=n)
        if outcomes.min() == outcomes.max():
            outcomes[0] = 1 - outcomes[0]
        assert roc_auc(scores, outcomes) == pytest.approx(brute_auc(scores, outcomes))


def test_roc_auc_endpoints():
    assert roc_auc([1, 2, 3, 10, 11, 12], [0, 0, 0, 1, 1, 1]) == 1.0
    assert roc_auc([1, 1], [0, 1]) == 0.5
    with pytest.raises(ValueError):
        roc_auc([1.0, 2.0], [1, 1])


def test_hourly_condition_partitions_and_omits():
    rng = np.random.default_rng(9)
    n = 200
    hours = np.repeat([9, 10], n // 2)
    real = rng.choice([-1, 1], size=n)
    pred = real.copy()
    hours = np.concatenate([hours, [15] * 5])
    pred = np.concatenate([pred, [1] * 5])
    real = np.concatenate([real, [1] * 5])
    flows = real * 100.0
    table, omitted = hourly_condition(pred, real, flows, hours)
    assert set(table) == {9, 10}
    assert table[9]["chou_chu"].p_value < 0.01
    assert 15 in omitted


def _bits(x):
    """The float64 bits of ``x``, every NaN reading as one value."""
    x = float(x)
    return "nan" if math.isnan(x) else struct.pack("<d", x)


def _samples():
    """Seeded (values, scipy_warns) pairs: normal, tied integers with zeros, heavy tails and constant samples.

    The sizes reach n = 10, the smallest location_tests takes, and 50/51, where
    the Wilcoxon switches from exact to normal.
    """
    rng = np.random.default_rng(20)
    for n in (10, 11, 30, 50, 51, 52, 120, 400):
        for _ in range(5):
            yield rng.normal(rng.normal(0.0, 0.5), rng.uniform(0.1, 10.0), n), False
            yield rng.integers(-4, 5, n).astype(np.float64), False
            yield rng.standard_t(1.5, n) * 1e3, False
        yield np.full(n, 0.7), True
        yield np.zeros(n), False


def test_t_test_matches_scipy_bit_for_bit():
    for v, scipy_warns in _samples():
        # scipy warns of precision loss on a constant non-zero sample; the reimplementation does not
        with pytest.warns(RuntimeWarning, match="Precision loss") if scipy_warns else contextlib.nullcontext():
            want = sps.ttest_1samp(v, 0.0, alternative="greater")
        got, _ = location_tests(v)
        assert (_bits(got.statistic), _bits(got.p_value)) == (_bits(want.statistic), _bits(want.pvalue))
    # the constant samples give the statistics that sample_tests turns into a location_note
    assert math.isnan(location_tests(np.zeros(10))[0].statistic)
    assert not math.isfinite(location_tests(np.full(10, 0.5))[0].statistic)


def test_rankdata_matches_scipy_bit_for_bit():
    for v, _ in _samples():
        for x in (v, np.abs(v), np.round(v, 1)):
            assert _rankdata(x).tobytes() == sps.rankdata(x).tobytes()
    assert _rankdata([]).tobytes() == sps.rankdata([]).tobytes()


def test_normal_tails_match_scipy_bit_for_bit():
    rng = np.random.default_rng(21)
    for v, _ in _samples():
        w = _wilcoxon_normal_greater(v)
        if w.n:
            assert _bits(w.p_value) == _bits(sps.norm.sf(w.statistic))
    for n in (30, 100, 400):
        real = rng.choice([-1, 1], size=n)
        pred = np.where(rng.random(n) < 0.6, real, -real)
        res = chou_chu_test(pred, real, method="asymptotic")
        assert _bits(res.p_value) == _bits(sps.norm.sf(res.statistic))


@pytest.mark.parametrize("seed", [0, 5])
def test_chou_chu_p_value_does_not_depend_on_the_chunk(monkeypatch, seed):
    rng = np.random.default_rng(22)
    n = 230
    real = rng.choice([-1, 1], size=n)
    pred = np.where(rng.random(n) < 0.53, real, -real)
    want = chou_chu_test(pred, real, seed=seed).p_value
    assert 0.01 < want < 0.99
    L = math.ceil(n ** (1.0 / 3.0))
    padded = math.ceil(n / L) * L
    for rows in (1, 3, 10_000):  # 10,000 rows draws every permutation in one call
        monkeypatch.setattr(evaluate, "_PERM_CHUNK", rows * padded)
        assert chou_chu_test(pred, real, seed=seed).p_value == want


def test_forecast_report_memory_is_bounded():
    # the paper's sample size; a chunk of all 10,000 permutations would hold about 280 MB
    rng = np.random.default_rng(23)
    n = 1750
    real = rng.choice([-1, 1], size=n)
    pred = np.where(rng.random(n) < 0.55, real, -real)
    flow = real * rng.pareto(1.5, n) * 1e4
    hours = 9 + np.arange(n) % 7
    tracemalloc.start()
    try:
        report = forecast_report(pred, real, flow, hours)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["chou_chu"].n == n and len(report["hourly"]) == 7
    assert peak < 16 * 2**20
