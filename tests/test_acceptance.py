"""Acceptance gate: planted-truth and calibration properties of the full stack.

Each test pins one acceptance property with explicit tolerances and prints a
single summary line.  The suite is deliberately heavier than the unit tests;
the end-to-end forecast test dominates the runtime.
"""

import time
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

import tradeflow as tf
from tradeflow.community import detect_communities, project_weighted
from tradeflow.evaluate import chou_chu_test, location_tests, roc_auc
from tradeflow.ingest import StateMatrix, build_grid, fit_tail_exponent
from tradeflow.leadlag import aggregate_groups, build_leadlag
from tradeflow.learn import (
    ForestConfig,
    adjusted_rank_ratio,
    forest_votes,
    logistic_predict,
    oob_accuracy,
    permutation_importance,
    train_forest,
    train_logistic,
)
from tradeflow.predict import CalibrationSchedule, rolling_forecast, rolling_forecasts
from tradeflow.stability import adjusted_rand_index, leadlag_overlap_beta
from tradeflow.svn import build_svn, hypergeom_sf
from tradeflow.synth import MarketSpec, PlantedEdge, generate_market


def _combined_outcomes(records, kind):
    pred = np.array([r.combined for r in records])
    if kind == "flow":
        real = np.array([r.realized_sign for r in records])
    else:
        real = np.array([0 if r.realized_vwap_sign is None else r.realized_vwap_sign for r in records])
    return pred, real


def _accuracy_and_base(pred, real):
    nz = (pred != 0) & (real != 0)
    acc = float(np.mean(pred[nz] == real[nz])) if nz.any() else None
    signs = real[real != 0]
    _, counts = np.unique(signs, return_counts=True)
    base = float(counts.max() / counts.sum()) if len(counts) else None
    return acc, base, int(nz.sum())


def test_acceptance_01_hypergeometric_exact_statistics():
    """Upper-tail probabilities match exhaustive rational enumeration, T <= 20."""
    t0 = time.time()
    worst = 0.0
    n_cases = 0
    for T in range(1, 21):
        for n_i in range(T + 1):
            for n_j in range(T + 1):
                c_T = comb(T, n_j)
                for x in range(min(n_i, n_j) + 1):
                    want = Fraction(
                        sum(comb(n_i, k) * comb(T - n_i, n_j - k) for k in range(x, min(n_i, n_j) + 1)),
                        c_T,
                    )
                    got = hypergeom_sf(T, n_i, n_j, x)
                    w = float(want)
                    worst = max(worst, abs(got - w) / w if w else abs(got))
                    n_cases += 1
    elapsed = time.time() - t0
    print(f"\n[acceptance 1] {n_cases} cases, worst rel err {worst:.2e}, {elapsed:.1f}s: "
          f"{'PASS' if worst <= 1e-12 and elapsed < 10 else 'FAIL'}")
    assert worst <= 1e-12
    assert elapsed < 10


def test_acceptance_02_fdr_control_on_null_markets():
    """Average realized false-link proportion <= 0.07 over 50 seeded nulls.

    Under a global null every validated link is false, so the per-seed false
    discovery proportion is the indicator of any validated edge.
    """
    t0 = time.time()
    grid = build_grid("2023-01-01", "2024-06-01").window(0, 500)
    n, T = 50, 500
    fdp = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        sigma = rng.choice([-1, 1, 2], size=(n, T)).astype(np.int8)
        m = StateMatrix(
            traders=[f"t{k:03d}" for k in range(n)], grid=grid,
            V=np.zeros((n, T)), G=np.zeros((n, T)), sigma=sigma,
            counts=np.zeros((n, T), dtype=np.int64),
        )
        net = build_svn(m)
        fdp.append(1.0 if len(net.edges) else 0.0)
    elapsed = time.time() - t0
    avg = float(np.mean(fdp))
    print(f"\n[acceptance 2] avg false-link proportion {avg:.3f} over 50 seeds, {elapsed:.0f}s: "
          f"{'PASS' if avg <= 0.07 and elapsed < 120 else 'FAIL'}")
    assert avg <= 0.07
    assert elapsed < 120


def _detected_partition(truth, trades, seed, min_trades=50):
    mx = tf.classify_states(trades, truth.grid)
    act = tf.filter_active(mx, 500, min_trades)
    net = build_svn(act)
    part = detect_communities(project_weighted(net), seed=seed)
    return act, part


def test_acceptance_03_planted_group_recovery():
    """ARI >= 0.9 in >= 18/20 seeds at sync 0.8; exact recovery when perfect."""
    good = 0
    for seed in range(20):
        spec = MarketSpec(group_sizes=(6,) * 5, n_noise_traders=10, sync_fidelity=0.8,
                          n_weekdays=72, seed=seed)
        trades, truth = generate_market(spec)
        _, part = _detected_partition(truth, trades, seed)
        common = {t for t in part if t in truth.partition}
        if len(common) < 25:
            continue
        good += adjusted_rand_index(truth.partition, part) >= 0.9  # over the traders both hold

    spec = MarketSpec(group_sizes=(6,) * 5, n_noise_traders=0, sync_fidelity=1.0,
                      n_weekdays=72, seed=0)
    trades, truth = generate_market(spec)
    _, part = _detected_partition(truth, trades, 0)
    perfect = (
        set(part) == set(truth.partition)
        and adjusted_rand_index(truth.partition, part) == 1.0
    )
    print(f"\n[acceptance 3] ARI>=0.9 in {good}/20 seeds, perfect-case exact: {perfect}: "
          f"{'PASS' if good >= 18 and perfect else 'FAIL'}")
    assert good >= 18
    assert perfect


def _leadlag_pairs(truth, trades, seed):
    act, part = _detected_partition(truth, trades, seed)
    planted_of = {}
    for lbl in set(part.values()):
        members = [truth.partition.get(t) for t, g in part.items() if g == lbl and t in truth.partition]
        planted_of[lbl] = Counter(m for m in members if m).most_common(1)[0][0] if any(members) else None
    sub = act.select_traders(sorted(part))
    net = build_leadlag(aggregate_groups(sub, part), tf.FdrConfig())
    from_to = zip(net.edges["from_group"].tolist(), net.edges["to_group"].tolist())
    return {(planted_of[g], planted_of[h]) for g, h in from_to}


def test_acceptance_04_planted_leadlag_recovery():
    """Chain of 4 planted directed edges: precision and recall >= 0.9; none planted -> false rate <= 0.07."""
    chain = tuple(PlantedEdge(g, g + 1) for g in range(4))
    planted = {(g + 1, g + 2) for g in range(4)}
    precs, recs = [], []
    for seed in range(20):
        spec = MarketSpec(group_sizes=(6,) * 5, n_noise_traders=10, sync_fidelity=0.9,
                          copy_fidelity=1.0, leadlag_edges=chain, n_weekdays=72, seed=seed)
        trades, truth = generate_market(spec)
        det = _leadlag_pairs(truth, trades, seed)
        tp = len(det & planted)
        precs.append(tp / len(det) if det else 1.0)
        recs.append(tp / len(planted))
    precision, recall = float(np.mean(precs)), float(np.mean(recs))

    false_hits = 0
    for seed in range(20):
        spec = MarketSpec(group_sizes=(6,) * 5, n_noise_traders=10, sync_fidelity=0.9,
                          copy_fidelity=0.0, n_weekdays=72, seed=seed)
        trades, truth = generate_market(spec)
        false_hits += bool(_leadlag_pairs(truth, trades, seed))
    false_rate = false_hits / 20

    print(f"\n[acceptance 4] precision {precision:.3f}, recall {recall:.3f}, null false rate {false_rate:.2f}: "
          f"{'PASS' if precision >= 0.9 and recall >= 0.9 and false_rate <= 0.07 else 'FAIL'}")
    assert precision >= 0.9
    assert recall >= 0.9
    assert false_rate <= 0.07


def test_acceptance_05_stability_formula_pins():
    """Pinned values of the partition and link stability measures."""
    p = dict(enumerate([1, 1, 2, 2]))
    ok_ari_self = adjusted_rand_index(p, p) == 1.0
    ok_ari_anti = adjusted_rand_index(p, dict(enumerate([1, 2, 1, 2]))) == -0.5

    from tradeflow.leadlag import TraderLeadLagAdjacency

    def adj(edges):
        traders = ["a", "b", "c"]
        m = np.zeros((3, 3), dtype=bool)
        for i, j in edges:
            m[traders.index(i), traders.index(j)] = True
        return TraderLeadLagAdjacency(traders=traders, matrix=m)

    same = adj([("a", "b"), ("b", "c")])
    half = adj([("a", "b"), ("c", "a")])
    ok_beta = leadlag_overlap_beta(same, same) == 1.0 and leadlag_overlap_beta(same, half) == 0.5

    from tradeflow.learn import ImportanceReport

    report = ImportanceReport(importance=np.array([3.0, 1.0, 2.0]), ranks=np.array([1, 3, 2]))
    ok_rank = adjusted_rank_ratio(report, 0) == 0.0 and adjusted_rank_ratio(report, 1) == 1.0

    ok = ok_ari_self and ok_ari_anti and ok_beta and ok_rank
    print(f"\n[acceptance 5] ARI pins {ok_ari_self and ok_ari_anti}, beta pins {ok_beta}, "
          f"rank-ratio endpoints {ok_rank}: {'PASS' if ok else 'FAIL'}")
    assert ok


FORECAST_KW = dict(top_n=100, min_trades=20, forest_config=ForestConfig(n_trees=50))


def test_acceptance_06_forecast_skill_and_null():
    """Planted 150-weekday market: skill over base rate; null markets: none."""
    t0 = time.time()
    spec = MarketSpec(group_sizes=(6,) * 5, n_noise_traders=10,
                      sync_fidelity=0.9, neutral_prob=0.1,
                      leadlag_edges=tuple(PlantedEdge(0, k) for k in range(1, 5)),
                      copy_fidelity=0.8, n_weekdays=150, kappa=1e-3, seed=777)
    trades, truth = generate_market(spec)
    mx = tf.classify_states(trades, truth.grid)
    schedule = CalibrationSchedule()
    results = {}
    both = rolling_forecasts(mx, schedule, target_kinds=("flow", "vwap"), seed=5, trades=trades, **FORECAST_KW)
    for kind, (records, _) in both.items():
        pred, real = _combined_outcomes(records, kind)
        acc, base, n = _accuracy_and_base(pred, real)
        cc = chou_chu_test(pred, real, seed=0, n_permutations=2000)
        results[kind] = (acc, base, n, cc.p_value)

    null_pass = 0
    for seed in range(50):
        nspec = MarketSpec(group_sizes=(1,) * 30, sync_fidelity=0.0, n_noise_traders=10,
                           n_weekdays=55, seed=1000 + seed)
        ntrades, ntruth = generate_market(nspec)
        nmx = tf.classify_states(ntrades, ntruth.grid)
        nrecords, _ = rolling_forecast(
            nmx, CalibrationSchedule(window_lengths=(45, 50), recalibrate_every=5),
            target_kind="flow", seed=seed, top_n=100, min_trades=20,
            forest_config=ForestConfig(n_trees=25),
        )
        pred, real = _combined_outcomes(nrecords, "flow")
        acc, base, n = _accuracy_and_base(pred, real)
        ok = True
        if n >= 30:
            cc = chou_chu_test(pred, real, seed=seed, n_permutations=500)
            ok = abs(acc - base) <= 0.03 and (cc is None or cc.p_value > 0.05)
        null_pass += ok

    elapsed = time.time() - t0
    skill_ok = all(
        results[k][0] is not None and results[k][0] >= results[k][1] + 0.10 and results[k][3] < 0.01
        for k in ("flow", "vwap")
    )
    print(f"\n[acceptance 6] flow acc/base/p {results['flow'][0]:.3f}/{results['flow'][1]:.3f}/"
          f"{results['flow'][3]:.4f}, vwap {results['vwap'][0]:.3f}/{results['vwap'][1]:.3f}/"
          f"{results['vwap'][3]:.4f}, null pass {null_pass}/50, {elapsed / 60:.1f} min: "
          f"{'PASS' if skill_ok and null_pass >= 45 and elapsed < 1800 else 'FAIL'}")
    assert skill_ok
    assert null_pass >= 45
    assert elapsed < 1800


def test_acceptance_07_no_look_ahead():
    """Forecasts through day d are bit-identical with and without later data."""
    spec = MarketSpec(group_sizes=(6,) * 5, n_noise_traders=10, sync_fidelity=0.9,
                      leadlag_edges=(PlantedEdge(0, 1), PlantedEdge(0, 2)),
                      copy_fidelity=0.8, n_weekdays=55, kappa=1e-3, seed=31)
    trades, truth = generate_market(spec)
    mx = tf.classify_states(trades, truth.grid)
    schedule = CalibrationSchedule(window_lengths=(45, 50))
    full, _ = rolling_forecast(mx, schedule, seed=9, **FORECAST_KW)
    cutoff_day = 52
    t_cut = int(np.flatnonzero(mx.grid.day_index <= cutoff_day)[-1]) + 1
    trunc, _ = rolling_forecast(mx.slice_window(0, t_cut), schedule, seed=9, **FORECAST_KW)
    full_by_slice = {r.slice_index: r for r in full}
    mismatches = sum(
        1
        for r in trunc
        if r.per_window != full_by_slice[r.slice_index].per_window
        or r.combined != full_by_slice[r.slice_index].combined
    )
    print(f"\n[acceptance 7] {len(trunc)} truncated forecasts, {mismatches} mismatches: "
          f"{'PASS' if trunc and mismatches == 0 else 'FAIL'}")
    assert trunc
    assert mismatches == 0


def test_acceptance_08_tail_exponent_anchor():
    """Generator at alpha=2 -> mean fitted exponent within [1.9, 2.1] over 20 seeds."""
    alphas = []
    for seed in range(20):
        spec = MarketSpec(group_sizes=(), n_noise_traders=2500, alpha=2.0,
                          n_weekdays=5, seed=seed)
        trades, truth = generate_market(spec)
        counts = tf.classify_states(trades, truth.grid).trade_counts
        alphas.append(fit_tail_exponent(counts[counts > 0]).alpha)
    mean = float(np.mean(alphas))
    print(f"\n[acceptance 8] mean fitted alpha {mean:.3f} (sd {np.std(alphas):.3f}): "
          f"{'PASS' if 1.9 <= mean <= 2.1 else 'FAIL'}")
    assert 1.9 <= mean <= 2.1


def test_acceptance_09_test_calibration():
    """Null rejection rates 0.05 +/- 0.02 over 500 seeds; AUC matches brute force."""
    rej = {"chou_chu": 0, "t": 0, "wilcoxon": 0}
    n_seeds = 500
    for seed in range(n_seeds):
        rng = np.random.default_rng([99, seed])
        pred = rng.choice([-1, 1], size=100)
        real = rng.choice([-1, 1], size=100)
        cc = chou_chu_test(pred, real, seed=seed, n_permutations=400)
        rej["chou_chu"] += cc.p_value <= 0.05
        t_res, w_res = location_tests(rng.normal(0, 1, size=40))
        rej["t"] += t_res.p_value <= 0.05
        rej["wilcoxon"] += w_res.p_value <= 0.05
    rates = {k: v / n_seeds for k, v in rej.items()}
    rates_ok = all(0.03 <= r <= 0.07 for r in rates.values())

    auc_ok = True
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(10, 201))
        scores = rng.integers(0, 8, size=n).astype(float)
        outcomes = rng.integers(0, 2, size=n)
        if outcomes.min() == outcomes.max():
            outcomes[0] = 1 - outcomes[0]
        pos = scores[outcomes == 1]
        neg = scores[outcomes == 0]
        brute = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg) / (len(pos) * len(neg))
        auc_ok &= roc_auc(scores, outcomes) == pytest.approx(brute)

    print(f"\n[acceptance 9] rejection rates {rates}, AUC brute-force match {auc_ok}: "
          f"{'PASS' if rates_ok and auc_ok else 'FAIL'}")
    assert rates_ok
    assert auc_ok


def test_acceptance_10_learner_baselines():
    """Forest OOB and importance on the single-informative-feature task; exact logistic fit."""
    rng = np.random.default_rng(17)
    X = rng.choice([-1, 1, 2], size=(400, 6))
    y = np.where(X[:, 0] == 2, 0, X[:, 0])
    model = train_forest(X, y, ForestConfig(n_trees=60), seed=2)
    oob = oob_accuracy(model, X, y)
    report = permutation_importance(model, X, y, seed=0)
    rank_ok = report.ranks[0] == 1

    keep = y != 0
    logit = train_logistic(X, y)
    logit_acc = float(np.mean(logistic_predict(logit, X[keep]) == y[keep]))

    again = train_forest(X, y, ForestConfig(n_trees=60), seed=2)
    reproducible = np.array_equal(forest_votes(model, X[:50]), forest_votes(again, X[:50]))

    ok = oob >= 0.95 and rank_ok and logit_acc == 1.0 and reproducible
    print(f"\n[acceptance 10] forest OOB {oob:.3f}, informative rank 1 {rank_ok}, "
          f"logistic acc {logit_acc:.3f}, reproducible {reproducible}: {'PASS' if ok else 'FAIL'}")
    assert oob >= 0.95
    assert rank_ok
    assert logit_acc == 1.0
    assert reproducible
