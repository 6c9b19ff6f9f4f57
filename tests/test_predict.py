import hashlib
from datetime import time, timedelta

import numpy as np
import pytest

from tradeflow import predict
from tradeflow.ingest import StateMatrix, TimeGrid, Trades, build_grid, classify_states, states_from_volumes
from tradeflow.leadlag import _lag_pairs
from tradeflow.learn import ForestConfig
from tradeflow.predict import (
    CalibrationSchedule,
    build_predictors,
    derive_seed,
    flow_sign_targets,
    realized_vwap_signs,
    rolling_forecast,
    rolling_forecasts,
    vwap_series,
)
from tradeflow.synth import MarketSpec, PlantedEdge, generate_market


def _grid(n_slices):
    return build_grid("2024-01-01", "2024-06-01").window(0, n_slices)


def test_predictor_row_layout():
    # two groups, 8 slices (one full day plus one), lag depth 1
    sigma = np.array(
        [
            [1, -1, 2, 1, 1, -1, 2, -1],
            [2, 2, 1, -1, 1, 1, -1, 2],
        ],
        dtype=np.int8,
    )
    grid = _grid(8)
    X, rows = build_predictors(sigma, grid, lag_depth=1)
    # slice 7 starts a new day, so its lag crosses the overnight gap
    assert rows.tolist() == [1, 2, 3, 4, 5, 6]
    # row for t=1: current states, then lagged states, then hour
    assert X[0].tolist() == [-1, 2, 1, 2, 10]
    assert X.shape[1] == 2 * 2 + 1


def test_predictor_width_formula_lag_two():
    sigma = np.random.default_rng(0).choice([-1, 1, 2], size=(3, 21)).astype(np.int8)
    X, rows = build_predictors(sigma, _grid(21), lag_depth=2)
    assert X.shape[1] == (2 + 1) * 3 + 1
    # first two slices of each day lack in-session lags
    assert 7 not in rows and 8 not in rows and 9 in rows


_GRIDS = {
    "45-min": dict(start_date="2024-01-01", end_date="2024-01-20", slice_duration=timedelta(minutes=45)),
    "16:30-close": dict(start_date="2024-01-01", end_date="2024-01-20", session_end=time(16, 30)),
    "london-spring": dict(start_date="2024-03-28", end_date="2024-04-03", session_start=time(0, 0),
                          session_end=time(23, 0), include_weekends=True),
    "london-autumn": dict(start_date="2024-10-24", end_date="2024-10-30", session_start=time(0, 0),
                          session_end=time(23, 0), include_weekends=True),
    "new-york-spring": dict(start_date="2024-03-07", end_date="2024-03-13", slice_duration=timedelta(minutes=30),
                            tz="America/New_York"),
    "new-york-autumn": dict(start_date="2024-10-31", end_date="2024-11-06", slice_duration=timedelta(minutes=30),
                            tz="America/New_York"),
}


@pytest.mark.parametrize("lag_depth", [1, 2])
@pytest.mark.parametrize("kwargs", _GRIDS.values(), ids=_GRIDS.keys())
def test_predictor_rows_stay_inside_a_trading_day(kwargs, lag_depth):
    # on the grids build_grid makes, a trading day is one run of contiguous slices, so the
    # contiguity rule keeps exactly the rows whose lags fall on the row's own trading day
    grid = build_grid(**kwargs)
    day = grid.day_index
    assert grid.n_days == len(np.unique(day)) > 2
    assert (grid.contiguous_with_previous()[1:] == (day[1:] == day[:-1])).all()
    sigma = np.random.default_rng(lag_depth).choice([-1, 1, 2], size=(2, len(grid))).astype(np.int8)
    X, rows = build_predictors(sigma, grid, lag_depth)
    t = np.arange(lag_depth, len(grid))
    assert rows.tolist() == t[day[t] == day[t - lag_depth]].tolist()
    assert X[:, -1].tolist() == grid.local_hour[rows].tolist()


def test_predictor_rows_skip_a_gap_inside_a_day():
    # one trading day of six hourly slices with an hour missing after the third: the row after
    # the gap would lag across it, so it is dropped, as leadlag drops the pair (2, 3)
    hour = 3_600_000
    starts = np.array([0, 1, 2, 4, 5, 6]) * hour
    grid = TimeGrid(starts=starts, ends=starts + hour, day_index=[0] * 6, local_hour=[9, 10, 11, 13, 14, 15])
    sigma = np.ones((1, 6), dtype=np.int8)
    assert build_predictors(sigma, grid, 1)[1].tolist() == (_lag_pairs(grid) + 1).tolist() == [1, 2, 4, 5]
    assert build_predictors(sigma, grid, 2)[1].tolist() == [2, 5]


def test_predictor_errors():
    sigma = np.zeros((1, 3), dtype=np.int8)
    with pytest.raises(ValueError):
        build_predictors(sigma, _grid(3), lag_depth=0)
    with pytest.raises(ValueError):
        build_predictors(np.zeros((1, 1), dtype=np.int8), _grid(1), lag_depth=1)


def test_flow_sign_targets_sum_over_all_traders():
    grid = _grid(2)
    V = np.array([[1000.0, -500.0], [-400.0, -500.0]])
    G = np.abs(V)
    m = StateMatrix(
        traders=["a", "b"], grid=grid, V=V, G=G,
        sigma=states_from_volumes(V, G, 0.01), counts=np.zeros_like(V, dtype=np.int64),
    )
    total, signs = flow_sign_targets(m)
    assert total.tolist() == [600.0, -1000.0]
    assert signs.tolist() == [1, -1]


def test_vwap_series_and_targets():
    grid = _grid(3)
    t0, t1 = int(grid.starts[0]), int(grid.starts[1])
    trades = Trades(
        trader_ids=("a", "b"), trader=np.array([0, 1, 0], dtype=np.int32),
        timestamp=np.array([t0 + 1, t0 + 2, t1 + 1]), instruments=("X",), instrument=np.zeros(3, dtype=np.int32),
        signed_volume=np.array([100.0, -300.0, 100.0]), price=np.array([10.0, 20.0, 30.0]),
    )
    vwap = vwap_series(trades, grid)
    assert vwap[0] == pytest.approx((100 * 10 + 300 * 20) / 400)
    assert vwap[1] == 30.0
    assert np.isnan(vwap[2])
    # the sign realized at slice t is that of VWAP_t - VWAP_{t-1}
    signs = realized_vwap_signs(trades, grid)
    assert len(signs) == 3
    assert np.isnan(signs[0])
    assert signs[1] == 1.0
    assert np.isnan(signs[2])


def test_committee_votes_the_sign_of_the_summed_window_votes(monkeypatch):
    # windows of 2, 3 and 4 days recalibrated every 2 days over 10 days of 7 slices; each calibration
    # votes by a slice's position in its day, and never for the first slice of a day
    grid = _grid(70)
    zeros = np.zeros((1, 70))
    matrix = StateMatrix(["a"], grid, zeros, zeros, zeros.astype(np.int8), zeros.astype(np.int64))
    table = {2: [0, 1, 1, 1, 1, 1, 1], 3: [0, 1, 1, -1, -1, -1, -1], 4: [0, -1, -1, 0, 0, -1, -1]}
    calibration_of = {derive_seed(0, d, T): (d, T) for d in range(10) for T in table}

    def crafted(features, t1, t_end, target, forest_config, rng_seed):
        d, T = calibration_of[rng_seed]
        slices = [t for t in range(t1, t_end) if t % 7]
        votes = [table[T][t % 7] for t in slices]
        if (d, T) == (4, 2):  # the second calibration of the 2-day window overwrites day 2, the first one's
            slices += list(range(15, 21))
            votes += [-1] * 6
        return predict._Calibration(None, np.array(slices), np.array(votes))

    monkeypatch.setattr(predict, "_structure", lambda *args: {})
    monkeypatch.setattr(predict, "_calibrate", crafted)
    records, skipped = rolling_forecast(matrix, CalibrationSchedule(window_lengths=(2, 3, 4), recalibrate_every=2))
    assert skipped == [0, 1]
    by_slice = {r.slice_index: (r.per_window, r.combined) for r in records}
    assert sorted(by_slice) == list(range(14, 70))
    # day 6: every window forecasts
    assert by_slice[42] == ({2: 0, 3: 0, 4: 0}, 0)  # every window abstains
    assert by_slice[43] == ({2: 1, 3: 1, 4: -1}, 1)  # a majority
    assert by_slice[45] == ({2: 1, 3: -1, 4: 0}, 0)  # a tie, with one window voting 0
    assert by_slice[47] == ({2: 1, 3: -1, 4: -1}, -1)
    # day 2: only the 2-day window forecasts, and its later calibration's votes stand
    assert by_slice[15] == ({2: -1, 3: 0, 4: 0}, -1)
    # day 3: the 4-day window has not calibrated yet
    assert by_slice[22] == ({2: 1, 3: 1, 4: 0}, 1)
    assert by_slice[24] == ({2: 1, 3: -1, 4: 0}, 0)
    for r in records:
        assert type(r.combined) is int and all(type(v) is int for v in r.per_window.values())


def test_derive_seed_stable_and_distinct():
    assert derive_seed(3, 10, 45) == derive_seed(3, 10, 45)
    assert derive_seed(3, 10, 45) != derive_seed(3, 11, 45)
    assert derive_seed(3, 10, 45) != derive_seed(3, 10, 50)


def _planted_market(n_weekdays, seed=21):
    spec = MarketSpec(
        group_sizes=(6,) * 5,
        n_noise_traders=8,
        sync_fidelity=0.95,
        leadlag_edges=(PlantedEdge(0, 1), PlantedEdge(0, 2)),
        copy_fidelity=0.9,
        n_weekdays=n_weekdays,
        kappa=5e-4,
        seed=seed,
    )
    trades, truth = generate_market(spec)
    return trades, classify_states(trades, truth.grid)


SMALL = dict(top_n=100, min_trades=20, forest_config=ForestConfig(n_trees=25))


def test_rolling_forecast_produces_daily_records():
    trades, matrix = _planted_market(25)
    schedule = CalibrationSchedule(window_lengths=(20,))
    records, skipped = rolling_forecast(matrix, schedule, seed=1, **SMALL)
    assert len(skipped) == 20
    assert len(records) == 5 * 7
    # the second slice of each day must abstain: its feature row needs the
    # 9:00 slice whose own lag crosses the overnight gap
    by_day = {}
    for r in records:
        by_day.setdefault(matrix.grid.day_index[r.slice_index], []).append(r)
    for day, recs in by_day.items():
        assert recs[1].per_window == {20: 0}
        assert recs[1].combined == 0


def test_rolling_forecast_truncation_equivalence():
    trades, matrix = _planted_market(26)
    schedule = CalibrationSchedule(window_lengths=(20,))
    full, _ = rolling_forecast(matrix, schedule, seed=4, **SMALL)
    # truncate after day 22 and re-run: shared days must match bit-exactly
    cutoff = np.flatnonzero(matrix.grid.day_index <= 22)[-1] + 1
    trunc_m = matrix.slice_window(0, int(cutoff))
    part, _ = rolling_forecast(trunc_m, schedule, seed=4, **SMALL)
    full_by_slice = {r.slice_index: r for r in full}
    assert part  # sanity
    for r in part:
        f = full_by_slice[r.slice_index]
        assert r.per_window == f.per_window
        assert r.combined == f.combined


def test_rolling_forecast_recalibration_cadence_matches_daily():
    # the spec of the cadence: stale calibrations are reused between refreshes
    trades, matrix = _planted_market(24)
    s1 = CalibrationSchedule(window_lengths=(20,), recalibrate_every=1)
    s5 = CalibrationSchedule(window_lengths=(20,), recalibrate_every=5)
    daily, _ = rolling_forecast(matrix, s1, seed=2, **SMALL)
    sparse, _ = rolling_forecast(matrix, s5, seed=2, **SMALL)
    assert len(daily) == len(sparse)
    # first forecast day is freshly calibrated in both runs
    first_day = matrix.grid.day_index[daily[0].slice_index]
    for d, s in zip(daily, sparse):
        if matrix.grid.day_index[d.slice_index] == first_day:
            assert d.per_window == s.per_window


def test_rolling_forecast_records_are_pinned():
    # both targets, 20 trees, three forecast days; the digest was recorded
    # with the recursive forest grower, so any change to a split, a draw or a
    # vote of the forest (or to anything upstream of it) shows here
    trades, matrix = _planted_market(23)
    digest = hashlib.sha256()
    for kind in ("flow", "vwap"):
        records, _ = rolling_forecast(
            matrix, CalibrationSchedule(window_lengths=(20,)), target_kind=kind, seed=3, trades=trades,
            top_n=100, min_trades=20, forest_config=ForestConfig(n_trees=20),
        )
        assert len({matrix.grid.day_index[r.slice_index] for r in records}) == 3
        digest.update(repr(records).encode())
    assert digest.hexdigest() == "9770915e9a5b06596b150bae687d673276bd9fea92467d9635fab25f35dc2693"


def test_rolling_forecast_vwap_requires_trades():
    _, matrix = _planted_market(22)
    with pytest.raises(ValueError):
        rolling_forecast(matrix, CalibrationSchedule(window_lengths=(20,)), target_kind="vwap")
    with pytest.raises(ValueError):
        rolling_forecast(matrix, CalibrationSchedule(window_lengths=(20,)), target_kind="sharpe")


def test_schedule_validation():
    with pytest.raises(ValueError):
        CalibrationSchedule(window_lengths=(50, 45))
    with pytest.raises(ValueError):
        CalibrationSchedule(window_lengths=(45,), recalibrate_every=0)


@pytest.fixture(scope="module")
def market_40():
    return _planted_market(40)


@pytest.mark.parametrize(
    "windows, every, max_days, expected",
    [
        # offset cycles, as in the pipeline-csv workload
        ((10, 15), 10, None, "ad38409f615d50376e6cdbe55628c0f5fc98bf217a56285d8383a20cb0cd853e"),
        # the longest window never calibrates
        ((20, 22, 27), 3, 7, "c20faec6451b3765a2debeef243d5c28606ff430337345eec6b6953398d06535"),
        # max_days beyond the days left
        ((12,), 4, 100, "8b139971885aaa2c263a0d567dacc469a8d2362e232986f9653f7da42eea837e"),
        # a window longer than the market
        ((45,), 1, None, "742e146acb773023b2fda435c6645135d70289a32987119673d7252075fa07ff"),
    ],
    ids=["cycles", "cadence-max-days", "max-days-beyond-end", "window-too-long"],
)
def test_rolling_forecast_schedules_are_pinned(market_40, windows, every, max_days, expected):
    # several windows, recalibration cadences and max_days, both targets; the
    # digests were recorded with the day-by-day loop that re-aggregated the
    # group states for every forecast day
    trades, matrix = market_40
    digest = hashlib.sha256()
    for kind in ("flow", "vwap"):
        result = rolling_forecast(
            matrix, CalibrationSchedule(window_lengths=windows, recalibrate_every=every), target_kind=kind,
            seed=5, trades=trades, max_days=max_days, top_n=100, min_trades=20, forest_config=ForestConfig(n_trees=10),
        )
        digest.update(repr(result).encode())
    if windows == (45,):
        assert result == ([], list(range(40)))
    assert digest.hexdigest() == expected


@pytest.mark.parametrize("case", ["vwap-nan-slices", "vwap-abstains"])
def test_rolling_forecasts_equal_one_target_at_a_time(monkeypatch, case):
    trades, matrix = _planted_market(22)
    grid = matrix.grid
    if case == "vwap-nan-slices":
        # no trade in the fourth slice of each day: its VWAP is NaN, so are the targets of it and the next slice
        trades = trades.take(grid.slice_of(trades.timestamp) % 7 != 3)
        matrix = classify_states(trades, grid)
    else:
        # the VWAP of every third day only: under 50 finite VWAP targets per window, while flow trains on all its rows
        trades = trades.take(grid.day_index[grid.slice_of(trades.timestamp)] % 3 == 1)
    schedule = CalibrationSchedule(window_lengths=(15, 17), recalibrate_every=2)
    kw = dict(seed=6, trades=trades, **SMALL)
    structures = []
    real_structure = predict._structure
    monkeypatch.setattr(predict, "_structure", lambda *args: structures.append(args) or real_structure(*args))
    both = rolling_forecasts(matrix, schedule, ("flow", "vwap"), **kw)
    # one structure per (day, window) calibration: days 15, 17, 19, 21 of the 15-day window, 17, 19, 21 of the other
    assert len(structures) == 7
    for kind in ("flow", "vwap"):
        alone = rolling_forecast(matrix, schedule, target_kind=kind, **kw)
        assert both[kind] == alone and repr(both[kind]) == repr(alone), kind
    assert len(structures) == 7 * 3
    records = {kind: records for kind, (records, _) in both.items()}
    assert any(r.combined != 0 for r in records["flow"])
    if case == "vwap-nan-slices":
        assert any(r.realized_vwap_sign is None for r in records["vwap"])
        assert any(r.combined != 0 for r in records["vwap"])
    else:
        assert all(r.combined == 0 for r in records["vwap"])


def test_rolling_forecasts_refuse_unknown_or_missing_targets():
    trades, matrix = _planted_market(22)
    schedule = CalibrationSchedule(window_lengths=(20,))
    for kinds in ((), ("flow", "sharpe")):
        with pytest.raises(ValueError):
            rolling_forecasts(matrix, schedule, kinds, trades=trades)
    with pytest.raises(ValueError, match="trade list"):
        rolling_forecasts(matrix, schedule, ("flow", "vwap"))
