"""Rolling out-of-sample forecasting of flow sign and VWAP direction.

Every trading day the pipeline re-clusters traders on each trailing
calibration window (SVN then community detection), trains a forest on the
group-state predictor matrix, predicts every predictable session hour of the
next day, and combines the per-window predictions by majority vote.  Nothing
that postdates a prediction slice ever enters its inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .community import detect_communities, project_weighted
from .ingest import StateMatrix, filter_active
from .leadlag import aggregate_groups
from .learn import ForestConfig, forest_predict_batch, train_forest
from .svn import FdrConfig, build_svn

DEFAULT_WINDOWS = tuple(range(45, 91, 5))


@dataclass(frozen=True)
class CalibrationSchedule:
    window_lengths: tuple = DEFAULT_WINDOWS
    recalibrate_every: int = 1  # in trading days

    def __post_init__(self):
        if list(self.window_lengths) != sorted(set(self.window_lengths)):
            raise ValueError("window lengths must be strictly increasing")
        if self.recalibrate_every < 1:
            raise ValueError("recalibration cadence must be >= 1 day")


@dataclass
class ForecastRecord:
    slice_index: int
    slice_end: int  # epoch ms
    per_window: dict  # T_in -> predicted class (0 = abstention)
    combined: int
    realized_sign: int
    realized_flow: float
    realized_vwap_sign: int | None


def build_predictors(sigma: np.ndarray, grid, lag_depth: int = 1):
    """Assemble the predictor matrix from group state series.

    Row t is (sigma_{1,t}, ..., sigma_{N,t}, sigma_{1,t-1}, ..., hour(t));
    rows whose lags cross a session gap are dropped.  Returns ``(X, rows)``
    with ``rows`` the slice indices of the retained rows.
    """
    if lag_depth < 1:
        raise ValueError("lag_depth must be >= 1")
    n_groups, T = sigma.shape
    if T < lag_depth + 1:
        raise ValueError(f"window of {T} slices is shorter than lag_depth+1={lag_depth + 1}")
    valid = np.ones(T, dtype=bool)
    valid[:lag_depth] = False
    for ell in range(1, lag_depth + 1):
        same_day = np.zeros(T, dtype=bool)
        same_day[ell:] = grid.day_index[ell:] == grid.day_index[:-ell]
        valid &= same_day
    rows = np.flatnonzero(valid)
    blocks = [sigma[:, rows].T]
    for ell in range(1, lag_depth + 1):
        blocks.append(sigma[:, rows - ell].T)
    blocks.append(grid.local_hour[rows][:, None])
    X = np.hstack([np.asarray(b, dtype=np.int64) for b in blocks])
    return X, rows


def flow_sign_targets(matrix: StateMatrix) -> np.ndarray:
    """Per-slice sign of the total net volume over all traders."""
    total = matrix.V.sum(axis=0)
    return np.sign(total).astype(np.int64)


def vwap_series(trades, grid) -> np.ndarray:
    """Per-slice VWAP of all client trades; NaN where the slice is empty."""
    T = len(grid)
    notional = np.zeros(T)
    gross = np.zeros(T)
    if trades and T:
        ts = np.array([tr.timestamp for tr in trades], dtype=np.int64)
        vol = np.abs(np.array([tr.signed_volume for tr in trades]))
        px = np.array([tr.price for tr in trades])
        pos = np.searchsorted(grid.starts, ts, side="right") - 1
        ok = (pos >= 0) & (ts < grid.ends[np.clip(pos, 0, T - 1)])
        np.add.at(notional, pos[ok], (px * vol)[ok])
        np.add.at(gross, pos[ok], vol[ok])
    out = np.full(T, np.nan)
    nz = gross > 0
    out[nz] = notional[nz] / gross[nz]
    return out


def vwap_change_targets(trades, grid) -> np.ndarray:
    """target[t] = sign(VWAP_{t+1} - VWAP_t); NaN rows are skipped downstream."""
    vwap = vwap_series(trades, grid)
    T = len(grid)
    out = np.full(T, np.nan)
    if T > 1:
        d = vwap[1:] - vwap[:-1]
        out[:-1] = np.sign(d)
    return out


def majority_vote(votes) -> int:
    """Majority over the -1/+1 votes; 0-votes abstain; exact tie -> 0."""
    votes = list(votes)
    if not votes:
        raise ValueError("need at least one vote")
    plus = sum(1 for v in votes if v == 1)
    minus = sum(1 for v in votes if v == -1)
    if plus > minus:
        return 1
    if minus > plus:
        return -1
    return 0


def derive_seed(seed: int, day: int, window: int) -> int:
    """Stable per-(day, window) seed; independent of data extent."""
    digest = hashlib.sha256(f"{seed}:{day}:{window}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class _Calibration:
    partition: dict | None
    trader_ids: list
    model: object | None
    n_groups: int


def _structure(window: StateMatrix, top_n: int, min_trades: int, p0: float, seed: int):
    """Infer the trader groups of one window: activity filter, SVN, communities.

    Returns ``(grouped, partition)``: the active traders that received a
    group, in id order, and the mapping trader -> group.  A window with fewer
    than two active traders gives ``(None, {})``.
    """
    active = filter_active(window, top_n, min_trades)
    if active.n_traders < 2:
        return None, {}
    net = build_svn(active, FdrConfig(p0))
    partition = detect_communities(project_weighted(net), seed=seed)
    return active.select_traders(sorted(partition, key=str)), partition


def _calibrate(matrix, t0, t1, target, cfg, rng_seed):
    window = matrix.slice_window(t0, t1)
    grouped, partition = _structure(window, cfg["top_n"], cfg["min_trades"], cfg["p0"], rng_seed)
    if not partition:
        return _Calibration(None, [], None, 0)
    series = aggregate_groups(grouped, partition, cfg["rho0"])
    X, rows = build_predictors(series.sigma, window.grid, cfg["lag_depth"])
    target_window = target[t0:t1]
    y_rows = rows + 1  # row t predicts slice t+1
    ok = y_rows < (t1 - t0)
    y = target_window[y_rows[ok]]
    X = X[ok]
    finite = ~np.isnan(np.asarray(y, dtype=np.float64))
    X, y = X[finite], np.asarray(y)[finite].astype(np.int64)
    if len(X) < 50:
        return _Calibration(partition, list(grouped.traders), None, series.n_groups)
    model = train_forest(X, y, cfg["forest"], seed=rng_seed)
    return _Calibration(partition, list(grouped.traders), model, series.n_groups)


def rolling_forecast(
    matrix: StateMatrix,
    schedule: CalibrationSchedule = CalibrationSchedule(),
    target_kind: str = "flow",
    seed: int = 0,
    trades=None,
    rho0: float = 0.01,
    p0: float = 0.05,
    top_n: int = 500,
    min_trades: int = 100,
    lag_depth: int = 1,
    forest_config: ForestConfig = ForestConfig(),
    max_days: int | None = None,
):
    """Run the daily-recalibrated rolling forecast.

    Returns ``(records, skipped_days)``.  ``matrix`` must cover the full
    population (targets sum over all traders); per-window feature sets use
    the activity-filtered traders of each calibration window.
    """
    if target_kind not in ("flow", "vwap"):
        raise ValueError(f"unknown target kind {target_kind!r}")
    if target_kind == "vwap" and trades is None:
        raise ValueError("vwap targets require the trade list")
    flow_signs = flow_sign_targets(matrix)
    total_flow = matrix.V.sum(axis=0)
    vwap_signs = vwap_change_targets(trades, matrix.grid) if trades is not None else None
    if target_kind == "flow":
        target = flow_signs.astype(np.float64)
    else:
        # realign so target[t] is the value realized AT slice t: the VWAP
        # change from slice t-1 to t (vwap_change_targets[t] looks ahead)
        target = np.concatenate(([np.nan], vwap_signs[:-1]))

    cfg = {
        "rho0": rho0,
        "p0": p0,
        "top_n": top_n,
        "min_trades": min_trades,
        "lag_depth": lag_depth,
        "forest": forest_config,
    }
    days = matrix.grid.day_slices()
    records, skipped = [], []
    cache = {}
    n_forecast_days = 0
    for d in range(len(days)):
        feasible = [w for w in schedule.window_lengths if w <= d]
        if not feasible:
            skipped.append(d)
            continue
        if max_days is not None and n_forecast_days >= max_days:
            break
        n_forecast_days += 1
        day_rows = days[d]
        per_slice_votes = {int(t): {} for t in day_rows}
        for T_in in feasible:
            key = T_in
            stale = key not in cache or (d - cache[key][0]) >= schedule.recalibrate_every
            if stale:
                t1 = int(days[d - 1][-1]) + 1
                t0 = int(days[d - T_in][0])
                cal = _calibrate(matrix, t0, t1, target, cfg, derive_seed(seed, d, T_in))
                cache[key] = (d, cal, t0)
            _, cal, t0 = cache[key]
            preds = _predict_day(matrix, cal, cfg, t0, day_rows)
            for t, p in preds.items():
                per_slice_votes[t][T_in] = p
        for t in day_rows:
            t = int(t)
            votes = per_slice_votes[t]
            combined = majority_vote(votes.values()) if votes else 0
            v_sign = vwap_signs[t - 1] if (vwap_signs is not None and t >= 1) else np.nan
            records.append(
                ForecastRecord(
                    slice_index=t,
                    slice_end=int(matrix.grid.ends[t]),
                    per_window={w: votes.get(w, 0) for w in schedule.window_lengths},
                    combined=combined,
                    realized_sign=int(flow_signs[t]),
                    realized_flow=float(total_flow[t]),
                    realized_vwap_sign=None if (v_sign is None or np.isnan(v_sign)) else int(v_sign),
                )
            )
    return records, skipped


def _predict_day(matrix, cal: _Calibration, cfg, t0: int, day_rows):
    """Predict each slice of the day from the frozen calibration.

    The prediction for slice u comes from the feature row at slice u-1; rows
    whose lags cross a session gap yield no prediction (abstention).
    """
    if cal.model is None or not cal.partition:
        return {}
    t_end = int(day_rows[-1]) + 1
    ext = matrix.slice_window(t0, t_end).select_traders(cal.trader_ids)
    series = aggregate_groups(ext, cal.partition, cfg["rho0"])
    X, rows = build_predictors(series.sigma, ext.grid, cfg["lag_depth"])
    rows_global = rows + t0
    day_set = {int(t) for t in day_rows}
    wanted = np.array([k for k, r in enumerate(rows_global) if int(r) + 1 in day_set], dtype=np.intp)
    if len(wanted) == 0:
        return {}
    preds = forest_predict_batch(cal.model, X[wanted])
    return {int(rows_global[k]) + 1: int(p) for k, p in zip(wanted, preds)}
