"""Rolling out-of-sample forecasting of flow sign and VWAP direction.

Every ``recalibrate_every`` trading days (daily by default) the forecast
re-clusters traders on each trailing calibration window (SVN then community
detection), trains a forest on the group-state predictor matrix, and predicts
every predictable session hour of the days until that window's next
recalibration.  The per-window predictions of each slice are combined by
majority vote.  Nothing that postdates a prediction slice ever enters its
inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .community import detect_communities, project_weighted
from .ingest import StateMatrix, filter_active
from .leadlag import aggregate_groups
from .learn import MIN_TRAIN_ROWS, ForestConfig, forest_predict_batch, train_forest
from .svn import FdrConfig, build_svn

DEFAULT_WINDOWS = tuple(range(45, 91, 5))


@dataclass(frozen=True)
class CalibrationSchedule:
    window_lengths: tuple = DEFAULT_WINDOWS
    recalibrate_every: int = 1  # in trading days

    def __post_init__(self):
        if not self.window_lengths:
            raise ValueError("at least one window length is required")
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


def flow_sign_targets(matrix: StateMatrix):
    """``(total, sign)``: per slice, the net volume summed over all traders and its sign."""
    total = matrix.V.sum(axis=0)
    return total, np.sign(total).astype(np.int64)


def vwap_series(trades, grid) -> np.ndarray:
    """Per-slice VWAP of all client trades; NaN where the slice is empty."""
    T = len(grid)
    notional = np.zeros(T)
    gross = np.zeros(T)
    pos = grid.slice_of(trades.timestamp)
    ok = pos >= 0
    vol = np.abs(trades.signed_volume)
    np.add.at(notional, pos[ok], (trades.price * vol)[ok])
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
    model: object | None
    votes: dict  # slice index -> predicted class, for the slices this calibration forecasts


def _structure(window: StateMatrix, top_n: int, min_trades: int, p0: float, seed: int):
    """Infer the trader groups of one window: activity filter, SVN, communities.

    Returns the mapping trader -> group of the active traders that received a
    group; a window with fewer than two active traders gives ``{}``.
    """
    active = filter_active(window, top_n, min_trades)
    if active.n_traders < 2:
        return {}
    return detect_communities(project_weighted(build_svn(active, FdrConfig(p0))), seed=seed)


def _calibrate(matrix, t0, t1, t_end, target, cfg, rng_seed):
    """Calibrate on slices [t0, t1), then predict every slice of [t1, t_end).

    The group states are aggregated once over [t0, t_end): a state reads only
    its own slice and a feature row only its slice and lags, so the training
    rows (those whose target slice precedes t1) are the ones a window ending
    at t1 would give.  The prediction for slice u comes from the feature row
    at slice u-1; rows whose lags cross a session gap yield no prediction
    (abstention).
    """
    partition = _structure(matrix.slice_window(t0, t1), cfg["top_n"], cfg["min_trades"], cfg["p0"], rng_seed)
    if not partition:
        return _Calibration(None, {})
    ext = matrix.slice_window(t0, t_end)
    series = aggregate_groups(ext, partition, cfg["rho0"])
    X, rows = build_predictors(series.sigma, ext.grid, cfg["lag_depth"])
    predicts = rows + t0 + 1  # row t predicts slice t+1
    train = predicts < t1
    y = target[predicts[train]]
    finite = ~np.isnan(y)
    X_train, y = X[train][finite], y[finite].astype(np.int64)
    if len(X_train) < MIN_TRAIN_ROWS:
        return _Calibration(None, {})
    model = train_forest(X_train, y, cfg["forest"], seed=rng_seed)
    ahead = ~train & (predicts < t_end)
    preds = forest_predict_batch(model, X[ahead])
    return _Calibration(model, dict(zip(predicts[ahead].tolist(), preds.tolist())))


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
    """Run the rolling forecast, recalibrating every ``schedule.recalibrate_every`` days.

    Returns ``(records, skipped_days)``: one record per slice of each
    forecast day, and the days before the shortest window fits.  ``matrix``
    must cover the full population (targets sum over all traders);
    per-window feature sets use the activity-filtered traders of each
    calibration window.
    """
    if target_kind not in ("flow", "vwap"):
        raise ValueError(f"unknown target kind {target_kind!r}")
    if target_kind == "vwap" and trades is None:
        raise ValueError("vwap targets require the trade list")
    total_flow, flow_signs = flow_sign_targets(matrix)
    # vwap_signs[t] is the value realized AT slice t: the VWAP change from
    # slice t-1 to t (vwap_change_targets[t] looks ahead)
    vwap_signs = None if trades is None else np.concatenate(([np.nan], vwap_change_targets(trades, matrix.grid)[:-1]))
    target = flow_signs.astype(np.float64) if target_kind == "flow" else vwap_signs

    cfg = {
        "rho0": rho0,
        "p0": p0,
        "top_n": top_n,
        "min_trades": min_trades,
        "lag_depth": lag_depth,
        "forest": forest_config,
    }
    days = matrix.grid.day_slices()
    first_day = min(schedule.window_lengths)  # the first day a window fits
    last_day = len(days) if max_days is None else min(len(days), first_day + max_days)
    every = schedule.recalibrate_every
    votes = {}  # slice index -> {T_in: predicted class}
    for T_in in schedule.window_lengths:
        for d in range(T_in, last_day, every):
            t0, t1 = int(days[d - T_in][0]), int(days[d][0])
            t_end = int(days[min(d + every, last_day) - 1][-1]) + 1
            cal = _calibrate(matrix, t0, t1, t_end, target, cfg, derive_seed(seed, d, T_in))
            for t, p in cal.votes.items():
                votes.setdefault(t, {})[T_in] = p
    records = []
    for d in range(first_day, last_day):
        for t in days[d].tolist():
            slice_votes = votes.get(t, {})
            v_sign = np.nan if vwap_signs is None else vwap_signs[t]
            records.append(
                ForecastRecord(
                    slice_index=t,
                    slice_end=int(matrix.grid.ends[t]),
                    per_window={w: slice_votes.get(w, 0) for w in schedule.window_lengths},
                    combined=majority_vote(slice_votes.values()) if slice_votes else 0,
                    realized_sign=int(flow_signs[t]),
                    realized_flow=float(total_flow[t]),
                    realized_vwap_sign=None if np.isnan(v_sign) else int(v_sign),
                )
            )
    return records, list(range(min(first_day, len(days))))
