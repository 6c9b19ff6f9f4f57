"""Rolling out-of-sample forecasting of flow sign and VWAP direction.

Every ``recalibrate_every`` trading days (daily by default) the forecast
re-clusters traders on each trailing calibration window (SVN then community
detection), trains one forest per target on the group-state predictor matrix,
and predicts every predictable session hour of the days until that window's
next recalibration.  The per-window predictions of each slice are combined by
majority vote: the sign of their sum, with 0 for an abstention.  Nothing that
postdates a prediction slice ever enters its inputs.
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
    window_lengths: tuple[int, ...] = DEFAULT_WINDOWS
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
    rows whose lags cross a session gap (``grid.contiguous_with_previous``, as
    in ``leadlag``) are dropped.  Returns ``(X, rows)``, ``rows`` the slice
    indices of the retained rows.
    """
    if lag_depth < 1:
        raise ValueError("lag_depth must be >= 1")
    n_groups, T = sigma.shape
    if T < lag_depth + 1:
        raise ValueError(f"window of {T} slices is shorter than lag_depth+1={lag_depth + 1}")
    t = np.arange(T)
    # slices since the last one that does not follow its predecessor (slice 0 never does)
    since_gap = t - np.maximum.accumulate(np.where(grid.contiguous_with_previous(), 0, t))
    rows = np.flatnonzero(since_gap >= lag_depth)
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


def realized_vwap_signs(trades, grid) -> np.ndarray:
    """sign[t] = sign(VWAP_t - VWAP_{t-1}), the VWAP direction realized at slice t.

    NaN at slice 0 and wherever either VWAP is NaN; such rows are not trained on.
    """
    return np.sign(np.diff(vwap_series(trades, grid), prepend=np.nan))


def derive_seed(seed: int, day: int, window: int) -> int:
    """Stable per-(day, window) seed; independent of data extent."""
    digest = hashlib.sha256(f"{seed}:{day}:{window}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class _Calibration:
    model: object | None
    slices: np.ndarray  # the slices this calibration forecasts
    votes: np.ndarray  # the class predicted for each of them


def _structure(window: StateMatrix, top_n: int, min_trades: int, p0: float, seed: int):
    """Infer the trader groups of one window: activity filter, SVN, communities.

    Returns the mapping trader -> group of the active traders that received a
    group; a window with fewer than two active traders gives ``{}``.
    """
    active = filter_active(window, top_n, min_trades)
    if active.n_traders < 2:
        return {}
    return detect_communities(project_weighted(build_svn(active, FdrConfig(p0))), seed=seed)


def _features(matrix, t0, t_end, partition, rho0, lag_depth):
    """``(X, predicts)``: the predictor rows of slices [t0, t_end) and the slice each row predicts.

    The group states are aggregated once over [t0, t_end): a state reads only
    its own slice and a feature row only its slice and lags, so the rows whose
    target slice precedes t1 are the ones a window ending at t1 would give.
    Row t predicts slice t+1; rows whose lags cross a session gap yield no
    prediction (abstention).
    """
    ext = matrix.slice_window(t0, t_end)
    X, rows = build_predictors(aggregate_groups(ext, partition, rho0).sigma, ext.grid, lag_depth)
    return X, rows + t0 + 1


def _calibrate(features, t1, t_end, target, forest_config, rng_seed):
    """Train one target's forest on the rows predicting slices before t1, then predict every slice of [t1, t_end).

    ``features`` is ``_features``'s ``(X, predicts)``, or None for a window
    without groups.  Rows whose target is NaN are not trained on, so each
    target has its own training rows.
    """
    no_votes = np.zeros(0, dtype=np.int64)
    if features is None:
        return _Calibration(None, no_votes, no_votes)
    X, predicts = features
    train = predicts < t1
    y = target[predicts[train]]
    finite = ~np.isnan(y)
    X_train, y = X[train][finite], y[finite].astype(np.int64)
    if len(X_train) < MIN_TRAIN_ROWS:
        return _Calibration(None, no_votes, no_votes)
    model = train_forest(X_train, y, forest_config, seed=rng_seed)
    ahead = ~train & (predicts < t_end)
    return _Calibration(model, predicts[ahead], forest_predict_batch(model, X[ahead]))


def rolling_forecasts(
    matrix: StateMatrix,
    schedule: CalibrationSchedule = CalibrationSchedule(),
    target_kinds: tuple = ("flow",),
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
    """Run the rolling forecast of several targets, recalibrating every ``schedule.recalibrate_every`` days.

    Each (day, window) calibration infers its trader groups and predictor
    rows once, then trains one forest per target with the same seed, so a
    target's records equal those of a ``rolling_forecast`` of that target
    alone.  ``target_kinds`` names the targets, ``"flow"`` (the sign of the
    net volume) and ``"vwap"`` (the direction of the VWAP, which needs
    ``trades``).  Returns ``{kind: (records, skipped_days)}``: one record per
    slice of each forecast day, and the days before the shortest window fits.
    ``matrix`` must cover the full population (targets sum over all traders);
    per-window feature sets use the activity-filtered traders of each
    calibration window.
    """
    if not target_kinds:
        raise ValueError("at least one target kind is required")
    for kind in target_kinds:
        if kind not in ("flow", "vwap"):
            raise ValueError(f"unknown target kind {kind!r}")
    if "vwap" in target_kinds and trades is None:
        raise ValueError("vwap targets require the trade list")
    total_flow, flow_signs = flow_sign_targets(matrix)
    vwap_signs = None if trades is None else realized_vwap_signs(trades, matrix.grid)
    targets = {kind: flow_signs.astype(np.float64) if kind == "flow" else vwap_signs for kind in target_kinds}

    b = matrix.grid.day_bounds()  # day d is slices [b[d], b[d + 1])
    windows = schedule.window_lengths
    first_day = min(windows)  # the first day a window fits
    last_day = len(b) - 1 if max_days is None else min(len(b) - 1, first_day + max_days)
    every = schedule.recalibrate_every
    # votes[kind][w, t]: the class window w predicts for slice t; 0 is an abstention
    votes = {kind: np.zeros((len(windows), matrix.n_slices), dtype=np.int64) for kind in targets}
    for w, T_in in enumerate(windows):
        for d in range(T_in, last_day, every):
            t0, t1, t_end = b[d - T_in], b[d], b[min(d + every, last_day)]
            rng_seed = derive_seed(seed, d, T_in)
            partition = _structure(matrix.slice_window(t0, t1), top_n, min_trades, p0, rng_seed)
            features = _features(matrix, t0, t_end, partition, rho0, lag_depth) if partition else None
            for kind, target in targets.items():
                cal = _calibrate(features, t1, t_end, target, forest_config, rng_seed)
                votes[kind][w, cal.slices] = cal.votes
    forecast = np.arange(b[min(first_day, last_day)], b[last_day])
    ends = matrix.grid.ends
    results = {}
    for kind, v in votes.items():
        v = v[:, forecast]
        # the committee: the sign of the summed votes, so abstentions do not count and an exact tie gives 0
        combined = np.sign(v.sum(axis=0))
        records = [
            ForecastRecord(
                slice_index=t,
                slice_end=int(ends[t]),
                per_window=dict(zip(windows, per_window)),
                combined=c,
                realized_sign=int(flow_signs[t]),
                realized_flow=float(total_flow[t]),
                realized_vwap_sign=None if vwap_signs is None or np.isnan(vwap_signs[t]) else int(vwap_signs[t]),
            )
            for t, per_window, c in zip(forecast.tolist(), v.T.tolist(), combined.tolist())
        ]
        results[kind] = (records, list(range(min(first_day, len(b) - 1))))
    return results


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
    """Run the rolling forecast of one target: ``rolling_forecasts`` with ``target_kinds=(target_kind,)``.

    Returns ``(records, skipped_days)``.  To forecast both targets, call
    ``rolling_forecasts`` once: it infers each calibration's groups once for both.
    """
    return rolling_forecasts(matrix, schedule, (target_kind,), seed, trades, rho0, p0, top_n, min_trades, lag_depth,
                             forest_config, max_days)[target_kind]
