"""Statistically validated trader networks and order-flow forecasting.

Pipeline: parse trades into hourly trader states, validate synchronous and
lead-lag co-activity networks against a hypergeometric null with FDR
control, detect trader groups by map-equation community detection, track
their stability, and forecast next-hour aggregate flow sign and VWAP
direction with a daily-recalibrated random forest committee.
"""

from .community import detect_communities, map_equation_codelength, project_weighted
from .evaluate import (
    TestResult,
    chou_chu_test,
    forecast_report,
    hourly_condition,
    location_tests,
    performance_series,
    roc_auc,
)
from .ingest import (
    StateMatrix,
    TailFit,
    TimeGrid,
    Trades,
    build_grid,
    classify_states,
    filter_active,
    fit_tail_exponent,
)
from .io import parse_trades
from .leadlag import aggregate_groups, build_leadlag, expand_trader_leadlag
from .learn import (
    ForestConfig,
    forest_predict_batch,
    forest_votes,
    permutation_importance,
    train_forest,
    train_logistic,
)
from .predict import CalibrationSchedule, ForecastRecord, rolling_forecast, rolling_forecasts
from .stability import adjusted_rand_index, leadlag_overlap_beta, relabel_partition
from .svn import FdrConfig, ValidatedNetwork, bh_fdr, build_svn, hypergeom_sf
from .synth import MarketSpec, PlantedEdge, generate_market

__version__ = "0.1.0"

__all__ = [
    "StateMatrix",
    "TailFit",
    "TimeGrid",
    "Trades",
    "build_grid",
    "classify_states",
    "filter_active",
    "fit_tail_exponent",
    "parse_trades",
    "FdrConfig",
    "ValidatedNetwork",
    "bh_fdr",
    "build_svn",
    "hypergeom_sf",
    "detect_communities",
    "map_equation_codelength",
    "project_weighted",
    "aggregate_groups",
    "build_leadlag",
    "expand_trader_leadlag",
    "adjusted_rand_index",
    "leadlag_overlap_beta",
    "relabel_partition",
    "ForestConfig",
    "forest_predict_batch",
    "forest_votes",
    "permutation_importance",
    "train_forest",
    "train_logistic",
    "CalibrationSchedule",
    "ForecastRecord",
    "rolling_forecast",
    "rolling_forecasts",
    "TestResult",
    "chou_chu_test",
    "forecast_report",
    "hourly_condition",
    "location_tests",
    "performance_series",
    "roc_auc",
    "MarketSpec",
    "PlantedEdge",
    "generate_market",
]
