"""Command-line pipeline: config, artifacts and dispatch over the library.

Subcommands: synth, ingest, svn, communities, leadlag, stability, forecast,
evaluate, pipeline; every one takes ``--config`` and ``--out``.
``<stage>_stage(cfg, inputs, out)`` calls the library, writes a stage's
artifacts and returns what the next stage needs; ``cmd_<stage>`` reads its
inputs from upstream artifacts, while ``pipeline`` chains the stage functions
in memory: it writes the artifacts the stages would and reads none back but
``forecasts_*.csv``.  The statistics of ``report.json`` come from
``evaluate.forecast_report``.  A single YAML config file (flat key-value)
carries all parameters and is checked at load (``RunConfig.validate``);
defaults follow the reference setup (1h slices, rho0=0.01, p0=0.05, top 500
traders, >=100 trades, windows 45..90 step 5, 09:00-16:00 London session).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np
import yaml

from . import evaluate as ev
from . import io as tfio
from .community import detect_communities, map_equation_codelength, project_weighted
from .ingest import (
    TailFitError,
    build_grid,
    classify_states,
    filter_active,
    fit_tail_exponent,
    trade_size_histogram,
)
from .io import parse_trades
from .leadlag import LEADLAG_EDGE, LeadLagNetwork, aggregate_groups, build_leadlag, expand_trader_leadlag
from .learn import ForestConfig
from .predict import DEFAULT_WINDOWS, CalibrationSchedule, _structure, rolling_forecasts
from .stability import adjusted_rand_index, export_river, leadlag_overlap_beta, relabel_partition
from .svn import MIN_WINDOW_SLICES, FdrConfig, ValidatedNetwork, build_svn
from .synth import MarketSpec, PlantedEdge, check_fields, generate_market


def _fields_of(cls, data, scope="", own=()) -> dict:
    """The YAML mapping ``data`` as keyword arguments of the dataclass ``cls``: lists become tuples, and
    keys that are not fields of ``cls``, or that the caller sets itself (``own``), are refused.  Every
    other value is left for `check_fields` to refuse."""
    unknown = set(data) - ({f.name for f in dataclasses.fields(cls)} - set(own))
    if unknown:
        raise ValueError(f"unknown {scope}keys {sorted(unknown)}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}


@dataclass
class RunConfig:
    instrument: str = ""
    slice_minutes: int = 60
    session_start: str = "09:00"
    session_end: str = "16:00"
    timezone: str = "Europe/London"
    include_weekends: bool = False
    start_date: str | date = ""  # YAML reads an unquoted date as a date
    end_date: str | date = ""
    rho0: float = 0.01
    p0: float = 0.05
    top_n: int = 500
    min_trades: int = 100
    window_lengths: tuple[int, ...] = DEFAULT_WINDOWS
    lag_depth: int = 1
    recalibrate_every: int = 1
    n_trees: int = 500
    min_node_size: int = 5
    seed: int = 0
    histogram_bin: float = 1000.0
    stability_window: int = 45
    stability_step: int = 5
    market: dict = field(default_factory=dict)

    def validate(self):
        """Refuse, as ``ValueError``, values that would crash, hang or silently corrupt a run."""
        check_fields(self)
        if not 0.01 <= self.rho0 <= 0.1:
            raise ValueError(f"rho0 must lie in [0.01, 0.1], got {self.rho0}")
        if self.top_n < 1 or self.min_trades < 0:
            raise ValueError("top_n must be >= 1 and min_trades >= 0")
        for key in ("lag_depth", "histogram_bin", "stability_window", "stability_step"):
            if getattr(self, key) <= 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        if bool(self.start_date) != bool(self.end_date):
            raise ValueError("start_date and end_date must be set together")
        try:
            ZoneInfo(self.timezone)
        except ZoneInfoNotFoundError:  # a KeyError, which load would not turn into a config error
            raise ValueError(f"unknown timezone {self.timezone!r}") from None
        FdrConfig(self.p0)
        self.schedule()
        self.forest()
        self.market_spec().validate()
        for day in (self.start_date, self.end_date):
            if day:
                datetime.fromisoformat(str(day))  # YAML reads an unquoted date as a date
        per_day = len(build_grid(  # a Monday: one trading day
            "2000-01-03", "2000-01-04", timedelta(minutes=self.slice_minutes),
            time.fromisoformat(self.session_start), time.fromisoformat(self.session_end),
        ))
        for key, days in [("window_lengths", w) for w in self.window_lengths] + [("stability_window", self.stability_window)]:
            if days * per_day < MIN_WINDOW_SLICES:
                raise ValueError(f"{key} of {days} days is {days * per_day} slices; need at least {MIN_WINDOW_SLICES}")
        return self

    @classmethod
    def load(cls, path, overrides=None):
        try:
            data = (yaml.safe_load(Path(path).read_text()) or {}) if path else {}
            if not isinstance(data, dict):
                raise ValueError(f"a config must map keys to values, got {data!r}")
            cfg = cls(**_fields_of(cls, data))
            for k, v in (overrides or {}).items():
                if v is not None:
                    setattr(cfg, k, v)
            return cfg.validate()
        except (yaml.YAMLError, ValueError, TypeError) as exc:
            raise SystemExit(f"config error: {exc}") from None

    def forest(self) -> ForestConfig:
        return ForestConfig(n_trees=self.n_trees, min_node_size=self.min_node_size)

    def schedule(self) -> CalibrationSchedule:
        return CalibrationSchedule(
            window_lengths=tuple(self.window_lengths), recalibrate_every=self.recalibrate_every
        )

    def market_spec(self) -> MarketSpec:
        m = _fields_of(MarketSpec, self.market, "market ", own={"seed"})  # the run's seed seeds the market
        if isinstance(m.get("leadlag_edges"), tuple):
            m["leadlag_edges"] = tuple(
                PlantedEdge(**_fields_of(PlantedEdge, e, "leadlag_edges ")) if isinstance(e, dict) else e
                for e in m["leadlag_edges"]
            )
        return MarketSpec(**m, seed=self.seed)

    def config_hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _load_trades(path, instrument=""):
    with open(path, newline="") as fh:
        trades, rejects = parse_trades(fh)
    if instrument:
        code = trades.instruments.index(instrument) if instrument in trades.instruments else -1
        trades = trades.take(trades.instrument == code)
    return trades, rejects


def _grid_from(cfg: RunConfig, trades):
    if cfg.start_date:  # validate() refuses one date without the other
        start, end = str(cfg.start_date), str(cfg.end_date)  # YAML reads an unquoted date as a date
    else:
        if not len(trades):
            raise SystemExit("no trades and no explicit start/end dates in config")
        zone = ZoneInfo(cfg.timezone)
        t0 = datetime.fromtimestamp(int(trades.timestamp[0]) / 1000, tz=zone).date()
        t1 = datetime.fromtimestamp(int(trades.timestamp[-1]) / 1000, tz=zone).date() + timedelta(days=1)
        start, end = t0.isoformat(), t1.isoformat()
    return build_grid(
        start,
        end,
        slice_duration=timedelta(minutes=cfg.slice_minutes),
        session_start=time.fromisoformat(cfg.session_start),
        session_end=time.fromisoformat(cfg.session_end),
        tz=cfg.timezone,
        include_weekends=cfg.include_weekends,
    )


def cmd_synth(args):
    trades, truth = generate_market(RunConfig.load(args.config, {"seed": args.seed}).market_spec())
    out = Path(args.out)
    tfio.write_trades(out / "trades.csv", trades)
    tfio.write_json(out / "ground_truth.json", {
        "partition": truth.partition,
        "leadlag_edges": [list(e) for e in truth.leadlag_edges],
        "intended_states": truth.intended_states.tolist(),
    })
    print(f"synth: {len(trades)} trades over {truth.grid.n_days} days -> {out}")
    return 0


def ingest_stage(cfg: RunConfig, trades, rejects, out: Path):
    matrix = classify_states(trades, _grid_from(cfg, trades), cfg.rho0)
    tfio.write_state_matrix(out, matrix)
    if rejects:
        tfio.write_rows(out / "rejects.csv", ["line_no", "reason", "raw"],
                        [(r.line_no, r.reason, r.raw) for r in rejects])
    hist = trade_size_histogram(trades, cfg.histogram_bin)
    tfio.write_rows(out / "size_histogram.csv", ["bin_left", "count", "tail_count"], hist)
    counts = matrix.trade_counts
    summary = {"n_traders": matrix.n_traders, "n_slices": matrix.n_slices, "n_rejects": len(rejects)}
    try:
        summary["tail_fit"] = fit_tail_exponent(counts[counts > 0])
    except TailFitError as exc:
        summary["tail_fit"] = None
        summary["tail_fit_note"] = str(exc)
    tfio.write_json(out / "ingest_summary.json", summary)
    print(f"ingest: {matrix.n_traders} traders x {matrix.n_slices} slices -> {out}")
    return matrix


def cmd_ingest(args):
    cfg = RunConfig.load(args.config)
    ingest_stage(cfg, *_load_trades(args.trades, cfg.instrument), Path(args.out))
    return 0


def _require(path, stage):
    if not Path(path).exists():
        raise SystemExit(f"missing upstream artifact {path}: run the '{stage}' stage first")
    return path


def svn_stage(cfg: RunConfig, matrix, out: Path) -> ValidatedNetwork:
    net = build_svn(filter_active(matrix, cfg.top_n, cfg.min_trades), FdrConfig(cfg.p0))
    tfio.write_svn(out, net)
    print(f"svn: {len(net.edges)} validated edges over {len(net.nodes)} traders -> {out}")
    return net


def cmd_svn(args):
    svn_stage(RunConfig.load(args.config), tfio.read_state_matrix(_require(args.states, "ingest")), Path(args.out))
    return 0


def communities_stage(cfg: RunConfig, net: ValidatedNetwork, out: Path) -> dict:
    graph = project_weighted(net)
    partition = detect_communities(graph, seed=cfg.seed)
    meta = {"n_modules": len(set(partition.values())), "n_nodes": graph.n_nodes}
    if partition:
        meta["codelength_bits"] = map_equation_codelength(graph, partition)
    tfio.write_partition(out, partition, meta)
    print(f"communities: {meta['n_modules']} groups over {graph.n_nodes} traders -> {out}")
    return partition


def cmd_communities(args):
    communities_stage(RunConfig.load(args.config), tfio.read_svn_edges(_require(args.edges, "svn")), Path(args.out))
    return 0


def leadlag_stage(cfg: RunConfig, matrix, partition: dict, out: Path):
    """Validate the lead-lag network of the partition's groups; no group (no validated link) gives no edge."""
    if partition:
        net = build_leadlag(aggregate_groups(matrix, partition, cfg.rho0), FdrConfig(cfg.p0))
    else:
        net = LeadLagNetwork(groups=[], edges=np.zeros(0, LEADLAG_EDGE), threshold=0.0, n_tests=0, p0=cfg.p0, n_pairs=0)
    tfio.write_leadlag(out, net, expand_trader_leadlag(net, partition))
    print(f"leadlag: {len(net.edges)} validated directed edges -> {out}")


def cmd_leadlag(args):
    cfg = RunConfig.load(args.config)
    matrix = tfio.read_state_matrix(_require(args.states, "ingest"))
    leadlag_stage(cfg, matrix, tfio.read_partition(_require(args.partition, "communities")), Path(args.out))
    return 0


def cmd_stability(args):
    cfg = RunConfig.load(args.config)
    matrix = tfio.read_state_matrix(_require(args.states, "ingest"))
    b = matrix.grid.day_bounds()  # day d is slices [b[d], b[d + 1])
    W, S = cfg.stability_window, cfg.stability_step
    if len(b) - 1 < W + S:
        raise SystemExit(f"need at least {W + S} trading days for stability analysis, have {len(b) - 1}")
    labeled, ari_rows, beta_rows, next_fresh = [], [], [], 1
    previous, links = {}, None  # the previous window's partition and trader lead-lag links
    for d in range(W, len(b), S):
        window = matrix.slice_window(b[d - W], b[d])
        raw = _structure(window, cfg.top_n, cfg.min_trades, cfg.p0, cfg.seed)
        # detect_communities labels 1..k, so the first window keeps its own labels
        lab, next_fresh = relabel_partition(previous, raw, next_fresh)
        series = aggregate_groups(window, lab, cfg.rho0) if lab else None
        adjacency = expand_trader_leadlag(build_leadlag(series, FdrConfig(cfg.p0)), lab) if lab else None
        end = tfio.iso_ms(int(matrix.grid.ends[b[d] - 1]))
        if not previous.keys().isdisjoint(lab):  # ARI compares the traders both windows hold
            ari_rows.append((end, adjusted_rand_index(previous, lab)))
        if links is not None and adjacency is not None:
            beta = leadlag_overlap_beta(links, adjacency)
            beta_rows.append((end, "" if beta is None else beta))
        labeled.append(lab)
        previous, links = lab, adjacency
    out = Path(args.out)
    tfio.write_rows(out / "ari.csv", ["window_end", "value"], ari_rows)
    tfio.write_rows(out / "beta.csv", ["window_end", "value"], beta_rows)
    tfio.write_rows(out / "river.csv", ["time", "from_label", "to_label", "trader_count"], export_river(labeled))
    tfio.write_partition(out, labeled[-1], prefix="partition_latest")
    print(f"stability: {len(labeled)} windows, {len(ari_rows)} ARI points -> {out}")
    return 0


def forecast_stage(cfg: RunConfig, matrix, trades, out: Path):
    """Flow forecasts, plus VWAP forecasts when ``trades`` is not None; each calibration's groups are inferred once."""
    targets = ("flow",) + (("vwap",) if trades is not None else ())
    results = rolling_forecasts(
        matrix, cfg.schedule(), target_kinds=targets, seed=cfg.seed, trades=trades, rho0=cfg.rho0, p0=cfg.p0,
        top_n=cfg.top_n, min_trades=cfg.min_trades, lag_depth=cfg.lag_depth, forest_config=cfg.forest(),
    )
    for kind, (records, skipped) in results.items():
        tfio.write_forecasts(out / f"forecasts_{kind}.csv", records)
        print(f"forecast[{kind}]: {len(records)} slices, {len(skipped)} days without history -> {out}")


def cmd_forecast(args):
    cfg = RunConfig.load(args.config)
    matrix = tfio.read_state_matrix(_require(args.states, "ingest"))
    trades = _load_trades(args.trades, cfg.instrument)[0] if args.trades else None
    forecast_stage(cfg, matrix, trades, Path(args.out))
    return 0


def _hour_of(slice_end_iso, cfg: RunConfig) -> int:
    end = datetime.fromisoformat(slice_end_iso)
    start = end - timedelta(minutes=cfg.slice_minutes)
    return start.astimezone(ZoneInfo(cfg.timezone)).hour


def _evaluate_records(records, cfg: RunConfig, target: str):
    pred = np.array([r["combined"] for r in records])
    if target == "vwap":
        realized = np.array([0 if r["realized_vwap_sign"] is None else r["realized_vwap_sign"] for r in records])
        flows = realized.astype(np.float64)
    else:
        realized = np.array([r["realized_sign"] for r in records])
        flows = np.array([r["realized_flow"] for r in records])
    hours = np.array([_hour_of(r["slice_end"], cfg) for r in records])
    report = {"n_slices": len(records), "target": target, **ev.forecast_report(pred, realized, flows, hours, cfg.seed)}
    return report, ev.performance_series(pred, realized, flows)


def evaluate_stage(cfg: RunConfig, forecasts, out: Path):
    report = {}
    for kind in ("flow", "vwap"):
        path = Path(forecasts) / f"forecasts_{kind}.csv"
        if not path.exists():
            continue
        records = tfio.read_forecasts(path)
        report[kind], series = _evaluate_records(records, cfg, kind)
        rows = [
            (records[k]["slice_end"], series.sign_product[k], series.cum_sign[k],
             series.flow_product[k], series.cum_flow[k], series.cum_realized_flow[k])
            for k in range(len(records))
        ]
        tfio.write_rows(
            out / f"performance_{kind}.csv",
            ["slice_end", "sign_product", "cum_sign_product", "flow_product", "cum_flow_product", "cum_realized_flow"],
            rows,
        )
    if not report:
        raise SystemExit(f"missing upstream artifact {forecasts}/forecasts_flow.csv: run the 'forecast' stage first")
    tfio.write_json(out / "report.json", report)
    print(f"evaluate: report for {sorted(report)} -> {out}")


def cmd_evaluate(args):
    evaluate_stage(RunConfig.load(args.config), args.forecasts, Path(args.out))
    return 0


def _trades_to_forecasts(cfg: RunConfig, trades_path, out: Path):
    """Ingest through forecast in memory; the trades and the matrix are freed on return, before evaluate."""
    trades, rejects = _load_trades(trades_path, cfg.instrument)
    matrix = ingest_stage(cfg, trades, rejects, out)
    partition = communities_stage(cfg, svn_stage(cfg, matrix, out), out)
    leadlag_stage(cfg, matrix, partition, out)
    forecast_stage(cfg, matrix, trades, out)


def cmd_pipeline(args):
    cfg, out = RunConfig.load(args.config), Path(args.out)
    _trades_to_forecasts(cfg, args.trades, out)
    evaluate_stage(cfg, out, out)
    outputs = sorted(p for p in out.iterdir() if p.is_file() and p.name != "manifest.json")
    manifest = {
        "trades": str(args.trades),
        "config": args.config,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "outputs": {p.name: tfio.file_checksum(p) for p in outputs},
    }
    tfio.write_json(out / "manifest.json", manifest)
    print(f"pipeline: complete, manifest with {len(outputs)} outputs -> {out}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="tradeflow", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None)
    common.add_argument("--out", required=True)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic market with known structure")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", parents=[common], help="parse trades and build the state matrix")
    p.add_argument("--trades", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("svn", parents=[common], help="build the validated synchronicity network")
    p.add_argument("--states", required=True, help="directory produced by ingest")
    p.set_defaults(func=cmd_svn)

    p = sub.add_parser("communities", parents=[common], help="detect trader groups")
    p.add_argument("--edges", required=True, help="svn_edges.csv from the svn stage")
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("leadlag", parents=[common], help="validate the group lead-lag network")
    p.add_argument("--states", required=True)
    p.add_argument("--partition", required=True)
    p.set_defaults(func=cmd_leadlag)

    p = sub.add_parser("stability", parents=[common], help="windowed re-clustering: ARI, beta, river chart data")
    p.add_argument("--states", required=True)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("forecast", parents=[common], help="rolling out-of-sample forecasts")
    p.add_argument("--states", required=True)
    p.add_argument("--trades", default=None, help="trade CSV; enables the VWAP target")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", parents=[common], help="statistical evaluation of forecasts")
    p.add_argument("--forecasts", required=True, help="directory holding forecasts_*.csv")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", parents=[common], help="run every stage end to end and emit a manifest")
    p.add_argument("--trades", required=True)
    p.set_defaults(func=cmd_pipeline)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
