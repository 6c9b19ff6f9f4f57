"""Command-line pipeline: composable stages with file handoff.

Subcommands: synth, ingest, svn, communities, leadlag, stability, forecast,
evaluate, pipeline.  A single YAML config file (flat key-value) carries all
parameters; defaults follow the reference setup (1h slices, rho0=0.01,
p0=0.05, top 500 traders, >=100 trades, windows 45..90 step 5, 09:00-16:00
London session).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from datetime import datetime, time, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

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
    parse_trades,
    trade_size_histogram,
)
from .leadlag import aggregate_groups, build_leadlag, expand_trader_leadlag
from .learn import ForestConfig
from .predict import CalibrationSchedule, _structure, rolling_forecast
from .stability import adjusted_rand_index, export_river, leadlag_overlap_beta, relabel_partition
from .svn import FdrConfig, LinkCandidate, ValidatedNetwork, build_svn
from .synth import MarketSpec, PlantedEdge, generate_market


@dataclass
class RunConfig:
    instrument: str = ""
    slice_minutes: int = 60
    session_start: str = "09:00"
    session_end: str = "16:00"
    timezone: str = "Europe/London"
    include_weekends: bool = False
    start_date: str = ""
    end_date: str = ""
    rho0: float = 0.01
    p0: float = 0.05
    top_n: int = 500
    min_trades: int = 100
    window_lengths: tuple = tuple(range(45, 91, 5))
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
        if not 0.01 <= self.rho0 <= 0.1:
            raise SystemExit(f"config error: rho0 must lie in [0.01, 0.1], got {self.rho0}")
        if self.top_n < 1 or self.min_trades < 0:
            raise SystemExit("config error: top_n must be >= 1 and min_trades >= 0")
        try:
            FdrConfig(self.p0)
            self.schedule()
        except ValueError as exc:
            raise SystemExit(f"config error: {exc}") from None
        return self

    @classmethod
    def load(cls, path, overrides=None):
        data = {}
        if path:
            data = yaml.safe_load(Path(path).read_text()) or {}
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SystemExit(f"config error: unknown keys {sorted(unknown)}")
        if "window_lengths" in data:
            data["window_lengths"] = tuple(data["window_lengths"])
        cfg = cls(**data)
        for k, v in (overrides or {}).items():
            if v is not None:
                setattr(cfg, k, v)
        return cfg.validate()

    def forest(self) -> ForestConfig:
        return ForestConfig(n_trees=self.n_trees, min_node_size=self.min_node_size)

    def schedule(self) -> CalibrationSchedule:
        return CalibrationSchedule(
            window_lengths=tuple(self.window_lengths), recalibrate_every=self.recalibrate_every
        )

    def config_hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _load_trades(path, instrument=""):
    with open(path, newline="") as fh:
        records, rejects = parse_trades(fh)
    if instrument:
        records = [r for r in records if r.instrument == instrument]
    return records, rejects


def _grid_from(cfg: RunConfig, trades):
    if cfg.start_date and cfg.end_date:
        start, end = cfg.start_date, cfg.end_date
    else:
        if not trades:
            raise SystemExit("no trades and no explicit start/end dates in config")
        zone = ZoneInfo(cfg.timezone)
        t0 = datetime.fromtimestamp(trades[0].timestamp / 1000, tz=zone).date()
        t1 = datetime.fromtimestamp(trades[-1].timestamp / 1000, tz=zone).date() + timedelta(days=1)
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
    cfg = RunConfig.load(args.config, {"seed": args.seed})
    m = dict(cfg.market)
    edges = [PlantedEdge(**e) for e in m.pop("leadlag_edges", [])]
    if "group_sizes" in m:
        m["group_sizes"] = tuple(m["group_sizes"])
    spec = MarketSpec(leadlag_edges=tuple(edges), seed=cfg.seed, **m)
    trades, truth = generate_market(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tfio.write_trades(out / "trades.csv", trades)
    truth_doc = {
        "partition": truth.partition,
        "leadlag_edges": [list(e) for e in truth.leadlag_edges],
        "intended_states": truth.intended_states.tolist(),
    }
    (out / "ground_truth.json").write_text(json.dumps(truth_doc, indent=1))
    print(f"synth: {len(trades)} trades over {truth.grid.n_days} days -> {out}")
    return 0


def cmd_ingest(args):
    cfg = RunConfig.load(args.config)
    trades, rejects = _load_trades(args.trades, cfg.instrument)
    grid = _grid_from(cfg, trades)
    matrix = classify_states(trades, grid, cfg.rho0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tfio.write_state_matrix(out, matrix)
    if rejects:
        tfio.write_rows(out / "rejects.csv", ["line_no", "reason", "raw"],
                        [(r.line_no, r.reason, r.raw) for r in rejects])
    hist = trade_size_histogram(trades, cfg.histogram_bin)
    tfio.write_rows(out / "size_histogram.csv", ["bin_left", "count", "tail_count"], hist)
    counts = matrix.trade_counts
    summary = {"n_traders": matrix.n_traders, "n_slices": matrix.n_slices, "n_rejects": len(rejects)}
    try:
        fit = fit_tail_exponent(counts[counts > 0])
        summary["tail_fit"] = dataclasses.asdict(fit)
    except TailFitError as exc:
        summary["tail_fit"] = None
        summary["tail_fit_note"] = str(exc)
    (out / "ingest_summary.json").write_text(json.dumps(summary, indent=1))
    print(f"ingest: {matrix.n_traders} traders x {matrix.n_slices} slices -> {out}")
    return 0


def _require(path, stage):
    if not Path(path).exists():
        raise SystemExit(f"missing upstream artifact {path}: run the '{stage}' stage first")
    return path


def cmd_svn(args):
    cfg = RunConfig.load(args.config)
    matrix = tfio.read_state_matrix(_require(args.states, "ingest"))
    active = filter_active(matrix, cfg.top_n, cfg.min_trades)
    net = build_svn(active, FdrConfig(cfg.p0))
    out = Path(args.out)
    tfio.write_svn(out, net)
    print(f"svn: {len(net.edges)} validated edges over {len(net.nodes)} traders -> {out}")
    return 0


def _read_svn_edges(path) -> ValidatedNetwork:
    edges = []
    with open(path, newline="") as fh:
        rd = csv.DictReader(fh)
        for r in rd:
            edges.append(
                LinkCandidate(
                    i=r["i"], j=r["j"],
                    state_i=int(r["state_i"]), state_j=int(r["state_j"]),
                    co_count=int(r["co_count"]), n_i=0, n_j=0, T=0,
                    p_value=float(r["p_value"]),
                )
            )
    nodes = sorted({e.i for e in edges} | {e.j for e in edges}, key=str)
    return ValidatedNetwork(nodes=nodes, edges=edges, threshold=0.0, n_tests=0, p0=0.0, T=0)


def cmd_communities(args):
    cfg = RunConfig.load(args.config)
    net = _read_svn_edges(_require(args.edges, "svn"))
    graph = project_weighted(net)
    partition = detect_communities(graph, seed=cfg.seed)
    meta = {"n_modules": len(set(partition.values())), "n_nodes": graph.n_nodes}
    if partition:
        meta["codelength_bits"] = map_equation_codelength(graph, partition)
    tfio.write_partition(Path(args.out), partition, meta)
    print(f"communities: {meta['n_modules']} groups over {graph.n_nodes} traders -> {args.out}")
    return 0


def cmd_leadlag(args):
    cfg = RunConfig.load(args.config)
    matrix = tfio.read_state_matrix(_require(args.states, "ingest"))
    partition = tfio.read_partition(_require(args.partition, "communities"))
    matrix = matrix.select_traders([t for t in matrix.traders if t in partition])
    series = aggregate_groups(matrix, partition, cfg.rho0)
    net = build_leadlag(series, FdrConfig(cfg.p0))
    lam = expand_trader_leadlag(net, partition)
    tfio.write_leadlag(Path(args.out), net, lam)
    print(f"leadlag: {len(net.edges)} validated directed edges -> {args.out}")
    return 0


def cmd_stability(args):
    cfg = RunConfig.load(args.config)
    matrix = tfio.read_state_matrix(_require(args.states, "ingest"))
    days = matrix.grid.day_slices()
    W, S = cfg.stability_window, cfg.stability_step
    if len(days) < W + S:
        raise SystemExit(f"need at least {W + S} trading days for stability analysis, have {len(days)}")
    labeled, adjacency, ends = [], [], []
    prev_labeled, next_fresh = None, None
    d = W
    while d <= len(days):
        t0, t1 = int(days[d - W][0]), int(days[d - 1][-1]) + 1
        grouped, raw = _structure(matrix.slice_window(t0, t1), cfg.top_n, cfg.min_trades, cfg.p0, cfg.seed)
        if prev_labeled is None:
            lab = {t: g for t, g in raw.items()}
            next_fresh = max(lab.values(), default=0) + 1
        else:
            lab, next_fresh = relabel_partition(prev_labeled, raw, next_fresh)
        series = aggregate_groups(grouped, lab, cfg.rho0) if lab else None
        lam = expand_trader_leadlag(build_leadlag(series, FdrConfig(cfg.p0)), lab) if series else None
        labeled.append(lab)
        adjacency.append(lam)
        ends.append(t1 - 1)
        prev_labeled = lab
        d += S
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ari_rows, beta_rows = [], []
    for k in range(1, len(labeled)):
        common = set(labeled[k - 1]) & set(labeled[k])
        if common:
            p = {t: labeled[k - 1][t] for t in common}
            q = {t: labeled[k][t] for t in common}
            ari_rows.append((tfio._iso_ms(int(matrix.grid.ends[ends[k]])), adjusted_rand_index(p, q)))
        if adjacency[k - 1] is not None and adjacency[k] is not None:
            beta = leadlag_overlap_beta(adjacency[k - 1], adjacency[k])
            beta_rows.append((tfio._iso_ms(int(matrix.grid.ends[ends[k]])), "" if beta is None else beta))
    tfio.write_rows(out / "ari.csv", ["window_end", "value"], ari_rows)
    tfio.write_rows(out / "beta.csv", ["window_end", "value"], beta_rows)
    if len(labeled) >= 2:
        tfio.write_rows(out / "river.csv", ["time", "from_label", "to_label", "trader_count"], export_river(labeled))
    tfio.write_partition(out, labeled[-1], prefix="partition_latest")
    print(f"stability: {len(labeled)} windows, {len(ari_rows)} ARI points -> {out}")
    return 0


def cmd_forecast(args):
    cfg = RunConfig.load(args.config)
    matrix = tfio.read_state_matrix(_require(args.states, "ingest"))
    trades = None
    if args.trades:
        trades, _ = _load_trades(args.trades, cfg.instrument)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    targets = ["flow"] + (["vwap"] if trades is not None else [])
    for kind in targets:
        records, skipped = rolling_forecast(
            matrix,
            cfg.schedule(),
            target_kind=kind,
            seed=cfg.seed,
            trades=trades,
            rho0=cfg.rho0,
            p0=cfg.p0,
            top_n=cfg.top_n,
            min_trades=cfg.min_trades,
            lag_depth=cfg.lag_depth,
            forest_config=cfg.forest(),
        )
        tfio.write_forecasts(out / f"forecasts_{kind}.csv", records)
        print(f"forecast[{kind}]: {len(records)} slices, {len(skipped)} days without history -> {out}")
    return 0


def _hour_of(slice_end_iso, cfg: RunConfig) -> int:
    end = datetime.fromisoformat(slice_end_iso)
    start = end - timedelta(minutes=cfg.slice_minutes)
    return start.astimezone(ZoneInfo(cfg.timezone)).hour


def _evaluate_records(records, cfg: RunConfig, target: str, seed: int):
    pred = np.array([r["combined"] for r in records])
    if target == "vwap":
        realized = np.array([0 if r["realized_vwap_sign"] is None else r["realized_vwap_sign"] for r in records])
        flows = realized.astype(np.float64)
    else:
        realized = np.array([r["realized_sign"] for r in records])
        flows = np.array([r["realized_flow"] for r in records])
    hours = np.array([_hour_of(r["slice_end"], cfg) for r in records])
    series = ev.performance_series(pred, realized, flows)
    report = {"n_slices": len(records), "target": target}
    try:
        cc = ev.chou_chu_test(pred, realized, seed=seed)
        report["chou_chu"] = None if cc is None else dataclasses.asdict(cc)
    except ValueError as exc:
        report["chou_chu"] = None
        report["chou_chu_note"] = str(exc)
    try:
        t_res, w_res = ev.location_tests(pred * flows)
        report["t"] = dataclasses.asdict(t_res)
        report["wilcoxon"] = None if w_res is None else dataclasses.asdict(w_res)
    except ValueError as exc:
        report["t"] = report["wilcoxon"] = None
        report["location_note"] = str(exc)
    table, omitted = ev.hourly_condition(pred, realized, flows, hours)
    report["hourly"] = {
        str(h): {k: (dataclasses.asdict(v) if isinstance(v, ev.TestResult) else v) for k, v in entry.items()}
        for h, entry in table.items()
    }
    report["hourly_omitted"] = {str(h): note for h, note in omitted.items()}
    nonzero = pred != 0
    if nonzero.any():
        hits = (pred[nonzero] == realized[nonzero]) & (realized[nonzero] != 0)
        report["accuracy"] = float(np.mean(hits))
        vals, counts = np.unique(realized[nonzero][realized[nonzero] != 0], return_counts=True)
        report["base_rate"] = float(counts.max() / counts.sum()) if len(counts) else None
    return report, series


def cmd_evaluate(args):
    cfg = RunConfig.load(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = {}
    for kind in ("flow", "vwap"):
        path = Path(args.forecasts) / f"forecasts_{kind}.csv"
        if not path.exists():
            continue
        records = tfio.read_forecasts(path)
        rep, series = _evaluate_records(records, cfg, kind, cfg.seed)
        report[kind] = rep
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
        raise SystemExit(f"missing upstream artifact {args.forecasts}/forecasts_flow.csv: run the 'forecast' stage first")
    (out / "report.json").write_text(json.dumps(report, indent=1))
    print(f"evaluate: report for {sorted(report)} -> {out}")
    return 0


def cmd_pipeline(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = RunConfig.load(args.config)
    ns = argparse.Namespace(config=args.config, trades=args.trades, out=str(out))
    cmd_ingest(ns)
    cmd_svn(argparse.Namespace(config=args.config, states=str(out), out=str(out)))
    cmd_communities(argparse.Namespace(config=args.config, edges=str(out / "svn_edges.csv"), out=str(out)))
    cmd_leadlag(
        argparse.Namespace(config=args.config, states=str(out), partition=str(out / "partition.csv"), out=str(out))
    )
    cmd_forecast(argparse.Namespace(config=args.config, states=str(out), trades=args.trades, out=str(out)))
    cmd_evaluate(argparse.Namespace(config=args.config, forecasts=str(out), out=str(out)))
    outputs = sorted(p for p in out.iterdir() if p.is_file() and p.name != "manifest.json")
    manifest = {
        "trades": str(args.trades),
        "config": args.config,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "outputs": {p.name: tfio.file_checksum(p) for p in outputs},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    print(f"pipeline: complete, manifest with {len(outputs)} outputs -> {out}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="tradeflow", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic market with known structure")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="parse trades and build the state matrix")
    p.add_argument("--config", default=None)
    p.add_argument("--trades", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("svn", help="build the validated synchronicity network")
    p.add_argument("--config", default=None)
    p.add_argument("--states", required=True, help="directory produced by ingest")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_svn)

    p = sub.add_parser("communities", help="detect trader groups")
    p.add_argument("--config", default=None)
    p.add_argument("--edges", required=True, help="svn_edges.csv from the svn stage")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_communities)

    p = sub.add_parser("leadlag", help="validate the group lead-lag network")
    p.add_argument("--config", default=None)
    p.add_argument("--states", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_leadlag)

    p = sub.add_parser("stability", help="windowed re-clustering: ARI, beta, river chart data")
    p.add_argument("--config", default=None)
    p.add_argument("--states", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("forecast", help="rolling out-of-sample forecasts")
    p.add_argument("--config", default=None)
    p.add_argument("--states", required=True)
    p.add_argument("--trades", default=None, help="trade CSV; enables the VWAP target")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="statistical evaluation of forecasts")
    p.add_argument("--config", default=None)
    p.add_argument("--forecasts", required=True, help="directory holding forecasts_*.csv")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run every stage end to end and emit a manifest")
    p.add_argument("--config", default=None)
    p.add_argument("--trades", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pipeline)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
