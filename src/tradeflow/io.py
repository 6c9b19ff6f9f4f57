"""CSV/JSON serialization of the pipeline artifacts.

Every stage hands the next one plain files: trades, state matrices, edge
lists, partitions, forecasts and reports, so any stage can be rerun and
audited in isolation.
"""

from __future__ import annotations

import csv
import hashlib
import json
from datetime import datetime, time, timedelta, timezone
from pathlib import Path

import numpy as np

from .ingest import StateMatrix, TimeGrid, Trades


def write_trades(path, trades: Trades):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trader_id", "timestamp", "instrument", "signed_volume", "price"])
        # .tolist() gives Python ints and floats, which csv writes as repr() does
        w.writerows(zip(
            np.array(trades.trader_ids, dtype=object)[trades.trader].tolist(), trades.timestamp.tolist(),
            np.array(trades.instruments, dtype=object)[trades.instrument].tolist(),
            trades.signed_volume.tolist(), trades.price.tolist(),
        ))


def _iso_ms(ms: int) -> str:
    return datetime.fromtimestamp(ms / 1000, tz=timezone.utc).isoformat()


def write_state_matrix(out_dir, matrix: StateMatrix):
    """Write sigma as a trader-by-slice CSV plus companion volume/meta files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = matrix.grid
    with open(out_dir / "states.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trader_id"] + [_iso_ms(s) for s in grid.starts])
        for k, t in enumerate(matrix.traders):
            w.writerow([t] + [int(s) for s in matrix.sigma[k]])
    with open(out_dir / "states_volumes.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trader_id", "slice_index", "net_volume", "gross_volume", "n_trades"])
        for k, t in enumerate(matrix.traders):
            for s in np.flatnonzero(matrix.G[k] > 0):
                w.writerow([t, int(s), repr(float(matrix.V[k, s])), repr(float(matrix.G[k, s])), int(matrix.counts[k, s])])
    meta = {
        "starts": [int(x) for x in grid.starts],
        "ends": [int(x) for x in grid.ends],
        "day_index": [int(x) for x in grid.day_index],
        "local_hour": [int(x) for x in grid.local_hour],
        "slice_minutes": int(grid.slice_duration.total_seconds() // 60),
        "session_start": grid.session_start.isoformat(),
        "session_end": grid.session_end.isoformat(),
        "tz": grid.tz,
        "include_weekends": grid.include_weekends,
        "n_traders": matrix.n_traders,
    }
    (out_dir / "states_meta.json").write_text(json.dumps(meta, indent=1))


def read_state_matrix(out_dir) -> StateMatrix:
    """Read what ``write_state_matrix`` wrote; ``ValueError`` naming the file if its shape disagrees.

    Every ``states.csv`` row holds one state per slice of ``states_meta.json``,
    and every ``states_volumes.csv`` row names a trader of ``states.csv`` and a
    slice index in ``[0, T)``.
    """
    out_dir = Path(out_dir)
    meta = json.loads((out_dir / "states_meta.json").read_text())
    grid = TimeGrid(
        starts=np.array(meta["starts"], dtype=np.int64),
        ends=np.array(meta["ends"], dtype=np.int64),
        day_index=np.array(meta["day_index"], dtype=np.int64),
        local_hour=np.array(meta["local_hour"], dtype=np.int64),
        slice_duration=timedelta(minutes=meta["slice_minutes"]),
        session_start=time.fromisoformat(meta["session_start"]),
        session_end=time.fromisoformat(meta["session_end"]),
        tz=meta["tz"],
        include_weekends=meta["include_weekends"],
    )
    T = len(grid)
    path = out_dir / "states.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for line, r in enumerate(rows[1:], start=2):
        if len(r) != 1 + T:
            raise ValueError(f"{path} line {line}: {len(r) - 1} states, but states_meta.json has {T} slices")
    traders = [r[0] for r in rows[1:]]
    sigma = np.array([[int(v) for v in r[1:]] for r in rows[1:]], dtype=np.int8)
    n = len(traders)
    V = np.zeros((n, T))
    G = np.zeros((n, T))
    counts = np.zeros((n, T), dtype=np.int64)
    tindex = {t: k for k, t in enumerate(traders)}
    path = out_dir / "states_volumes.csv"
    with open(path, newline="") as fh:
        rd = csv.DictReader(fh)
        for r in rd:
            k, s = tindex.get(r["trader_id"]), int(r["slice_index"])
            if k is None:
                raise ValueError(f"{path} line {rd.line_num}: trader {r['trader_id']!r} is not in states.csv")
            if not 0 <= s < T:
                raise ValueError(f"{path} line {rd.line_num}: slice_index {s} is outside [0, {T})")
            V[k, s] = float(r["net_volume"])
            G[k, s] = float(r["gross_volume"])
            counts[k, s] = int(r["n_trades"])
    return StateMatrix(traders=traders, grid=grid, V=V, G=G, sigma=sigma, counts=counts)


def write_svn(out_dir, network):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "svn_edges.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "state_i", "state_j", "co_count", "p_value"])
        for e in network.edges:
            w.writerow([e.i, e.j, e.state_i, e.state_j, e.co_count, repr(e.p_value)])
    meta = {
        "T": network.T,
        "p0": network.p0,
        "threshold": network.threshold,
        "n_tests": network.n_tests,
        "n_nodes": len(network.nodes),
        "n_edges": len(network.edges),
    }
    (out_dir / "svn_meta.json").write_text(json.dumps(meta, indent=1))


def write_partition(out_dir, partition: dict, meta: dict | None = None, prefix: str = "partition"):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{prefix}.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["trader_id", "group_label"])
        for t in sorted(partition, key=str):
            w.writerow([t, partition[t]])
    if meta is not None:
        (out_dir / f"{prefix}_meta.json").write_text(json.dumps(meta, indent=1))


def read_partition(path) -> dict:
    with open(path, newline="") as fh:
        rd = csv.DictReader(fh)
        return {r["trader_id"]: int(r["group_label"]) for r in rd}


def write_leadlag(out_dir, network, adjacency):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "leadlag_edges.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["from_group", "to_group", "state_from", "state_to", "co_count", "p_value"])
        for e in network.edges:
            w.writerow([e.from_group, e.to_group, e.state_from, e.state_to, e.co_count, repr(e.p_value)])
    meta = {
        "n_tests": network.n_tests,
        "p0": network.p0,
        "threshold": network.threshold,
        "n_pairs": network.n_pairs,
        "groups": [int(g) for g in network.groups],
    }
    (out_dir / "leadlag_meta.json").write_text(json.dumps(meta, indent=1))
    with open(out_dir / "leadlag_lambda.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["i", "j", "value"])
        ii, jj = np.nonzero(adjacency.matrix)
        for a, b in zip(ii, jj):
            w.writerow([adjacency.traders[a], adjacency.traders[b], 1])


def write_forecasts(path, records):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["slice_end", "window_length", "predicted", "combined", "realized_sign", "realized_flow", "realized_vwap_sign"]
        )
        for r in records:
            for T_in, pred in sorted(r.per_window.items()):
                w.writerow(
                    [
                        _iso_ms(r.slice_end),
                        T_in,
                        pred,
                        r.combined,
                        r.realized_sign,
                        repr(r.realized_flow),
                        "" if r.realized_vwap_sign is None else r.realized_vwap_sign,
                    ]
                )


def read_forecasts(path):
    """Rebuild per-slice records; returns list of dicts."""
    by_slice = {}
    with open(path, newline="") as fh:
        rd = csv.DictReader(fh)
        for r in rd:
            key = r["slice_end"]
            rec = by_slice.setdefault(
                key,
                {
                    "slice_end": key,
                    "per_window": {},
                    "combined": int(r["combined"]),
                    "realized_sign": int(r["realized_sign"]),
                    "realized_flow": float(r["realized_flow"]),
                    "realized_vwap_sign": int(r["realized_vwap_sign"]) if r["realized_vwap_sign"] != "" else None,
                },
            )
            rec["per_window"][int(r["window_length"])] = int(r["predicted"])
    return [by_slice[k] for k in sorted(by_slice)]


def write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in rows:
            w.writerow(list(r))


def file_checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
