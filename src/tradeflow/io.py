"""CSV/JSON serialization of the pipeline artifacts.

Every stage hands the next one plain files: trades, state matrices, edge
lists, partitions, forecasts and reports, so any stage can be rerun and
audited in isolation.  This module is the only one that writes them: every
CSV goes through one row writer (``write_rows``) and every JSON document
through ``write_json``, and each creates the directory it writes into.  Each
reader sits next to its writer.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from datetime import datetime, time, timedelta, timezone
from pathlib import Path

import numpy as np

from .ingest import StateMatrix, TimeGrid, Trades
from .svn import LinkCandidate, ValidatedNetwork


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# io's own writers call _write_csv, so a wrapper installed on write_rows sees only calls from outside io
write_rows = _write_csv


def write_json(path, doc):
    """Indented JSON; dataclasses (test results, tail fits) are written as dicts."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, default=dataclasses.asdict))


def iso_ms(ms: int) -> str:
    return datetime.fromtimestamp(ms / 1000, tz=timezone.utc).isoformat()


def write_trades(path, trades: Trades):
    # .tolist() gives Python ints and floats, which csv writes as repr() does
    _write_csv(path, ["trader_id", "timestamp", "instrument", "signed_volume", "price"], zip(
        np.array(trades.trader_ids, dtype=object)[trades.trader].tolist(), trades.timestamp.tolist(),
        np.array(trades.instruments, dtype=object)[trades.instrument].tolist(),
        trades.signed_volume.tolist(), trades.price.tolist(),
    ))


def write_state_matrix(out_dir, matrix: StateMatrix):
    """Write sigma as a trader-by-slice CSV plus companion volume/meta files."""
    out_dir, grid = Path(out_dir), matrix.grid
    _write_csv(out_dir / "states.csv", ["trader_id"] + [iso_ms(s) for s in grid.starts],
               ([t, *states] for t, states in zip(matrix.traders, matrix.sigma.tolist())))
    _write_csv(
        out_dir / "states_volumes.csv", ["trader_id", "slice_index", "net_volume", "gross_volume", "n_trades"],
        ([t, int(s), repr(float(matrix.V[k, s])), repr(float(matrix.G[k, s])), int(matrix.counts[k, s])]
         for k, t in enumerate(matrix.traders) for s in np.flatnonzero(matrix.G[k] > 0)),
    )
    write_json(out_dir / "states_meta.json", {
        **{name: getattr(grid, name).tolist() for name in TimeGrid._columns},
        "slice_minutes": int(grid.slice_duration.total_seconds() // 60),
        "session_start": grid.session_start.isoformat(),
        "session_end": grid.session_end.isoformat(),
        "tz": grid.tz,
        "include_weekends": grid.include_weekends,
        "n_traders": matrix.n_traders,
    })


def read_state_matrix(out_dir) -> StateMatrix:
    """Read what ``write_state_matrix`` wrote; ``ValueError`` naming the file if its shape disagrees.

    ``states.csv`` holds one row per trader of ``states_meta.json``, no trader
    twice, and each row one state per slice; every ``states_volumes.csv`` row
    names a trader of ``states.csv`` and a slice index in ``[0, T)``.
    """
    out_dir = Path(out_dir)
    meta = json.loads((out_dir / "states_meta.json").read_text())
    grid = TimeGrid(
        **{name: meta[name] for name in TimeGrid._columns},
        slice_duration=timedelta(minutes=meta["slice_minutes"]),
        session_start=time.fromisoformat(meta["session_start"]),
        session_end=time.fromisoformat(meta["session_end"]),
        tz=meta["tz"],
        include_weekends=meta["include_weekends"],
    )
    T = len(grid)
    path = out_dir / "states.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    tindex = {}
    for k, r in enumerate(rows):
        if len(r) != 1 + T:
            raise ValueError(f"{path} line {k + 2}: {len(r) - 1} states, but states_meta.json has {T} slices")
        if r[0] in tindex:
            raise ValueError(f"{path} line {k + 2}: trader {r[0]!r} repeats line {tindex[r[0]] + 2}")
        tindex[r[0]] = k
    if len(rows) != meta["n_traders"]:
        raise ValueError(f"{path}: {len(rows)} traders, but states_meta.json has {meta['n_traders']}")
    sigma = np.array([[int(v) for v in r[1:]] for r in rows], dtype=np.int8)
    V, G = np.zeros((len(rows), T)), np.zeros((len(rows), T))
    counts = np.zeros((len(rows), T), dtype=np.int64)
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
    return StateMatrix(traders=list(tindex), grid=grid, V=V, G=G, sigma=sigma, counts=counts)


def write_svn(out_dir, network: ValidatedNetwork):
    out_dir = Path(out_dir)
    _write_csv(out_dir / "svn_edges.csv", ["i", "j", "state_i", "state_j", "co_count", "p_value"],
               ([e.i, e.j, e.state_i, e.state_j, e.co_count, repr(e.p_value)] for e in network.edges))
    write_json(out_dir / "svn_meta.json", {
        "T": network.T,
        "p0": network.p0,
        "threshold": network.threshold,
        "n_tests": network.n_tests,
        "n_nodes": len(network.nodes),
        "n_edges": len(network.edges),
    })


def read_svn_edges(path) -> ValidatedNetwork:
    """The network of ``svn_edges.csv``; the file stores no n_i, n_j, T or threshold, so they read 0."""
    with open(path, newline="") as fh:
        edges = [
            LinkCandidate(i=r["i"], j=r["j"], state_i=int(r["state_i"]), state_j=int(r["state_j"]),
                          co_count=int(r["co_count"]), n_i=0, n_j=0, T=0, p_value=float(r["p_value"]))
            for r in csv.DictReader(fh)
        ]
    nodes = sorted({e.i for e in edges} | {e.j for e in edges}, key=str)
    return ValidatedNetwork(nodes=nodes, edges=edges, threshold=0.0, n_tests=0, p0=0.0, T=0)


def write_partition(out_dir, partition: dict, meta: dict | None = None, prefix: str = "partition"):
    out_dir = Path(out_dir)
    _write_csv(out_dir / f"{prefix}.csv", ["trader_id", "group_label"],
               ([t, partition[t]] for t in sorted(partition, key=str)))
    if meta is not None:
        write_json(out_dir / f"{prefix}_meta.json", meta)


def read_partition(path) -> dict:
    with open(path, newline="") as fh:
        rd = csv.DictReader(fh)
        return {r["trader_id"]: int(r["group_label"]) for r in rd}


def write_leadlag(out_dir, network, adjacency):
    out_dir = Path(out_dir)
    _write_csv(
        out_dir / "leadlag_edges.csv", ["from_group", "to_group", "state_from", "state_to", "co_count", "p_value"],
        ([e.from_group, e.to_group, e.state_from, e.state_to, e.co_count, repr(e.p_value)] for e in network.edges),
    )
    write_json(out_dir / "leadlag_meta.json", {
        "n_tests": network.n_tests,
        "p0": network.p0,
        "threshold": network.threshold,
        "n_pairs": network.n_pairs,
        "groups": [int(g) for g in network.groups],
    })
    _write_csv(out_dir / "leadlag_lambda.csv", ["i", "j", "value"],
               ([adjacency.traders[a], adjacency.traders[b], 1] for a, b in zip(*np.nonzero(adjacency.matrix))))


def write_forecasts(path, records):
    _write_csv(
        path,
        ["slice_end", "window_length", "predicted", "combined", "realized_sign", "realized_flow", "realized_vwap_sign"],
        ([iso_ms(r.slice_end), T_in, pred, r.combined, r.realized_sign, repr(r.realized_flow),
          "" if r.realized_vwap_sign is None else r.realized_vwap_sign]
         for r in records for T_in, pred in sorted(r.per_window.items())),
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


def file_checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
