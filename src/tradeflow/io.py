"""CSV/JSON serialization of the pipeline artifacts.

Every stage hands the next one plain files: trades, state matrices, edge
lists, partitions, forecasts and reports, so any stage can be rerun and
audited in isolation.  This module is the only one that writes or parses
them: every CSV goes through one row writer (``write_rows``) and every JSON
document through ``write_json``, and each creates the directory it writes
into.  Each reader sits next to its writer.

The state matrix is written and parsed column-wise: one ``np.loadtxt`` pass
per CSV.  An edge file's header is its network's edge dtype (``svn.SVN_EDGE``,
``leadlag.LEADLAG_EDGE``).  Readers refuse malformed input with a ``ValueError``
naming the file and line: a header other than the writer's (``states.csv``
aside), a row that does not parse, a trader listed twice in a partition, a
repeated cell of a state matrix or of a forecast file, a repeated SVN link or
one from a trader to itself, and a forecast slice whose windows disagree on its
realized values.  Lines are physical lines: a blank line counts, and so does
each line break inside a quoted field.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
from array import array
from datetime import datetime, time, timedelta, timezone
from io import StringIO
from pathlib import Path

import numpy as np

from .ingest import StateMatrix, TimeGrid, Trades, encode_ids
from .leadlag import LEADLAG_EDGE
from .svn import SVN_EDGE, ValidatedNetwork, edge_nodes

TRADE_FIELDS = ("trader_id", "timestamp", "instrument", "signed_volume", "price")
_VOLUME_COLUMNS = np.dtype([("trader_id", object), ("slice_index", np.int64), ("net_volume", np.float64),
                            ("gross_volume", np.float64), ("n_trades", np.int64)])  # states_volumes.csv
_PARTITION_COLUMNS = np.dtype([("trader_id", object), ("group_label", np.int64)])
_FORECAST_COLUMNS = np.dtype([("slice_end", object), ("window_length", np.int64), ("predicted", np.int64),
                              ("combined", np.int64), ("realized_sign", np.int64), ("realized_flow", np.float64),
                              ("realized_vwap_sign", object)])  # blank when no VWAP was realized


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
    _write_csv(path, TRADE_FIELDS, zip(
        np.array(trades.trader_ids, dtype=object)[trades.trader].tolist(), trades.timestamp.tolist(),
        np.array(trades.instruments, dtype=object)[trades.instrument].tolist(),
        trades.signed_volume.tolist(), trades.price.tolist(),
    ))


@dataclasses.dataclass(frozen=True)
class RejectedRow:
    line_no: int
    reason: str
    raw: str


class ParseError(ValueError):
    """Raised when the input stream is unusable as a whole."""


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _parse_timestamp(text: str) -> int:
    """Accept epoch milliseconds or ISO-8601, a time without a zone being UTC;
    return epoch milliseconds, exactly, rounding down below the millisecond."""
    text = text.strip()
    try:
        ms = int(text)
    except ValueError:
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        ms = (dt - _EPOCH) // timedelta(milliseconds=1)
    if not -(2**63) <= ms < 2**63:
        raise ValueError(f"timestamp {text!r} is out of the int64 millisecond range")
    return ms


def _records(fh):
    """``(line, row)`` for each CSV record of ``fh``, ``line`` being the physical
    line the record starts on; blank lines, which ``np.loadtxt`` skips too, give no record."""
    reader = csv.reader(fh)
    line = 1
    for row in reader:
        if row:
            yield line, row
        line = reader.line_num + 1


def parse_trades(stream, max_reject_fraction: float = 0.10):
    """Parse a CSV trade stream.

    Parameters
    ----------
    stream : file-like, str or bytes
        CSV text with a header naming the five trade fields.
    max_reject_fraction : float
        Fatal if more than this fraction of data rows is malformed.

    Returns
    -------
    (trades, rejects)
        ``trades`` is a :class:`Trades` sorted ascending by timestamp (stable,
        so equal times keep their input order); ``rejects`` is the list of
        malformed rows with reasons (never silently dropped).
    """
    if isinstance(stream, bytes):
        stream = StringIO(stream.decode("utf-8"))
    elif isinstance(stream, str):
        stream = StringIO(stream)
    records = _records(stream)
    try:
        _, header = next(records)
    except StopIteration:
        raise ParseError("empty stream: no header row")
    header = [h.strip() for h in header]
    if set(TRADE_FIELDS) - set(header):
        missing = sorted(set(TRADE_FIELDS) - set(header))
        raise ParseError(f"header is missing required fields: {missing}")
    col = {name: header.index(name) for name in TRADE_FIELDS}

    traders, instruments = {}, {}
    trader, instrument = array("i"), array("i")
    timestamp, signed_volume, price = array("q"), array("d"), array("d")
    rejects = []
    n_rows = 0
    for line_no, row in records:
        n_rows += 1
        try:
            ts = _parse_timestamp(row[col["timestamp"]])
            volume = float(row[col["signed_volume"]])
            px = float(row[col["price"]])
            trader_id = row[col["trader_id"]].strip()
            instrument_id = row[col["instrument"]].strip()
            reason = (
                "zero signed_volume" if volume == 0
                else "price must be positive and finite" if not (px > 0 and math.isfinite(px) and math.isfinite(volume))
                else "empty trader_id" if not trader_id
                else None
            )
        except (ValueError, IndexError) as exc:
            reason = f"unparseable: {exc}"
        if reason:
            rejects.append(RejectedRow(line_no, reason, ",".join(row)))
            continue
        trader.append(traders.setdefault(trader_id, len(traders)))
        instrument.append(instruments.setdefault(instrument_id, len(instruments)))
        timestamp.append(ts)
        signed_volume.append(volume)
        price.append(px)
    if n_rows and len(rejects) / n_rows > max_reject_fraction:
        raise ParseError(
            f"{len(rejects)} of {n_rows} rows malformed "
            f"(> {max_reject_fraction:.0%}); first reject: {rejects[0]}"
        )
    trader_ids, trader = encode_ids(list(traders), trader)
    instrument_ids, instrument = encode_ids(list(instruments), instrument)
    timestamp = np.frombuffer(timestamp, dtype=np.int64)
    trades = Trades(trader_ids, trader, timestamp, instrument_ids, instrument, np.frombuffer(signed_volume),
                    np.frombuffer(price))
    return trades.take(np.argsort(timestamp, kind="stable")), rejects


def write_state_matrix(out_dir, matrix: StateMatrix):
    """Write sigma as a trader-by-slice CSV plus companion volume/meta files."""
    out_dir, grid = Path(out_dir), matrix.grid
    _write_csv(out_dir / "states.csv", ["trader_id"] + [iso_ms(s) for s in grid.starts],
               ([t, *states] for t, states in zip(matrix.traders, matrix.sigma.tolist())))
    k, s = np.nonzero(matrix.G > 0)  # row-major: trader by trader, slices ascending
    _write_csv(out_dir / "states_volumes.csv", _VOLUME_COLUMNS.names, zip(
        np.array(matrix.traders, dtype=object)[k].tolist(), s.tolist(),
        matrix.V[k, s].tolist(), matrix.G[k, s].tolist(), matrix.counts[k, s].tolist(),
    ))
    write_json(out_dir / "states_meta.json", {
        **{name: getattr(grid, name).tolist() for name in TimeGrid._columns},
        "slice_minutes": int(grid.slice_duration.total_seconds() // 60),
        "session_start": grid.session_start.isoformat(),
        "session_end": grid.session_end.isoformat(),
        "tz": grid.tz,
        "include_weekends": grid.include_weekends,
        "n_traders": matrix.n_traders,
    })


def _data_lines(path):
    """The line each data record of a CSV starts on: entry i is loadtxt's data row i."""
    with open(path, newline="") as fh:
        return [line for line, _ in _records(fh)][1:]


def _read_columns(path, dtype, usecols=None, ndmin=1):
    """The data rows of a CSV that ``_write_csv`` wrote, parsed in one ``np.loadtxt`` pass.

    The field names of a structured ``dtype`` must be the header.  A file with
    no data rows gives an empty array (loadtxt would warn).  A row loadtxt
    refuses is looked up again with the csv module, so the ``ValueError``
    names the file and line.
    """
    dtype = np.dtype(dtype)
    with open(path, newline="") as fh:  # decoded as the writer encoded it
        header = fh.readline().rstrip("\r\n")
        if dtype.names and header != ",".join(dtype.names):
            raise ValueError(f"{path} line 1: header {header!r}, not {','.join(dtype.names)!r}")
        start = fh.tell()
        if not fh.read(1):
            return np.zeros(0, dtype)
        fh.seek(start)
        try:
            return np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, usecols=usecols,
                              ndmin=ndmin)
        except ValueError as exc:
            error = exc
    with open(path, newline="") as fh:
        (_, header), *rows = _records(fh)
    columns = range(len(header)) if usecols is None else usecols
    types = [dtype[name] for name in dtype.names] if dtype.names else [dtype] * len(columns)
    numeric = [(c, t) for c, t in zip(columns, types) if t != object]
    for line, row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path} line {line}: {len(row)} fields, but the header has {len(header)}") from error
        for c, t in numeric:
            try:
                t.type(row[c])
            except (ValueError, OverflowError):
                raise ValueError(f"{path} line {line}: {header[c]} {row[c]!r} does not parse as {t}") from error
    raise ValueError(f"{path}: {error}") from error


def read_state_matrix(out_dir) -> StateMatrix:
    """Read what ``write_state_matrix`` wrote; ``ValueError`` naming the file and line if its shape disagrees.

    ``states.csv`` holds one row per trader of ``states_meta.json``, no trader
    twice, and each row one state per slice; ``states_volumes.csv`` has the
    header ``write_state_matrix`` writes, and every row parses, names a trader
    of ``states.csv`` and a slice index in ``[0, T)``, and no (trader, slice)
    pair twice.  Both files are parsed column-wise, in one ``np.loadtxt`` pass
    each.
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
        rows = list(_records(fh))[1:]
    tindex = {}
    for k, (line, r) in enumerate(rows):
        if len(r) != 1 + T:
            raise ValueError(f"{path} line {line}: {len(r) - 1} states, but states_meta.json has {T} slices")
        if r[0] in tindex:
            raise ValueError(f"{path} line {line}: trader {r[0]!r} repeats line {rows[tindex[r[0]]][0]}")
        tindex[r[0]] = k
    if len(rows) != meta["n_traders"]:
        raise ValueError(f"{path}: {len(rows)} traders, but states_meta.json has {meta['n_traders']}")
    sigma = _read_columns(path, np.int8, usecols=range(1, T + 1), ndmin=2) if rows else np.zeros((0, T), np.int8)
    path = out_dir / "states_volumes.csv"
    volumes = _read_columns(path, _VOLUME_COLUMNS)
    k = np.array([tindex.get(t, -1) for t in volumes["trader_id"].tolist()], dtype=np.int64)
    s = volumes["slice_index"]
    bad = np.flatnonzero((k < 0) | (s < 0) | (s >= T))
    if bad.size:
        i, line = bad[0], _data_lines(path)[bad[0]]
        if k[i] < 0:
            raise ValueError(f"{path} line {line}: trader {volumes['trader_id'][i]!r} is not in states.csv")
        raise ValueError(f"{path} line {line}: slice_index {s[i]} is outside [0, {T})")
    cell = k * T + s
    order = np.argsort(cell, kind="stable")
    repeats = np.flatnonzero(cell[order[1:]] == cell[order[:-1]])
    if repeats.size:
        i = np.argmin(order[repeats + 1])
        first, again = order[repeats[i]], order[repeats[i] + 1]
        lines = _data_lines(path)
        raise ValueError(f"{path} line {lines[again]}: trader {volumes['trader_id'][again]!r} "
                         f"slice_index {s[again]} repeats line {lines[first]}")
    V, G = np.zeros((len(tindex), T)), np.zeros((len(tindex), T))
    counts = np.zeros((len(tindex), T), dtype=np.int64)
    V[k, s], G[k, s], counts[k, s] = volumes["net_volume"], volumes["gross_volume"], volumes["n_trades"]
    return StateMatrix(traders=list(tindex), grid=grid, V=V, G=G, sigma=sigma, counts=counts)


def write_svn(out_dir, network: ValidatedNetwork):
    out_dir = Path(out_dir)
    _write_csv(out_dir / "svn_edges.csv", SVN_EDGE.names, network.edges.tolist())
    write_json(out_dir / "svn_meta.json", {
        "T": network.T,
        "p0": network.p0,
        "threshold": network.threshold,
        "n_tests": network.n_tests,
        "n_nodes": len(network.nodes),
        "n_edges": len(network.edges),
    })


def read_svn_edges(path) -> ValidatedNetwork:
    """The network of ``svn_edges.csv``, its edges ``SVN_EDGE`` records; the file stores no threshold,
    n_tests, p0 or T, so they read 0.  A self-link or a repeated link is refused; (j, i, state_j, state_i)
    repeats (i, j, state_i, state_j), since the synchronous network tests each unordered pair once."""
    edges = _read_columns(path, SVN_EDGE)
    keys = edges[["i", "j", "state_i", "state_j"]].tolist()
    ends = [frozenset(((i, s), (j, t))) for i, j, s, t in keys]
    if len(set(ends)) < len(ends) or (edges["i"] == edges["j"]).any():
        row_of, lines = {}, _data_lines(path)
        for k, (key, pair) in enumerate(zip(keys, ends)):
            if key[0] == key[1]:
                raise ValueError(f"{path} line {lines[k]}: trader {key[0]!r} links to itself")
            if pair in row_of:
                first = keys[row_of[pair]]
                as_first = "" if first == key else f" ({','.join(map(str, first))}) mirrored"
                raise ValueError(f"{path} line {lines[k]}: link {','.join(map(str, key))} repeats line "
                                 f"{lines[row_of[pair]]}{as_first}")
            row_of[pair] = k
    return ValidatedNetwork(nodes=edge_nodes(edges), edges=edges, threshold=0.0, n_tests=0, p0=0.0, T=0)


def write_partition(out_dir, partition: dict, meta: dict | None = None, prefix: str = "partition"):
    out_dir = Path(out_dir)
    _write_csv(out_dir / f"{prefix}.csv", _PARTITION_COLUMNS.names,
               ([t, partition[t]] for t in sorted(partition, key=str)))
    if meta is not None:
        write_json(out_dir / f"{prefix}_meta.json", meta)


def read_partition(path) -> dict:
    """``{trader: group label}``; ``ValueError`` naming the file and both lines if a trader is listed twice."""
    rows = _read_columns(path, _PARTITION_COLUMNS).tolist()
    partition = dict(rows)
    if len(partition) < len(rows):
        row_of, lines = {}, _data_lines(path)
        for k, (t, _) in enumerate(rows):
            if t in row_of:
                raise ValueError(f"{path} line {lines[k]}: trader {t!r} repeats line {lines[row_of[t]]}")
            row_of[t] = k
    return partition


def write_leadlag(out_dir, network, adjacency):
    out_dir = Path(out_dir)
    _write_csv(out_dir / "leadlag_edges.csv", LEADLAG_EDGE.names, network.edges.tolist())
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
        _FORECAST_COLUMNS.names,
        ([iso_ms(r.slice_end), T_in, pred, r.combined, r.realized_sign, repr(r.realized_flow),
          "" if r.realized_vwap_sign is None else r.realized_vwap_sign]
         for r in records for T_in, pred in sorted(r.per_window.items())),
    )


def read_forecasts(path):
    """Rebuild per-slice records as a list of dicts.

    ``ValueError`` naming the file and both lines if a (slice_end,
    window_length) pair repeats, or if two rows of a slice disagree on
    ``combined`` or a realized value.
    """
    rows = _read_columns(path, _FORECAST_COLUMNS).tolist()
    by_slice, pair_row, slice_row = {}, {}, {}
    for k, (key, window, predicted, combined, sign, flow, vwap) in enumerate(rows):
        if vwap not in ("", "-1", "0", "1"):
            raise ValueError(f"{path} line {_data_lines(path)[k]}: realized_vwap_sign {vwap!r} is not -1, 0, 1 "
                             "or blank")
        if (key, window) in pair_row:
            lines = _data_lines(path)
            raise ValueError(f"{path} line {lines[k]}: slice_end {key} window_length {window} "
                             f"repeats line {lines[pair_row[key, window]]}")
        pair_row[key, window], first = k, slice_row.setdefault(key, k)
        if rows[k][3:] != rows[first][3:]:
            lines = _data_lines(path)
            differ = [name for name, a, b in zip(_FORECAST_COLUMNS.names[3:], rows[k][3:], rows[first][3:]) if a != b]
            raise ValueError(f"{path} line {lines[k]}: slice_end {key} disagrees with line {lines[first]} "
                             f"on {', '.join(differ)}")
        if first == k:
            by_slice[key] = {"slice_end": key, "per_window": {}, "combined": combined, "realized_sign": sign,
                             "realized_flow": flow, "realized_vwap_sign": int(vwap) if vwap else None}
        by_slice[key]["per_window"][window] = predicted
    return [by_slice[k] for k in sorted(by_slice)]


def file_checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
