import ast
import dataclasses
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from tradeflow import io as tfio
from tradeflow.ingest import classify_states
from tradeflow.predict import ForecastRecord
from tradeflow.svn import SVN_EDGE, ValidatedNetwork
from tradeflow.synth import MarketSpec, generate_market


@pytest.fixture(scope="module")
def market():
    spec = MarketSpec(group_sizes=(3, 3), n_noise_traders=2, n_weekdays=6, seed=12)
    trades, truth = generate_market(spec)
    return trades, truth


def test_trades_round_trip(tmp_path, market):
    trades, _ = market
    path = tmp_path / "trades.csv"
    tfio.write_trades(path, trades)
    with open(path) as fh:
        back, rejects = tfio.parse_trades(fh)
    assert rejects == []
    assert back.trader_ids == trades.trader_ids and back.instruments == trades.instruments
    for column in ("trader", "timestamp", "instrument", "signed_volume", "price"):
        assert np.array_equal(getattr(back, column), getattr(trades, column)), column


def test_write_trades_is_pinned(tmp_path):
    # ~34k trades with 20 equal timestamps, one of them within a trader; the
    # digest was recorded when trades were a list of records, so it pins the
    # synthetic sort order and the repr() formatting of every float
    spec = MarketSpec(group_sizes=(8, 8), n_noise_traders=3, member_rate=300.0, n_weekdays=1, seed=12)
    trades, _ = generate_market(spec)
    tfio.write_trades(tmp_path / "trades.csv", trades)
    digest = hashlib.sha256((tmp_path / "trades.csv").read_bytes()).hexdigest()
    assert digest == "6dbc1acdb1221a1e424476fb690eaf16bd8879deffd67bd478034c7e207ef5c8"


@pytest.mark.parametrize("shape", ["seeded-market", "awkward-ids", "no-volume-rows", "no-traders"])
def test_state_matrix_round_trip(tmp_path, market, shape):
    # awkward ids are ones csv must quote or loadtxt could misread: a NUL, the
    # delimiter, the quote, the comment mark, edge spaces, a line break, non-ASCII
    trades, truth = market
    m = classify_states(trades, truth.grid)
    if shape == "awkward-ids":
        m = dataclasses.replace(m, traders=["tail\x00", "a,b", 'say "hi"', "#hash", "  spaced  ", "two\nlines",
                                            "Zürich €", "plain"])
    elif shape == "no-volume-rows":
        m = dataclasses.replace(m, V=np.zeros_like(m.V), G=np.zeros_like(m.G), sigma=np.zeros_like(m.sigma),
                                counts=np.zeros_like(m.counts))
    elif shape == "no-traders":
        m = dataclasses.replace(m, traders=[], V=m.V[:0], G=m.G[:0], sigma=m.sigma[:0], counts=m.counts[:0])
    tfio.write_state_matrix(tmp_path, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a file with no data rows
        back = tfio.read_state_matrix(tmp_path)
    assert back.traders == m.traders
    for name in ("V", "G", "sigma", "counts"):
        a, b = getattr(back, name), getattr(m, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert np.array_equal(back.grid.starts, m.grid.starts)
    assert back.grid.tz == m.grid.tz


def test_write_state_matrix_is_pinned(tmp_path, market):
    # recorded with the row-by-row writer, before the volume columns were written column-wise
    trades, truth = market
    tfio.write_state_matrix(tmp_path, classify_states(trades, truth.grid))
    assert {name: tfio.file_checksum(tmp_path / name) for name in ("states.csv", "states_volumes.csv")} == {
        "states.csv": "fc7c76a834e9dd054538934b06969a9b7039ea13010fef51eaf45d3100c7340f",
        "states_volumes.csv": "cc134cd6c099fa9a19c6ef3424fd62ef26b6aa8088e4ece687c38baf450ff53e",
    }


def _drop_last_state(text):
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines()) + "\n"


def _edit_row(line, field, value):
    def edit(text):
        lines = text.splitlines()
        row = lines[line - 1].split(",")
        row[field:field + 1] = [] if value is None else [value]
        return "\n".join(lines[:line - 1] + [",".join(row)] + lines[line:]) + "\n"
    return edit


def _repeat_first_row(text):
    lines = text.splitlines()
    return "\n".join(lines[:2] + lines[1:]) + "\n"


def _then_a_blank_line(edit):
    def edited(text):
        header, rest = edit(text).split("\n", 1)
        return header + "\n\n" + rest
    return edited


def _swap_the_first_two_days(text):
    meta = json.loads(text)
    meta["day_index"] = [{0: 1, 1: 0}.get(d, d) for d in meta["day_index"]]
    return json.dumps(meta, indent=1)


def _open_a_gap_after_the_first_slice(text):
    meta = json.loads(text)
    meta["starts"][1] += 60_000
    return json.dumps(meta, indent=1)


def _join_the_first_two_days(text):
    meta = json.loads(text)
    first = meta["day_index"].index(1)
    meta["starts"][first] = meta["ends"][first - 1]
    return json.dumps(meta, indent=1)


def _add_a_trader(text):
    meta = json.loads(text)
    meta["n_traders"] += 1
    return json.dumps(meta, indent=1)


@pytest.mark.parametrize(
    "name, edit, message",
    [
        ("states.csv", _drop_last_state, r"states\.csv line 2: \d+ states, but states_meta\.json has \d+ slices"),
        ("states_volumes.csv", _edit_row(2, 0, "nobody"), r"states_volumes\.csv line 2: trader 'nobody'"),
        ("states_volumes.csv", _edit_row(2, 1, "-1"), r"states_volumes\.csv line 2: slice_index -1 is outside"),
        ("states_volumes.csv", _edit_row(2, 1, "100000"), r"states_volumes\.csv line 2: slice_index 100000"),
        ("states.csv", _repeat_first_row, r"states\.csv line 3: trader '\w+' repeats line 2"),
        ("states_meta.json", _add_a_trader, r"states\.csv: 8 traders, but states_meta\.json has 9"),
        ("states.csv", _edit_row(3, 5, "x"), r"states\.csv line 3: \S+ 'x' does not parse as int8"),
        ("states.csv", _edit_row(2, 1, "300"), r"states\.csv line 2: \S+ '300' does not parse as int8"),
        ("states_volumes.csv", _edit_row(4, 4, None), r"states_volumes\.csv line 4: 4 fields, but the header has 5"),
        ("states_volumes.csv", _edit_row(3, 2, "x"), r"states_volumes\.csv line 3: net_volume 'x' does not parse"),
        ("states_volumes.csv", _edit_row(2, 4, "1.0"), r"states_volumes\.csv line 2: n_trades '1\.0'"),
        ("states_volumes.csv", _repeat_first_row,
         r"states_volumes\.csv line 3: trader '\w+' slice_index \d+ repeats line 2"),
        ("states_volumes.csv", lambda text: text.replace("net_volume,gross_volume", "gross_volume,net_volume", 1),
         r"states_volumes\.csv line 1: header 'trader_id,slice_index,gross_volume,net_volume,"),
        # a blank line is a line: loadtxt skips it, and the message still names the physical line
        ("states_volumes.csv", _then_a_blank_line(_edit_row(4, 0, "nobody")),
         r"states_volumes\.csv line 5: trader 'nobody'"),
        ("states_volumes.csv", _then_a_blank_line(_repeat_first_row),
         r"states_volumes\.csv line 4: trader '\w+' slice_index \d+ repeats line 3"),
        ("states.csv", _then_a_blank_line(_edit_row(3, 1, "x")), r"states\.csv line 4: \S+ 'x' does not parse"),
        # day_bounds reads the days from day_index, so swapped days would give wrong windows
        ("states_meta.json", _swap_the_first_two_days, r"states_meta\.json: slice 0 has day_index 1, but"),
        # predict and leadlag lag only across contiguous slices, and a trading day must be one such run
        ("states_meta.json", _open_a_gap_after_the_first_slice,
         r"states_meta\.json: slice 1 has day_index 0, but its trading day is 1: "),
        ("states_meta.json", _join_the_first_two_days,
         r"states_meta\.json: slice 7 has day_index 1, but its trading day is 0: "),
    ],
    ids=["short-states-row", "unknown-trader", "negative-slice", "slice-past-end", "repeated-trader", "missing-trader",
         "non-number-state", "state-out-of-int8", "short-volume-row", "non-number-volume", "fractional-count",
         "repeated-volume-cell", "reordered-columns", "unknown-trader-after-blank-line",
         "repeated-cell-after-blank-line", "non-number-state-after-blank-line", "swapped-days",
         "gap-inside-a-day", "back-to-back-days"],
)
def test_state_matrix_shape_mismatch_is_refused(tmp_path, market, name, edit, message):
    trades, truth = market
    tfio.write_state_matrix(tmp_path, classify_states(trades, truth.grid))
    path = tmp_path / name
    path.write_text(edit(path.read_text()))
    with pytest.raises(ValueError, match=message):
        tfio.read_state_matrix(tmp_path)


@pytest.mark.parametrize("name, edit", [
    ("states.csv", lambda line: line.rsplit(",", 1)[0]),
    ("states_volumes.csv", lambda line: "nobody," + line.split(",", 1)[1]),
], ids=["short-states-row", "unknown-trader"])
def test_state_matrix_errors_count_the_line_break_inside_an_id(tmp_path, market, name, edit):
    # the first trader's id holds a line break, so each of its records spans two lines
    trades, truth = market
    m = classify_states(trades, truth.grid)
    tfio.write_state_matrix(tmp_path, dataclasses.replace(m, traders=["two\nlines", *m.traders[1:]]))
    path = tmp_path / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1] + [edit(lines[-1])]) + "\n")
    with pytest.raises(ValueError, match=rf"{name.replace('.', '[.]')} line {len(lines)}: "):
        tfio.read_state_matrix(tmp_path)


def test_svn_edges_round_trip(tmp_path):
    edges = np.array([("a", "b", 1, -1, 7, 1.25e-07), ("b", "c", 0, 0, 3, 0.1 + 0.2)], dtype=SVN_EDGE)
    net = ValidatedNetwork(nodes=["a", "b", "c"], edges=edges, threshold=0.01, n_tests=36, p0=0.05, T=120)
    tfio.write_svn(tmp_path, net)
    back = tfio.read_svn_edges(tmp_path / "svn_edges.csv")
    assert back.nodes == ["a", "b", "c"]
    assert back.edges.dtype == SVN_EDGE
    assert back.edges.tolist() == edges.tolist()  # every field, the p-values to the bit
    assert (back.threshold, back.n_tests, back.p0, back.T) == (0.0, 0, 0.0, 0)  # not stored in the file


def _reads_a_file(call: ast.Call) -> bool:
    fn = call.func
    owner = getattr(fn.value, "id", "") if isinstance(fn, ast.Attribute) else ""
    return (owner, getattr(fn, "attr", "")) in (("csv", "reader"), ("csv", "DictReader"), ("np", "loadtxt"))


def _writes_a_file(call: ast.Call) -> bool:
    fn = call.func
    name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", "")
    owner = getattr(fn.value, "id", "") if isinstance(fn, ast.Attribute) else ""
    if name in ("write_text", "write_bytes") or (owner, name) in (("csv", "writer"), ("json", "dump")):
        return True
    if name == "dumps" and owner == "json":
        return any(k.arg == "indent" for k in call.keywords)
    if name == "open":
        modes = list(call.args[1:2]) + [k.value for k in call.keywords if k.arg == "mode"]
        return any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes)
    return False


def test_only_io_writes_files():
    # ...and only io parses CSV files
    calls = {
        path.name: [node for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Call)]
        for path in sorted(Path(tfio.__file__).parent.glob("*.py"))
    }
    io_calls = calls.pop("io.py")
    assert sum(map(_writes_a_file, io_calls)) >= 3  # its open(..., "w"), csv.writer and write_text: the scan sees them
    assert sum(map(_reads_a_file, io_calls)) == 2  # its one csv.reader, in _records, and its np.loadtxt
    found = {name: [c.lineno for c in nodes if _writes_a_file(c) or _reads_a_file(c)] for name, nodes in calls.items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_partition_round_trip(tmp_path):
    part = {"a": 1, "b": 1, "c": 2}
    tfio.write_partition(tmp_path, part, meta={"n_modules": 2})
    back = tfio.read_partition(tmp_path / "partition.csv")
    assert back == part


def test_partition_with_a_repeated_trader_is_refused(tmp_path):
    path = tmp_path / "partition.csv"
    tfio.write_rows(path, ["trader_id", "group_label"], [("a", 1), ("b", 2), ("a", 3)])
    with pytest.raises(ValueError, match=r"partition\.csv line 4: trader 'a' repeats line 2"):
        tfio.read_partition(path)


def test_forecast_round_trip(tmp_path):
    records = [
        ForecastRecord(
            slice_index=10, slice_end=1704103200000,
            per_window={45: 1, 50: -1}, combined=0,
            realized_sign=1, realized_flow=1234.5, realized_vwap_sign=None,
        ),
        ForecastRecord(
            slice_index=11, slice_end=1704106800000,
            per_window={45: 1, 50: 1}, combined=1,
            realized_sign=-1, realized_flow=-10.0, realized_vwap_sign=-1,
        ),
    ]
    path = tmp_path / "forecasts.csv"
    tfio.write_forecasts(path, records)
    back = tfio.read_forecasts(path)
    assert len(back) == 2
    assert back[0]["per_window"] == {45: 1, 50: -1}
    assert back[0]["combined"] == 0
    assert back[0]["realized_vwap_sign"] is None
    assert back[1]["realized_flow"] == -10.0
    assert back[1]["realized_vwap_sign"] == -1


def test_forecasts_with_a_repeated_slice_and_window_are_refused(tmp_path):
    record = ForecastRecord(slice_index=10, slice_end=1704103200000, per_window={45: 1, 50: -1}, combined=0,
                            realized_sign=1, realized_flow=1234.5, realized_vwap_sign=None)
    path = tmp_path / "forecasts.csv"
    tfio.write_forecasts(path, [record, dataclasses.replace(record, per_window={45: -1}, combined=-1)])
    with pytest.raises(ValueError, match=r"forecasts\.csv line 4: slice_end \S+ window_length 45 repeats line 2"):
        tfio.read_forecasts(path)


def test_forecasts_whose_windows_disagree_on_a_slice_are_refused(tmp_path):
    record = ForecastRecord(slice_index=10, slice_end=1704103200000, per_window={45: 1}, combined=1,
                            realized_sign=1, realized_flow=5.0, realized_vwap_sign=None)
    other = dataclasses.replace(record, per_window={50: -1}, combined=-1, realized_sign=-1, realized_flow=-7.0,
                                realized_vwap_sign=1)
    path = tmp_path / "forecasts.csv"
    tfio.write_forecasts(path, [record, other])
    with pytest.raises(ValueError, match=r"forecasts\.csv line 3: slice_end \S+ disagrees with line 2 on combined, "
                                         r"realized_sign, realized_flow, realized_vwap_sign"):
        tfio.read_forecasts(path)


FORECAST_HEADER = ",".join(tfio._FORECAST_COLUMNS.names) + "\n"
FORECAST_ROW = "2024-01-01T10:00:00+00:00,45,1,1,1,5.0,\n"
SVN_HEADER = ",".join(SVN_EDGE.names) + "\n"


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("partition.csv", "trader,group\na,1\n", r"line 1: header 'trader,group', not 'trader_id,group_label'"),
        ("partition.csv", "trader_id,group_label\na,1\nb,x\n", r"line 3: group_label 'x' does not parse as int"),
        ("partition.csv", 'trader_id,group_label\n"two\nlines",1\n\nb,2\nb,3\n', r"line 6: trader 'b' repeats line 5"),
        ("partition.csv", "trader_id,group_label\na\n", r"line 2: 1 fields, but the header has 2"),
        ("partition.csv", "", r"line 1: header '', not 'trader_id,group_label'"),
        ("forecasts.csv", "slice_end,window_length,predicted\n" + FORECAST_ROW, r"line 1: header 'slice_end,"),
        ("forecasts.csv", FORECAST_HEADER + FORECAST_ROW.replace(",1,1,1,", ",x,1,1,"),
         r"line 2: predicted 'x' does not parse as int"),
        ("forecasts.csv", FORECAST_HEADER + FORECAST_ROW.replace("5.0", "five"),
         r"line 2: realized_flow 'five' does not parse as float"),
        ("forecasts.csv", FORECAST_HEADER + FORECAST_ROW.replace(",\n", ",up\n"),
         r"line 2: realized_vwap_sign 'up' is not -1, 0, 1 or blank"),
        ("svn_edges.csv", "i,j,state_i,state_j,co_count\n", r"line 1: header 'i,j,state_i,state_j,co_count', not"),
        ("svn_edges.csv", "i,j,state_i,state_j,co_count,p_value\na,b,1,-1,7,p\n",
         r"line 2: p_value 'p' does not parse as float"),
        ("svn_edges.csv", SVN_HEADER + "a,b,1,1,7,1e-09\nb,c,1,1,3,1e-08\n\na,b,1,1,7,1e-09\n",
         r"line 5: link a,b,1,1 repeats line 2"),
        ("svn_edges.csv", SVN_HEADER + "a,b,1,1,7,1e-09\nc,c,-1,-1,3,1e-08\n", r"line 3: trader 'c' links to itself"),
        ("svn_edges.csv", SVN_HEADER + "a,b,1,-1,7,1e-09\nb,c,1,1,3,1e-08\nb,a,-1,1,7,1e-09\n",
         r"line 4: link b,a,-1,1 repeats line 2 \(a,b,1,-1\) mirrored"),
    ],
    ids=["partition-header", "partition-label", "partition-lines", "partition-short-row", "partition-empty",
         "forecasts-header", "forecasts-prediction", "forecasts-flow", "forecasts-vwap", "svn-header", "svn-p-value",
         "svn-repeated-link", "svn-self-link", "svn-mirrored-link"],
)
def test_malformed_artifact_is_refused(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    read = {"partition.csv": tfio.read_partition, "forecasts.csv": tfio.read_forecasts,
            "svn_edges.csv": tfio.read_svn_edges}[name]
    with pytest.raises(ValueError, match=name.replace(".", "[.]") + " " + message):
        read(path)


def test_checksum_changes_with_content(tmp_path):
    a = tmp_path / "a.csv"
    tfio.write_rows(a, ["x"], [(1,)])
    c1 = tfio.file_checksum(a)
    tfio.write_rows(a, ["x"], [(2,)])
    assert tfio.file_checksum(a) != c1
