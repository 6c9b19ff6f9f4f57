import math
import tracemalloc
import warnings
from datetime import datetime, time, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradeflow.ingest import (
    StateMatrix,
    TailFitError,
    build_grid,
    classify_states,
    filter_active,
    fit_tail_exponent,
    states_from_volumes,
    trade_size_histogram,
)
from tradeflow import io as tfio
from tradeflow.io import ParseError, _parse_timestamp, parse_trades, write_trades
from tradeflow.synth import MarketSpec, generate_market

HEADER = "trader_id,timestamp,instrument,signed_volume,price\n"


def _rows(trades):
    """Every column of ``trades``, ids decoded, one tuple per trade."""
    return list(zip(
        [trades.trader_ids[c] for c in trades.trader.tolist()], trades.timestamp.tolist(),
        [trades.instruments[c] for c in trades.instrument.tolist()],
        trades.signed_volume.tolist(), trades.price.tolist(),
    ))


def test_parse_basic_and_sorting():
    text = HEADER + (
        "b,1704103200000,EURUSD,-2000,1.1\n"
        "a,1704099600000,EURUSD,1000,1.1\n"
    )
    trades, rejects = parse_trades(text)
    assert rejects == []
    assert len(trades) == 2
    assert trades.trader_ids == ("a", "b") and trades.instruments == ("EURUSD",)
    assert trades.trader.tolist() == [0, 1] and trades.instrument.tolist() == [0, 0]
    assert trades.timestamp.dtype == np.int64
    assert trades.signed_volume.dtype == trades.price.dtype == np.float64
    assert _rows(trades) == [
        ("a", 1704099600000, "EURUSD", 1000.0, 1.1),
        ("b", 1704103200000, "EURUSD", -2000.0, 1.1),
    ]


def test_parse_sort_is_stable_and_tables_are_sorted():
    text = HEADER + (
        "zed,1704103200000,GBPUSD,-2000,1.3\n"
        "b,1704099600000,EURUSD,1000,1.1\n"
        "a,1704103200000,EURUSD,500,1.2\n"
        "b,1704099600000,GBPUSD,-700,1.4\n"
    )
    trades, _ = parse_trades(text)
    assert trades.trader_ids == ("a", "b", "zed") and trades.instruments == ("EURUSD", "GBPUSD")
    # equal timestamps keep their input order, as a stable sort does
    assert _rows(trades) == [
        ("b", 1704099600000, "EURUSD", 1000.0, 1.1),
        ("b", 1704099600000, "GBPUSD", -700.0, 1.4),
        ("zed", 1704103200000, "GBPUSD", -2000.0, 1.3),
        ("a", 1704103200000, "EURUSD", 500.0, 1.2),
    ]


def test_parse_iso_timestamps_match_epoch():
    text = HEADER + (
        "a,2024-01-02T09:30:00+00:00,EURUSD,1000,1.1\n"
        "b,1704187800000,EURUSD,1000,1.1\n"
    )
    trades, _ = parse_trades(text)
    assert _rows(trades) == [
        ("a", 1704187800000, "EURUSD", 1000.0, 1.1),
        ("b", 1704187800000, "EURUSD", 1000.0, 1.1),
    ]


def test_parse_iso_timestamps_to_the_exact_millisecond():
    # a float product of seconds and 1000 lands 1 ms early for about 0.6 % of these times
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    rng = np.random.default_rng(0)
    lo, hi = (int((datetime(y, 1, 1, tzinfo=timezone.utc) - epoch).total_seconds()) * 1000 for y in (1900, 2100))
    wanted = rng.integers(lo, hi, size=2000).tolist() + [2169240323857]
    for ms in wanted:
        dt = epoch + timedelta(milliseconds=ms)
        naive = dt.replace(tzinfo=None).isoformat(timespec="milliseconds")
        assert _parse_timestamp(naive + "+00:00") == ms, naive
        assert _parse_timestamp(naive) == ms, naive  # a time without a zone is UTC
    assert _parse_timestamp("2038-09-27T22:45:23.857+00:00") == 2169240323857


def test_parse_collects_rejects_with_reasons():
    rows = [f"a,170409960000{k},EURUSD,1000,1.1" for k in range(20)]
    rows.append("a,not-a-time,EURUSD,1000,1.1")
    rows.append("a,1704099600000,EURUSD,0,1.1")
    trades, rejects = parse_trades(HEADER + "\n".join(rows) + "\n")
    assert _rows(trades) == [("a", int(f"170409960000{k}"), "EURUSD", 1000.0, 1.1) for k in range(20)]
    assert len(rejects) == 2
    reasons = [r.reason for r in rejects]
    assert any("unparseable" in r for r in reasons)
    assert any("zero" in r for r in reasons)


def test_parse_short_rows_are_counted_rejects():
    # trader_id and instrument come last, so these rows lose exactly them
    text = "timestamp,signed_volume,price,instrument,trader_id\n2,5,1.0\n3,5,1.0,EURUSD\n4,5,1.0,EURUSD,b\n"
    trades, rejects = parse_trades(text, max_reject_fraction=1.0)
    assert _rows(trades) == [("b", 4, "EURUSD", 5.0, 1.0)]
    assert [(r.line_no, r.reason, r.raw) for r in rejects] == [
        (2, "unparseable: list index out of range", "2,5,1.0"),
        (3, "unparseable: list index out of range", "3,5,1.0,EURUSD"),
    ]


def test_parse_rejects_empty_trader_id():
    text = HEADER + (
        ",1704099600000,EURUSD,1000,1.1\n"
        "  ,1704099600001,EURUSD,1000,1.1\n"
        "b,1704099600002,EURUSD,1000,1.1\n"
    )
    trades, rejects = parse_trades(text, max_reject_fraction=1.0)
    assert trades.trader_ids == ("b",)
    assert _rows(trades) == [("b", 1704099600002, "EURUSD", 1000.0, 1.1)]
    assert [(r.line_no, r.reason) for r in rejects] == [(2, "empty trader_id"), (3, "empty trader_id")]


def test_reject_lines_count_the_line_break_inside_an_id():
    # the quoted id spans physical lines 2 and 3, a blank line 4 is skipped, so the zero volume sits on line 5
    text = HEADER + '"a\nb",1704099600000,EURUSD,1000,1.1\n\na,1704099600001,EURUSD,0,1.1\n'
    trades, rejects = parse_trades(text, max_reject_fraction=1.0)
    assert _rows(trades) == [("a\nb", 1704099600000, "EURUSD", 1000.0, 1.1)]
    assert [(r.line_no, r.reason) for r in rejects] == [(5, "zero signed_volume")]


def test_reject_lines_count_the_line_break_inside_a_header():
    # the header spans lines 1 and 2, so the zero volume sits on line 4
    text = ('trader_id,timestamp,instrument,signed_volume,price,"venue\nnote"\n'
            "a,1704099600000,EURUSD,1000,1.1,X\na,1704099600001,EURUSD,0,1.1,Y\n")
    trades, rejects = parse_trades(text, max_reject_fraction=1.0)
    assert _rows(trades) == [("a", 1704099600000, "EURUSD", 1000.0, 1.1)]
    assert [(r.line_no, r.reason) for r in rejects] == [(4, "zero signed_volume")]


def test_parse_rejects_timestamp_outside_int64():
    text = HEADER + "a,99999999999999999999,EURUSD,1000,1.1\na,1704099600000,EURUSD,1000,1.1\n"
    trades, rejects = parse_trades(text, max_reject_fraction=1.0)
    assert _rows(trades) == [("a", 1704099600000, "EURUSD", 1000.0, 1.1)]
    assert len(rejects) == 1 and rejects[0].reason.startswith("unparseable: timestamp")


def test_trailing_nul_keeps_traders_apart():
    # a fixed-width numpy string column would strip the NUL and merge the two
    grid = build_grid("2024-01-01", "2024-01-02")
    t0 = int(grid.starts[0])
    trades, _ = parse_trades(HEADER + f"a\x00,{t0 + 1},EURUSD,1000,1.1\na,{t0 + 2},EURUSD,-1000,1.1\n")
    assert trades.trader_ids == ("a", "a\x00")
    m = classify_states(trades, grid)
    assert m.traders == ["a", "a\x00"]
    assert m.sigma[:, 0].tolist() == [-1, 1]


def test_parse_too_many_malformed_is_fatal():
    text = HEADER + "a,nope,EURUSD,1000,1.1\n" * 3 + "a,1704099600000,EURUSD,1000,1.1\n"
    with pytest.raises(ParseError):
        parse_trades(text)


def test_parse_missing_header_fields():
    with pytest.raises(ParseError, match="missing"):
        parse_trades("trader_id,timestamp\n")


def _loop_only(lines, header, columns, line):
    """``io._parse_clean`` handing every line to the row loop: the oracle of the column-wise path."""
    return tfio._records(lines, line)


@pytest.fixture(scope="module")
def pipeline_csv(tmp_path_factory):
    """A trades file as ``write_trades`` writes it (CRLF lines), of a market with ~830 heavy-tailed traders."""
    spec = MarketSpec(group_sizes=(5,) * 6, n_noise_traders=800, alpha=1.5, sync_fidelity=0.9, neutral_prob=0.1,
                      n_weekdays=3, seed=1)
    path = tmp_path_factory.mktemp("trades") / "trades.csv"
    write_trades(path, generate_market(spec)[0])
    return path


def _parse_both(path, monkeypatch, loop_records):
    """``parse_trades`` of the file at ``path``, and of the same file with the row loop only; the first must
    leave exactly ``loop_records`` records to the row loop, and the two must agree column for column."""
    loop, seen = tfio._parse_rows, []

    def counted(records, *args):
        records = list(records)
        seen.append(len(records))
        return loop(iter(records), *args)

    monkeypatch.setattr(tfio, "_parse_rows", counted)
    with open(path, newline="") as fh:
        got, got_rejects = parse_trades(fh, max_reject_fraction=1.0)
    assert seen == [loop_records]
    monkeypatch.setattr(tfio, "_parse_clean", _loop_only)
    with open(path, newline="") as fh:
        want, want_rejects = parse_trades(fh, max_reject_fraction=1.0)
    assert seen[1:] == [len(want) + len(want_rejects)]
    assert got_rejects == want_rejects
    assert got.trader_ids == want.trader_ids and got.instruments == want.instruments
    for column in ("trader", "timestamp", "instrument", "signed_volume", "price"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column
    return got, got_rejects


ROWS = ["b,1704103200000,EURUSD,-2000,1.1", "a,1704099600000,GBPUSD,1000,1.25", "c,1704099600000,EURUSD,5e2,0.9"]


@pytest.mark.parametrize("text, loop_records", [
    (HEADER.replace("\n", "\r\n") + "\r\n".join(ROWS) + "\r\n", 0),
    ("price,instrument,timestamp,signed_volume,trader_id\n1.1,EURUSD,1704103200000,-2000,b\n"
     "1.25,GBPUSD,1704099600000,1000,a\n", 0),
    (HEADER + "  a ,1704103200000, EURUSD,-2000,1.1\na,1704099600000,EURUSD ,1000,1.1\n", 0),
    (HEADER + '"a,b",1704103200000,EURUSD,-2000,1.1\n"c\nd",1704099600000,EURUSD,1000,1.1\n'
     '"e""f",1704099600001,EURUSD,7,1.1\n', 0),
    (HEADER + "a\x00,1704103200000,EURUSD,-2000,1.1\na,1704099600000,EURUSD,1000,1.1\n", 0),
    (HEADER + "\n" + ROWS[0] + "\n\r\n\n" + ROWS[1] + "\n\n", 0),
    ("trader_id,timestamp,instrument,signed_volume,price,venue\n" + ROWS[0] + ",X\n" + ROWS[1] + "\n", 0),
    (HEADER, 0),
    (HEADER + ROWS[0] + "\na,2024-01-02T09:30:00+00:00,EURUSD,1000,1.1\n", 2),
    # int() refuses these epoch-ms times, so loadtxt must not read them through a float
    (HEADER + ROWS[0] + "\na,1704103200000.0,EURUSD,1000,1.1\na,1.7041032e12,EURUSD,1000,1.1\n", 3),
    (HEADER + ROWS[0] + "\na,1704099600000,EURUSD,0,1.1\n", 2),
    ("timestamp,signed_volume,price,instrument,trader_id\n2,5,1.0\n4,5,1.0,EURUSD,b\n", 2),
    (HEADER + ROWS[0] + "\n  ,1704099600000,EURUSD,1000,1.1\n", 2),
], ids=["crlf", "column-order", "spaced-ids", "quoted-ids", "nul-id", "blank-lines", "extra-column", "header-only",
        "iso-timestamp", "float-timestamp", "zero-volume", "short-row", "blank-trader"])
def test_column_wise_parse_equals_the_loop(tmp_path, monkeypatch, text, loop_records):
    path = tmp_path / "trades.csv"
    path.write_bytes(text.encode())
    _parse_both(path, monkeypatch, loop_records)


def test_column_wise_parse_of_a_pipeline_file_equals_the_loop(tmp_path, monkeypatch, pipeline_csv):
    path = tmp_path / "trades.csv"
    path.write_bytes(b"".join(pipeline_csv.read_bytes().splitlines(keepends=True)[:5001]))
    trades, _ = _parse_both(path, monkeypatch, loop_records=0)
    assert len(trades) == 5000 and len(trades.trader_ids) > 100


@pytest.mark.parametrize("rows, loop_records", [
    (ROWS * 2, 0),  # two full chunks, then an empty read
    (ROWS + [""] * 3 + ROWS[:1], 0),  # a chunk of blank lines only
    # a quoted field across a chunk boundary: its second line is not a trade
    (ROWS[:2] + ['c,1704099600002,EURUSD,5,1.1,"note', 'd,1704099600003,EURUSD,5,1.1,end"'], 3),
    (ROWS + ['"a",1704103200000,EURUSD,-2000,1.1'], 0),  # a quote in the last chunk
    # the loop takes over from the chunk holding the reject, and only from there
    (ROWS + ["", "z,1704099600009,EURUSD,-3,1.1", "a,1704099600005,EURUSD,0,1.1", ROWS[2]], 3),
], ids=["exact-multiple", "blank-chunk", "quote-across-chunks", "quote-in-last-chunk", "late-reject"])
def test_column_wise_parse_across_chunks(tmp_path, monkeypatch, rows, loop_records):
    monkeypatch.setattr(tfio, "_PARSE_CHUNK", 3)
    path = tmp_path / "trades.csv"
    path.write_text(HEADER + "\n".join(rows) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns when a chunk holds no data
        _parse_both(path, monkeypatch, loop_records)


def test_the_loop_numbers_the_lines_after_the_chunks_it_takes_over_from(monkeypatch):
    # chunks of 3 lines: 2-4 and 5-7 (two of them blank) are clean, 8-10 holds the reject on line 9
    monkeypatch.setattr(tfio, "_PARSE_CHUNK", 3)
    text = HEADER + "\n".join(ROWS + ["", "z,1704099600009,EURUSD,-3,1.1", "", ROWS[0],
                                      "a,1704099600005,EURUSD,0,1.1", ROWS[1]]) + "\n"
    trades, rejects = parse_trades(text, max_reject_fraction=1.0)
    assert len(trades) == 6 and trades.trader_ids == ("a", "b", "c", "z")
    assert [(r.line_no, r.reason) for r in rejects] == [(9, "zero signed_volume")]


def test_column_wise_parse_stays_in_bounded_memory(monkeypatch, pipeline_csv):
    # reading the whole file at once, as one str, would peak at several times the loop's arrays
    def peak():
        with open(pipeline_csv, newline="") as fh:
            tracemalloc.start()
            try:
                trades, _ = parse_trades(fh)
                return len(trades), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    n, column_peak = peak()
    monkeypatch.setattr(tfio, "_parse_clean", _loop_only)
    n_loop, loop_peak = peak()
    assert n == n_loop > 20_000
    assert column_peak <= 1.5 * loop_peak, (column_peak, loop_peak)


def test_grid_session_shape():
    grid = build_grid("2024-01-01", "2024-01-08")
    # 2024-01-01 is a Monday: 5 weekdays, 7 one-hour slices each
    assert len(grid) == 35
    assert grid.n_days == 5
    assert set(grid.local_hour.tolist()) == set(range(9, 16))
    # within a day, consecutive; across days, a gap
    contig = grid.contiguous_with_previous()
    assert not contig[0]
    assert contig[1:7].all()
    assert not contig[7]


def test_grid_weekends_excluded_by_default():
    grid = build_grid("2024-01-06", "2024-01-08")  # Sat, Sun
    assert len(grid) == 0
    grid = build_grid("2024-01-06", "2024-01-08", include_weekends=True)
    assert len(grid) == 14


@pytest.mark.parametrize("minutes", [0, -60])
def test_grid_refuses_non_positive_slice_duration(minutes):
    # such a slice never advances the session cursor
    with pytest.raises(ValueError, match="slice duration must be positive"):
        build_grid("2024-01-01", "2024-01-02", slice_duration=timedelta(minutes=minutes))


def test_grid_crosses_dst_change():
    # London switches to BST on 2024-03-31 (a Sunday)
    grid = build_grid("2024-03-29", "2024-04-02")
    fri = grid.starts[grid.day_index == 0]
    mon = grid.starts[grid.day_index == 1]
    # 09:00 local differs by one hour in UTC terms across the change
    assert (mon[0] - fri[0]) % (24 * 3600 * 1000) == 23 * 3600 * 1000


def test_day_bounds_across_a_weekend_and_of_an_empty_grid():
    # Thursday to Tuesday: four trading days of seven hourly slices, none on the weekend
    grid = build_grid("2024-01-04", "2024-01-10")
    b = grid.day_bounds()
    assert b == [0, 7, 14, 21, 28] and all(type(x) is int for x in b)
    for d in range(grid.n_days):
        assert (grid.day_index[b[d]:b[d + 1]] == d).all()
    # a window's grid keeps the full grid's day numbers; its bounds are its own slice indices
    assert grid.window(3, 17).day_bounds() == [0, 4, 11, 14]
    assert build_grid("2024-01-06", "2024-01-08").day_bounds() == [0]  # a weekend alone holds no slice


def test_classify_states_buckets_and_rule():
    grid = build_grid("2024-01-01", "2024-01-02")
    t0 = int(grid.starts[0])
    text = HEADER + "\n".join(
        [
            f"buyer,{t0 + 1000},EURUSD,1000,1.1",
            f"seller,{t0 + 1000},EURUSD,-1000,1.1",
            f"mixed,{t0 + 1000},EURUSD,1000,1.1",
            f"mixed,{t0 + 2000},EURUSD,-1000,1.1",
            f"outside,{t0 - 1000},EURUSD,1000,1.1",
        ]
    )
    trades, _ = parse_trades(text)
    m = classify_states(trades, grid)
    assert m.traders == ["buyer", "mixed", "outside", "seller"]
    assert m.sigma[m.index_of("buyer"), 0] == 1
    assert m.sigma[m.index_of("seller"), 0] == -1
    assert m.sigma[m.index_of("mixed"), 0] == 2
    assert (m.sigma[m.index_of("outside")] == 0).all()
    assert m.counts[m.index_of("mixed"), 0] == 2


def test_classify_rejects_out_of_range_rho0():
    grid = build_grid("2024-01-01", "2024-01-02")
    with pytest.raises(ValueError):
        classify_states([], grid, rho0=0.5)
    with pytest.raises(ValueError):
        classify_states([], grid, rho0=0.001)


@given(
    volumes=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).filter(lambda v: v != 0),
        min_size=1,
        max_size=20,
    ),
    rho0=st.floats(min_value=0.01, max_value=0.1),
)
@settings(max_examples=200)
def test_state_rule_total_and_consistent(volumes, rho0):
    V = np.array([[sum(volumes)]])
    G = np.array([[sum(abs(v) for v in volumes)]])
    sigma = states_from_volumes(V, G, rho0)[0, 0]
    rho = V[0, 0] / G[0, 0]
    if rho > rho0:
        assert sigma == 1
    elif rho < -rho0:
        assert sigma == -1
    else:
        assert sigma == 2


def test_state_rule_boundary_is_neutral():
    V = np.array([[0.01], [-0.01], [0.011]])
    G = np.array([[1.0], [1.0], [1.0]])
    sigma = states_from_volumes(V, G, 0.01)
    assert sigma[0, 0] == 2
    assert sigma[1, 0] == 2
    assert sigma[2, 0] == 1


def test_inactive_when_no_volume():
    sigma = states_from_volumes(np.zeros((1, 3)), np.zeros((1, 3)), 0.01)
    assert (sigma == 0).all()


def _matrix_with_counts(counts):
    grid = build_grid("2024-01-01", "2024-01-02")
    n, T = len(counts), len(grid)
    c = np.zeros((n, T), dtype=np.int64)
    c[:, 0] = counts
    return StateMatrix(
        traders=[f"t{k}" for k in range(n)],
        grid=grid,
        V=np.zeros((n, T)),
        G=np.zeros((n, T)),
        sigma=np.zeros((n, T), dtype=np.int8),
        counts=c,
    )


def test_filter_active_ranks_and_thresholds():
    m = _matrix_with_counts([5, 300, 120, 120, 99])
    out = filter_active(m, top_n=2, min_trades=100)
    assert out.traders == ["t1", "t2"]  # tie at 120 broken by id, t2 before t3
    out = filter_active(m, top_n=10, min_trades=100)
    assert out.traders == ["t1", "t2", "t3"]


def test_filter_active_takes_the_rows_of_the_traders_it_keeps():
    # ids of mixed types, listed out of order: the kept traders come sorted by str, each with its own rows
    m = _matrix_with_counts([150, 300, 5, 120, 200])
    m.traders = ["t9", 10, "t0", "t10", 2]
    m.V[:] = np.arange(5)[:, None]
    m.sigma[:] = np.arange(5)[:, None]
    out = filter_active(m, top_n=4, min_trades=100)
    assert out.traders == [10, 2, "t10", "t9"]
    expected = m.select_traders(out.traders)
    for name in ("V", "G", "sigma", "counts"):
        assert np.array_equal(getattr(out, name), getattr(expected, name)), name
    assert out.V[:, 0].tolist() == [1, 4, 3, 0]


def test_filter_active_recounts_after_windowing():
    grid = build_grid("2024-01-01", "2024-01-03")
    n, T = 2, len(grid)
    c = np.zeros((n, T), dtype=np.int64)
    c[0, 0] = 500  # active only on day one
    c[1, :] = 30  # steady
    m = StateMatrix(
        traders=["a", "b"], grid=grid, V=np.zeros((n, T)), G=np.zeros((n, T)),
        sigma=np.zeros((n, T), dtype=np.int8), counts=c,
    )
    day2 = m.slice_window(7, 14)
    out = filter_active(day2, top_n=10, min_trades=100)
    assert out.traders == ["b"]


def test_tail_fit_recovers_exponent():
    rng = np.random.default_rng(0)
    u = rng.random(20_000)
    x = np.floor(0.5 * (1 - u) ** (-1.0) + 0.5)  # alpha = 2
    fit = fit_tail_exponent(x)
    assert 1.9 < fit.alpha < 2.1
    assert fit.ci_low < fit.alpha < fit.ci_high


def test_tail_fit_refuses_small_or_degenerate():
    with pytest.raises(TailFitError):
        fit_tail_exponent(np.arange(1, 100))
    with pytest.raises(TailFitError):
        fit_tail_exponent(np.full(2000, 7.0))


def test_size_histogram_tail_counts():
    grid = build_grid("2024-01-01", "2024-01-02")
    t0 = int(grid.starts[0])
    text = HEADER + "\n".join(
        f"a,{t0 + k},EURUSD,{v},1.1" for k, v in enumerate([500, -1500, 2500, 900])
    )
    trades, _ = parse_trades(text)
    rows = trade_size_histogram(trades, 1000.0)
    assert rows == [(0.0, 2, 4), (1000.0, 1, 2), (2000.0, 1, 1)]
