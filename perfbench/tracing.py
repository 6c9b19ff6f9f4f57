"""In-memory spans around the public calls each tradeflow layer makes.

The program has no tracing of its own yet, so a traced benchmark iteration
replaces the functions that ``predict``, ``cli``, ``cli.ev`` and ``io`` look
up at call time with wrappers that record a span (name, start, end, parent)
and a few counters.  Untraced iterations run the original functions; the
wrappers are installed only for the duration of a traced iteration.

Span names are ``<layer>.<function>``.  The layer is the module whose work
the function does, which is not always the module that defines it:
``cli.cmd_stability`` holds the windowed stability loop and is traced as
``stability.cmd_stability``; ``cli._read_svn_edges`` reads a CSV and is
traced as ``io._read_svn_edges``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same trace, or None


class Tracer:
    """Spans and counters of one traced iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._seen: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, key, n=1):
        self.counters[key] += n

    def seen_before(self, kind, key) -> bool:
        """Record ``key`` under ``kind``; True when it was recorded already."""
        seen = key in self._seen[kind]
        self._seen[kind].add(key)
        return seen

    def in_span(self, prefix) -> bool:
        return any(self.spans[k].name.startswith(prefix) for k in self._stack)


# --- counters observed on each wrapped call ------------------------------------


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _obs_parse(tr, fn, args, kwargs, result):
    tr.count("ingest.trades", len(result[0]))


def _obs_filter(tr, fn, args, kwargs, result):
    if tr.in_span("stability.cmd_stability"):
        tr.count("stability.windows")


def _obs_svn(tr, fn, args, kwargs, result):
    matrix = _bound(fn, args, kwargs)["matrix"]
    grid = matrix.grid
    window = (int(grid.starts[0]), int(grid.ends[-1])) if len(grid) else (0, 0)
    key = (window, tuple(matrix.traders))
    tr.count("svn.repeats", tr.seen_before("svn", key))
    tr.count("svn.tests", result.n_tests)
    tr.count("svn.edges", len(result.edges))


def _obs_community(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    graph = a["graph"]
    blob = repr((graph.nodes, graph.adj, a["seed"], a["n_restarts"])).encode()
    tr.count("community.repeats", tr.seen_before("community", hashlib.sha256(blob).digest()))
    tr.count("community.nodes", graph.n_nodes)
    tr.count("community.groups", len(set(result.values())))


def _obs_leadlag(tr, fn, args, kwargs, result):
    tr.count("leadlag.edges", len(result.edges))


def _obs_train(tr, fn, args, kwargs, result):
    tr.count("learn.trees", len(result.trees))
    tr.count("learn.train_rows", result.n_rows)


def _obs_calibrate(tr, fn, args, kwargs, result):
    tr.count("predict.models", result.model is not None)


def _obs_forecast(tr, fn, args, kwargs, result):
    records, _ = result
    tr.count("predict.slices", len(records))
    tr.count("predict.abstain_slices", sum(1 for r in records if r.combined == 0))


def _obs_chou_chu(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if a["method"] == "permutation":
        tr.count("evaluate.permutations", a["n_permutations"])


def _obs_ari(tr, fn, args, kwargs, result):
    tr.count("stability.ari_points")


# (module, attribute, span name, observer).  Every attribute is looked up by
# its caller at call time, so replacing it on the module reroutes the call.
WRAPPED = [
    ("tradeflow.cli", "cmd_ingest", "cli.cmd_ingest", None),
    ("tradeflow.cli", "cmd_svn", "cli.cmd_svn", None),
    ("tradeflow.cli", "cmd_communities", "cli.cmd_communities", None),
    ("tradeflow.cli", "cmd_leadlag", "cli.cmd_leadlag", None),
    ("tradeflow.cli", "cmd_forecast", "cli.cmd_forecast", None),
    ("tradeflow.cli", "cmd_evaluate", "cli.cmd_evaluate", None),
    ("tradeflow.cli", "cmd_pipeline", "cli.cmd_pipeline", None),
    ("tradeflow.cli", "cmd_stability", "stability.cmd_stability", None),
    ("tradeflow.cli", "parse_trades", "ingest.parse_trades", _obs_parse),
    ("tradeflow.cli", "classify_states", "ingest.classify_states", None),
    ("tradeflow.cli", "filter_active", "ingest.filter_active", _obs_filter),
    ("tradeflow.cli", "fit_tail_exponent", "ingest.fit_tail_exponent", None),
    ("tradeflow.cli", "trade_size_histogram", "ingest.trade_size_histogram", None),
    ("tradeflow.cli", "build_svn", "svn.build_svn", _obs_svn),
    ("tradeflow.cli", "_read_svn_edges", "io._read_svn_edges", None),
    ("tradeflow.cli", "project_weighted", "community.project_weighted", None),
    ("tradeflow.cli", "detect_communities", "community.detect_communities", _obs_community),
    ("tradeflow.cli", "map_equation_codelength", "community.map_equation_codelength", None),
    ("tradeflow.cli", "aggregate_groups", "leadlag.aggregate_groups", None),
    ("tradeflow.cli", "build_leadlag", "leadlag.build_leadlag", _obs_leadlag),
    ("tradeflow.cli", "expand_trader_leadlag", "leadlag.expand_trader_leadlag", None),
    ("tradeflow.cli", "rolling_forecast", "predict.rolling_forecast", _obs_forecast),
    ("tradeflow.cli", "relabel_partition", "stability.relabel_partition", None),
    ("tradeflow.cli", "adjusted_rand_index", "stability.adjusted_rand_index", _obs_ari),
    ("tradeflow.cli", "leadlag_overlap_beta", "stability.leadlag_overlap_beta", None),
    ("tradeflow.cli", "export_river", "stability.export_river", None),
    ("tradeflow.predict", "rolling_forecast", "predict.rolling_forecast", _obs_forecast),
    ("tradeflow.predict", "_calibrate", "predict._calibrate", _obs_calibrate),
    ("tradeflow.predict", "filter_active", "ingest.filter_active", _obs_filter),
    ("tradeflow.predict", "build_svn", "svn.build_svn", _obs_svn),
    ("tradeflow.predict", "project_weighted", "community.project_weighted", None),
    ("tradeflow.predict", "detect_communities", "community.detect_communities", _obs_community),
    ("tradeflow.predict", "aggregate_groups", "leadlag.aggregate_groups", None),
    ("tradeflow.predict", "train_forest", "learn.train_forest", _obs_train),
    ("tradeflow.predict", "forest_predict_batch", "learn.forest_predict_batch", None),
    ("tradeflow.evaluate", "chou_chu_test", "evaluate.chou_chu_test", _obs_chou_chu),
    ("tradeflow.evaluate", "location_tests", "evaluate.location_tests", None),
    ("tradeflow.evaluate", "hourly_condition", "evaluate.hourly_condition", None),
    ("tradeflow.evaluate", "performance_series", "evaluate.performance_series", None),
    ("tradeflow.io", "read_state_matrix", "io.read_state_matrix", None),
    ("tradeflow.io", "read_partition", "io.read_partition", None),
    ("tradeflow.io", "read_forecasts", "io.read_forecasts", None),
    ("tradeflow.io", "file_checksum", "io.file_checksum", None),
    ("tradeflow.io", "write_trades", "io.write_trades", None),
    ("tradeflow.io", "write_state_matrix", "io.write_state_matrix", None),
    ("tradeflow.io", "write_svn", "io.write_svn", None),
    ("tradeflow.io", "write_partition", "io.write_partition", None),
    ("tradeflow.io", "write_leadlag", "io.write_leadlag", None),
    ("tradeflow.io", "write_forecasts", "io.write_forecasts", None),
    ("tradeflow.io", "write_rows", "io.write_rows", None),
]


def _wrapper(tracer, name, fn, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if observe is not None:
            observe(tracer, fn, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the wrapped calls through ``tracer`` inside the ``with`` block."""
    saved = []
    try:
        for mod_name, attr, name, observe in WRAPPED:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:  # renamed or removed by a refactor: its metrics read 0
                continue
            saved.append((mod, attr, fn))
            setattr(mod, attr, _wrapper(tracer, name, fn, observe))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# --- reduction of one iteration's trace ------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def span_table(spans: list[Span]) -> dict:
    """Per span name: call count, total (inclusive) and self seconds."""
    selfs = self_times(spans)
    table: dict = {}
    for s, own in zip(spans, selfs):
        row = table.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.end - s.start
        row["self_s"] += own
    return table


def module_table(spans: list[Span], wall_s: float) -> dict:
    """Per layer: self seconds and their share of the iteration's wall time."""
    out: dict = {}
    for name, row in span_table(spans).items():
        layer = name.split(".", 1)[0]
        entry = out.setdefault(layer, {"count": 0, "self_s": 0.0})
        entry["count"] += row["count"]
        entry["self_s"] += row["self_s"]
    for entry in out.values():
        entry["share"] = entry["self_s"] / wall_s if wall_s > 0 else 0.0
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """The per-layer metrics of one traced iteration, by name (see README)."""
    table = span_table(tracer.spans)
    c = tracer.counters

    def total(*names):
        return sum(table[n]["total_s"] for n in names if n in table)

    def calls(name):
        return table[name]["count"] if name in table else 0

    def layer_self(layer):
        return sum(r["self_s"] for n, r in table.items() if n.split(".", 1)[0] == layer)

    io_names = [n for n in table if n.startswith("io.")]
    io_write = [n for n in io_names if n.startswith("io.write_")]
    parse_s = total("ingest.parse_trades")
    svn_s = total("svn.build_svn")
    train_s = total("learn.train_forest")
    n_cal = calls("predict._calibrate")
    return {
        "ingest.parse_s": parse_s,
        "ingest.classify_s": total("ingest.classify_states"),
        "ingest.filter_s": total("ingest.filter_active"),
        "ingest.filter_calls": calls("ingest.filter_active"),
        "ingest.trades_per_s": _ratio(c["ingest.trades"], parse_s),
        "io.read_s": total(*[n for n in io_names if n not in io_write]),
        "io.write_s": total(*io_write),
        "io.bytes_written": bytes_written,
        "svn.build_s": svn_s,
        "svn.calls": calls("svn.build_svn"),
        "svn.tests": c["svn.tests"],
        "svn.edges": c["svn.edges"],
        "svn.tests_per_s": _ratio(c["svn.tests"], svn_s),
        "svn.repeat_ratio": _ratio(c["svn.repeats"], calls("svn.build_svn")),
        "community.detect_s": total("community.detect_communities"),
        "community.calls": calls("community.detect_communities"),
        "community.nodes": c["community.nodes"],
        "community.groups": c["community.groups"],
        "community.repeat_ratio": _ratio(c["community.repeats"], calls("community.detect_communities")),
        "leadlag.aggregate_s": total("leadlag.aggregate_groups"),
        "leadlag.build_s": total("leadlag.build_leadlag"),
        "leadlag.edges": c["leadlag.edges"],
        "learn.train_s": train_s,
        "learn.predict_s": total("learn.forest_predict_batch"),
        "learn.trees": c["learn.trees"],
        "learn.train_rows": c["learn.train_rows"],
        "learn.trees_per_s": _ratio(c["learn.trees"], train_s),
        "predict.self_s": layer_self("predict"),
        "predict.calibrations": n_cal,
        "predict.models": c["predict.models"],
        "predict.abstain_ratio": _ratio(n_cal - c["predict.models"], n_cal),
        "predict.abstain_slice_ratio": _ratio(c["predict.abstain_slices"], c["predict.slices"]),
        "stability.self_s": layer_self("stability"),
        "stability.windows": c["stability.windows"],
        "stability.ari_points": c["stability.ari_points"],
        "evaluate.chou_chu_s": total("evaluate.chou_chu_test"),
        "evaluate.hourly_s": total("evaluate.hourly_condition"),
        "evaluate.permutations": c["evaluate.permutations"],
    }
