"""The benchmark's tracer (perfbench/tracing.py) reaches the program only through module globals.

It replaces each ``WRAPPED`` (module, attribute) for a traced iteration and
skips an attribute the module no longer has, so a refactor that drops or
renames a traced global makes that layer's metrics read 0 without failing.
This test fails instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# entries that already name no global: cli reads svn edges through io, and forecasts through rolling_forecasts
STALE = {("tradeflow.cli", "_read_svn_edges"), ("tradeflow.cli", "rolling_forecast")}


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing under perfbench/
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_global_resolves(monkeypatch):
    wrapped = _load_tracing(monkeypatch).WRAPPED
    missing = {(mod, attr) for mod, attr, _, _ in wrapped if not hasattr(importlib.import_module(mod), attr)}
    assert missing == STALE
