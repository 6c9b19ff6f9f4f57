import argparse
import ast
import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import typing
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest
import yaml

import tradeflow
from tradeflow import cli
from tradeflow import io as tfio
from tradeflow.cli import RunConfig, main
from tradeflow.learn import ForestConfig
from tradeflow.predict import CalibrationSchedule
from tradeflow.svn import FdrConfig

SMALL_CONFIG = {
    "top_n": 100,
    "min_trades": 20,
    "window_lengths": [15, 20],
    "n_trees": 15,
    "seed": 9,
    "stability_window": 10,
    "stability_step": 5,
    "market": {
        "group_sizes": [5, 5, 5],
        "n_noise_traders": 5,
        "sync_fidelity": 0.95,
        "copy_fidelity": 0.9,
        "leadlag_edges": [{"leader": 0, "follower": 1}],
        "n_weekdays": 25,
        "kappa": 0.0005,
    },
}


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("cfg")
    p = d / "config.yaml"
    p.write_text(yaml.safe_dump(SMALL_CONFIG))
    return str(p)


def test_config_defaults_and_validation(tmp_path):
    cfg = RunConfig()
    assert cfg.slice_minutes == 60
    assert cfg.rho0 == 0.01
    assert cfg.p0 == 0.05
    assert cfg.top_n == 500
    assert cfg.min_trades == 100
    assert list(cfg.window_lengths) == list(range(45, 91, 5))
    assert cfg.session_start == "09:00" and cfg.session_end == "16:00"
    assert cfg.timezone == "Europe/London"

    bad = tmp_path / "bad.yaml"
    bad.write_text("rho0: 0.5\n")
    with pytest.raises(SystemExit, match="rho0"):
        RunConfig.load(str(bad))
    bad.write_text("not_a_key: 1\n")
    with pytest.raises(SystemExit, match="unknown keys"):
        RunConfig.load(str(bad))
    # values the library would reject mid-pipeline fail at load time
    # and so do values that would hang a run (slice_minutes, stability_step),
    # corrupt it silently (stability_window, n_trees, min_node_size) or crash it (lag_depth,
    # histogram_bin)
    for text in (
        "recalibrate_every: 0\n", "p0: 1.5\n", "window_lengths: [50, 45]\n",
        "slice_minutes: 0\n", "slice_minutes: -30\n", "stability_step: 0\n", "stability_window: 0\n",
        "n_trees: 0\n", "min_node_size: 0\n", "lag_depth: 0\n", "histogram_bin: 0\n",
        # a date range needs both ends, and both must parse
        "start_date: '2024-01-01'\n", "end_date: '2024-02-01'\n",
        "start_date: 'not-a-date'\nend_date: '2024-02-01'\n", "start_date: '2024-01-01'\nend_date: '2024-02-30'\n",
        "start_date: 2024-01-01\nend_date: 1\n",
        # an unquoted impossible date, a YAML syntax error and values of the wrong type
        "start_date: 2024-02-30\nend_date: 2024-03-01\n", "top_n: [1\n", "top_n: abc\n", "window_lengths: 45\n",
        # windows shorter than the 50 slices the co-occurrence tests need (7 slices a day)
        "window_lengths: [5]\n", "window_lengths: [5, 45]\n", "stability_window: 5\n",
        # an unknown zone, market blocks that synth would crash on, no window at all and a config that maps nothing
        "timezone: Mars/Olympus\n", "market: {bogus: 1}\n", "market: {seed: 3}\n", "market: {n_weekdays: 0}\n",
        "market: {n_noise_traders: -1}\n", "market: {member_rate: -1}\n", "market: {neutral_prob: 2}\n",
        "market: {start_date: bogus}\n", "market: {leadlag_edges: [{leader: 0.5, follower: 1}]}\n",
        "window_lengths: []\n", "- seed\n", "5\n",
        # numpy refuses these seeds only once synth draws
        "seed: -1\n", "seed: 1.5\n", "seed: '7'\n",
    ):
        bad.write_text(text)
        with pytest.raises(SystemExit, match="config error"):
            RunConfig.load(str(bad))


@pytest.mark.parametrize("key, value", [
    ("top_n", 10.5), ("top_n", True), ("n_trees", 2.5), ("recalibrate_every", 1.5), ("lag_depth", 1.5),
    ("stability_step", 2.5), ("min_node_size", 2.5), ("slice_minutes", 30.5), ("min_trades", "100"),
    ("window_lengths", [45.5, 50]), ("window_lengths", [45, True]), ("include_weekends", "false"),
    ("include_weekends", 0), ("histogram_bin", float("inf")), ("histogram_bin", True), ("rho0", "0.05"),
    ("instrument", 5), ("session_end", 960), ("start_date", 20240101), ("window_lengths", 45),
])
def test_config_refuses_values_of_the_wrong_type(tmp_path, key, value):
    # each of these loaded: a fractional count crashed a stage after ingest, 30.5-minute slices were built
    # while states_meta.json recorded 30, the truthy string "false" included weekends, an infinite
    # histogram_bin gave a nan bin, instrument 5 dropped every trade, and an unquoted session_end: 16:00
    # (the YAML integer 960) failed inside fromisoformat
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({key: value}))
    with pytest.raises(SystemExit, match=f"^config error: {key} must be"):
        RunConfig.load(str(config))


def test_every_library_config_field_is_a_run_config_key():
    # a library option that no config key reaches could only ever be set by tests
    # and one annotated otherwise would not be checked as the library reads it
    hints = typing.get_type_hints(RunConfig)
    for config in (ForestConfig, CalibrationSchedule, FdrConfig):
        for name, kind in typing.get_type_hints(config).items():
            assert hints.get(name) == kind, f"{config.__name__}.{name}"


def test_config_date_range_loads(tmp_path):
    good = tmp_path / "good.yaml"
    # quoted, or unquoted so that YAML reads dates
    for text in ("start_date: '2024-01-01'\nend_date: '2024-02-01'\n",
                 "start_date: 2024-01-01\nend_date: 2024-02-01\n"):
        good.write_text(text)
        assert len(cli._grid_from(RunConfig.load(str(good)), None)) == 23 * 7


def test_instrument_filter_keeps_only_its_traders(tmp_path):
    path = tmp_path / "trades.csv"
    path.write_text(
        "trader_id,timestamp,instrument,signed_volume,price\n"
        "a,1704103200000,EURUSD,1000,1.1\nb,1704103200001,GBPUSD,-1000,1.3\nc,1704103200002,EURUSD,-500,1.1\n"
    )
    trades, rejects = cli._load_trades(path, "EURUSD")
    assert rejects == [] and len(trades) == 2
    assert [trades.trader_ids[c] for c in trades.trader] == ["a", "c"]
    assert trades.signed_volume.tolist() == [1000.0, -500.0]
    grid = cli._grid_from(RunConfig(), trades)
    assert cli.classify_states(trades, grid).traders == ["a", "c"]
    assert len(cli._load_trades(path, "USDJPY")[0]) == 0
    assert len(cli._load_trades(path)[0]) == 3


def test_config_hash_tracks_content(tmp_path):
    a = RunConfig(seed=1).config_hash()
    b = RunConfig(seed=2).config_hash()
    assert a != b
    assert RunConfig(seed=1).config_hash() == a


def test_missing_upstream_artifact_names_stage(tmp_path, cfg_path):
    with pytest.raises(SystemExit, match="ingest"):
        main(["svn", "--config", cfg_path, "--states", str(tmp_path / "nope"), "--out", str(tmp_path)])


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory, cfg_path):
    d = tmp_path_factory.mktemp("run")
    market = d / "market"
    out = d / "out"
    assert main(["synth", "--config", cfg_path, "--out", str(market)]) == 0
    assert main(["pipeline", "--config", cfg_path, "--trades", str(market / "trades.csv"), "--out", str(out)]) == 0
    return market, out


def test_pipeline_produces_all_artifacts(pipeline_run):
    _, out = pipeline_run
    for name in (
        "states.csv", "states_meta.json", "svn_edges.csv", "partition.csv",
        "leadlag_edges.csv", "forecasts_flow.csv", "forecasts_vwap.csv",
        "performance_flow.csv", "report.json", "manifest.json",
    ):
        assert (out / name).exists(), name


def test_pipeline_manifest_checksums(pipeline_run, cfg_path):
    _, out = pipeline_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == RunConfig.load(cfg_path).config_hash()
    assert "states.csv" in manifest["outputs"]
    from tradeflow.io import file_checksum

    assert manifest["outputs"]["states.csv"] == file_checksum(out / "states.csv")


def test_pipeline_report_structure(pipeline_run):
    _, out = pipeline_run
    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"flow", "vwap"}
    flow = report["flow"]
    assert flow["n_slices"] > 0
    assert "accuracy" in flow
    assert "hourly" in flow


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_pipeline_evaluation_is_pinned(pipeline_run):
    _, out = pipeline_run
    names = ("svn_edges.csv", "svn_meta.json", "partition.csv", "leadlag_edges.csv", "leadlag_meta.json",
             "leadlag_lambda.csv", "report.json", "performance_flow.csv", "performance_vwap.csv")
    # the network files hold 93 SVN links and 3 lead-lag edges, so both edge writers are pinned
    assert {name: _sha256(out / name) for name in names} == {
        "svn_edges.csv": "36c156d1651d6e148d12019a9f03a8bcf5083fb15b1af0e629cb8b484f6ed35f",
        "svn_meta.json": "f5f6de363fccfc16c89fe7460ad27d607ac3770fe86c5609826a2cf27b3220dd",
        "partition.csv": "30c1c07c9c896862a3db89bf316563c2947545525c865bb56576fca551e316d8",
        "leadlag_edges.csv": "ff189e63e17c8260ef9ef40d8509d7b94c8c2a5cd341a947b4ce99e94c5a4fd9",
        "leadlag_meta.json": "9675ce403356c566597357d98449557ca68a136fd05e2f0f7a20754901b93591",
        "leadlag_lambda.csv": "e184b60eb6794ef267f8bccd2d43a53d8c725271e9ab09536733fd1994cd3181",
        "report.json": "753c6640060016086829f1171e4d55e092da93d2f663f8424b5794309ffe2402",
        "performance_flow.csv": "5426a96dcc51d664b53ca5d01ad8a6ea43ea7393891c64ae6a77b9f021b27c13",
        "performance_vwap.csv": "5ac4461d6559ade60ba028f76a1cbc8d230fde0add680ebe9952798d8ec806bf",
    }


def test_stability_command(pipeline_run, cfg_path, tmp_path):
    _, out = pipeline_run
    stab = tmp_path / "stab"
    assert main(["stability", "--config", cfg_path, "--states", str(out), "--out", str(stab)]) == 0
    assert {p.name: _sha256(p) for p in stab.iterdir()} == {
        "ari.csv": "fe0b9077cb9cf835c35fad0733273bc974162e2b2f08a9d25343b642190fe04b",
        "beta.csv": "fe0b9077cb9cf835c35fad0733273bc974162e2b2f08a9d25343b642190fe04b",
        "partition_latest.csv": "30c1c07c9c896862a3db89bf316563c2947545525c865bb56576fca551e316d8",
        "river.csv": "3571530cbabe8d4de80a42fde09f1f0f799bbea8df5f350a74a4734829f96188",
    }


def test_stability_command_on_churning_partitions(tmp_path):
    # the market above keeps every ARI and beta at 1.0; this one makes the
    # relabelling, the ARI and the river all do real work
    cfg = tmp_path / "churn.yaml"
    cfg.write_text(yaml.safe_dump({
        "seed": 1, "stability_window": 10, "stability_step": 3, "min_trades": 15,
        "market": {"group_sizes": [4] * 8, "n_noise_traders": 10, "sync_fidelity": 0.65, "member_rate": 2.0,
                   "n_weekdays": 35, "leadlag_edges": [{"leader": 0, "follower": 1}, {"leader": 2, "follower": 3}],
                   "copy_fidelity": 0.9},
    }))
    d, stab = tmp_path / "market", tmp_path / "stab"
    assert main(["synth", "--config", str(cfg), "--out", str(d)]) == 0
    assert main(["ingest", "--config", str(cfg), "--trades", str(d / "trades.csv"), "--out", str(d)]) == 0
    assert main(["stability", "--config", str(cfg), "--states", str(d), "--out", str(stab)]) == 0
    assert {p.name: _sha256(p) for p in stab.iterdir()} == {
        "ari.csv": "0dded173d77164b2a4f1933d6d167bb7af71fc8c97016b2e604edfc4c1208a9b",
        "beta.csv": "af2c4730bdd3425a8036029ba219b4127b52e1680321b82b7f099049ff564f98",
        "partition_latest.csv": "d64f39717366a7075a9328d5bfb5bd5e62a27c70417e8447f4dcc16dd9d4e8ae",
        "river.csv": "a500642a5720d6a41510fbbb8ce845df20e99751fbd61af95a7766f1f168b56f",
    }
    ari = [float(row.split(",")[1]) for row in (stab / "ari.csv").read_text().splitlines()[1:]]
    assert len(ari) == 8 and sum(v < 1.0 for v in ari) == 4
    assert {row.split(",")[1] for row in (stab / "beta.csv").read_text().splitlines()[1:]} == {"1.0", "0.0", ""}
    river = [tuple(map(int, row.split(","))) for row in (stab / "river.csv").read_text().splitlines()[1:]]
    assert max(to for _, _, to, _ in river) == 14  # fresh labels from 9 on
    assert {(2, 3, 3, 2), (2, 3, 9, 1)} <= set(river)  # group 3 splits
    assert {(2, 8, 5, 2), (2, 5, 5, 2)} <= set(river)  # groups 8 and 5 merge


# runs every stage in a fresh interpreter, then the whole pipeline, noting after each whether scipy.stats is loaded
_STAGES_SCRIPT = """
import json, sys
import tradeflow, tradeflow.cli
cfg, d = sys.argv[1], sys.argv[2]
loaded = {"import": "scipy.stats" in sys.modules}
for argv in (["synth", "--out", d], ["ingest", "--trades", d + "/trades.csv", "--out", d],
             ["svn", "--states", d, "--out", d], ["communities", "--edges", d + "/svn_edges.csv", "--out", d],
             ["leadlag", "--states", d, "--partition", d + "/partition.csv", "--out", d],
             ["stability", "--states", d, "--out", d + "/stab"],
             ["forecast", "--states", d, "--trades", d + "/trades.csv", "--out", d],
             ["evaluate", "--forecasts", d, "--out", d],
             ["pipeline", "--trades", d + "/trades.csv", "--out", d + "/pipe"]):
    assert tradeflow.cli.main([argv[0], "--config", cfg, *argv[1:]]) == 0
    loaded[argv[0]] = "scipy.stats" in sys.modules
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy_stats(cfg_path, tmp_path):
    src = str(Path(tradeflow.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", _STAGES_SCRIPT, cfg_path, str(tmp_path)],
                         env=env, capture_output=True, text=True, check=True)
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded == {"import": False, "synth": False, "ingest": False, "svn": False, "communities": False,
                      "leadlag": False, "stability": False, "forecast": False, "evaluate": False,
                      "pipeline": False}


def test_no_module_imports_scipy_stats():
    # a function-level import that no command reaches would pass the test above
    for path in Path(tradeflow.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not [m for m in names if m == "scipy.stats" or m.startswith("scipy.stats.")], path.name


def test_pipeline_on_a_market_with_no_validated_link(tmp_path):
    # noise traders only: no link validates, so there is no group to lead or
    # lag, every forecast abstains and the t statistic of the all-zero products is NaN
    cfg = tmp_path / "null.yaml"
    cfg.write_text(yaml.safe_dump({
        "market": {"group_sizes": [], "n_noise_traders": 300, "n_weekdays": 20},
        "top_n": 100, "min_trades": 20, "window_lengths": [10], "recalibrate_every": 10, "n_trees": 5, "seed": 3,
    }))
    market, out = tmp_path / "market", tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--out", str(market)]) == 0
    assert main(["pipeline", "--config", str(cfg), "--trades", str(market / "trades.csv"), "--out", str(out)]) == 0
    assert json.loads((out / "svn_meta.json").read_text())["n_edges"] == 0
    assert json.loads((out / "leadlag_meta.json").read_text())["groups"] == []

    def refuse(constant):
        raise ValueError(f"report.json holds {constant}, which is not JSON")

    report = json.loads((out / "report.json").read_text(), parse_constant=refuse)
    assert report["flow"]["t"] is None and "variance" in report["flow"]["location_note"]


FORECAST_HEADER = "slice_end,window_length,predicted,combined,realized_sign,realized_flow,realized_vwap_sign\n"


def _crafted_forecasts():
    """Hour 9: 40 slices, 20 predicted; hour 10: 40, all predicted; hour 11: 5 (London is on UTC in January)."""
    rows = []
    for hour, n, n_pred in ((9, 40, 20), (10, 40, 40), (11, 5, 5)):
        for k in range(n):
            flow = ((k * 7919 + hour * 104729) % 2001 - 1000) / 8.0 or 0.5
            sign = 1 if flow > 0 else -1
            pred = (sign if k % 3 else -sign) if k < n_pred else 0
            end = f"2024-01-{k % 28 + 1:02d}T{hour + 1:02d}:{k // 28:02d}:00+00:00"
            rows.append(f"{end},45,{pred},{pred},{sign},{flow!r},\n")
    return FORECAST_HEADER + "".join(rows)


def test_evaluate_report_is_pinned(tmp_path):
    reports = {}
    for label, text in (("crafted", _crafted_forecasts()), ("empty", FORECAST_HEADER)):
        d = tmp_path / label
        d.mkdir()
        (d / "forecasts_flow.csv").write_text(text)
        assert main(["evaluate", "--forecasts", str(d), "--out", str(d)]) == 0
        reports[label] = json.loads((d / "report.json").read_text())["flow"]
        reports[label]["sha256"] = _sha256(d / "report.json"), _sha256(d / "performance_flow.csv")
    crafted = reports["crafted"]
    # 40 rows but only 20 non-zero predictions: the Chou-Chu test cannot run, and the hour's note says why
    assert list(crafted["hourly"]["9"]) == ["n", "chou_chu", "chou_chu_note", "t", "wilcoxon"]
    assert crafted["hourly"]["9"]["chou_chu"] is None and crafted["hourly"]["9"]["t"]["n"] == 40
    assert crafted["hourly"]["9"]["chou_chu_note"] == "need n >= 30 binary pairs, got 20"
    assert list(crafted["hourly"]["10"]) == ["n", "chou_chu", "t", "wilcoxon"]
    assert crafted["hourly"]["10"]["chou_chu"]["n"] == 40
    assert crafted["hourly_omitted"] == {"11": "only 5 observations (need 30)"}
    assert crafted["sha256"] == ("8ad461ec8c9c1832f3bc1dfc9ed261ffeda4d1a7a123acc7f2e49fd6471566d4",
                                 "90b1c4b1b420f0f8a0272a48546a29bc5390d6a19cdcf596cfe26d8d442f91fb")
    assert reports["empty"] == {
        "n_slices": 0, "target": "flow",
        "chou_chu": None, "chou_chu_note": "need n >= 30 binary pairs, got 0",
        "t": None, "wilcoxon": None, "location_note": "need n >= 10 values, got 0",
        "hourly": {}, "hourly_omitted": {},
        "sha256": ("878a4715de8cd599c1cdf6b5d73ddfd0dee1df719de602962cbaa1c29e244f5e",
                   "357b73d88a35be51db85892e00428ffbf64719241cfcc1d5f072b42ac2c62e57"),
    }
    assert list(reports["empty"])[:7] == ["n_slices", "target", "chou_chu", "chou_chu_note", "t", "wilcoxon",
                                          "location_note"]


def test_synth_ground_truth_written(pipeline_run):
    market, _ = pipeline_run
    truth = json.loads((market / "ground_truth.json").read_text())
    assert set(truth) == {"partition", "leadlag_edges", "intended_states"}
    assert sorted(set(truth["partition"].values())) == [1, 2, 3]


def test_pipeline_equals_the_stages(pipeline_run, cfg_path, tmp_path):
    market, out = pipeline_run
    trades, staged = str(market / "trades.csv"), str(tmp_path)
    for argv in (
        ["ingest", "--trades", trades],
        ["svn", "--states", staged],
        ["communities", "--edges", str(tmp_path / "svn_edges.csv")],
        ["leadlag", "--states", staged, "--partition", str(tmp_path / "partition.csv")],
        ["forecast", "--states", staged, "--trades", trades],
        ["evaluate", "--forecasts", staged],
    ):
        assert main([*argv, "--config", cfg_path, "--out", staged]) == 0
    names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_pipeline_parses_once_and_reads_nothing_back(pipeline_run, cfg_path, tmp_path, monkeypatch):
    market, _ = pipeline_run
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(cli, "parse_trades", counted("parse_trades", cli.parse_trades))
    monkeypatch.setattr(tfio, "read_svn_edges", counted("read_svn_edges", tfio.read_svn_edges))
    monkeypatch.setattr(tfio, "read_state_matrix", counted("read_state_matrix", tfio.read_state_matrix))
    monkeypatch.setattr(tfio, "read_partition", counted("read_partition", tfio.read_partition))
    monkeypatch.setattr(RunConfig, "load", classmethod(counted("RunConfig.load", RunConfig.load.__func__)))
    monkeypatch.setattr(argparse, "Namespace", counted("Namespace", argparse.Namespace))
    args = SimpleNamespace(config=cfg_path, trades=str(market / "trades.csv"), out=str(tmp_path))
    assert cli.cmd_pipeline(args) == 0
    assert calls == {"parse_trades": 1, "RunConfig.load": 1}


def test_readme_cli_lines_dispatch(monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln.split("#", 1)[0].strip() for ln in block.splitlines() if ln.startswith("tradeflow ")]
    assert len(lines) >= 9
    dispatched = []
    for name in [n for n in vars(cli) if n.startswith("cmd_")]:
        monkeypatch.setattr(cli, name, lambda args, name=name: dispatched.append(name) or 0)
    for line in lines:
        argv = shlex.split(line)[1:]
        dispatched.clear()
        try:
            assert main(argv) == 0
        except SystemExit as exc:
            pytest.fail(f"argparse refused README line {line!r}: exit {exc.code}")
        assert dispatched == [f"cmd_{argv[0]}"], line


def test_readme_library_names_are_exported():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\btf\.(\w+)", block))
    assert len(names) >= 10
    assert names <= set(tradeflow.__all__), sorted(names - set(tradeflow.__all__))


def test_readme_config_block_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```yaml", 1)[1].split("```", 1)[0]
    (tmp_path / "config.yaml").write_text(block)
    cfg = RunConfig.load(str(tmp_path / "config.yaml"))  # refuses unknown keys and values
    assert (cfg.instrument, cfg.n_trees, cfg.window_lengths[-1]) == ("EURUSD", 500, 90)
    assert set(yaml.safe_load(block)) == {f.name for f in dataclasses.fields(RunConfig)}


def test_synth_command_is_pinned(tmp_path):
    # covers the mapping from a config's market block and --seed to MarketSpec
    market = {
        "group_sizes": [4, 3], "n_noise_traders": 3, "sync_fidelity": 0.9, "copy_fidelity": 0.8,
        "leadlag_edges": [{"leader": 1, "follower": 0, "invert": True}], "alpha": 1.5,
        "n_weekdays": 4, "start_date": "2024-03-04", "instrument": "GBPUSD", "member_rate": 1.5,
        "neutral_prob": 0.3, "kappa": 0.001, "price_noise": 0.0003, "base_price": 1.25,
    }
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"seed": 2, "market": market}))
    assert main(["synth", "--config", str(config), "--out", str(tmp_path), "--seed", "6"]) == 0
    assert (_sha256(tmp_path / "trades.csv"), _sha256(tmp_path / "ground_truth.json")) == (
        "fc034b00895cd0ef246918cff25c417fff44a53b8d3c6f05e943a7362b111c86",
        "31f3f7693a02c203842e932f229280c22ed3681474d5521972065d59daeb0e4d",
    )


@pytest.mark.parametrize("market, key", [
    ({"n_noise_traders": 2.5}, "n_noise_traders"),
    ({"n_noise_traders": True}, "n_noise_traders"),
    ({"member_rate": float("nan")}, "member_rate"),
    ({"member_rate": float("inf")}, "member_rate"),
    ({"n_weekdays": 2.5}, "n_weekdays"),
    ({"n_weekdays": True}, "n_weekdays"),
    ({"group_sizes": [2.5]}, "group_sizes"),
    ({"group_sizes": [3, True]}, "group_sizes"),
    ({"price_noise": -1.0}, "price_noise"),
    ({"price_noise": float("inf")}, "price_noise"),
    ({"base_price": -1.0}, "base_price"),
    ({"base_price": 0.0}, "base_price"),
    ({"base_price": float("nan")}, "base_price"),
    ({"kappa": float("inf")}, "kappa"),
    ({"kappa": float("nan")}, "kappa"),
    ({"leadlag_edges": [{"leader": 0, "follower": 1, "invert": "false"}]}, "leadlag_edges.invert"),
    ({"sync_fidelity": True}, "sync_fidelity"),
    ({"copy_fidelity": True}, "copy_fidelity"),
    ({"neutral_prob": True}, "neutral_prob"),
    ({"alpha": float("inf")}, "alpha"),
    ({"instrument": 5}, "instrument"),
    ({"start_date": 20240101}, "start_date"),
    ({"group_sizes": 6}, "group_sizes"),
    ({"leadlag_edges": 3}, "leadlag_edges"),
    ({"leadlag_edges": [[0, 1]]}, "leadlag_edges"),
])
def test_synth_refuses_market_values_it_cannot_build(tmp_path, market, key):
    # each of these crashed in numpy, built another market than asked or wrote NaN or negative prices:
    # the truthy string 'false' planted an inverted edge, and alpha .inf made every noise trader trade once
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"market": market}))
    with pytest.raises(SystemExit, match=f"^config error: {key} must be"):
        main(["synth", "--config", str(config), "--out", str(tmp_path)])
    assert not (tmp_path / "trades.csv").exists()


@pytest.mark.parametrize("market, scope, keys", [
    ({"foo": 1}, "market", ["foo"]),
    ({"seed": 3}, "market", ["seed"]),  # the run's seed seeds the market
    ({"leadlag_edges": [{"leader": 0, "follower": 1, "bar": 2}]}, "leadlag_edges", ["bar"]),
])
def test_synth_refuses_unknown_market_keys(tmp_path, market, scope, keys):
    # these failed with Python's own text on a keyword argument the dataclass does not take
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"market": market}))
    with pytest.raises(SystemExit, match=re.escape(f"config error: unknown {scope} keys {keys}")):
        main(["synth", "--config", str(config), "--out", str(tmp_path)])
    assert not (tmp_path / "trades.csv").exists()


@pytest.mark.parametrize("edge, keys", [({"leader": 0}, ["follower"]), ({"follower": 1, "invert": True}, ["leader"])])
def test_synth_refuses_a_planted_edge_without_its_ends(tmp_path, edge, keys):
    # these failed with Python's own text on a missing positional argument of PlantedEdge
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({"market": {"leadlag_edges": [edge]}}))
    with pytest.raises(SystemExit, match=re.escape(f"config error: missing leadlag_edges keys {keys}")):
        main(["synth", "--config", str(config), "--out", str(tmp_path)])
    assert not (tmp_path / "trades.csv").exists()
