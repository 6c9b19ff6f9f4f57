import json

import pytest
import yaml

from tradeflow.cli import RunConfig, main

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
    for text in ("recalibrate_every: 0\n", "p0: 1.5\n", "window_lengths: [50, 45]\n"):
        bad.write_text(text)
        with pytest.raises(SystemExit, match="config error"):
            RunConfig.load(str(bad))


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


def test_stability_command(pipeline_run, cfg_path, tmp_path):
    _, out = pipeline_run
    stab = tmp_path / "stab"
    assert main(["stability", "--config", cfg_path, "--states", str(out), "--out", str(stab)]) == 0
    assert (stab / "ari.csv").exists()
    assert (stab / "beta.csv").exists()
    assert (stab / "river.csv").exists()


def test_synth_ground_truth_written(pipeline_run):
    market, _ = pipeline_run
    truth = json.loads((market / "ground_truth.json").read_text())
    assert set(truth) == {"partition", "leadlag_edges", "intended_states"}
    assert sorted(set(truth["partition"].values())) == [1, 2, 3]
