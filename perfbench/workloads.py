"""The benchmark workloads: seeded inputs, one timed iteration, output checks.

Each workload is driven through a public entry point of tradeflow: the
library's ``rolling_forecast`` (as test 06 and ``tradeflow forecast`` call
it) or the ``tradeflow`` command line (``cli.main``).  Why each workload
exists and which layer it isolates is recorded in README.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import tradeflow as tf
from tradeflow import cli
from tradeflow import io as tfio
from tradeflow import predict
from tradeflow.learn import ForestConfig
from tradeflow.stability import adjusted_rand_index
from tradeflow.synth import MarketSpec, PlantedEdge, generate_market


@dataclass
class Outcome:
    """Checks of one iteration's outputs, as (name, passed) pairs."""

    checks: list = field(default_factory=list)
    digest: str = ""
    forecast_days: int = 0

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


class ForecastAcceptance:
    """Test 06's planted market, both targets forecast in turn, library entry."""

    name = "forecast-acceptance"
    SCALES = {
        "full": {"n_weekdays": 150, "max_days": 6, "n_trees": 50, "windows": predict.DEFAULT_WINDOWS},
        "toy": {"n_weekdays": 20, "max_days": 2, "n_trees": 5, "windows": (10, 12)},
    }

    def __init__(self, scale: str):
        self.p = self.SCALES[scale]

    def prepare(self, seed: int, work: Path):
        spec = MarketSpec(group_sizes=(6,) * 5, n_noise_traders=10, sync_fidelity=0.9, neutral_prob=0.1,
                          leadlag_edges=tuple(PlantedEdge(0, g) for g in range(1, 5)),
                          copy_fidelity=0.8, n_weekdays=self.p["n_weekdays"], kappa=1e-3, seed=seed)
        trades, truth = generate_market(spec)
        with open(work / "market.pkl", "wb") as fh:
            pickle.dump((seed, tf.classify_states(trades, truth.grid), trades), fh)

    def load(self, work: Path):
        with open(work / "market.pkl", "rb") as fh:
            return pickle.load(fh)

    def run(self, market, out: Path):
        seed, matrix, trades = market
        results = {}
        for kind in ("flow", "vwap"):
            # looked up on the module at call time, so a traced run sees it
            results[kind], _ = predict.rolling_forecast(
                matrix, predict.CalibrationSchedule(self.p["windows"]), target_kind=kind, seed=seed,
                trades=trades, top_n=100, min_trades=20, forest_config=ForestConfig(n_trees=self.p["n_trees"]),
                max_days=self.p["max_days"],
            )
        return results

    def check(self, market, out: Path, results) -> Outcome:
        o = Outcome()
        lines, pred, real = [], [], []
        for kind, records in results.items():
            days = {r.slice_end // 86_400_000 for r in records}
            o.check(f"{kind}: records cover {self.p['max_days']} forecast days", len(days) == self.p["max_days"])
            o.forecast_days = len(days)
            for r in records:
                pred.append(r.combined)
                real.append(r.realized_sign if kind == "flow" else (r.realized_vwap_sign or 0))
                lines.append(f"{kind},{r.slice_index},{r.slice_end},{sorted(r.per_window.items())},"
                             f"{r.combined},{r.realized_sign},{r.realized_flow!r},{r.realized_vwap_sign}")
        pred, real = np.array(pred), np.array(real)
        both = (pred != 0) & (real != 0)
        accuracy = float(np.mean(pred[both] == real[both])) if both.any() else 0.0
        signs = real[real != 0]
        base = max(np.mean(signs == 1), np.mean(signs == -1)) if len(signs) else 1.0
        o.check(f"combined-vote accuracy {accuracy:.3f} above base rate {base:.3f}", accuracy > base)
        o.digest = _sha("\n".join(lines).encode())
        return o


class StabilityPaper:
    """``tradeflow stability`` on a state matrix of a few hundred active traders."""

    name = "stability-paper"
    SCALES = {
        "full": {"groups": 12, "members": 20, "noise": 400, "n_weekdays": 25, "window": 20, "step": 5,
                 "min_trades": 100},
        "toy": {"groups": 3, "members": 5, "noise": 20, "n_weekdays": 14, "window": 8, "step": 5, "min_trades": 20},
    }
    ARI_FLOOR = 0.8
    FILES = ("ari.csv", "beta.csv", "river.csv", "partition_latest.csv")

    def __init__(self, scale: str):
        self.p = self.SCALES[scale]

    def prepare(self, seed: int, work: Path):
        p = self.p
        spec = MarketSpec(group_sizes=(p["members"],) * p["groups"], n_noise_traders=p["noise"], alpha=1.5,
                          sync_fidelity=0.9, member_rate=1.0, n_weekdays=p["n_weekdays"], seed=seed)
        trades, truth = generate_market(spec)
        tfio.write_state_matrix(work / "states", tf.classify_states(trades, truth.grid))
        (work / "config.yaml").write_text(yaml.safe_dump({
            "stability_window": p["window"], "stability_step": p["step"], "min_trades": p["min_trades"], "seed": seed,
        }))
        (work / "truth.json").write_text(json.dumps(truth.partition))

    def load(self, work: Path):
        return {"work": work, "truth": json.loads((work / "truth.json").read_text())}

    def run(self, state, out: Path):
        w = state["work"]
        return cli.main(["stability", "--config", str(w / "config.yaml"), "--states", str(w / "states"),
                         "--out", str(out)])

    def check(self, state, out: Path, result) -> Outcome:
        o = Outcome()
        o.check("exit code 0", result == 0)
        present = all((out / f).exists() for f in self.FILES)
        o.check(f"{', '.join(self.FILES)} written", present)
        if not present:
            return o
        detected = tfio.read_partition(out / "partition_latest.csv")
        truth = state["truth"]
        common = [t for t in detected if t in truth]
        ari = adjusted_rand_index({t: truth[t] for t in common}, {t: detected[t] for t in common}) if common else 0.0
        o.check(f"ARI {ari:.3f} of the latest partition against the planted one >= {self.ARI_FLOOR}",
                ari >= self.ARI_FLOOR)
        o.digest = _sha(*((out / f).read_bytes() for f in self.FILES))
        return o


class PipelineCsv:
    """``tradeflow pipeline --trades`` on a large, heavy-tailed raw population."""

    name = "pipeline-csv"
    SCALES = {
        "full": {"noise": 800, "n_weekdays": 48, "min_trades": 60, "windows": [10, 15],
                 "recalibrate_every": 10, "n_trees": 10},
        "toy": {"noise": 40, "n_weekdays": 40, "min_trades": 20, "windows": [8], "recalibrate_every": 10,
                "n_trees": 5},
    }
    EXPECTED = (
        "forecasts_flow.csv", "forecasts_vwap.csv", "ingest_summary.json", "leadlag_edges.csv",
        "leadlag_lambda.csv", "leadlag_meta.json", "partition.csv", "partition_meta.json",
        "performance_flow.csv", "performance_vwap.csv", "report.json", "size_histogram.csv",
        "states.csv", "states_meta.json", "states_volumes.csv", "svn_edges.csv", "svn_meta.json",
    )

    def __init__(self, scale: str):
        self.p = self.SCALES[scale]

    def prepare(self, seed: int, work: Path):
        p = self.p
        spec = MarketSpec(group_sizes=(5,) * 6, n_noise_traders=p["noise"], alpha=1.5, sync_fidelity=0.9,
                          neutral_prob=0.1, leadlag_edges=tuple(PlantedEdge(0, g) for g in range(1, 6)),
                          copy_fidelity=0.8, n_weekdays=p["n_weekdays"], kappa=1e-3, seed=seed)
        trades, _ = generate_market(spec)
        tfio.write_trades(work / "trades.csv", trades)
        (work / "config.yaml").write_text(yaml.safe_dump({
            "top_n": 100, "min_trades": p["min_trades"], "window_lengths": p["windows"],
            "recalibrate_every": p["recalibrate_every"], "n_trees": p["n_trees"], "seed": seed,
        }))

    def load(self, work: Path):
        return {"work": work}

    def run(self, state, out: Path):
        w = state["work"]
        return cli.main(["pipeline", "--config", str(w / "config.yaml"), "--trades", str(w / "trades.csv"),
                         "--out", str(out)])

    def check(self, state, out: Path, result) -> Outcome:
        o = Outcome()
        o.check("exit code 0", result == 0)
        manifest_path = out / "manifest.json"
        o.check("manifest.json written", manifest_path.exists())
        if not manifest_path.exists():
            return o
        outputs = json.loads(manifest_path.read_text())["outputs"]
        missing = [f for f in self.EXPECTED if f not in outputs]
        o.check(f"every expected artifact in the manifest (missing: {missing})", not missing)
        stale = [f for f, h in outputs.items() if not (out / f).exists() or tfio.file_checksum(out / f) != h]
        o.check(f"manifest checksums match the files (mismatched: {stale})", not stale)
        report = json.loads((out / "report.json").read_text()) if "report.json" in outputs else {}
        omitted = {k: v["hourly_omitted"] for k, v in report.items() if v["hourly_omitted"]}
        o.check(f"hourly tests run for every session hour (omitted: {omitted})", report and not omitted)
        o.digest = _sha(json.dumps(outputs, sort_keys=True).encode())
        if "forecasts_flow.csv" in outputs:
            o.forecast_days = len({r["slice_end"][:10] for r in tfio.read_forecasts(out / "forecasts_flow.csv")})
        return o


WORKLOADS = {w.name: w for w in (ForecastAcceptance, StabilityPaper, PipelineCsv)}
