"""The three workloads: set-up, timed rounds and output checks of each."""

from __future__ import annotations

import json
import pickle
import statistics
from collections import defaultdict
from pathlib import Path

import checks
import harness
import tracing
import worlds
from cdrflow import synth

SETUP_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "records_per_s": "1/s", "peak_rss_mb": "MB"}


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


class CliWorkload:
    """A run directory driven stage by stage through `cdrflow`, one process per stage."""

    stages: tuple = ()

    def __init__(self, work: Path, seed: int, tracer):
        self.work, self.seed, self.tracer = work, seed, tracer
        self.run_dir = work / "run"
        self.config = work / "config.ini"
        self.log = work / "children.log"
        self.run_dir.mkdir()
        self.traces: list = []

    def cli(self, stage: str) -> tuple[float, int, int, dict]:
        trace_out = self.work / f"trace_{len(self.traces)}.json" if self.tracer else None
        argv = harness.python_child(
            "cli_child.py", trace_out or "-", stage, "--config", self.config,
            "--out", self.run_dir, "--seed", self.seed, "--threads", 1, "--top-k", 20,
        )
        wall, peak_kb, code = harness.spawn(argv, self.log)
        layers: dict = {}
        if trace_out is not None and trace_out.exists():
            with open(trace_out, encoding="utf-8") as f:
                doc = json.load(f)
            trace_out.unlink()
            layers = doc["metrics"]
            self.traces.append({"process": f"cdrflow {stage}", "spans": doc["spans"]})
        return wall, peak_kb, code, layers

    def one_round(self) -> dict:
        layers: dict = defaultdict(float)
        wall = 0.0
        peak_kb = failed = 0
        for stage in self.stages:
            stage_wall, stage_peak, code, stage_layers = self.cli(stage)
            wall += stage_wall
            peak_kb = max(peak_kb, stage_peak)
            failed += code != 0
            layers[f"cli.{stage}_s"] += stage_wall
            for name, value in stage_layers.items():
                layers[name] += value
        layers["cli.artifact_bytes"] = _dir_bytes(self.run_dir)
        return {"wall_s": wall, "attempted": len(self.stages), "failed": failed,
                "peak_rss_kb": peak_kb, "layers": dict(layers)}

    def run(self, seconds: float) -> tuple[list, float, list]:
        rounds = harness.run_rounds(self.one_round, seconds)
        peak_kb = statistics.median(r["peak_rss_kb"] for r in rounds)
        if any(r["failed"] for r in rounds):
            return rounds, peak_kb, [f"a cdrflow stage failed; see {self.log}"]
        return rounds, peak_kb, self.check()


class DenseCli(CliWorkload):
    stages = ("position", "stays", "trips", "log", "discover", "conform", "validate")

    def __init__(self, work, seed, tracer):
        super().__init__(work, seed, tracer)
        worlds.dense_config_ini(self.config)

    def setup(self) -> dict:
        _, _, code, layers = self.cli("synth")
        if code != 0:
            raise RuntimeError(f"cdrflow synth exited {code}; see {self.log}")
        return layers

    def records(self) -> int:
        with open(self.run_dir / "cdr.csv", "rb") as f:
            return sum(1 for _ in f) - 1

    def check(self) -> list:
        return checks.check_dense(self.run_dir)


class MiningParish(CliWorkload):
    stages = ("log", "discover", "conform", "validate")

    def __init__(self, work, seed, tracer):
        super().__init__(work, seed, tracer)
        self.inputs = work / "inputs"
        self.inputs.mkdir()
        worlds.mining_config_ini(self.config, self.inputs)
        self.world = None

    def setup(self) -> dict:
        self.world = worlds.trip_world(self.seed)
        worlds.write_trip_world(self.world, self.run_dir, self.inputs)
        return self.tracer.take() if self.tracer else {}

    def records(self) -> int:
        return len(self.world.trips)

    def check(self) -> list:
        return checks.check_mining(self.run_dir, self.world, worlds.ALIASES)


class SparseLibrary:
    """In-memory pipeline; the timed part runs in library_child.py."""

    def __init__(self, work: Path, seed: int, tracer):
        self.work, self.seed, self.tracer = work, seed, tracer
        self.log = work / "children.log"
        self.inputs = None
        self.n_events = 0
        self.traces: list = []

    def setup(self) -> dict:
        events, towers, regions, _ = synth.generate_scenario(worlds.sparse_scenario(self.seed))
        self.inputs = (events, towers, regions, worlds.river_land(towers))
        self.n_events = len(events)
        return self.tracer.take() if self.tracer else {}

    def records(self) -> int:
        return self.n_events

    def run(self, seconds: float) -> tuple[list, float, list]:
        inputs, result = self.work / "inputs.pickle", self.work / "result.json"
        with open(inputs, "wb") as f:
            pickle.dump(self.inputs, f, protocol=pickle.HIGHEST_PROTOCOL)
        self.inputs = None
        argv = harness.python_child("library_child.py", inputs, seconds, int(bool(self.tracer)), result)
        _, _, code = harness.spawn(argv, self.log)
        if code != 0 or not result.exists():
            raise RuntimeError(f"library_child.py exited {code}; see {self.log}")
        with open(result, encoding="utf-8") as f:
            doc = json.load(f)
        self.traces.append({"process": "library_child", "spans": doc["spans"]})
        return doc["rounds"], doc["peak_rss_kb"], doc["errors"]


WORKLOADS = {"dense_cli": DenseCli, "sparse_library": SparseLibrary, "mining_parish": MiningParish}


def per_layer_metrics(setup_layers: list, rounds: list) -> dict:
    """Medians over rounds; a layer that runs only in set-up is reported from set-up."""
    setup = harness.median_metrics(setup_layers)
    timed = harness.median_metrics([r["layers"] for r in rounds])
    values = {name: timed.get(name) or setup.get(name, 0.0) for name in tracing.PER_LAYER}
    events = values["geo.positioned_events"]
    values["geo.land_draws_per_event"] = values["geo.region_contains_calls"] / events if events else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in tracing.PER_LAYER.items()}
