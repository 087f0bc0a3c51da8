"""Pipeline configuration: flat INI sections per stage, hash-stamped runs.

The settings of the synthetic scenario, of stop detection and of mode
labelling live here too, so that reading a configuration imports none of
the modules that run the stages.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

from .errors import InvalidConfig

_MAX_TRIPS_PER_DAY = 8

DEFAULT_TRIP_GAP_S = 25 * 60.0


@dataclass(frozen=True)
class StopParams:
    """Thresholds for the two-level scheme, all finite and strictly positive.

    r1: max roaming radius inside one stop, meters.
    r2: max distance linking stop medians into one destination, meters.
    min_duration: minimum stop span, seconds.
    max_gap: max silence between consecutive events inside one stop, seconds.
    """

    r1: float = 300.0
    r2: float = 500.0
    min_duration: float = 600.0
    max_gap: float = 3600.0

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "min_duration", "max_gap"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"StopParams.{name} must be finite and > 0, got {value}")
        if self.r2 < self.r1:
            import logging

            # the stop detection module's logger: the warning is about its settings
            logging.getLogger("cdrflow.stays").warning(
                "StopParams: r2 (%.0f m) < r1 (%.0f m)", self.r2, self.r1
            )


@dataclass(frozen=True)
class ModeThresholds:
    """Decision table over (avg speed km/h, path length m).

    Bands, in km/h: walk below walk_max; bicycle to bicycle_max; bus to
    bus_max, extended to bus_extended_max for short legs; car up to car_max
    except long fast legs; train above car_max or fast-and-long.  Every
    (speed, length) pair maps to exactly one mode; legs shorter than
    min_duration_s get "unknown" because their speed is unreliable.
    """

    walk_max_kmh: float = 7.0
    bicycle_max_kmh: float = 15.0
    bus_max_kmh: float = 27.0
    bus_extended_max_kmh: float = 45.0
    bus_max_length_m: float = 3000.0
    car_max_kmh: float = 60.0
    train_long_min_length_m: float = 8000.0
    min_duration_s: float = 60.0

    def __post_init__(self) -> None:
        speeds = (self.walk_max_kmh, self.bicycle_max_kmh, self.bus_max_kmh,
                  self.bus_extended_max_kmh, self.car_max_kmh)
        if any(b <= a for a, b in zip(speeds, speeds[1:])):
            raise ValueError("mode speed bands must be strictly increasing")

    def classify(self, avg_speed_kmh: float, path_length_m: float, duration_s: float) -> str:
        if duration_s < self.min_duration_s:
            return "unknown"
        s = avg_speed_kmh
        if s < self.walk_max_kmh:
            return "walk"
        if s < self.bicycle_max_kmh:
            return "bicycle"
        if s < self.bus_max_kmh:
            return "bus"
        if s < self.bus_extended_max_kmh:
            return "bus" if path_length_m < self.bus_max_length_m else "car"
        if s < self.car_max_kmh:
            return "train" if path_length_m >= self.train_long_min_length_m else "car"
        return "train"


@dataclass(frozen=True)
class TowerGridSpec:
    rows: int = 24
    cols: int = 24
    spacing_m: float = 400.0
    sector_radius_m: float = 100.0
    beamwidth_deg: float = 120.0


def _default_mode_mix() -> dict[str, float]:
    return {"car": 0.40, "bus": 0.25, "walk": 0.20, "train": 0.10, "bicycle": 0.05}


def _default_speed_bands() -> dict[str, tuple[float, float]]:
    # Degenerate bands pin every trip to the band center.
    return {
        "walk": (3.5, 3.5),
        "bicycle": (11.0, 11.0),
        "bus": (21.0, 21.0),
        "car": (43.5, 43.5),
        "train": (90.0, 90.0),
    }


def _default_trip_distances() -> dict[str, tuple[float, float]]:
    # Meters between anchors; keeps observed speed and length inside each
    # mode's decision region under worst-case detection noise.
    return {
        "walk": (800.0, 2000.0),
        "bicycle": (2500.0, 4000.0),
        "bus": (3500.0, 7000.0),
        "car": (4200.0, 7000.0),
        "train": (8000.0, 9500.0),
    }


@dataclass(frozen=True)
class ScenarioConfig:
    n_agents: int = 100
    n_days: int = 14
    towers: TowerGridSpec = field(default_factory=TowerGridSpec)
    parish_size_m: float = 800.0
    trips_per_day_kind: str = "fixed"  # "fixed" | "poisson"
    trips_per_day_value: float = 2.0
    mode_mix: dict = field(default_factory=_default_mode_mix)
    mode_speed_bands_kmh: dict = field(default_factory=_default_speed_bands)
    mode_trip_distance_m: dict = field(default_factory=_default_trip_distances)
    dwell_rate_per_h: float = 60.0
    moving_rate_per_h: float = 0.0
    tower_noise_p: float = 0.0
    origin_lat: float = 38.60
    origin_lon: float = -9.40
    start_epoch: int = 1706745600  # 2024-02-01T00:00:00Z
    seed: int = 0

    def validate(self, thresholds: Optional[ModeThresholds] = None) -> None:
        thresholds = thresholds or ModeThresholds()
        if self.n_agents < 1 or self.n_days < 1:
            raise InvalidConfig("n_agents and n_days must be >= 1")
        if self.towers.rows < 2 or self.towers.cols < 2 or self.towers.spacing_m <= 0:
            raise InvalidConfig("tower grid must have >= 2 rows/cols and positive spacing")
        if self.parish_size_m <= 0:
            raise InvalidConfig("parish_size_m must be positive")
        if self.dwell_rate_per_h <= 0:
            raise InvalidConfig("dwell_rate_per_h must be positive")
        if self.moving_rate_per_h < 0 or not (0.0 <= self.tower_noise_p <= 1.0):
            raise InvalidConfig("rates must be nonnegative and noise probability in [0, 1]")
        if self.trips_per_day_kind not in ("fixed", "poisson"):
            raise InvalidConfig(f"unknown trips_per_day_kind {self.trips_per_day_kind!r}")
        if not (0 <= self.trips_per_day_value <= _MAX_TRIPS_PER_DAY):
            raise InvalidConfig(f"trips_per_day_value must be in [0, {_MAX_TRIPS_PER_DAY}]")
        mix_sum = sum(self.mode_mix.values())
        if abs(mix_sum - 1.0) > 1e-9:
            raise InvalidConfig(f"mode mix sums to {mix_sum}, expected 1")
        for mode, share in self.mode_mix.items():
            if share < 0:
                raise InvalidConfig(f"negative share for mode {mode!r}")
            if mode not in self.mode_speed_bands_kmh or mode not in self.mode_trip_distance_m:
                raise InvalidConfig(f"mode {mode!r} lacks a speed band or distance range")
            lo, hi = self.mode_speed_bands_kmh[mode]
            d_lo, d_hi = self.mode_trip_distance_m[mode]
            if lo > hi or d_lo > d_hi or d_lo <= 0:
                raise InvalidConfig(f"invalid band for mode {mode!r}")
            rep_len = (d_lo + d_hi) / 2.0
            for speed in (lo, hi):
                duration = rep_len / (speed / 3.6)
                got = thresholds.classify(speed, rep_len, duration)
                if got != mode:
                    raise InvalidConfig(
                        f"mode {mode!r} band {speed} km/h at {rep_len:.0f} m classifies as {got!r}"
                    )


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: Path = Path("runs/default")
    cdr_path: Optional[Path] = None
    towers_path: Optional[Path] = None
    regions_path: Optional[Path] = None
    land_mask_path: Optional[Path] = None
    survey_path: Optional[Path] = None
    survey_pairs_path: Optional[Path] = None
    class_map_path: Optional[Path] = None
    region_aliases_path: Optional[Path] = None
    level: str = "municipality"
    seed: int = 0
    ocel: bool = True
    top_k: Optional[int] = 20
    min_arc_frequency: int = 0
    per_trace: bool = False
    stop_params: StopParams = field(default_factory=StopParams)
    thresholds: ModeThresholds = field(default_factory=ModeThresholds)
    gap_threshold_s: float = DEFAULT_TRIP_GAP_S
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        if self.level not in ("parish", "municipality"):
            raise InvalidConfig(f"level must be parish or municipality, got {self.level!r}")
        if self.top_k is not None and self.top_k < 1:
            raise InvalidConfig("top_k must be >= 1")
        if self.min_arc_frequency < 0:
            raise InvalidConfig("min_arc_frequency must be >= 0")


def _parse_named_floats(text: str) -> dict[str, float]:
    # "car:0.4,bus:0.25" -> {"car": 0.4, "bus": 0.25}
    out = {}
    for chunk in text.split(","):
        name, _, value = chunk.strip().partition(":")
        out[name.strip()] = float(value)
    return out


def _parse_named_ranges(text: str) -> dict[str, tuple[float, float]]:
    # "walk:3.5:3.5,bus:15:27" -> {"walk": (3.5, 3.5), "bus": (15.0, 27.0)}
    out = {}
    for chunk in text.split(","):
        name, lo, hi = (p.strip() for p in chunk.strip().split(":"))
        out[name] = (float(lo), float(hi))
    return out


def _path_or_none(value: str) -> Optional[Path]:
    return Path(value) if value.strip() else None


def _run_dir(value: str) -> Path:
    if not value.strip():  # an empty path would be the working directory
        raise ValueError("the run directory must not be empty")
    return Path(value)


def _boolean(value: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[value.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {value!r}") from None


def _top_k(value: str) -> Optional[int]:
    return int(value) if value.strip() else PipelineConfig.top_k  # empty keeps the default


# (section, key) -> (target, field, parser).  The target is the PipelineConfig
# field of the dataclass that takes the value: "" for PipelineConfig itself,
# "towers" for the scenario's tower grid.  Any other section or key is rejected.
_KEYS = {
    ("paths", "out"): ("", "out_dir", _run_dir),
    ("paths", "cdr"): ("", "cdr_path", _path_or_none),
    ("paths", "towers"): ("", "towers_path", _path_or_none),
    ("paths", "regions"): ("", "regions_path", _path_or_none),
    ("paths", "land_mask"): ("", "land_mask_path", _path_or_none),
    ("paths", "survey"): ("", "survey_path", _path_or_none),
    ("paths", "survey_pairs"): ("", "survey_pairs_path", _path_or_none),
    ("paths", "class_map"): ("", "class_map_path", _path_or_none),
    ("paths", "region_aliases"): ("", "region_aliases_path", _path_or_none),
    ("run", "level"): ("", "level", str),
    ("run", "seed"): ("", "seed", int),
    ("run", "ocel"): ("", "ocel", _boolean),
    ("run", "top_k"): ("", "top_k", _top_k),
    ("run", "min_arc_frequency"): ("", "min_arc_frequency", int),
    ("run", "per_trace"): ("", "per_trace", _boolean),
    ("run", "threads"): None,  # accepted and ignored so existing files keep working
    ("stops", "r1_m"): ("stop_params", "r1", float),
    ("stops", "r2_m"): ("stop_params", "r2", float),
    ("stops", "min_duration_s"): ("stop_params", "min_duration", float),
    ("stops", "max_gap_s"): ("stop_params", "max_gap", float),
    **{("modes", f.name): ("thresholds", f.name, float) for f in fields(ModeThresholds)},
    ("trips", "gap_threshold_s"): ("", "gap_threshold_s", float),
    ("synth", "tower_rows"): ("towers", "rows", int),
    ("synth", "tower_cols"): ("towers", "cols", int),
    ("synth", "tower_spacing_m"): ("towers", "spacing_m", float),
    ("synth", "sector_radius_m"): ("towers", "sector_radius_m", float),
    ("synth", "beamwidth_deg"): ("towers", "beamwidth_deg", float),
    ("synth", "n_agents"): ("scenario", "n_agents", int),
    ("synth", "n_days"): ("scenario", "n_days", int),
    ("synth", "parish_size_m"): ("scenario", "parish_size_m", float),
    ("synth", "trips_per_day_kind"): ("scenario", "trips_per_day_kind", str),
    ("synth", "trips_per_day_value"): ("scenario", "trips_per_day_value", float),
    ("synth", "mode_mix"): ("scenario", "mode_mix", _parse_named_floats),
    ("synth", "mode_speed_bands_kmh"): ("scenario", "mode_speed_bands_kmh", _parse_named_ranges),
    ("synth", "mode_trip_distance_m"): ("scenario", "mode_trip_distance_m", _parse_named_ranges),
    ("synth", "dwell_rate_per_h"): ("scenario", "dwell_rate_per_h", float),
    ("synth", "moving_rate_per_h"): ("scenario", "moving_rate_per_h", float),
    ("synth", "tower_noise_p"): ("scenario", "tower_noise_p", float),
    ("synth", "origin_lat"): ("scenario", "origin_lat", float),
    ("synth", "origin_lon"): ("scenario", "origin_lon", float),
    ("synth", "start_epoch"): ("scenario", "start_epoch", int),
}
_SECTIONS = {section for section, _ in _KEYS}


def load_config(path: Optional[str | Path] = None) -> PipelineConfig:
    """Defaults, optionally overridden by an INI file with per-stage sections."""
    cfg = PipelineConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:  # the message names the file and line
        raise InvalidConfig(str(exc)) from exc
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    values: dict[str, dict] = {entry[0]: {} for entry in _KEYS.values() if entry}
    for section, entries in parser.items():
        if section != parser.default_section and section not in _SECTIONS:
            raise InvalidConfig(f"config file {path}: unknown section [{section}]")
        for key, text in entries.items():
            if (section, key) not in _KEYS:
                raise InvalidConfig(f"config file {path}: unknown key {key!r} in [{section}]")
            if _KEYS[section, key] is not None:
                target, name, parse = _KEYS[section, key]
                try:
                    values[target][name] = parse(text)
                except ValueError as exc:
                    raise InvalidConfig(
                        f"config file {path}: bad value for {key!r} in [{section}]: {exc}"
                    ) from exc
    # each nested dataclass is built once, as its checks span several fields
    scenario = replace(
        cfg.scenario, towers=replace(cfg.scenario.towers, **values["towers"]), **values["scenario"]
    )
    cfg = replace(
        cfg,
        stop_params=replace(cfg.stop_params, **values["stop_params"]),
        thresholds=replace(cfg.thresholds, **values["thresholds"]),
        scenario=scenario,
        **values[""],
    )
    for name in ("cdr_path", "towers_path", "regions_path", "land_mask_path",
                 "survey_path", "survey_pairs_path", "class_map_path",
                 "region_aliases_path"):
        configured = getattr(cfg, name)
        if configured is not None and not configured.exists():
            raise FileNotFoundError(f"configured input file not found: {configured}")
    return cfg


def _jsonable(value):
    if isinstance(value, Path):
        return str(value.resolve())
    if isinstance(value, (StopParams, ModeThresholds, ScenarioConfig, TowerGridSpec)):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def config_hash(cfg: PipelineConfig) -> str:
    """Stable digest of the resolved settings that shape the artifacts.

    The run directory itself is left out and input paths are resolved, so a
    run can be moved, or its inputs named by another path, and still be
    resumed.
    """
    doc = {f.name: _jsonable(getattr(cfg, f.name)) for f in fields(cfg) if f.name != "out_dir"}
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
