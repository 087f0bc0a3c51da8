"""Pipeline configuration: flat INI sections per stage, hash-stamped runs."""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

from .errors import InvalidConfig
from .stays import StopParams
from .synth import ScenarioConfig, TowerGridSpec
from .trips import DEFAULT_TRIP_GAP_S, ModeThresholds


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
    ("paths", "out"): ("", "out_dir", Path),
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
    read = parser.read(path)
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
                values[target][name] = parse(text)
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
