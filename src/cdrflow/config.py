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


def load_config(path: Optional[str | Path] = None) -> PipelineConfig:
    """Defaults, optionally overridden by an INI file with per-stage sections."""
    cfg = PipelineConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")

    if parser.has_section("paths"):
        sec = parser["paths"]
        cfg = replace(
            cfg,
            out_dir=Path(sec.get("out", str(cfg.out_dir))),
            cdr_path=_path_or_none(sec.get("cdr", "")),
            towers_path=_path_or_none(sec.get("towers", "")),
            regions_path=_path_or_none(sec.get("regions", "")),
            land_mask_path=_path_or_none(sec.get("land_mask", "")),
            survey_path=_path_or_none(sec.get("survey", "")),
            survey_pairs_path=_path_or_none(sec.get("survey_pairs", "")),
            class_map_path=_path_or_none(sec.get("class_map", "")),
            region_aliases_path=_path_or_none(sec.get("region_aliases", "")),
        )
    if parser.has_section("run"):
        sec = parser["run"]
        top_k_raw = sec.get("top_k", "")
        cfg = replace(
            cfg,
            level=sec.get("level", cfg.level),
            seed=sec.getint("seed", cfg.seed),
            ocel=sec.getboolean("ocel", cfg.ocel),
            top_k=(int(top_k_raw) if top_k_raw.strip() else cfg.top_k),
            min_arc_frequency=sec.getint("min_arc_frequency", cfg.min_arc_frequency),
            per_trace=sec.getboolean("per_trace", cfg.per_trace),
        )
    if parser.has_section("stops"):
        sec = parser["stops"]
        cfg = replace(
            cfg,
            stop_params=StopParams(
                r1=sec.getfloat("r1_m", cfg.stop_params.r1),
                r2=sec.getfloat("r2_m", cfg.stop_params.r2),
                min_duration=sec.getfloat("min_duration_s", cfg.stop_params.min_duration),
                max_gap=sec.getfloat("max_gap_s", cfg.stop_params.max_gap),
            ),
        )
    if parser.has_section("modes"):
        sec = parser["modes"]
        defaults = ModeThresholds()
        cfg = replace(
            cfg,
            thresholds=ModeThresholds(
                walk_max_kmh=sec.getfloat("walk_max_kmh", defaults.walk_max_kmh),
                bicycle_max_kmh=sec.getfloat("bicycle_max_kmh", defaults.bicycle_max_kmh),
                bus_max_kmh=sec.getfloat("bus_max_kmh", defaults.bus_max_kmh),
                bus_extended_max_kmh=sec.getfloat(
                    "bus_extended_max_kmh", defaults.bus_extended_max_kmh
                ),
                bus_max_length_m=sec.getfloat("bus_max_length_m", defaults.bus_max_length_m),
                car_max_kmh=sec.getfloat("car_max_kmh", defaults.car_max_kmh),
                train_long_min_length_m=sec.getfloat(
                    "train_long_min_length_m", defaults.train_long_min_length_m
                ),
                min_duration_s=sec.getfloat("min_duration_s", defaults.min_duration_s),
            ),
        )
    if parser.has_section("trips"):
        cfg = replace(
            cfg, gap_threshold_s=parser["trips"].getfloat("gap_threshold_s", cfg.gap_threshold_s)
        )
    for name in ("cdr_path", "towers_path", "regions_path", "land_mask_path",
                 "survey_path", "survey_pairs_path", "class_map_path",
                 "region_aliases_path"):
        configured = getattr(cfg, name)
        if configured is not None and not configured.exists():
            raise FileNotFoundError(f"configured input file not found: {configured}")
    if parser.has_section("synth"):
        sec = parser["synth"]
        base = cfg.scenario
        towers = TowerGridSpec(
            rows=sec.getint("tower_rows", base.towers.rows),
            cols=sec.getint("tower_cols", base.towers.cols),
            spacing_m=sec.getfloat("tower_spacing_m", base.towers.spacing_m),
            sector_radius_m=sec.getfloat("sector_radius_m", base.towers.sector_radius_m),
            beamwidth_deg=sec.getfloat("beamwidth_deg", base.towers.beamwidth_deg),
        )
        scenario = ScenarioConfig(
            n_agents=sec.getint("n_agents", base.n_agents),
            n_days=sec.getint("n_days", base.n_days),
            towers=towers,
            parish_size_m=sec.getfloat("parish_size_m", base.parish_size_m),
            trips_per_day_kind=sec.get("trips_per_day_kind", base.trips_per_day_kind),
            trips_per_day_value=sec.getfloat("trips_per_day_value", base.trips_per_day_value),
            mode_mix=(
                _parse_named_floats(sec["mode_mix"]) if "mode_mix" in sec else base.mode_mix
            ),
            mode_speed_bands_kmh=(
                _parse_named_ranges(sec["mode_speed_bands_kmh"])
                if "mode_speed_bands_kmh" in sec
                else base.mode_speed_bands_kmh
            ),
            mode_trip_distance_m=(
                _parse_named_ranges(sec["mode_trip_distance_m"])
                if "mode_trip_distance_m" in sec
                else base.mode_trip_distance_m
            ),
            dwell_rate_per_h=sec.getfloat("dwell_rate_per_h", base.dwell_rate_per_h),
            moving_rate_per_h=sec.getfloat("moving_rate_per_h", base.moving_rate_per_h),
            tower_noise_p=sec.getfloat("tower_noise_p", base.tower_noise_p),
            origin_lat=sec.getfloat("origin_lat", base.origin_lat),
            origin_lon=sec.getfloat("origin_lon", base.origin_lon),
            start_epoch=sec.getint("start_epoch", base.start_epoch),
            seed=base.seed,
        )
        cfg = replace(cfg, scenario=scenario)
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
