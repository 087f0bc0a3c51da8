"""Command-line pipeline: CDR events in, process-mining artifacts out.

Subcommands map one-to-one onto pipeline stages; `all` chains them in
order and is byte-identical to running the stages individually with the
same configuration.  Run directories are stamped with a configuration hash
so artifacts from different configurations cannot silently mix.

Each stage imports the modules it runs when it starts, so that a stage
process loads no other stage's code.

The stages build millions of small records and no reference cycles, so
the cyclic garbage collector is switched off while they run: its sweeps
would re-walk every live record and find nothing to free.

Exit codes: 0 success, 1 validation/configuration/dependency error,
2 input/output error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

from .config import PipelineConfig, _run_dir, config_hash, load_config
from .errors import CdrflowError, DependencyError, InvalidConfig

ART = {
    "cdr": "cdr.csv",
    "towers": "towers.csv",
    "regions": "regions.geojson",
    "ground_truth": "ground_truth.json",
    "positioned": "positioned.csv",
    "staypoints": "staypoints.csv",
    "moving": "moving.csv",
    "triplegs": "triplegs.csv",
    "trips": "trips.csv",
    "case_log": "case_log.csv",
    "ocel": "ocel.json",
    "log_stats": "log_stats.json",
    "log_drops": "case_log_drops.json",
    "dfg_model": "dfg_model.json",
    "dfg_dot": "dfg.dot",
    "ocdfg_model": "ocdfg_model.json",
    "ocdfg_dot": "ocdfg.dot",
    "variants": "variants.json",
    "conformance": "conformance_report.json",
    "per_trace": "conformance_per_trace.csv",
    "od": "od_matrix.csv",
    "validation": "validation_report.json",
}

def _artifact(cfg: PipelineConfig, name: str) -> Path:
    return cfg.out_dir / ART[name]


def _stage_artifact(cfg: PipelineConfig, name: str, produced_by: str) -> Path:
    path = _artifact(cfg, name)
    if not path.exists():
        raise DependencyError(
            f"missing artifact {path}; run the '{produced_by}' stage first"
        )
    return path


def _stamp_run_dir(cfg: PipelineConfig) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_hash(cfg)
    stamp = cfg.out_dir / "config.sha256"
    if stamp.exists():
        existing = stamp.read_text(encoding="utf-8").strip()
        if existing != digest:
            raise CdrflowError(
                f"run directory {cfg.out_dir} was produced with a different "
                "configuration; choose a fresh --out directory"
            )
    else:
        stamp.write_text(digest + "\n", encoding="utf-8")


def _load_land(cfg: PipelineConfig):
    from . import geo

    if cfg.land_mask_path is None:
        return ()
    return tuple(geo.load_regions_geojson(cfg.land_mask_path).regions())


def stage_synth(cfg: PipelineConfig) -> None:
    from . import eventfiles, geo, synth

    scenario = synth.Scenario(replace(cfg.scenario, seed=cfg.seed), cfg.thresholds)
    eventfiles.write_cdr_csv(scenario.agent_events(), _artifact(cfg, "cdr"))
    geo.write_towers_csv(scenario.towers.values(), _artifact(cfg, "towers"))
    geo.write_regions_geojson(scenario.regions.regions(), _artifact(cfg, "regions"))
    synth.write_ground_truth_json(scenario.truth, _artifact(cfg, "ground_truth"))


def stage_position(cfg: PipelineConfig) -> None:
    from . import eventfiles, geo, records

    # Inputs come from [paths] when configured, else from the synth stage.
    cdr_path = cfg.cdr_path or _artifact(cfg, "cdr")
    towers_path = cfg.towers_path or _artifact(cfg, "towers")
    events = records.sort_by_user_time(eventfiles.load_cdr_csv(cdr_path))
    towers = geo.load_towers_csv(towers_path)
    positioned = geo.position_events(events, towers, land=_load_land(cfg))
    eventfiles.write_positioned_csv([positioned], _artifact(cfg, "positioned"))


def stage_stays(cfg: PipelineConfig) -> None:
    from . import eventfiles, geo, stays

    positioned = eventfiles.read_positioned_columns(_stage_artifact(cfg, "positioned", "position"))
    regions = geo.load_regions_geojson(cfg.regions_path or _artifact(cfg, "regions"))
    staypoints = stays.build_staypoints(positioned, cfg.stop_params, regions=regions)
    stays.write_staypoints_csv(staypoints, _artifact(cfg, "staypoints"))
    moving = stays.moving_events(positioned, staypoints)
    eventfiles.write_positioned_csv([moving], _artifact(cfg, "moving"))


def stage_trips(cfg: PipelineConfig) -> None:
    from . import eventfiles, stays, trips

    staypoints = stays.load_staypoints_csv(_stage_artifact(cfg, "staypoints", "stays"))
    moving = eventfiles.load_positioned_csv(_stage_artifact(cfg, "moving", "stays"))
    all_trips = trips.build_trips(
        staypoints, moving, thresholds=cfg.thresholds, gap_threshold=cfg.gap_threshold_s
    )
    trips.write_trips_csv(all_trips, _artifact(cfg, "trips"))
    trips.write_triplegs_csv(all_trips, _artifact(cfg, "triplegs"))


def stage_log(cfg: PipelineConfig) -> None:
    from . import eventlog, stays, trips

    all_trips = trips.load_trips_csv(
        _stage_artifact(cfg, "trips", "trips"),
        _stage_artifact(cfg, "triplegs", "trips"),
    )
    staypoints = stays.load_staypoints_csv(_stage_artifact(cfg, "staypoints", "stays"))
    case_log = eventlog.build_case_log(all_trips, staypoints, cfg.level)
    eventlog.write_case_log_csv(case_log, _artifact(cfg, "case_log"))
    eventlog.write_drop_report(case_log, _artifact(cfg, "log_drops"))
    stats = {"case_log": eventlog.compute_stats(case_log)}
    if cfg.ocel:
        ocel = eventlog.build_ocel(case_log, all_trips)
        eventlog.write_ocel_json(ocel, _artifact(cfg, "ocel"))
        stats["ocel"] = eventlog.compute_stats(ocel)
    eventlog.write_stats_json(stats, _artifact(cfg, "log_stats"))


def stage_discover(cfg: PipelineConfig) -> None:
    from . import discovery, eventlog

    case_log = eventlog.load_case_log_csv(
        _stage_artifact(cfg, "case_log", "log"), level=cfg.level
    )
    ocel_path = _stage_artifact(cfg, "ocel", "log") if cfg.ocel else None
    dfg = discovery.annotate_durations(discovery.discover_dfg(case_log), case_log)
    discovery.write_model_json(dfg, _artifact(cfg, "dfg_model"))
    dot = discovery.export_dot(
        dfg, show_frequency=True, show_duration=True,
        min_arc_frequency=cfg.min_arc_frequency,
    )
    _artifact(cfg, "dfg_dot").write_text(dot, encoding="utf-8")
    variants = discovery.extract_variants(case_log, top_k=cfg.top_k)
    discovery.write_variants_json(variants, _artifact(cfg, "variants"))
    if ocel_path is not None:
        ocel = eventlog.load_ocel_json(ocel_path, level=cfg.level)
        ocdfg = discovery.discover_ocdfg(ocel)
        discovery.write_model_json(ocdfg, _artifact(cfg, "ocdfg_model"))
        oc_dot = discovery.export_dot(
            ocdfg, show_frequency=True, show_duration=True,
            min_arc_frequency=cfg.min_arc_frequency,
        )
        _artifact(cfg, "ocdfg_dot").write_text(oc_dot, encoding="utf-8")


def stage_conform(cfg: PipelineConfig) -> None:
    from . import conformance, discovery, eventlog

    dfg = discovery.load_dfg_json(_stage_artifact(cfg, "dfg_model", "discover"))
    case_log = eventlog.load_case_log_csv(
        _stage_artifact(cfg, "case_log", "log"), level=cfg.level
    )
    net = conformance.dfg_to_workflow_net(dfg)
    report = conformance.token_replay(net, case_log)
    conformance.write_report_json(report, _artifact(cfg, "conformance"))
    if cfg.per_trace:
        conformance.write_per_trace_csv(report, _artifact(cfg, "per_trace"))


def stage_validate(cfg: PipelineConfig) -> None:
    from . import stays, trips, validation

    all_trips = trips.load_trip_ends_csv(_stage_artifact(cfg, "trips", "trips"))
    staypoints = stays.load_staypoints_csv(_stage_artifact(cfg, "staypoints", "stays"))
    od = validation.build_od_matrix(all_trips, staypoints, cfg.level)
    if cfg.region_aliases_path is not None:
        aliases = validation.load_region_aliases_csv(cfg.region_aliases_path)
        od = validation.apply_region_aliases(od, aliases)
    validation.write_od_csv(od, _artifact(cfg, "od"))

    comparison = None
    if cfg.survey_path is not None:
        survey = validation.load_survey_csv(cfg.survey_path)
        if "shares" in survey:
            if cfg.class_map_path is None:
                raise CdrflowError(
                    "survey shares need a class_map file mapping destinations to classes"
                )
            class_map = validation.load_class_map_csv(cfg.class_map_path)
            pairs = None
            if cfg.survey_pairs_path is not None:
                pairs_doc = validation.load_survey_csv(cfg.survey_pairs_path)
                pairs = pairs_doc.get("pairs")
            comparison = validation.compare_shares(od, survey["shares"], class_map, pairs)
    validation.write_validation_report(od, comparison, _artifact(cfg, "validation"))


STAGES = {
    "synth": stage_synth,
    "position": stage_position,
    "stays": stage_stays,
    "trips": stage_trips,
    "log": stage_log,
    "discover": stage_discover,
    "conform": stage_conform,
    "validate": stage_validate,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI configuration file")
    common.add_argument("--out", metavar="DIR", help="run directory for artifacts")
    common.add_argument(
        "--level", choices=("parish", "municipality"), help="region level for logs and flows"
    )
    common.add_argument("--top-k", type=int, metavar="N", help="variants kept in the export")
    common.add_argument(
        "--min-arc-freq", type=int, metavar="N", help="hide model arcs below this frequency"
    )
    # Accepted and ignored so that existing command lines keep working.
    common.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    common.add_argument(
        "--seed", type=int, metavar="U64", help="seed of the synth stage's scenario"
    )

    parser = argparse.ArgumentParser(
        prog="cdrflow",
        description=(
            "Process-mining pipeline for call detail records: pseudo-positioning, "
            "staypoints, trips, event logs, directly-follows models, token-replay "
            "conformance and survey validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    help_by_stage = {
        "synth": "generate a seeded synthetic scenario with ground truth",
        "position": "sample pseudo-locations for CDR events inside tower sectors",
        "stays": "detect staypoints and shared destinations",
        "trips": "derive triplegs and assemble trips with mode labels",
        "log": "materialize case-centric and object-centric event logs",
        "discover": "discover DFG/OC-DFG models, variants, and DOT exports",
        "conform": "build a workflow net and replay the case log on it",
        "validate": "aggregate OD flows and compare against survey data",
        "all": "run every stage in order",
    }
    for name in list(STAGES) + ["all"]:
        sub.add_parser(name, parents=[common], help=help_by_stage[name])
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config)
    if args.out is not None:
        try:
            cfg = replace(cfg, out_dir=_run_dir(args.out))
        except ValueError as exc:
            raise InvalidConfig(f"--out: {exc}") from None
    if args.level is not None:
        cfg = replace(cfg, level=args.level)
    if args.top_k is not None:
        cfg = replace(cfg, top_k=args.top_k)
    if args.min_arc_freq is not None:
        cfg = replace(cfg, min_arc_frequency=args.min_arc_freq)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    stage_names = list(STAGES) if args.command == "all" else [args.command]
    current = stage_names[0]
    collecting = gc.isenabled()
    gc.disable()
    try:
        cfg = _resolve_config(args)
        if args.command == "all" and cfg.cdr_path is not None:
            stage_names.remove("synth")  # the events come from outside the run
        _stamp_run_dir(cfg)
        for current in stage_names:
            STAGES[current](cfg)
    except (FileNotFoundError, OSError) as exc:
        print(f"cdrflow {current}: {exc}", file=sys.stderr)
        return 2
    except (CdrflowError, ValueError) as exc:
        print(f"cdrflow {current}: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:  # main also runs inside other programs, such as the tests
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
