"""cdrflow: call detail records to process-mining artifacts.

Pipeline stages: pseudo-location sampling inside tower sectors, staypoint
detection, trip building with heuristic transport modes, case-centric and
object-centric event logs, directly-follows model discovery, token-replay
conformance, and origin-destination validation against survey data.

The names below are imported from their modules on first use (PEP 562),
so that a process imports only the modules it runs.
"""

from importlib import import_module

_EXPORTS = {
    "config": ("ScenarioConfig", "TowerGridSpec"),
    "conformance": ("FitnessReport", "PetriNet", "dfg_to_workflow_net", "token_replay"),
    "discovery": (
        "ArcStats", "Dfg", "OcDfg", "Variant", "annotate_durations", "discover_dfg",
        "discover_ocdfg", "export_dot", "extract_variants", "filter_log_by_variants",
    ),
    "errors": (
        "CdrflowError", "ClassMismatch", "ClippingExhausted", "DegenerateInput",
        "DependencyError", "EmptyLog", "EmptyModel", "EmptySelection", "InvalidConfig",
        "MismatchedLog", "ScenarioMismatch", "UnresolvedRegion", "UnsortedInput",
    ),
    "eventlog": (
        "CaseLog", "LogStats", "Ocel", "Trace", "build_case_log", "build_ocel", "compute_stats",
    ),
    "geo": ("Region", "RegionIndex", "TowerSector", "position_events", "sample_sector_point"),
    "records": ("CdrEvent", "GeoPoint", "PositionedEvent", "haversine_distance"),
    "stays": (
        "Staypoint", "Stop", "StopParams", "build_staypoints", "cluster_destinations",
        "detect_stops", "moving_events",
    ),
    "synth": ("GroundTruth", "RecoveryReport", "generate_scenario", "score_recovery"),
    "trips": (
        "ModeThresholds", "Trip", "Tripleg", "assemble_trips", "build_trips", "derive_triplegs",
        "label_mode",
    ),
    "validation": (
        "OdMatrix", "RegressionResult", "build_od_matrix", "compare_shares", "linear_regression",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value
