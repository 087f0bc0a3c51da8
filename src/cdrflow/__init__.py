"""cdrflow: call detail records to process-mining artifacts.

Pipeline stages: pseudo-location sampling inside tower sectors, staypoint
detection, trip building with heuristic transport modes, case-centric and
object-centric event logs, directly-follows model discovery, token-replay
conformance, and origin-destination validation against survey data.
"""

from .conformance import FitnessReport, PetriNet, dfg_to_workflow_net, token_replay
from .discovery import (
    ArcStats,
    Dfg,
    OcDfg,
    Variant,
    annotate_durations,
    discover_dfg,
    discover_ocdfg,
    export_dot,
    extract_variants,
    filter_log_by_variants,
)
from .errors import (
    CdrflowError,
    ClassMismatch,
    ClippingExhausted,
    DegenerateInput,
    DependencyError,
    EmptyLog,
    EmptyModel,
    EmptySelection,
    InvalidConfig,
    MismatchedLog,
    ScenarioMismatch,
    UnresolvedRegion,
    UnsortedInput,
)
from .eventlog import (
    CaseLog,
    LogStats,
    Ocel,
    Trace,
    build_case_log,
    build_ocel,
    compute_stats,
)
from .geo import (
    CdrEvent,
    GeoPoint,
    PositionedEvent,
    Region,
    RegionIndex,
    TowerSector,
    haversine_distance,
    position_events,
    sample_sector_point,
)
from .stays import (
    Staypoint,
    Stop,
    StopParams,
    build_staypoints,
    cluster_destinations,
    detect_stops,
)
from .synth import (
    GroundTruth,
    RecoveryReport,
    ScenarioConfig,
    TowerGridSpec,
    generate_scenario,
    score_recovery,
)
from .trips import ModeThresholds, Trip, Tripleg, assemble_trips, build_trips, derive_triplegs, label_mode
from .validation import (
    OdMatrix,
    RegressionResult,
    build_od_matrix,
    compare_shares,
    linear_regression,
)

__version__ = "0.1.0"
