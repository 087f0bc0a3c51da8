"""Timed part of sparse_library, in a process of its own.

    python3 perfbench/library_child.py INPUTS SECONDS TRACE RESULT

INPUTS is the pickle written in set-up; TRACE is 1 to install the layer
wrappers.  The process runs whole rounds of the in-memory pipeline for
SECONDS, notes its peak RSS, checks the last round's outputs and writes a
JSON result to RESULT.  Its peak RSS covers the inputs and the pipeline, not
the scenario generator that made them.
"""

import json
import pickle
import resource
import sys
import time
import traceback
from collections import defaultdict

import checks
import harness
import tracing
from cdrflow import geo, stays, trips


def _by_user(records) -> dict:
    out = defaultdict(list)
    for r in records:
        out[r.user_id].append(r)
    return out


def pipeline_steps(events, towers, regions, land):
    """The four library calls of one round, each a step that may fail on its own."""
    out = {}
    params = stays.StopParams(r1=harness.R1_M, r2=harness.R2_M,
                              min_duration=harness.MIN_DURATION_S, max_gap=harness.MAX_GAP_S)

    def position():
        out["positioned"] = geo.position_events(events, towers, land=(land.region,))

    def staypoints():
        out["staypoints"] = stays.build_staypoints(
            out["positioned"], params, regions=regions, cluster_fn=stays.cluster_destinations
        )

    def moving():
        sp_by_user = _by_user(out["staypoints"])
        out["moving"] = [
            ev for user, evs in _by_user(out["positioned"]).items()
            for ev in stays.moving_events(evs, sp_by_user.get(user, []))
        ]

    def build_trips():
        out["trips"] = trips.build_trips(out["staypoints"], out["moving"])

    return out, (position, staypoints, moving, build_trips)


def main() -> int:
    inputs, seconds, trace, result_path = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    with open(inputs, "rb") as f:
        events, towers, regions, land = pickle.load(f)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    last = {}

    def one_round():
        nonlocal last
        last = {}  # release the previous round's outputs first
        out, steps = pipeline_steps(events, towers, regions, land)
        failed = 0
        start = time.perf_counter()
        for i, step in enumerate(steps):
            try:
                step()
            except Exception:
                traceback.print_exc()
                failed = len(steps) - i
                break
        wall = time.perf_counter() - start
        last = out
        return {"wall_s": wall, "attempted": len(steps), "failed": failed,
                "layers": tracer.take() if tracer else {}}

    rounds = harness.run_rounds(one_round, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if any(r["failed"] for r in rounds):
        errors = ["a pipeline step failed; see the log"]
    else:
        errors = checks.check_sparse(events, towers, land, last["positioned"], last["staypoints"],
                                     last["moving"], last["trips"])
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"rounds": rounds, "peak_rss_kb": peak_kb, "errors": errors,
                   "spans": tracer.spans if tracer else []}, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
