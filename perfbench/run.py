"""Benchmark of the cdrflow pipeline, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (perfbench/README.md says why each exists and how big it is):

  dense_cli       `cdrflow position` .. `validate`, one process per stage, on a
                  dense noiseless synthetic scenario made by `cdrflow synth`
  sparse_library  position_events(land) -> build_staypoints -> moving_events
                  -> build_trips in memory, on many sparsely pinged users
  mining_parish   `cdrflow log`, `discover`, `conform`, `validate` at parish
                  level, on a generated multi-leg trip world

Set-up runs SETUP_REPEATS times; then whole rounds of the workload run for
at least --seconds and each metric is the median over rounds.  With
--trace 0 the end-to-end metrics are reported, with --trace 1 the per-layer
metrics of perfbench/tracing.py.  Every run checks the outputs of its last
round (perfbench/checks.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
when the outputs are correct, 1 when a check fails, 2 when the cdrflow
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time

from harness import SRC, WORK

WORKLOAD_NAMES = ("dense_cli", "sparse_library", "mining_parish")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdrflow" / "__init__.py").is_file():
        print(f"perfbench: no cdrflow sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    from workloads import END_TO_END_UNITS, SETUP_REPEATS, WORKLOADS, per_layer_metrics

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = WORKLOADS[args.workload](work, args.seed, tracer)

    setup_s, setup_layers = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        setup_layers.append(workload.setup())
        setup_s.append(time.perf_counter() - start)
    rounds, peak_kb, errors = workload.run(args.seconds)

    wall = statistics.median(r["wall_s"] for r in rounds)
    print(f"{args.workload}: seed {args.seed}, {workload.records()} records, "
          f"set-up {[round(s, 3) for s in setup_s]} s, "
          f"rounds {[round(r['wall_s'], 3) for r in rounds]} s{' (traced)' if tracer else ''}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    if tracer:
        metrics = per_layer_metrics(setup_layers, rounds)
        spans = [{"process": "perfbench", "spans": tracer.spans}, *workload.traces]
        with open(work / "trace.json", "w", encoding="utf-8") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "traced_wall_s": wall,
                       "processes": spans}, f)
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall,
            "records_per_s": workload.records() / wall,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
