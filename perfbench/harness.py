"""Process and timing helpers shared by the benchmark and its child processes."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# One process, one thread: the CLI runs with --threads 1 and numpy's
# thread pools are pinned to one thread as well.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(SRC),
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Stop parameters the benchmark runs with and checks against.
R1_M, R2_M, MIN_DURATION_S, MAX_GAP_S = 300.0, 500.0, 600.0, 3600.0

CHILD_TIMEOUT_S = 150


def spawn(argv: list, log_path: Path) -> tuple[float, int, int]:
    """Run a child to completion: (wall seconds, peak RSS in KiB, exit code).

    The peak RSS is the child's own, read from wait4, so it excludes the
    parent and every other child.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=log, stderr=log)
        try:
            deadline = start + CHILD_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def python_child(script: str, *args) -> list:
    return [sys.executable, str(BENCH / script), *map(str, args)]


def run_rounds(one_round, seconds: float) -> list:
    """Whole rounds for about `seconds`: a round starts while it is expected
    to end no later than half a round past the mark."""
    rounds = []
    start = time.perf_counter()
    while not rounds or (time.perf_counter() - start
                         + statistics.median(r["wall_s"] for r in rounds) / 2 < seconds):
        rounds.append(one_round())
    return rounds


def median_metrics(dicts: list) -> dict:
    """Per-name median over rounds; a name missing from a round counts as 0."""
    names = {name for d in dicts for name in d}
    return {name: statistics.median(d.get(name, 0.0) for d in dicts) for name in names}
