"""Closed-loop benchmark of the clique query service.

Usage, from the repository root::

    python3 servicebench/run.py --workload warm-heavy --seed 1 \
        --seconds 10 --trace 0

Each run serves one workload (see ``workloads.py``) from an in-process
``CliqueService(workers=2)`` on a ``127.0.0.1`` port. Two NDJSON clients
in the same process run a closed loop over the seeded trace: each sends
its next request only after the previous reply arrived. Mutations are
barriers: a mutation waits for in-flight queries, and no query is sent
until it is acknowledged, so every answer's graph version is known in
advance and every answer is checked against ``answers.json``.

The run pins itself to one CPU first. Every request hands off between
the event loop and a worker thread; on a shared virtual machine, a
hand-off that has to wake a second, idle vCPU, or a worker that runs on
a vCPU the host is busy with, costs a delay set by the host, not by the
program.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (``traced.py``) with ``--trace 1``.
The run writes nothing outside this directory, starts no process, and
fails if a thread or spill directory outlives it.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPILL_ROOT = HERE / ".spill"


def check_lifecycle(spill: Path, lifecycle: List[str]) -> None:
    gc.collect()
    extra = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if extra:
        lifecycle.append(f"threads outlived the run: {extra}")
    children = multiprocessing.active_children()
    if children:
        lifecycle.append(f"child processes outlived the run: {children}")
    left = sorted(p.name for p in spill.glob("repro-shard-*"))
    if left:
        lifecycle.append(f"spill directories outlived the run: {left}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"servicebench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(
            f"servicebench: unknown workload {args.workload!r} "
            f"(known: {sorted(harness.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2

    if hasattr(os, "sched_setaffinity"):
        # Before any thread starts, so the service's threads inherit it.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    # Shard spill files go to a directory of this benchmark, removed at
    # the end; a left-over repro-shard-* directory fails the run.
    spill = SPILL_ROOT / f"run-{os.getpid()}"
    spill.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(spill)
    lifecycle: List[str] = []
    try:
        report = asyncio.run(harness.run(args, PROCESS_START, lifecycle))
        check_lifecycle(spill, lifecycle)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
        try:
            SPILL_ROOT.rmdir()
        except OSError:
            pass

    problems = report["problems"] + lifecycle
    for line in problems:
        print(f"servicebench: FAIL {line}", file=sys.stderr)
    for name, (value, unit) in report["metrics"].items():
        print(f"{args.workload:<11} {name:<30} {value:>14.6g} {unit}")
    print(
        f"{args.workload:<11} answers checksum {report['checksum']:#010x}, "
        f"{report['attempted']} operations, {report['failed']} failed",
    )
    print(
        json.dumps(
            {
                "correct": not problems and report["failed"] == 0,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": finite(value), "unit": unit}
                    for name, (value, unit) in report["metrics"].items()
                },
            }
        )
    )
    return 0


def finite(value: float) -> float:
    """JSON has no infinity: a percentile that hit a failed query (which
    counts as infinitely slow) is reported as 1e12, with correct false."""
    return value if math.isfinite(value) else 1e12


if __name__ == "__main__":
    sys.exit(main())
