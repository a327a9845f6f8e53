"""Experiment runner: timed, repeated, instrumented algorithm executions.

One :func:`run_experiment` call measures a single (algorithm, graph, k)
cell the way the paper's §B.2 protocol does — repeated runs, arithmetic
mean (they use ≥ 10 repetitions; our default is lower because pure Python
is ~100× slower per op) — and records, alongside wall time, the tracked
PRAM work/depth and the Brent-simulated 72-thread runtime that the
figures report.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..baselines.arbcount import arbcount_count
from ..baselines.chiba_nishizeki import chiba_nishizeki_count
from ..baselines.kclist import kclist_count
from ..core.api import count_cliques
from ..core.prepared import PreparedGraph
from ..core.variants import run_variant
from ..graphs.csr import CSRGraph
from ..pram.cost import Cost
from ..pram.schedule import simulate_loop
from ..pram.tracker import Tracker

__all__ = ["Measurement", "run_experiment", "ALGORITHMS", "sweep", "peak_rss_kb"]

# The three contenders of Figures 7-9, by their names in the plots,
# plus the remaining variants for the ablations. Every callable takes an
# optional shared preprocessing context; the baselines ignore it (their
# preprocessing — ordering per call — is part of what the figures compare).
# ``budget`` is the optional resident-memory budget in bytes; only the
# budget-aware executors (sharded, auto) consume it.
ALGORITHMS: Dict[str, Callable] = {
    "c3list": lambda g, k, tr, prepared=None, budget=None: run_variant(
        g, k, "best-work", tr, prepared=prepared
    ),
    "c3list-approx": lambda g, k, tr, prepared=None, budget=None: run_variant(
        g, k, "best-depth", tr, prepared=prepared
    ),
    "c3list-hybrid": lambda g, k, tr, prepared=None, budget=None: run_variant(
        g, k, "hybrid", tr, prepared=prepared
    ),
    "c3list-cd": lambda g, k, tr, prepared=None, budget=None: run_variant(
        g, k, "cd-best-work", tr, prepared=prepared
    ),
    "c3list-cd-approx": lambda g, k, tr, prepared=None, budget=None: run_variant(
        g, k, "cd-best-depth", tr, prepared=prepared
    ),
    "frontier": lambda g, k, tr, prepared=None, budget=None: count_cliques(
        g,
        k,
        tracker=tr,
        engine="frontier",
        prepared=prepared if prepared is not None else PreparedGraph(g),
    ),
    # Out-of-core contender: same frontier arithmetic, tables streamed
    # through disk-backed shards sized to the budget (core/sharded.py).
    "sharded": lambda g, k, tr, prepared=None, budget=None: count_cliques(
        g,
        k,
        tracker=tr,
        engine="sharded",
        memory_budget_bytes=budget,
        prepared=prepared if prepared is not None else PreparedGraph(g),
    ),
    # Dispatch-as-measured: resolve_engine (core/api.py) picks the
    # executor exactly as a production query would; the resolved name
    # lands in Measurement.engine so the record never hides the choice.
    "auto": lambda g, k, tr, prepared=None, budget=None: count_cliques(
        g,
        k,
        tracker=tr,
        engine="auto",
        memory_budget_bytes=budget,
        prepared=prepared if prepared is not None else PreparedGraph(g),
    ),
    "kclist": lambda g, k, tr, prepared=None, budget=None: kclist_count(
        g, k, tracker=tr
    ),
    "arbcount": lambda g, k, tr, prepared=None, budget=None: arbcount_count(
        g, k, tracker=tr
    ),
    "chiba-nishizeki": lambda g, k, tr, prepared=None, budget=None: (
        chiba_nishizeki_count(g, k, tracker=tr)
    ),
}


def peak_rss_kb() -> int:
    """The process's lifetime peak resident set size in KiB (0 if unknown).

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; both are
    normalized to KiB. A platform without :mod:`resource` reports 0 —
    records treat the field as optional.
    """
    try:
        import resource
        import sys

        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":
            rss //= 1024
        return int(rss)
    except (ImportError, ValueError, OSError):
        return 0


@dataclass
class Measurement:
    """One measured cell of a figure/table."""

    algorithm: str
    k: int
    count: int
    wall_mean: float
    wall_std: float
    work: float
    depth: float
    t72: float  # Brent-simulated runtime on 72 processors
    t72_sched: float  # greedy-schedule simulation of the outer loop
    repeats: int
    graph: str = ""
    search_work: float = 0.0  # work of the search phase only (no preprocessing)
    peak_candidate: int = 0  # largest candidate set (gamma) seen in the search
    engine: str = ""  # resolved executor (never "auto"; baselines: their name)
    peak_rss_kb: int = 0  # process peak RSS (KiB) after the cell ran; 0 = unknown

    def simulated_time(self, p: int) -> float:
        return self.work / p + self.depth


def run_experiment(
    graph: CSRGraph,
    k: int,
    algorithm: str,
    repeats: int = 3,
    graph_name: str = "",
    p: int = 72,
    metrics: Optional[object] = None,
    spans: Optional[object] = None,
    prepared: Optional[PreparedGraph] = None,
    memory_budget_bytes: Optional[int] = None,
) -> Measurement:
    """Measure one (graph, k, algorithm) cell.

    Wall time is averaged over ``repeats`` runs (first run also collects
    the instrumented cost; counts are asserted identical across repeats).
    An optional ``metrics`` registry / ``spans`` recorder (repro.obs) is
    attached to the first repetition's tracker, so `repro bench --json`
    can embed the hot-loop metrics without perturbing the timed repeats.
    Pass a shared ``prepared`` context to amortize preprocessing across
    cells of a sweep (the first cell touching each piece is charged its
    construction; later cells charge only the search). Baselines do not
    consume it — they build their own orders by design.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; available: {sorted(ALGORITHMS)}"
        )
    if repeats < 1:
        raise ValueError("need at least one repetition")
    fn = ALGORITHMS[algorithm]

    times: List[float] = []
    count: Optional[int] = None
    work = depth = t72 = t72_sched = search_work = 0.0
    peak_candidate = 0
    engine = ""
    for rep in range(repeats):
        tracker = Tracker()
        if rep == 0:
            if metrics is not None:
                tracker.attach_metrics(metrics)
            if spans is not None:
                tracker.attach_spans(spans)
        start = time.perf_counter()
        result = fn(graph, k, tracker, prepared=prepared, budget=memory_budget_bytes)
        times.append(time.perf_counter() - start)
        if count is None:
            count = result.count
            work = tracker.work
            depth = tracker.depth
            peak_candidate = int(getattr(result, "gamma", 0))
            # Facade results carry the resolved engine; baselines (their
            # own result types) are their own engine by definition.
            engine = str(getattr(result, "engine", "") or algorithm)
            search_phase = tracker.phases.get("search")
            search_work = search_phase.work if search_phase is not None else work
            t72 = tracker.total.time_on(p)
            # Serial prefix of the loop simulation = everything charged
            # outside the recorded per-edge/per-vertex tasks.
            log = result.task_log
            loop_work = sum(t.work for t in log.tasks)
            loop_depth = max((t.depth for t in log.tasks), default=0.0)
            log.serial_prefix = Cost(
                max(work - loop_work, 0.0), max(depth - loop_depth, 0.0)
            )
            t72_sched = simulate_loop(log, p)
        elif result.count != count:
            raise AssertionError(
                f"non-deterministic count for {algorithm} (k={k}): "
                f"{result.count} != {count}"
            )
    return Measurement(
        algorithm=algorithm,
        k=k,
        count=int(count or 0),
        wall_mean=statistics.fmean(times),
        wall_std=statistics.stdev(times) if len(times) > 1 else 0.0,
        work=work,
        depth=depth,
        t72=t72,
        t72_sched=t72_sched,
        repeats=repeats,
        graph=graph_name,
        search_work=search_work,
        peak_candidate=peak_candidate,
        engine=engine,
        peak_rss_kb=peak_rss_kb(),
    )


def sweep(
    graph: CSRGraph,
    ks: List[int],
    algorithms: List[str],
    repeats: int = 3,
    graph_name: str = "",
    prepared: Optional[PreparedGraph] = None,
    memory_budget_bytes: Optional[int] = None,
) -> List[Measurement]:
    """Run the Figures-7/8/9 sweep: each algorithm at each clique size.

    With a ``prepared`` context, preprocessing is charged once for the
    whole multi-k sweep instead of once per cell.
    """
    out: List[Measurement] = []
    for k in ks:
        for algo in algorithms:
            out.append(
                run_experiment(
                    graph,
                    k,
                    algo,
                    repeats=repeats,
                    graph_name=graph_name,
                    prepared=prepared,
                    memory_budget_bytes=memory_budget_bytes,
                )
            )
    return out
