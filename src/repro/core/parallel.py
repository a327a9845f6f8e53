"""Process-parallel reference counting: real cores for the outer edge loop.

Algorithm 1's outer loop is embarrassingly parallel over the eligible
edges. Under CPython, threads cannot exploit that (GIL), but forked
processes can: this wrapper builds the shared read-only state once (DAG
+ communities) and fans the eligible-edge range out with
:func:`repro.pram.executor.parallel_map_reduce`, each worker recursing
edge by edge with :func:`repro.core.recursive.recursive_count`. The
state reaches workers through the executor's ``state=`` channel (never a
module global — a global is clobbered by re-entrant calls and is
invisible under a spawn start method; lint rule R2 enforces this).

The frontier engine fans out through its own executor
(:func:`repro.core.frontier.execute` with ``workers > 1``); this module
keeps the instrumented recursion on processes, the path the ``process``
fuzz oracle and the CREW sanitizer tests exercise.

Chunks are weighted by community size (the paper's per-edge work bound
is a function of |C(u,v)|), so a few heavy communities don't serialize
onto one worker. On a single-core machine (``n_workers=1``) this
degrades to the exact sequential loop, so results and costs remain
comparable.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.digraph import OrientedDAG
from ..pram.executor import parallel_map_reduce, worker_state
from ..pram.tracker import NULL_TRACKER, Tracker
from ..triangles.communities import EdgeCommunities
from .prepared import PreparedGraph, prepared_for
from .recursive import SearchStats, recursive_count

__all__ = ["count_cliques_parallel"]


def _worker(chunk: np.ndarray, k: int) -> int:
    dag: OrientedDAG
    comms: EdgeCommunities
    eligible: np.ndarray
    dag, comms, eligible = worker_state()
    total = 0
    for idx in chunk.tolist():
        eid = int(eligible[idx])
        community = comms.of(eid)
        got, _ = recursive_count(
            dag, comms, community, k - 2, k, SearchStats()
        )
        total += got
    return total


def count_cliques_parallel(
    graph: CSRGraph,
    k: int,
    n_workers: Optional[int] = None,
    tracker: Optional[Tracker] = None,
    prepared: Optional[PreparedGraph] = None,
) -> int:
    """Count k-cliques with the outer edge loop on real processes.

    Returns just the count (cost tracking across process boundaries would
    require IPC aggregation; use the sequential API for instrumentation).
    A ``tracker`` built with ``sanitize=True`` runs the fan-out through
    the CREW-checked sequential path, proving the dispatch race-free.
    ``prepared`` reuses the shared DAG/communities — the read-only state
    forked (or pickled) to workers is identical either way.
    """
    if k < 1:
        raise ValueError(f"clique size must be >= 1, got {k}")
    n = graph.num_vertices
    if k == 1:
        return n
    if k == 2:
        return graph.num_edges

    ctx = prepared_for(graph, prepared)
    prep_tracker = tracker if tracker is not None else NULL_TRACKER
    dag = ctx.dag("degeneracy", prep_tracker)
    comms = ctx.communities("degeneracy", prep_tracker)
    if k == 3:
        return comms.num_triangles

    eligible = np.flatnonzero(comms.sizes >= (k - 2))
    # Per-edge work scales with community size (Lemma 3.2's bound), so
    # weight the contiguous chunks by it rather than by edge count.
    total = parallel_map_reduce(
        _worker,
        int(eligible.size),
        args=(k,),
        n_workers=n_workers,
        state=(dag, comms, eligible),
        initial=0,
        tracker=tracker,
        weights=comms.sizes[eligible].astype(np.float64),
    )
    assert total is not None  # initial=0 makes the empty reduction explicit
    return int(total)
