"""Differential and metamorphic oracles for the clique engines.

Each oracle is a pure function ``(graph, k, rng) -> list of violation
messages`` (empty list = the property holds). Two kinds:

* **Differential** — every engine configuration (reference recursion,
  frontier cold / warm-prepared / kernelized, the sharded plan, the
  process fan-outs with ``workers > 1``, the ``auto`` façade) must agree on
  counts, canonical listings, and existence witnesses — and, on small
  instances, with the brute-force oracle.
* **Metamorphic** — known input→output relations that need no external
  oracle: vertex-relabeling invariance, disjoint-union additivity,
  edge-deletion monotonicity (with the exact listing-derived delta),
  its batch generalization dynamic-vs-scratch (incremental maintenance
  through :mod:`repro.dynamic` equals cold recompute after every
  mutation batch, and undoing the trace round-trips exactly),
  planted-clique detection, and spectrum consistency
  (``clique_spectrum(g)[k] == count_cliques(g, k)``).

The registry :data:`ORACLES` is what the fuzz runner, the CLI and the
auto-emitted regression files all consult; :func:`run_oracle` is the
stable one-call entry point those regressions import.

A test-only perturbation hook (:func:`count_perturbation`) lets the
suite prove the harness *would* catch a silently wrong engine: it wraps
every observed count, and an injected off-by-one must surface as an
``engines`` violation, survive shrinking, and land in a regression file.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

from ..baselines.bruteforce import brute_force_count, brute_force_list
from ..baselines.kclist import kclist_count
from ..core.api import count_cliques, list_cliques
from ..core.existence import clique_spectrum, find_clique
from ..core.frontier import frontier_count_cliques, frontier_list_cliques
from ..core.parallel import count_cliques_parallel
from ..core.prepared import PreparedGraph
from ..core.sharded import sharded_count_cliques, sharded_list_cliques
from ..core.variants import run_variant
from ..dynamic import DynamicGraph, random_trace
from ..graphs.builder import complete_graph
from ..graphs.csr import CSRGraph
from ..pram.tracker import Tracker
from .strategies import edge_list, graph_from_edge_list

__all__ = [
    "ORACLES",
    "count_perturbation",
    "run_oracle",
    "run_oracles",
    "set_count_perturbation",
]

# Above this size the brute-force oracle is dropped from the differential
# matrix (the engines still cross-check each other and kClist).
BRUTE_FORCE_LIMIT = 24

PerturbFn = Callable[[str, CSRGraph, int, int], int]

_PERTURB: Optional[PerturbFn] = None


def set_count_perturbation(fn: Optional[PerturbFn]) -> None:
    """Install (or clear, with ``None``) the test-only count perturbation.

    ``fn(engine_name, graph, k, true_count)`` returns the count the named
    engine should *appear* to produce. Production code never sets this;
    the fuzz tests use it to verify the oracles catch a lying engine.
    """
    global _PERTURB
    _PERTURB = fn


@contextmanager
def count_perturbation(fn: PerturbFn):
    """Scoped :func:`set_count_perturbation` (always restored on exit)."""
    set_count_perturbation(fn)
    try:
        yield
    finally:
        set_count_perturbation(None)


def _observed(engine: str, graph: CSRGraph, k: int, raw: int) -> int:
    if _PERTURB is None:
        return int(raw)
    return int(_PERTURB(engine, graph, k, int(raw)))


# -- differential oracles --------------------------------------------------


def oracle_engines(
    graph: CSRGraph, k: int, rng: np.random.Generator
) -> List[str]:
    """All engine configurations agree on the k-clique count.

    The matrix is the fast-path/slow-path split where silent divergence
    bugs live: cold vs warm-prepared contexts, kernelized dispatch, the
    out-of-core sharded streamer (unlimited budget plus an rng-drawn
    tiny one), and the independent kClist baseline — plus brute force on
    small instances.
    """
    counts: Dict[str, int] = {}
    counts["reference"] = _observed(
        "reference", graph, k, run_variant(graph, k, "best-work", Tracker()).count
    )
    counts["frontier"] = _observed(
        "frontier", graph, k, frontier_count_cliques(graph, k)
    )
    ctx = PreparedGraph(graph)
    frontier_count_cliques(graph, k, prepared=ctx)  # populate every piece
    counts["frontier:warm"] = _observed(
        "frontier:warm", graph, k, frontier_count_cliques(graph, k, prepared=ctx)
    )
    counts["kernelized"] = _observed(
        "kernelized",
        graph,
        k,
        count_cliques(graph, k, engine="frontier", kernelize=True).count,
    )
    counts["auto"] = _observed("auto", graph, k, count_cliques(graph, k).count)
    counts["sharded"] = _observed(
        "sharded", graph, k, sharded_count_cliques(graph, k)
    )
    counts["sharded:budgeted"] = _observed(
        "sharded:budgeted",
        graph,
        k,
        sharded_count_cliques(
            graph,
            k,
            memory_budget_bytes=int(rng.integers(1, 4096)),
            verify=True,
        ),
    )
    counts["kclist"] = _observed("kclist", graph, k, kclist_count(graph, k).count)
    if graph.num_vertices <= BRUTE_FORCE_LIMIT:
        counts["brute-force"] = brute_force_count(graph, k)
    if len(set(counts.values())) > 1:
        detail = ", ".join(f"{name}={counts[name]}" for name in sorted(counts))
        return [f"engines disagree on the {k}-clique count: {detail}"]
    return []


def oracle_process(
    graph: CSRGraph, k: int, rng: np.random.Generator
) -> List[str]:
    """Both process fan-outs (``workers=2``) match the reference count.

    The reference recursion on processes, and the frontier executor's
    plan units on processes: one resident shard, and many spilled shards
    under a 1-byte budget.
    """
    del rng
    expected = _observed(
        "reference", graph, k, run_variant(graph, k, "best-work", Tracker()).count
    )
    counts = {
        "process": count_cliques_parallel(graph, k, n_workers=2),
        "frontier": count_cliques(graph, k, engine="frontier", workers=2).count,
        "sharded": sharded_count_cliques(
            graph, k, memory_budget_bytes=1, workers=2
        ),
    }
    violations: List[str] = []
    for name, raw in counts.items():
        got = _observed(name, graph, k, raw)
        if got != expected:
            violations.append(
                f"{name} fan-out (workers=2) counted {got} {k}-cliques, "
                f"reference counted {expected}"
            )
    return violations


def oracle_listings(
    graph: CSRGraph, k: int, rng: np.random.Generator
) -> List[str]:
    """Reference and frontier listings are identical and canonical."""
    del rng
    violations: List[str] = []
    ref = list_cliques(graph, k, engine="reference")
    fro = frontier_list_cliques(graph, k)
    if ref != fro:
        violations.append(
            f"reference and frontier listings differ for k={k}: "
            f"{len(ref)} vs {len(fro)} cliques "
            f"(first diff: {_first_diff(ref, fro)})"
        )
    sha = sharded_list_cliques(graph, k, memory_budget_bytes=1)
    if ref != sha:
        violations.append(
            f"reference and sharded (1-byte budget) listings differ for "
            f"k={k}: {len(ref)} vs {len(sha)} cliques "
            f"(first diff: {_first_diff(ref, sha)})"
        )
    if ref != sorted(tuple(sorted(c)) for c in ref):
        violations.append(f"reference listing for k={k} is not canonical")
    if graph.num_vertices <= BRUTE_FORCE_LIMIT:
        expected = sorted(brute_force_list(graph, k))
        if ref != expected:
            violations.append(
                f"reference listing disagrees with brute force for k={k}: "
                f"{len(ref)} vs {len(expected)} cliques"
            )
    return violations


def _first_diff(a, b):
    for left, right in zip(a, b):
        if left != right:
            return (left, right)
    return ("<prefix>", f"lengths {len(a)} vs {len(b)}")


def oracle_witness(
    graph: CSRGraph, k: int, rng: np.random.Generator
) -> List[str]:
    """``find_clique`` agrees with the count and returns a real clique."""
    del rng
    count = _observed(
        "frontier", graph, k, frontier_count_cliques(graph, k)
    )
    witness = find_clique(graph, k)
    if (witness is not None) != (count > 0):
        return [
            f"find_clique returned {witness!r} but the {k}-clique count "
            f"is {count}"
        ]
    if witness is not None:
        vs = list(witness)
        distinct = len(set(vs)) == k == len(vs)
        adjacent = distinct and all(
            graph.has_edge(int(vs[i]), int(vs[j]))
            for i in range(k)
            for j in range(i + 1, k)
        )
        if not adjacent:
            return [f"find_clique witness {witness!r} is not a {k}-clique"]
    return []


# -- metamorphic oracles ---------------------------------------------------


def _relabeled(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    us, vs = graph.edge_array()
    relabeled = np.stack([perm[us], perm[vs]], axis=1)
    return graph_from_edge_list(relabeled, graph.num_vertices)


def oracle_relabel(
    graph: CSRGraph, k: int, rng: np.random.Generator
) -> List[str]:
    """Counts and (mapped) listings are invariant under vertex relabeling."""
    n = graph.num_vertices
    if n < 2:
        return []
    perm = rng.permutation(n)
    shuffled = _relabeled(graph, perm)
    base = _observed("frontier", graph, k, frontier_count_cliques(graph, k))
    mapped = _observed(
        "frontier", shuffled, k, frontier_count_cliques(shuffled, k)
    )
    if base != mapped:
        return [
            f"relabeling changed the {k}-clique count: {base} -> {mapped} "
            f"(perm={perm.tolist()})"
        ]
    expected = sorted(
        tuple(sorted(int(perm[v]) for v in c)) for c in list_cliques(graph, k)
    )
    if expected != list_cliques(shuffled, k):
        return [f"relabeling changed the {k}-clique listing (perm={perm.tolist()})"]
    return []


def oracle_union(
    graph: CSRGraph, k: int, rng: np.random.Generator
) -> List[str]:
    """Disjoint-union additivity: count(G ⊔ H) = count(G) + count(H)."""
    partner = complete_graph(int(rng.integers(k, k + 3)))
    n = graph.num_vertices
    shifted = [(u + n, v + n) for u, v in edge_list(partner)]
    union = graph_from_edge_list(
        edge_list(graph) + shifted, n + partner.num_vertices
    )
    lhs = _observed("frontier", union, k, frontier_count_cliques(union, k))
    rhs = _observed(
        "frontier", graph, k, frontier_count_cliques(graph, k)
    ) + _observed(
        "frontier", partner, k, frontier_count_cliques(partner, k)
    )
    if lhs != rhs:
        return [
            f"disjoint union is not additive for k={k}: "
            f"count(G ⊔ K{partner.num_vertices}) = {lhs}, parts sum to {rhs}"
        ]
    return []


def oracle_deletion(
    graph: CSRGraph, k: int, rng: np.random.Generator
) -> List[str]:
    """Deleting one edge removes exactly the listed cliques through it."""
    pairs = edge_list(graph)
    if not pairs:
        return []
    u, v = pairs[int(rng.integers(len(pairs)))]
    kept = [p for p in pairs if p != (u, v)]
    smaller = graph_from_edge_list(kept, graph.num_vertices)
    before = _observed("frontier", graph, k, frontier_count_cliques(graph, k))
    after = _observed(
        "frontier", smaller, k, frontier_count_cliques(smaller, k)
    )
    if after > before:
        return [
            f"deleting edge ({u}, {v}) increased the {k}-clique count: "
            f"{before} -> {after}"
        ]
    through = sum(1 for c in list_cliques(graph, k) if u in c and v in c)
    if before - after != through:
        return [
            f"deleting edge ({u}, {v}) removed {before - after} {k}-cliques "
            f"but the listing shows {through} cliques through it"
        ]
    return []


def oracle_dynamic_vs_scratch(
    graph: CSRGraph, k: int, rng: np.random.Generator
) -> List[str]:
    """Incremental mutation state equals recompute-from-scratch.

    The single-edge :func:`oracle_deletion` generalized to the dynamic
    layer: a seeded trace of insert/delete batches runs through
    :class:`~repro.dynamic.DynamicGraph`, and after *every* batch the
    incrementally maintained count and listing — and a query through the
    patched warm context — must equal a cold recompute on the mutated
    snapshot. Finally the trace is undone in reverse and the state must
    round-trip to the original count and listing exactly.
    """
    before = _observed("frontier", graph, k, frontier_count_cliques(graph, k))
    baseline_listing = list_cliques(graph, k)
    dyn = DynamicGraph(graph)
    dyn.count(k)
    dyn.cliques(k)
    trace = random_trace(
        graph, batches=2, batch_size=3, seed=int(rng.integers(2**31))
    )
    violations: List[str] = []
    for step in trace:
        dyn.apply_trace([step])
        cold = PreparedGraph(dyn.graph)
        scratch = _observed(
            "frontier",
            dyn.graph,
            k,
            frontier_count_cliques(dyn.graph, k, prepared=cold),
        )
        where = f"after {step['op']} of {len(step['batch'])} edges"
        if dyn.count(k) != scratch:
            violations.append(
                f"incremental {k}-clique count {where} is {dyn.count(k)}, "
                f"scratch recount is {scratch}"
            )
        warm = frontier_count_cliques(dyn.graph, k, prepared=dyn.prepared)
        if warm != scratch:
            violations.append(
                f"patched warm context counts {warm} {k}-cliques {where}, "
                f"scratch recount is {scratch}"
            )
        if dyn.cliques(k) != list_cliques(dyn.graph, k, prepared=cold):
            violations.append(
                f"incremental {k}-clique listing {where} differs from the "
                f"scratch listing"
            )
    for step in reversed(trace):
        inverse = "delete" if step["op"] == "insert" else "insert"
        dyn.apply_trace([{"op": inverse, "batch": step["batch"]}])
    if dyn.count(k) != before:
        violations.append(
            f"undoing the trace did not round-trip the {k}-clique count: "
            f"{before} -> {dyn.count(k)}"
        )
    if dyn.cliques(k) != baseline_listing:
        violations.append(
            f"undoing the trace did not round-trip the {k}-clique listing"
        )
    return violations


def oracle_planted(
    graph: CSRGraph, k: int, rng: np.random.Generator
) -> List[str]:
    """A planted s-clique (s >= k) is detected: count and witness react."""
    size = int(rng.integers(k, k + 2))
    n = max(graph.num_vertices, size)
    members = np.sort(rng.choice(n, size=size, replace=False))
    extra = [
        (int(members[i]), int(members[j]))
        for i in range(size)
        for j in range(i + 1, size)
    ]
    grown = graph_from_edge_list(edge_list(graph) + extra, n)
    base = _observed("frontier", graph, k, frontier_count_cliques(graph, k))
    got = _observed("frontier", grown, k, frontier_count_cliques(grown, k))
    floor = math.comb(size, k)
    violations: List[str] = []
    if got < floor:
        violations.append(
            f"planting a {size}-clique yielded only {got} {k}-cliques "
            f"(>= C({size},{k}) = {floor} expected)"
        )
    if graph.num_vertices == n and got < base:
        violations.append(
            f"planting a clique decreased the {k}-clique count: "
            f"{base} -> {got}"
        )
    witness = find_clique(grown, k)
    if witness is None:
        violations.append(
            f"find_clique missed the planted {size}-clique at k={k}"
        )
    return violations


def oracle_spectrum(
    graph: CSRGraph, k: int, rng: np.random.Generator
) -> List[str]:
    """``clique_spectrum[j]`` matches ``count_cliques(j)`` for every j."""
    del rng
    spectrum = clique_spectrum(graph, k_max=max(k, 6))
    violations: List[str] = []
    for j in sorted(spectrum):
        expected = _observed(
            "auto", graph, j, count_cliques(graph, j).count
        )
        if spectrum[j] != expected:
            violations.append(
                f"clique_spectrum[{j}] = {spectrum[j]} but "
                f"count_cliques(k={j}) = {expected}"
            )
    nonzero = [j for j in sorted(spectrum) if spectrum[j] > 0 and j >= 2]
    if nonzero and nonzero != list(range(2, nonzero[-1] + 1)):
        violations.append(
            f"spectrum support has a gap (no j-clique but a larger one "
            f"exists): {spectrum}"
        )
    return violations


ORACLES: Dict[str, Callable[[CSRGraph, int, np.random.Generator], List[str]]] = {
    "engines": oracle_engines,
    "process": oracle_process,
    "listings": oracle_listings,
    "witness": oracle_witness,
    "relabel": oracle_relabel,
    "union": oracle_union,
    "deletion": oracle_deletion,
    "dynamic-vs-scratch": oracle_dynamic_vs_scratch,
    "planted": oracle_planted,
    "spectrum": oracle_spectrum,
}


def run_oracle(
    name: str, graph: CSRGraph, k: int, seed: int = 0
) -> List[str]:
    """Run one named oracle with a deterministic RNG; [] means it holds.

    The stable entry point the auto-emitted regression files import: the
    seed pins the metamorphic partner (permutation / deleted edge / …)
    so a replayed failure exercises exactly the original relation.
    """
    if name not in ORACLES:
        raise ValueError(f"unknown oracle {name!r}; choose from {sorted(ORACLES)}")
    return ORACLES[name](graph, k, np.random.default_rng(seed))


def run_oracles(
    graph: CSRGraph,
    k: int,
    names=None,
    seed: int = 0,
) -> Dict[str, List[str]]:
    """Run several oracles; returns only the ones that found violations."""
    chosen = sorted(ORACLES) if names is None else list(names)
    failures: Dict[str, List[str]] = {}
    for name in chosen:
        msgs = run_oracle(name, graph, k, seed=seed)
        if msgs:
            failures[name] = msgs
    return failures
