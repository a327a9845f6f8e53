"""Differential and metamorphic oracles for the clique engines.

Each oracle is a pure function ``(graph, k, rng) -> list of violation
messages`` (empty list = the property holds). Two kinds:

* **Differential** — every engine configuration (reference recursion,
  frontier cold / warm-prepared / kernelized, the sharded plan, the
  process fan-outs with ``workers > 1``, the ``auto`` façade) must agree on
  counts, canonical listings, and existence witnesses — and, on small
  instances, with the brute-force oracle. ``service-versions`` holds the
  query service to the same standard: every answer it gives while
  mutations race the queries equals a cold reference recount of the
  graph version the reply reports.
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

import asyncio
import math
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

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
from ..service.daemon import CliqueService
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
    plan units on processes: one resident shard, and many budgeted shards
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


# Query coroutines racing the mutation coroutine in ``service-versions``.
SERVICE_QUERY_TASKS = 4
SERVICE_QUERIES_PER_TASK = 6
_SERVICE_OPS = ("count", "list", "find", "spectrum")


def _query_plan(rng: np.random.Generator, k: int) -> List[Dict[str, Any]]:
    """One coroutine's requests: every op once, in a random order, plus extras.

    The plan ends with a ``spectrum`` without ``k_max``, whose sizes
    depend on the graph alone (1..ω), never on the order a patched
    context carries.
    """
    ops = list(rng.permutation(_SERVICE_OPS))
    ops += list(rng.choice(_SERVICE_OPS, SERVICE_QUERIES_PER_TASK - len(ops)))
    plan = []
    for op in ops:
        j = int(rng.integers(max(1, k - 1), k + 1))
        size = {"k_max": j} if op == "spectrum" else {"k": j}
        plan.append({"op": str(op), "graph": "g", **size})
    plan.append({"op": "spectrum", "graph": "g"})
    return plan


async def _race_service(
    graph: CSRGraph,
    k: int,
    trace: List[Dict[str, Any]],
    plans: List[List[Dict[str, Any]]],
) -> Tuple[list, list, list, Dict[str, Any]]:
    """Fire the plans at a fresh service while the trace mutates its graph.

    A warm-up count first builds the version-0 triangles, communities
    and frontier tables, so every mutation goes through the
    patch-in-place path instead of leaving pieces to rebuild lazily. The
    repeat pass re-asks each distinct request once, sequentially, after
    the last mutation.
    Returns the mutate replies, the ``(request, reply)`` pairs of the
    racing and repeat phases, and the final ``stats`` result.
    """
    service = CliqueService(workers=SERVICE_QUERY_TASKS)
    try:
        service.registry.register("g", graph=graph)
        handle = service.handle
        warmup = {"op": "count", "graph": "g", "k": k}
        racing = [(warmup, await handle(warmup))]

        async def mutator() -> list:
            return [
                await handle(
                    {"op": "mutate", "graph": "g", "mutation": step["op"],
                     "batch": step["batch"]}
                )
                for step in trace
            ]

        async def querier(plan: List[Dict[str, Any]]) -> list:
            return [(req, await handle(req)) for req in plan]

        mutated, *answered = await asyncio.gather(
            mutator(), *(querier(plan) for plan in plans)
        )
        for pairs in answered:
            racing.extend(pairs)
        distinct = {tuple(sorted(r.items())): r for p in plans for r in p}
        repeat = [
            (req, await handle(req)) for _, req in sorted(distinct.items())
        ]
        stats = (await handle({"op": "stats"}))["result"]
    finally:
        await service.aclose()
    return mutated, racing, repeat, stats


def _versioned_graphs(
    graph: CSRGraph, trace: List[Dict[str, Any]], mutated: list
) -> Tuple[Dict[int, CSRGraph], List[str]]:
    """Each version a mutate reply reported, rebuilt from the trace."""
    graphs = {0: graph}
    edges = set(edge_list(graph))
    version = 0
    for step, reply in zip(trace, mutated):
        if not reply.get("ok"):
            return graphs, [f"mutation {step['op']} failed: {reply['error']}"]
        reported = reply["result"]["version"]
        if reported != version + 1:
            return graphs, [
                f"mutation after version {version} reported version {reported}"
            ]
        batch = {(int(u), int(v)) for u, v in step["batch"]}
        edges = edges | batch if step["op"] == "insert" else edges - batch
        version = reported
        graphs[version] = graph_from_edge_list(sorted(edges), graph.num_vertices)
    return graphs, []


def oracle_service_versions(
    graph: CSRGraph, k: int, rng: np.random.Generator
) -> List[str]:
    """Service answers under concurrent mutation match their versions.

    The dynamic-vs-scratch oracle lifted to the query service: a fresh
    in-process :class:`~repro.service.daemon.CliqueService` serves the
    graph while one coroutine applies a :func:`random_trace` of batches
    and :data:`SERVICE_QUERY_TASKS` coroutines fire ``count`` / ``list``
    / ``find`` / ``spectrum`` with no barrier between them. Every reply
    is checked against a cold ``engine="reference"`` count or listing of
    the version it reports (a ``find`` witness must be a clique of that
    version). The service must report no errors, account every query as
    an engine run, a coalesced follower or a rejection, and serve a
    sequential repeat pass over the final version warm.
    """
    trace = random_trace(
        graph, batches=3, batch_size=3, seed=int(rng.integers(2**31))
    )
    plans = [_query_plan(rng, k) for _ in range(SERVICE_QUERY_TASKS)]
    mutated, racing, repeat, stats = asyncio.run(
        _race_service(graph, k, trace, plans)
    )
    graphs, violations = _versioned_graphs(graph, trace, mutated)
    final = max(graphs)
    cold: Dict[int, PreparedGraph] = {}
    counts: Dict[Tuple[int, int], int] = {}

    def reference_count(version: int, j: int) -> int:
        if (version, j) not in counts:
            g = graphs[version]
            ctx = cold.setdefault(version, PreparedGraph(g))
            counts[version, j] = count_cliques(
                g, j, engine="reference", prepared=ctx
            ).count
        return counts[version, j]

    def reference_listing(version: int, j: int) -> List[List[int]]:
        g = graphs[version]
        ctx = cold.setdefault(version, PreparedGraph(g))
        return [
            list(c)
            for c in list_cliques(g, j, engine="reference", prepared=ctx)
        ]

    for phase, pairs in (("racing", racing), ("repeat", repeat)):
        for request, reply in pairs:
            where = f"{phase} {request['op']} " + ", ".join(
                f"{key}={request[key]}" for key in ("k", "k_max") if key in request
            )
            if not reply.get("ok"):
                violations.append(f"{where} failed: {reply['error']}")
                continue
            result = reply["result"]
            version = result.get("version")
            if version not in graphs:
                violations.append(f"{where} reported unknown version {version}")
                continue
            where += f" at version {version}"
            if phase == "repeat":
                if version != final:
                    where += f" (final version is {final})"
                    violations.append(f"{where}: repeat pass saw a stale version")
                if not result.get("warm"):
                    violations.append(f"{where}: repeat pass was served cold")
            g = graphs[version]
            if request["op"] == "count":
                want = reference_count(version, request["k"])
                if result["count"] != want:
                    violations.append(
                        f"{where} answered {result['count']}, reference "
                        f"counts {want}"
                    )
            elif request["op"] == "list":
                want = reference_listing(version, request["k"])
                if result["cliques"] != want:
                    violations.append(
                        f"{where} listed {len(result['cliques'])} cliques, "
                        f"reference lists {len(want)} (first diff: "
                        f"{_first_diff(result['cliques'], want)})"
                    )
            elif request["op"] == "find":
                j = request["k"]
                exists = reference_count(version, j) > 0
                witness = result.get("witness") or []
                real = len(set(witness)) == j == len(witness) and all(
                    g.has_edge(int(a), int(b))
                    for i, a in enumerate(witness)
                    for b in witness[i + 1:]
                )
                if result["found"] != exists or (exists and not real):
                    violations.append(
                        f"{where} returned witness {result.get('witness')!r}; "
                        f"the reference {j}-clique count is "
                        f"{reference_count(version, j)}"
                    )
            else:
                spectrum = {int(j): c for j, c in result["spectrum"].items()}
                top = request.get("k_max")
                if top is None:
                    # Without k_max the sizes are exactly 1..ω.
                    top = 0
                    while reference_count(version, top + 1) > 0:
                        top += 1
                    if sorted(spectrum) != list(range(1, top + 1)):
                        violations.append(
                            f"{where} listed sizes {sorted(spectrum)}, "
                            f"the clique number is {top}"
                        )
                for j in range(1, top + 1):
                    want = reference_count(version, j)
                    if spectrum.get(j, 0) != want:
                        violations.append(
                            f"{where} spectrum[{j}] = {spectrum.get(j)}, "
                            f"reference counts {want}"
                        )
    service = stats["service"]
    queries = sum(service.get(f"service.op.{op}", 0) for op in _SERVICE_OPS)
    accounted = sum(
        service.get(f"service.{name}", 0)
        for name in ("engine_runs", "coalesced", "rejected")
    )
    if queries != len(racing) + len(repeat) or accounted != queries:
        violations.append(
            f"service stats account {accounted} of {queries} queries "
            f"({len(racing) + len(repeat)} were sent)"
        )
    if service.get("service.errors", 0):
        violations.append(
            f"service counted {service['service.errors']} errors"
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
    "service-versions": oracle_service_versions,
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
