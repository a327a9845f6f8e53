"""Workload definitions, seeded traces and answer checking.

Each workload is a fixed set of query templates over a few built-in
datasets. A seed only shuffles: the trace is a sequence of blocks, each
block a seeded permutation of every template, so every seed runs the
same template mix and a run's cost does not depend on which templates
a seed happens to favour. ``churn`` additionally interleaves one
mutation every 4-8 queries; each graph walks a fixed cycle of committed
batches (apply batch j, revert it, apply batch j+1, ...), so the graph
is always in one of a few states whose reference answers are committed
in ``answers.json``.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

ANSWERS_PATH = Path(__file__).resolve().parent / "answers.json"

# The out-of-core workload's serving budget: below every table it
# queries (81-117 KB), so each count dispatches to the sharded engine.
# Every sharded count writes its whole table to spill files and syncs
# them; the graphs are chosen for many cliques per table byte, so that
# this disk I/O, whose latency the host sets, is a small part of a query.
BUDGET_BYTES = 64 * 1024
# Queries between two churn mutations.
MUTATION_GAPS = (4, 5, 6, 7, 8)


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: Tuple[Tuple[str, float], ...]
    templates: Tuple[Dict[str, Any], ...]
    # Events replayed by the traced run (a fixed trace prefix, so the
    # exact per-layer counts repeat for a given seed).
    traced_events: int
    memory_budget_bytes: Optional[int] = None
    churn: bool = False


def graph_name(dataset: str, scale: float) -> str:
    return f"{dataset}@{scale:g}"


def _counts(graphs: List[str], ks: range) -> List[Dict[str, Any]]:
    return [{"op": "count", "graph": g, "k": k} for g in graphs for k in ks]


def _workloads() -> Dict[str, Workload]:
    # sbm-community@4 is the one graph with 2-word frontier masks; only
    # its cheapest count (k=9) is used, so that a run on one CPU still
    # completes over 200 queries.
    heavy = (("chebyshev4", 2), ("sbm-community", 3), ("sbm-community", 4))
    light = (
        ("lattice-mesh", 1),
        ("ws-smallworld", 1),
        ("sbm-community", 1),
        ("config-powerlaw", 1),
    )
    churn = (("orkut", 2), ("ca-dblp-2012", 4), ("bio-sc-ht", 3))
    budget = (("chebyshev4", 1), ("jester2", 2))
    light_names = [graph_name(*g) for g in light]
    light_templates = (
        _counts(light_names, range(4, 6))
        + [
            {"op": "find", "graph": g, "k": k}
            for g in light_names
            for k in (5, 8)
        ]
        + [
            {"op": "list", "graph": g, "k": 5, "engine": "frontier"}
            for g in light_names[:3]
        ]
    )
    return {
        "warm-heavy": Workload(
            "warm-heavy",
            heavy,
            tuple(
                _counts([graph_name(*g) for g in heavy[:2]], range(6, 10))
                + _counts([graph_name(*heavy[2])], range(9, 10))
            ),
            traced_events=45,
        ),
        "warm-light": Workload(
            "warm-light", light, tuple(light_templates), traced_events=1900
        ),
        "churn": Workload(
            "churn",
            churn,
            tuple(_counts([graph_name(*g) for g in churn], range(4, 7))),
            traced_events=540,
            churn=True,
        ),
        "budget": Workload(
            "budget",
            budget,
            tuple(
                _counts([graph_name(*budget[0])], range(6, 9))
                + _counts([graph_name(*budget[1])], range(5, 7))
            ),
            traced_events=150,
            memory_budget_bytes=BUDGET_BYTES,
        ),
    }


WORKLOADS = _workloads()


def load_graph(dataset: str, scale: float, fresh: bool = False) -> Any:
    """A built-in dataset; ``fresh`` bypasses the loader's memo cache so
    repeated set-ups each pay generation."""
    from repro.bench.datasets import DATASETS, load_dataset

    if fresh:
        DATASETS[dataset].cache_clear()
    return load_dataset(dataset, scale=scale)


def request_of(event: Dict[str, Any]) -> Dict[str, Any]:
    """The protocol request of a trace event (drops bookkeeping keys)."""
    return {
        k: v
        for k, v in event.items()
        if k not in ("state", "expect_version")
    }


def events(
    workload: Workload, seed: int, cycles: Dict[str, Any]
) -> Iterator[Dict[str, Any]]:
    """The endless seeded trace of ``workload``.

    Query events carry ``state`` (the committed graph state they run
    against) and ``expect_version`` (the registry version that state
    has), so every answer, and the version it reports, is known before
    the run. Mutation targets and the gaps between mutations are drawn
    the same balanced way as queries, from seeded permutations.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    versions = {graph_name(*g): 0 for g in workload.graphs}
    bags: Dict[str, List[Any]] = {"gap": [], "target": [], "query": []}

    def draw(bag: str, values: Any) -> Any:
        if not bags[bag]:
            bags[bag] = list(values)
            rng.shuffle(bags[bag])
        return bags[bag].pop()

    until_mutation = draw("gap", MUTATION_GAPS)
    while True:
        template = draw("query", workload.templates)
        g = template["graph"]
        yield dict(
            template,
            state=state_at(versions[g], len(cycles.get(g, ()))),
            expect_version=versions[g],
        )
        if not workload.churn:
            continue
        until_mutation -= 1
        if until_mutation:
            continue
        until_mutation = draw("gap", MUTATION_GAPS)
        target = draw("target", sorted(versions))
        step = cycle_step(cycles[target], versions[target])
        versions[target] += 1
        yield {
            "op": "mutate",
            "graph": target,
            "mutation": step["mutation"],
            "batch": step["batch"],
            "expect_version": versions[target],
        }


def state_at(version: int, cycle_len: int) -> str:
    """The committed state a churn graph is in after ``version`` steps.

    Even steps restore the base edge set; step ``2j + 1`` leaves
    deviation ``j`` (mod the cycle length) applied. Static graphs stay
    at version 0, the base state.
    """
    if version % 2 == 0:
        return "base"
    return f"d{(version // 2) % cycle_len}"


def cycle_step(cycle: List[Dict[str, Any]], version: int) -> Dict[str, Any]:
    """Mutation ``version`` (0-based) of a graph's apply/revert cycle."""
    dev = cycle[(version // 2) % len(cycle)]
    if version % 2 == 0:
        return dev
    undo = "delete" if dev["mutation"] == "insert" else "insert"
    return {"mutation": undo, "batch": dev["batch"]}


def answer_key(event: Dict[str, Any]) -> str:
    return f"{event['op']} {event['graph']} {event['k']} {event['state']}"


def listing_digest(cliques: List[List[int]]) -> List[int]:
    """(count, CRC-32) of a canonical clique listing."""
    text = json.dumps(cliques, separators=(",", ":"))
    return [len(cliques), zlib.crc32(text.encode())]


def answer_of(op: str, result: Dict[str, Any]) -> Any:
    """The semantic answer of a response: count, existence, or listing."""
    if op == "count":
        return int(result["count"])
    if op == "find":
        return bool(result["found"])
    return listing_digest(result["cliques"])


def chain(crc: int, op: str, graph: str, version: int, k: int, answer: Any) -> int:
    """One step of the answer checksum: CRC-32 chained over
    ``(op, graph, version, k, answer)`` in trace order."""
    item = json.dumps([op, graph, version, k, answer]).encode()
    return zlib.crc32(item, crc)


def table_checksum(answers: Dict[str, Any]) -> int:
    crc = 0
    for key in sorted(answers):
        crc = zlib.crc32(json.dumps([key, answers[key]]).encode(), crc)
    return crc


def load_answers(workload: Workload) -> Dict[str, Any]:
    """The committed reference answers of ``workload``, integrity-checked."""
    doc = json.loads(ANSWERS_PATH.read_text())[workload.name]
    if table_checksum(doc["answers"]) != doc["checksum"]:
        raise SystemExit(
            f"answers.json: {workload.name} table does not match its checksum"
        )
    return doc
