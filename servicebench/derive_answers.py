"""Derive ``answers.json``: the reference answer of every workload template.

Run once from the repository root when a workload or a dataset
generator changes::

    python3 servicebench/derive_answers.py [workload ...]

Named workloads are re-derived and the others kept; with no name, all
are.

Every answer comes from the reference engine (``engine="reference"``)
on a fresh ``PreparedGraph`` of a graph built from scratch, never from
the engines the benchmark measures. ``churn`` also gets its committed
mutation cycles here: per graph, alternating insert and delete batches
of 8-16 edges, drawn once from a fixed seed. Inserts close open wedges,
so they create cliques and the dynamic patcher has real work.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro.core.api import count_cliques, list_cliques  # noqa: E402
from repro.core.prepared import PreparedGraph  # noqa: E402
from repro.graphs.builder import from_edges  # noqa: E402

import workloads as wl  # noqa: E402

DEVIATIONS = ("insert", "delete", "insert", "delete")


def _reference(graph, op: str, k: int):
    ctx = PreparedGraph(graph)
    if op == "list":
        listed = list_cliques(graph, k, prepared=ctx, engine="reference")
        return wl.listing_digest([list(c) for c in listed])
    count = count_cliques(graph, k, prepared=ctx, engine="reference").count
    return int(count) if op == "count" else count > 0


def _edges(graph):
    us, vs = graph.edge_array()
    return {(int(u), int(v)) for u, v in zip(us.tolist(), vs.tolist())}


def _cycle(graph, rng: random.Random):
    """Alternating insert/delete deviations of the base edge set."""
    edges = _edges(graph)
    pool = sorted(edges)
    cycle = []
    for mutation in DEVIATIONS:
        size = rng.randint(8, 16)
        if mutation == "delete":
            batch = sorted(rng.sample(pool, size))
        else:
            chosen = set()
            while len(chosen) < size:
                v = rng.randrange(graph.num_vertices)
                nbrs = graph.neighbors(v).tolist()
                if len(nbrs) < 2:
                    continue
                a, b = sorted(rng.sample(nbrs, 2))
                if (a, b) not in edges:
                    chosen.add((a, b))
            batch = sorted(chosen)
        cycle.append({"mutation": mutation, "batch": [list(e) for e in batch]})
    return cycle


def _apply(graph, step):
    edges = _edges(graph)
    batch = {tuple(e) for e in step["batch"]}
    edges = edges | batch if step["mutation"] == "insert" else edges - batch
    return from_edges(sorted(edges), num_vertices=graph.num_vertices)


def derive(workload: wl.Workload):
    answers = {}
    cycles = {}
    rng = random.Random(f"{workload.name}/cycles")
    for dataset, scale in workload.graphs:
        name = wl.graph_name(dataset, scale)
        base = wl.load_graph(dataset, scale)
        states = {"base": base}
        if workload.churn:
            cycles[name] = _cycle(base, rng)
            for j, step in enumerate(cycles[name]):
                states[f"d{j}"] = _apply(base, step)
        for template in workload.templates:
            if template["graph"] != name:
                continue
            for state, graph in states.items():
                event = dict(template, state=state)
                answers[wl.answer_key(event)] = _reference(
                    graph, template["op"], template["k"]
                )
                print(wl.answer_key(event), answers[wl.answer_key(event)])
    doc = {"checksum": wl.table_checksum(answers), "answers": answers}
    if cycles:
        doc["cycles"] = cycles
    return doc


def main() -> None:
    names = sys.argv[1:] or list(wl.WORKLOADS)
    doc = json.loads(wl.ANSWERS_PATH.read_text()) if sys.argv[1:] else {}
    doc.update({name: derive(wl.WORKLOADS[name]) for name in names})
    wl.ANSWERS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
