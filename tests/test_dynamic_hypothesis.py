"""Property-based differential tests of the dynamic mutation layer.

Three properties over the fuzz subsystem's generators (arbitrary small
graphs, the 12 seeded families, and the 3 seeded mutators):

* **round-trip** — ``insert(batch)`` then ``delete(batch)`` (and the
  reverse) restores the original counts, listings, and edge set;
* **batch = singles** — one batch mutation equals the same edges applied
  as sequential single-edge batches;
* **incremental = scratch** — driving a :class:`DynamicGraph` to any
  mutated family instance yields the counts of a cold recompute there.

The CSR splice that builds each new snapshot is checked array for array
against a from-scratch ``from_edges`` rebuild.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.frontier import frontier_count_cliques
from repro.core.prepared import PreparedGraph
from repro.dynamic import DynamicGraph, MutationError, random_trace
from repro.dynamic.graph import _apply_batch, _normalized_batch
from repro.fuzz.strategies import (
    MUTATORS,
    derive_seed,
    edge_list,
    family_cases,
    random_graphs,
)
from repro.graphs import from_edges

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def scratch(graph, k):
    return frontier_count_cliques(graph, k, prepared=PreparedGraph(graph))


def batches_between(old, new):
    """Insert/delete batches that drive ``old``'s edge set to ``new``'s."""
    before = set(edge_list(old))
    after = set(edge_list(new))
    return sorted(after - before), sorted(before - after)


@given(g=random_graphs(max_n=12), k=st.integers(3, 5), seed=st.integers(0, 2**20))
@settings(**SETTINGS)
def test_insert_delete_round_trips(g, k, seed):
    dyn = DynamicGraph(g)
    before = dyn.count(k)
    listing = dyn.cliques(k)
    trace = random_trace(g, batches=2, batch_size=3, seed=seed)
    dyn.apply_trace(trace)
    for step in reversed(trace):
        inverse = "delete" if step["op"] == "insert" else "insert"
        dyn.apply_trace([{"op": inverse, "batch": step["batch"]}])
    assert dyn.graph == g
    assert dyn.count(k) == before
    assert dyn.cliques(k) == listing


@given(g=random_graphs(max_n=12), k=st.integers(3, 5), seed=st.integers(0, 2**20))
@settings(**SETTINGS)
def test_batch_equals_sequential_singles(g, k, seed):
    trace = random_trace(g, batches=1, batch_size=4, seed=seed)
    if not trace:
        return
    op, batch = trace[0]["op"], [tuple(p) for p in trace[0]["batch"]]
    as_batch = DynamicGraph(g)
    as_batch.count(k)
    as_batch._mutate(op, batch)
    one_by_one = DynamicGraph(g)
    one_by_one.count(k)
    for pair in batch:
        one_by_one._mutate(op, [pair])
    assert as_batch.graph == one_by_one.graph
    assert as_batch.count(k) == one_by_one.count(k)
    assert as_batch.count(k) == scratch(as_batch.graph, k)


@given(case=family_cases(max_vertices=18), data=st.data())
@settings(**SETTINGS)
def test_incremental_equals_scratch_on_fuzz_families(case, data):
    g = case.build()
    name = data.draw(st.sampled_from(sorted(MUTATORS)), label="mutator")
    seed = data.draw(st.integers(0, 2**20), label="seed")
    mutated = MUTATORS[name](g, count=3, seed=derive_seed(seed, name))
    inserts, deletes = batches_between(g, mutated)
    dyn = DynamicGraph(g, verify=True)
    dyn.count(4)
    dyn.cliques(4)
    if deletes:
        dyn.delete_edges(deletes)
    if inserts:
        dyn.insert_edges(inserts)
    assert dyn.graph == mutated
    assert dyn.count(4) == scratch(mutated, 4)


def rebuilt(graph, op, batch):
    """The snapshot after ``batch``, rebuilt from its full edge list."""
    edges = set(edge_list(graph))
    if op == "insert":
        edges |= set(batch)
    else:
        edges -= set(batch)
    arr = np.asarray(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return from_edges(arr, num_vertices=graph.num_vertices)


def assert_splice_matches_rebuild(graph, op, batch):
    normalized = _normalized_batch(graph, op, batch)
    spliced = _apply_batch(graph, op, normalized)
    expected = rebuilt(graph, op, normalized)
    assert spliced.indptr.dtype == expected.indptr.dtype
    assert spliced.indices.dtype == expected.indices.dtype
    assert np.array_equal(spliced.indptr, expected.indptr)
    assert np.array_equal(spliced.indices, expected.indices)
    return spliced


@given(g=random_graphs(max_n=14), seed=st.integers(0, 2**20))
@settings(**SETTINGS)
def test_csr_splice_equals_rebuild_over_traces(g, seed):
    trace = random_trace(g, batches=4, batch_size=5, seed=seed)
    for step in trace:
        batch = [tuple(p) for p in step["batch"]]
        g = assert_splice_matches_rebuild(g, step["op"], batch)


def test_csr_splice_first_and_last_edges_of_a_vertex():
    g = from_edges([(0, 1), (1, 2), (2, 4)], num_vertices=6)
    # Vertex 4 loses its only edge; vertices 3 and 5 gain their first.
    g = assert_splice_matches_rebuild(g, "delete", [(2, 4)])
    assert g.degree(4) == 0
    g = assert_splice_matches_rebuild(g, "insert", [(3, 5), (0, 3), (5, 0)])
    assert g.degree(3) == 2 and g.degree(5) == 2
    # Every edge out, then back in at once.
    everything = edge_list(g)
    g = assert_splice_matches_rebuild(g, "delete", everything)
    assert g.num_edges == 0
    assert_splice_matches_rebuild(g, "insert", everything)


def test_csr_splice_rejects_unvalidated_batches():
    g = from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=4)
    before = (g.indptr.copy(), g.indices.copy())
    with pytest.raises(MutationError, match="missing edge"):
        _apply_batch(g, "delete", [(0, 1), (2, 3)])
    with pytest.raises(MutationError, match="missing edge"):
        _apply_batch(g, "delete", [(0, 3)])
    with pytest.raises(MutationError, match="existing edge"):
        _apply_batch(g, "insert", [(0, 3), (1, 2)])
    assert np.array_equal(g.indptr, before[0])
    assert np.array_equal(g.indices, before[1])
