"""One frontier executor, many shard plans: one test body per property.

Every frontier query runs through :func:`repro.core.frontier.execute`
over a shard plan. The bodies below run unchanged on each plan — one
resident shard, many spilled shards under a 1-byte budget, and each of
those fanned out over two worker processes — and must agree with brute
force and with the reference engine, for counts and canonical listings.
"""

from functools import lru_cache

import pytest

import repro.core.frontier as frontier_mod
from repro import count_cliques, list_cliques
from repro.baselines import brute_force_count, brute_force_list
from repro.core.frontier import execute, resident_plan
from repro.core.prepared import PreparedGraph
from repro.core.sharded import spilled_plan
from repro.graphs import (
    complete_graph,
    empty_graph,
    gnm_random_graph,
    hypercube_graph,
    plant_cliques,
)
from repro.obs import MetricsRegistry
from repro.pram.tracker import Tracker

PLANS = {
    "resident": (resident_plan, None),
    "resident-workers2": (resident_plan, 2),
    "spilled-1B": (spilled_plan(1, shared=False), None),
    "spilled-1B-workers2": (spilled_plan(1, shared=False), 2),
}

GRAPHS = {
    "gnm": gnm_random_graph(24, 110, seed=4),
    "planted": plant_cliques(gnm_random_graph(22, 50, seed=2), [7], seed=2)[0],
    "complete": complete_graph(9),
    "empty": empty_graph(0),
    "triangle-free": hypercube_graph(4),
}


@lru_cache(maxsize=None)
def expected_listing(name, k):
    """Brute force, checked once against the reference engine."""
    g = GRAPHS[name]
    want = sorted(brute_force_list(g, k))
    assert want == list_cliques(g, k, engine="reference")
    assert len(want) == brute_force_count(g, k)
    return want


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_count_matches_brute_force_and_reference(plan, k):
    open_plan, workers = PLANS[plan]
    for name, g in GRAPHS.items():
        got, listed = execute(
            g, k, PreparedGraph(g), open_plan=open_plan, workers=workers
        )
        assert listed is None
        assert got == len(expected_listing(name, k)), name


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_listing_matches_brute_force_and_reference(plan, k):
    open_plan, workers = PLANS[plan]
    for name, g in GRAPHS.items():
        count, listed = execute(
            g, k, PreparedGraph(g), open_plan=open_plan, workers=workers,
            listing=True,
        )
        assert listed == expected_listing(name, k), name
        assert count == len(listed), name


def test_unbudgeted_count_drives_once_on_the_resident_tables(monkeypatch):
    g = gnm_random_graph(40, 260, seed=8)
    ctx = PreparedGraph(g)
    tables = ctx.frontier_tables("degeneracy")
    seen = []
    real = frontier_mod._drive

    def spy(drive_tables, *args, **kwargs):
        seen.append(drive_tables)
        return real(drive_tables, *args, **kwargs)

    monkeypatch.setattr(frontier_mod, "_drive", spy)
    result = count_cliques(g, 5, prepared=ctx)
    assert result.engine == "frontier"
    assert result.count == count_cliques(g, 5, engine="reference").count > 0
    assert len(seen) == 1 and seen[0] is tables


def test_workers_never_choose_the_engine():
    g = gnm_random_graph(40, 260, seed=8)
    expected = count_cliques(g, 5, engine="reference").count
    roomy = count_cliques(g, 5, workers=2)
    assert roomy.engine == "frontier" and "workers=2" in roomy.engine_reason
    tight = count_cliques(g, 5, workers=2, memory_budget_bytes=1)
    assert tight.engine == "sharded" and "workers=2" in tight.engine_reason
    ablation = count_cliques(g, 5, workers=2, prune=False)
    assert ablation.engine == "reference"
    assert roomy.count == tight.count == ablation.count == expected


def test_shard_metrics_only_on_spilled_plans():
    g = gnm_random_graph(40, 260, seed=8)
    for plan, want_shards in ((resident_plan, False), (spilled_plan(1), True)):
        registry = MetricsRegistry()
        tracker = Tracker()
        tracker.attach_metrics(registry)
        execute(g, 5, PreparedGraph(g), tracker, open_plan=plan)
        names = set(registry.to_dict())
        assert "frontier.rounds" in names
        assert ("shard.count" in names) == want_shards
        assert ("shard.wall_imbalance" in names) == want_shards


@pytest.mark.parametrize("engine", ["bitset", "process"])
def test_removed_engines_are_rejected(engine):
    g = complete_graph(6)
    with pytest.raises(ValueError):
        count_cliques(g, 4, engine=engine)
    with pytest.raises(ValueError):
        list_cliques(g, 4, engine=engine)

