"""Pinned PRAM costs of cold (context-free) engine calls on ``gearbox``.

A cold call builds its preprocessing on a private ``PreparedGraph``, so
it must charge exactly what the paper's pipeline costs: the same work
and depth per phase for every Table-1 variant, and the same totals for
the decision queries and the extension engines. The numbers below are
exact; a change to the order, orientation or community builders (or to
how a cold call reaches them) shows up here as a mismatch.
"""

from __future__ import annotations

import pytest

from repro.bench.datasets import load_dataset
from repro.core.densest import per_vertex_clique_counts
from repro.core.existence import clique_spectrum, find_clique, max_clique_size
from repro.core.motifs import count_cliques_triangle_growing
from repro.core.variants import run_variant
from repro.pram.tracker import Tracker

# (variant, k) -> phase -> (work, depth) of a cold run_variant call.
VARIANT_PHASES = {
    ("best-depth", 4): {
        "communities": (255161, 234),
        "orientation": (53110, 66),
        "reduce": (5498, 13),
        "search": (111490, 5),
    },
    ("best-depth", 5): {
        "communities": (255161, 234),
        "orientation": (53110, 66),
        "reduce": (3428, 12),
        "search": (126829, 10),
    },
    ("best-work", 4): {
        "communities": (246039, 234),
        "orientation": (53851, 1031),
        "reduce": (5135, 13),
        "search": (110800, 5),
    },
    ("best-work", 5): {
        "communities": (246039, 234),
        "orientation": (53851, 1031),
        "reduce": (3571, 12),
        "search": (134368, 10),
    },
    ("cd-best-depth", 4): {
        "communities": (253054, 241),
        "edge-order": (234768, 344),
        "reduce": (5689, 13),
        "search": (286517, 66),
    },
    ("cd-best-depth", 5): {
        "communities": (253054, 241),
        "edge-order": (234768, 344),
        "reduce": (4762, 13),
        "search": (271695, 71),
    },
    ("cd-best-work", 4): {
        "communities": (253054, 241),
        "edge-order": (1271889, 8696),
        "reduce": (6409, 13),
        "search": (273848, 66),
    },
    ("cd-best-work", 5): {
        "communities": (253054, 241),
        "edge-order": (1271889, 8696),
        "reduce": (5281, 13),
        "search": (255805, 71),
    },
    ("cd-hybrid", 4): {
        "communities": (253054, 241),
        "edge-order": (234768, 344),
        "reduce": (5689, 13),
        "search": (409187, 77),
    },
    ("cd-hybrid", 5): {
        "communities": (253054, 241),
        "edge-order": (234768, 344),
        "reduce": (4762, 13),
        "search": (386030, 82),
    },
    ("hybrid", 4): {
        "orientation": (53110, 66),
        "reduce": (1008, 10),
        "search": (549674, 116),
    },
    ("hybrid", 5): {
        "orientation": (53110, 66),
        "reduce": (1008, 10),
        "search": (595308, 128),
    },
}

SPECTRUM = {
    1: 1008, 2: 8471, 3: 20460, 4: 19584, 5: 7536, 6: 1849,
    7: 1452, 8: 825, 9: 330, 10: 88, 11: 14, 12: 1,
}

# name -> (call on (graph, tracker), expected result, (work, depth)).
TOTALS = {
    "find_clique": (
        lambda g, t: find_clique(g, 5, tracker=t),
        (5, 6, 13, 90, 97),
        (299890, 1265),
    ),
    "max_clique_size": (
        lambda g, t: max_clique_size(g, tracker=t),
        12,
        (299890, 1265),
    ),
    "clique_spectrum": (
        lambda g, t: clique_spectrum(g, tracker=t),
        SPECTRUM,
        (787009, 1692),
    ),
    "per_vertex_clique_counts": (
        lambda g, t: int(per_vertex_clique_counts(g, 4, tracker=t).sum()),
        4 * 19584,
        (424296, 1298),
    ),
    "count_cliques_triangle_growing": (
        lambda g, t: count_cliques_triangle_growing(g, 5, tracker=t).count,
        7536,
        (415920, 1285),
    ),
}


@pytest.fixture(scope="module")
def gearbox():
    return load_dataset("gearbox")


@pytest.mark.parametrize("variant,k", sorted(VARIANT_PHASES))
def test_cold_variant_phase_costs(gearbox, variant, k):
    tracker = Tracker()
    result = run_variant(gearbox, k, variant, tracker)
    assert result.count == SPECTRUM[k]
    got = {name: (c.work, c.depth) for name, c in tracker.phases.items()}
    assert got == VARIANT_PHASES[variant, k]


@pytest.mark.parametrize("name", sorted(TOTALS))
def test_cold_entry_point_totals(gearbox, name):
    call, expected, cost = TOTALS[name]
    tracker = Tracker()
    assert call(gearbox, tracker) == expected
    assert (tracker.work, tracker.depth) == cost
