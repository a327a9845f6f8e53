"""Cross-engine agreement on structured graph families.

G(n, m) fuzzing (test_property_counting) misses regimes that structured
families hit deliberately: triangle-free but dense (hypercube),
clique-free but dense (Turán), overlapping windows (banded), heavy
overlap (clique chains), σ ≪ s (bipartite+line), and modular
structures. Every engine must agree with the oracle on all of
them for every k.
"""

import pytest

from repro.baselines import (
    arbcount_count,
    brute_force_count,
    chiba_nishizeki_count,
    kclist_count,
)
from repro.core import (
    VARIANTS,
    count_cliques_triangle_growing,
    run_variant,
)
from repro.core.frontier import frontier_count_cliques
from repro.graphs import (
    banded_graph,
    bipartite_plus_line_graph,
    clique_chain,
    collaboration_graph,
    core_periphery_graph,
    hypercube_graph,
    mesh_graph_3d,
    relaxed_caveman_graph,
    turan_graph,
)
from repro.pram.tracker import Tracker

FAMILIES = {
    "hypercube": lambda: hypercube_graph(4),
    "turan": lambda: turan_graph(14, 5),
    "banded": lambda: banded_graph(20, 6),
    "clique-chain": lambda: clique_chain(3, 7, overlap=3),
    "bipartite+line": lambda: bipartite_plus_line_graph(7),
    "mesh3d": lambda: mesh_graph_3d(3, 3, 3, diagonals=True),
    "caveman": lambda: relaxed_caveman_graph(4, 7, 0.2, seed=1),
    "collaboration": lambda: collaboration_graph(30, 18, seed=2),
    "core-periphery": lambda: core_periphery_graph(10, 20, 0.7, 2, seed=3),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("k", [4, 6, 8])
def test_all_engines_agree(family, k):
    g = FAMILIES[family]()
    want = brute_force_count(g, k)
    for variant in VARIANTS:
        assert run_variant(g, k, variant, Tracker()).count == want, variant
    assert count_cliques_triangle_growing(g, k).count == want
    assert frontier_count_cliques(g, k) == want
    assert kclist_count(g, k).count == want
    assert arbcount_count(g, k).count == want
    assert chiba_nishizeki_count(g, k).count == want
