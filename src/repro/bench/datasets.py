"""The seven Table-2 dataset stand-ins (scaled synthetic equivalents).

The paper evaluates on Orkut, Ca-DBLP-2012, Tech-As-Skitter, Gearbox,
Chebyshev4, Jester2 and Bio-SC-HT (SNAP / NetworkRepository). Those files
are unavailable offline and too large for a pure-Python harness, so each
dataset is replaced by a deterministic synthetic graph at ~1/100 scale
chosen to match the *shape* statistics that drive the algorithms'
relative behaviour: the |E|/|V| density column, the |T|/|E|
triangles-per-edge column (the paper's explanation for where c3List wins:
"relatively better when there are few triangles per vertex"), and the
broad degeneracy regime.

Every stand-in additionally has a few 11–13-cliques planted so the k =
6..10 sweep of Figures 7–9 exercises non-trivial counts at every k, as
the real datasets do. ``TABLE2_PAPER`` records the original statistics
for side-by-side reporting in EXPERIMENTS.md.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..graphs.csr import CSRGraph
from ..graphs.generators import (
    banded_graph,
    collaboration_graph,
    configuration_model_graph,
    core_periphery_graph,
    gnm_random_graph,
    lattice_graph,
    mesh_graph_3d,
    plant_cliques,
    powerlaw_cluster_graph,
    relaxed_caveman_graph,
    sbm_graph,
    watts_strogatz_graph,
)

__all__ = [
    "DATASETS",
    "ZOO_PRESETS",
    "load_dataset",
    "dataset_names",
    "zoo_names",
    "TABLE2_PAPER",
]

# name -> (|V|, |E|, |T|, s, E/V, T/V, T/E) as printed in Table 2.
TABLE2_PAPER: Dict[str, Tuple[str, str, str, int, float, float, float]] = {
    "orkut": ("3.1M", "117.2M", "627.6M", 253, 38.1, 204.6, 5.4),
    "ca-dblp-2012": ("317K", "1M", "2.2M", 113, 3.3, 7.0, 2.1),
    "tech-as-skitter": ("1.7M", "11.1M", "28.8M", 111, 6.5, 17.0, 2.6),
    "gearbox": ("153.7K", "4.5M", "4.6M", 44, 29.0, 30.0, 1.0),
    "chebyshev4": ("68K", "1.9M", "28.9M", 68, 28.9, 424.2, 14.7),
    "jester2": ("50.1K", "1.7M", "35.6M", 128, 34.1, 703.3, 20.6),
    "bio-sc-ht": ("2084", "63K", "1.4M", 100, 30.2, 670.7, 22.2),
}


def _with_planted(graph: CSRGraph, sizes: List[int], seed: int) -> CSRGraph:
    planted, _ = plant_cliques(graph, sizes, seed=seed, disjoint=True)
    return planted


def _sz(base: int, scale: float) -> int:
    """Scale a size parameter, keeping at least a workable minimum."""
    return max(int(round(base * scale)), 32)


@lru_cache(maxsize=None)
def _orkut(scale: float = 1.0) -> CSRGraph:
    # Large social network: heavy-tailed degrees, strong triadic closure,
    # moderate T/E. Densest of the social stand-ins.
    g = powerlaw_cluster_graph(_sz(1200, scale), 12, 0.65, seed=101)
    return _with_planted(g, [13, 12, 11], seed=1101)


@lru_cache(maxsize=None)
def _ca_dblp(scale: float = 1.0) -> CSRGraph:
    # Collaboration network: union of paper-author cliques, low E/V.
    g = collaboration_graph(
        _sz(1400, scale), _sz(900, scale), max_group=9, zipf_a=2.0, seed=102
    )
    return _with_planted(g, [12, 11, 11], seed=1102)


@lru_cache(maxsize=None)
def _skitter(scale: float = 1.0) -> CSRGraph:
    # Internet topology: preferential attachment, weak closure, low T/E.
    g = powerlaw_cluster_graph(_sz(2000, scale), 5, 0.12, seed=103)
    return _with_planted(g, [12, 11, 11], seed=1103)


@lru_cache(maxsize=None)
def _gearbox(scale: float = 1.0) -> CSRGraph:
    # Finite-element structural mesh: T/E ~ 1, low degeneracy.
    side = max(int(round(12 * scale ** (1 / 3))), 4)
    g = mesh_graph_3d(side, side, max(side - 5, 3), diagonals=True)
    return _with_planted(g, [12, 11, 11], seed=1104)


@lru_cache(maxsize=None)
def _chebyshev4(scale: float = 1.0) -> CSRGraph:
    # Banded spectral-scheme matrix: window cliques, high T/V and T/E.
    g = banded_graph(_sz(500, scale), 10)
    return _with_planted(g, [13, 12], seed=1105)


@lru_cache(maxsize=None)
def _jester2(scale: float = 1.0) -> CSRGraph:
    # Rating network: small dense core + large sparse periphery;
    # extreme T/V concentration in the core.
    g = core_periphery_graph(
        max(int(round(50 * min(scale, 2.0))), 30),
        _sz(700, scale),
        p_core=0.6,
        attach=3,
        seed=106,
    )
    return _with_planted(g, [13, 12, 11], seed=1106)


@lru_cache(maxsize=None)
def _bio_sc_ht(scale: float = 1.0) -> CSRGraph:
    # Gene-association network: overlapping dense modules on few vertices.
    g = relaxed_caveman_graph(max(int(round(28 * scale)), 4), 12, 0.12, seed=107)
    return _with_planted(g, [13], seed=1107)


# ---------------------------------------------------------------------------
# Model-zoo presets.  Each preset matches the *shape regime* of one Table-2
# column group using a canonical random-graph family instead of the bespoke
# stand-in generators above: community-clustered (SBM ~ orkut/dblp regime),
# small-world ring (Watts-Strogatz ~ low-T/E skitter regime), banded mesh
# (lattice ~ gearbox regime), and heavy-tailed degrees without closure
# (configuration model ~ skitter's degree column).  All take the same
# ``scale`` knob as the Table-2 stand-ins so the size-scaling bench and
# the service benchmark (``servicebench/``) can sweep them.


@lru_cache(maxsize=None)
def _sbm_community(scale: float = 1.0) -> CSRGraph:
    # Four planted communities, dense inside / sparse across: the regime
    # where warm cache + community-localized work dominates.
    b = _sz(90, scale)
    g = sbm_graph([b, b, b, b], p_in=0.22, p_out=0.004, seed=201)
    return _with_planted(g, [12, 11], seed=1201)


@lru_cache(maxsize=None)
def _ws_smallworld(scale: float = 1.0) -> CSRGraph:
    # Rewired ring lattice: high clustering, tiny diameter, T/E well
    # below the social stand-ins — the c3List-favourable regime.
    g = watts_strogatz_graph(_sz(900, scale), 8, 0.08, seed=202)
    return _with_planted(g, [11, 11], seed=1202)


@lru_cache(maxsize=None)
def _lattice_mesh(scale: float = 1.0) -> CSRGraph:
    # 2-D king-graph lattice: bounded degree, T/E ~ 1, degeneracy pinned
    # by the diagonal stencil regardless of n (the gearbox regime).
    side = max(int(round(24 * scale ** 0.5)), 6)
    g = lattice_graph([side, side], diagonals=True)
    return _with_planted(g, [11, 11], seed=1203)


@lru_cache(maxsize=None)
def _config_powerlaw(scale: float = 1.0) -> CSRGraph:
    # Configuration model over a heavy-tailed degree sequence: the
    # degree column of a social graph with closure randomized away.
    n = _sz(800, scale)
    rng = np.random.default_rng(204)
    degrees = np.minimum(
        rng.zipf(2.2, size=n).astype(np.int64) + 1, max(n // 8, 4)
    )
    if int(degrees.sum()) % 2:
        degrees[int(np.argmin(degrees))] += 1
    # Heavy tails can overshoot graphicality; retreat to the realized
    # degree sequence of a G(n, m) with the same edge mass, which is
    # graphical by construction.
    try:
        g = configuration_model_graph(degrees.tolist(), seed=204)
    except ValueError:
        m = int(degrees.sum()) // 2
        proxy = gnm_random_graph(n, m, seed=204)
        g = configuration_model_graph(proxy.degrees.tolist(), seed=204)
    return _with_planted(g, [12, 11], seed=1204)


ZOO_PRESETS: Dict[str, Callable[..., CSRGraph]] = {
    "sbm-community": _sbm_community,
    "ws-smallworld": _ws_smallworld,
    "lattice-mesh": _lattice_mesh,
    "config-powerlaw": _config_powerlaw,
}


DATASETS: Dict[str, Callable[..., CSRGraph]] = {
    "orkut": _orkut,
    "ca-dblp-2012": _ca_dblp,
    "tech-as-skitter": _skitter,
    "gearbox": _gearbox,
    "chebyshev4": _chebyshev4,
    "jester2": _jester2,
    "bio-sc-ht": _bio_sc_ht,
    **ZOO_PRESETS,
}


def dataset_names() -> List[str]:
    """Names of the Table-2 stand-ins, in the paper's row order.

    The model-zoo presets are loadable through :func:`load_dataset` like
    any stand-in but enumerate separately (:func:`zoo_names`): the
    Table-2 sweeps, figures, and pinned regression counts iterate this
    list and must keep matching the paper's seven rows.
    """
    return [name for name in DATASETS if name not in ZOO_PRESETS]


def zoo_names() -> List[str]:
    """Names of the model-zoo presets only."""
    return list(ZOO_PRESETS.keys())


def load_dataset(name: str, scale: float = 1.0) -> CSRGraph:
    """Load (and memoize) one stand-in dataset by its Table-2 name.

    ``scale`` multiplies the instance size (default 1.0 — the sizes used
    by the figures); the size-scaling bench sweeps it to validate the
    bounds' m-dependence.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    try:
        return DATASETS[name](scale)
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        ) from None
