"""Sampling-based approximate k-clique counting (related work [39]).

Mitzenmacher et al. (KDD'15) scale near-clique detection by sampling.
The community-centric view gives a particularly clean unbiased estimator:
in a DAG oriented by a total order, **every k-clique has exactly one
supporting edge** (Observation 1), so

    #k-cliques  =  Σ_e  c(e)      with  c(e) = #(k−2)-cliques in DAG[C(e)]

and sampling edges uniformly yields ``m · mean(c(e))`` as an unbiased
estimate, with per-sample cost bounded by the community-local search —
usually orders of magnitude below the full count. Importance sampling by
community size (probability ∝ |C(e)|) is also provided; it dramatically
reduces variance because c(e) = 0 whenever |C(e)| < k−2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graphs.csr import CSRGraph
from ..pram.tracker import NULL_TRACKER, Tracker
from .prepared import prepared_for
from .recursive import SearchStats, recursive_count

__all__ = ["CliqueEstimate", "estimate_clique_count"]


@dataclass(frozen=True)
class CliqueEstimate:
    """An unbiased estimate with its sampling-error diagnostics."""

    estimate: float
    std_error: float
    samples: int
    k: int
    exact_edges_fraction: float  # fraction of edges whose c(e) was evaluated

    def confidence_interval(self, z: float = 1.96):
        """Normal-approximation CI (z = 1.96 → 95%)."""
        lo = self.estimate - z * self.std_error
        return max(lo, 0.0), self.estimate + z * self.std_error


def estimate_clique_count(
    graph: CSRGraph,
    k: int,
    samples: int = 200,
    seed: Optional[int] = None,
    importance: bool = True,
    tracker: Tracker = NULL_TRACKER,
) -> CliqueEstimate:
    """Estimate the number of k-cliques from ``samples`` random edges.

    With ``importance=True`` edges are drawn with probability proportional
    to ``binom(|C(e)| − (k−4), 2)``-ish mass — here simply ``|C(e)|
    choose k−2`` upper-bound weights — and the Horvitz–Thompson correction
    is applied; zero-weight edges (|C(e)| < k−2) are never sampled, which
    removes all structural zeros from the variance.
    """
    if k < 4:
        raise ValueError("sampling estimator requires k >= 4 (use exact counts)")
    if samples < 1:
        raise ValueError("need at least one sample")
    ctx = prepared_for(graph)
    dag = ctx.dag("degeneracy", tracker)
    comms = ctx.communities("degeneracy", tracker)
    m = dag.num_edges
    if m == 0:
        return CliqueEstimate(0.0, 0.0, samples, k, 1.0)

    rng = np.random.default_rng(seed)
    sizes = comms.sizes

    if importance:
        weights = np.array(
            [math.comb(int(s), k - 2) if s >= k - 2 else 0 for s in sizes],
            dtype=np.float64,
        )
        total_w = weights.sum()
        if total_w == 0:
            return CliqueEstimate(0.0, 0.0, samples, k, 0.0)
        probs = weights / total_w
        drawn = rng.choice(m, size=samples, p=probs)
        values = np.empty(samples, dtype=np.float64)
        for i, eid in enumerate(drawn.tolist()):
            c = _community_count(dag, comms, int(eid), k)
            values[i] = c / probs[eid]
    else:
        drawn = rng.integers(0, m, size=samples)
        values = np.empty(samples, dtype=np.float64)
        for i, eid in enumerate(drawn.tolist()):
            values[i] = m * _community_count(dag, comms, int(eid), k)

    estimate = float(values.mean())
    std_error = (
        float(values.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    )
    return CliqueEstimate(
        estimate=estimate,
        std_error=std_error,
        samples=samples,
        k=k,
        exact_edges_fraction=len(set(drawn.tolist())) / m,
    )


def _community_count(dag, comms, eid: int, k: int) -> int:
    community = comms.of(eid)
    if community.size < k - 2:
        return 0
    count, _ = recursive_count(dag, comms, community, k - 2, k, SearchStats())
    return count
