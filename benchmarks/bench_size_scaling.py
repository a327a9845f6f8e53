"""S2 — instance-size scaling: the bounds' m-dependence.

Every work bound in Table 1 is linear in m for fixed k and s (the
k-dependent factor multiplies m). Sweeping each stand-in's scale factor
at fixed k must therefore show near-linear growth of tracked total work
in m — superlinear growth would indicate an implementation that violates
its own bound.
"""

from __future__ import annotations

import pytest

from repro.bench import load_dataset
from repro.bench.harness import ALGORITHMS, peak_rss_kb
from repro.bench.reporting import format_table
from repro.pram.tracker import Tracker

SCALES = [0.5, 1.0, 2.0]


@pytest.mark.parametrize("algo", ["c3list", "kclist"])
def test_work_scales_linearly_in_m(benchmark, algo, collector):
    def run():
        rows = []
        for scale in SCALES:
            g = load_dataset("tech-as-skitter", scale=scale)
            tr = Tracker()
            res = ALGORITHMS[algo](g, 6, tr)
            rows.append(
                (scale, g.num_edges, tr.work, res.count, peak_rss_kb())
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    collector.add_text(
        f"size-scaling/tech-as-skitter k=6 {algo}",
        format_table(
            ["scale", "m", "total work", "count", "work/m", "peak RSS (KiB)"],
            [
                [s, m, f"{w:.4g}", c, f"{w / m:.1f}", rss or "-"]
                for s, m, w, c, rss in rows
            ],
        ),
    )
    # Work per edge must stay within a modest band across a 4x m range
    # (the bound is O(m·f(k, s)); s drifts slightly with scale).
    per_edge = [w / m for _, m, w, _, _ in rows]
    assert max(per_edge) <= 4 * min(per_edge)


def test_sharded_matches_frontier_under_budget(benchmark, collector):
    """The out-of-core engine must trade rebuilds for RAM, not correctness.

    Sweeping scale at a budget far below the full table footprint pins
    the resident-shard window while the graph (and its built bytes) grow; the
    count stays identical to the in-RAM frontier at every size.
    """
    from repro.core import PreparedGraph, count_cliques, predict_table_bytes
    from repro.obs import MetricsRegistry

    budget = 64 * 1024

    def run():
        rows = []
        for scale in SCALES:
            g = load_dataset("chebyshev4", scale=scale)
            dag = PreparedGraph(g).dag("degeneracy")
            tables = predict_table_bytes(dag.num_edges, dag.max_out_degree)
            registry = MetricsRegistry()
            tr = Tracker()
            tr.attach_metrics(registry)
            sharded = count_cliques(
                g, 5, engine="sharded", memory_budget_bytes=budget, tracker=tr
            )
            resident_peak = registry.to_dict().get(
                "shard.bytes.resident_peak", {}
            )
            in_ram = count_cliques(g, 5, engine="frontier")
            rows.append(
                (
                    scale,
                    g.num_edges,
                    tables,
                    resident_peak.get("value", 0),
                    sharded.count,
                    in_ram.count,
                    peak_rss_kb(),
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    collector.add_text(
        f"size-scaling/out-of-core chebyshev4 k=5 budget={budget}B",
        format_table(
            [
                "scale",
                "m",
                "table bytes",
                "resident peak",
                "sharded",
                "frontier",
                "peak RSS (KiB)",
            ],
            [list(r[:-1]) + [r[-1] or "-"] for r in rows],
        ),
    )
    for _, _, _, resident, got, want, _ in rows:
        assert got == want
        assert resident <= budget


def test_scaled_datasets_keep_structure(collector):
    """The scale knob must preserve each stand-in's shape statistics."""
    from repro.analysis import graph_summary

    rows = []
    for scale in SCALES:
        g = load_dataset("chebyshev4", scale=scale)
        s = graph_summary(g, f"chebyshev4@{scale}")
        rows.append(
            [scale, s.num_vertices, s.num_edges, s.degeneracy, f"{s.triangles_per_edge:.2f}"]
        )
    collector.add_text(
        "size-scaling/structure chebyshev4",
        format_table(["scale", "n", "m", "s", "T/E"], rows),
    )
    degeneracies = [r[3] for r in rows]
    # Bandwidth (plus the planted cliques) pins s regardless of n.
    assert max(degeneracies) - min(degeneracies) <= 1
