"""The paper's primary contribution: community-centric k-clique listing."""

from .api import ENGINES, VARIANTS, count_cliques, has_clique, list_cliques, resolve_engine
from .clique_listing import CliqueSearchResult, count_cliques_on_dag
from .community_variant import count_cliques_community_order
from .densest import (
    DensestResult,
    kclique_densest_subgraph,
    per_vertex_clique_counts,
)
from .existence import clique_spectrum, find_clique, max_clique_size
from .motifs import count_cliques_triangle_growing
from .peeling import PeelResult, kclique_peel
from .prepared import (
    PreparedCache,
    PreparedGraph,
    clear_prepared_cache,
    prepare,
    prepared_cache_info,
)
from .recursive import SearchStats, recursive_count
from .sharded import (
    ShardPlan,
    ShardedTables,
    parse_memory_size,
    plan_shards,
    predict_table_bytes,
    sharded_count_cliques,
    sharded_list_cliques,
)
from .variants import run_variant

__all__ = [
    "count_cliques",
    "list_cliques",
    "has_clique",
    "VARIANTS",
    "ENGINES",
    "resolve_engine",
    "PreparedGraph",
    "PreparedCache",
    "prepare",
    "clear_prepared_cache",
    "prepared_cache_info",
    "CliqueSearchResult",
    "count_cliques_on_dag",
    "count_cliques_community_order",
    "recursive_count",
    "SearchStats",
    "run_variant",
    "find_clique",
    "max_clique_size",
    "clique_spectrum",
    "count_cliques_triangle_growing",
    "per_vertex_clique_counts",
    "kclique_densest_subgraph",
    "DensestResult",
    "kclique_peel",
    "PeelResult",
    "sharded_count_cliques",
    "sharded_list_cliques",
    "parse_memory_size",
    "predict_table_bytes",
    "plan_shards",
    "ShardPlan",
    "ShardedTables",
]
