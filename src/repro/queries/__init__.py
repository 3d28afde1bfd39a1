"""Query layer built on the three graph query primitives.

Definition 4 of the paper introduces three primitives — edge query, 1-hop
successor query and 1-hop precursor query — and argues that essentially every
graph query or algorithm can be implemented on top of them.  This subpackage
contains the primitives protocol plus the compound queries the paper
evaluates (node queries, reachability, triangle counting, subgraph matching,
whole-graph reconstruction) and the wider algorithm layer the introduction
motivates: traversals, degree statistics, PageRank, path queries, heavy
hitters and cross-epoch heavy changers.
"""

from repro.queries.primitives import (
    NO_NEIGHBORS,
    Capabilities,
    GraphQueryInterface,
    UnsupportedQueryError,
    edge_weight_or_zero,
)
from repro.queries.node_query import node_out_weight, node_in_weight
from repro.queries.reachability import is_reachable, reachable_set
from repro.queries.triangle import count_triangles
from repro.queries.reconstruction import reconstruct_graph
from repro.queries.subgraph import SubgraphMatcher, count_subgraph_matches
from repro.queries.traversal import (
    ancestors,
    bfs_levels,
    bfs_order,
    descendants,
    dfs_order,
    has_cycle,
    strongly_connected_components,
    topological_order,
)
from repro.queries.degree import (
    average_out_degree,
    degree_table,
    in_degree,
    out_degree,
    top_k_by_in_degree,
    top_k_by_out_degree,
)
from repro.queries.pagerank import pagerank, personalized_pagerank, ranking_overlap, top_k_ranked
from repro.queries.weighted_paths import (
    dijkstra_distance,
    dijkstra_path,
    single_source_distances,
    widest_path_capacity,
)
from repro.queries.heavy_changers import (
    heavy_changers,
    new_edges,
    persistent_edges,
    top_k_changers,
    vanished_edges,
)

__all__ = [
    "NO_NEIGHBORS",
    "Capabilities",
    "GraphQueryInterface",
    "UnsupportedQueryError",
    "edge_weight_or_zero",
    "node_out_weight",
    "node_in_weight",
    "is_reachable",
    "reachable_set",
    "count_triangles",
    "reconstruct_graph",
    "SubgraphMatcher",
    "count_subgraph_matches",
    "bfs_order",
    "bfs_levels",
    "dfs_order",
    "descendants",
    "ancestors",
    "strongly_connected_components",
    "topological_order",
    "has_cycle",
    "out_degree",
    "in_degree",
    "degree_table",
    "top_k_by_out_degree",
    "top_k_by_in_degree",
    "average_out_degree",
    "pagerank",
    "personalized_pagerank",
    "top_k_ranked",
    "ranking_overlap",
    "dijkstra_distance",
    "dijkstra_path",
    "single_source_distances",
    "widest_path_capacity",
    "heavy_changers",
    "top_k_changers",
    "persistent_edges",
    "new_edges",
    "vanished_edges",
]
