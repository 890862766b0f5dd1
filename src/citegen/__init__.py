"""Synthetic citation-network generation, estimation, and comparison."""

from .baselines import (BaselineError, ConfigFit, ErFit, SbmFit, fit_config,
                        fit_er, fit_sbm, generate_config, generate_dcsbm,
                        generate_er, generate_sbm)
from .bench import BenchConfig, BenchError, BenchResult, run_bench, write_artifacts
from .estimation import (CommunityStats, EstimationError, FitResult,
                         community_stats, estimate, gini)
from .generator import (CsParams, DerivedParams, ParamError, derive,
                        effective_preferentiality, empirical_ccdf,
                        expected_indegree, generate, ks_to_pareto2,
                        pareto2_ccdf)
from .graph import (GraphError, LabeledGraph, LoadReport, bfs_subsample,
                    induced_subgraph, is_acyclic, load_edge_list, load_labels,
                    load_timestamps, prune_unlabeled, save_edge_list,
                    save_labels)
from .metrics import (GraphProfile, MetricConfig, MetricEntry, MetricError,
                      MetricReport, compare, distance, profile, profiles)
from .neardag import (CycleBreakReport, NearDagError, NodeOrdering,
                      back_edge_count, back_edge_ratio, cycle_break,
                      inject_back_edges, order_nodes)
from .stats import (RankTable, StatsError, bootstrap_ci, friedman,
                    mann_whitney, rank_blocks, wtl_matrix)

__version__ = "0.1.0"

__all__ = [
    "BaselineError", "BenchConfig", "BenchError", "BenchResult",
    "CommunityStats", "ConfigFit", "CsParams", "CycleBreakReport",
    "DerivedParams", "ErFit", "EstimationError", "FitResult", "GraphError",
    "GraphProfile", "LabeledGraph", "LoadReport", "MetricConfig", "MetricEntry",
    "MetricError", "MetricReport", "NearDagError", "NodeOrdering",
    "ParamError", "RankTable", "SbmFit", "StatsError",
    "back_edge_count", "back_edge_ratio", "bfs_subsample", "bootstrap_ci",
    "community_stats", "compare", "cycle_break", "derive", "distance",
    "effective_preferentiality", "empirical_ccdf", "estimate",
    "expected_indegree", "fit_config", "fit_er", "fit_sbm",
    "friedman", "generate", "generate_config", "generate_dcsbm",
    "generate_er", "generate_sbm", "gini", "induced_subgraph", "inject_back_edges",
    "is_acyclic", "ks_to_pareto2", "load_edge_list", "load_labels",
    "load_timestamps", "mann_whitney", "order_nodes", "pareto2_ccdf",
    "profile", "profiles", "prune_unlabeled", "rank_blocks", "run_bench",
    "save_edge_list", "save_labels", "wtl_matrix",
    "write_artifacts",
]
