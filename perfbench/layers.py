"""Per-layer metrics of a traced run, computed from its spans and counters.

Each ``_s`` metric is the self time of the named spans; ``calls`` counts
them.  Spans not named here fold their self time into the nearest named
ancestor (see ``Recorder.span_table``).  A layer the workload does not
call reports 0.
"""

from __future__ import annotations

from tracer import LOG_SIGNALS

# metric -> (unit, ("self" | "calls", span names))
SPAN_METRICS = {
    "graph.init_s": ("s", ("self", "graph.init")),
    "graph.init_calls": ("count", ("calls", "graph.init")),
    "graph.csr_s": ("s", ("self", "graph.out_csr", "graph.in_csr",
                          "graph.undirected_csr")),
    "graph.csr_builds": ("count", ("calls", "graph.out_csr", "graph.in_csr",
                                   "graph.undirected_csr")),
    "graph.save_edge_list_s": ("s", ("self", "graph.save_edge_list")),
    "graph.load_edge_list_s": ("s", ("self", "graph.load_edge_list")),
    "graph.is_acyclic_s": ("s", ("self", "graph.is_acyclic")),
    "graph.bfs_subsample_s": ("s", ("self", "graph.bfs_subsample")),
    "generator.generate_s": ("s", ("self", "generator.generate")),
    "neardag.inject_back_edges_s": ("s", ("self", "neardag.inject_back_edges")),
    "neardag.cycle_break_s": ("s", ("self", "neardag.cycle_break")),
    "neardag.order_nodes_s": ("s", ("self", "neardag.order_nodes")),
    "estimation.estimate_s": ("s", ("self", "estimation.estimate")),
    "baselines.generate_er_s": ("s", ("self", "baselines.generate_er")),
    "baselines.generate_config_s": ("s", ("self", "baselines.generate_config")),
    "baselines.generate_sbm_s": ("s", ("self", "baselines.generate_sbm")),
    "baselines.generate_dcsbm_s": ("s", ("self", "baselines.generate_dcsbm")),
    "metrics.global_topology_s": ("s", ("self", "metrics.global_topology_metrics")),
    "metrics.degree_s": ("s", ("self", "metrics.degree_metrics")),
    "metrics.endogenous_s": ("s", ("self", "metrics.endogenous_metrics")),
    "metrics.exogenous_s": ("s", ("self", "metrics.exogenous_metrics")),
    "metrics.local_s": ("s", ("self", "metrics.local_metrics")),
    "metrics.flow_s": ("s", ("self", "metrics.flow_metrics")),
    "communities.detect_communities_s": (
        "s", ("self", "communities.detect_communities")),
    "communities.detect_calls": ("count", ("calls", "communities.detect_communities")),
    "triads.census_exact_s": ("s", ("self", "triads.census_exact")),
    "triads.census_sampled_s": ("s", ("self", "triads.census_sampled")),
    "triads.ffl_count_s": ("s", ("self", "triads.ffl_count")),
    "paths.pair_distances_s": ("s", ("self", "paths.pair_distances")),
    "paths.reachability_counts_s": ("s", ("self", "paths.reachability_counts")),
    "paths.betweenness_values_s": ("s", ("self", "paths.betweenness_values")),
    "paths.scc_sizes_s": ("s", ("self", "paths.scc_sizes")),
    "paths.longest_path_lengths_s": ("s", ("self", "paths.longest_path_lengths")),
    "bench.fit_methods_s": ("s", ("self", "bench.fit_methods")),
    "bench.realize_s": ("s", ("self", "bench.realize")),
    "bench.compare_s": ("s", ("self", "bench.compare")),
    "bench.cells": ("count", ("calls", "bench.realize")),
    "bench.write_artifacts_s": ("s", ("self", "bench.write_artifacts")),
    "stats.friedman_s": ("s", ("self", "stats.friedman")),
    "stats.wtl_matrix_s": ("s", ("self", "stats.wtl_matrix")),
    "stats.bootstrap_ci_s": ("s", ("self", "stats.bootstrap_ci")),
}

REPORTED_SPANS = frozenset(name for _, spec in SPAN_METRICS.values()
                           for name in spec[1:])


def _ratio(num, den):
    return num / den if den else 0.0


def counter_metrics(rec, logs):
    """Counts and yields read from call results and log records."""
    c = rec.counts
    return {
        "generator.edges": (c["generator.edges"], "count"),
        "neardag.back_edge_yield": (_ratio(c["neardag.back_edges_placed"],
                                           c["neardag.back_edges_requested"]),
                                    "ratio"),
        "neardag.reversal_yield": (_ratio(c["neardag.reversals_done"],
                                          c["neardag.reversals_requested"]),
                                   "ratio"),
        "estimation.rho_clamped": (c["estimation.rho_clamped"], "count"),
        "baselines.config_kept_ratio": (_ratio(c["baselines.config_kept"],
                                               c["baselines.config_pairings"]),
                                        "ratio"),
        "baselines.block_collisions": (logs.totals["baselines.block_collisions"],
                                       "count"),
        "metrics.skipped": (c["metrics.skipped"], "count"),
        "bench.dropped_blocks": (logs.totals["stats.dropped_blocks"], "count"),
        "bench.real_side_s": (c["bench.real_side_s"], "s"),
    }


def log_metrics(logs):
    names = sorted(set(LOG_SIGNALS.values())) + ["other"]
    return {f"log.{name}": (logs.counts[name], "count") for name in names}


def per_layer(rec, logs, quality, wall_s, untraced_s, host_factor):
    """Every per-layer metric of one traced pass, as name -> (value, unit).

    Seconds are divided by ``host_factor``, like the end-to-end times;
    ``untraced_s`` is the untraced run_s.
    """
    table = rec.span_table(REPORTED_SPANS)
    out = {}
    for metric, (unit, (kind, *names)) in SPAN_METRICS.items():
        key = "self_s" if kind == "self" else "calls"
        out[metric] = (sum(table.get(n, {}).get(key, 0) for n in names), unit)
    out.update(counter_metrics(rec, logs))
    out["estimation.rho_abs_err"] = (quality["rho_abs_err"] or 0.0, "1")
    out["communities.detected_q"] = (quality["detected_q"] or 0.0, "1")
    out.update(log_metrics(logs))
    top = rec.top_level_seconds()
    out["trace.run_s"] = (wall_s, "s")
    out["trace.unattributed_s"] = (wall_s - top, "s")
    out = {name: (value / host_factor if unit == "s" else value, unit)
           for name, (value, unit) in out.items()}
    out["trace.overhead_ratio"] = (out["trace.run_s"][0] / untraced_s, "ratio")
    out["trace.attributed_share"] = (top / wall_s, "ratio")
    out["host.speed_factor"] = (host_factor, "ratio")
    return out, table
