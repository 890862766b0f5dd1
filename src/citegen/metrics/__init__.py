"""Structural-fidelity metric battery and its distance primitives."""

from .distances import MetricError, ape, l1_triad, wasserstein1
from .triads import TRIAD_NAMES, ffl_count, triad_census
from .communities import detect_batch, detect_communities, modularity
from .battery import (GraphProfile, MetricConfig, MetricEntry, MetricReport,
                      compare, distance, metric_schema, profile,
                      profiles)

__all__ = [
    "MetricError", "ape", "wasserstein1", "l1_triad",
    "TRIAD_NAMES", "triad_census", "ffl_count",
    "detect_batch", "detect_communities", "modularity",
    "MetricConfig", "MetricEntry", "MetricReport", "compare",
    "GraphProfile", "profile", "profiles", "distance", "metric_schema",
]
