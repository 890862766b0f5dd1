"""Path-based metrics: distances, reachability, betweenness, SCCs, longest paths."""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components, shortest_path

from .. import kernels
from ..graph import LabeledGraph
from .distances import MetricError

# Cells in one block of BFS distances (sources x n float64, 512 kB), so
# that many sources on a large graph never allocate a dense sources x n array.
_BLOCK_CELLS = 1 << 16


def _bfs_blocks(graph: LabeledGraph, sources: np.ndarray):
    """Yield ``(lo, dist)``: directed hop distances from ``sources[lo:lo + k]``.

    ``dist`` is a ``(k, n)`` float64 block of whole numbers, -1 where a node
    is unreachable.  Callers pass distinct sources, so each costs one
    traversal.  Dijkstra is named because ``method="auto"`` may choose the
    dense n x n Floyd-Warshall on a dense graph.
    """
    step = max(1, _BLOCK_CELLS // max(graph.num_nodes, 1))
    for lo in range(0, sources.size, step):
        dist = shortest_path(graph.adjacency, method="D", unweighted=True,
                             indices=sources[lo:lo + step])
        dist[np.isinf(dist)] = -1
        yield lo, dist


def pair_distances(graph: LabeledGraph, pairs: np.ndarray) -> np.ndarray:
    """Directed BFS distances for the given (source, target) pairs; -1 unreachable."""
    pairs = np.asarray(pairs, np.int64)
    sources, row = np.unique(pairs[:, 0], return_inverse=True)
    out = np.empty(pairs.shape[0], np.int64)
    for lo, dist in _bfs_blocks(graph, sources):
        hit = (row >= lo) & (row < lo + dist.shape[0])
        out[hit] = dist[row[hit] - lo, pairs[hit, 1]]
    return out


def all_pair_distances(graph: LabeledGraph) -> np.ndarray:
    """Distances for every ordered node pair (self pairs excluded).

    Row-major by source; each row lists the targets in ascending order.
    """
    n = graph.num_nodes
    out = np.empty((n, max(n - 1, 0)), np.int64)
    for lo, dist in _bfs_blocks(graph, np.arange(n)):
        k = dist.shape[0]
        off_diagonal = np.ones(dist.shape, bool)
        off_diagonal[np.arange(k), lo + np.arange(k)] = False
        out[lo:lo + k] = dist[off_diagonal].reshape(k, n - 1)
    return out.ravel()


def finite_distances(distances: np.ndarray) -> np.ndarray:
    finite = distances[distances >= 0]
    if finite.size == 0:
        raise MetricError("no finite-distance pairs found")
    return finite


def effective_diameter(distances: np.ndarray) -> float:
    """90th percentile of the finite directed shortest-path lengths."""
    return float(np.quantile(finite_distances(distances), 0.9))


def average_path_length(distances: np.ndarray) -> float:
    return float(finite_distances(distances).mean())


def reachability_counts(graph: LabeledGraph, sources: np.ndarray) -> np.ndarray:
    """Nodes reachable from each source (the source itself not counted)."""
    uniq, row = np.unique(np.asarray(sources, np.int64), return_inverse=True)
    counts = np.empty(uniq.size, np.int64)
    for lo, dist in _bfs_blocks(graph, uniq):
        counts[lo:lo + dist.shape[0]] = (dist >= 0).sum(axis=1) - 1
    return counts[row]


def betweenness_values(graph: LabeledGraph, sources: np.ndarray = None) -> np.ndarray:
    """Per-node shortest-path betweenness, directed, normalized.

    ``sources`` restricts the Brandes accumulation to sampled source nodes;
    contributions are rescaled by n / |sources| so values estimate the
    all-source quantity, then divided by (n-1)(n-2).
    """
    n = graph.num_nodes
    if n < 3:
        raise MetricError("betweenness needs at least 3 nodes")
    sources = np.arange(n, dtype=np.int64) if sources is None \
        else np.ascontiguousarray(sources, np.int64)
    acc = kernels._betweenness(*graph.out_csr, sources, n)
    return acc * ((n / sources.size) / ((n - 1.0) * (n - 2.0)))


def scc_sizes(graph: LabeledGraph) -> np.ndarray:
    """Strongly connected component sizes, one entry per component."""
    n = graph.num_nodes
    if n == 0:
        raise MetricError("empty graph")
    n_comp, assign = connected_components(graph.adjacency, directed=True,
                                          connection="strong")
    return np.bincount(assign, minlength=n_comp)


def longest_path_lengths(graph: LabeledGraph, rank: np.ndarray) -> np.ndarray:
    """Per-node longest path on the back-edge-stripped DAG.

    Edges violating the rank order (older endpoint citing newer) are
    ignored; what remains is acyclic by construction, so a single
    ascending-rank sweep suffices.
    """
    return kernels._longest_path_lengths(*graph.out_csr,
                                         np.ascontiguousarray(rank, np.int64),
                                         graph.num_nodes)
