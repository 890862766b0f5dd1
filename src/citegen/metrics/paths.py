"""Path-based metrics: distances, reachability, betweenness, SCCs, longest paths."""

from __future__ import annotations

import numpy as np
from scipy.sparse.csgraph import connected_components, dijkstra

from ..graph import LabeledGraph, _row_edges
from .distances import MetricError

# Cells in one block of BFS distances (sources x n float64, 512 kB), so
# that many sources on a large graph never allocate a dense sources x n array.
_BLOCK_CELLS = 1 << 16


def _bfs_blocks(graph: LabeledGraph, sources: np.ndarray):
    """Yield ``(lo, dist)``: directed hop distances from ``sources[lo:lo + k]``.

    ``dist`` is a ``(k, n)`` float64 block of whole numbers, -1 where a node
    is unreachable.  Callers pass distinct sources, so each costs one
    traversal.  The adjacency's weights are all 1.0, so its weighted
    distances are the hop counts.  ``dijkstra`` is called directly:
    ``shortest_path`` validates its input by copying the adjacency on
    every call, weighted or not, and with ``method="auto"`` may choose
    the dense n x n Floyd-Warshall on a dense graph.
    """
    step = max(1, _BLOCK_CELLS // max(graph.num_nodes, 1))
    for lo in range(0, sources.size, step):
        dist = dijkstra(graph.adjacency, indices=sources[lo:lo + step])
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


def _out_edges(indptr, indices, n, frontier):
    """Out-edges of the flat entries ``row * n + node`` in ``frontier``.

    Returns ``(entry, target)``: each edge's position in ``frontier`` and
    its flat target ``row * n + w``, grouped by entry and in CSR order
    within one entry.
    """
    node = frontier % n
    eids, count = _row_edges(indptr, node)
    entry = np.repeat(np.arange(frontier.size), count)
    return entry, frontier[entry] - node[entry] + indices[eids]


def betweenness_values(graph: LabeledGraph, sources: np.ndarray = None) -> np.ndarray:
    """Per-node shortest-path betweenness, directed, normalized.

    ``sources`` restricts the Brandes accumulation to sampled source nodes;
    contributions are rescaled by n / |sources| so values estimate the
    all-source quantity, then divided by (n-1)(n-2).

    Brandes (2001) runs level-synchronously over blocks of
    ``_BLOCK_CELLS // n`` sources, one row of the flat ``dist``, ``sigma``
    and ``delta`` arrays per source.  The result is bit-identical to the
    scalar one-source-at-a-time loop: path counts are whole numbers, exact
    in float64 below 2**53, so their summation order does not matter; each
    node's dependency is summed by ``np.bincount`` from 0.0 over its
    out-edges in CSR order, as the scalar loop sums them; and the rows are
    added to the result one at a time, in source order.
    """
    n = graph.num_nodes
    if n < 3:
        raise MetricError("betweenness needs at least 3 nodes")
    sources = np.arange(n, dtype=np.int64) if sources is None \
        else np.asarray(sources, np.int64)
    indptr, indices = graph.out_csr
    bc = np.zeros(n)
    step = max(1, _BLOCK_CELLS // n)
    for lo in range(0, sources.size, step):
        block = sources[lo:lo + step]
        k = block.size
        dist = np.full(k * n, -1, np.int64)
        sigma = np.zeros(k * n)
        delta = np.zeros(k * n)
        frontier = np.arange(k) * n + block
        dist[frontier] = 0
        sigma[frontier] = 1.0
        levels = []
        while frontier.size:
            levels.append(frontier)
            entry, target = _out_edges(indptr, indices, n, frontier)
            # len(levels) is now the depth of the next frontier
            dist[target[dist[target] < 0]] = len(levels)
            keep = dist[target] == len(levels)
            frontier, up = np.unique(target[keep], return_inverse=True)
            sigma[frontier] = np.bincount(
                up, sigma[levels[-1][entry[keep]]], frontier.size)
        # the deepest level has no successors, so its delta stays 0
        for d in range(len(levels) - 2, -1, -1):
            frontier = levels[d]
            entry, w = _out_edges(indptr, indices, n, frontier)
            # every reached node has sigma >= 1: no sigma > 0 guard needed
            keep = dist[w] == d + 1
            entry, w = entry[keep], w[keep]
            delta[frontier] = np.bincount(
                entry, sigma[frontier[entry]] / sigma[w] * (1.0 + delta[w]),
                frontier.size)
        delta = delta.reshape(k, n)
        delta[np.arange(k), block] = 0.0
        for row in delta:
            bc += row
    return bc * ((n / sources.size) / ((n - 1.0) * (n - 2.0)))


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
    ignored.  Kept edges point from higher rank to lower rank, so one sweep
    in ascending rank is a topological order of what remains: O(N + E).
    The sweep is sequential and runs on Python lists.
    """
    rank = np.ascontiguousarray(rank, np.int64)
    indptr, indices = graph.out_csr
    ptr, nbr, rk = indptr.tolist(), indices.tolist(), rank.tolist()
    lp = [0] * graph.num_nodes
    for v in np.argsort(rank, kind="mergesort").tolist():
        r = rk[v]
        best = 0
        for w in nbr[ptr[v]:ptr[v + 1]]:
            if rk[w] < r and lp[w] >= best:
                best = lp[w] + 1
        lp[v] = best
    return np.array(lp, np.int64)
