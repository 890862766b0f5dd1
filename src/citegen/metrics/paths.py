"""Path-based metrics: distances, reachability, betweenness, SCCs, longest paths."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.sparse.csgraph import connected_components

from ..graph import LabeledGraph, _row_edges
from .distances import MetricError

# Cells in one block of BFS rows (sources x n entries), so that many
# sources on a large graph never allocate a dense sources x n array.
_BLOCK_CELLS = 1 << 16


def _finite_count(hist: np.ndarray) -> int:
    count = int(hist.sum())
    if count == 0:
        raise MetricError("no finite-distance pairs found")
    return count


def effective_diameter(hist: np.ndarray) -> float:
    """90th percentile of the finite directed shortest-path lengths.

    ``hist[d]`` counts the pairs at distance d.  The result is
    ``np.quantile(x, 0.9)`` of the expanded sample ``x``, bit for bit: the
    same linear interpolation between the two order statistics around
    index ``(len(x) - 1) * 0.9``, in the same float operations.
    """
    count = _finite_count(hist)
    pos = (count - 1) * 0.9
    below = math.floor(pos)
    # the distances at sorted positions below and below + 1
    lo, hi = np.searchsorted(np.cumsum(hist), [below, min(below + 1, count - 1)],
                             side="right").tolist()
    t = pos - below
    return hi - (hi - lo) * (1 - t) if t >= 0.5 else lo + (hi - lo) * t


def average_path_length(hist: np.ndarray) -> float:
    """Mean finite directed shortest-path length: an integer sum over a
    count, so it equals the mean of the expanded sample bit for bit."""
    return int(np.arange(hist.size) @ hist) / _finite_count(hist)


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


class SourceRows(NamedTuple):
    """What one BFS from each source yields (see ``source_rows``)."""

    reach: np.ndarray
    hist: np.ndarray
    betweenness: object  # an array, or the MetricError below 3 nodes


def source_rows(graph: LabeledGraph, sources: np.ndarray) -> SourceRows:
    """One directed BFS from each of ``sources``, and what is read off it.

    - ``reach``: each source's reach count, the nodes it reaches other
      than itself, in the order of ``sources``;
    - ``hist``: ``hist[d]`` counts the (source, target) pairs at finite
      distance d >= 1; ``hist[0]`` is 0;
    - ``betweenness``: per-node shortest-path betweenness, directed and
      normalized.  Contributions of the sources are rescaled by
      n / |sources|, so values estimate the all-source quantity, then
      divided by (n-1)(n-2).  Below 3 nodes it is a MetricError.

    Brandes (2001) runs level-synchronously over blocks of
    ``_BLOCK_CELLS // n`` sources, one row of the flat ``dist``, ``sigma``
    and ``delta`` arrays per source.  Its forward pass keeps each BFS
    level, whose sizes are the histogram, and the shortest-path edges out
    of it, which the backward pass reads.  The betweenness is
    bit-identical to the scalar one-source-at-a-time loop: path counts are
    whole numbers, exact in float64 below 2**53, so their summation order
    does not matter; each node's dependency is summed by ``np.bincount``
    from 0.0 over its out-edges in CSR order, as the scalar loop sums
    them; and the rows are added to the result one at a time, in source
    order.
    """
    n = graph.num_nodes
    sources = np.asarray(sources, np.int64)
    indptr, indices = graph.out_csr
    reach = np.empty(sources.size, np.int64)
    hist = [0]
    bc = np.zeros(n)
    step = max(1, _BLOCK_CELLS // max(n, 1))
    for lo in range(0, sources.size, step):
        block = sources[lo:lo + step]
        k = block.size
        dist = np.full(k * n, -1, np.int64)
        sigma = np.zeros(k * n)
        delta = np.zeros(k * n)
        frontier = np.arange(k) * n + block
        dist[frontier] = 0
        sigma[frontier] = 1.0
        levels, edges = [], []
        while frontier.size:
            levels.append(frontier)
            entry, target = _out_edges(indptr, indices, n, frontier)
            # len(levels) is now the depth of the next frontier
            dist[target[dist[target] < 0]] = len(levels)
            keep = dist[target] == len(levels)
            # the level's shortest-path edges, for the backward pass too
            entry, target = entry[keep], target[keep]
            edges.append((entry, target))
            frontier, up = np.unique(target, return_inverse=True)
            sigma[frontier] = np.bincount(up, sigma[levels[-1][entry]],
                                          frontier.size)
        reach[lo:lo + k] = (dist.reshape(k, n) >= 0).sum(axis=1) - 1
        hist += [0] * (len(levels) - len(hist))
        for d in range(1, len(levels)):
            hist[d] += levels[d].size
        # the deepest level has no successors, so its delta stays 0
        for d in range(len(levels) - 2, -1, -1):
            frontier = levels[d]
            entry, w = edges[d]
            # every reached node has sigma >= 1: no sigma > 0 guard needed
            delta[frontier] = np.bincount(
                entry, sigma[frontier[entry]] / sigma[w] * (1.0 + delta[w]),
                frontier.size)
        delta = delta.reshape(k, n)
        delta[np.arange(k), block] = 0.0
        for row in delta:
            bc += row
    betweenness = (MetricError("betweenness needs at least 3 nodes") if n < 3
                   else bc * ((n / sources.size) / ((n - 1.0) * (n - 2.0))))
    return SourceRows(reach, np.array(hist, np.int64), betweenness)


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
