"""Directed triad census (16 isomorphism classes), feed-forward loops and
the undirected triangle counts behind clustering."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.sparse import csr_matrix

from ..graph import LabeledGraph
from .distances import MetricError

TRIAD_NAMES = ("003", "012", "102", "021D", "021U", "021C", "111D", "111U",
               "030T", "030C", "201", "120D", "120U", "120C", "210", "300")

# one representative per class, as ordered node pairs on {0, 1, 2}
_REPRESENTATIVES = {
    "003": (),
    "012": ((0, 1),),
    "102": ((0, 1), (1, 0)),
    "021D": ((1, 0), (1, 2)),
    "021U": ((0, 1), (2, 1)),
    "021C": ((0, 1), (1, 2)),
    "111D": ((0, 1), (1, 0), (2, 1)),
    "111U": ((0, 1), (1, 0), (1, 2)),
    "030T": ((0, 1), (0, 2), (2, 1)),
    "030C": ((0, 1), (1, 2), (2, 0)),
    "201": ((0, 1), (1, 0), (1, 2), (2, 1)),
    "120D": ((1, 0), (1, 2), (0, 2), (2, 0)),
    "120U": ((0, 1), (2, 1), (0, 2), (2, 0)),
    "120C": ((0, 1), (1, 2), (0, 2), (2, 0)),
    "210": ((0, 1), (1, 0), (1, 2), (2, 1), (0, 2)),
    "300": ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)),
}

# bit weights for the arcs of an ordered node triple (u, v, w)
_ARC_BIT = {(0, 1): 1, (1, 0): 2, (0, 2): 4, (2, 0): 8, (1, 2): 16, (2, 1): 32}


def _build_code_table() -> np.ndarray:
    """Map each of the 64 arc-bit codes to its isomorphism class index.

    Every representative's full permutation orbit is expanded; the orbits
    must tile the code space exactly, which is asserted here.
    """
    table = np.full(64, -1, np.int64)
    for idx, name in enumerate(TRIAD_NAMES):
        for perm in itertools.permutations(range(3)):
            code = 0
            for a, b in _REPRESENTATIVES[name]:
                code |= _ARC_BIT[(perm[a], perm[b])]
            if table[code] not in (-1, idx):
                raise AssertionError(
                    f"triad code {code} claimed by two classes")
            table[code] = idx
    if (table < 0).any():
        raise AssertionError("triad class orbits do not cover all 64 codes")
    return table


TRICODE_TABLE = _build_code_table()


def _draw_triples(n: int, n_samples: int, rng: np.random.Generator):
    """Uniform ordered triples of distinct nodes, drawn all at once.

    ``v`` skips ``u`` and ``w`` skips both, by shifting each draw past the
    earlier picks it reaches, in ascending order.
    """
    u = rng.integers(0, n, n_samples)
    v = rng.integers(0, n - 1, n_samples)
    v += (v >= u)
    w = rng.integers(0, n - 2, n_samples)
    w += (w >= np.minimum(u, v))
    w += (w >= np.maximum(u, v))
    return u, v, w


def _pair_arcs(graph: LabeledGraph):
    """The linked pairs' keys and arcs: ``(keys, arcs)``.

    ``keys`` lists ``a * n + b`` for every entry (a, b) of the undirected
    view, both ways round, in ascending order, and ends with a sentinel
    ``n * n`` above every pair; ``arcs`` holds each entry's arc bits, 1 for
    a -> b and 2 for b -> a (0 at the sentinel).  ``graph.out_csr`` lists
    its arcs' keys in ascending order too, so one sorted search places them.
    """
    n = graph.num_nodes
    indptr, indices, weights = graph.undirected_csr
    out_indptr, out_indices = graph.out_csr
    keys = np.append(np.repeat(np.arange(n) * n, np.diff(indptr)) + indices,
                     n * n)
    arcs = np.zeros(keys.size, np.uint8)
    arcs[np.searchsorted(keys, np.repeat(np.arange(n) * n, np.diff(out_indptr))
                         + out_indices)] = 1
    # a weight counts the entry's arcs: those not forward are backward
    arcs[:-1] |= (weights - arcs[:-1]).astype(np.uint8) << 1
    return keys, arcs


def _class_counts(codes: np.ndarray) -> np.ndarray:
    """Counts of the 16 triad classes from the counts of the 64 codes."""
    counts = np.zeros(16, np.int64)
    np.add.at(counts, TRICODE_TABLE, codes)
    return counts


def _classify_triples(graph: LabeledGraph, u, v, w) -> np.ndarray:
    """Counts of the 16 triad classes over the node triples ``(u, v, w)``.

    The arc bits of the pairs (u, v), (u, w) and (v, w) are those of the
    keys ``u * n + v``, ``u * n + w`` and ``v * n + w`` among
    ``_pair_arcs``, 0 where the pair is unlinked; the 6-bit code maps
    through TRICODE_TABLE.  The three queries per triple are sorted once
    and searched in ascending order, which keeps the searches in cache.
    """
    n = graph.num_nodes
    keys, arcs = _pair_arcs(graph)
    query = np.concatenate((u * n + v, u * n + w, v * n + w))
    order = np.argsort(query)
    query = query[order]
    at = np.searchsorted(keys, query)
    bits = np.empty(query.size, np.uint8)
    bits[order] = arcs[at] * (keys[at] == query)
    u_v, u_w, v_w = np.split(bits, 3)
    return _class_counts(np.bincount(u_v | u_w << 2 | v_w << 4, minlength=64))


# Bound on the wedges (two-step paths) one block may hold, in the exact
# census and in _triangle_counts: a hub's squared degree would otherwise
# set the memory.
_WEDGE_BLOCK = 1 << 20


def _exact_counts(graph: LabeledGraph) -> np.ndarray:
    """Counts of the 16 triad classes over all C(n, 3) node triples.

    A wedge is a centre x with two neighbours y < z in the undirected view.
    Its triple is connected, and it is the triple's only wedge unless y and
    z are linked too; such a triangle is classified from its smallest
    centre alone.  A wedge's two arms are entries of x's row, its first
    and second slot, whose arc bits ``_pair_arcs`` lists; one search for
    the pair (y, z) tells whether the wedge is closed and, if it is, gives
    that pair's arc bits too.  Every closed wedge adds one common neighbour
    to its pair (y, z).  A triple with exactly one linked pair (u, v) has
    its third node outside both neighbourhoods, which leaves
    ``n - deg u - deg v + common(u, v)`` of them: class 102 for a mutual
    pair, else 012.  Class 003 takes the remaining triples.  Wedges are
    taken in blocks of consecutive first slots holding about
    ``_WEDGE_BLOCK`` wedges; one slot adds fewer than n.
    """
    n = graph.num_nodes
    indptr, indices, weights = graph.undirected_csr
    deg = np.diff(indptr)
    rows = np.repeat(np.arange(n), deg)
    keys, arcs = _pair_arcs(graph)
    slots = np.arange(indices.size)
    per_slot = indptr[rows + 1] - 1 - slots
    upper = rows < indices
    common = np.zeros(indices.size, np.int64)
    codes = np.zeros(64, np.int64)
    block = np.cumsum(per_slot) // _WEDGE_BLOCK
    lo = 0
    for hi in np.append(np.flatnonzero(np.diff(block)) + 1, indices.size):
        c = per_slot[lo:hi]
        # each per-wedge int64 array is dropped once read, which keeps a
        # block's peak near three of them (a hub graph's test bounds it)
        first = np.repeat(slots[lo:hi], c)
        # x < y exactly when the first slot lies above the diagonal
        above, code = upper[first], arcs[first]
        pair = indices[first] * n
        del first
        second = np.repeat(slots[lo:hi] + 1 - np.cumsum(c) + c, c)
        second += np.arange(second.size)
        code |= arcs[second] << 2
        pair += indices[second]
        del second
        at = np.searchsorted(keys, pair)
        closed = keys[at] == pair
        del pair
        code |= (arcs[at] * closed) << 4
        common += np.bincount(at[closed], minlength=indices.size)
        del at
        codes += np.bincount(code[~closed | above], minlength=64)
        lo = hi
    counts = _class_counts(codes)
    one_link = n - deg[rows[upper]] - deg[indices[upper]] + common[upper]
    mutual = weights[upper] == 2
    counts[1] = one_link[~mutual].sum()
    counts[2] = one_link[mutual].sum()
    counts[0] = n * (n - 1) * (n - 2) // 6 - counts[1:].sum()
    return counts


def _triangle_counts(indptr, indices, n: int) -> np.ndarray:
    """Per-node triangle counts of the simple undirected graph U.

    The row sums of ``(U @ U) * U`` count each triangle at a node twice.
    Rows are taken in blocks whose two-step paths (a row's neighbours'
    summed degrees) total about ``_WEDGE_BLOCK``.
    """
    und = csr_matrix((np.ones(indices.size, np.int64), indices, indptr),
                     shape=(n, n))
    block = np.cumsum(und @ np.diff(indptr)) // _WEDGE_BLOCK
    tri = np.empty(n, np.int64)
    lo = 0
    for hi in np.append(np.flatnonzero(np.diff(block)) + 1, n):
        rows = und[lo:hi]
        tri[lo:hi] = np.asarray((rows @ und).multiply(rows).sum(axis=1)).ravel() // 2
        lo = hi
    return tri


def triad_census(graph: LabeledGraph, n_samples: int = None,
                 seed=None) -> np.ndarray:
    """Proportions of the 16 directed triad classes over node triples.

    Exhaustive when ``n_samples`` is None: all C(n,3) triples, counted
    from the wedges of the undirected view and its linked pairs
    (``_exact_counts``).  Otherwise classifies ``n_samples`` uniformly
    random distinct triples (``_classify_triples``).  Both modes read each
    linked pair's arcs from ``_pair_arcs``.
    """
    n = graph.num_nodes
    if n < 3:
        raise MetricError("triad census needs at least 3 nodes")
    if n_samples is None:
        counts = _exact_counts(graph)
    else:
        triples = _draw_triples(n, int(n_samples), np.random.default_rng(seed))
        counts = _classify_triples(graph, *triples)
    return counts / counts.sum()


def ffl_count(graph: LabeledGraph) -> int:
    """Feed-forward loops: ordered triples with a->b, a->c, b->c.

    Counted as ``sum((A @ A) * A)``: each arc a->c weighted by its number
    of two-step paths a->b->c.  The float adjacency counts them exactly:
    the sums are whole numbers, exact in float64 below 2**53.
    """
    adj = graph.adjacency
    return int((adj @ adj).multiply(adj).sum())
