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


def _find(keys, query):
    """Which of ``query`` are in the sorted ``keys``, and their positions.

    ``keys`` ends with a sentinel above every query, so every search lands
    on a key.
    """
    at = np.searchsorted(keys, query)
    hit = keys[at] == query
    return hit, at[hit]


def _classify_triples(graph: LabeledGraph, u, v, w) -> np.ndarray:
    """Counts of the 16 triad classes over the node triples ``(u, v, w)``.

    Each of the six arc bits is a search for the key ``src * n + dst``
    among the directed edge keys, which ``graph.out_csr`` lists in sorted
    order; the 6-bit code maps through TRICODE_TABLE.
    """
    n = graph.num_nodes
    indptr, indices = graph.out_csr
    keys = np.append(np.repeat(np.arange(n) * n, np.diff(indptr)) + indices,
                     n * n)
    code = np.zeros(u.shape, np.uint8)
    for bit, (a, b) in enumerate(((u, v), (v, u), (u, w), (w, u),
                                  (v, w), (w, v))):
        code |= _find(keys, a * n + b)[0].astype(np.uint8) << bit
    return np.bincount(TRICODE_TABLE[code], minlength=16)


# Bound on the wedges (two-step paths) one block may hold, in the exact
# census and in _triangle_counts: a hub's squared degree would otherwise
# set the memory.
_WEDGE_BLOCK = 1 << 20


def _exact_counts(graph: LabeledGraph) -> np.ndarray:
    """Counts of the 16 triad classes over all C(n, 3) node triples.

    A wedge is a centre x with two neighbours y < z in the undirected view.
    Its triple is connected, and it is the triple's only wedge unless y and
    z are linked too; such a triangle is classified from its smallest
    centre alone.  Every closed wedge adds one common neighbour to its pair
    (y, z).  A triple with exactly one linked pair (u, v) has its third
    node outside both neighbourhoods, which leaves
    ``n - deg u - deg v + common(u, v)`` of them: class 102 for a mutual
    pair, else 012.  Class 003 takes the remaining triples.  Wedges are
    taken in blocks of consecutive first slots (edge positions ``x -> y``)
    holding about ``_WEDGE_BLOCK`` wedges; one slot adds fewer than n.
    """
    n = graph.num_nodes
    indptr, indices, weights = graph.undirected_csr
    deg = np.diff(indptr)
    rows = np.repeat(np.arange(n), deg)
    pair_keys = np.append(rows * n + indices, n * n)
    slots = np.arange(indices.size)
    per_slot = indptr[rows + 1] - 1 - slots
    upper = rows < indices
    common = np.zeros(indices.size, np.int64)
    counts = np.zeros(16, np.int64)
    block = np.cumsum(per_slot) // _WEDGE_BLOCK
    lo = 0
    for hi in np.append(np.flatnonzero(np.diff(block)) + 1, indices.size):
        c = per_slot[lo:hi]
        y = np.repeat(indices[lo:hi], c)
        z = indices[np.repeat(slots[lo:hi] + 1 - np.cumsum(c) + c, c)
                    + np.arange(c.sum())]
        closed, pairs = _find(pair_keys, y * n + z)
        common += np.bincount(pairs, minlength=indices.size)
        # x < y exactly when the first slot lies above the diagonal
        keep = ~closed | np.repeat(upper[lo:hi], c)
        x, y, z = np.repeat(rows[lo:hi], c)[keep], y[keep], z[keep]
        counts += _classify_triples(graph, x, y, z)
        lo = hi
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
    random distinct triples.  Both modes classify triples with
    ``_classify_triples``.
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
