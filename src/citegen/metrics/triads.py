"""Directed triad census (16 isomorphism classes) and feed-forward loops."""

from __future__ import annotations

import itertools

import numpy as np

from .. import kernels
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


def _classify_triples(graph: LabeledGraph, u, v, w) -> np.ndarray:
    """Counts of the 16 triad classes over the node triples ``(u, v, w)``.

    Each of the six arc bits is found by binary search on the sorted
    ``src * n + dst`` edge keys; the 6-bit code maps through TRICODE_TABLE.
    The key ``n * n`` closes the list, so every search lands on a key.
    """
    n = graph.num_nodes
    keys = np.append(np.sort(graph.src * n + graph.dst), n * n)
    code = np.zeros(u.shape, np.int64)
    for bit, (a, b) in enumerate(((u, v), (v, u), (u, w), (w, u),
                                  (v, w), (w, v))):
        query = a * n + b
        code |= (keys[np.searchsorted(keys, query)] == query).astype(np.int64) << bit
    return np.bincount(TRICODE_TABLE[code], minlength=16)


def triad_census(graph: LabeledGraph, n_samples: int = None,
                 seed=None) -> np.ndarray:
    """Proportions of the 16 directed triad classes over node triples.

    Exhaustive when ``n_samples`` is None (all C(n,3) triples, via the
    linked-pair enumeration); otherwise classifies ``n_samples`` uniformly
    random distinct triples.
    """
    n = graph.num_nodes
    if n < 3:
        raise MetricError("triad census needs at least 3 nodes")
    if n_samples is None:
        counts = kernels._triad_census_exact(*graph.undirected_csr[:2],
                                             *graph.out_csr, n, TRICODE_TABLE)
    else:
        triples = _draw_triples(n, int(n_samples), np.random.default_rng(seed))
        counts = _classify_triples(graph, *triples)
    return counts / counts.sum()


def ffl_count(graph: LabeledGraph) -> int:
    """Feed-forward loops: ordered triples with a->b, a->c, b->c.

    Counted as ``sum((A @ A) * A)``: each arc a->c weighted by its number
    of two-step paths a->b->c.
    """
    adj = graph.adjacency.astype(np.int64)
    return int((adj @ adj).multiply(adj).sum())
