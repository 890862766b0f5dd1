"""Directed triad census (16 isomorphism classes) and feed-forward loops."""

from __future__ import annotations

import itertools

import numpy as np

from .. import kernels
from ..graph import LabeledGraph, out_csr, undirected_csr
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
    out_ptr, out_idx = out_csr(graph)
    if n_samples is None:
        und_ptr, und_idx, _ = undirected_csr(graph)
        counts = kernels._triad_census_exact(und_ptr, und_idx, out_ptr,
                                             out_idx, n, TRICODE_TABLE)
    else:
        rng = np.random.default_rng(seed)
        counts = kernels._triad_census_sampled(out_ptr, out_idx, n,
                                               TRICODE_TABLE,
                                               int(n_samples), rng)
    return counts / counts.sum()


def ffl_count(graph: LabeledGraph) -> int:
    """Feed-forward loops: ordered triples with a->b, a->c, b->c.

    Counted as one per transitive closing arc, by intersecting the
    out-neighborhoods of each edge's endpoints.
    """
    out_ptr, out_idx = out_csr(graph)
    return int(kernels._ffl_count(out_ptr, out_idx, graph.src, graph.dst))
