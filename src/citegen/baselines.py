"""Fitted classical random-graph baselines: ER, configuration model, SBM, DC-SBM.

Each fit captures sufficient statistics of an input graph; each generator
draws a new directed simple graph from them.  All are composable with
neardag.cycle_break for near-DAG variants.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import LabeledGraph, _sorted_unique

log = logging.getLogger(__name__)


class BaselineError(ValueError):
    pass


@dataclass(frozen=True)
class ErFit:
    n: int
    p: float

    def to_json(self) -> str:
        return json.dumps({"model": "er", "n": self.n, "p": self.p})

    @classmethod
    def from_json(cls, text: str) -> "ErFit":
        doc = json.loads(text)
        return cls(n=int(doc["n"]), p=float(doc["p"]))


def fit_er(graph: LabeledGraph) -> ErFit:
    n = graph.num_nodes
    pairs = n * (n - 1)
    return ErFit(n=n, p=0.0 if pairs == 0 else graph.num_edges / pairs)


def generate_er(fit: ErFit, seed) -> LabeledGraph:
    """Each ordered pair appears independently with probability p.

    Skip-sampling walks the linearized pair index with geometric gaps
    ``1 + floor(log1p(-u) / log1p(-p))``, so the cost is proportional to
    the number of realized edges.  The uniforms are drawn in chunks, and
    the gaps summed, until the walk passes the last pair.  Ratios within a
    few ulps of an integer are recomputed with ``math.log1p``: ``np.log1p``
    may differ from it in the last bit, depending on the numpy build.
    """
    if not 0.0 <= fit.p <= 1.0:
        raise BaselineError("edge probability outside [0, 1]")
    rng = np.random.default_rng(seed)
    n, p = fit.n, fit.p
    if n < 2 or p == 0.0:
        return LabeledGraph(num_nodes=n, src=np.empty(0, np.int64),
                            dst=np.empty(0, np.int64))
    total = n * (n - 1)
    log1mp = math.log1p(-p) if p < 1.0 else -math.inf
    chunk = min(int(total * p * 1.1) + 64, 1 << 20)
    last, parts = -1, []
    while last < total:
        u = rng.random(chunk)
        gaps = np.log1p(-u) / log1mp
        near = np.flatnonzero((gaps > 0) & (gaps < total + 1)
                              & (np.abs(gaps - np.rint(gaps))
                                 <= 4 * np.spacing(gaps)))
        gaps[near] = [math.log1p(-x) / log1mp for x in u[near].tolist()]
        # any gap of at least ``total`` ends the walk; the clip keeps the
        # huge gaps of a tiny p inside int64
        gaps = np.minimum(gaps, total)
        parts.append(last + np.cumsum(1 + gaps.astype(np.int64)))
        last = parts[-1][-1]
    idx = np.concatenate(parts)
    idx = idx[idx < total]
    src = idx // (n - 1)
    dst = idx % (n - 1)
    dst += dst >= src
    return LabeledGraph(num_nodes=n, src=src, dst=dst)


@dataclass(frozen=True)
class ConfigFit:
    out_seq: np.ndarray
    in_seq: np.ndarray

    def __post_init__(self):
        out_seq = np.ascontiguousarray(self.out_seq, np.int64)
        in_seq = np.ascontiguousarray(self.in_seq, np.int64)
        if out_seq.shape != in_seq.shape:
            raise BaselineError("degree sequences must share one length")
        if out_seq.sum() != in_seq.sum():
            raise BaselineError("out- and in-degree totals must balance")
        if (out_seq < 0).any() or (in_seq < 0).any():
            raise BaselineError("degrees must be nonnegative")
        object.__setattr__(self, "out_seq", out_seq)
        object.__setattr__(self, "in_seq", in_seq)

    def to_json(self) -> str:
        return json.dumps({"model": "config",
                           "out_seq": self.out_seq.tolist(),
                           "in_seq": self.in_seq.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "ConfigFit":
        doc = json.loads(text)
        return cls(out_seq=np.asarray(doc["out_seq"], np.int64),
                   in_seq=np.asarray(doc["in_seq"], np.int64))


def fit_config(graph: LabeledGraph) -> ConfigFit:
    return ConfigFit(out_seq=graph.d_out, in_seq=graph.d_in)


def generate_config(fit: ConfigFit, seed):
    """Erased directed configuration model.

    Out-stubs meet a uniform permutation of in-stubs; self-loops and
    duplicate edges are erased rather than resampled, so termination is
    guaranteed on heavy-tailed sequences.  Returns (graph, erased_count).
    """
    rng = np.random.default_rng(seed)
    n = fit.out_seq.size
    sources = np.repeat(np.arange(n, dtype=np.int64), fit.out_seq)
    targets = np.repeat(np.arange(n, dtype=np.int64), fit.in_seq)
    targets = rng.permutation(targets)
    keep = sources != targets
    keys = _sorted_unique(sources[keep] * n + targets[keep])
    erased = int(sources.size - keys.size)
    if erased:
        log.info("configuration model erased %d stub pairings", erased)
    graph = LabeledGraph(num_nodes=n, src=keys // n, dst=keys % n)
    return graph, erased


@dataclass(frozen=True)
class SbmFit:
    """Block structure with optional degree propensities (DC variant).

    ``block_edges[a, b]`` counts observed a-to-b edges.  ``d_out``/``d_in``
    hold per-node degrees; a node's propensity is its degree over its
    block's degree total, computed on demand.
    """

    labels: np.ndarray
    block_edges: np.ndarray
    d_out: np.ndarray
    d_in: np.ndarray

    def __post_init__(self):
        for name in ("labels", "block_edges", "d_out", "d_in"):
            arr = np.ascontiguousarray(getattr(self, name), np.int64)
            object.__setattr__(self, name, arr)
        if self.block_edges.shape != (self.k, self.k):
            raise BaselineError("block matrix shape must be k x k")

    @property
    def k(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)

    def to_json(self) -> str:
        return json.dumps({"model": "sbm",
                           "labels": self.labels.tolist(),
                           "block_edges": self.block_edges.tolist(),
                           "d_out": self.d_out.tolist(),
                           "d_in": self.d_in.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "SbmFit":
        doc = json.loads(text)
        return cls(labels=np.asarray(doc["labels"], np.int64),
                   block_edges=np.asarray(doc["block_edges"], np.int64),
                   d_out=np.asarray(doc["d_out"], np.int64),
                   d_in=np.asarray(doc["d_in"], np.int64))


def fit_sbm(graph: LabeledGraph, labels: np.ndarray = None) -> SbmFit:
    labels = graph.labels if labels is None else np.asarray(labels, np.int64)
    if labels is None or labels.shape[0] != graph.num_nodes:
        raise BaselineError("every node needs a block label")
    k = int(labels.max()) + 1
    pair_keys = labels[graph.src] * k + labels[graph.dst]
    block_edges = np.bincount(pair_keys, minlength=k * k).reshape(k, k)
    return SbmFit(labels=labels, block_edges=block_edges,
                  d_out=graph.d_out, d_in=graph.d_in)


def _block_members(labels: np.ndarray, k: int):
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(k + 1))
    return [order[bounds[c]:bounds[c + 1]] for c in range(k)]


def _place_block_edges(count, pool_src, pool_dst, n, rng):
    """Up to ``count`` distinct non-self edges from ``pool_src`` to ``pool_dst``.

    Each of at most 200 rounds draws one uniform candidate per unfilled
    slot; self-loops and repeats are dropped and the first occurrences
    kept in draw order.  That is edge-by-edge rejection sampling run in
    rounds, so it has the same distribution.  Returns the keys
    ``src * n + dst``.
    """
    keys = np.empty(0, np.int64)
    for _ in range(200):
        need = count - keys.size
        if need == 0:
            break
        s = pool_src[rng.integers(0, pool_src.size, need)]
        t = pool_dst[rng.integers(0, pool_dst.size, need)]
        ok = s != t
        keys = np.concatenate([keys, s[ok] * n + t[ok]])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    return keys


def _generate_blockmodel(fit: SbmFit, seed, degree_corrected: bool):
    """Poisson count per block pair, then edges placed pair by pair; an
    edge's endpoint labels fix its pair, so no two pairs place one edge."""
    rng = np.random.default_rng(seed)
    k = fit.k
    n = fit.labels.size
    members = _block_members(fit.labels, k)
    sizes = fit.sizes
    if degree_corrected:
        out_urns = [np.repeat(members[a], fit.d_out[members[a]]) for a in range(k)]
        in_urns = [np.repeat(members[b], fit.d_in[members[b]]) for b in range(k)]
    else:
        out_urns = in_urns = members
    parts = []
    shortfall = 0
    for a in range(k):
        for b in range(k):
            e_ab = int(fit.block_edges[a, b])
            pairs = int(sizes[a]) * int(sizes[b]) - (int(sizes[a]) if a == b else 0)
            if pairs <= 0 or sizes[a] == 0 or sizes[b] == 0:
                if e_ab:
                    log.warning("block pair (%d,%d) has no room; skipped", a, b)
                continue
            count = min(int(rng.poisson(e_ab)), pairs)
            if count == 0:
                continue
            if out_urns[a].size == 0 or in_urns[b].size == 0:
                log.warning("block pair (%d,%d) has zero propensity; skipped",
                            a, b)
                continue
            keys = _place_block_edges(count, out_urns[a], in_urns[b], n, rng)
            shortfall += count - keys.size
            parts.append(keys)
    if shortfall:
        log.warning("block sampling dropped %d colliding edges", shortfall)
    keys = np.concatenate([np.empty(0, np.int64)] + parts)
    return LabeledGraph(num_nodes=n, src=keys // n, dst=keys % n,
                        labels=fit.labels)


def generate_sbm(fit: SbmFit, seed) -> LabeledGraph:
    """Per block pair: Poisson edge count at the fitted mean, uniform placement."""
    return _generate_blockmodel(fit, seed, degree_corrected=False)


def generate_dcsbm(fit: SbmFit, seed) -> LabeledGraph:
    """Block Poisson counts with endpoints drawn proportionally to degree."""
    return _generate_blockmodel(fit, seed, degree_corrected=True)
