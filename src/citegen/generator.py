"""Community-structured citation DAG generator and its closed-form theory.

The growth process adds one node per step.  Each new node joins a community
by a categorical draw, samples an out-degree (Gamma-Poisson when the
configured variance exceeds the mean, plain Poisson otherwise), splits it
binomially into accidental and preferential citations, and resolves targets
among the already-existing nodes: accidental ones uniformly, preferential
ones by a uniform draw from the target community's urn, which holds one copy
of a node per in-edge received.  All edges therefore point from newer to
older nodes and the output is acyclic by construction.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import gammaln

from .graph import LabeledGraph, _label_groups

RHO_MIN = 1e-3
RHO_MAX = 1.0 - 1e-3

SeedLike = Union[int, np.random.SeedSequence]


class ParamError(ValueError):
    pass


@dataclass(frozen=True)
class CsParams:
    """Per-community generation parameters.

    ``p`` are community probabilities summing to one, ``m`` expected
    out-degrees, ``rho`` the preferential fractions (clamped into
    [1e-3, 1-1e-3] on construction), ``sigma2`` out-degree variances.
    """

    p: np.ndarray
    m: np.ndarray
    rho: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.p, np.float64)
        m = np.ascontiguousarray(self.m, np.float64)
        rho = np.ascontiguousarray(self.rho, np.float64)
        sigma2 = np.ascontiguousarray(self.sigma2, np.float64)
        k = p.size
        if k == 0:
            raise ParamError("need at least one community")
        if not (m.size == k and rho.size == k and sigma2.size == k):
            raise ParamError("parameter arrays must share one length")
        for arr, what in ((p, "community probabilities"),
                          (m, "mean out-degrees"),
                          (sigma2, "out-degree variances"),
                          (rho, "preferential fractions")):
            if not np.isfinite(arr).all():
                raise ParamError(f"{what} must be finite")
        if (p <= 0).any():
            raise ParamError("community probabilities must be positive")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ParamError("community probabilities must sum to 1")
        if (m <= 0).any():
            raise ParamError("mean out-degrees must be positive")
        if (sigma2 < 0).any():
            raise ParamError("out-degree variances must be nonnegative")
        if (rho < 0).any() or (rho > 1).any():
            raise ParamError("preferential fractions must lie in [0, 1]")
        rho = np.clip(rho, RHO_MIN, RHO_MAX)
        for name, arr in (("p", p), ("m", m), ("rho", rho), ("sigma2", sigma2)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return int(self.p.size)

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "p": self.p.tolist(),
                "m": self.m.tolist(),
                "rho": self.rho.tolist(),
                "sigma2": self.sigma2.tolist(),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "CsParams":
        doc = json.loads(text)
        try:
            k = int(doc["k"])
            arrays = {key: np.asarray(doc[key], np.float64)
                      for key in ("p", "m", "rho", "sigma2")}
        except (KeyError, TypeError, ValueError) as exc:
            raise ParamError(f"malformed parameter document: {exc}")
        for key, arr in arrays.items():
            if arr.size != k:
                raise ParamError(f"array {key!r} length {arr.size} != k={k}")
        return cls(**arrays)


@dataclass(frozen=True)
class DerivedParams:
    """Accidental-edge rate and per-community effective preferentiality."""

    mean_accidental: float
    nu: np.ndarray


def effective_preferentiality(p, m, rho):
    """Raw form of the derived quantities for arbitrary arrays.

    Returns ``(mean_accidental, nu)`` with mean_accidental = sum p m (1-rho)
    and nu_i = rho_i m_i / (mean_accidental + rho_i m_i).
    """
    p = np.asarray(p, np.float64)
    m = np.asarray(m, np.float64)
    rho = np.asarray(rho, np.float64)
    mean_accidental = float(np.sum(p * m * (1.0 - rho)))
    numer = rho * m
    denom = mean_accidental + numer
    if (denom <= 0).any():
        raise ParamError("degenerate effective preferentiality: "
                         "no accidental edges and a zero preferential rate")
    return mean_accidental, numer / denom


def derive(params: CsParams) -> DerivedParams:
    mean_accidental, nu = effective_preferentiality(params.p, params.m, params.rho)
    nu.setflags(write=False)
    return DerivedParams(mean_accidental=mean_accidental, nu=nu)


def _draw_node_streams(params: CsParams, n: int, seed: SeedLike):
    """Community, out-degree and split draws for every node, ahead of growth.

    ``seed`` spawns five streams: community uniforms, Poisson out-degrees,
    split uniforms, target uniforms and Gamma rates.  Node v >= k joins
    community c by one uniform against the cumulative ``p``.  Its
    out-degree is Poisson with rate ``m[c]``, or with a Gamma rate of mean
    ``m[c]`` when ``sigma2[c] > m[c]``, so that the untruncated draw is
    negative binomial with variance ``sigma2[c]``; it is then clipped at v.
    Each of its d edges is accidental when its split uniform falls below
    ``1 - rho[c]``.  The urn walk takes one target uniform per edge
    attempt, accidental attempts first, so all ``d.sum()`` are drawn here.
    Every stream is consumed node by node in id order, so a shorter run
    draws an exact prefix of a longer one.  Returns
    ``(labels, d, n_acc, u_tgt)``; the seed nodes 0..k-1 have d = 0.
    """
    k = params.k
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng_cat, rng_deg, rng_split, rng_tgt, rng_gam = (
        np.random.default_rng(child) for child in ss.spawn(5))
    labels = np.arange(n, dtype=np.int64)
    labels[k:] = np.minimum(np.searchsorted(
        np.cumsum(params.p), rng_cat.random(n - k), side="right"), k - 1)
    m = params.m[labels[k:]]
    sigma2 = params.sigma2[labels[k:]]
    lam = m.copy()
    over = sigma2 > m
    excess = sigma2[over] - m[over]
    lam[over] = rng_gam.gamma(m[over] ** 2 / excess, excess / m[over])
    d = np.zeros(n, np.int64)
    d[k:] = np.minimum(rng_deg.poisson(lam), np.arange(k, n))
    acc = rng_split.random(int(d.sum())) < np.repeat(1.0 - params.rho[labels], d)
    cum = np.concatenate(([0], np.cumsum(acc)))
    ends = np.cumsum(d)
    n_acc = cum[ends] - cum[ends - d]
    return labels, d, n_acc, rng_tgt.random(acc.size)


def _urn_walk(labels, d, n_acc, members, starts, urns, u_tgt):
    """Resolve the citation targets of nodes k..n-1; return (src, dst).

    Node v makes ``n_acc[v]`` accidental draws, uniform over 0..v-1, then
    ``d[v] - n_acc[v]`` preferential ones, uniform over its community's
    urn, or over the community's earlier members while that urn is empty.
    Each draw scales the next uniform of ``u_tgt`` (one per draw, in node
    order) to an index.  A repeated target is dropped.  ``members`` lists
    the nodes by community in id order, community c from ``starts[c]``.
    ``urns`` holds one ``array('q')`` (or list) per community; every cited
    node is appended once more to its own community's urn, after its
    citer's draws.

    The walk is sequential (each draw reads the urns the earlier nodes
    filled), so it runs on Python lists and arrays, which step several
    times faster than numpy scalars.  The urns, the uniforms and ``dst``,
    each about one entry per edge, are 8-byte arrays rather than lists of
    Python objects.
    """
    labels, d, n_acc, members, starts = (
        a.tolist() for a in (labels, d, n_acc, members, starts))
    u_tgt = array("d", u_tgt.tobytes())
    mem_n = [1] * len(starts)
    dst = array("q")
    kept_n = []
    t = 0
    for v in range(len(starts), len(labels)):
        c = labels[v]
        urn = urns[c]
        na = n_acc[v]
        kept = []
        for a in range(d[v]):
            x = u_tgt[t]
            t += 1
            # x < 1, so int(x * size) <= size; size itself (x * size
            # rounded up) takes the last index
            if a < na:
                u = int(x * v)
                if u == v:
                    u -= 1
            elif urn:
                j = int(x * len(urn))
                u = urn[j] if j < len(urn) else urn[-1]
            else:
                j = int(x * mem_n[c])
                u = members[starts[c] + (j if j < mem_n[c] else j - 1)]
            if u not in kept:
                kept.append(u)
        for u in kept:
            urns[labels[u]].append(u)
        dst.extend(kept)
        kept_n.append(len(kept))
        mem_n[c] += 1
    src = np.repeat(np.arange(len(starts), len(labels), dtype=np.int64), kept_n)
    return src, np.frombuffer(dst, np.int64)


def generate(params: CsParams, n: int, seed: SeedLike) -> LabeledGraph:
    """Grow an n-node labelled citation DAG.

    Nodes 0..k-1 are community seeds (one per community, no out-edges).
    Node ids equal creation order, so every edge points from a larger id to
    a smaller one.  Identical (params, n, seed) reproduce the identical
    edge list, and a shorter run is an exact prefix of a longer one.
    """
    k = params.k
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ParamError(f"n must be an integer, got {n!r}")
    if n < k:
        raise ParamError(f"n={n} is below the community count k={k}")
    labels, d, n_acc, u_tgt = _draw_node_streams(params, int(n), seed)
    members, bounds = _label_groups(labels, k)
    src, dst = _urn_walk(labels, d, n_acc, members, bounds[:-1],
                         [array("q") for _ in range(k)], u_tgt)
    return LabeledGraph(num_nodes=int(n), src=src, dst=dst, labels=labels)


def expected_indegree(ell, t, nu: float, mean_accidental: float):
    """Expected in-degree of the community's ell-th node at local time t.

    Evaluates (a/nu) * (Gamma(ell-nu)Gamma(t) / (Gamma(ell)Gamma(t-nu)) - 1)
    through log-gamma.  ``ell`` may be an array; 1 <= ell <= t required.
    """
    ell = np.asarray(ell, np.float64)
    t = np.asarray(t, np.float64)
    if not 0.0 < nu < 1.0:
        raise ParamError("nu must lie strictly between 0 and 1")
    if (ell < 1).any() or (ell > t).any():
        raise ParamError("local rank must satisfy 1 <= ell <= t")
    ratio = np.exp(gammaln(ell - nu) + gammaln(t) - gammaln(ell) - gammaln(t - nu))
    out = (mean_accidental / nu) * (ratio - 1.0)
    return float(out) if out.ndim == 0 else out


def pareto2_ccdf(x, nu: float, mean_accidental: float):
    """Lomax survival function with shape 1/nu and scale mean_accidental/nu."""
    x = np.asarray(x, np.float64)
    if (x < 0).any():
        raise ParamError("degree must be nonnegative")
    if not 0.0 < nu < 1.0:
        raise ParamError("nu must lie strictly between 0 and 1")
    if mean_accidental <= 0:
        raise ParamError("mean accidental rate must be positive")
    alpha = 1.0 / nu
    lam = mean_accidental / nu
    out = np.power(1.0 + x / lam, -alpha)
    return float(out) if out.ndim == 0 else out


def empirical_ccdf(values: np.ndarray):
    """P(X >= j) on integer support 0..max(values)."""
    values = np.asarray(values, np.int64)
    if values.size == 0:
        raise ParamError("empty sample")
    counts = np.bincount(values)
    tail = np.cumsum(counts[::-1])[::-1]
    return np.arange(counts.size), tail / values.size


def ks_to_pareto2(indegrees: np.ndarray, nu: float, mean_accidental: float,
                  bulk_quantile: float = None):
    """KS distance between an integer sample's CCDF and the Lomax theory curve.

    Both CCDFs are evaluated on the integer support; the distance with a
    half-integer continuity correction (theory at j - 1/2) is returned as a
    diagnostic second value.  ``bulk_quantile`` restricts the support to
    degrees strictly below that empirical quantile.
    """
    support, emp = empirical_ccdf(indegrees)
    if bulk_quantile is not None:
        cutoff = np.quantile(np.asarray(indegrees, np.float64), bulk_quantile)
        keep = support < cutoff
        support, emp = support[keep], emp[keep]
    plain = np.abs(emp - pareto2_ccdf(support, nu, mean_accidental))
    pos = support >= 1
    corrected = np.abs(emp[pos] - pareto2_ccdf(support[pos] - 0.5, nu, mean_accidental))
    d_corr = float(corrected.max()) if corrected.size else float(plain.max())
    return float(plain.max()), d_corr
