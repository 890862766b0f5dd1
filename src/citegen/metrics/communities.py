"""Partition-quality metrics and a modularity-maximizing community detector."""

from __future__ import annotations

import numpy as np

from ..graph import LabeledGraph, _row_edges
from .distances import MetricError

_MOVE_FRACTION = 0.5  # share of a round's improving moves that is applied
_GAIN_TOL = 1e-12


def _check_labels(graph: LabeledGraph, labels) -> np.ndarray:
    labels = graph.labels if labels is None else np.asarray(labels, np.int64)
    if labels is None or labels.shape[0] != graph.num_nodes:
        raise MetricError("every node needs a community label")
    return labels


def modularity(graph: LabeledGraph, labels=None) -> float:
    """Directed Newman modularity of a labelled partition.

    Q = (intra edges)/m - sum_c (outdeg_c * indeg_c) / m^2.
    """
    labels = _check_labels(graph, labels)
    m = graph.num_edges
    if m == 0:
        return 0.0
    intra = int((labels[graph.src] == labels[graph.dst]).sum())
    k = int(labels.max()) + 1
    dout_c = np.bincount(labels[graph.src], minlength=k).astype(np.float64)
    din_c = np.bincount(labels[graph.dst], minlength=k).astype(np.float64)
    return intra / m - float(np.sum(dout_c * din_c)) / (m * m)


def conductance(graph: LabeledGraph, labels=None) -> float:
    """Mean over communities of cut / min(volume inside, volume outside).

    Volumes count both edge endpoints; a community without incident edges
    contributes zero.
    """
    labels = _check_labels(graph, labels)
    k = int(labels.max()) + 1
    cut = np.zeros(k, np.float64)
    crossing = labels[graph.src] != labels[graph.dst]
    np.add.at(cut, labels[graph.src[crossing]], 1.0)
    np.add.at(cut, labels[graph.dst[crossing]], 1.0)
    deg = graph.degrees()
    vol = np.bincount(labels, weights=(deg.d_in + deg.d_out).astype(np.float64),
                      minlength=k)
    denom = np.minimum(vol, vol.sum() - vol)
    phi = np.divide(cut, denom, out=np.zeros(k, np.float64), where=denom > 0)
    return float(phi.mean())


def density_pair(graph: LabeledGraph, labels=None):
    """(intra, inter) edge densities of the label partition.

    Intra pools edges inside communities over the intra pair count;
    inter pools the rest.  A single community leaves no inter pairs.
    """
    labels = _check_labels(graph, labels)
    n = graph.num_nodes
    k = int(labels.max()) + 1
    sizes = np.bincount(labels, minlength=k).astype(np.float64)
    intra_pairs = float(np.sum(sizes * (sizes - 1.0)))
    inter_pairs = float(n) * (n - 1.0) - intra_pairs
    intra_edges = int((labels[graph.src] == labels[graph.dst]).sum())
    inter_edges = graph.num_edges - intra_edges
    if intra_pairs == 0:
        raise MetricError("no intra-community pairs")
    if inter_pairs == 0:
        raise MetricError("single community: inter-density undefined")
    return intra_edges / intra_pairs, inter_edges / inter_pairs


def participation(graph: LabeledGraph, labels=None,
                  direction: str = "in") -> np.ndarray:
    """Per-node participation 1 - sum_c (d_c/d)^2 over edge peers' communities.

    ``direction`` picks which edges count: "in" looks at the communities
    citing the node, "out" at the communities it cites.  Nodes without
    such edges get 0.
    """
    labels = _check_labels(graph, labels)
    n = graph.num_nodes
    k = int(labels.max()) + 1
    if direction == "in":
        nodes, peers = graph.dst, labels[graph.src]
    elif direction == "out":
        nodes, peers = graph.src, labels[graph.dst]
    else:
        raise MetricError("direction must be 'in' or 'out'")
    uk, cnt = np.unique(nodes * k + peers, return_counts=True)
    sumsq = np.bincount(uk // k, weights=cnt.astype(np.float64) ** 2,
                        minlength=n)
    d = np.bincount(nodes, minlength=n).astype(np.float64)
    out = np.zeros(n, np.float64)
    nz = d > 0
    out[nz] = 1.0 - sumsq[nz] / (d[nz] * d[nz])
    return out


def symmetric_modularity(graph: LabeledGraph, labels,
                         resolution: float = 1.0) -> float:
    """Generalized modularity of a partition on the symmetrized graph."""
    labels = _check_labels(graph, labels)
    if graph.num_edges == 0:
        return 0.0
    two_m = 2.0 * graph.num_edges
    same = labels[graph.src] == labels[graph.dst]
    intra = 2.0 * int(same.sum())
    deg = graph.degrees()
    kdeg = (deg.d_in + deg.d_out).astype(np.float64)
    k = int(labels.max()) + 1
    s = np.bincount(labels, weights=kdeg, minlength=k)
    return intra / two_m - resolution * float(np.sum((s / two_m) ** 2))


def _batch_gain(indptr, indices, weights, kdeg, comm, comm_s, mv, new, scale):
    """Objective gain of moving all of ``mv`` to ``new`` at once, in the
    units of a lone move's gain over staying."""
    eids, lens = _row_edges(indptr, mv)
    x = indices[eids]
    after = comm.copy()
    after[mv] = new
    # half the change in intra weight: an edge between two movers is listed
    # in both their rows, any other edge in one
    share = np.where(after[x] != comm[x], 0.5, 1.0) * weights[eids]
    now = np.repeat(new, lens) == after[x]
    was = np.repeat(comm[mv], lens) == comm[x]
    d_intra = np.dot(share, now.astype(np.float64) - was)
    dsum = (np.bincount(new, weights=kdeg[mv], minlength=comm.size)
            - np.bincount(comm[mv], weights=kdeg[mv], minlength=comm.size))
    return d_intra - 0.5 * scale * np.dot(dsum, 2.0 * comm_s + dsum)


def _local_moving(indptr, indices, weights, kdeg, two_m, resolution, rng,
                  comm=None):
    """Synchronous local moving from ``comm`` (default: singletons);
    returns each node's community.

    Each round, every active node picks its best neighbouring community.
    A seeded random half of the improving moves is applied if together
    they gain, else the best one alone, so the objective rises each round.
    """
    n = kdeg.size
    comm = np.arange(n, dtype=np.int64) if comm is None else comm.copy()
    scale = resolution / two_m
    active = np.flatnonzero(indptr[1:] > indptr[:-1])
    while active.size:
        comm_s = np.bincount(comm, weights=kdeg, minlength=n)
        eids, lens = _row_edges(indptr, active)
        keys = np.repeat(active, lens) * n + comm[indices[eids]]
        pair, inv = np.unique(keys, return_inverse=True)
        w = np.bincount(inv, weights=weights[eids])
        v, c = pair // n, pair % n
        own = c == comm[v]
        gain = w - scale * kdeg[v] * (comm_s[c] - own * kdeg[v])
        first = np.r_[True, v[1:] != v[:-1]]
        starts, grp = np.flatnonzero(first), np.cumsum(first) - 1
        nodes, src = v[starts], comm[v[starts]]
        # staying means rejoining the own community with the node taken out
        stay = -scale * kdeg[nodes] * (comm_s[src] - kdeg[nodes])
        stay[grp[own]] = gain[own]
        gain[own] = -np.inf
        best = np.maximum.reduceat(gain, starts)
        # labels ascend within a node's pairs: ties go to the smaller label
        target = np.minimum.reduceat(np.where(gain == best[grp], c, n), starts)
        # a singleton joins another only of a smaller label: pairs never swap
        size = np.bincount(comm, minlength=n)
        movers = np.flatnonzero((best > stay + _GAIN_TOL) & ~(
            (size[src] == 1) & (size[target] == 1) & (target > src)))
        if movers.size == 0:
            break
        go = rng.random(movers.size) < _MOVE_FRACTION
        if go.sum() < 2 or _batch_gain(
                indptr, indices, weights, kdeg, comm, comm_s,
                nodes[movers[go]], target[movers[go]], scale) <= _GAIN_TOL:
            go = np.arange(movers.size) == np.argmax((best - stay)[movers])
        mv = nodes[movers[go]]
        comm[mv] = target[movers[go]]
        # next: the movers' neighbours and the moves held back
        nxt = np.zeros(n, bool)
        nxt[indices[_row_edges(indptr, mv)[0]]] = True
        nxt[nodes[movers[~go]]] = True
        active = np.flatnonzero(nxt)
    return comm


def detect_communities(graph: LabeledGraph, resolution: float = 1.0,
                       seed=0):
    """Label-blind greedy modularity maximization (Louvain scheme).

    Seeded synchronous local moving on the symmetrized weighted graph and
    community aggregation, repeated until no move improves the objective,
    then one more local moving on the input graph from that partition, so
    that nodes merged into a community at a coarse level can still leave
    it.  Returns (labels, achieved modularity at this resolution).
    """
    n = graph.num_nodes
    if n == 0:
        raise MetricError("empty graph")
    mapping = np.arange(n, dtype=np.int64)
    if graph.num_edges == 0:
        return mapping, 0.0
    rng = np.random.default_rng(seed)
    indptr, indices, weights = graph.undirected_csr
    selfw = np.zeros(n, np.float64)
    two_m = weights.sum()
    level0 = None
    while True:
        n_cur = indptr.size - 1
        rows = np.repeat(np.arange(n_cur), np.diff(indptr))
        kdeg = np.bincount(rows, weights=weights, minlength=n_cur) + selfw
        if level0 is None:
            level0 = indptr, indices, weights, kdeg
        comm = _local_moving(indptr, indices, weights, kdeg, two_m,
                             float(resolution), rng)
        uniq, compact = np.unique(comm, return_inverse=True)
        mapping = compact[mapping]
        if uniq.size == n_cur:
            break
        nc = uniq.size
        cu = compact[rows]
        cv = compact[indices]
        intra = cu == cv
        new_selfw = (np.bincount(cu[intra], weights=weights[intra], minlength=nc)
                     + np.bincount(compact, weights=selfw, minlength=nc))
        keys = cu[~intra] * nc + cv[~intra]
        uk, inv = np.unique(keys, return_inverse=True)
        w_new = np.bincount(inv, weights=weights[~intra])
        rows_new = uk // nc
        indices_new = np.ascontiguousarray(uk % nc)
        counts = np.bincount(rows_new, minlength=nc)
        indptr = np.zeros(nc + 1, np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices, weights, selfw = indices_new, w_new, new_selfw
    comm = _local_moving(*level0, two_m, float(resolution), rng, mapping)
    mapping = np.unique(comm, return_inverse=True)[1]
    q = symmetric_modularity(graph, mapping, resolution)
    return mapping, q


def detected_sizes(labels: np.ndarray) -> np.ndarray:
    return np.bincount(labels, minlength=int(labels.max()) + 1)
