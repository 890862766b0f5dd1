"""Partition-quality metrics and a modularity-maximizing community detector."""

from __future__ import annotations

import numpy as np

from ..graph import LabeledGraph, _read_only, _row_edges
from .distances import MetricError

_MOVE_FRACTION = 0.5  # share of a round's improving moves that is applied
_GAIN_TOL = 1e-12
# Most undirected adjacency entries (see ``_entries``) in one Louvain union
# of several graphs.  A round costs about 0.2 ms of numpy call overhead
# whatever its size, and a union pays it once for all its graphs.  On a
# 2-core Xeon, at three resolutions each, one run took this share of the
# time of the graphs' separate runs (median of 6): 0.46 for 5 generated
# near-DAGs of 80 nodes (9.3k entries), 0.38 for 15 of them (27k), 0.88
# for two of 400 nodes (20k) and 0.97 for two of 1k nodes (52k).
UNION_ENTRIES = 1 << 15


def _labels(graph: LabeledGraph) -> np.ndarray:
    if graph.labels is None:
        raise MetricError("every node needs a community label")
    return graph.labels


def _labels_and_count(graph: LabeledGraph):
    """The graph's labels and the number of communities they name."""
    labels = _labels(graph)
    if labels.size == 0:
        raise MetricError("empty graph")
    return labels, int(labels.max()) + 1


def modularity(graph: LabeledGraph) -> float:
    """Directed Newman modularity of a labelled partition.

    Q = (intra edges)/m - sum_c (outdeg_c * indeg_c) / m^2.
    """
    labels = _labels(graph)
    m = graph.num_edges
    if m == 0:
        return 0.0
    intra = int((labels[graph.src] == labels[graph.dst]).sum())
    k = int(labels.max()) + 1
    dout_c = np.bincount(labels[graph.src], minlength=k).astype(np.float64)
    din_c = np.bincount(labels[graph.dst], minlength=k).astype(np.float64)
    return intra / m - float(np.sum(dout_c * din_c)) / (m * m)


def conductance(graph: LabeledGraph) -> float:
    """Mean over communities of cut / min(volume inside, volume outside).

    Volumes count both edge endpoints; a community without incident edges
    contributes zero.
    """
    labels, k = _labels_and_count(graph)
    cut = np.zeros(k, np.float64)
    crossing = labels[graph.src] != labels[graph.dst]
    np.add.at(cut, labels[graph.src[crossing]], 1.0)
    np.add.at(cut, labels[graph.dst[crossing]], 1.0)
    vol = np.bincount(labels, weights=(graph.d_in + graph.d_out).astype(np.float64),
                      minlength=k)
    denom = np.minimum(vol, vol.sum() - vol)
    phi = np.divide(cut, denom, out=np.zeros(k, np.float64), where=denom > 0)
    return float(phi.mean())


def density_pair(graph: LabeledGraph):
    """(intra, inter) edge densities of the label partition.

    Intra pools edges inside communities over the intra pair count;
    inter pools the rest.  A single community leaves no inter pairs.
    """
    labels, k = _labels_and_count(graph)
    n = graph.num_nodes
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


def participation(graph: LabeledGraph, direction: str = "in") -> np.ndarray:
    """Per-node participation 1 - sum_c (d_c/d)^2 over edge peers' communities.

    ``direction`` picks which edges count: "in" looks at the communities
    citing the node, "out" at the communities it cites.  Nodes without
    such edges get 0.
    """
    labels, k = _labels_and_count(graph)
    n = graph.num_nodes
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
    labels = np.asarray(labels, np.int64)
    if labels.shape[0] != graph.num_nodes:
        raise MetricError("every node needs a community label")
    if graph.num_edges == 0:
        return 0.0
    two_m = 2.0 * graph.num_edges
    same = labels[graph.src] == labels[graph.dst]
    intra = 2.0 * int(same.sum())
    kdeg = (graph.d_in + graph.d_out).astype(np.float64)
    k = int(labels.max()) + 1
    s = np.bincount(labels, weights=kdeg, minlength=k)
    return intra / two_m - resolution * float(np.sum((s / two_m) ** 2))


def _batch_gain(indptr, indices, weights, kdeg, comm, comm_s, mv, new, scale,
                copy):
    """Objective gain of moving all of ``mv`` to ``new`` at once, per copy,
    in the units of a lone move's gain over staying.

    ``copy`` is each node's copy and ``scale`` each copy's
    ``resolution / two_m``; a community's copy is that of its movers.
    """
    eids, lens = _row_edges(indptr, mv)
    x = indices[eids]
    after = comm.copy()
    after[mv] = new
    # half the change in intra weight: an edge between two movers is listed
    # in both their rows, any other edge in one
    share = np.where(after[x] != comm[x], 0.5, 1.0) * weights[eids]
    now = np.repeat(new, lens) == after[x]
    was = np.repeat(comm[mv], lens) == comm[x]
    d_intra = np.bincount(np.repeat(copy[mv], lens),
                          weights=share * (now.astype(np.float64) - was),
                          minlength=scale.size)
    dsum = (np.bincount(new, weights=kdeg[mv], minlength=comm.size)
            - np.bincount(comm[mv], weights=kdeg[mv], minlength=comm.size))
    ccopy = np.zeros(comm.size, np.int64)
    ccopy[comm[mv]] = ccopy[new] = copy[mv]
    d_null = np.bincount(ccopy, weights=dsum * (2.0 * comm_s + dsum),
                         minlength=scale.size)
    return d_intra - 0.5 * scale * d_null


def _conflict_free(indptr, indices, mv, src, dst, gain):
    """Which movers to keep so that the kept gains add exactly.

    A mover of ``mv`` (from community ``src`` to ``dst`` for ``gain``) is
    kept if it outranks, by gain and then node id, every mover that shares
    its source or target community and every neighbouring mover.  Kept
    movers share no edge and no community, and the top one is always kept.
    """
    n = indptr.size - 1
    rank = np.empty(mv.size, np.int64)
    rank[np.lexsort((mv, -gain))] = np.arange(mv.size)
    top = np.full(n, mv.size)
    np.minimum.at(top, np.concatenate((src, dst)),
                  np.concatenate((rank, rank)))
    node_rank = np.full(n, mv.size)
    node_rank[mv] = rank
    eids, lens = _row_edges(indptr, mv)
    nbr = np.minimum.reduceat(node_rank[indices[eids]], np.cumsum(lens) - lens)
    return (top[src] == rank) & (top[dst] == rank) & (nbr > rank)


def _group(keys, weights, shift):
    """The distinct ``keys`` in ascending order and the sum of the
    ``weights`` under each: whole numbers below ``2**shift``, so every
    summation order gives the same sums.

    One value sort of the keys with their weights packed below them,
    ``keys << shift | weights``, orders the keys and keeps each weight with
    its key; where that could overflow int64, an argsort of the keys does
    the same.
    """
    if keys.size == 0:
        return keys, weights
    if int(keys.max()) < 1 << (63 - shift):
        packed = np.sort((keys << shift) | weights)
        keys, weights = packed >> shift, packed & ((1 << shift) - 1)
    else:
        order = np.argsort(keys)
        keys, weights = keys[order], weights[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[starts], np.add.reduceat(weights, starts)


def _local_moving(indptr, indices, weights, kdeg, scale, copy, rngs,
                  comm=None):
    """Synchronous local moving from ``comm`` (default: singletons);
    returns each node's community.

    Node ``v`` belongs to copy ``copy[v]``, whose objective is weighed by
    ``scale[copy[v]]`` and whose random draws come from ``rngs[copy[v]]``;
    communities never span copies, and copies occupy ascending ranges of
    node ids.  Each round, every active node picks its best neighbouring
    community: ``_group`` sums the node's entry ``weights`` (whole numbers)
    by the key ``node << bits | community`` of ``bits``-bit node ids, so
    one value sort lists every node's neighbouring communities in
    ascending label order.  In each copy, a random half of the improving
    moves is applied if together they gain, else its conflict-free movers,
    so every copy's objective rises each round it moves.
    """
    n = kdeg.size
    shift = int(weights.max(initial=0)).bit_length()
    bits = (n - 1).bit_length()
    comm = np.arange(n, dtype=np.int64) if comm is None else comm.copy()
    node_scale = scale[copy]
    active = np.flatnonzero(indptr[1:] > indptr[:-1])
    while active.size:
        comm_s = np.bincount(comm, weights=kdeg, minlength=n)
        eids, lens = _row_edges(indptr, active)
        pair, w = _group((np.repeat(active, lens) << bits)
                         | comm[indices[eids]], weights[eids], shift)
        v, c = pair >> bits, pair & ((1 << bits) - 1)
        own = c == comm[v]
        gain = w - node_scale[v] * kdeg[v] * (comm_s[c] - own * kdeg[v])
        first = np.concatenate(([True], v[1:] != v[:-1]))
        starts, grp = np.flatnonzero(first), np.cumsum(first) - 1
        nodes, src = v[starts], comm[v[starts]]
        # staying means rejoining the own community with the node taken out
        stay = -node_scale[nodes] * kdeg[nodes] * (comm_s[src] - kdeg[nodes])
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
        mover_copy = copy[nodes[movers]]
        # movers ascend by node id, so by copy; a copy without movers draws
        # nothing, as a run on that copy alone would have stopped
        go = np.concatenate([
            rngs[r].random(k) for r, k in enumerate(
                np.bincount(mover_copy, minlength=scale.size)) if k
        ]) < _MOVE_FRACTION
        ok = np.bincount(mover_copy[go], minlength=scale.size) >= 2
        if ok.any():
            ok &= _batch_gain(indptr, indices, weights, kdeg, comm, comm_s,
                              nodes[movers[go]], target[movers[go]], scale,
                              copy) > _GAIN_TOL
        redo = ~ok[mover_copy]
        if redo.any():
            m = movers[redo]
            go[redo] = _conflict_free(indptr, indices, nodes[m], src[m],
                                      target[m], (best - stay)[m])
        mv = nodes[movers[go]]
        comm[mv] = target[movers[go]]
        # next: the movers' neighbours and the moves held back
        nxt = np.zeros(n, bool)
        nxt[indices[_row_edges(indptr, mv)[0]]] = True
        nxt[nodes[movers[~go]]] = True
        active = np.flatnonzero(nxt)
    return comm


def _union(csrs):
    """CSR of the disjoint union of the graphs ``csrs``, in order: node ``i``
    of graph ``r`` is ``i`` plus the node counts of the graphs before it."""
    nodes = np.cumsum([0] + [indptr.size - 1 for indptr, _, _ in csrs])
    entries = np.cumsum([0] + [indices.size for _, indices, _ in csrs])
    return (np.concatenate([indptr[:-1] + e for (indptr, _, _), e
                            in zip(csrs, entries)] + [entries[-1:]]),
            np.concatenate([indices + v for (_, indices, _), v
                            in zip(csrs, nodes)]),
            np.concatenate([weights for _, _, weights in csrs]))


def _louvain(copies, seed):
    """One (labels, modularity) per (graph, resolution) of ``copies``, from
    one Louvain run on the disjoint union of their symmetrized graphs:
    seeded local moving and aggregation repeat until no move gains, then a
    last local moving on the input graphs lets nodes leave a community
    merged at a coarse level.  Labels are dense and read-only.

    Every level's weights are whole numbers, held as int64: 1 or 2 per
    entry of a symmetrized graph, then sums of those, which ``_group``
    forms exactly in any order when it merges the entries between two
    communities."""
    rngs = [np.random.default_rng(seed) for _ in copies]
    sizes = [graph.num_nodes for graph, _ in copies]
    scale = np.array([resolution / graph.undirected_csr[2].sum()
                      for graph, resolution in copies])
    indptr, indices, weights = _union([graph.undirected_csr
                                       for graph, _ in copies])
    weights = weights.astype(np.int64)
    copy = np.repeat(np.arange(len(copies)), sizes)
    mapping = np.arange(copy.size, dtype=np.int64)
    selfw = np.zeros(copy.size, np.float64)
    level0 = None
    while True:
        n_cur = indptr.size - 1
        rows = np.repeat(np.arange(n_cur), np.diff(indptr))
        kdeg = np.bincount(rows, weights=weights, minlength=n_cur) + selfw
        if level0 is None:
            level0 = indptr, indices, weights, kdeg, scale, copy
        comm = _local_moving(indptr, indices, weights, kdeg, scale, copy, rngs)
        uniq, compact = np.unique(comm, return_inverse=True)
        mapping = compact[mapping]
        if uniq.size == n_cur:
            break
        # a community's label is a node of its copy at this level
        copy = copy[uniq]
        nc = uniq.size
        cu = compact[rows]
        cv = compact[indices]
        intra = cu == cv
        new_selfw = (np.bincount(cu[intra], weights=weights[intra], minlength=nc)
                     + np.bincount(compact, weights=selfw, minlength=nc))
        uk, w_new = _group(cu[~intra] * nc + cv[~intra], weights[~intra],
                           int(weights.max(initial=0)).bit_length())
        rows_new = uk // nc
        indices_new = np.ascontiguousarray(uk % nc)
        counts = np.bincount(rows_new, minlength=nc)
        indptr = np.zeros(nc + 1, np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices, weights, selfw = indices_new, w_new, new_selfw
    comm = _local_moving(*level0, rngs, mapping)
    out = []
    for (graph, resolution), part in zip(
            copies, np.split(comm, np.cumsum(sizes)[:-1])):
        labels = np.unique(part, return_inverse=True)[1]
        labels.setflags(write=False)
        out.append((labels, symmetric_modularity(graph, labels, resolution)))
    return out


def _entries(graph: LabeledGraph, copies: int) -> int:
    """Undirected adjacency entries of ``copies`` copies of ``graph`` in a
    union, counted as two per edge: a reciprocal pair counts four."""
    return 2 * graph.num_edges * copies


def union_capacity(graph: LabeledGraph, resolutions) -> int:
    """How many graphs of ``graph``'s size ``detect_batch`` runs in one
    union at ``resolutions``; at least one."""
    return max(1, UNION_ENTRIES // max(1, _entries(graph, len(resolutions))))


def detect_batch(graphs, resolutions, seed=0) -> list:
    """Label-blind greedy modularity maximization (Louvain scheme) of each
    of ``graphs`` at each of ``resolutions``: per graph, one (labels,
    modularity) per resolution, or the MetricError of a graph without
    nodes.

    Consecutive graphs share one Louvain run on the disjoint union of
    their copies, one per graph and resolution, while the union's
    undirected adjacency entries stay within ``UNION_ENTRIES``; a larger
    graph runs alone.  Each copy is weighed by its own graph's edge total
    and draws from its own generator seeded with ``seed``, so each copy's
    result is that of its graph at its resolution alone, whatever its
    batch-mates.  An edgeless graph gets singletons and modularity 0.
    Nothing is kept on the graphs: a repeated call runs again.
    """
    wanted = [float(r) for r in resolutions]
    todo = list(dict.fromkeys(wanted))
    found = {}
    unions, entries = [[]], 0
    for graph in graphs:
        if graph.num_nodes == 0 or id(graph) in found:
            continue
        runs = found[id(graph)] = {}
        if graph.num_edges == 0:
            runs.update((r, (_read_only(np.arange(
                graph.num_nodes, dtype=np.int64))[0], 0.0)) for r in todo)
            continue
        cost = _entries(graph, len(todo))
        if unions[-1] and entries + cost > UNION_ENTRIES:
            unions.append([])
            entries = 0
        unions[-1] += [(graph, r) for r in todo]
        entries += cost
    for copies in filter(None, unions):
        for (graph, r), result in zip(copies, _louvain(copies, seed)):
            found[id(graph)][r] = result
    return [[found[id(g)][r] for r in wanted] if g.num_nodes
            else MetricError("empty graph") for g in graphs]


def detect_communities(graph: LabeledGraph, resolution: float = 1.0,
                       seed=0):
    """``detect_batch`` of the one graph at the one ``resolution``:
    (labels, achieved modularity at this resolution), or the run that
    ``battery.exogenous_metrics`` holds for this seed object."""
    held = graph.detections.get((id(seed), resolution))
    if held is not None:
        return held
    found = detect_batch([graph], (resolution,), seed)[0]
    if isinstance(found, MetricError):
        raise found
    return found[0]


def detected_sizes(labels: np.ndarray) -> np.ndarray:
    return np.bincount(labels, minlength=int(labels.max()) + 1)
