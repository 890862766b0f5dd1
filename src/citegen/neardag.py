"""Back-edge machinery: orderings, ratio estimation, injection, cycle breaking.

Node rank encodes age (rank 0 = oldest).  Forward flow is newer cites
older, so an edge u -> v with rank(u) < rank(v) is a back-edge: an older
node citing a newer one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .graph import LabeledGraph, _place_edges, _sorted_unique

log = logging.getLogger(__name__)

STRATEGIES = ("timestamps", "degree-diff", "eades")

BACK_EDGE_GAP_P = 1.0 - math.exp(-0.1)
INTRA_COMMUNITY_P = 0.8


class NearDagError(ValueError):
    pass


@dataclass(frozen=True)
class NodeOrdering:
    """Bijective age ranking of nodes; rank 0 marks the oldest node."""

    rank: np.ndarray
    strategy: str


@dataclass(frozen=True)
class CycleBreakReport:
    strategy: str
    collapsed_edges: int
    reversed_edges: int
    back_edge_ratio: float


def order_nodes(graph: LabeledGraph, strategy: str) -> NodeOrdering:
    """Heuristic age ordering of the nodes.

    degree-diff sorts by out-degree minus in-degree, descending with ties
    on ascending node id; prolific citers land at the newest ranks.  eades
    runs the greedy sink/source peeling heuristic, which leaves at most
    half the edges violating the result.  timestamps sorts the graph's
    timestamps ascending, with ties on ascending node id.
    """
    n = graph.num_nodes
    if strategy == "timestamps":
        if graph.timestamps is None:
            raise NearDagError("timestamps strategy needs node timestamps")
        order = np.lexsort((np.arange(n), graph.timestamps))
        rank = np.empty(n, np.int64)
        rank[order] = np.arange(n)
        return NodeOrdering(rank=rank, strategy=strategy)
    if strategy == "degree-diff":
        score = graph.d_out - graph.d_in
        newest_first = np.lexsort((np.arange(n), -score))
        rank = np.empty(n, np.int64)
        rank[newest_first] = np.arange(n - 1, -1, -1)
        return NodeOrdering(rank=rank, strategy=strategy)
    if strategy == "eades":
        seq = _eades_sequence(graph)
        rank = np.empty(n, np.int64)
        rank[seq] = np.arange(n - 1, -1, -1)
        return NodeOrdering(rank=rank, strategy=strategy)
    raise NearDagError(f"unknown ordering strategy {strategy!r}")


def age_strategy(graph: LabeledGraph, heuristic: str = "degree-diff") -> str:
    """The ordering that ranks ``graph``'s nodes by age: ``timestamps``
    when the graph has them, else the ``heuristic``."""
    return "timestamps" if graph.timestamps is not None else heuristic


def _eades_sequence(graph: LabeledGraph) -> np.ndarray:
    """Greedy sequence with sources at the front, sinks at the back.

    Repeatedly peel current sinks to the back and sources to the front;
    when neither exists, move the node maximizing out-degree minus
    in-degree to the front.  Bucketed score lists keep it O(N + E).  The
    peeling is sequential and reads one element at a time, so it runs on
    Python lists: indexing them is several times faster than numpy scalars.
    """
    n = graph.num_nodes
    out_ptr, out_idx = graph.out_csr
    in_ptr, in_idx = graph.in_csr
    dout = np.diff(out_ptr).tolist()
    din = np.diff(in_ptr).tolist()
    out_ptr, out_idx = out_ptr.tolist(), out_idx.tolist()
    in_ptr, in_idx = in_ptr.tolist(), in_idx.tolist()
    alive = [True] * n
    front: list = []
    back: list = []
    sinks = [v for v in range(n) if dout[v] == 0]
    sources = [v for v in range(n) if dout[v] > 0 and din[v] == 0]
    # stale bucket entries are tolerated; pops validate score and liveness
    buckets: dict = {}
    for v in range(n):
        if dout[v] > 0 and din[v] > 0:
            buckets.setdefault(dout[v] - din[v], []).append(v)

    def remove(v):
        alive[v] = False
        for w in out_idx[out_ptr[v]:out_ptr[v + 1]]:
            if alive[w]:
                d = din[w] - 1
                din[w] = d
                if dout[w] > 0:
                    if d == 0:
                        sources.append(w)
                    else:
                        buckets.setdefault(dout[w] - d, []).append(w)
        for w in in_idx[in_ptr[v]:in_ptr[v + 1]]:
            if alive[w]:
                d = dout[w] - 1
                dout[w] = d
                if d == 0:
                    sinks.append(w)
                else:
                    buckets.setdefault(d - din[w], []).append(w)

    processed = 0
    while processed < n:
        moved = False
        while sinks:
            v = sinks.pop()
            if alive[v] and dout[v] == 0:
                back.append(v)
                remove(v)
                processed += 1
                moved = True
        while sources:
            v = sources.pop()
            if alive[v] and din[v] == 0 and dout[v] > 0:
                front.append(v)
                remove(v)
                processed += 1
                moved = True
        if moved or processed >= n:
            continue
        best = None
        while best is None:
            smax = max(buckets)
            lst = buckets[smax]
            while lst:
                v = lst.pop()
                if alive[v] and dout[v] > 0 and din[v] > 0 \
                        and dout[v] - din[v] == smax:
                    best = v
                    break
            if not lst:
                del buckets[smax]
        front.append(best)
        remove(best)
        processed += 1
    return np.array(front + back[::-1], np.int64)


def back_edge_ratio(graph: LabeledGraph, ordering: NodeOrdering) -> float:
    """Fraction of edges pointing from an older node to a newer one."""
    if ordering.rank.shape[0] != graph.num_nodes:
        raise NearDagError("ordering must cover every node")
    if graph.num_edges == 0:
        return 0.0
    violations = int((ordering.rank[graph.src] < ordering.rank[graph.dst]).sum())
    r = violations / graph.num_edges
    if r == 1.0:
        log.warning("every edge violates the ordering; "
                    "the orientation convention may be inverted")
    return r


def back_edge_count(n_edges: int, r: float) -> int:
    """Edges to add so the final back-edge fraction equals r."""
    if not 0.0 <= r < 1.0:
        raise NearDagError("back-edge ratio must lie in [0, 1)")
    return int(math.floor(r * n_edges / (1.0 - r)))


def inject_back_edges(dag: LabeledGraph, r: float, seed) -> LabeledGraph:
    """Add back-edges (older cites newer) until their fraction equals r.

    A back-edge u -> v takes its newer endpoint v uniformly and its older
    one at a geometric creation-rank gap, u = v - g.  When labels exist,
    each slot asks with probability 0.8 for an intra-community pair, with
    v among the nodes that have an older member of their community.  The
    intra-community slots are placed first, then the unconstrained ones
    together with any intra-community shortfall; both passes reject
    candidates by rounds with :func:`graph._place_edges`.  Added edges
    always run from a smaller node id to a larger one, so stripping them
    recovers the input DAG.
    """
    n_back = back_edge_count(dag.num_edges, r)
    if n_back == 0:
        return dag
    n = dag.num_nodes
    labels = dag.labels
    rng = np.random.default_rng(seed)
    # added edges run from a smaller id to a larger one, so only existing
    # edges of that direction can collide with them
    fwd = dag.src < dag.dst
    taken = np.sort(dag.src[fwd] * n + dag.dst[fwd])
    eligible = np.empty(0, np.int64)
    if labels is not None:
        first_seen = np.full(labels.max() + 1, n, np.int64)
        np.minimum.at(first_seen, labels, np.arange(n))
        eligible = np.flatnonzero(np.arange(n) > first_seen[labels])

    def draw(need, intra=False):
        v = (eligible[rng.integers(0, eligible.size, need)] if intra
             else rng.integers(0, n, need))
        u = v - rng.geometric(BACK_EDGE_GAP_P, need)
        ok = u >= 0
        # u may lie below -n, so labels are read only where u is a node
        if intra:
            ok[ok] = labels[u[ok]] == labels[v[ok]]
        return u[ok] * n + v[ok]

    n_intra = rng.binomial(n_back, INTRA_COMMUNITY_P if eligible.size else 0.0)
    same = _place_edges(n_intra, lambda need: draw(need, True), taken)
    rest = _place_edges(n_back - same.size, draw,
                        np.sort(np.concatenate([taken, same])))
    keys = np.concatenate([same, rest])
    if keys.size < n_back:
        log.warning("injected %d of %d requested back-edges "
                    "(candidate space exhausted)", keys.size, n_back)
    return replace(dag, src=np.concatenate([dag.src, keys // n]),
                   dst=np.concatenate([dag.dst, keys % n]))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def cycle_break(graph: LabeledGraph, r: float, seed, strategy: str):
    """Order, reorient to a DAG, then re-reverse a fraction r of edges.

    Step 2 points every edge from the later-ranked node to the
    earlier-ranked one; a pair linked in both directions collapses to one
    edge (counted in the report).  Step 3 reverses a uniform random subset
    of round(r * |E|) edges; as all edges then point the same way in the
    ordering, no reversal duplicates an edge.  Returns (graph, report).
    """
    if not 0.0 <= r < 1.0:
        raise NearDagError("back-edge ratio must lie in [0, 1)")
    ordering = order_nodes(graph, strategy)
    rank = ordering.rank
    n = graph.num_nodes
    lo = np.where(rank[graph.src] > rank[graph.dst], graph.dst, graph.src)
    hi = np.where(rank[graph.src] > rank[graph.dst], graph.src, graph.dst)
    keys = _sorted_unique(hi * n + lo)
    collapsed = graph.num_edges - keys.size
    src = keys // n
    dst = keys % n
    n_edges = src.size
    # r < 1, so n_rev <= n_edges
    n_rev = _round_half_up(r * n_edges)
    chosen = np.random.default_rng(seed).choice(n_edges, n_rev, replace=False)
    src[chosen], dst[chosen] = dst[chosen], src[chosen]
    out = replace(graph, src=src, dst=dst)
    report = CycleBreakReport(
        strategy=strategy, collapsed_edges=int(collapsed),
        reversed_edges=n_rev,
        back_edge_ratio=0.0 if n_edges == 0 else n_rev / n_edges,
    )
    return out, report
