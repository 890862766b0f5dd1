"""Directed-graph container, file ingestion, degrees, and subsampling."""

from __future__ import annotations

import io
import logging
import os
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice, repeat
from typing import IO, Optional, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

log = logging.getLogger(__name__)

PathOrStream = Union[str, os.PathLike, "io.TextIOBase", IO[str]]


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class LabeledGraph:
    """Immutable directed graph; node ids are dense and equal creation rank.

    ``labels`` holds dense 0-based community ids (external files may use any
    token; ``community_names`` keeps the originals).  ``timestamps`` is an
    optional per-node integer epoch.  Both are the only source of a graph's
    communities and ages: the functions that read them take no override.
    Self-loops and duplicate edges are invalid here; loaders drop them
    before construction.
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    labels: Optional[np.ndarray] = None
    timestamps: Optional[np.ndarray] = None
    names: Optional[tuple] = None
    community_names: Optional[tuple] = None

    def __post_init__(self):
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        if src.shape != dst.shape:
            raise GraphError("src/dst length mismatch")
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= self.num_nodes:
                raise GraphError("edge endpoint outside [0, num_nodes)")
            if (src == dst).any():
                raise GraphError("self-loop in edge list")
            # a sort, not np.unique: numpy's hash-based unique is slower
            # here, and super-linear in the edge count
            keys = np.sort(src * self.num_nodes + dst)
            if (keys[1:] == keys[:-1]).any():
                raise GraphError("duplicate edge in edge list")
        if self.labels is not None:
            lab = np.ascontiguousarray(self.labels, dtype=np.int64)
            if lab.shape[0] != self.num_nodes:
                raise GraphError("labels length mismatch")
            if lab.size and lab.min() < 0:
                raise GraphError("labels must be nonnegative")
            object.__setattr__(self, "labels", lab)
        if self.timestamps is not None:
            ts = np.ascontiguousarray(self.timestamps, dtype=np.int64)
            if ts.shape[0] != self.num_nodes:
                raise GraphError("timestamps length mismatch")
            object.__setattr__(self, "timestamps", ts)
        for a in (self.src, self.dst, self.labels, self.timestamps):
            if a is not None:
                a.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    # Views the metric battery reads several times per graph, built once on
    # first use and kept read-only for the graph's life.  The adjacency is
    # the one structure built from the edges; the CSR views come from the
    # module functions of the same names, which read it.

    @cached_property
    def d_in(self) -> np.ndarray:
        return _read_only(np.bincount(self.dst, minlength=self.num_nodes))[0]

    @cached_property
    def d_out(self) -> np.ndarray:
        return _read_only(np.bincount(self.src, minlength=self.num_nodes))[0]

    @cached_property
    def out_csr(self):
        return _read_only(*out_csr(self))

    @cached_property
    def in_csr(self):
        return _read_only(*in_csr(self))

    @cached_property
    def undirected_csr(self):
        return _read_only(*undirected_csr(self))

    @cached_property
    def adjacency(self) -> csr_matrix:
        """Adjacency matrix A (A[u, v] = 1.0 for the edge u -> v) as scipy
        CSR in canonical form: per-row sorted indices, no duplicates."""
        n = self.num_nodes
        adj = csr_matrix((np.ones(self.num_edges), (self.src, self.dst)),
                         shape=(n, n))
        _read_only(adj.data, adj.indices, adj.indptr)
        return adj

    @cached_property
    def detections(self) -> dict:
        """Runs that one ``metrics.battery.exogenous_metrics`` call holds
        for its per-resolution ``detect_communities`` reads; empty once
        that call returns."""
        return {}

    @cached_property
    def profiles(self) -> dict:
        """The read-only values of this graph's latest battery profile,
        keyed by its MetricConfig, kept and read by
        ``metrics.battery.profiles``."""
        return {}


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _label_groups(labels: np.ndarray, k: int):
    """``(order, bounds)``: node ids grouped by label, ascending within a
    group (a stable argsort), and the k + 1 group bounds; the members of
    group c are ``order[bounds[c]:bounds[c + 1]]``."""
    order = np.argsort(labels, kind="stable")
    return order, np.searchsorted(labels[order], np.arange(k + 1))


@dataclass
class LoadReport:
    lines: int = 0
    duplicate_edges: int = 0
    self_loops: int = 0


def _open(stream: PathOrStream, mode: str):
    """``(file, close it after use)``: a path opened in ``mode``, or the
    stream itself."""
    if isinstance(stream, (str, os.PathLike)):
        return open(stream, mode, encoding="utf-8"), True
    return stream, False


# Lines per block of edge-list and node-column I/O: enough to amortise the
# per-block numpy work, few enough that no whole-file string or token list
# is ever built.
_BLOCK = 8192


def _tsv_blocks(stream: PathOrStream, what: str, has_header: bool,
                known: Optional[dict] = None):
    """Yield the fields of a two-column TSV file, one block of lines at a time.

    Each block is a flat list ``[first, second, first, second, ...]`` of the
    fields of its non-blank lines, with trailing ``\\n`` then ``\\r``
    stripped.  A line holds exactly one tab and a nonempty first field.  In
    an edge list (``known`` is None) the second field is nonempty too; in a
    node column it may be empty, and the first field must be a key of
    ``known``.  The first bad line raises GraphError with its line number.
    """
    fh, close = _open(stream, "r")
    try:
        lines = iter(fh)
        lineno = 1
        if has_header:
            next(lines, None)
            lineno = 2
        while True:
            block = list(islice(lines, _BLOCK))
            if not block:
                return
            body = list(filter(None, map(str.rstrip, map(
                str.rstrip, block, repeat("\n")), repeat("\r"))))
            tokens = _split_pairs(body, known)
            if tokens is None:
                _raise_bad_line(block, lineno, what, known)
            lineno += len(block)
            yield tokens
    finally:
        if close:
            fh.close()


def _split_pairs(lines: list, known: Optional[dict]) -> Optional[list]:
    """The fields of ``lines`` flattened as in :func:`_tsv_blocks`, or None
    when one of them breaks its rules."""
    if not lines:
        return []
    tokens = "\t".join(lines).split("\t")
    if len(tokens) != 2 * len(lines):
        return None
    size = np.fromiter(map(len, tokens), np.int64, len(tokens))
    first, second = size[0::2], size[1::2]
    # with the total right, every line holds exactly one tab only when each
    # pair of fields spans its whole line
    if not (first + second + 1
            == np.fromiter(map(len, lines), np.int64, len(lines))).all():
        return None
    if not first.all():
        return None
    if known is None:
        return tokens if second.all() else None
    return tokens if all(map(known.__contains__, tokens[0::2])) else None


def _raise_bad_line(block: list, lineno: int, what: str,
                    known: Optional[dict]):
    """Raise GraphError for the first line of ``block`` (starting at line
    ``lineno``) that breaks the rules of :func:`_tsv_blocks`."""
    for lineno, raw in enumerate(block, start=lineno):
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or (known is None and not parts[1]):
            raise GraphError(f"malformed {what} line {lineno}: {raw!r}")
        if known is not None and parts[0] not in known:
            raise GraphError(
                f"{what} line {lineno} references unknown node {parts[0]!r}")
    raise AssertionError("no bad line in a block that failed its checks")


def load_edge_list(stream: PathOrStream, has_header: bool = False):
    """Parse ``src<TAB>dst`` lines into a graph.

    Node identifiers are interned to dense 0-based ids in first-appearance
    order.  Returns ``(graph, report)`` where the report carries the dropped
    self-loop and duplicate counts.
    """
    ids: dict = {}
    codes = [np.zeros(0, np.int64)]
    for tokens in _tsv_blocks(stream, "edge", has_header):
        new = [t for t in dict.fromkeys(tokens) if t not in ids]
        ids.update(zip(new, range(len(ids), len(ids) + len(new))))
        codes.append(np.fromiter(map(ids.__getitem__, tokens), np.int64,
                                 len(tokens)))
    codes = np.concatenate(codes)
    src, dst = codes[0::2], codes[1::2]
    report = LoadReport(lines=int(src.size))
    loop = src == dst
    report.self_loops = int(loop.sum())
    src, dst = src[~loop], dst[~loop]
    # a stable sort puts each edge's first line ahead of its repeats
    keys = src * len(ids) + dst
    order = np.argsort(keys, kind="stable")
    repeat = keys[order[1:]] == keys[order[:-1]]
    keep = np.ones(keys.size, bool)
    keep[order[1:][repeat]] = False
    report.duplicate_edges = int(repeat.sum())
    if report.self_loops or report.duplicate_edges:
        log.warning(
            "dropped %d self-loops and %d duplicate edges on load",
            report.self_loops, report.duplicate_edges,
        )
    graph = LabeledGraph(num_nodes=len(ids), src=src[keep], dst=dst[keep],
                         names=tuple(ids))
    return graph, report


def _load_node_column(stream: PathOrStream, graph: LabeledGraph, what: str,
                      has_header: bool = False):
    if graph.names is None:
        name_to_id = {str(i): i for i in range(graph.num_nodes)}
    else:
        name_to_id = {name: i for i, name in enumerate(graph.names)}
    out: dict = {}
    for tokens in _tsv_blocks(stream, what, has_header, known=name_to_id):
        out.update(zip(map(name_to_id.__getitem__, tokens[0::2]),
                       tokens[1::2]))
    return out


def load_labels(stream: PathOrStream, graph: LabeledGraph,
                has_header: bool = False):
    """Read ``node<TAB>community`` lines keyed against ``graph``'s node names.

    Returns ``(node_id -> dense community id, community_names)`` covering a
    subset of nodes; apply :func:`prune_unlabeled` to attach them.
    """
    raw = _load_node_column(stream, graph, "label", has_header)
    communities: dict = {}
    mapping = {}
    for node, token in raw.items():
        mapping[node] = communities.setdefault(token, len(communities))
    return mapping, tuple(communities)


def load_timestamps(stream: PathOrStream, graph: LabeledGraph,
                    has_header: bool = False):
    raw = _load_node_column(stream, graph, "timestamp", has_header)
    out = {}
    for node, token in raw.items():
        try:
            out[node] = int(token)
        except ValueError:
            raise GraphError(f"non-integer timestamp for node {node}: {token!r}")
    return out


def prune_unlabeled(graph: LabeledGraph, label_map: dict,
                    community_names: Optional[tuple] = None) -> LabeledGraph:
    """Drop nodes without labels (and their edges); attach remaining labels."""
    keep = np.zeros(graph.num_nodes, bool)
    for node in label_map:
        keep[node] = True
    if keep.all():
        labels = np.array([label_map[i] for i in range(graph.num_nodes)], np.int64)
        return replace(graph, labels=labels, community_names=community_names)
    return induced_subgraph(graph, np.flatnonzero(keep),
                            label_map=label_map,
                            community_names=community_names)


def induced_subgraph(graph: LabeledGraph, nodes: np.ndarray,
                     label_map: Optional[dict] = None,
                     community_names: Optional[tuple] = None) -> LabeledGraph:
    """Induced subgraph on ``nodes`` (sorted ascending to keep creation order)."""
    nodes = np.unique(np.asarray(nodes, np.int64))
    remap = np.full(graph.num_nodes, -1, np.int64)
    remap[nodes] = np.arange(nodes.size)
    mask = (remap[graph.src] >= 0) & (remap[graph.dst] >= 0)
    if label_map is not None:
        labels = np.array([label_map[int(v)] for v in nodes], np.int64)
    elif graph.labels is not None:
        labels = graph.labels[nodes]
    else:
        labels = None
    return LabeledGraph(
        num_nodes=int(nodes.size),
        src=remap[graph.src[mask]],
        dst=remap[graph.dst[mask]],
        labels=labels,
        timestamps=None if graph.timestamps is None else graph.timestamps[nodes],
        names=None if graph.names is None else tuple(graph.names[int(v)] for v in nodes),
        community_names=community_names if community_names is not None
        else graph.community_names,
    )


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by a sort and a neighbour compare.

    numpy's hash-based ``np.unique`` is many times slower on edge keys.
    """
    keys = np.sort(keys)
    if not keys.size:
        return keys
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _place_edges(count: int, draw, taken: np.ndarray) -> np.ndarray:
    """Up to ``count`` distinct edge keys ``u * n + v`` drawn by rejection.

    ``draw(need)`` returns at most ``need`` valid i.i.d. candidate keys.
    Each of at most 200 rounds asks for one candidate per unfilled slot;
    keys in the sorted array ``taken`` and repeats are dropped and the
    first occurrences kept in draw order.  That is edge-by-edge rejection
    sampling run in rounds, so it has the same distribution.
    """
    keys = np.empty(0, np.int64)
    for _ in range(200):
        need = count - keys.size
        if need == 0:
            break
        cand = draw(need)
        if taken.size:
            pos = np.minimum(np.searchsorted(taken, cand), taken.size - 1)
            cand = cand[taken[pos] != cand]
        keys = np.concatenate([keys, cand])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    return keys


def _row_edges(indptr, rows):
    """Edge ids of ``rows`` in a CSR, row after row, and their row sizes."""
    lens = indptr[rows + 1] - indptr[rows]
    ends = np.cumsum(lens)
    eids = np.repeat(indptr[rows] - ends + lens, lens) + np.arange(ends[-1])
    return eids, lens


def _int64_csr(adj: csr_matrix):
    return adj.indptr.astype(np.int64), adj.indices.astype(np.int64)


def out_csr(graph: LabeledGraph):
    """Out-neighbour CSR ``(indptr, indices)``, per-row sorted, as int64."""
    return _int64_csr(graph.adjacency)


def in_csr(graph: LabeledGraph):
    """In-neighbour CSR ``(indptr, indices)``, per-row sorted, as int64."""
    return _int64_csr(graph.adjacency.T.tocsr())


def undirected_csr(graph: LabeledGraph):
    """Symmetrized adjacency W = A + A^T as sorted CSR, without diagonal.

    Returns ``(indptr, indices, weights)``; a weight is 2 for a reciprocal
    pair, else 1.
    """
    sym = graph.adjacency + graph.adjacency.T
    return (*_int64_csr(sym), sym.data)


def bfs_subsample(graph: LabeledGraph, max_nodes: int, seed) -> LabeledGraph:
    """Induced subgraph on the first ``max_nodes`` nodes reached by BFS.

    Traversal treats edges as undirected and starts from a uniformly random
    node, restarting from a random unvisited node whenever a component is
    exhausted.  Kept nodes are renumbered in ascending original id, so the
    creation-order convention survives subsampling.
    """
    if max_nodes < 1:
        raise GraphError("max_nodes must be >= 1")
    if graph.num_nodes <= max_nodes:
        return graph
    indptr, indices, _ = graph.undirected_csr
    rng = np.random.default_rng(seed)
    visited = bytearray(graph.num_nodes)
    # one list in discovery order is the result and, from ``head`` on, the
    # FIFO queue; the last row expanded may overshoot ``max_nodes``
    order: list = []
    for s in rng.permutation(graph.num_nodes):
        if len(order) >= max_nodes:
            break
        if visited[s]:
            continue
        visited[s] = 1
        head = len(order)
        order.append(int(s))
        while head < len(order) < max_nodes:
            v = order[head]
            head += 1
            for w in indices[indptr[v]:indptr[v + 1]].tolist():
                if not visited[w]:
                    visited[w] = 1
                    order.append(w)
    return induced_subgraph(graph, np.array(order[:max_nodes], np.int64))


def save_edge_list(graph: LabeledGraph, stream: PathOrStream, header: Optional[str] = None):
    fh, close = _open(stream, "w")
    try:
        if header:
            fh.write(header.rstrip("\n") + "\n")
        names = graph.names
        for lo in range(0, graph.num_edges, _BLOCK):
            hi = lo + _BLOCK
            cells = np.stack([graph.src[lo:hi], graph.dst[lo:hi]],
                             axis=1).ravel().tolist()
            if names is not None:
                cells = map(names.__getitem__, cells)
            fh.write(_tsv_rows(cells))
    finally:
        if close:
            fh.close()


def save_labels(graph: LabeledGraph, stream: PathOrStream):
    """Write ``node<TAB>community`` lines for every node with an edge.

    Isolated nodes are omitted (with a warning) because the paired
    edge-list file cannot carry them; keeping them here would make the
    file pair internally inconsistent on reload.
    """
    if graph.labels is None:
        raise GraphError("graph carries no labels")
    nodes = np.flatnonzero((graph.d_in + graph.d_out) > 0)
    skipped = int(graph.num_nodes - nodes.size)
    if skipped:
        log.warning("omitting %d isolated nodes from the labels file", skipped)
    names, cnames = graph.names, graph.community_names
    fh, close = _open(stream, "w")
    try:
        for lo in range(0, nodes.size, _BLOCK):
            v = nodes[lo:lo + _BLOCK]
            cells = np.stack([v, graph.labels[v]], axis=1).ravel().tolist()
            if names is not None:
                cells[0::2] = map(names.__getitem__, cells[0::2])
            if cnames is not None:
                cells[1::2] = map(cnames.__getitem__, cells[1::2])
            fh.write(_tsv_rows(cells))
    finally:
        if close:
            fh.close()


def _tsv_rows(cells) -> str:
    """``first<TAB>second`` lines from a flat ``[first, second, ...]``."""
    cells = tuple(cells)
    # one format of the whole block is several times faster than a format
    # per line; %s formats ints and names as str() does
    return "%s\t%s\n" * (len(cells) // 2) % cells


def is_acyclic(graph: LabeledGraph) -> bool:
    """True when the graph has no directed cycle.

    Self-loops are rejected at construction, so the graph is acyclic exactly
    when each strongly connected component is a single node.
    """
    n_comp, _ = connected_components(graph.adjacency, directed=True,
                                     connection="strong")
    return bool(n_comp == graph.num_nodes)
