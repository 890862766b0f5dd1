import io
from collections import deque

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from citegen.graph import (GraphError, LabeledGraph, LoadReport,
                           bfs_subsample, induced_subgraph, is_acyclic,
                           load_edge_list, load_labels, load_timestamps,
                           prune_unlabeled, save_edge_list, save_labels)


def test_load_basic():
    graph, report = load_edge_list(io.StringIO("a\tb\nb\tc\n"))
    assert graph.num_nodes == 3
    assert graph.num_edges == 2
    assert report.lines == 2
    assert report.duplicate_edges == 0
    assert report.self_loops == 0
    assert graph.names == ("a", "b", "c")


def test_load_drops_self_loop():
    graph, report = load_edge_list(io.StringIO("a\ta\n"))
    assert graph.num_nodes == 1
    assert graph.num_edges == 0
    assert report.self_loops == 1


def test_load_reports_duplicates():
    graph, report = load_edge_list(io.StringIO("a\tb\na\tb\n"))
    assert graph.num_nodes == 2
    assert graph.num_edges == 1
    assert report.duplicate_edges == 1


def test_load_malformed_line_names_line_number():
    with pytest.raises(GraphError, match="line 2"):
        load_edge_list(io.StringIO("a\tb\nnonsense\n"))


def test_load_empty_stream():
    graph, report = load_edge_list(io.StringIO(""))
    assert graph.num_nodes == 0
    assert graph.num_edges == 0
    assert report.lines == 0


def test_load_header_skipped():
    graph, _ = load_edge_list(io.StringIO("src\tdst\na\tb\n"), has_header=True)
    assert graph.num_nodes == 2
    assert graph.num_edges == 1


def test_interning_stable():
    text = "x\ty\nz\tx\n"
    g1, _ = load_edge_list(io.StringIO(text))
    g2, _ = load_edge_list(io.StringIO(text))
    assert g1.names == g2.names
    assert np.array_equal(g1.src, g2.src)
    assert np.array_equal(g1.dst, g2.dst)


def test_graph_rejects_self_loop(make_graph):
    with pytest.raises(GraphError):
        make_graph(2, [(0, 0)])


def test_graph_rejects_duplicate_edge(make_graph):
    with pytest.raises(GraphError):
        make_graph(2, [(0, 1), (0, 1)])


def test_graph_rejects_out_of_range(make_graph):
    with pytest.raises(GraphError):
        make_graph(2, [(0, 2)])


def test_graph_rejects_negative_labels(make_graph):
    with pytest.raises(GraphError, match="nonnegative"):
        make_graph(3, [(1, 0)], labels=[0, -1, 1])


def test_graph_rejects_labels_of_wrong_length(make_graph):
    with pytest.raises(GraphError, match="labels length"):
        make_graph(3, [(1, 0)], labels=[0, 1])


def test_graph_rejects_timestamps_of_wrong_length(make_graph):
    with pytest.raises(GraphError, match="timestamps length"):
        make_graph(3, [(1, 0)], timestamps=[1, 2])


def test_degrees_path(make_graph):
    graph = make_graph(3, [(0, 1), (1, 2)])
    assert graph.d_out.tolist() == [1, 1, 0]
    assert graph.d_in.tolist() == [0, 1, 1]


def test_degrees_star(make_graph):
    graph = make_graph(6, [(i, 5) for i in range(5)])
    assert graph.d_in[5] == 5
    assert graph.d_out.sum() == graph.num_edges


def test_degrees_empty(make_graph):
    graph = make_graph(0, [])
    assert graph.d_in.size == 0
    assert graph.d_out.size == 0


def lexsort_csr(num_nodes, src, dst):
    """CSR ``(indptr, indices)`` of the edges ``src -> dst`` by a lexsort:
    the builder the adjacency-derived out- and in-views replaced."""
    order = np.lexsort((dst, src))
    indptr = np.zeros(num_nodes + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr, np.ascontiguousarray(dst[order], np.int64)


def unique_undirected_csr(graph):
    """``(indptr, indices, weights)`` of A + A^T by ``np.unique`` over the
    2E directed keys: the builder the adjacency-derived view replaced."""
    n = graph.num_nodes
    a = np.concatenate([graph.src, graph.dst])
    b = np.concatenate([graph.dst, graph.src])
    keys, counts = np.unique(a * n + b, return_counts=True)
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n, counts.astype(np.float64)


def assert_same_arrays(got, want, name):
    assert len(got) == len(want), name
    for g, w in zip(got, want):
        assert g.dtype == w.dtype, name
        assert np.array_equal(g, w), name


def test_cached_views_built_once_read_only_and_equal_to_builders(make_graph):
    graph = make_graph(5, [(0, 1), (1, 2), (2, 0), (3, 1), (1, 3), (4, 2)])
    n, src, dst = graph.num_nodes, graph.src, graph.dst
    adj = graph.adjacency
    want_adj = coo_matrix((np.ones(src.size), (src, dst)), shape=(n, n)).tocsr()
    # the distance kernels read the weights as hop lengths
    assert np.all(adj.data == 1.0)
    views = {
        "out_csr": (graph.out_csr, lexsort_csr(n, src, dst)),
        "in_csr": (graph.in_csr, lexsort_csr(n, dst, src)),
        "undirected_csr": (graph.undirected_csr, unique_undirected_csr(graph)),
        "adjacency": ((adj.data, adj.indices, adj.indptr),
                      (want_adj.data, want_adj.indices, want_adj.indptr)),
        "d_in": ((graph.d_in,), (np.bincount(dst, minlength=5),)),
        "d_out": ((graph.d_out,), (np.bincount(src, minlength=5),)),
    }
    for name, (cached, built) in views.items():
        assert_same_arrays(cached, built, name)
        for got in cached:
            with pytest.raises(ValueError, match="read-only"):
                got[0] = got[0]
    for name in views:
        assert getattr(graph, name) is getattr(graph, name)


def neighbour_oracle(graph):
    """Per-row sorted out-, in- and symmetrised neighbour lists, and the
    symmetrised weights (2 for a reciprocal pair, else 1), by brute force."""
    edges = set(zip(graph.src.tolist(), graph.dst.tolist()))
    nodes = range(graph.num_nodes)
    out = [sorted(w for w in nodes if (v, w) in edges) for v in nodes]
    inn = [sorted(u for u in nodes if (u, v) in edges) for v in nodes]
    und = [sorted(set(out[v]) | set(inn[v])) for v in nodes]
    weights = [[float(((v, w) in edges) + ((w, v) in edges)) for w in row]
               for v, row in zip(nodes, und)]
    return out, inn, und, weights


def csr_rows(indptr, values):
    return [values[indptr[v]:indptr[v + 1]].tolist()
            for v in range(indptr.size - 1)]


VIEW_GRAPHS = {
    "unsorted": (6, [(4, 1), (0, 5), (3, 2), (0, 1), (5, 0), (2, 3), (1, 4),
                     (0, 3), (5, 2)]),
    "isolated": (7, [(1, 5), (5, 1), (3, 1), (5, 3)]),
    "no-edges": (3, []),
    "one-node": (1, []),
    "empty": (0, []),
}


@pytest.mark.parametrize("name", VIEW_GRAPHS)
def test_csr_views_match_brute_force_oracle(make_graph, name):
    graph = make_graph(*VIEW_GRAPHS[name])
    out, inn, und, weights = neighbour_oracle(graph)
    n = graph.num_nodes
    for view, want in ((graph.out_csr, out), (graph.in_csr, inn),
                       (graph.undirected_csr, und)):
        assert view[0].dtype == view[1].dtype == np.int64
        assert view[0].size == n + 1
        assert csr_rows(*view[:2]) == want
    indptr, _, w = graph.undirected_csr
    assert w.dtype == np.float64
    assert csr_rows(indptr, w) == weights
    assert_same_arrays(graph.out_csr, lexsort_csr(n, graph.src, graph.dst),
                       "out_csr")
    assert_same_arrays(graph.in_csr, lexsort_csr(n, graph.dst, graph.src),
                       "in_csr")
    assert_same_arrays(graph.undirected_csr, unique_undirected_csr(graph),
                       "undirected_csr")


def test_labels_unknown_node_errors():
    graph, _ = load_edge_list(io.StringIO("a\tb\n"))
    with pytest.raises(GraphError, match="unknown node"):
        load_labels(io.StringIO("c\t0\n"), graph)


def test_labels_and_prune_noop():
    graph, _ = load_edge_list(io.StringIO("a\tb\nb\tc\n"))
    mapping, community_names = load_labels(
        io.StringIO("a\tphys\nb\tphys\nc\tbio\n"), graph)
    pruned = prune_unlabeled(graph, mapping, community_names)
    assert pruned.num_nodes == 3
    assert pruned.num_edges == 2
    assert pruned.labels.tolist() == [0, 0, 1]
    assert pruned.community_names == ("phys", "bio")


def test_prune_drops_unlabeled_and_incident_edges():
    graph, _ = load_edge_list(io.StringIO("a\tb\nb\tc\nc\ta\n"))
    mapping, community_names = load_labels(io.StringIO("a\t0\nb\t0\n"), graph)
    pruned = prune_unlabeled(graph, mapping, community_names)
    assert pruned.num_nodes == 2
    assert pruned.num_edges == 1
    assert pruned.names == ("a", "b")


def test_prune_empty_labels():
    graph, _ = load_edge_list(io.StringIO("a\tb\n"))
    pruned = prune_unlabeled(graph, {})
    assert pruned.num_nodes == 0
    assert pruned.num_edges == 0


def test_timestamps_parse_and_reject():
    graph, _ = load_edge_list(io.StringIO("a\tb\n"))
    ts = load_timestamps(io.StringIO("a\t1990\nb\t2005\n"), graph)
    assert ts == {0: 1990, 1: 2005}
    with pytest.raises(GraphError, match="timestamp"):
        load_timestamps(io.StringIO("a\tnope\n"), graph)


def test_induced_subgraph_remaps(make_graph):
    graph = make_graph(5, [(0, 1), (1, 2), (3, 4), (2, 4)],
                       labels=[0, 0, 1, 1, 0])
    sub = induced_subgraph(graph, np.array([1, 2, 4]))
    assert sub.num_nodes == 3
    assert sorted(zip(sub.src.tolist(), sub.dst.tolist())) == [(0, 1), (1, 2)]
    assert sub.labels.tolist() == [0, 1, 0]


def test_bfs_subsample_whole_graph(dag_graph):
    sub = bfs_subsample(dag_graph, dag_graph.num_nodes + 10, 0)
    assert sub.num_nodes == dag_graph.num_nodes
    assert sub.num_edges == dag_graph.num_edges


def test_bfs_subsample_count_and_determinism(dag_graph):
    a = bfs_subsample(dag_graph, 400, 3)
    b = bfs_subsample(dag_graph, 400, 3)
    assert a.num_nodes == 400
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    c = bfs_subsample(dag_graph, 400, 4)
    assert a.num_nodes == c.num_nodes


def test_bfs_subsample_restarts_across_components(make_graph):
    edges = [(i, i + 1) for i in range(29)]
    edges += [(30 + i, 30 + i + 1) for i in range(29)]
    graph = make_graph(60, edges)
    sub = bfs_subsample(graph, 50, 0)
    assert sub.num_nodes == 50


def bfs_subsample_oracle(graph, max_nodes, seed):
    """Node ids ``bfs_subsample`` keeps, by a deque BFS over sorted
    neighbour lists, restarting in the same permuted start order."""
    nbrs = [set() for _ in range(graph.num_nodes)]
    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen, kept = set(), []
    for s in np.random.default_rng(seed).permutation(graph.num_nodes).tolist():
        if s in seen:
            continue
        seen.add(s)
        queue = deque([s])
        while queue and len(kept) < max_nodes:
            v = queue.popleft()
            kept.append(v)
            for w in sorted(nbrs[v] - seen):
                seen.add(w)
                queue.append(w)
        if len(kept) >= max_nodes:
            return kept
    return kept


@pytest.mark.parametrize("max_nodes,seed", [(1, 0), (37, 1), (400, 3),
                                            (1499, 5)])
def test_bfs_subsample_matches_deque_oracle(near_dag_graph, max_nodes, seed):
    # many zero-degree nodes and short chains force restarts
    chains = LabeledGraph(num_nodes=300, src=np.arange(1, 300, 3),
                          dst=np.arange(0, 299, 3))
    for graph in (near_dag_graph, chains):
        budget = min(max_nodes, graph.num_nodes - 1)
        want = induced_subgraph(graph, bfs_subsample_oracle(graph, budget, seed))
        got = bfs_subsample(graph, budget, seed)
        assert got.num_nodes == budget
        assert np.array_equal(got.src, want.src)
        assert np.array_equal(got.dst, want.dst)


def test_save_load_round_trip(make_graph):
    graph = make_graph(4, [(1, 0), (2, 0), (3, 1), (3, 2)],
                       labels=[0, 0, 1, 1])
    edges_buf = io.StringIO()
    labels_buf = io.StringIO()
    save_edge_list(graph, edges_buf)
    save_labels(graph, labels_buf)
    loaded, _ = load_edge_list(io.StringIO(edges_buf.getvalue()))
    mapping, community_names = load_labels(
        io.StringIO(labels_buf.getvalue()), loaded)
    loaded = prune_unlabeled(loaded, mapping, community_names)
    assert loaded.num_nodes == 4
    assert loaded.num_edges == 4
    original = {(graph.labels[s], graph.labels[d])
                for s, d in zip(graph.src, graph.dst)}
    recovered = {(loaded.labels[s], loaded.labels[d])
                 for s, d in zip(loaded.src, loaded.dst)}
    assert original == recovered


def test_save_labels_skips_isolated(make_graph):
    graph = make_graph(3, [(0, 1)], labels=[0, 1, 0])
    buf = io.StringIO()
    save_labels(graph, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 2
    assert all(not line.startswith("2\t") for line in lines)


def test_save_labels_requires_labels(make_graph):
    with pytest.raises(GraphError):
        save_labels(make_graph(2, [(0, 1)]), io.StringIO())


def test_is_acyclic(make_graph):
    assert is_acyclic(make_graph(3, [(2, 1), (1, 0)]))
    assert not is_acyclic(make_graph(3, [(0, 1), (1, 2), (2, 0)]))
    assert is_acyclic(make_graph(1, []))
    assert is_acyclic(make_graph(0, []))


def test_is_acyclic_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(23)
    verdicts = []
    for _ in range(60):
        n = int(rng.integers(2, 40))
        adj = rng.random((n, n)) < rng.uniform(0.01, 0.15)
        np.fill_diagonal(adj, False)
        if rng.random() < 0.5:
            # keep only arcs from newer to older nodes: a DAG
            adj = np.tril(adj)
        src, dst = np.nonzero(adj)
        graph = LabeledGraph(num_nodes=n, src=src, dst=dst)
        ref = nx.DiGraph()
        ref.add_nodes_from(range(n))
        ref.add_edges_from(zip(src.tolist(), dst.tolist()))
        verdicts.append(is_acyclic(graph))
        assert verdicts[-1] == nx.is_directed_acyclic_graph(ref)
    assert 0 < sum(verdicts) < len(verdicts)


# ------------------------------------------------ per-line I/O oracles

# The per-line loader and writers that the blocked ones replaced, kept as
# oracles: the blocked I/O must give the same graphs, reports, errors and
# bytes.

def _load_edge_list_oracle(text, has_header=False):
    report = LoadReport()
    ids: dict = {}
    src_list: list = []
    dst_list: list = []
    seen: set = set()
    for lineno, raw in enumerate(io.StringIO(text), start=1):
        if has_header and lineno == 1:
            continue
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise GraphError(f"malformed edge line {lineno}: {raw!r}")
        report.lines += 1
        a = ids.setdefault(parts[0], len(ids))
        b = ids.setdefault(parts[1], len(ids))
        if a == b:
            report.self_loops += 1
            continue
        if (a, b) in seen:
            report.duplicate_edges += 1
            continue
        seen.add((a, b))
        src_list.append(a)
        dst_list.append(b)
    graph = LabeledGraph(num_nodes=len(ids), src=np.array(src_list, np.int64),
                         dst=np.array(dst_list, np.int64), names=tuple(ids))
    return graph, report


def _save_edge_list_oracle(graph, header=None):
    fh = io.StringIO()
    if header:
        fh.write(header.rstrip("\n") + "\n")
    names = graph.names
    for s, d in zip(graph.src, graph.dst):
        if names is None:
            fh.write(f"{s}\t{d}\n")
        else:
            fh.write(f"{names[s]}\t{names[d]}\n")
    return fh.getvalue()


def _save_labels_oracle(graph):
    fh = io.StringIO()
    connected = (graph.d_in + graph.d_out) > 0
    names = graph.names
    cnames = graph.community_names
    for v in range(graph.num_nodes):
        if not connected[v]:
            continue
        node = str(v) if names is None else names[v]
        lab = graph.labels[v]
        token = str(lab) if cnames is None else cnames[lab]
        fh.write(f"{node}\t{token}\n")
    return fh.getvalue()


def _outcome(load, text, has_header):
    try:
        graph, report = load(text, has_header)
    except GraphError as err:
        return "error", str(err)
    return (graph.num_nodes, graph.names, graph.src.tolist(),
            graph.dst.tolist(), report)


def _block_file(n_lines, bad=None):
    """``n_lines`` edge lines over a few hundred nodes, with repeats and
    self-loops; line ``bad`` (1-based) replaced by a 3-field line."""
    rng = np.random.default_rng(n_lines)
    pairs = rng.integers(0, 300, (n_lines, 2))
    lines = [f"n{a}\tn{b}\n" for a, b in pairs.tolist()]
    if bad is not None:
        lines[bad - 1] = "x\ty\tz\n"
    return "".join(lines)


@pytest.mark.parametrize("text, has_header", [
    ("", False),
    ("src\tdst\n", True),
    ("src\tdst", True),
    ("a\tb\r\nb\tc\r\n\r\nc\ta\r\n", False),
    ("src\tdst\r\n\na\tb\n\n\nb\ta\n", True),
    ("a\tb\nb\tc", False),
    ("a\tb\nb\tc\r", False),
    ("\n\n\n", False),
    # x appears only in a dropped self-loop and stays interned
    ("a\tb\nx\tx\nb\tc\n", False),
    ("a\tb\na\tb\nb\ta\na\tb\nb\ta\nc\tc\nc\tc\n", False),
    ("a\tb\nb\tc\td\n", False),
    ("a\tb\nonly\n", False),
    ("a\tb\n\tc\n", False),
    ("a\tb\nc\t\n", False),
    ("a\tb\r\nc\t\r\n", False),
    # one line without a tab and one with two: the token count is right
    ("a\tb\nc\nd\te\tf\n", False),
    (_block_file(20000), False),
    (_block_file(20000), True),
    (_block_file(20000, bad=8200), False),
    (_block_file(20000, bad=8200), True),
    (_block_file(20000, bad=19999), False),
    ("\n" * 9000 + "a\tb\nc\n", False),
])
def test_load_edge_list_matches_per_line_oracle(text, has_header):
    got = _outcome(lambda t, h: load_edge_list(io.StringIO(t), h), text,
                   has_header)
    assert got == _outcome(_load_edge_list_oracle, text, has_header)


def test_load_malformed_line_after_first_block_names_its_line():
    with pytest.raises(GraphError,
                       match=r"malformed edge line 8200: 'x\\ty\\tz\\n'"):
        load_edge_list(io.StringIO(_block_file(20000, bad=8200)))
    with pytest.raises(GraphError, match="malformed edge line 8201:"):
        load_edge_list(io.StringIO("h\n" + _block_file(20000, bad=8200)),
                       has_header=True)


def test_load_keeps_first_occurrences_across_blocks(caplog):
    text = _block_file(20000)
    with caplog.at_level("WARNING"):
        graph, report = load_edge_list(io.StringIO(text))
    assert report.duplicate_edges > 0 and report.self_loops > 0
    assert (f"dropped {report.self_loops} self-loops and "
            f"{report.duplicate_edges} duplicate edges on load") in caplog.text


def test_load_edge_list_reads_a_path(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text(_block_file(9000), encoding="utf-8")
    got = _outcome(lambda t, h: load_edge_list(path, h), None, False)
    assert got == _outcome(_load_edge_list_oracle, _block_file(9000), False)


def _lines(text):
    """Lines with their ends: on a mismatch pytest names the first differing
    line, where a diff of two whole files would take minutes."""
    if isinstance(text, io.StringIO):
        text = text.getvalue()
    return text.splitlines(keepends=True)


@pytest.mark.parametrize("named", [False, True])
def test_save_edge_list_matches_per_line_oracle(named):
    rng = np.random.default_rng(5)
    n = 3000
    keys = np.unique(rng.integers(0, n * n, 20000))
    keys = keys[keys // n != keys % n]
    graph = LabeledGraph(
        num_nodes=n, src=keys // n, dst=keys % n,
        labels=rng.integers(0, 3, n),
        names=tuple(f"node-{i}" for i in range(n)) if named else None,
        community_names=("phys", "bio", "cs") if named else None)
    for header in (None, "src\tdst", "src\tdst\n"):
        buf = io.StringIO()
        save_edge_list(graph, buf, header)
        assert _lines(buf) == _lines(_save_edge_list_oracle(graph, header))
    buf = io.StringIO()
    save_labels(graph, buf)
    assert _lines(buf) == _lines(_save_labels_oracle(graph))
    empty = LabeledGraph(num_nodes=2, src=[], dst=[])
    buf = io.StringIO()
    save_edge_list(empty, buf)
    assert buf.getvalue() == ""


def test_node_columns_allow_empty_value_and_name_bad_lines():
    graph, _ = load_edge_list(io.StringIO("a\tb\nb\tc\n"))
    mapping, community_names = load_labels(
        io.StringIO("a\t\r\n\nb\tx\nc\t\n"), graph)
    assert mapping == {0: 0, 1: 1, 2: 0}
    assert community_names == ("", "x")
    with pytest.raises(GraphError,
                       match="label line 3 references unknown node 'd'"):
        load_labels(io.StringIO("a\t1\n\nd\t1\nc\n"), graph)
    with pytest.raises(GraphError, match="malformed label line 3:"):
        load_labels(io.StringIO("a\t1\n\nc\nd\t1\n"), graph)
    with pytest.raises(GraphError, match="malformed timestamp line 3:"):
        load_timestamps(io.StringIO("node\tyear\na\t1\n\tb\n"), graph,
                        has_header=True)
    with pytest.raises(GraphError, match="timestamp line 8194 references"):
        load_timestamps(io.StringIO("a\t1\n" * 8193 + "zz\t2\n"), graph)
