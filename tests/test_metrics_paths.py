import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from citegen.baselines import fit_er, fit_sbm, generate_dcsbm, generate_er
from citegen.generator import generate
from citegen.graph import LabeledGraph
from citegen.metrics import paths
from citegen.metrics.distances import MetricError
from citegen.metrics.paths import (
    average_path_length,
    effective_diameter,
    longest_path_lengths,
    scc_sizes,
    source_rows,
)
from citegen.neardag import inject_back_edges


def dist_matrix(graph):
    """All-pairs hop distances by dense Floyd-Warshall; inf when unreachable."""
    mat = csr_matrix((np.ones(graph.num_edges), (graph.src, graph.dst)),
                     shape=(graph.num_nodes, graph.num_nodes))
    return shortest_path(mat, method="FW", directed=True, unweighted=True)


def betweenness_oracle(graph):
    """All-pairs shortest-path counting, accumulated per interior node."""
    n = graph.num_nodes
    dist = dist_matrix(graph)
    preds = [[] for _ in range(n)]
    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        preds[v].append(u)
    sigma = np.zeros((n, n))
    for s in range(n):
        sigma[s, s] = 1.0
        order = np.argsort(dist[s])
        for t in order:
            if t == s or not np.isfinite(dist[s, t]):
                continue
            sigma[s, t] = sum(sigma[s, p] for p in preds[t]
                              if dist[s, p] + 1 == dist[s, t])
    acc = np.zeros(n)
    for s in range(n):
        for t in range(n):
            if s == t or not np.isfinite(dist[s, t]) or sigma[s, t] == 0:
                continue
            for v in range(n):
                if v in (s, t):
                    continue
                if dist[s, v] + dist[v, t] == dist[s, t]:
                    acc[v] += sigma[s, v] * sigma[v, t] / sigma[s, t]
    return acc / ((n - 1.0) * (n - 2.0))


def scalar_betweenness(indptr, indices, sources, n):
    """Brandes accumulation one source at a time: the batched kernel's oracle.

    Unnormalised, summed over ``sources`` in order; the betweenness of
    ``source_rows`` must equal it bit for bit after its normalisation.
    """
    bc = np.zeros(n, np.float64)
    dist = np.empty(n, np.int64)
    sigma = np.empty(n, np.float64)
    delta = np.empty(n, np.float64)
    queue = np.empty(n, np.int64)
    for si in range(sources.shape[0]):
        s = sources[si]
        dist[:] = -1
        sigma[:] = 0.0
        delta[:] = 0.0
        head = 0
        tail = 0
        queue[tail] = s
        tail += 1
        dist[s] = 0
        sigma[s] = 1.0
        while head < tail:
            v = queue[head]
            head += 1
            dv = dist[v]
            for e in range(indptr[v], indptr[v + 1]):
                w = indices[e]
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue[tail] = w
                    tail += 1
                if dist[w] == dv + 1:
                    sigma[w] += sigma[v]
        for qi in range(tail - 1, -1, -1):
            v = queue[qi]
            dv = dist[v]
            acc = 0.0
            for e in range(indptr[v], indptr[v + 1]):
                w = indices[e]
                if dist[w] == dv + 1 and sigma[w] > 0.0:
                    acc += sigma[v] / sigma[w] * (1.0 + delta[w])
            delta[v] = acc
            if v != s:
                bc[v] += acc
    return bc


def longest_path_oracle(graph, rank):
    edges = {}
    for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
        if rank[v] < rank[u]:
            edges.setdefault(u, []).append(v)
    memo = {}

    def walk(v):
        if v not in memo:
            memo[v] = 1 + max((walk(u) for u in edges.get(v, [])), default=-1)
        return memo[v]

    return np.array([walk(v) for v in range(graph.num_nodes)])


def random_digraph(make_graph, rng, n, p):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    mask = rng.random(len(pairs)) < p
    edges = [pair for pair, keep in zip(pairs, mask) if keep]
    if not edges:
        edges = [(0, 1)]
    return make_graph(n, edges)


# the default block size, and blocks of one to a few sources
BLOCK_SIZES = (paths._BLOCK_CELLS, 40)


def betweenness_values(graph, sources=None):
    """``source_rows``' betweenness; every node is a source by default."""
    every = np.arange(graph.num_nodes)
    return source_rows(graph, every if sources is None else sources).betweenness


def distance_hist(dist):
    """Counts of the finite positive entries of ``dist``, by distance."""
    finite = dist[np.isfinite(dist) & (dist > 0)].astype(np.int64)
    return np.bincount(finite, minlength=1)


def test_pair_distances_matches_scipy(make_graph, monkeypatch):
    # the (source, target) distances of sampled sources, repeats included,
    # against the rows of scipy's Floyd-Warshall matrix
    rng = np.random.default_rng(7)
    for _ in range(20):
        graph = random_digraph(make_graph, rng, 15, 0.12)
        sources = rng.integers(0, 15, 40)
        want = distance_hist(dist_matrix(graph)[sources])
        for cells in BLOCK_SIZES:
            monkeypatch.setattr(paths, "_BLOCK_CELLS", cells)
            assert np.array_equal(source_rows(graph, sources).hist, want)


def test_all_pair_distances_matches_scipy(make_graph, monkeypatch):
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(2, 25))
        graph = random_digraph(make_graph, rng, n, rng.uniform(0.05, 0.3))
        dist = dist_matrix(graph)
        want = distance_hist(dist)
        finite = dist[np.isfinite(dist) & (dist > 0)]
        for cells in BLOCK_SIZES:
            monkeypatch.setattr(paths, "_BLOCK_CELLS", cells)
            hist = source_rows(graph, np.arange(n)).hist
            assert np.array_equal(hist, want)
            assert effective_diameter(hist) == pytest.approx(
                np.quantile(finite, 0.9))
            assert average_path_length(hist) == pytest.approx(finite.mean())


def test_reachability_counts_match_scipy(make_graph, monkeypatch):
    rng = np.random.default_rng(31)
    graphs = [make_graph(1, []), make_graph(2, []), make_graph(2, [(0, 1)]),
              make_graph(2, [(0, 1), (1, 0)])]
    for _ in range(20):
        n = int(rng.integers(2, 25))
        graphs.append(random_digraph(make_graph, rng, n, rng.uniform(0.05, 0.3)))
    for graph in graphs:
        n = graph.num_nodes
        sources = rng.integers(0, n, 30)  # repeats included
        want = np.isfinite(dist_matrix(graph)).sum(axis=1) - 1
        for cells in BLOCK_SIZES:
            monkeypatch.setattr(paths, "_BLOCK_CELLS", cells)
            rows = source_rows(graph, sources)
            assert np.array_equal(rows.reach, want[sources])
            assert isinstance(rows.betweenness, MetricError) == (n < 3)


def expanded(hist):
    return np.repeat(np.arange(hist.size), hist)


def test_histogram_statistics_equal_numpy_bit_for_bit():
    rng = np.random.default_rng(43)
    hists = [np.array([0, 1]), np.array([0, 0, 0, 7]), np.array([0, 3, 1]),
             np.array([0, 1, 9]), np.array([0, 0, 5, 0, 0, 2])]
    for _ in range(300):
        size = int(rng.integers(2, 30))
        hist = rng.integers(0, rng.choice([2, 50, 10**5]), size)
        distinct = int(rng.integers(1, 4))  # one, two or three distances
        if distinct < 3:
            hist[rng.permutation(size)[distinct:]] = 0
        hist[0] = 0
        hists.append(hist)
    for hist in hists:
        if hist.sum() == 0:
            continue
        x = expanded(hist)
        assert effective_diameter(hist).hex() == \
            float(np.quantile(x, 0.9)).hex()
        assert average_path_length(hist).hex() == float(x.mean()).hex()


def older_citations_graph(n, rng):
    """Each node after the first cites up to 2 uniformly drawn older nodes."""
    newer = np.repeat(np.arange(1, n), 2)
    keys = np.unique(newer * n + (rng.random(newer.size) * newer).astype(np.int64))
    return LabeledGraph(num_nodes=n, src=keys // n, dst=keys % n)


def test_distance_blocks_stay_small_on_large_graphs():
    # 300 sources x 200k nodes as one float64 array would take 480 MB.
    n = 200_000
    rng = np.random.default_rng(5)
    graph = older_citations_graph(n, rng)
    sources = rng.choice(n, 300, replace=False)
    tracemalloc.start()
    try:
        rows = source_rows(graph, sources)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert rows.reach.shape == (300,) and rows.reach.max() > 100
    assert rows.hist.sum() == rows.reach.sum()


def test_all_pair_distances_chain(make_graph):
    graph = make_graph(11, [(i, i + 1) for i in range(10)])
    hist = source_rows(graph, np.arange(11)).hist
    # the 55 finite pairs: 11 - d of them at each distance d
    assert hist.tolist() == [0] + list(range(10, 0, -1))
    assert average_path_length(hist) == pytest.approx(4.0)
    # Sorted finite distances put index 48 at 7 and index 49 at 8, so the
    # interpolated 90th percentile is 7.6.
    assert effective_diameter(hist) == pytest.approx(7.6)


def test_finite_distances_rejects_disconnected(make_graph):
    for graph in (make_graph(3, []), make_graph(1, []), make_graph(0, [])):
        hist = source_rows(graph, np.arange(graph.num_nodes)).hist
        assert hist.tolist() == [0]
        for stat in (effective_diameter, average_path_length):
            with pytest.raises(MetricError, match="finite"):
                stat(hist)
    hist = source_rows(make_graph(3, [(0, 1)]), np.arange(3)).hist
    assert hist.tolist() == [0, 1]
    assert effective_diameter(hist) == average_path_length(hist) == 1.0


def test_reachability_counts_chain(make_graph):
    graph = make_graph(5, [(i, i + 1) for i in range(4)])
    counts = source_rows(graph, np.arange(5)).reach
    assert counts.tolist() == [4, 3, 2, 1, 0]


def test_betweenness_path_fixture(make_graph):
    graph = make_graph(3, [(0, 1), (1, 2)])
    assert betweenness_values(graph).tolist() == [0.0, 0.5, 0.0]


def test_betweenness_matches_brute_force(make_graph):
    rng = np.random.default_rng(13)
    for _ in range(10):
        graph = random_digraph(make_graph, rng, 10, 0.2)
        got = betweenness_values(graph)
        want = betweenness_oracle(graph)
        assert np.allclose(got, want, atol=1e-9)


def test_betweenness_sampled_sources_unbiased(make_graph):
    # With every node passed explicitly as a source the rescaled estimate
    # equals the exact quantity.
    graph = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    exact = betweenness_values(graph)
    listed = betweenness_values(graph, sources=np.arange(4))
    assert np.allclose(exact, listed)


def betweenness_cases(make_graph, three_community_params):
    """(graph, sources) pairs: near-DAG, cyclic baselines, grid, small graphs."""
    near = inject_back_edges(generate(three_community_params, 1000, 11), 0.05, 12)
    rng = np.random.default_rng(41)
    yield near, np.sort(rng.choice(near.num_nodes, 200, replace=False))
    yield generate_er(fit_er(near), 3), np.arange(0, near.num_nodes, 5)
    yield generate_dcsbm(fit_sbm(near), 4), np.arange(0, near.num_nodes, 3)
    side = 30
    grid = [(r * side + c, r * side + c + 1) for r in range(side)
            for c in range(side - 1)]
    grid += [(r * side + c, (r + 1) * side + c) for r in range(side - 1)
             for c in range(side)]
    yield make_graph(side * side, grid), None  # many tied shortest paths
    for _ in range(30):
        n = int(rng.integers(3, 20))
        graph = random_digraph(make_graph, rng, n, rng.uniform(0.05, 0.4))
        yield graph, rng.integers(0, n, int(rng.integers(1, 2 * n)))


def test_betweenness_matches_scalar_oracle_bitwise(
        make_graph, three_community_params, monkeypatch):
    default = paths._BLOCK_CELLS
    for graph, sources in betweenness_cases(make_graph, three_community_params):
        n = graph.num_nodes
        listed = np.arange(n) if sources is None else sources
        acc = scalar_betweenness(*graph.out_csr, listed, n)
        want = acc * ((n / listed.size) / ((n - 1.0) * (n - 2.0)))
        # the default budget, blocks of three sources, one source per block
        for cells in (default, 3 * n, 1):
            monkeypatch.setattr(paths, "_BLOCK_CELLS", cells)
            got = betweenness_values(graph, sources)
            assert got.tobytes() == want.tobytes()


def test_betweenness_blocks_stay_small_on_large_graphs():
    # Each level expands only the block's frontier edges, never sources x E.
    n = 200_000
    rng = np.random.default_rng(6)
    graph = older_citations_graph(n, rng)
    sources = rng.choice(n, 20, replace=False)
    tracemalloc.start()
    try:
        bc = betweenness_values(graph, sources)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert bc.shape == (n,) and bc.max() > 0


def test_betweenness_needs_three_nodes(make_graph):
    # the reach counts and distances of 1- and 2-node graphs survive
    for graph in (make_graph(1, []), make_graph(2, [(0, 1)])):
        rows = source_rows(graph, np.arange(graph.num_nodes))
        assert isinstance(rows.betweenness, MetricError)
        assert "at least 3 nodes" in str(rows.betweenness)
        assert rows.reach.tolist() == [graph.num_nodes - 1, 0][:graph.num_nodes]
        assert rows.hist.sum() == graph.num_edges


def test_scc_sizes_fixtures(make_graph):
    two_cycle = make_graph(3, [(0, 1), (1, 0)])
    assert sorted(scc_sizes(two_cycle).tolist()) == [1, 2]
    triangle = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert scc_sizes(triangle).tolist() == [3]
    dag = make_graph(4, [(1, 0), (2, 1), (3, 2)])
    assert sorted(scc_sizes(dag).tolist()) == [1, 1, 1, 1]


def test_scc_sizes_rejects_empty(make_graph):
    with pytest.raises(MetricError):
        scc_sizes(make_graph(0, []))


def test_longest_path_chain(make_graph):
    graph = make_graph(3, [(1, 0), (2, 1)])
    assert longest_path_lengths(graph, np.arange(3)).tolist() == [0, 1, 2]


def test_longest_path_ignores_rank_violations(make_graph):
    # The back edge 0 -> 2 is dropped, leaving the two-step chain.
    graph = make_graph(3, [(1, 0), (2, 1), (0, 2)])
    assert longest_path_lengths(graph, np.arange(3)).tolist() == [0, 1, 2]


def test_longest_path_matches_memo_oracle(make_graph, dag_graph):
    rng = np.random.default_rng(17)
    for _ in range(15):
        graph = random_digraph(make_graph, rng, 12, 0.25)
        rank = rng.permutation(12)
        got = longest_path_lengths(graph, rank)
        assert np.array_equal(got, longest_path_oracle(graph, rank))
    rank = np.arange(dag_graph.num_nodes)
    got = longest_path_lengths(dag_graph, rank)
    assert np.array_equal(got, longest_path_oracle(dag_graph, rank))
