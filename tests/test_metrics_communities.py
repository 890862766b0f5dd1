import signal
from dataclasses import replace

import numpy as np
import pytest

from citegen.generator import generate
from citegen.graph import LabeledGraph, undirected_csr
from citegen.metrics import battery, communities
from citegen.metrics.communities import (
    _batch_gain,
    _conflict_free,
    _union,
    conductance,
    density_pair,
    detect_batch,
    detect_communities,
    detected_sizes,
    modularity,
    participation,
    symmetric_modularity,
    union_capacity,
)
from citegen.metrics.distances import MetricError
from citegen.neardag import inject_back_edges

RESOLUTIONS = (1.0, 0.5, 2.0)


def dense_modularity_oracle(graph, labels):
    """Directed modularity from the dense definition, one pair at a time."""
    n = graph.num_nodes
    m = graph.num_edges
    a = np.zeros((n, n))
    a[graph.src, graph.dst] = 1.0
    dout = a.sum(axis=1)
    din = a.sum(axis=0)
    q = 0.0
    for i in range(n):
        for j in range(n):
            if labels[i] == labels[j]:
                q += a[i, j] - dout[i] * din[j] / m
    return q / m


def _louvain_pass(indptr, indices, weights, kdeg, comm, comm_s, order,
                  two_m, gamma, nbr_w, touched):
    moves = 0
    for oi in range(order.shape[0]):
        v = order[oi]
        c0 = comm[v]
        nt = 0
        for e in range(indptr[v], indptr[v + 1]):
            u = indices[e]
            cu = comm[u]
            if nbr_w[cu] == 0.0:
                touched[nt] = cu
                nt += 1
            nbr_w[cu] += weights[e]
        comm_s[c0] -= kdeg[v]
        best_c = c0
        best_gain = nbr_w[c0] - gamma * kdeg[v] * comm_s[c0] / two_m
        for t in range(nt):
            c = touched[t]
            if c == c0:
                continue
            gain = nbr_w[c] - gamma * kdeg[v] * comm_s[c] / two_m
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_c = c
        comm_s[best_c] += kdeg[v]
        if best_c != c0:
            comm[v] = best_c
            moves += 1
        for t in range(nt):
            nbr_w[touched[t]] = 0.0
    return moves


def scalar_louvain_oracle(graph, resolution, seed):
    """Sequential Louvain: nodes move one at a time in a seeded random order.

    The detector's former implementation, kept as its quality reference.
    """
    n = graph.num_nodes
    mapping = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    indptr, indices, weights = undirected_csr(graph)
    selfw = np.zeros(n, np.float64)
    two_m = weights.sum()
    while True:
        n_cur = indptr.size - 1
        rows = np.repeat(np.arange(n_cur), np.diff(indptr))
        kdeg = np.bincount(rows, weights=weights, minlength=n_cur) + selfw
        comm = np.arange(n_cur, dtype=np.int64)
        comm_s = kdeg.copy()
        nbr_w = np.zeros(n_cur, np.float64)
        touched = np.empty(n_cur, np.int64)
        level_moves = 0
        while True:
            order = rng.permutation(n_cur).astype(np.int64)
            moves = _louvain_pass(indptr, indices, weights, kdeg, comm,
                                  comm_s, order, two_m, float(resolution),
                                  nbr_w, touched)
            level_moves += moves
            if moves == 0:
                break
        if level_moves == 0:
            break
        uniq, compact = np.unique(comm, return_inverse=True)
        mapping = compact[mapping]
        if uniq.size == n_cur:
            break
        nc = uniq.size
        cu = compact[rows]
        cv = compact[indices]
        intra = cu == cv
        selfw = (np.bincount(cu[intra], weights=weights[intra], minlength=nc)
                 + np.bincount(compact, weights=selfw, minlength=nc))
        uk, inv = np.unique(cu[~intra] * nc + cv[~intra], return_inverse=True)
        weights = np.bincount(inv, weights=weights[~intra])
        indices = uk % nc
        indptr = np.zeros(nc + 1, np.int64)
        np.cumsum(np.bincount(uk // nc, minlength=nc), out=indptr[1:])
    return mapping, symmetric_modularity(graph, mapping, resolution)


@pytest.fixture(scope="module")
def near_dags_1k(three_community_params):
    return [inject_back_edges(generate(three_community_params, 1000, 100 + i),
                              0.05, 200 + i) for i in range(3)]


def clique_pair_edges(cross=False):
    edges = [(i, j) for i in range(5) for j in range(5) if i != j]
    edges += [(i + 5, j + 5) for i in range(5) for j in range(5) if i != j]
    if cross:
        edges.append((0, 5))
    return edges


def test_modularity_two_cliques(make_graph):
    graph = make_graph(10, clique_pair_edges(), labels=[0] * 5 + [1] * 5)
    assert modularity(graph) == pytest.approx(0.5)


def test_modularity_single_community_is_zero(make_graph):
    graph = make_graph(3, [(0, 1), (1, 2)], labels=[0, 0, 0])
    # intra/m is one and the null term is one as well.
    assert modularity(graph) == pytest.approx(0.0)


def test_modularity_matches_dense_oracle(make_graph):
    rng = np.random.default_rng(19)
    pairs = [(i, j) for i in range(12) for j in range(12) if i != j]
    for _ in range(15):
        mask = rng.random(len(pairs)) < 0.2
        edges = [p for p, keep in zip(pairs, mask) if keep] or [(0, 1)]
        labels = rng.integers(0, 3, 12)
        graph = make_graph(12, edges, labels=labels)
        assert modularity(graph) == pytest.approx(
            dense_modularity_oracle(graph, labels), abs=1e-12)


def test_modularity_empty_graph(make_graph):
    assert modularity(make_graph(3, [], labels=[0, 1, 0])) == 0.0


def test_conductance_fixture(make_graph):
    # One crossing edge; each side has volume 3, so both communities get
    # conductance 1/3.
    graph = make_graph(4, [(0, 1), (2, 3), (1, 2)], labels=[0, 0, 1, 1])
    assert conductance(graph) == pytest.approx(1.0 / 3.0)


def test_conductance_isolated_community_contributes_zero(make_graph):
    graph = make_graph(5, [(0, 1), (2, 3), (1, 2)], labels=[0, 0, 1, 1, 2])
    assert conductance(graph) == pytest.approx((1.0 / 3.0 + 1.0 / 3.0) / 3.0)


def test_density_pair_fixture(make_graph):
    graph = make_graph(4, [(0, 1), (2, 3), (1, 2)], labels=[0, 0, 1, 1])
    intra, inter = density_pair(graph)
    assert intra == pytest.approx(2.0 / 4.0)
    assert inter == pytest.approx(1.0 / 8.0)


def test_density_pair_degenerate_partitions(make_graph):
    single = make_graph(3, [(0, 1)], labels=[0, 0, 0])
    with pytest.raises(MetricError, match="single community"):
        density_pair(single)
    singletons = make_graph(3, [(0, 1)], labels=[0, 1, 2])
    with pytest.raises(MetricError, match="intra"):
        density_pair(singletons)


def test_participation_fixtures(make_graph):
    graph = make_graph(3, [(0, 2), (1, 2)], labels=[0, 1, 1])
    part_in = participation(graph, direction="in")
    # Node 2 is cited once from each of two communities.
    assert part_in.tolist() == [0.0, 0.0, 0.5]
    part_out = participation(graph, direction="out")
    assert part_out.tolist() == [0.0, 0.0, 0.0]


def test_participation_rejects_bad_direction(make_graph):
    graph = make_graph(2, [(0, 1)], labels=[0, 0])
    with pytest.raises(MetricError, match="direction"):
        participation(graph, direction="sideways")


def test_label_metrics_reject_an_empty_graph(make_graph):
    empty = make_graph(0, [], labels=[])
    assert modularity(empty) == 0.0
    for metric in (conductance, density_pair, participation):
        with pytest.raises(MetricError, match="empty"):
            metric(empty)
    with pytest.raises(MetricError, match="empty"):
        participation(empty, "out")


def test_metrics_require_labels(make_graph):
    graph = make_graph(2, [(0, 1)])
    for fn in (modularity, conductance, density_pair, participation):
        with pytest.raises(MetricError, match="label"):
            fn(graph)


def test_symmetric_modularity_two_cliques(make_graph):
    graph = make_graph(10, clique_pair_edges(), labels=[0] * 5 + [1] * 5)
    labels = graph.labels
    assert symmetric_modularity(graph, labels) == pytest.approx(0.5)
    # Doubling the resolution doubles the null term.
    assert symmetric_modularity(graph, labels, 2.0) == pytest.approx(0.0)


def test_detect_communities_two_cliques(make_graph):
    graph = make_graph(10, clique_pair_edges())
    labels, q = detect_communities(graph, 1.0, 0)
    assert int(labels.max()) + 1 == 2
    assert sorted(np.bincount(labels).tolist()) == [5, 5]
    assert q == pytest.approx(0.5)
    assert set(labels[:5].tolist()) != set(labels[5:].tolist())


def test_detect_communities_survives_weak_cross_edge(make_graph):
    graph = make_graph(10, clique_pair_edges(cross=True))
    labels, q = detect_communities(graph, 1.0, 0)
    assert int(labels.max()) + 1 == 2
    assert q == pytest.approx(80.0 / 82.0 - 0.5)


def test_detect_communities_reports_achieved_modularity(make_graph):
    graph = make_graph(10, clique_pair_edges(cross=True))
    labels, q = detect_communities(graph, 0.5, 3)
    assert q == pytest.approx(symmetric_modularity(graph, labels, 0.5))


def test_detect_communities_deterministic(dag_graph):
    la, qa = detect_communities(dag_graph, 1.0, 5)
    lb, qb = detect_communities(dag_graph, 1.0, 5)
    assert np.array_equal(la, lb)
    assert qa == qb


def test_detect_communities_beats_planted_partition(dag_graph):
    labels, q = detect_communities(dag_graph, 1.0, 0)
    planted = symmetric_modularity(dag_graph, dag_graph.labels)
    assert q >= planted - 0.02
    assert 2 <= int(labels.max()) + 1 <= 100


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_detect_communities_matches_scalar_oracle_quality(near_dags_1k,
                                                          resolution):
    seeds = range(5)
    for graph in near_dags_1k:
        q_new = np.mean([detect_communities(graph, resolution, s)[1]
                         for s in seeds])
        q_ref = np.mean([scalar_louvain_oracle(graph, resolution, s)[1]
                         for s in seeds])
        assert q_new >= q_ref - 0.005, (q_new, q_ref)


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_detect_communities_repeatable_valid_and_exact_q(near_dags_1k,
                                                         resolution):
    for graph in near_dags_1k:
        la, qa = detect_communities(graph, resolution, 11)
        lb, qb = detect_communities(graph, resolution, 11)
        assert np.array_equal(la, lb)
        assert qa == qb
        for labels, q in ((la, qa), detect_communities(graph, resolution, 12)):
            assert labels.dtype == np.int64
            assert labels.shape == (graph.num_nodes,)
            assert np.array_equal(np.unique(labels),
                                  np.arange(int(labels.max()) + 1))
            assert q == symmetric_modularity(graph, labels, resolution)


@pytest.mark.parametrize("resolution", (0.5, 1.0))
def test_detect_communities_terminates_on_complete_bipartite(resolution):
    # Every node ties across the bipartition, so unguarded synchronous moves
    # flip whole sides back and forth forever (K_{80,80} at resolution 1).
    n = 80
    graph = LabeledGraph(2 * n, np.repeat(np.arange(n), n),
                         np.tile(np.arange(n, 2 * n), n))

    def hang(signum, frame):
        raise TimeoutError("detection did not converge")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        for seed in range(3):
            labels, q = detect_communities(graph, resolution, seed)
            q_ref = scalar_louvain_oracle(graph, resolution, seed)[1]
            assert q == pytest.approx(q_ref, abs=1e-12)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_undirected_csr_weights_count_directed_edges(make_graph):
    graph = make_graph(4, [(0, 1), (1, 0), (1, 2), (3, 2)])
    indptr, indices, weights = undirected_csr(graph)
    assert indptr.tolist() == [0, 1, 3, 5, 6]
    assert indices.tolist() == [1, 0, 2, 1, 3, 2]
    assert weights.tolist() == [2.0, 2.0, 1.0, 1.0, 1.0, 1.0]


def test_detect_communities_degenerate_inputs(make_graph):
    edgeless = make_graph(4, [])
    labels, q = detect_communities(edgeless, 1.0, 0)
    assert labels.tolist() == [0, 1, 2, 3]
    assert q == 0.0
    with pytest.raises(MetricError, match="empty"):
        detect_communities(make_graph(0, []), 1.0, 0)


def test_detected_sizes():
    assert detected_sizes(np.array([0, 0, 1, 2, 2])).tolist() == [2, 1, 2]


def test_detect_at_resolutions_copies_equal_single_runs(near_dags_1k):
    # each copy is a run at its resolution alone, so the single-resolution
    # tests above cover the batched call; fresh graphs keep nothing
    for graph in near_dags_1k:
        for seed in (7, np.random.SeedSequence(7)):
            found, = detect_batch([replace(graph)], RESOLUTIONS, seed)
            assert len(found) == len(RESOLUTIONS)
            for (labels, q), res in zip(found, RESOLUTIONS):
                alone, q_alone = detect_communities(replace(graph), res, seed)
                assert np.array_equal(labels, alone) and q == q_alone


def test_detect_batch_keeps_nothing_on_the_graph(dag_graph, monkeypatch):
    runs = []
    louvain = communities._louvain

    def counting(copies, seed):
        runs.append([resolution for _, resolution in copies])
        return louvain(copies, seed)

    monkeypatch.setattr(communities, "_louvain", counting)
    graph = replace(dag_graph)
    found, = detect_batch([graph], RESOLUTIONS, 3)
    assert not found[0][0].flags.writeable
    assert not graph.detections
    # a repeated call at one seed runs again, and finds the same
    again, = detect_batch([graph], (2.0, 0.25), 3)
    labels, q = detect_communities(graph, 0.5, 3)
    assert np.array_equal(again[0][0], found[2][0]) and again[0][1] == found[2][1]
    assert np.array_equal(labels, found[1][0]) and q == found[1][1]
    assert runs == [list(RESOLUTIONS), [2.0, 0.25], [0.5]]
    assert not graph.detections
    # a run held for the seed object and resolution is returned as it is
    seed = np.random.SeedSequence(3)
    graph.detections[(id(seed), 0.5)] = found[1]
    assert detect_communities(graph, 0.5, seed) is found[1]
    assert detect_communities(graph, 0.5, np.random.SeedSequence(3)) \
        is not found[1]
    assert len(runs) == 4


def test_detect_at_resolutions_degenerate_inputs(make_graph, dag_graph):
    cliques = make_graph(10, clique_pair_edges())
    assert detect_batch([cliques], (), 0) == [[]]
    config = battery.MetricConfig(resolutions=(), n_pairs=50, n_sources=10)
    values = battery.profile(dag_graph, config).values
    assert not [name for name in values if name.startswith("detected_")]
    repeated = (1.0, 0.5, 1.0)
    found, = detect_batch([cliques], repeated, 2)
    assert len(found) == 3
    for (labels, q), res in zip(found, repeated):
        assert q == symmetric_modularity(cliques, labels, res)
    assert found[0][1] == found[2][1] == pytest.approx(0.5)
    edgeless = make_graph(4, [])
    found, = detect_batch([edgeless], RESOLUTIONS, 0)
    assert [(labels.tolist(), q) for labels, q in found] == \
        [([0, 1, 2, 3], 0.0)] * 3
    empty, = detect_batch([make_graph(0, [])], RESOLUTIONS, 0)
    assert isinstance(empty, MetricError) and "empty" in str(empty)


@pytest.fixture(scope="module")
def mixed_graphs(three_community_params):
    """Graphs of different sizes, one edgeless and one without nodes."""
    grown = [inject_back_edges(generate(three_community_params, n, 300 + n),
                               0.05, n) for n in (40, 90, 200, 700)]
    edgeless = LabeledGraph(num_nodes=5, src=[], dst=[])
    empty = LabeledGraph(num_nodes=0, src=[], dst=[])
    return grown[:2] + [edgeless] + grown[2:3] + [empty] + grown[3:]


@pytest.mark.parametrize("budget", [1, communities.UNION_ENTRIES, 1 << 40])
def test_detect_batch_copies_equal_single_runs(mixed_graphs, monkeypatch,
                                               budget):
    # one union per graph, the default budget, or one union for all graphs
    monkeypatch.setattr(communities, "UNION_ENTRIES", budget)
    for seed in (7, np.random.SeedSequence(7)):
        fresh = [replace(g) for g in mixed_graphs]
        found = detect_batch(fresh, RESOLUTIONS, seed)
        assert len(found) == len(fresh)
        for graph, runs in zip(mixed_graphs, found):
            if graph.num_nodes == 0:
                assert isinstance(runs, MetricError)
                continue
            assert len(runs) == len(RESOLUTIONS)
            for (labels, q), res in zip(runs, RESOLUTIONS):
                alone, q_alone = detect_communities(replace(graph), res, seed)
                assert np.array_equal(labels, alone) and q == q_alone
                assert not labels.flags.writeable


def test_detect_batch_unions_stay_within_the_budget(mixed_graphs,
                                                    monkeypatch):
    unions = []
    louvain = communities._louvain

    def recording(copies, seed):
        unions.append(copies)
        return louvain(copies, seed)

    monkeypatch.setattr(communities, "_louvain", recording)
    # the three smaller graphs with edges fill a union exactly
    budget = 2 * len(RESOLUTIONS) * sum(g.num_edges for g in mixed_graphs[:4])
    monkeypatch.setattr(communities, "UNION_ENTRIES", budget)
    fresh = [replace(g) for g in mixed_graphs]
    # a graph named twice runs once
    detect_batch(fresh + fresh[:1], RESOLUTIONS, 5)
    entries = [2 * sum(g.num_edges for g, _ in copies) for copies in unions]
    assert [g for copies in unions for g, _ in copies[::3]] == \
        [g for g in fresh if g.num_edges]
    for copies, count in zip(unions, entries):
        assert count <= budget or len(copies) == len(RESOLUTIONS)
    # consecutive unions could not have been one
    assert all(a + b > budget for a, b in zip(entries, entries[1:]))
    assert len(unions) == 2 and len(unions[0]) == 3 * len(RESOLUTIONS)
    # nothing is kept: a second call runs the same unions again
    detect_batch(fresh, RESOLUTIONS, 5)
    assert [[(id(g), r) for g, r in copies] for copies in unions[2:]] == \
        [[(id(g), r) for g, r in copies] for copies in unions[:2]]
    for graph in mixed_graphs[:2]:
        assert union_capacity(graph, RESOLUTIONS) == \
            budget // (2 * graph.num_edges * len(RESOLUTIONS))
    assert union_capacity(mixed_graphs[-1], RESOLUTIONS) == 1
    assert union_capacity(mixed_graphs[2], RESOLUTIONS) == budget


def recorded_louvain(monkeypatch):
    """The list to which each ``_louvain`` call appends its copies."""
    calls = []
    louvain = communities._louvain

    def recording(copies, seed):
        calls.append(copies)
        return louvain(copies, seed)

    monkeypatch.setattr(communities, "_louvain", recording)
    return calls


def test_a_repeated_compare_detects_the_real_graph_once(
        three_community_params, monkeypatch):
    real, first = (inject_back_edges(generate(three_community_params, 300, s),
                                     0.1, s) for s in (61, 62))
    second = inject_back_edges(real, 0.2, 63)
    config = battery.MetricConfig(seed=2, n_pairs=100, n_sources=20)
    calls = recorded_louvain(monkeypatch)
    battery.compare(real, first, config)
    assert [id(g) for copies in calls for g, _ in copies] == \
        [id(real)] * 3 + [id(first)] * 3
    calls.clear()
    report = battery.compare(real, second, config)
    assert [id(g) for copies in calls for g, _ in copies] == [id(second)] * 3
    # a kept run is the run itself: fresh graphs give the same report
    fresh = battery.compare(replace(real), replace(second), config)
    assert report.to_tsv() == fresh.to_tsv()


def union_objective(indptr, indices, weights, kdeg, comm, copy, scale):
    """Per-copy objective 0.5 * intra weight - 0.5 * scale * sum_c S_c^2,
    from its definition; a lone move's gain is its difference."""
    rows = np.repeat(np.arange(kdeg.size), np.diff(indptr))
    intra = comm[rows] == comm[indices]
    out = []
    for r, sc in enumerate(scale):
        mine = copy == r
        s_c = np.bincount(comm[mine], weights=kdeg[mine])
        out.append(0.5 * weights[intra & mine[rows]].sum()
                   - 0.5 * sc * np.sum(s_c * s_c))
    return np.array(out)


def random_union_state(rng, final_pass):
    """A union of three random graphs of different sizes and a partition of
    it in which no community spans graphs.

    Labels are node ids of the community's graph, or, with ``final_pass``,
    compact ids numbered across graphs as the final pass sees them, where
    a label's graph is not the graph of the node with that id.
    """
    graphs = []
    for _ in range(3):
        n = int(rng.integers(6, 16))
        adj = rng.random((n, n)) < 0.3
        np.fill_diagonal(adj, False)
        src, dst = np.nonzero(adj)
        graphs.append(LabeledGraph(num_nodes=n, src=src, dst=dst))
    sizes = np.array([g.num_nodes for g in graphs])
    indptr, indices, weights = _union([g.undirected_csr for g in graphs])
    copy = np.repeat(np.arange(3), sizes)
    kdeg = np.bincount(np.repeat(np.arange(copy.size), np.diff(indptr)),
                       weights=weights, minlength=copy.size)
    if final_pass:
        k = rng.integers(1, sizes + 1)
        pools = np.split(np.arange(k.sum()), np.cumsum(k)[:-1])
    else:
        first = np.cumsum(sizes) - sizes
        pools = [v + rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
                 for v, n in zip(first, sizes)]
    comm = np.concatenate([rng.choice(pool, n)
                           for pool, n in zip(pools, sizes)])
    return indptr, indices, weights, kdeg, comm, copy, pools


def random_moves(rng, indptr, comm, copy, pools):
    """Distinct movers with edges, each to another label of its copy."""
    has_edges = np.flatnonzero(np.diff(indptr) > 0)
    movers = np.sort(rng.choice(has_edges, int(rng.integers(
        1, has_edges.size + 1)), replace=False))
    new = np.array([rng.choice(pools[copy[v]]) for v in movers])
    keep = new != comm[movers]
    return movers[keep], new[keep]


@pytest.mark.parametrize("final_pass", [False, True])
def test_batch_gain_matches_per_copy_objective(final_pass):
    rng = np.random.default_rng(23 + final_pass)
    scale = np.array(RESOLUTIONS) / 37.0
    for _ in range(200):
        indptr, indices, weights, kdeg, comm, copy, pools = \
            random_union_state(rng, final_pass)
        movers, new = random_moves(rng, indptr, comm, copy, pools)
        if movers.size == 0:
            continue
        after = comm.copy()
        after[movers] = new
        comm_s = np.bincount(comm, weights=kdeg, minlength=comm.size)
        got = _batch_gain(indptr, indices, weights, kdeg, comm, comm_s,
                          movers, new, scale, copy)
        want = (union_objective(indptr, indices, weights, kdeg, after, copy,
                                scale)
                - union_objective(indptr, indices, weights, kdeg, comm, copy,
                                  scale))
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("final_pass", [False, True])
def test_conflict_free_gains_add_exactly(final_pass):
    rng = np.random.default_rng(31 + final_pass)
    scale = np.array(RESOLUTIONS) / 29.0
    for _ in range(200):
        indptr, indices, weights, kdeg, comm, copy, pools = \
            random_union_state(rng, final_pass)
        movers, new = random_moves(rng, indptr, comm, copy, pools)
        if movers.size == 0:
            continue
        comm_s = np.bincount(comm, weights=kdeg, minlength=comm.size)
        single = np.array([_batch_gain(indptr, indices, weights, kdeg, comm,
                                       comm_s, movers[i:i + 1], new[i:i + 1],
                                       scale, copy)[copy[v]]
                           for i, v in enumerate(movers)])
        kept = _conflict_free(indptr, indices, movers, comm[movers], new,
                              single)
        top = np.lexsort((movers, -single))[0]
        assert kept[top]
        mv = movers[kept]
        touched = np.r_[comm[mv], new[kept]]
        assert np.unique(touched).size == touched.size
        rows = np.repeat(np.arange(kdeg.size), np.diff(indptr))
        assert not np.isin(indices[np.isin(rows, mv)], mv).any()
        joint = _batch_gain(indptr, indices, weights, kdeg, comm, comm_s, mv,
                            new[kept], scale, copy)
        want = np.bincount(copy[mv], weights=single[kept], minlength=3)
        assert joint == pytest.approx(want, abs=1e-9)
