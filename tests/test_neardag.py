import logging
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from citegen import graph as graph_module
from citegen.baselines import ErFit, generate_er
from citegen.graph import LabeledGraph, is_acyclic
from citegen.neardag import (
    BACK_EDGE_GAP_P,
    INTRA_COMMUNITY_P,
    NearDagError,
    _eades_sequence,
    back_edge_count,
    back_edge_ratio,
    cycle_break,
    inject_back_edges,
    order_nodes,
)


def edge_set(graph):
    return set(zip(graph.src.tolist(), graph.dst.tolist()))


# ---------------------------------------------------------------- orderings


def test_order_degree_diff_chain(make_graph):
    # Scores out-in are 1, 0, -1, so node 0 is newest and node 2 oldest.
    graph = make_graph(3, [(0, 1), (1, 2)])
    ordering = order_nodes(graph, "degree-diff")
    assert ordering.rank.tolist() == [2, 1, 0]
    assert back_edge_ratio(graph, ordering) == 0.0


def test_order_degree_diff_tie_breaks_on_id(make_graph):
    # Both nodes score zero; the lower id is treated as newer, so exactly
    # one of the two edges violates the ordering.
    graph = make_graph(2, [(0, 1), (1, 0)])
    ordering = order_nodes(graph, "degree-diff")
    assert ordering.rank.tolist() == [1, 0]
    assert back_edge_ratio(graph, ordering) == 0.5


def test_order_timestamps_explicit(make_graph):
    graph = make_graph(3, [(0, 1)], timestamps=[5, 1, 3])
    ordering = order_nodes(graph, "timestamps")
    assert ordering.rank.tolist() == [2, 0, 1]


def test_order_timestamps_tie_breaks_on_id(make_graph):
    graph = make_graph(3, [(0, 1)], timestamps=[1, 1, 0])
    ordering = order_nodes(graph, "timestamps")
    assert ordering.rank.tolist() == [1, 2, 0]


def test_order_timestamps_from_graph_attribute(make_graph):
    graph = make_graph(2, [(0, 1)], timestamps=[4, 2])
    ordering = order_nodes(graph, "timestamps")
    assert ordering.rank.tolist() == [1, 0]
    assert back_edge_ratio(graph, ordering) == 0.0


def test_order_timestamps_missing_rejected(make_graph):
    graph = make_graph(2, [(1, 0)])
    with pytest.raises(NearDagError, match="timestamps"):
        order_nodes(graph, "timestamps")


def test_order_unknown_strategy_rejected(make_graph):
    graph = make_graph(2, [(1, 0)])
    with pytest.raises(NearDagError, match="strategy"):
        order_nodes(graph, "oldest-first")


def test_eades_on_dag_has_no_violations(dag_graph):
    ordering = order_nodes(dag_graph, "eades")
    assert back_edge_ratio(dag_graph, ordering) == 0.0


def test_eades_violates_at_most_half_the_edges(make_graph):
    # The greedy peeling heuristic guarantees the ordering keeps at least
    # half of the edges forward; check by enumeration on random digraphs.
    rng = np.random.default_rng(0)
    n = 10
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for _ in range(50):
        mask = rng.random(len(pairs)) < 0.3
        edges = [p for p, keep in zip(pairs, mask) if keep]
        if not edges:
            edges = [(0, 1)]
        graph = make_graph(n, edges)
        ordering = order_nodes(graph, "eades")
        rank = ordering.rank
        violations = int((rank[graph.src] < rank[graph.dst]).sum())
        assert 2 * violations <= graph.num_edges


def _eades_sequence_oracle(graph):
    """The numpy-scalar peeling that the list-based one replaced."""
    n = graph.num_nodes
    out_ptr, out_idx = graph.out_csr
    in_ptr, in_idx = graph.in_csr
    dout = (out_ptr[1:] - out_ptr[:-1]).astype(np.int64)
    din = (in_ptr[1:] - in_ptr[:-1]).astype(np.int64)
    alive = np.ones(n, bool)
    front: list = []
    back: list = []
    sinks = [v for v in range(n) if dout[v] == 0]
    sources = [v for v in range(n) if dout[v] > 0 and din[v] == 0]
    buckets: dict = {}

    def bucket_add(v):
        buckets.setdefault(dout[v] - din[v], []).append(v)

    for v in range(n):
        if dout[v] > 0 and din[v] > 0:
            bucket_add(v)

    def remove(v):
        alive[v] = False
        for w in out_idx[out_ptr[v]:out_ptr[v + 1]]:
            if alive[w]:
                din[w] -= 1
                if din[w] == 0 and dout[w] > 0:
                    sources.append(w)
                elif dout[w] > 0:
                    bucket_add(w)
        for w in in_idx[in_ptr[v]:in_ptr[v + 1]]:
            if alive[w]:
                dout[w] -= 1
                if dout[w] == 0:
                    sinks.append(w)
                else:
                    bucket_add(w)

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


def test_eades_sequence_matches_numpy_scalar_oracle(near_dag_graph,
                                                   make_graph):
    dense = generate_er(ErFit(n=300, p=0.2), 4)
    assert not is_acyclic(dense)
    isolated = make_graph(12, [(0, 1), (1, 2), (2, 0), (2, 5), (5, 0),
                               (7, 8), (8, 7), (9, 3)])
    for graph in (near_dag_graph, dense, isolated, make_graph(4, []),
                  make_graph(0, [])):
        assert np.array_equal(_eades_sequence(graph),
                              _eades_sequence_oracle(graph))


def test_eades_reads_the_graphs_cached_csr_views(make_graph, monkeypatch):
    builds = []
    for name in ("out_csr", "in_csr"):
        build = getattr(graph_module, name)
        monkeypatch.setattr(graph_module, name,
                            lambda g, build=build, name=name:
                            builds.append(name) or build(g))
    graph = make_graph(5, [(0, 1), (1, 2), (2, 0), (3, 2), (4, 3)])
    first = order_nodes(graph, "eades").rank
    assert np.array_equal(order_nodes(graph, "eades").rank, first)
    assert sorted(builds) == ["in_csr", "out_csr"]


# ---------------------------------------------------------------- ratios


def test_back_edge_ratio_requires_full_cover(make_graph, dag_graph):
    other = make_graph(2, [(1, 0)])
    ordering = order_nodes(other, "degree-diff")
    with pytest.raises(NearDagError, match="every node"):
        back_edge_ratio(dag_graph, ordering)


def test_back_edge_ratio_empty_graph(make_graph):
    graph = make_graph(3, [])
    ordering = order_nodes(graph, "degree-diff")
    assert back_edge_ratio(graph, ordering) == 0.0


def test_back_edge_ratio_warns_when_every_edge_violates(make_graph, caplog):
    graph = make_graph(2, [(0, 1)], timestamps=[0, 1])
    ordering = order_nodes(graph, "timestamps")
    with caplog.at_level(logging.WARNING):
        ratio = back_edge_ratio(graph, ordering)
    assert ratio == 1.0
    assert "orientation" in caplog.text


def test_back_edge_count_fixtures():
    assert back_edge_count(1000, 0.0) == 0
    assert back_edge_count(1000, 0.05) == 52
    assert back_edge_count(900, 0.1) == 100
    assert back_edge_count(800, 0.2) == 200


def test_back_edge_count_rejects_bad_ratio():
    with pytest.raises(NearDagError):
        back_edge_count(100, 1.0)
    with pytest.raises(NearDagError):
        back_edge_count(100, -0.1)


# ---------------------------------------------------------------- injection


def test_inject_zero_ratio_is_identity(dag_graph):
    assert inject_back_edges(dag_graph, 0.0, 1) is dag_graph


@pytest.mark.parametrize("r", [0.05, 0.1, 0.2])
def test_inject_exact_count_and_ratio(dag_graph, r):
    n_back = back_edge_count(dag_graph.num_edges, r)
    out = inject_back_edges(dag_graph, r, 11)
    assert out.num_edges == dag_graph.num_edges + n_back
    injected = int((out.src < out.dst).sum())
    assert injected == n_back
    aged = replace(out, timestamps=np.arange(out.num_nodes))
    ordering = order_nodes(aged, "timestamps")
    assert back_edge_ratio(out, ordering) == n_back / out.num_edges


def test_inject_strip_restores_input_dag(dag_graph, near_dag_graph):
    # Generated edges run new -> old (src > dst) while injected ones run
    # old -> new, so the id comparison separates them exactly.
    keep = near_dag_graph.src > near_dag_graph.dst
    stripped = LabeledGraph(
        num_nodes=near_dag_graph.num_nodes,
        src=near_dag_graph.src[keep], dst=near_dag_graph.dst[keep],
        labels=near_dag_graph.labels)
    assert edge_set(stripped) == edge_set(dag_graph)
    assert is_acyclic(stripped)


def test_inject_deterministic(dag_graph):
    a = inject_back_edges(dag_graph, 0.1, 7)
    b = inject_back_edges(dag_graph, 0.1, 7)
    c = inject_back_edges(dag_graph, 0.1, 8)
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)
    assert not (np.array_equal(a.src, c.src) and np.array_equal(a.dst, c.dst))


def test_inject_no_duplicate_edges(near_dag_graph):
    keys = near_dag_graph.src * near_dag_graph.num_nodes + near_dag_graph.dst
    assert np.unique(keys).size == keys.size


def test_inject_prefers_intra_community(near_dag_graph):
    mask = near_dag_graph.src < near_dag_graph.dst
    src = near_dag_graph.src[mask]
    dst = near_dag_graph.dst[mask]
    intra = (near_dag_graph.labels[src] == near_dag_graph.labels[dst]).mean()
    assert intra > 0.7


def test_inject_prefers_small_creation_gaps(near_dag_graph):
    # Gaps follow a geometric law with mean near ten; a uniform endpoint
    # choice over 1500 nodes would average around five hundred.
    mask = near_dag_graph.src < near_dag_graph.dst
    gaps = near_dag_graph.dst[mask] - near_dag_graph.src[mask]
    assert gaps.mean() < 50
    assert np.median(gaps) < 25


def test_inject_warns_when_candidates_run_out(make_graph, caplog):
    # Two nodes admit a single old -> new edge but the ratio asks for three.
    graph = make_graph(2, [(1, 0)])
    with caplog.at_level(logging.WARNING):
        out = inject_back_edges(graph, 0.75, 3)
    assert out.num_edges == 2
    assert "1 of 3" in caplog.text


def test_inject_skips_existing_old_to_new_edges(make_graph, caplog):
    # The input already holds four of the six old -> new pairs; only the
    # two free ones, (0, 3) and (2, 3), can be added.
    graph = make_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 0), (2, 0)])
    with caplog.at_level(logging.WARNING):
        out = inject_back_edges(graph, 0.5, 4)
    assert edge_set(out) - edge_set(graph) == {(0, 3), (2, 3)}
    assert "2 of 6" in caplog.text


def _inject_oracle(dag, r, rng):
    """Edge-by-edge rejection from scalar draws, intra-community slots
    first: the law ``inject_back_edges`` samples from."""
    n = dag.num_nodes
    labels = dag.labels.tolist()
    taken = edge_set(dag)
    eligible = [v for v in range(n) if labels[v] in labels[:v]]
    added = set()

    def place(intra):
        for _ in range(200):
            v = (eligible[rng.integers(len(eligible))] if intra
                 else int(rng.integers(n)))
            u = v - int(rng.geometric(BACK_EDGE_GAP_P))
            if u < 0 or (intra and labels[u] != labels[v]) \
                    or (u, v) in taken:
                continue
            taken.add((u, v))
            added.add((u, v))
            return True
        return False

    n_back = back_edge_count(dag.num_edges, r)
    n_intra = int(rng.binomial(n_back, INTRA_COMMUNITY_P)) if eligible else 0
    placed = sum(place(True) for _ in range(n_intra))
    for _ in range(n_back - placed):
        place(False)
    return frozenset(added)


def test_inject_matches_per_edge_rejection(make_graph):
    # The rounds of inject_back_edges against edge-by-edge rejection: the
    # frequencies of the placed back-edge sets agree (two-sample
    # chi-square).  Existing old -> new edges take every gap-1 pair, so
    # three back-edges crowd into the few pairs left, and the free
    # intra-community ones all have gaps of 3 or more.
    graph = make_graph(8, [(u, u + 1) for u in range(7)] + [(0, 2), (5, 7)],
                       labels=[0, 0, 1, 1, 0, 0, 1, 1])
    reps = 10000
    rng = np.random.default_rng(0)
    rounds, oracle = Counter(), Counter()
    for seed in range(reps):
        out = inject_back_edges(graph, 0.25, seed)
        rounds[frozenset(edge_set(out) - edge_set(graph))] += 1
        oracle[_inject_oracle(graph, 0.25, rng)] += 1
    assert all(len(placed) == 3 for placed in rounds)
    sets = set(rounds) | set(oracle)
    stat = sum((rounds[k] - oracle[k]) ** 2 / (rounds[k] + oracle[k])
               for k in sets)
    assert scipy.stats.chi2.sf(stat, len(sets) - 1) > 1e-4


def test_inject_gaps_reaching_below_node_zero(make_graph):
    # On 12 nodes a geometric gap often exceeds v + 12, so u = v - g lies
    # below -n, where reading labels[u] would raise.
    graph = make_graph(12, [(i + 1, i) for i in range(11)],
                       labels=[0, 1, 2] * 4)
    for seed in range(50):
        out = inject_back_edges(graph, 0.3, seed)
        added = out.src < out.dst
        assert added.sum() == back_edge_count(11, 0.3)
        assert (out.src[added] >= 0).all()


# ---------------------------------------------------------------- breaking


def test_cycle_break_triangle(make_graph):
    graph = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    out, report = cycle_break(graph, 0.0, 1, "degree-diff")
    assert edge_set(out) == {(0, 1), (1, 2), (0, 2)}
    assert is_acyclic(out)
    assert report.collapsed_edges == 0
    assert report.reversed_edges == 0
    assert report.back_edge_ratio == 0.0


def test_cycle_break_collapses_mutual_pairs(make_graph):
    graph = make_graph(2, [(0, 1), (1, 0)])
    out, report = cycle_break(graph, 0.0, 1, "degree-diff")
    assert edge_set(out) == {(0, 1)}
    assert report.collapsed_edges == 1


@pytest.mark.parametrize("r,expected", [(0.04, 0), (0.05, 1), (0.25, 3)])
def test_cycle_break_rounds_reversals_half_up(make_graph, r, expected):
    edges = [(i, i + 1) for i in range(10)]
    graph = make_graph(11, edges, timestamps=list(range(11)))
    out, report = cycle_break(graph, r, 2, "timestamps")
    assert report.reversed_edges == expected
    assert report.back_edge_ratio == pytest.approx(expected / 10)
    assert out.num_edges == 10


def test_cycle_break_consistent_dag_is_noop_and_idempotent(dag_graph):
    aged = replace(dag_graph, timestamps=np.arange(dag_graph.num_nodes))
    once, rep1 = cycle_break(aged, 0.0, 5, "timestamps")
    assert rep1.collapsed_edges == 0 and rep1.reversed_edges == 0
    assert edge_set(once) == edge_set(dag_graph)
    twice, rep2 = cycle_break(once, 0.0, 5, "timestamps")
    assert rep2.collapsed_edges == 0 and rep2.reversed_edges == 0
    assert edge_set(twice) == edge_set(once)


def test_cycle_break_reverses_exact_random_subset(dag_graph):
    aged = replace(dag_graph, timestamps=np.arange(dag_graph.num_nodes))
    base, _ = cycle_break(aged, 0.0, 3, "timestamps")
    out, report = cycle_break(aged, 0.1, 3, "timestamps")
    n_rev = int(np.floor(0.1 * base.num_edges + 0.5))
    assert report.reversed_edges == n_rev
    base_edges = edge_set(base)
    out_edges = edge_set(out)
    assert len(base_edges & out_edges) == base.num_edges - n_rev
    flipped = out_edges - base_edges
    assert len(flipped) == n_rev
    assert all((v, u) in base_edges for u, v in flipped)


def test_cycle_break_reverses_each_edge_with_frequency_r(make_graph):
    # Over many seeds every edge is reversed in about r of the runs.  The
    # per-edge counts are binomial and sum to seeds * n_rev, so the scaled
    # sum of squared deviations is chi-square with n_edges - 1 degrees
    # of freedom.
    n_edges, r, seeds = 20, 0.25, 2000
    graph = make_graph(n_edges + 1, [(i + 1, i) for i in range(n_edges)],
                       timestamps=list(range(n_edges + 1)))
    counts = np.zeros(n_edges)
    for seed in range(seeds):
        out, report = cycle_break(graph, r, seed, "timestamps")
        assert report.reversed_edges == 5
        counts[out.src[out.src < out.dst]] += 1
    var = seeds * r * (1 - r)
    stat = (n_edges - 1) / n_edges * ((counts - seeds * r) ** 2).sum() / var
    assert scipy.stats.chi2.sf(stat, n_edges - 1) > 1e-4


def test_cycle_break_deterministic(dag_graph):
    a, _ = cycle_break(dag_graph, 0.2, 9, "degree-diff")
    b, _ = cycle_break(dag_graph, 0.2, 9, "degree-diff")
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)


@pytest.mark.parametrize("strategy", ["timestamps", "degree-diff", "eades"])
def test_cycle_break_without_edges(make_graph, strategy):
    graph = make_graph(3, [], timestamps=[2, 0, 1])
    out, report = cycle_break(graph, 0.3, 1, strategy)
    assert out.num_nodes == 3 and out.num_edges == 0
    assert report.collapsed_edges == 0 and report.reversed_edges == 0
    assert report.back_edge_ratio == 0.0


def test_cycle_break_rejects_bad_ratio(make_graph):
    graph = make_graph(2, [(1, 0)])
    with pytest.raises(NearDagError):
        cycle_break(graph, 1.0, 1, "degree-diff")
