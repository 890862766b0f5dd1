import itertools
import math
import tracemalloc

import numpy as np
import pytest

from citegen.baselines import ErFit, fit_sbm, generate_dcsbm, generate_er
from citegen.generator import generate
from citegen.graph import LabeledGraph
from citegen.metrics import triads
from citegen.metrics.distances import MetricError
from citegen.metrics.triads import (TRIAD_NAMES, _classify_triples,
                                    _draw_triples, ffl_count, triad_census)
from citegen.neardag import inject_back_edges

# Independent representatives of the 16 directed triad classes, written
# with different node labellings than the library uses; classification
# goes through explicit permutation matching, so only the isomorphism
# class matters.
ORACLE_REPS = {
    "003": (),
    "012": ((2, 0),),
    "102": ((0, 2), (2, 0)),
    "021D": ((0, 1), (0, 2)),
    "021U": ((1, 0), (2, 0)),
    "021C": ((2, 0), (0, 1)),
    "111D": ((1, 2), (2, 1), (0, 2)),
    "111U": ((1, 2), (2, 1), (2, 0)),
    "030T": ((1, 0), (1, 2), (2, 0)),
    "030C": ((0, 2), (2, 1), (1, 0)),
    "201": ((0, 1), (1, 0), (0, 2), (2, 0)),
    "120D": ((0, 1), (0, 2), (1, 2), (2, 1)),
    "120U": ((1, 0), (2, 0), (1, 2), (2, 1)),
    "120C": ((1, 2), (2, 0), (1, 0), (0, 1)),
    "210": ((0, 1), (1, 0), (1, 2), (2, 1), (2, 0)),
    "300": ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)),
}

ALL_ARCS = ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1))


def build_oracle_table():
    orbits = {}
    for name, rep in ORACLE_REPS.items():
        for perm in itertools.permutations(range(3)):
            arcs = frozenset((perm[a], perm[b]) for a, b in rep)
            prev = orbits.setdefault(arcs, name)
            assert prev == name
    table = {}
    for bits in range(64):
        arcs = frozenset(arc for i, arc in enumerate(ALL_ARCS) if bits & (1 << i))
        table[arcs] = orbits[arcs]
    return table


ORACLE_TABLE = build_oracle_table()


def census_oracle(graph):
    edges = set(zip(graph.src.tolist(), graph.dst.tolist()))
    counts = dict.fromkeys(TRIAD_NAMES, 0)
    for i, j, k in itertools.combinations(range(graph.num_nodes), 3):
        trio = (i, j, k)
        arcs = frozenset(
            (a, b) for a in range(3) for b in range(3)
            if a != b and (trio[a], trio[b]) in edges)
        counts[ORACLE_TABLE[arcs]] += 1
    total = sum(counts.values())
    return np.array([counts[name] / total for name in TRIAD_NAMES])


def ffl_oracle(graph):
    edges = set(zip(graph.src.tolist(), graph.dst.tolist()))
    return sum(
        1 for a, b, c in itertools.permutations(range(graph.num_nodes), 3)
        if (a, b) in edges and (a, c) in edges and (b, c) in edges)


def random_digraph(make_graph, rng, n, p):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    mask = rng.random(len(pairs)) < p
    edges = [pair for pair, keep in zip(pairs, mask) if keep]
    if not edges:
        edges = [(0, 1)]
    return make_graph(n, edges)


@pytest.mark.parametrize("name", ["102", "021U", "030T", "030C", "111D", "300"])
def test_census_single_class_fixtures(make_graph, name):
    graph = make_graph(3, list(ORACLE_REPS[name]) or [(0, 1)])
    if name == "003":
        return
    census = triad_census(graph)
    expected = np.zeros(16)
    expected[TRIAD_NAMES.index(name)] = 1.0
    assert np.array_equal(census, expected)


def test_census_matches_brute_force_enumeration(make_graph):
    rng = np.random.default_rng(3)
    for _ in range(25):
        graph = random_digraph(make_graph, rng, 12, 0.25)
        assert np.allclose(triad_census(graph), census_oracle(graph),
                           atol=1e-15)


def test_census_rejects_tiny_graphs(make_graph):
    with pytest.raises(MetricError, match="3 nodes"):
        triad_census(make_graph(2, [(0, 1)]))


def test_census_proportions_sum_to_one(near_dag_graph):
    census = triad_census(near_dag_graph)
    assert census.sum() == pytest.approx(1.0)
    assert (census >= 0).all()


def test_sampled_census_close_to_exact():
    graph = generate_er(ErFit(n=300, p=0.03), 2)
    exact = triad_census(graph)
    sampled = triad_census(graph, n_samples=100_000, seed=1)
    assert np.abs(exact - sampled).sum() < 0.03


def test_sampled_census_deterministic(near_dag_graph):
    a = triad_census(near_dag_graph, n_samples=5000, seed=4)
    b = triad_census(near_dag_graph, n_samples=5000, seed=4)
    assert np.array_equal(a, b)


def test_triple_classifier_reproduces_exact_census(make_graph):
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = int(rng.integers(3, 16))
        graph = random_digraph(make_graph, rng, n, rng.uniform(0.05, 0.5))
        # every triple once, each in a random order of its three nodes
        triples = np.array(list(itertools.combinations(range(n), 3)))
        u, v, w = rng.permuted(triples, axis=1).T
        counts = _classify_triples(graph, u, v, w)
        assert counts.sum() == len(u)
        assert np.array_equal(counts / counts.sum(), triad_census(graph))
    # an edgeless graph has only empty triads, sampled or not
    empty = triad_census(make_graph(5, []), n_samples=100, seed=0)
    assert empty[TRIAD_NAMES.index("003")] == 1.0


def star_with_mutual_arcs(n):
    """Every leaf cites hub 0; the hub cites every 7th leaf back."""
    leaves = np.arange(1, n)
    back = leaves[::7]
    return LabeledGraph(num_nodes=n,
                        src=np.concatenate([leaves, np.zeros_like(back)]),
                        dst=np.concatenate([np.zeros_like(leaves), back]))


def star_census(n):
    """Triad counts of ``star_with_mutual_arcs(n)``, by hand.

    Three leaves are unlinked; the hub with two leaves makes 021U, 111D or
    201 as zero, one or two of the leaves are mutual.
    """
    mutual = len(range(1, n, 7))
    plain = n - 1 - mutual
    counts = dict.fromkeys(TRIAD_NAMES, 0)
    counts.update({"003": math.comb(n - 1, 3), "021U": math.comb(plain, 2),
                   "111D": plain * mutual, "201": math.comb(mutual, 2)})
    return np.array([counts[name] for name in TRIAD_NAMES])


def networkx_census(graph):
    nx = pytest.importorskip("networkx")
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(graph.num_nodes))
    digraph.add_edges_from(zip(graph.src.tolist(), graph.dst.tolist()))
    found = nx.triadic_census(digraph)
    return np.array([found[name] for name in TRIAD_NAMES])


def test_exact_census_matches_networkx(three_community_params):
    dag = generate(three_community_params, 1000, 5)
    graphs = [inject_back_edges(dag, 0.1, 6),
              generate_er(ErFit(n=400, p=0.02), 7),
              generate_dcsbm(fit_sbm(dag), 8),
              star_with_mutual_arcs(60)]
    for graph in graphs:
        counts = networkx_census(graph)
        assert np.array_equal(triad_census(graph), counts / counts.sum())
    # networkx takes about 40 s on the 3000-node star, so the hand count,
    # checked against networkx on the small star, stands in for it there
    assert np.array_equal(counts, star_census(60))
    counts = star_census(3000)
    assert np.array_equal(triad_census(star_with_mutual_arcs(3000)),
                          counts / counts.sum())


@pytest.mark.parametrize("wedge_block", [triads._WEDGE_BLOCK, 64])
def test_census_blocks_stay_small_on_hub_graphs(monkeypatch, wedge_block):
    # the hub's 4.5M wedges in one block would take about 220 MB
    graph = star_with_mutual_arcs(3000)
    expected = triad_census(graph)
    monkeypatch.setattr(triads, "_WEDGE_BLOCK", wedge_block)
    tracemalloc.start()
    try:
        census = triad_census(graph)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert np.array_equal(census, expected)


@pytest.mark.parametrize("n", [3, 4, 7, 50])
def test_drawn_triples_are_distinct_and_uniform(n):
    u, v, w = _draw_triples(n, 60_000, np.random.default_rng(n))
    assert ((u != v) & (u != w) & (v != w)).all()
    for column in (u, v, w):
        assert column.min() >= 0 and column.max() < n
    if n == 3:
        # all six orderings of {0, 1, 2}, each about 10k times
        codes, hits = np.unique(u * 9 + v * 3 + w, return_counts=True)
        assert codes.size == 6
        assert np.abs(hits - 10_000).max() < 500


def test_ffl_fixtures(make_graph):
    transitive = make_graph(3, [(1, 0), (1, 2), (2, 0)])
    assert ffl_count(transitive) == 1
    cycle = make_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert ffl_count(cycle) == 0
    mutual = make_graph(3, list(ORACLE_REPS["300"]))
    assert ffl_count(mutual) == 6
    chain = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert ffl_count(chain) == 0


def test_ffl_matches_brute_force(make_graph):
    rng = np.random.default_rng(11)
    for _ in range(25):
        graph = random_digraph(make_graph, rng, 12, 0.3)
        assert ffl_count(graph) == ffl_oracle(graph)
