import itertools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats

from citegen.baselines import (
    BaselineError,
    ConfigFit,
    ErFit,
    SbmFit,
    _urn_draw,
    fit_config,
    fit_er,
    fit_sbm,
    generate_config,
    generate_dcsbm,
    generate_er,
    generate_sbm,
)
from citegen.graph import _place_edges


# ---------------------------------------------------------------------- er


def test_fit_er_density(make_graph):
    graph = make_graph(3, [(0, 1), (2, 0)])
    assert fit_er(graph).p == pytest.approx(2.0 / 6.0)


def test_fit_er_degenerate_sizes(make_graph):
    assert fit_er(make_graph(0, [])).p == 0.0
    assert fit_er(make_graph(1, [])).p == 0.0


def test_generate_er_extremes():
    assert generate_er(ErFit(n=50, p=0.0), 0).num_edges == 0
    full = generate_er(ErFit(n=3, p=1.0), 0)
    assert full.num_edges == 6


def test_generate_er_rejects_bad_probability():
    with pytest.raises(BaselineError):
        generate_er(ErFit(n=3, p=1.5), 0)


def test_generate_er_edge_count_matches_expectation():
    # 200 nodes at p = 0.02 give 796 expected edges with sd about 28; the
    # mean over 30 replicates stays within five standard errors.
    fit = ErFit(n=200, p=0.02)
    counts = [generate_er(fit, s).num_edges for s in range(30)]
    expected = 200 * 199 * 0.02
    sd = np.sqrt(expected * 0.98)
    assert abs(np.mean(counts) - expected) < 5 * sd / np.sqrt(30)


def test_generate_er_deterministic():
    fit = ErFit(n=100, p=0.05)
    a = generate_er(fit, 9)
    b = generate_er(fit, 9)
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)


def er_walk_oracle(n, p, seed):
    """The scalar skip-sampling walk: one uniform, one geometric gap a step."""
    rng = np.random.default_rng(seed)
    total = n * (n - 1)
    log1mp = math.log1p(-p) if p < 1.0 else -math.inf
    src, dst = [], []
    idx = -1
    while True:
        if p >= 1.0:
            gap = 1
        else:
            gap = 1 + int(math.floor(math.log1p(-rng.random()) / log1mp))
        idx += gap
        if idx >= total:
            break
        s, off = divmod(idx, n - 1)
        src.append(s)
        dst.append(off if off < s else off + 1)
    return src, dst


@pytest.mark.parametrize("n", [2, 3, 17, 200])
@pytest.mark.parametrize("p", [1e-6, 0.003, 0.05, 0.5, 0.97, 1.0])
def test_generate_er_matches_scalar_walk(n, p):
    for seed in range(5):
        graph = generate_er(ErFit(n=n, p=p), seed)
        src, dst = er_walk_oracle(n, p, seed)
        assert graph.src.tolist() == src and graph.dst.tolist() == dst


def test_generate_er_matches_scalar_walk_over_several_chunks():
    # about 1.1M edges: more than one chunk of uniforms
    graph = generate_er(ErFit(n=1500, p=0.5), 3)
    src, dst = er_walk_oracle(1500, 0.5, 3)
    assert graph.src.tolist() == src and graph.dst.tolist() == dst


def test_generate_er_floor_ignores_last_bit_of_np_log1p(monkeypatch):
    # At p = 0.5 the uniforms u = 1 - 2^-j give gap ratios of exactly j.
    # np.log1p shifted up by one ulp puts each ratio just below j, so the
    # floor would follow the numpy build unless near-integer ratios are
    # recomputed with math.log1p, as the scalar walk does.
    values = [1.0 - 2.0 ** -j for j in range(1, 11)]

    class Uniforms:
        def __init__(self, seed):
            self.values = itertools.cycle(values)

        def random(self, size=None):
            if size is None:
                return next(self.values)
            return np.array([next(self.values) for _ in range(size)])

    log1p = np.log1p
    monkeypatch.setattr(np, "log1p", lambda x: np.nextafter(log1p(x), np.inf))
    monkeypatch.setattr(np.random, "default_rng", Uniforms)
    graph = generate_er(ErFit(n=30, p=0.5), 0)
    src, dst = er_walk_oracle(30, 0.5, 0)
    assert len(src) > 100
    assert graph.src.tolist() == src and graph.dst.tolist() == dst


# ------------------------------------------------------------------ config


def test_config_fit_validations():
    with pytest.raises(BaselineError, match="balance"):
        ConfigFit(out_seq=np.array([2, 0]), in_seq=np.array([1, 0]))
    with pytest.raises(BaselineError, match="length"):
        ConfigFit(out_seq=np.array([1]), in_seq=np.array([1, 0]))
    with pytest.raises(BaselineError, match="nonnegative"):
        ConfigFit(out_seq=np.array([-1, 2]), in_seq=np.array([1, 0]))


def test_fit_config_captures_degrees(make_graph):
    graph = make_graph(3, [(0, 1), (0, 2), (2, 1)])
    fit = fit_config(graph)
    assert fit.out_seq.tolist() == [2, 0, 1]
    assert fit.in_seq.tolist() == [0, 2, 1]


def test_generate_config_preserves_degrees_up_to_erasure():
    fit = ConfigFit(out_seq=np.array([2, 1, 0, 1]), in_seq=np.array([1, 1, 1, 1]))
    graph, erased = generate_config(fit, 3)
    d_out = np.bincount(graph.src, minlength=4)
    d_in = np.bincount(graph.dst, minlength=4)
    assert (d_out <= fit.out_seq).all()
    assert (d_in <= fit.in_seq).all()
    assert graph.num_edges == fit.out_seq.sum() - erased


def test_generate_config_erases_few_edges_on_citation_fit(dag_graph):
    fit = fit_config(dag_graph)
    graph, erased = generate_config(fit, 5)
    assert erased / dag_graph.num_edges < 0.03
    assert graph.num_edges == dag_graph.num_edges - erased


def test_generate_config_without_edges():
    for n in (0, 3):
        zeros = np.zeros(n, np.int64)
        fit = ConfigFit(out_seq=zeros, in_seq=zeros)
        graph, erased = generate_config(fit, 1)
        assert graph.num_nodes == n and graph.num_edges == 0
        assert erased == 0


def test_generate_config_deterministic(dag_graph):
    fit = fit_config(dag_graph)
    a, ea = generate_config(fit, 4)
    b, eb = generate_config(fit, 4)
    assert ea == eb
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)


# --------------------------------------------------------------------- sbm


def test_fit_sbm_block_counts(make_graph):
    graph = make_graph(4, [(0, 2), (2, 0), (1, 0)], labels=[0, 0, 1, 1])
    fit = fit_sbm(graph)
    assert fit.k == 2
    assert fit.sizes.tolist() == [2, 2]
    assert fit.block_edges.tolist() == [[1, 1], [1, 0]]
    assert fit.d_out.tolist() == [1, 1, 1, 0]
    assert fit.d_in.tolist() == [2, 0, 1, 0]


def test_fit_sbm_requires_labels(make_graph):
    graph = make_graph(3, [(0, 1)])
    with pytest.raises(BaselineError, match="label"):
        fit_sbm(graph)


def test_fit_sbm_rejects_an_empty_graph(make_graph):
    with pytest.raises(BaselineError, match="empty"):
        fit_sbm(make_graph(0, [], labels=[]))


def test_generate_sbm_matches_block_means():
    rng = np.random.default_rng(1)
    labels = np.repeat([0, 1], 30)
    target = np.array([[40, 10], [5, 30]])
    fit = SbmFit(labels=labels, block_edges=target,
                 d_out=np.ones(60, np.int64), d_in=np.ones(60, np.int64))
    totals = np.zeros((2, 2))
    reps = 40
    for s in range(reps):
        graph = generate_sbm(fit, s)
        refit = fit_sbm(graph)
        totals += refit.block_edges
    means = totals / reps
    # Poisson noise shrinks as 1/sqrt(reps); collision erasure costs at
    # most a couple of edges per block, so 15 percent is comfortable.
    assert np.all(np.abs(means - target) <= 0.15 * target)


def test_generate_sbm_keeps_labels_and_simplicity(dag_graph):
    fit = fit_sbm(dag_graph)
    graph = generate_sbm(fit, 2)
    assert np.array_equal(graph.labels, dag_graph.labels)
    assert graph.num_nodes == dag_graph.num_nodes


def test_generate_dcsbm_tracks_node_degrees(dag_graph):
    # Degree correction reproduces per-node in-degree heterogeneity; the
    # plain block model flattens it inside each block.
    fit = fit_sbm(dag_graph)
    din_dc = np.bincount(generate_dcsbm(fit, 0).dst, minlength=fit.labels.size)
    din_flat = np.bincount(generate_sbm(fit, 0).dst, minlength=fit.labels.size)
    corr_dc = np.corrcoef(fit.d_in, din_dc)[0, 1]
    corr_flat = np.corrcoef(fit.d_in, din_flat)[0, 1]
    assert corr_dc > 0.8
    assert corr_flat < 0.3


def test_generate_dcsbm_zero_propensity_block(make_graph, caplog):
    fit = SbmFit(labels=np.array([0, 0, 1, 1]),
                 block_edges=np.array([[0, 2], [0, 0]]),
                 d_out=np.zeros(4, np.int64), d_in=np.array([0, 0, 1, 1]))
    with caplog.at_level("WARNING"):
        graph = generate_dcsbm(fit, 0)
    assert graph.num_edges == 0
    assert "propensity" in caplog.text


def test_generate_sbm_block_without_room(caplog):
    fit = SbmFit(labels=np.array([0, 1, 1]),
                 block_edges=np.array([[3, 0], [0, 0]]),
                 d_out=np.zeros(3, np.int64), d_in=np.zeros(3, np.int64))
    with caplog.at_level("WARNING"):
        graph = generate_sbm(fit, 0)
    assert graph.num_edges == 0
    assert "no room" in caplog.text


def test_generate_sbm_truncates_to_available_pairs():
    fit = SbmFit(labels=np.array([0, 0]),
                 block_edges=np.array([[10]]),
                 d_out=np.ones(2, np.int64), d_in=np.ones(2, np.int64))
    graph = generate_sbm(fit, 0)
    assert graph.num_edges == 2


def test_place_block_edges_matches_per_edge_rejection():
    # Placement in rounds against the edge-by-edge rejection it replaces:
    # both keep the first `count` distinct non-self candidates of one
    # i.i.d. stream, so the frequencies of the placed edge sets agree
    # (two-sample chi-square).  The weighted pools make node 0 a likely
    # source and node 2 a likely target.
    pool_src = np.array([0, 0, 0, 1, 2])
    pool_dst = np.array([0, 1, 1, 2, 2, 2])
    n, count, reps = 3, 3, 10000
    rng = np.random.default_rng(1)
    rounds, oracle = Counter(), Counter()
    for _ in range(reps):
        keys = _place_edges(count, _urn_draw(pool_src, pool_dst, n, rng),
                            np.empty(0, np.int64))
        rounds[frozenset(keys.tolist())] += 1
        taken = set()
        while len(taken) < count:
            s = pool_src[rng.integers(pool_src.size)]
            t = pool_dst[rng.integers(pool_dst.size)]
            if s != t:
                taken.add(int(s * n + t))
        oracle[frozenset(taken)] += 1
    sets = set(rounds) | set(oracle)
    stat = sum((rounds[k] - oracle[k]) ** 2 / (rounds[k] + oracle[k])
               for k in sets)
    assert scipy.stats.chi2.sf(stat, len(sets) - 1) > 1e-4


def test_generate_sbm_deterministic(dag_graph):
    fit = fit_sbm(dag_graph)
    a = generate_sbm(fit, 8)
    b = generate_sbm(fit, 8)
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)


def test_sbm_fit_shape_validation():
    with pytest.raises(BaselineError, match="k x k"):
        SbmFit(labels=np.array([0, 1]), block_edges=np.array([[1]]),
               d_out=np.zeros(2, np.int64), d_in=np.zeros(2, np.int64))
