import math

import numpy as np
import pytest
import scipy.stats

from citegen.generator import (CsParams, ParamError, _draw_node_streams,
                               _urn_walk, derive, effective_preferentiality,
                               empirical_ccdf, expected_indegree, generate,
                               ks_to_pareto2, pareto2_ccdf)
from citegen.graph import is_acyclic


# --- parameters ------------------------------------------------------------

def test_generate_takes_only_an_integer_node_count():
    params = CsParams(p=(0.6, 0.4), m=(3.0, 2.0), rho=(0.5, 0.5),
                      sigma2=(3.0, 2.0))
    for n in (300.7, 300.0, True, "300"):
        with pytest.raises(ParamError, match="^n must be an integer, got"):
            generate(params, n, 1)
    a, b = generate(params, np.int64(300), 1), generate(params, 300, 1)
    assert a.num_nodes == b.num_nodes == 300
    assert np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst)


def test_params_validation():
    with pytest.raises(ParamError):
        CsParams(p=(0.5, 0.4), m=(3.0, 3.0), rho=(0.5, 0.5), sigma2=(3.0, 3.0))
    with pytest.raises(ParamError):
        CsParams(p=(1.0,), m=(0.0,), rho=(0.5,), sigma2=(1.0,))
    with pytest.raises(ParamError):
        CsParams(p=(1.0,), m=(3.0,), rho=(1.5,), sigma2=(1.0,))
    with pytest.raises(ParamError):
        CsParams(p=(1.0,), m=(3.0,), rho=(0.5,), sigma2=(-1.0,))
    with pytest.raises(ParamError):
        CsParams(p=(0.5, 0.5), m=(3.0,), rho=(0.5, 0.5), sigma2=(1.0, 1.0))


@pytest.mark.parametrize("field, what", [
    ("p", "community probabilities"), ("m", "mean out-degrees"),
    ("sigma2", "out-degree variances"), ("rho", "preferential fractions")])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_params_name_a_value_that_is_not_finite(field, what, bad):
    # the finiteness check is its own error, apart from each bound
    values = dict(p=(1.0,), m=(3.0,), rho=(0.5,), sigma2=(1.0,))
    values[field] = (bad,)
    with pytest.raises(ParamError, match=f"^{what} must be finite$"):
        CsParams(**values)


def test_params_rho_clamped_to_open_interval():
    params = CsParams(p=(0.5, 0.5), m=(3.0, 3.0), rho=(0.0, 1.0),
                      sigma2=(3.0, 3.0))
    assert params.rho[0] == pytest.approx(1e-3)
    assert params.rho[1] == pytest.approx(1 - 1e-3)


def test_params_json_round_trip(three_community_params):
    text = three_community_params.to_json()
    back = CsParams.from_json(text)
    assert np.allclose(back.p, three_community_params.p)
    assert np.allclose(back.m, three_community_params.m)
    assert np.allclose(back.rho, three_community_params.rho)
    assert np.allclose(back.sigma2, three_community_params.sigma2)
    with pytest.raises(ParamError):
        CsParams.from_json("{\"k\": 2}")


# --- derived quantities ------------------------------------------------------

def test_derive_two_community_by_hand():
    # <a> = 0.6*5*0.8 + 0.4*3*0.5 = 3.0
    # nu_1 = 1.0/(3+1) = 0.25, nu_2 = 1.5/(3+1.5) = 1/3
    params = CsParams(p=(0.6, 0.4), m=(5.0, 3.0), rho=(0.2, 0.5),
                      sigma2=(5.0, 3.0))
    d = derive(params)
    assert d.mean_accidental == pytest.approx(3.0)
    assert d.nu[0] == pytest.approx(0.25)
    assert d.nu[1] == pytest.approx(1.0 / 3.0)


def test_effective_preferentiality_rejects_zero_denominator():
    with pytest.raises(ParamError):
        effective_preferentiality(np.array([1.0]), np.array([0.0]),
                                  np.array([0.5]))


def test_expected_indegree_matches_product_oracle():
    # Gamma(t)Gamma(ell-nu) / (Gamma(t-nu)Gamma(ell)) telescopes into the
    # product of s/(s-nu) over s = ell..t-1; evaluate that directly.
    nu, a = 0.35, 2.4
    for ell, t in [(1, 2), (1, 12), (3, 50), (7, 8), (20, 200)]:
        ratio = 1.0
        for s in range(ell, t):
            ratio *= s / (s - nu)
        oracle = (a / nu) * (ratio - 1.0)
        assert expected_indegree(ell, t, nu, a) == pytest.approx(oracle,
                                                                 rel=1e-10)


def test_expected_indegree_edge_values():
    assert expected_indegree(5, 5, 0.4, 2.0) == pytest.approx(0.0)
    older = expected_indegree(1, 100, 0.4, 2.0)
    newer = expected_indegree(50, 100, 0.4, 2.0)
    assert older > newer > 0


def test_expected_indegree_small_nu_harmonic_limit():
    # As nu -> 0 the law degenerates to a * (H_{t-1} - H_{ell-1}).
    a, ell, t = 3.0, 4, 60
    harmonic = sum(1.0 / s for s in range(ell, t))
    assert expected_indegree(ell, t, 1e-6, a) == pytest.approx(a * harmonic,
                                                               rel=1e-4)


def test_expected_indegree_domain():
    with pytest.raises(ParamError):
        expected_indegree(0, 5, 0.4, 2.0)
    with pytest.raises(ParamError):
        expected_indegree(6, 5, 0.4, 2.0)
    with pytest.raises(ParamError):
        expected_indegree(1, 5, 1.2, 2.0)


def test_pareto2_ccdf_closed_form():
    # nu=0.5, a=3 -> alpha=2, lam=6; CCDF(6) = (1 + 1)^-2 = 0.25
    assert pareto2_ccdf(0.0, 0.5, 3.0) == pytest.approx(1.0)
    assert pareto2_ccdf(6.0, 0.5, 3.0) == pytest.approx(0.25)
    values = pareto2_ccdf(np.array([0.0, 1.0, 5.0, 50.0]), 0.3, 2.0)
    assert (np.diff(values) < 0).all()


def test_empirical_ccdf_fixture():
    support, ccdf = empirical_ccdf(np.array([0, 0, 1, 3]))
    assert support.tolist() == [0, 1, 2, 3]
    assert ccdf.tolist() == [1.0, 0.5, 0.25, 0.25]


def test_ks_to_pareto2_by_hand():
    sample = np.array([0, 0, 1, 3])
    nu, a = 0.5, 3.0
    emp = np.array([1.0, 0.5, 0.25, 0.25])
    theory = np.array([pareto2_ccdf(j, nu, a) for j in range(4)])
    expected_plain = np.abs(emp - theory).max()
    theory_half = np.array([pareto2_ccdf(j - 0.5, nu, a) for j in range(1, 4)])
    expected_corr = np.abs(emp[1:] - theory_half).max()
    plain, corrected = ks_to_pareto2(sample, nu, a)
    assert plain == pytest.approx(expected_plain)
    assert corrected == pytest.approx(expected_corr)


def test_ks_bulk_quantile_restricts_support():
    sample = np.array([0, 0, 1, 3])
    # 0.75 quantile = 1.5, so only degrees 0 and 1 remain in the bulk
    nu, a = 0.5, 3.0
    emp = np.array([1.0, 0.5])
    theory = np.array([pareto2_ccdf(j, nu, a) for j in range(2)])
    plain, _ = ks_to_pareto2(sample, nu, a, bulk_quantile=0.75)
    assert plain == pytest.approx(np.abs(emp - theory).max())


# --- samplers ----------------------------------------------------------------

def out_degrees(m, sigma2, count, seed, skip=50):
    """``count`` out-degree draws of one community, past the first ``skip``
    nodes, where the clip at the node id could bite."""
    params = CsParams(p=(1.0,), m=(m,), rho=(0.5,), sigma2=(sigma2,))
    _, d, _, _ = _draw_node_streams(params, 1 + skip + count, seed)
    return d[1 + skip:]


def test_out_degree_poisson_moments_and_fit():
    m = 4.0
    draws = out_degrees(m, m, 20000, 0)
    assert draws.mean() == pytest.approx(m, abs=4 * math.sqrt(m / 20000))
    counts = np.bincount(draws, minlength=15)[:15]
    expected = scipy.stats.poisson.pmf(np.arange(15), m) * draws.size
    keep = expected > 5
    chi2 = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    assert scipy.stats.chi2.sf(chi2, keep.sum() - 1) > 1e-4


def test_out_degree_negative_binomial_moments_and_fit():
    m, sigma2 = 4.0, 10.0
    draws = out_degrees(m, sigma2, 20000, 1)
    assert draws.mean() == pytest.approx(m, abs=4 * math.sqrt(sigma2 / 20000))
    assert draws.var() == pytest.approx(sigma2, rel=0.15)
    r = m * m / (sigma2 - m)
    p_nb = r / (r + m)
    counts = np.bincount(draws, minlength=20)[:20]
    expected = scipy.stats.nbinom.pmf(np.arange(20), r, p_nb) * draws.size
    keep = expected > 5
    chi2 = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
    assert scipy.stats.chi2.sf(chi2, keep.sum() - 1) > 1e-4


def test_out_degree_truncates_at_upper():
    # node v can cite at most the v nodes before it; seeds cite nothing
    params = CsParams(p=(0.5, 0.5), m=(30.0, 40.0), rho=(0.5, 0.5),
                      sigma2=(60.0, 40.0))
    _, d, n_acc, _ = _draw_node_streams(params, 500, 2)
    ids = np.arange(500)
    assert (d <= ids).all()
    assert d[:2].tolist() == [0, 0]
    assert d[2:10].tolist() == list(range(2, 10))
    assert (d[2:] > 0).all()
    assert (n_acc[:2] == 0).all()


def test_split_edges_binomial_moments():
    rho = (0.3, 0.8)
    params = CsParams(p=(0.5, 0.5), m=(10.0, 10.0), rho=rho,
                      sigma2=(10.0, 30.0))
    labels, d, n_acc, _ = _draw_node_streams(params, 20000, 3)
    assert (n_acc >= 0).all() and (n_acc <= d).all()
    for c in range(2):
        mask = labels == c
        total = d[mask].sum()
        sd = math.sqrt(total * rho[c] * (1 - rho[c]))
        assert n_acc[mask].sum() == pytest.approx(total * (1 - rho[c]),
                                                  abs=4 * sd)
        # the split is binomial given d: check the nodes with d = 10
        ten = mask & (d == 10)
        sd10 = math.sqrt(10 * rho[c] * (1 - rho[c]))
        assert n_acc[ten].mean() == pytest.approx(
            10 * (1 - rho[c]), abs=4 * sd10 / math.sqrt(ten.sum()))


def test_node_streams_match_scalar_draws():
    # Reference: the per-node scalar loops the array draws replaced.  A
    # community is the first cumulative share above one uniform; each
    # edge is accidental when one uniform falls below 1 - rho.
    params = CsParams(p=(0.2, 0.5, 0.3), m=(3.0, 6.0, 2.0),
                      rho=(0.3, 0.6, 0.9), sigma2=(3.0, 20.0, 1.0))
    n, seed = 3000, 17
    labels, d, n_acc, _ = _draw_node_streams(params, n, seed)
    rng_cat, _, rng_split, _, _ = (
        np.random.default_rng(child)
        for child in np.random.SeedSequence(seed).spawn(5))
    cum_p = np.cumsum(params.p)
    for v in range(params.k, n):
        u = rng_cat.random()
        c = next((i for i in range(params.k) if u < cum_p[i]), params.k - 1)
        assert labels[v] == c
        acc = sum(rng_split.random() < 1.0 - params.rho[c] for _ in range(d[v]))
        assert n_acc[v] == acc


def preferential_targets(urn, n_old, calls, rng):
    """Targets of one new node making a single preferential draw.

    Nodes 0..n_old-1 form the one community and ``urn`` is its urn;
    the state is rebuilt for every call, so all draws see the same urn.
    Each call passes the walk one uniform of ``rng``.
    """
    n = n_old + 1
    labels = np.zeros(n, np.int64)
    d = np.zeros(n, np.int64)
    d[-1] = 1
    n_acc = np.zeros(n, np.int64)
    members = np.arange(n, dtype=np.int64)
    starts = np.zeros(1, np.int64)
    out = []
    for _ in range(calls):
        src, dst = _urn_walk(labels, d, n_acc, members, starts, [list(urn)],
                             rng.random(1))
        assert src.tolist() == [n_old]
        out.append(int(dst[0]))
    return np.array(out)


def test_draw_preferential_proportional_to_multiplicity():
    draws = preferential_targets([0, 0, 1], 2, 30000, np.random.default_rng(4))
    freq0 = (draws == 0).mean()
    assert freq0 == pytest.approx(2.0 / 3.0, abs=0.02)


def test_draw_preferential_cold_start_excludes_new_node():
    # an empty urn falls back to the community's earlier members
    draws = preferential_targets([], 3, 300, np.random.default_rng(5))
    assert set(draws.tolist()) == {0, 1, 2}


# --- generation ---------------------------------------------------------------

def gen_dag_oracle(labels, d, n_acc, members, starts, rng_tgt):
    """The urn walk drawing each target uniform when it needs it.

    Every target attempt calls ``rng_tgt.random()`` once and scales it to
    an index below the range, accidental attempts first, so the walk,
    which reads the same uniforms from an array, must give the same edges.
    """
    def rand_below(rng, n):
        j = int(rng.random() * n)
        if j >= n:
            j = n - 1
        return j

    n = labels.shape[0]
    k = starts.shape[0]
    urns = [[] for _ in range(k)]
    mem_n = np.ones(k, np.int64)
    total = d.sum()
    esrc = np.empty(total, np.int64)
    edst = np.empty(total, np.int64)
    ne = 0
    for v in range(k, n):
        c = labels[v]
        na = n_acc[v]
        first = ne
        for a in range(d[v]):
            if a < na:
                u = rand_below(rng_tgt, v)
            elif urns[c]:
                u = urns[c][rand_below(rng_tgt, len(urns[c]))]
            else:
                u = members[starts[c] + rand_below(rng_tgt, mem_n[c])]
            dup = False
            for j in range(first, ne):
                if edst[j] == u:
                    dup = True
                    break
            if not dup:
                esrc[ne] = v
                edst[ne] = u
                ne += 1
        for j in range(first, ne):
            urns[labels[edst[j]]].append(edst[j])
        mem_n[c] += 1
    return esrc[:ne].copy(), edst[:ne].copy()


@pytest.mark.parametrize("p,m,rho,sigma2,n,seed", [
    # one community
    ((1.0,), (5.0,), (0.5,), (5.0,), 800, 1),
    # sigma2 > m: Gamma-Poisson out-degrees
    ((0.5, 0.3, 0.2), (5.0, 4.0, 3.0), (0.3, 0.5, 0.7), (9.0, 8.0, 4.0),
     1500, 2),
    # n = k: only the seed nodes, no edges
    ((0.5, 0.3, 0.2), (5.0, 4.0, 3.0), (0.3, 0.5, 0.7), (9.0, 8.0, 4.0),
     3, 3),
    # nearly all draws preferential over small communities: many draws
    # fall back to the members of a community whose urn is still empty
    ((0.25, 0.25, 0.25, 0.25), (3.0, 3.0, 3.0, 3.0),
     (0.999, 0.999, 0.999, 0.999), (3.0, 3.0, 3.0, 3.0), 60, 4),
    # the five communities of benchmarks/output_digests.py
    ((0.1, 0.2, 0.3, 0.25, 0.15), (2.0, 8.0, 3.0, 40.0, 1.0),
     (0.9, 0.1, 0.5, 0.6, 0.2), (1.0, 30.0, 3.0, 400.0, 0.5), 2000, 5),
])
def test_generate_matches_scalar_draw_oracle(p, m, rho, sigma2, n, seed):
    params = CsParams(p=p, m=m, rho=rho, sigma2=sigma2)
    graph = generate(params, n, seed)
    labels, d, n_acc, _ = _draw_node_streams(params, n, seed)
    members = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[members], np.arange(params.k))
    # the target stream is the fourth of the five spawned children
    rng_tgt = np.random.default_rng(np.random.SeedSequence(seed).spawn(5)[3])
    src, dst = gen_dag_oracle(labels, d, n_acc, members, starts, rng_tgt)
    assert graph.src.tobytes() == src.tobytes()
    assert graph.dst.tobytes() == dst.tobytes()


def test_gen_dag_top_uniform_stays_in_range():
    # The largest double below 1 resolves to the last index of each range:
    # node 1's cold-start draw to the only earlier member, each accidental
    # draw to node v - 1, and each urn draw to the urn's last entry
    # (node 0, after the urn fills as [0], then [0, 1, 0]).
    labels = np.zeros(4, np.int64)
    d = np.array([0, 1, 2, 2], np.int64)
    n_acc = np.array([0, 0, 1, 1], np.int64)
    u_tgt = np.full(int(d.sum()), np.nextafter(1.0, 0.0))
    src, dst = _urn_walk(labels, d, n_acc, np.arange(4, dtype=np.int64),
                         np.zeros(1, np.int64), [[]], u_tgt)
    assert src.tolist() == [1, 2, 2, 3, 3]
    assert dst.tolist() == [0, 1, 0, 2, 0]


def test_generate_seeds_and_direction(three_community_params, dag_graph):
    k = three_community_params.k
    assert dag_graph.labels[:k].tolist() == list(range(k))
    assert (dag_graph.src >= k).all()
    assert (dag_graph.src > dag_graph.dst).all()
    assert is_acyclic(dag_graph)
    assert dag_graph.labels.min() >= 0
    assert dag_graph.labels.max() < k


def test_generate_determinism(three_community_params):
    a = generate(three_community_params, 400, 11)
    b = generate(three_community_params, 400, 11)
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.labels, b.labels)
    c = generate(three_community_params, 400, 12)
    assert not np.array_equal(a.src, c.src)


def test_generate_prefix_property(three_community_params):
    short = generate(three_community_params, 300, 5)
    long = generate(three_community_params, 600, 5)
    assert np.array_equal(long.labels[:300], short.labels)
    cut = np.searchsorted(long.src, 300)
    assert cut == short.num_edges
    assert np.array_equal(long.src[:cut], short.src)
    assert np.array_equal(long.dst[:cut], short.dst)


def test_generate_rejects_n_below_k(three_community_params):
    with pytest.raises(ParamError):
        generate(three_community_params, 2, 0)


def test_generate_single_community():
    params = CsParams(p=(1.0,), m=(3.0,), rho=(0.5,), sigma2=(3.0,))
    graph = generate(params, 200, 1)
    assert graph.num_nodes == 200
    assert (graph.labels == 0).all()
    assert is_acyclic(graph)


def test_urn_multiplicity_equals_in_degree(three_community_params):
    # Replay generate()'s setup so the walk's urn state can be inspected:
    # after the run, node u must appear in its community urn exactly
    # d_in(u) times.
    params = three_community_params
    n, seed = 500, 13
    k = params.k
    labels, d, n_acc, u_tgt = _draw_node_streams(params, n, seed)
    members = np.argsort(labels, kind="stable")
    starts = np.searchsorted(labels[members], np.arange(k))
    urns = [[] for _ in range(k)]
    src, dst = _urn_walk(labels, d, n_acc, members, starts, urns, u_tgt)

    reference = generate(params, n, seed)
    assert np.array_equal(src, reference.src)
    assert np.array_equal(dst, reference.dst)
    assert np.array_equal(labels, reference.labels)

    d_in = np.bincount(dst, minlength=n)
    for c in range(k):
        urn = np.array(urns[c], np.int64)
        counts = np.bincount(urn, minlength=n)
        community = labels == c
        assert np.array_equal(counts[community], d_in[community])
        assert counts[~community].sum() == 0
        assert np.array_equal(members[starts[c]:starts[c] + community.sum()],
                              np.flatnonzero(community))
    # each node cites d[v] targets before deduplication, never more
    assert (np.bincount(src, minlength=n) <= d).all()


def test_generate_mean_out_degree(three_community_params):
    graph = generate(three_community_params, 4000, 21)
    d_out = graph.d_out
    for c in range(three_community_params.k):
        mask = graph.labels == c
        mask[three_community_params.k:] &= True
        sample = d_out[mask & (np.arange(4000) >= 50)]
        assert sample.mean() == pytest.approx(
            three_community_params.m[c], rel=0.12)
