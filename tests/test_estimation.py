import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import citegen
from citegen.estimation import (NU_MAX, NU_MIN, EstimationError, _brentq,
                                _fit_nu, community_stats, estimate, gini,
                                waring_gini)
from citegen.generator import CsParams, derive, generate


def pairwise_gini(values):
    values = np.asarray(values, np.float64)
    n = values.size
    diffs = np.abs(values[:, None] - values[None, :]).sum()
    return diffs / (2.0 * n * n * values.mean())


def waring_gini_oracle(nu, mu, terms=1_000_000):
    """Gini of the Waring law by its plain recursion, truncated at ``terms``.

    P_0 = 1/(1 + nu A), P_k = P_{k-1} nu (k-1+A) / (1 + nu (k+A)) with
    A = mu (1 - nu) / nu; S_k = 1 - sum_{j<k} P_j; G = 1 - sum S_k^2 / mu.
    """
    a = mu * (1.0 - nu) / nu
    j = np.arange(1, terms + 1, dtype=np.float64)
    p0 = 1.0 / (1.0 + nu * a)
    p = p0 * np.cumprod(nu * (j - 1.0 + a) / (1.0 + nu * (j + a)))
    s = 1.0 - p0 - np.concatenate(([0.0], np.cumsum(p[:-1])))
    return 1.0 - np.sum(s * s) / mu


def test_gini_fixture():
    assert gini([0, 0, 0, 1]) == pytest.approx(0.75)
    assert gini([1, 1, 1, 1]) == pytest.approx(0.0)
    assert gini([0, 0, 0, 0]) == 0.0


def test_gini_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for _ in range(25):
        values = rng.integers(0, 40, size=rng.integers(2, 60))
        if values.sum() == 0:
            continue
        assert abs(gini(values) - pairwise_gini(values)) <= 1e-12


def test_gini_scale_invariance():
    rng = np.random.default_rng(1)
    values = rng.integers(0, 30, size=50).astype(float)
    values[0] = 3.0
    assert gini(values * 17.5) == pytest.approx(gini(values), abs=1e-12)


def test_gini_rejects_bad_input():
    with pytest.raises(EstimationError):
        gini([])
    with pytest.raises(EstimationError):
        gini([1.0, -2.0])


def test_community_stats_hand_graph(make_graph):
    # community 0 = {0, 2}, community 1 = {1, 3}; edges 2->0, 3->0, 3->1
    graph = make_graph(4, [(2, 0), (3, 0), (3, 1)], labels=[0, 1, 0, 1])
    stats = community_stats(graph)
    assert stats.sizes.tolist() == [2, 2]
    assert stats.out_totals.tolist() == [1, 2]
    assert stats.in_totals.tolist() == [2, 1]
    assert stats.gini_in[0] == pytest.approx(gini([2, 0]))
    assert stats.gini_in[1] == pytest.approx(gini([1, 0]))


def test_estimate_ratio_formulas(make_graph):
    # m-hat multiplies out-degree totals by 1/(N_i - 1), matching a growth
    # process in which community seeds emit no edges.
    edges = [(2, 0), (2, 1), (3, 0), (3, 2), (4, 0), (4, 3)]
    graph = make_graph(5, edges, labels=[0, 0, 0, 0, 0])
    fit = estimate(graph)
    assert fit.params.p[0] == pytest.approx(1.0)
    assert fit.params.m[0] == pytest.approx(6.0 / 4.0)


def test_estimate_rho_fixture_point_one(make_graph):
    # Community 0 realizes Gini 0.75 (in-degrees 0,0,0,1), in-total 1, and
    # out-total 4 over 4 members; the closed-form inversion gives exactly
    # 0.1.  The corrected value comes from the discrete law: bisect the
    # recursion's Gini for the nu that matches the s/(s-1)-scaled sample
    # Gini, then rho = nu mu / m.
    edges = [(1, 4), (2, 4), (3, 4), (3, 5), (5, 3)]
    graph = make_graph(6, edges, labels=[0, 0, 0, 0, 1, 1])
    stats = community_stats(graph)
    assert stats.gini_in[0] == pytest.approx(0.75)
    assert stats.in_totals[0] == 1
    assert stats.out_totals[0] == 4
    fit = estimate(graph)
    assert fit.rho_raw[0] == pytest.approx(0.1)
    assert not fit.clamped_low[0] and not fit.clamped_high[0]

    # s = 4 members: scaled Gini 0.75 * 4/3, mu = 1/4, m = 4/(4-1)
    target = 0.75 * 4 / 3
    mu, m = 1 / 4, 4 / 3
    lo, hi = NU_MIN, NU_MAX
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if waring_gini_oracle(mid, mu, terms=200_000) < target:
            lo = mid
        else:
            hi = mid
    assert fit.params.rho[0] == pytest.approx(0.5 * (lo + hi) * mu / m,
                                              abs=1e-6)


def test_estimate_clamps_and_flags(make_graph):
    # In-degrees [2, 2, 0, 0] give Gini 0.5 with in-total and out-total both
    # 4, so the raw inversion is 4 / -2 = -2, hitting the lower clamp.
    edges = [(2, 0), (2, 1), (3, 0), (3, 1)]
    graph = make_graph(4, edges, labels=[0] * 4)
    fit = estimate(graph)
    assert fit.rho_raw[0] == pytest.approx(-2.0)
    assert fit.clamped_low[0]
    assert fit.params.rho[0] == pytest.approx(1e-3)
    assert fit.any_clamped


def test_estimate_clamps_high_on_uniform_cycle(make_graph):
    # A 4-cycle has uniform in-degrees, Gini 0, so the raw inversion is
    # 16 / 4 = 4, above one, hitting the upper clamp.
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    graph = make_graph(4, edges, labels=[0] * 4)
    fit = estimate(graph)
    assert fit.rho_raw[0] == pytest.approx(4.0)
    assert fit.clamped_high[0]
    assert fit.params.rho[0] == pytest.approx(1.0 - 1e-3)
    assert fit.any_clamped


def test_estimate_rejects_singleton_community(make_graph):
    graph = make_graph(3, [(2, 0)], labels=[0, 1, 0])
    with pytest.raises(EstimationError, match="1"):
        estimate(graph)


def test_estimate_rejects_a_community_that_cites_nothing(make_graph):
    # community 2 (nodes 5 and 6) is cited but cites nothing
    graph = make_graph(7, [(1, 0), (2, 0), (3, 1), (4, 2), (4, 5)],
                       labels=[0, 0, 0, 1, 1, 2, 2])
    with pytest.raises(EstimationError, match="cite nothing.*: 2$"):
        estimate(graph)


def test_estimate_requires_labels(make_graph):
    with pytest.raises(EstimationError):
        estimate(make_graph(3, [(2, 0)]))


def test_estimate_recovers_p_m_sigma2():
    params = CsParams(p=(0.55, 0.45), m=(6.0, 3.5), rho=(0.3, 0.6),
                      sigma2=(12.0, 3.5))
    graph = generate(params, 20000, 3)
    fit = estimate(graph)
    n = graph.num_nodes
    for c in range(2):
        se = np.sqrt(params.p[c] * (1 - params.p[c]) / n)
        assert abs(fit.params.p[c] - params.p[c]) <= 3 * se
        assert fit.params.m[c] == pytest.approx(params.m[c], rel=0.03)
        assert fit.params.sigma2[c] == pytest.approx(params.sigma2[c],
                                                     rel=0.15)


def test_estimate_rho_bias_is_upward_and_shrinks_with_m():
    # The name records the defect this guards against: inverting the
    # continuous-law Gini overstated rho (by 0.12 at m=5), because the
    # integer in-degrees follow the discrete Waring law, whose Gini is higher.
    # Fitting the discrete law removes the bias at small and large m alike.
    bias = {}
    for m in (5.0, 40.0):
        params = CsParams(p=(1.0,), m=(m,), rho=(0.5,), sigma2=(m,))
        graph = generate(params, 30000, 7)
        fit = estimate(graph)
        bias[m] = fit.params.rho[0] - 0.5
    assert abs(bias[5.0]) <= 0.02
    assert abs(bias[40.0]) <= 0.02


def test_waring_gini_matches_recursion_oracle():
    # Truncating the oracle at 1e6 terms leaves under 3e-9 of the sum at
    # these points, including the slow nu >= 0.9 tails.
    for nu, mu in ((0.05, 5.0), (0.3, 1.0), (0.3, 40.0), (0.6, 0.25),
                   (0.6, 5.0), (0.9, 1.0), (0.9, 5.0), (0.95, 5.0)):
        assert waring_gini(nu, mu) == pytest.approx(
            waring_gini_oracle(nu, mu), abs=1e-8), (nu, mu)


def test_waring_gini_matches_generated_communities(three_community_params):
    params = three_community_params
    graph = generate(params, 30000, 1)
    stats = community_stats(graph)
    derived = derive(params)
    for c in range(params.k):
        size = stats.sizes[c]
        sample = stats.gini_in[c] * size / (size - 1)
        mu = derived.mean_accidental + params.rho[c] * params.m[c]
        assert waring_gini(float(derived.nu[c]), mu) == pytest.approx(
            sample, abs=0.005), c


def test_waring_gini_rejects_bad_input():
    with pytest.raises(EstimationError):
        waring_gini(1.0, 2.0)
    with pytest.raises(EstimationError):
        waring_gini(0.5, 0.0)


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_brentq_matches_scipy_on_fit_nu_targets():
    for mu in np.geomspace(0.3, 30.0, 9):
        low, high = waring_gini(NU_MIN, mu), waring_gini(NU_MAX, mu)
        for g in np.linspace(low, high, 12)[1:-1]:
            def excess(nu):
                return waring_gini(nu, mu) - g
            want = brentq(excess, NU_MIN, NU_MAX, xtol=1e-10)
            assert same_float(_brentq(excess, NU_MIN, NU_MAX, 1e-10),
                              want), (mu, g)
            assert same_float(_fit_nu(g, mu), want), (mu, g)


def test_brentq_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(3)
    shapes = (
        lambda r, s, p: lambda x: s * (x - r) ** 3 - s * 0.1 * p * (x - r),
        lambda r, s, p: lambda x: s * math.tanh(x - r) + s * 0.01 * math.sin(7 * x),
        lambda r, s, p: lambda x: s * (math.exp(p * (x - r)) - 1.0),
        lambda r, s, p: lambda x: s * math.atan(10.0 ** p * (x - r)),
        lambda r, s, p: lambda x: -s if x < r else s,
    )
    for trial in range(1000):
        # scales down to 1e-300 make products of values underflow
        f = shapes[trial % len(shapes)](rng.uniform(-2.0, 2.0),
                                        10.0 ** rng.uniform(-300.0, 300.0),
                                        rng.uniform(0.2, 5.0))
        a, b = rng.uniform(-4.0, -3.0), rng.uniform(3.0, 4.0)
        if trial % 2:
            a, b = b, a
        for xtol in (1e-10, 2e-12, 1e-4, 0.1):
            assert same_float(_brentq(f, a, b, xtol),
                              brentq(f, a, b, xtol=xtol)), (trial, xtol)
    # about 1 in 300 of these steps lands between 3|sbis| - delta and
    # 3|sbis|, the edge of the interpolation step's bound
    for trial in range(3000):
        r, p = rng.uniform(-2.0, 2.0), rng.uniform(0.2, 5.0)
        a, b = rng.uniform(-4.0, -3.0), rng.uniform(3.0, 4.0)
        def f(x):
            return math.exp(p * (x - r)) - 1.0
        assert same_float(_brentq(f, a, b, 0.1),
                          brentq(f, a, b, xtol=0.1)), trial


def test_brentq_returns_exact_zero_endpoints():
    for f, a, b in ((lambda x: x, 0.0, 1.0), (lambda x: x - 1.0, 0.0, 1.0),
                    (lambda x: -0.0 if x == 2.0 else x, 2.0, -1.0),
                    (lambda x: 0.0, 5.0, 6.0)):
        got = _brentq(f, a, b, 1e-10)
        assert same_float(got, brentq(f, a, b, xtol=1e-10))
        assert f(got) == 0.0


def test_brentq_raises_estimation_error():
    with pytest.raises(EstimationError, match="NaN"):
        _brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, 1e-10)
    with pytest.raises(EstimationError, match="same sign"):
        _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-10)
    # a step at 1e-290 takes about 1900 halvings of [0, 1e300]
    with pytest.raises(EstimationError, match="no convergence"):
        _brentq(lambda x: -1.0 if x < 1e-290 else 1.0, 0.0, 1e300, 1e-300)


def test_import_loads_no_scipy_optimize():
    # a fresh interpreter, so that the tests' own imports do not leak in
    src = str(Path(citegen.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import citegen, citegen.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] == ['scipy', 'optimize']))")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
