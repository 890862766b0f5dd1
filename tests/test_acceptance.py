"""End-to-end acceptance gate.

Each test exercises one release criterion and prints a single summary
line ("ACCEPTANCE n (...): PASS/FAIL ...") with the measured numbers at
the stated tolerances.  Run with ``pytest -s tests/test_acceptance.py``
to see every line; under plain ``pytest`` the line of a failing
criterion appears in its captured output.

Criterion 2 checks the preferential-fraction fit.  Inverting the Gini
of the continuous Lomax law overstated rho by 0.09-0.27 and failed every
draw: the generated integer in-degrees follow the discrete Waring law,
whose Gini is higher.  The estimator fits that discrete law instead, and
the criterion is held at its stated strength.
"""

import itertools
import json
import math
import time
import warnings

import numpy as np
import pytest

from test_estimation import pairwise_gini
from test_metrics_distances import transport_w1
from test_metrics_paths import betweenness_oracle
from test_metrics_triads import census_oracle, ffl_oracle, random_digraph
from test_stats import exact_mwu_oracle

from citegen.baselines import (ErFit, fit_config, fit_er, fit_sbm,
                               generate_config, generate_dcsbm, generate_er,
                               generate_sbm)
from citegen.bench import BenchConfig, run_bench, write_artifacts
from citegen.cli import main
from citegen.estimation import community_stats, estimate, gini
from citegen.generator import CsParams, derive, generate, ks_to_pareto2
from citegen.graph import is_acyclic, load_edge_list
from citegen.metrics import MetricConfig, compare
from citegen.metrics.distances import wasserstein1
from citegen.metrics.paths import source_rows
from citegen.metrics.triads import ffl_count, triad_census
from citegen.neardag import cycle_break, inject_back_edges
from citegen.stats import friedman, mann_whitney, rank_blocks


def test_acceptance_1_in_degree_tail_law():
    """Per-community in-degree CCDFs match the closed-form heavy tail."""
    t0 = time.perf_counter()
    rhos = (0.2, 0.5, 0.9)
    params = CsParams(p=(1 / 3, 1 / 3, 1 / 3), m=(5.0, 5.0, 5.0),
                      rho=rhos, sigma2=(5.0, 5.0, 5.0))
    graph = generate(params, 30_000, 1)
    derived = derive(params)
    d_in = graph.d_in
    stats = {}
    for c, rho in enumerate(rhos):
        degs = d_in[graph.labels == c]
        full, _ = ks_to_pareto2(degs, float(derived.nu[c]),
                                derived.mean_accidental)
        bulk, _ = ks_to_pareto2(degs, float(derived.nu[c]),
                                derived.mean_accidental, bulk_quantile=0.99)
        stats[rho] = (full, bulk)
    elapsed = time.perf_counter() - t0
    ok = (stats[0.2][0] <= 0.05 and stats[0.5][0] <= 0.05
          and stats[0.9][1] <= 0.07 and elapsed < 30.0)
    print(f"ACCEPTANCE 1 (in-degree tail law): {'PASS' if ok else 'FAIL'} - "
          f"KS(rho=0.2)={stats[0.2][0]:.4f}<=0.05, "
          f"KS(rho=0.5)={stats[0.5][0]:.4f}<=0.05, "
          f"bulk KS(rho=0.9)={stats[0.9][1]:.4f}<=0.07, "
          f"{elapsed:.1f}s<30s")
    assert stats[0.2][0] <= 0.05
    assert stats[0.5][0] <= 0.05
    assert stats[0.9][1] <= 0.07
    assert elapsed < 30.0


def test_acceptance_2_parameter_round_trip():
    """estimate(generate(params)) recovers rho, m, and p for 18/20 draws.

    Community shares use a symmetric Dirichlet(5) draw floored at 0.05
    and renormalized so every community is populated at N=1e5.
    """
    rng = np.random.default_rng(2024)
    n = 100_000
    draws_ok = 0
    failures = []
    for draw in range(20):
        k = (1, 3, 7)[draw % 3]
        m = rng.uniform(2.0, 8.0, k)
        rho = rng.uniform(0.1, 0.9, k)
        sigma2 = rng.uniform(m, 3.0 * m)
        p = rng.dirichlet(np.full(k, 5.0))
        p = np.maximum(p, 0.05)
        p = p / p.sum()
        params = CsParams(p=p, m=m, rho=rho, sigma2=sigma2)
        graph = generate(params, n, int(rng.integers(2 ** 31)))
        fit = estimate(graph)
        p_se = np.sqrt(p * (1.0 - p) / n)
        rho_ok = np.all(np.abs(fit.params.rho - rho) <= 0.05)
        m_ok = np.all(np.abs(fit.params.m - m) <= 0.03 * m)
        p_ok = np.all(np.abs(fit.params.p - p) <= 3.0 * p_se)
        if rho_ok and m_ok and p_ok:
            draws_ok += 1
        else:
            worst = float(np.abs(fit.params.rho - rho).max())
            failures.append(f"draw {draw} (k={k}): max|drho|={worst:.3f}"
                            f" m_ok={m_ok} p_ok={p_ok}")
    verdict = "PASS" if draws_ok >= 18 else "FAIL"
    print(f"ACCEPTANCE 2 (parameter round trip): {verdict} - "
          f"{draws_ok}/20 draws within rho+-0.05, m+-3%, p+-3SE "
          f"(need >=18)")
    for line in failures:
        print("  " + line)
    assert draws_ok >= 18


def test_acceptance_3_acyclicity(tmp_path, make_graph):
    """DAG-only CLI output and the reorientation stage are always acyclic."""
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(
        {"k": 2, "p": [0.6, 0.4], "m": [4.0, 3.0],
         "rho": [0.3, 0.6], "sigma2": [6.0, 5.0]}))
    out_path = tmp_path / "dag.tsv"
    cli_ok = 0
    for seed in range(1000):
        rc = main(["generate", str(params_path), "--n", "200",
                   "--seed", str(seed), "--dag-only", "--out",
                   str(out_path)])
        graph, _ = load_edge_list(out_path)
        cli_ok += rc == 0 and is_acyclic(graph)

    rng = np.random.default_rng(99)
    reorient_ok = 0
    reorient_total = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for case in range(50):
            n = int(rng.integers(20, 41))
            graph = random_digraph(make_graph, rng, n, 0.08)
            labels = rng.integers(0, 2, n)
            labels[:2] = (0, 1)
            graph = make_graph(n, list(zip(graph.src.tolist(),
                                           graph.dst.tolist())),
                               labels=labels)
            sbm_fit = fit_sbm(graph)
            synths = [generate_er(fit_er(graph), case),
                      generate_config(fit_config(graph), case)[0],
                      generate_sbm(sbm_fit, case),
                      generate_dcsbm(sbm_fit, case)]
            for synth in synths:
                broken, _ = cycle_break(synth, 0.0, case, "degree-diff")
                reorient_total += 1
                reorient_ok += is_acyclic(broken)

    ok = cli_ok == 1000 and reorient_ok == reorient_total == 200
    print(f"ACCEPTANCE 3 (acyclicity): {'PASS' if ok else 'FAIL'} - "
          f"{cli_ok}/1000 dag-only runs topologically sorted, "
          f"{reorient_ok}/{reorient_total} baseline reorientations acyclic")
    assert cli_ok == 1000
    assert reorient_ok == reorient_total == 200


def test_acceptance_4_back_edge_exactness(dag_graph, near_dag_graph):
    """Injected back-edge counts and reversal counts match the formulas."""
    e_dag = dag_graph.num_edges
    inject_checks = []
    for r in (0.0, 0.05, 0.1, 0.2):
        expected = math.floor(r * e_dag / (1.0 - r))
        injected = inject_back_edges(dag_graph, r, 5)
        n_back = int((injected.src < injected.dst).sum())
        total = injected.num_edges
        inject_checks.append(n_back == expected
                             and total == e_dag + expected
                             and n_back * (e_dag + expected)
                             == expected * total)

    base, _ = cycle_break(near_dag_graph, 0.0, 6, "degree-diff")
    e_prime = base.num_edges
    reverse_checks = []
    for r in (0.0, 0.05, 0.1, 0.2):
        _, report = cycle_break(near_dag_graph, r, 6, "degree-diff")
        reverse_checks.append(
            report.reversed_edges == int(math.floor(r * e_prime + 0.5)))

    ok = all(inject_checks) and all(reverse_checks)
    print(f"ACCEPTANCE 4 (back-edge exactness): {'PASS' if ok else 'FAIL'} - "
          f"injection exact for r in (0, 0.05, 0.1, 0.2) at |E|={e_dag}, "
          f"reversal exact at |E'|={e_prime}")
    assert all(inject_checks)
    assert all(reverse_checks)


def test_acceptance_5_linear_scaling():
    """Doubling N at m=5 costs at most 2.5x; N=1e6 stays under a minute."""
    params = CsParams(p=(1.0,), m=(5.0,), rho=(0.5,), sigma2=(5.0,))
    generate(params, 2000, 0)  # warm up outside the clock

    # Each ratio is the median over rounds of the ratio of its two sizes
    # timed back to back, in alternating order.  A slow spell of the host
    # then slows both sides of one round's ratio rather than one size's
    # best run: across full test runs the best-of-3 ratio of the small
    # sizes read 1.4 to 2.8, while it is about 2.2 when the host is steady.
    # A round of the small sizes takes about 2 s, so they get 9 rounds;
    # the large sizes run in every third round.
    seeds = {100_000: 10, 200_000: 20, 500_000: 50, 1_000_000: 100}
    ratios = {(100_000, 200_000): [], (500_000, 1_000_000): []}
    t_1m = float("inf")
    for rep in range(9):
        for small, large in ratios:
            if large > 200_000 and rep % 3:
                continue
            took = {}
            for n in (small, large) if rep % 2 == 0 else (large, small):
                t0 = time.perf_counter()
                generate(params, n, seeds[n] + rep)
                took[n] = time.perf_counter() - t0
            ratios[small, large].append(took[large] / took[small])
            if large == 1_000_000:
                t_1m = min(t_1m, took[large])
    ratio_small, ratio_large = (float(np.median(r)) for r in ratios.values())
    ok = ratio_small <= 2.5 and ratio_large <= 2.5 and t_1m <= 60.0
    print(f"ACCEPTANCE 5 (linear scaling): {'PASS' if ok else 'FAIL'} - "
          f"t(2e5)/t(1e5)={ratio_small:.2f}<=2.5, "
          f"t(1e6)/t(5e5)={ratio_large:.2f}<=2.5, "
          f"t(1e6)={t_1m:.2f}s<=60s")
    assert ratio_small <= 2.5
    assert ratio_large <= 2.5
    assert t_1m <= 60.0


def test_acceptance_6_oracle_equivalence(make_graph):
    """Sampling-free implementations agree with brute-force oracles."""
    rng = np.random.default_rng(606)
    graphs = [random_digraph(make_graph, rng, int(rng.integers(5, 27)), 0.15)
              for _ in range(50)]

    census_hits = sum(
        np.array_equal(triad_census(g), census_oracle(g)) for g in graphs)
    ffl_hits = sum(ffl_count(g) == ffl_oracle(g) for g in graphs)

    gini_gap = max(
        abs(gini(g.d_in) - pairwise_gini(g.d_in))
        for g in graphs)

    w1_gap = 0.0
    for a, b in zip(graphs, graphs[1:] + graphs[:1]):
        da = a.d_in.astype(float)
        db = b.d_in.astype(float)
        w1_gap = max(w1_gap, abs(wasserstein1(da, db) - transport_w1(da, db)))

    small = [random_digraph(make_graph, rng, int(rng.integers(5, 16)), 0.2)
             for _ in range(50)]
    betw_gap = max(
        float(np.abs(source_rows(g, np.arange(g.num_nodes)).betweenness
                     - betweenness_oracle(g)).max())
        for g in small)

    mwu_gap = 0.0
    for _ in range(50):
        a = rng.uniform(0, 1, int(rng.integers(3, 7)))
        b = rng.uniform(0, 1, int(rng.integers(3, 7)))
        _, p = mann_whitney(a, b)
        mwu_gap = max(mwu_gap, abs(p - exact_mwu_oracle(a, b)))

    perfect = rank_blocks(np.tile([1.0, 2.0, 3.0], (7, 1)),
                          ("a", "b", "c"),
                          [(f"d{i}", "metric") for i in range(7)])
    chi2, _ = friedman(perfect)

    ok = (census_hits == 50 and ffl_hits == 50 and gini_gap <= 1e-12
          and w1_gap <= 1e-9 and betw_gap <= 1e-9 and mwu_gap <= 1e-9
          and chi2 == 14.0)
    print(f"ACCEPTANCE 6 (oracle equivalence): {'PASS' if ok else 'FAIL'} - "
          f"census {census_hits}/50, ffl {ffl_hits}/50, "
          f"gini |d|={gini_gap:.1e}<=1e-12, w1 |d|={w1_gap:.1e}<=1e-9, "
          f"betweenness |d|={betw_gap:.1e}<=1e-9, "
          f"mwu |dp|={mwu_gap:.1e}<=1e-9, friedman={chi2}")
    assert census_hits == 50
    assert ffl_hits == 50
    assert gini_gap <= 1e-12
    assert w1_gap <= 1e-9
    assert betw_gap <= 1e-9
    assert mwu_gap <= 1e-9
    assert chi2 == 14.0


def test_acceptance_7_self_comparison_zero(dag_graph, near_dag_graph,
                                           make_graph):
    """compare(G, G) is exactly zero on every active metric, 10 fixtures."""
    sbm_fit = fit_sbm(dag_graph)
    rng = np.random.default_rng(77)
    dense = random_digraph(make_graph, rng, 60, 0.06)
    dense = make_graph(60, list(zip(dense.src.tolist(), dense.dst.tolist())),
                       labels=rng.integers(0, 3, 60))
    chain = make_graph(30, [(i, i + 1) for i in range(29)],
                       labels=[i % 2 for i in range(30)])
    single = generate(CsParams(p=(1.0,), m=(4.0,), rho=(0.6,),
                               sigma2=(8.0,)), 400, 11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fixtures = [
            dag_graph,
            near_dag_graph,
            single,
            generate_er(ErFit(n=300, p=0.02), 5),
            generate_config(fit_config(dag_graph), 7)[0],
            generate_sbm(sbm_fit, 9),
            generate_dcsbm(sbm_fit, 13),
            cycle_break(near_dag_graph, 0.1, 3, "degree-diff")[0],
            chain,
            dense,
        ]
        worst = 0.0
        active_counts = []
        for graph in fixtures:
            result = compare(graph, graph)
            assert len(result.entries) == 26
            active = result.active()
            assert active
            active_counts.append(len(active))
            worst = max(worst, max(abs(e.value) for e in active))
    ok = worst == 0.0
    print(f"ACCEPTANCE 7 (self-comparison): {'PASS' if ok else 'FAIL'} - "
          f"max |metric| over 10 fixtures = {worst} "
          f"(active per fixture: {active_counts}); sampled metrics are "
          f"exactly 0 at n_sources=200")
    assert worst == 0.0


def test_acceptance_8_estimator_fixtures(make_graph):
    """Closed-form estimator fixtures evaluate exactly."""
    gini_val = gini([0, 0, 0, 1])

    edges = [(1, 4), (2, 4), (3, 4), (3, 5), (5, 3)]
    graph = make_graph(6, edges, labels=[0, 0, 0, 0, 1, 1])
    stats = community_stats(graph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = estimate(graph)
    fixture_ok = (stats.gini_in[0] == 0.75 and stats.sizes[0] == 4
                  and stats.in_totals[0] == 1 and stats.out_totals[0] == 4
                  and fit.rho_raw[0] == 0.1)

    low = make_graph(4, [(2, 0), (2, 1), (3, 0), (3, 1)], labels=[0] * 4)
    high = make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], labels=[0] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit_low = estimate(low)
        fit_high = estimate(high)
    clamp_ok = (fit_low.clamped_low[0] and fit_low.params.rho[0] == 1e-3
                and fit_high.clamped_high[0]
                and fit_high.params.rho[0] == 1.0 - 1e-3)

    ok = gini_val == 0.75 and fixture_ok and clamp_ok
    print(f"ACCEPTANCE 8 (estimator fixtures): {'PASS' if ok else 'FAIL'} - "
          f"gini([0,0,0,1])={gini_val}, rho_hat fixture={fit.rho_raw[0]}, "
          f"clamps engage at (1e-3, 1-1e-3) with flags set")
    assert gini_val == 0.75
    assert fixture_ok
    assert clamp_ok


def test_acceptance_9_bench_reproducible(tmp_path):
    """The 3-method, 2-dataset, 5-replicate bench is bit-reproducible."""
    params = CsParams(p=(0.6, 0.4), m=(4.0, 3.0), rho=(0.3, 0.6),
                      sigma2=(6.0, 5.0))
    datasets = {
        "one": inject_back_edges(generate(params, 120, 0), 0.08, 1),
        "two": inject_back_edges(generate(params, 150, 2), 0.12, 3),
    }
    config = BenchConfig(
        methods=("cs", "sbm", "dcsbm"), replicates=5, seed=11,
        metric=MetricConfig(n_sources=30, max_nodes=500,
                            triad_exact_limit=200, triad_samples=2000))
    result = run_bench(datasets, config)
    assert result.runs.shape == (2, 26, 3, 5)

    first = tmp_path / "a"
    second = tmp_path / "b"
    names = write_artifacts(result, first, seed=11)
    write_artifacts(result, second, seed=11)
    assert sorted(names) == sorted([
        "rank_table.tsv", "mean_ranks.tsv", "wtl.tsv",
        "rank_table_non_endogenous.tsv", "mean_ranks_non_endogenous.tsv",
        "wtl_non_endogenous.tsv", "friedman.tsv"])
    identical = all((first / name).read_bytes() == (second / name).read_bytes()
                    for name in names)

    rank_rows = (first / "rank_table.tsv").read_text().strip().splitlines()
    rank_rows_ne = ((first / "rank_table_non_endogenous.tsv")
                    .read_text().strip().splitlines())
    mean_header = (first / "mean_ranks.tsv").read_text().splitlines()[0]
    fried = (first / "friedman.tsv").read_text().strip().splitlines()
    shape_ok = (len(rank_rows) == 1 + 2 * 26 * 3
                and len(rank_rows_ne) == 1 + 2 * 20 * 3
                and mean_header == "method\tmean_rank\tci_low\tci_high"
                and fried[1].startswith("all\t52\t3\t")
                and fried[2].startswith("non_endogenous\t40\t3\t"))
    wtl_rows = (first / "wtl.tsv").read_text().strip().splitlines()

    ok = identical and shape_ok and len(wtl_rows) == 1 + 6
    print(f"ACCEPTANCE 9 (bench pipeline): {'PASS' if ok else 'FAIL'} - "
          f"7 artifacts byte-identical across reruns={identical}, "
          f"full table 26 metrics x 2 datasets, "
          f"non-endogenous variant 20 metrics, "
          f"friedman rows: {fried[1].split(chr(9))[:3]} / "
          f"{fried[2].split(chr(9))[:3]}")
    assert identical
    assert shape_ok
    assert len(wtl_rows) == 1 + 6
