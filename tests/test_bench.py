import sys
from dataclasses import replace

import numpy as np
import pytest

from citegen import bench
from citegen.bench import (
    BenchConfig,
    BenchError,
    BenchResult,
    METHODS,
    _compare_seed,
    _gen_seed,
    fit_methods,
    realize,
    run_bench,
    write_artifacts,
)
from citegen.generator import CsParams, generate
from citegen.graph import is_acyclic
from citegen.metrics import MetricConfig, battery, communities, compare
from citegen.metrics.communities import union_capacity
from citegen.neardag import age_strategy, back_edge_count, inject_back_edges

SMALL_METRIC = MetricConfig(n_sources=30, max_nodes=500,
                            triad_exact_limit=200, triad_samples=2000)


@pytest.fixture(scope="module")
def small_datasets():
    params = CsParams(p=(0.6, 0.4), m=(4.0, 3.0), rho=(0.3, 0.6),
                      sigma2=(6.0, 5.0))
    first = inject_back_edges(generate(params, 120, 0), 0.08, 1)
    second = inject_back_edges(generate(params, 150, 2), 0.12, 3)
    return {"one": first, "two": second}


@pytest.fixture(scope="module")
def small_fits(small_datasets):
    return fit_methods(small_datasets["one"], METHODS, "degree-diff")


def test_config_rejects_unknown_method():
    with pytest.raises(BenchError, match="unknown"):
        BenchConfig(methods=("cs", "flux"))
    with pytest.raises(BenchError, match="replicates"):
        BenchConfig(replicates=0)


def test_config_rejects_repeated_or_too_few_methods():
    assert BenchConfig(methods=("cs", "er")).methods == ("cs", "er")
    with pytest.raises(BenchError, match=r"more than once: \['cs'\]"):
        BenchConfig(methods=("cs", "er", "cs"))
    for methods in (("cs",), ()):
        with pytest.raises(BenchError, match="at least 2 methods"):
            BenchConfig(methods=methods)


def test_config_rejects_zero_threads():
    assert BenchConfig().threads == 1
    with pytest.raises(BenchError, match="threads"):
        BenchConfig(threads=0)


@pytest.mark.parametrize("field", ["replicates", "threads"])
def test_config_rejects_counts_that_are_no_integers(field):
    for value in (2.5, 2.0, True, "2"):
        with pytest.raises(BenchError,
                           match=f"^{field} must be an integer, got"):
            BenchConfig(**{field: value})
    assert getattr(BenchConfig(**{field: np.int64(2)}), field) == 2


def test_config_rejects_unknown_order_strategy():
    for strategy in bench.ORDER_STRATEGIES:
        assert BenchConfig(order_strategy=strategy).order_strategy == strategy
    # timestamps is no heuristic: a dataset without them could not use it
    for strategy in ("bogus", "timestamps"):
        with pytest.raises(BenchError,
                           match=f"unknown order_strategy '{strategy}'"):
            BenchConfig(order_strategy=strategy)


def test_fit_methods_only_requested_families(small_datasets):
    fits = fit_methods(small_datasets["one"], ("er",), "degree-diff")
    assert fits.er is not None
    assert fits.cs_params is None and fits.config is None and fits.sbm is None
    assert 0.0 <= fits.back_ratio < 1.0
    assert fits.n == 120


def test_realize_label_availability(small_fits):
    labelled = {"cs", "cs-dag", "sbm", "sbm-nd", "dcsbm", "dcsbm-nd"}
    for method in METHODS:
        out = realize(method, small_fits, 5)
        assert out.num_nodes == small_fits.n
        if method in labelled:
            assert out.labels is not None
        else:
            assert out.labels is None


def test_realize_cs_variants(small_fits):
    dag = realize("cs-dag", small_fits, 7)
    assert is_acyclic(dag)
    near = realize("cs", small_fits, 7)
    expected = back_edge_count(dag.num_edges, small_fits.back_ratio)
    assert near.num_edges == dag.num_edges + expected
    # The generation stream is shared, so the DAG part is identical.
    keep = near.src > near.dst
    assert np.array_equal(np.sort(near.src[keep]), np.sort(dag.src))


def test_realize_nd_reuses_generation_stream(small_fits):
    base = realize("er", small_fits, 9)
    broken = realize("er-nd", small_fits, 9)
    assert broken.num_edges <= base.num_edges
    assert base.num_edges > 0


def test_run_bench_tensor(small_datasets):
    config = BenchConfig(methods=("cs-dag", "er", "sbm"), replicates=2,
                         seed=4, metric=SMALL_METRIC)
    result = run_bench(small_datasets, config)
    assert result.runs.shape == (2, 26, 3, 2)
    assert result.datasets == ("one", "two")
    endo = [i for i, c in enumerate(result.metric_categories)
            if c == "meso-endogenous"]
    rest = [i for i in range(26) if i not in endo]
    er = result.methods.index("er")
    assert np.isnan(result.runs[:, endo, er, :]).all()
    assert not np.isnan(result.runs[:, rest, :, :]).any()
    labelled = [result.methods.index(m) for m in ("cs-dag", "sbm")]
    assert not np.isnan(result.runs[:, :, labelled, :]).any()


def test_run_bench_reproducible_and_thread_invariant(small_datasets):
    config = BenchConfig(methods=("cs-dag", "er"), replicates=2, seed=6,
                         metric=SMALL_METRIC)
    serial = run_bench(small_datasets, config)
    again = run_bench(small_datasets, config)
    threaded = run_bench(small_datasets,
                         BenchConfig(methods=("cs-dag", "er"), replicates=2,
                                     seed=6, metric=SMALL_METRIC, threads=4))
    assert np.array_equal(serial.runs, again.runs, equal_nan=True)
    assert np.array_equal(serial.runs, threaded.runs, equal_nan=True)


@pytest.mark.parametrize("threads", [1, 2])
def test_run_bench_leaves_no_detections_on_any_graph(small_datasets,
                                                     monkeypatch, threads):
    seen = []
    detect_batch = battery.detect_batch
    monkeypatch.setattr(battery, "detect_batch", lambda graphs, *args: (
        seen.extend(graphs) or detect_batch(graphs, *args)))
    run_bench(small_datasets, BenchConfig(
        methods=("cs", "er-nd"), replicates=2, seed=3, metric=SMALL_METRIC,
        threads=threads))
    assert set(map(id, small_datasets.values())) <= set(map(id, seen))
    assert not any(g.detections for g in seen)


@pytest.mark.parametrize("threads", [1, 3])
def test_run_bench_equals_per_cell_compare(small_datasets, monkeypatch,
                                           threads):
    """The grid equals one compare per cell, with one real profile per
    (dataset, replicate); er emits no labels, so its cells skip metrics."""
    config = BenchConfig(methods=("cs", "er", "sbm"), replicates=2, seed=8,
                         metric=SMALL_METRIC, threads=threads)
    names = tuple(small_datasets)
    expected = np.full((2, 26, 3, 2), np.nan)
    for d, name in enumerate(names):
        fits = fit_methods(small_datasets[name], config.methods, age_strategy(
            small_datasets[name], config.order_strategy))
        for m, method in enumerate(config.methods):
            for rep in range(config.replicates):
                synth = realize(method, fits, _gen_seed(config.seed, d, m, rep))
                report = compare(small_datasets[name], synth, replace(
                    config.metric, seed=_compare_seed(config.seed, d, rep)))
                for i, entry in enumerate(report.entries):
                    if not entry.skipped:
                        expected[d, i, m, rep] = entry.value
    assert np.isnan(expected).any()

    real_ids = {id(g) for g in small_datasets.values()}
    real_profiles = []
    batches = []
    build = bench.profiles

    def counting(graphs, config):
        real_profiles.extend(id(g) for g in graphs if id(g) in real_ids)
        batches.append(len(graphs))
        return build(graphs, config)

    monkeypatch.setattr(bench, "profiles", counting)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = run_bench(small_datasets, config)
    finally:
        sys.setswitchinterval(interval)
    assert result.runs.tobytes() == expected.tobytes()
    # D x R real profiles: each dataset once per replicate, together with
    # the replicates of its three methods
    assert sorted(real_profiles) == sorted(2 * list(real_ids))
    assert batches == [4] * 4


def test_run_bench_holds_one_union_of_graphs_at_a_time(small_datasets,
                                                     monkeypatch):
    """With room for two graphs per union, a job profiles the real graph
    with one replicate, then the others two at a time; the tensor is the
    one the whole job's batch gives."""
    config = BenchConfig(methods=("cs", "er", "sbm", "dcsbm", "config"),
                         replicates=1, seed=5, metric=SMALL_METRIC)
    datasets = {"one": small_datasets["one"]}
    whole = run_bench(datasets, config)
    real = small_datasets["one"]
    per_graph = 2 * real.num_edges * len(SMALL_METRIC.resolutions)
    monkeypatch.setattr(communities, "UNION_ENTRIES", 2 * per_graph + 1)
    assert union_capacity(real, SMALL_METRIC.resolutions) == 2
    batches = []
    build = bench.profiles

    def recording(graphs, config):
        batches.append([g is real for g in graphs])
        return build(graphs, config)

    monkeypatch.setattr(bench, "profiles", recording)
    split = run_bench(datasets, config)
    assert batches == [[True, False], [False, False], [False, False]]
    assert split.runs.tobytes() == whole.runs.tobytes()


def test_run_bench_requires_datasets():
    with pytest.raises(BenchError, match="datasets"):
        run_bench({})


def test_block_tables_drop_incomplete_blocks():
    runs = np.ones((1, 2, 2, 2))
    runs[0, 1, 0, 1] = np.nan
    result = BenchResult(methods=("a", "b"), datasets=("d",),
                         metric_names=("m1", "m2"),
                         metric_categories=("degree", "meso-endogenous"),
                         runs=runs)
    table, flat = result.tables[""]
    assert table.blocks == (("d", "m1"),)
    assert flat.shape == (1, 2, 2)
    table_ne, flat_ne = result.tables["_non_endogenous"]
    assert table_ne.blocks == (("d", "m1"),)
    assert np.array_equal(flat, flat_ne)


def test_write_artifacts(tmp_path, small_datasets):
    config = BenchConfig(methods=("cs-dag", "er", "sbm"), replicates=2,
                         seed=4, metric=SMALL_METRIC)
    result = run_bench(small_datasets, config)
    first = tmp_path / "a"
    second = tmp_path / "b"
    names = write_artifacts(result, first, seed=4)
    write_artifacts(result, second, seed=4)
    assert sorted(names) == sorted([
        "rank_table.tsv", "mean_ranks.tsv", "wtl.tsv",
        "rank_table_non_endogenous.tsv", "mean_ranks_non_endogenous.tsv",
        "wtl_non_endogenous.tsv", "friedman.tsv"])
    for name in names:
        assert (first / name).read_text() == (second / name).read_text()
    # er never produces community labels, so the full variant keeps only
    # the twenty metrics outside the endogenous category.
    rank_rows = (first / "rank_table.tsv").read_text().strip().splitlines()
    assert len(rank_rows) == 1 + 2 * 20 * 3
    wtl_rows = (first / "wtl.tsv").read_text().strip().splitlines()
    assert len(wtl_rows) == 1 + 3 * 2
    fried = (first / "friedman.tsv").read_text().strip().splitlines()
    assert len(fried) == 3
    assert fried[1].startswith("all\t40\t3\t")
    assert fried[2].startswith("non_endogenous\t40\t3\t")
