import io
import json

import numpy as np
import pytest

from citegen import bench as bench_mod
from citegen import cli
from citegen.bench import BenchConfig, fit_methods, realize
from citegen.cli import main
from citegen.generator import CsParams, generate
from citegen.graph import is_acyclic, load_edge_list, save_edge_list, save_labels
from citegen.metrics import MetricConfig, MetricReport, compare
from citegen.neardag import inject_back_edges

SMALL_METRIC_FLAGS = ["--sources", "20", "--max-nodes", "2000",
                      "--triad-samples", "3000"]


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    params = CsParams(p=(0.5, 0.3, 0.2), m=(5.0, 4.0, 3.0),
                      rho=(0.3, 0.5, 0.7), sigma2=(9.0, 8.0, 4.0))
    near = inject_back_edges(generate(params, 900, 21), 0.1, 4)
    small = inject_back_edges(generate(params, 400, 22), 0.1, 5)
    paths = {
        "edges": root / "near.edges", "labels": root / "near.labels",
        "edges2": root / "small.edges", "labels2": root / "small.labels",
    }
    save_edge_list(near, paths["edges"])
    save_labels(near, paths["labels"])
    save_edge_list(small, paths["edges2"])
    save_labels(small, paths["labels2"])
    return paths


def test_fit_writes_params_and_report(cli_files, tmp_path, capsys):
    params_path = tmp_path / "params.json"
    report_path = tmp_path / "report.tsv"
    code = main(["fit", str(cli_files["edges"]),
                 "--labels", str(cli_files["labels"]),
                 "--out", str(params_path), "--report", str(report_path)])
    assert code == 0
    doc = json.loads(params_path.read_text())
    assert set(doc) >= {"p", "m", "rho", "sigma2", "n", "back_edge_ratio"}
    assert len(doc["p"]) == 3
    assert doc["n"] > 0
    assert 0.0 < doc["back_edge_ratio"] < 0.5
    lines = report_path.read_text().strip().splitlines()
    assert lines[0].startswith("community\tsize")
    assert len(lines) == 4


def test_fit_stdout_by_default(cli_files, capsys):
    code = main(["fit", str(cli_files["edges"]),
                 "--labels", str(cli_files["labels"])])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert "rho" in doc


def test_fit_then_generate_round_trip(cli_files, tmp_path, capsys):
    params_path = tmp_path / "params.json"
    assert main(["fit", str(cli_files["edges"]),
                 "--labels", str(cli_files["labels"]),
                 "--out", str(params_path)]) == 0
    out_edges = tmp_path / "synth.edges"
    out_labels = tmp_path / "synth.labels"
    code = main(["generate", str(params_path), "--out", str(out_edges),
                 "--labels-out", str(out_labels), "--seed", "5"])
    assert code == 0
    err = capsys.readouterr().err
    assert "forward edges" in err
    graph, _ = load_edge_list(out_edges)
    doc = json.loads(params_path.read_text())
    # Isolated nodes cannot ride along in an edge list.
    assert 0.9 * doc["n"] < graph.num_nodes <= doc["n"]
    assert out_labels.exists()


def test_generate_dag_only_is_acyclic(cli_files, tmp_path):
    params_path = tmp_path / "params.json"
    assert main(["fit", str(cli_files["edges"]),
                 "--labels", str(cli_files["labels"]),
                 "--out", str(params_path)]) == 0
    out_edges = tmp_path / "dag.edges"
    assert main(["generate", str(params_path), "--dag-only",
                 "--out", str(out_edges), "--seed", "9"]) == 0
    graph, _ = load_edge_list(out_edges)
    assert is_acyclic(graph)


def test_generate_reruns_byte_identical(cli_files, tmp_path):
    params_path = tmp_path / "params.json"
    assert main(["fit", str(cli_files["edges"]),
                 "--labels", str(cli_files["labels"]),
                 "--out", str(params_path)]) == 0
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    for out in (a, b):
        assert main(["generate", str(params_path), "--out", str(out),
                     "--seed", "33"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_without_seed_reports_one(cli_files, tmp_path, capsys):
    params_path = tmp_path / "params.json"
    assert main(["fit", str(cli_files["edges"]),
                 "--labels", str(cli_files["labels"]),
                 "--out", str(params_path)]) == 0
    assert main(["generate", str(params_path),
                 "--out", str(tmp_path / "x.edges")]) == 0
    assert "seed: " in capsys.readouterr().err


def test_config_file_supplies_flags(cli_files, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"labels": str(cli_files["labels"]),
                                  "seed": 1}))
    direct = tmp_path / "direct.json"
    via_config = tmp_path / "via.json"
    assert main(["fit", str(cli_files["edges"]),
                 "--labels", str(cli_files["labels"]),
                 "--out", str(direct)]) == 0
    assert main(["fit", str(cli_files["edges"]), "--config", str(config),
                 "--out", str(via_config)]) == 0
    assert direct.read_text() == via_config.read_text()


def test_decycle_outputs_acyclic_graph(cli_files, tmp_path):
    out = tmp_path / "flat.edges"
    code = main(["decycle", str(cli_files["edges"]), "--r", "0",
                 "--strategy", "degree-diff", "--out", str(out),
                 "--seed", "2"])
    assert code == 0
    graph, _ = load_edge_list(out)
    assert is_acyclic(graph)


def test_load_reports_dropped_edges_once(tmp_path, caplog, capsys):
    edges = tmp_path / "repeat.edges"
    edges.write_text("a\tb\nb\tc\na\tb\n")
    with caplog.at_level("WARNING"):
        assert main(["decycle", str(edges), "--r", "0", "--strategy",
                     "degree-diff", "--out", str(tmp_path / "flat.edges"),
                     "--seed", "1"]) == 0
    dropped = [rec for rec in caplog.records
               if rec.msg.startswith("dropped %d self-loops")]
    assert [rec.args for rec in dropped] == [(0, 1)]
    assert "note: dropped" not in capsys.readouterr().err


def test_baseline_er_and_near_dag(cli_files, tmp_path):
    out = tmp_path / "er.edges"
    assert main(["baseline", "er", str(cli_files["edges"]),
                 "--out", str(out), "--seed", "3"]) == 0
    graph, _ = load_edge_list(out)
    assert graph.num_edges > 0
    out_nd = tmp_path / "er_nd.edges"
    assert main(["baseline", "er", str(cli_files["edges"]), "--near-dag",
                 "--out", str(out_nd), "--seed", "3"]) == 0
    assert out_nd.exists()


def _saved(graph) -> str:
    buf = io.StringIO()
    save_edge_list(graph, buf)
    return buf.getvalue()


@pytest.fixture(scope="module")
def cli_graph(cli_files):
    """The fixture graph as the CLI loads it, with its labels."""
    return cli._load_graph(cli_files["edges"], cli_files["labels"])


def test_fit_equals_fit_methods(cli_files, cli_graph, capsys):
    assert main(["fit", str(cli_files["edges"]),
                 "--labels", str(cli_files["labels"])]) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    fits = fit_methods(cli_graph, ("cs",), "degree-diff")
    assert (doc["n"], doc["back_edge_ratio"]) == (fits.n, fits.back_ratio)
    params = CsParams.from_json(text)
    for key in ("p", "m", "rho", "sigma2"):
        assert np.array_equal(getattr(params, key),
                              getattr(fits.cs_params, key))


@pytest.mark.parametrize("dag_only", [False, True])
def test_generate_equals_realize(cli_files, cli_graph, tmp_path, dag_only):
    params_path = tmp_path / "params.json"
    out = tmp_path / "synth.edges"
    assert main(["fit", str(cli_files["edges"]),
                 "--labels", str(cli_files["labels"]),
                 "--out", str(params_path)]) == 0
    assert main(["generate", str(params_path), "--seed", "5",
                 "--out", str(out)] + ["--dag-only"] * dag_only) == 0
    fits = fit_methods(cli_graph, ("cs",), "degree-diff")
    expected = realize("cs-dag" if dag_only else "cs", fits,
                       np.random.SeedSequence(5))
    assert out.read_text() == _saved(expected)


@pytest.mark.parametrize("near_dag", [False, True])
@pytest.mark.parametrize("name", cli.BASELINE_NAMES)
def test_baseline_equals_realize(cli_files, cli_graph, tmp_path, name,
                                 near_dag):
    out = tmp_path / "synth.edges"
    assert main(["baseline", name, str(cli_files["edges"]),
                 "--labels", str(cli_files["labels"]), "--seed", "3",
                 "--out", str(out)] + ["--near-dag"] * near_dag) == 0
    method = name + "-nd" if near_dag else name
    fits = fit_methods(cli_graph, (method,), "degree-diff")
    assert out.read_text() == _saved(
        realize(method, fits, np.random.SeedSequence(3)))


@pytest.mark.parametrize("argv", [
    "generate {params} --out {out}", "decycle {edges} --out {out}",
    "baseline er {edges} --out {out}", "compare {edges} {edges} --out {out}",
    "bench --dataset one={edges} --outdir {out}",
    "validate-theory --n 100 --out {out}"])
@pytest.mark.parametrize("seed", [["--seed", "-1"], {"seed": 1.5},
                                  {"seed": True}])
def test_bad_seeds_are_usage_errors(cli_files, tmp_path, capsys, argv, seed):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"k": 1, "p": [1.0], "m": [2.0],
                                  "rho": [0.5], "sigma2": [2.0], "n": 50}))
    out = tmp_path / "out"
    argv = argv.format(params=params, edges=cli_files["edges2"],
                       out=out).split()
    flags = seed if isinstance(seed, list) else _config_file(tmp_path, seed)
    assert main(argv + flags) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


def test_compare_self_is_zero(cli_files, tmp_path):
    out = tmp_path / "report.tsv"
    code = main(["compare", str(cli_files["edges"]), str(cli_files["edges"]),
                 "--real-labels", str(cli_files["labels"]),
                 "--synth-labels", str(cli_files["labels"]),
                 "--seed", "3", "--out", str(out)] + SMALL_METRIC_FLAGS)
    assert code == 0
    report = MetricReport.from_tsv(out.read_text())
    assert len(report.entries) == 26
    active = report.active()
    assert len(active) == 26
    assert all(e.value == 0.0 for e in active)


def test_compare_without_metric_flags_uses_metric_config_defaults(
        cli_files, tmp_path):
    out = tmp_path / "report.tsv"
    assert main(["compare", str(cli_files["edges"]), str(cli_files["edges2"]),
                 "--seed", "5", "--out", str(out)]) == 0
    real, _ = load_edge_list(cli_files["edges"])
    synth, _ = load_edge_list(cli_files["edges2"])
    assert out.read_text() == compare(real, synth,
                                      MetricConfig(seed=5)).to_tsv()


def test_bench_cli_artifacts_reproducible(cli_files, tmp_path, capsys):
    args = ["bench",
            "--dataset", f"one={cli_files['edges']},{cli_files['labels']}",
            "--dataset", f"two={cli_files['edges2']},{cli_files['labels2']}",
            "--methods", "cs-dag,er", "--replicates", "2", "--seed", "11",
            "--sources", "10", "--max-nodes", "300",
            "--triad-samples", "2000"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--outdir", str(out_a)]) == 0
    assert "mean ranks" in capsys.readouterr().out
    assert main(args + ["--outdir", str(out_b), "--threads", "2"]) == 0
    names = ["rank_table.tsv", "mean_ranks.tsv", "wtl.tsv", "friedman.tsv",
             "rank_table_non_endogenous.tsv",
             "mean_ranks_non_endogenous.tsv", "wtl_non_endogenous.tsv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_bench_cli_passes_the_config_defaults(cli_files, monkeypatch):
    seen = []

    def stop(datasets, config):
        seen.append(config)
        raise RuntimeError("stop before running")

    monkeypatch.setattr(bench_mod, "run_bench", stop)
    # changed defaults show that the CLI reads them rather than restating them
    monkeypatch.setattr(BenchConfig, "replicates", 7)
    monkeypatch.setattr(BenchConfig, "order_strategy", "eades")
    assert main(["bench", "--dataset", f"one={cli_files['edges']}",
                 "--seed", "3"]) == 1
    config, = seen
    assert config.methods == BenchConfig.methods
    assert config.replicates == 7
    assert config.order_strategy == "eades"
    assert config.threads == BenchConfig.threads


def test_validate_theory_table(tmp_path, capsys):
    out = tmp_path / "ccdf.tsv"
    code = main(["validate-theory", "--rho", "0.5", "--n", "3000",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("rho\tdegree\tempirical_ccdf\ttheoretical_ccdf"
                        "\tks\tks_bulk99")
    assert len(lines) > 10
    assert "ks=" in capsys.readouterr().err


def test_usage_errors_exit_two(cli_files, tmp_path):
    assert main(["fit", str(tmp_path / "missing.edges"),
                 "--labels", str(cli_files["labels"])]) == 2
    assert main(["baseline", "hyperbolic", str(cli_files["edges"])]) == 2
    assert main(["bench", "--seed", "1"]) == 2
    assert main(["bench", "--dataset", "broken", "--seed", "1"]) == 2
    bad_config = tmp_path / "bad.json"
    bad_config.write_text("{not json")
    assert main(["fit", str(cli_files["edges"]), "--config",
                 str(bad_config)]) == 2


@pytest.mark.parametrize("flags", [
    ["--sources", "0"], ["--sources", "-1"], ["--max-nodes", "0"],
    ["--triad-samples", "0", "--triad-exact-limit", "10"]])
def test_metric_counts_below_one_are_usage_errors(cli_files, tmp_path, capsys,
                                                  flags):
    out = tmp_path / "report.tsv"
    assert main(["compare", str(cli_files["edges2"]), str(cli_files["edges2"]),
                 "--seed", "1", "--out", str(out)] + flags) == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("resolutions, match", [
    ("nan", "finite and positive"), ("1,0", "finite and positive"),
    ("1,1.001", "share the row tag r100"), ("x", "could not convert"),
    ("1e307", "at most 1e306, got 1e+307")])
def test_bad_resolutions_are_usage_errors(cli_files, tmp_path, capsys,
                                          resolutions, match):
    out = tmp_path / "report.tsv"
    assert main(["compare", str(cli_files["edges2"]), str(cli_files["edges2"]),
                 "--seed", "1", "--out", str(out),
                 "--resolutions", resolutions]) == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "fit {edges} --labels {labels}", "decycle {edges} --out {out}",
    "baseline er {edges} --out {out}"])
def test_timestamps_strategy_without_timestamps_is_a_usage_error(
        cli_files, tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = argv.format(edges=cli_files["edges2"], labels=cli_files["labels2"],
                       out=out).split()
    assert main(argv + ["--seed", "1"] * (argv[0] != "fit")
                + ["--strategy", "timestamps"]) == 2
    assert "needs node timestamps" in capsys.readouterr().err
    assert not out.exists()


def test_runtime_errors_exit_one(cli_files, tmp_path, capsys):
    # A singleton community defeats estimation; that is a data problem,
    # not a usage problem.
    edges = tmp_path / "tiny.edges"
    labels = tmp_path / "tiny.labels"
    edges.write_text("a\tb\nb\tc\n")
    labels.write_text("a\t0\nb\t0\nc\t1\n")
    code = main(["fit", str(edges), "--labels", str(labels)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def _stopped_bench(monkeypatch, argv):
    """The datasets and BenchConfig that ``main(argv)`` hands run_bench."""
    seen = []

    def stop(datasets, config):
        seen.append((sorted(datasets), config))
        raise RuntimeError("stop before running")

    monkeypatch.setattr(bench_mod, "run_bench", stop)
    assert main(argv) == 1
    return seen[0]


def _config_file(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return ["--config", str(path)]


def test_flag_beats_config_beats_default(cli_files, tmp_path, monkeypatch):
    base = ["bench", "--dataset", f"one={cli_files['edges']}", "--seed", "3"]
    config = _config_file(tmp_path, {"sources": 123, "replicates": 4})
    _, default = _stopped_bench(monkeypatch, base)
    _, from_file = _stopped_bench(monkeypatch, base + config)
    _, flagged = _stopped_bench(
        monkeypatch, base + config + ["--sources", "77", "--replicates", "3"])
    assert (default.metric.n_sources, default.replicates) == (
        MetricConfig.n_sources, BenchConfig.replicates)
    assert (from_file.metric.n_sources, from_file.replicates) == (123, 4)
    assert (flagged.metric.n_sources, flagged.replicates) == (77, 3)


@pytest.mark.parametrize("argv", [
    "compare {edges} {edges} --out {out}",
    "bench --dataset one={edges} --outdir {out}"])
@pytest.mark.parametrize("pairs", [["--pairs", "100"], ["--pairs=-1"],
                                   {"pairs": 100}])
def test_the_removed_pairs_option_is_a_usage_error(cli_files, tmp_path,
                                                  capsys, argv, pairs):
    # the distance rows no longer sample pairs: a pairs value is refused,
    # as any unknown flag or config key is, rather than silently ignored
    out = tmp_path / "out"
    argv = argv.format(edges=cli_files["edges2"], out=out).split()
    if isinstance(pairs, dict):
        assert main(argv + ["--seed", "1"]
                    + _config_file(tmp_path, pairs)) == 2
        assert ("config keys ['pairs'] are options of no subcommand"
                in capsys.readouterr().err)
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"] + pairs)
        assert exc.value.code == 2
        assert (f"unrecognized arguments: {' '.join(pairs)}"
                in capsys.readouterr().err)
    assert not out.exists()


def test_lists_read_from_json_or_comma_strings(cli_files, tmp_path,
                                               monkeypatch):
    base = ["bench", "--dataset", f"one={cli_files['edges']}", "--seed", "3"]
    as_flags = base + ["--methods", "cs,er", "--resolutions", "0.5,1"]
    as_strings = base + _config_file(tmp_path, {"methods": "cs,er",
                                                "resolutions": "0.5,1"})
    as_lists = base + _config_file(tmp_path, {"methods": ["cs", "er"],
                                              "resolutions": [0.5, 1]})
    for argv in (as_flags, as_strings, as_lists):
        _, config = _stopped_bench(monkeypatch, argv)
        assert config.methods == ("cs", "er")
        assert config.metric.resolutions == (0.5, 1.0)


@pytest.mark.parametrize("methods, match", [
    ("cs", "at least 2 methods"), ("cs,cs", "more than once: ['cs']")])
def test_bad_method_lists_are_usage_errors(cli_files, tmp_path, monkeypatch,
                                           capsys, methods, match):
    def fit(*args):
        raise AssertionError("fitted before checking the methods")

    monkeypatch.setattr(bench_mod, "fit_methods", fit)
    out = tmp_path / "out"
    assert main(["bench", "--dataset", f"one={cli_files['edges2']}",
                 "--seed", "3", "--methods", methods,
                 "--outdir", str(out)]) == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "generate {params} --back-ratio 1", "decycle {edges} --r -0.1",
    "baseline er {edges} --near-dag --r 1.5"])
def test_back_edge_ratios_outside_the_range_are_usage_errors(
        cli_files, tmp_path, capsys, argv):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"k": 1, "p": [1.0], "m": [2.0],
                                  "rho": [0.5], "sigma2": [2.0], "n": 50}))
    out = tmp_path / "out"
    argv = argv.format(params=params, edges=cli_files["edges2"]).split()
    assert main(argv + ["--seed", "1", "--out", str(out)]) == 2
    assert "back-edge ratio must lie in [0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, match", [
    (["--n", "0"], "n=0 is below"), (["--n", "-5"], "n=-5 is below"),
    (["--n", "2"], "n=2 is below the community count k=3"),
    (["--m", "-1"], "mean out-degrees must be positive"),
    (["--rho", "1.5"], "preferential fractions must lie in [0, 1]"),
    (["--sigma2", "-1"], "out-degree variances must be nonnegative"),
    (["--m", "inf"], "mean out-degrees must be finite"),
    (["--sigma2", "inf"], "out-degree variances must be finite"),
    (["--rho", "nan"], "preferential fractions must be finite")])
def test_validate_theory_parameters_out_of_range_are_usage_errors(
        tmp_path, capsys, flags, match):
    out = tmp_path / "ccdf.tsv"
    assert main(["validate-theory", "--seed", "1", "--out", str(out)]
                + flags) == 2
    assert match in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", ["2", "0", "-3"])
def test_generate_below_the_community_count_is_a_usage_error(
        tmp_path, capsys, n):
    params = tmp_path / "params.json"
    params.write_text(CsParams(p=(0.5, 0.3, 0.2), m=(2.0, 2.0, 2.0),
                               rho=(0.5, 0.5, 0.5),
                               sigma2=(2.0, 2.0, 2.0)).to_json())
    out = tmp_path / "out"
    assert main(["generate", str(params), "--n", n, "--seed", "1",
                 "--out", str(out)]) == 2
    assert f"n={n} is below the community count k=3" in \
        capsys.readouterr().err
    assert not out.exists()


def test_a_malformed_parameter_file_is_still_an_error(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"k": 2, "p": [1.0], "m": [2.0],
                                  "rho": [0.5], "sigma2": [2.0], "n": 50}))
    assert main(["generate", str(params), "--seed", "1",
                 "--out", str(tmp_path / "out")]) == 1
    assert "length 1 != k=2" in capsys.readouterr().err


def test_unknown_order_strategy_in_a_config_is_a_usage_error(
        cli_files, tmp_path, capsys):
    # argparse checks the flag's choices but not a config file's default
    argv = ["bench", "--dataset", f"one={cli_files['edges']}", "--seed", "3",
            "--outdir", str(tmp_path / "out")]
    assert main(argv + _config_file(tmp_path,
                                    {"order_strategy": "bogus"})) == 2
    assert "'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_only_keys(cli_files, tmp_path, monkeypatch):
    names, _ = _stopped_bench(monkeypatch, ["bench", "--seed", "3"] +
                              _config_file(tmp_path, {"dataset": [
                                  f"one={cli_files['edges']}",
                                  f"two={cli_files['edges2']}"]}))
    assert names == ["one", "two"]


@pytest.mark.parametrize("argv, given, named", [
    ("generate {params} --out {out}", {"dag_only": "false"}, "'dag_only'"),
    ("baseline er {edges} --out {out}", {"near_dag": 1}, "'near_dag'"),
    ("compare {edges} {edges} --out {out}", {"exact": "no"}, "'exact'"),
    ("compare {edges} {edges} --out {out}", {"max_nodes": 2.5},
     "'max_nodes'"),
    ("bench --dataset one={edges} --outdir {out}", {"threads": 2.9},
     "'threads'"),
    ("bench --dataset one={edges} --outdir {out}", {"replicates": True},
     "'replicates'"),
    ("bench --dataset one={edges} --outdir {out}", {"methods": 5},
     "methods"),
    ("bench --outdir {out}", {"dataset": 5}, "dataset spec"),
    ("compare {edges} {edges} --out {out}", {"sourcse": 5}, "'sourcse'"),
    ("fit {edges} --labels {labels} --out {out}", {"no_such_option": 1},
     "'no_such_option'"),
    ("validate-theory --n 100 --out {out}", ["--rho", "abc"], "--rho")])
def test_values_a_flag_would_refuse_are_usage_errors(
        cli_files, tmp_path, capsys, argv, given, named):
    # a config value is parsed as its flag's text, so it cannot run another
    # experiment than the one it names
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"k": 1, "p": [1.0], "m": [2.0],
                                  "rho": [0.5], "sigma2": [2.0], "n": 50}))
    out = tmp_path / "out"
    argv = argv.format(params=params, edges=cli_files["edges2"],
                       labels=cli_files["labels2"], out=out).split()
    flags = given if isinstance(given, list) else _config_file(tmp_path, given)
    assert main(argv + ["--seed", "1"] * (argv[0] != "fit") + flags) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_config_values_act_as_their_flags(cli_files, tmp_path):
    # positionals and switches from a file, as the same flags give them
    def run(argv, doc):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]
                    + _config_file(tmp_path, doc)) == 0
        return out.read_text()

    edges, labels = str(cli_files["edges2"]), str(cli_files["labels2"])
    params = tmp_path / "params.json"
    params.write_text(run(["fit", edges, "--labels", labels], {}))
    assert run(["fit"], {"edges": edges, "labels": labels}) == \
        params.read_text()
    flagged = run(["generate", str(params), "--seed", "4", "--dag-only"], {})
    assert run(["generate", "--seed", "4"], {"params": str(params),
                                             "dag_only": True}) == flagged
    assert run(["generate", str(params), "--seed", "4"],
               {"dag_only": False}) != flagged


def test_help_names_the_config_file_for_the_defaults_it_gives(
        tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--help"] + _config_file(tmp_path, {"sources": 12}))
    assert exc.value.code == 0
    assert "(default in --config)" in capsys.readouterr().out


def test_fit_takes_no_seed(cli_files, tmp_path, capsys):
    # fit draws nothing at random, so it declares no --seed; a config file
    # shared with the seeded subcommands may still hold one
    fit = ["fit", str(cli_files["edges"]), "--labels", str(cli_files["labels"])]
    with pytest.raises(SystemExit) as exc:
        main(fit + ["--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert main(fit) == 0
    plain = capsys.readouterr().out
    assert main(fit + _config_file(tmp_path, {"seed": 1})) == 0
    assert capsys.readouterr().out == plain


def test_config_null_means_not_given(cli_files, tmp_path, monkeypatch,
                                     capsys):
    base = ["bench", "--dataset", f"one={cli_files['edges']}"]
    _, config = _stopped_bench(monkeypatch, base + _config_file(
        tmp_path, {"replicates": None, "seed": 3}))
    assert config == BenchConfig(seed=3)
    capsys.readouterr()
    _, config = _stopped_bench(monkeypatch, base + _config_file(
        tmp_path, {"seed": None}))
    assert f"seed: {config.seed}\n" in capsys.readouterr().err


def test_dataset_flags_replace_config_datasets(cli_files, tmp_path,
                                               monkeypatch):
    one = f"one={cli_files['edges']}"
    two = f"two={cli_files['edges2']}"
    for listed in ([one], one):
        config = _config_file(tmp_path, {"dataset": listed})
        names, _ = _stopped_bench(monkeypatch, ["bench", "--seed", "3"] + config)
        assert names == ["one"]
        names, _ = _stopped_bench(monkeypatch, ["bench", "--seed", "3",
                                                "--dataset", two] + config)
        assert names == ["two"]


def test_subcommands_without_flags_use_config_defaults(cli_files, monkeypatch):
    _, config = _stopped_bench(monkeypatch, [
        "bench", "--dataset", f"one={cli_files['edges']}", "--seed", "3"])
    assert config == BenchConfig(seed=3)
    seen = []

    def stop(*args):
        seen.append(args)
        raise RuntimeError("stop before running")

    monkeypatch.setattr(cli, "compare", stop)
    assert main(["compare", str(cli_files["edges"]), str(cli_files["edges"]),
                 "--seed", "5"]) == 1
    assert seen.pop()[2] == MetricConfig(seed=5)
    monkeypatch.setattr(cli, "generate", stop)
    assert main(["validate-theory", "--seed", "5"]) == 1
    params, n, seed = seen.pop()
    assert list(params.rho) == [0.2, 0.5, 0.9]
    assert list(params.m) == list(params.sigma2) == [5.0] * 3
    assert (n, seed) == (30_000, 5)


def test_bench_ranks_each_variant_once(cli_files, tmp_path, monkeypatch,
                                       caplog):
    runs = np.ones((1, 3, 2, 2))
    runs[0, 0, 1, 0] = np.nan  # a gap in a block both variants rank
    result = bench_mod.BenchResult(
        methods=("cs", "er"), datasets=("one",), metric_names=("a", "b", "c"),
        metric_categories=("degree", "degree", "meso-endogenous"), runs=runs)
    monkeypatch.setattr(bench_mod, "run_bench", lambda datasets, config: result)
    with caplog.at_level("WARNING"):
        assert main(["bench", "--dataset", f"one={cli_files['edges']}",
                     "--seed", "3", "--outdir", str(tmp_path)]) == 0
    dropped = [rec.args[0] for rec in caplog.records
               if rec.msg.startswith("dropping %d blocks")]
    assert dropped == [1, 1]
