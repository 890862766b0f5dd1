"""The three benchmark workloads: inputs, one measured pass, output checks.

All use the 3-community parameters ``P`` and back-edge ratio ``R``.  A
workload's inputs come only from the seed: ``setup`` builds the datasets
the passes read, and ``run`` is measured pass number ``index``.  Each pass
draws its own randomness from (seed, index) and cycles through ``POOL``
datasets, so a run's median pass time does not hinge on one graph.
``check`` verifies the outputs of one pass and ``digest`` hashes them, so
a change of RNG stream shows.  Every call into citegen goes through a
package or module attribute, so the probes in ``tracer`` see it.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile

import numpy as np

import citegen as cg
from citegen.metrics import MetricConfig

P = cg.CsParams(p=(0.5, 0.3, 0.2), m=(5.0, 4.0, 3.0), rho=(0.3, 0.5, 0.7),
                sigma2=(9.0, 8.0, 4.0))
R = 0.05
N_METRICS = 26
POOL = 8
BENCH_FILES = ["rank_table.tsv", "mean_ranks.tsv", "wtl.tsv",
               "rank_table_non_endogenous.tsv", "mean_ranks_non_endogenous.tsv",
               "wtl_non_endogenous.tsv", "friedman.tsv"]


def _seeds(seed, role, index, count):
    return np.random.SeedSequence(seed, spawn_key=(role, index)).spawn(count)


def _datasets(n, seed):
    """POOL labelled near-DAGs drawn from P: the real graphs the passes read."""
    pool = []
    for k in range(POOL):
        dag_seed, inject_seed = _seeds(seed, 1, k, 2)
        pool.append(cg.inject_back_edges(cg.generate(P, n, dag_seed), R,
                                         inject_seed))
    return pool


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes)
                 else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _edges(*graphs):
    return [a for g in graphs for a in (g.src, g.dst)]


def _check(name, ok, detail=""):
    return {"check": name, "ok": bool(ok), "detail": detail}


def check_back_edges(dag, near):
    placed = near.num_edges - dag.num_edges
    wanted = cg.back_edge_count(dag.num_edges, R)
    return _check("back_edge_count", placed == wanted, f"{placed} of {wanted}")


def check_p_recovered(fits, n):
    """|p_hat - p| within 0.01, widened to five standard errors of a share.

    Below about 60k nodes five standard errors exceed 0.01, and sampling
    alone moves p_hat by more than 0.01 on a fair share of seeds.
    """
    if not fits:
        return _check("p_recovered", False, "estimate was not called")
    p_hat = np.asarray(fits[0].params.p)
    tol = np.maximum(0.01, 5.0 * np.sqrt(P.p * (1.0 - P.p) / n))
    err = np.abs(p_hat - P.p)
    return _check("p_recovered", (err <= tol).all(),
                  f"max err {err.max():.4g}, tolerance {tol.min():.4g}-{tol.max():.4g}")


def check_values(name, values):
    values = np.asarray(values, np.float64)
    return _check(name, np.isfinite(values).all() and (values >= 0).all(),
                  f"{values.size} values")


class Grow:
    """generate -> inject -> is_acyclic -> TSV round trip -> estimate ->
    eades cycle_break -> DC-SBM -> degree-diff cycle_break -> configuration."""

    name = "grow-20k"

    def __init__(self, smoke=False):
        self.n = 3_000 if smoke else 20_000

    def config(self):
        return {"n": self.n, "r": R, "cycle_break": ["eades", "degree-diff"]}

    def setup(self, seed):
        return ()

    def run(self, datasets, seed, index, workdir):
        s = _seeds(seed, 0, index, 6)
        dag = cg.generate(P, self.n, s[0])
        near = cg.inject_back_edges(dag, R, s[1])
        acyclic = cg.is_acyclic(dag)
        tmp = tempfile.mkdtemp(dir=workdir)
        try:
            path = os.path.join(tmp, "edges.tsv")
            cg.save_edge_list(near, path)
            loaded, _ = cg.load_edge_list(path)
        finally:
            shutil.rmtree(tmp)
        cg.estimate(near)
        broken, _ = cg.cycle_break(near, R, s[2], "eades")
        dcsbm = cg.generate_dcsbm(cg.fit_sbm(broken), s[3])
        dcsbm_nd, _ = cg.cycle_break(dcsbm, R, s[4], "degree-diff")
        config, _ = cg.generate_config(cg.fit_config(broken), s[5])
        return {"dag": dag, "near": near, "acyclic": acyclic, "loaded": loaded,
                "broken": broken, "dcsbm_nd": dcsbm_nd, "config": config}

    def check(self, out, rec):
        near, loaded = out["near"], out["loaded"]
        ids = np.asarray(loaded.names).astype(np.int64)
        same = (loaded.num_edges == near.num_edges
                and np.array_equal(ids[loaded.src], near.src)
                and np.array_equal(ids[loaded.dst], near.dst))
        return [_check("is_acyclic", out["acyclic"]),
                check_back_edges(out["dag"], near),
                _check("tsv_round_trip", same, f"{loaded.num_edges} edges"),
                check_p_recovered(rec.fits, self.n)]

    def digest(self, out):
        return _digest(*_edges(out["dag"], out["near"], out["loaded"],
                               out["broken"], out["dcsbm_nd"], out["config"]))


class Compare:
    """estimate(real) -> generate(fit) -> inject -> compare(real, synth)."""

    name = "compare-1k"

    def __init__(self, smoke=False):
        self.n = 400 if smoke else 1_000
        # n exceeds triad_exact_limit, so the census is sampled; a tenth of
        # the default samples keeps a pass near 3 s (the default is 5 s alone)
        self.knobs = (dict(triad_exact_limit=200, triad_samples=5_000,
                           n_pairs=200, n_sources=50) if smoke else
                      dict(triad_exact_limit=500, triad_samples=20_000))

    def config(self):
        return {"n": self.n, "r": R, "metric": self.knobs}

    def setup(self, seed):
        return _datasets(self.n, seed)

    def run(self, datasets, seed, index, workdir):
        real = datasets[index % POOL]
        gen_seed, inject_seed = _seeds(seed, 0, index, 2)
        fit = cg.estimate(real)
        dag = cg.generate(fit.params, self.n, gen_seed)
        synth = cg.inject_back_edges(dag, R, inject_seed)
        report = cg.compare(real, synth, MetricConfig(seed=seed, **self.knobs))
        return {"dag": dag, "synth": synth, "report": report}

    def check(self, out, rec):
        report = out["report"]
        return [check_back_edges(out["dag"], out["synth"]),
                check_p_recovered(rec.fits, self.n),
                _check("metric_entries", len(report.entries) == N_METRICS,
                       f"{len(report.entries)} entries"),
                check_values("metric_values", [e.value for e in report.active()])]

    def digest(self, out):
        return _digest(*_edges(out["synth"]), out["report"].to_tsv().encode())


class BenchGrid:
    """run_bench over four methods x three replicates -> write_artifacts."""

    name = "bench-grid"
    methods = ("cs", "er-nd", "config-nd", "dcsbm-nd")

    def __init__(self, smoke=False):
        self.n = 120 if smoke else 80
        self.replicates = 2 if smoke else 3

    def config(self):
        return {"n": self.n, "r": R, "methods": list(self.methods),
                "replicates": self.replicates, "threads": 1}

    def setup(self, seed):
        return _datasets(self.n, seed)

    def run(self, datasets, seed, index, workdir):
        result = cg.run_bench({"d0": datasets[index % POOL]}, cg.BenchConfig(
            methods=self.methods, replicates=self.replicates, seed=seed,
            threads=1))
        tmp = tempfile.mkdtemp(dir=workdir)
        try:
            written = cg.write_artifacts(result, tmp, seed)
            files = {}
            for name in sorted(os.listdir(tmp)):
                with open(os.path.join(tmp, name), "rb") as fh:
                    files[name] = fh.read()
        finally:
            shutil.rmtree(tmp)
        return {"result": result, "written": written, "files": files}

    def check(self, out, rec):
        runs = out["result"].runs
        shape = (1, N_METRICS, len(self.methods), self.replicates)
        return [_check("artifact_files", out["written"] == BENCH_FILES
                       and sorted(out["files"]) == sorted(BENCH_FILES),
                       ", ".join(out["written"])),
                _check("distance_shape", runs.shape == shape, str(runs.shape)),
                check_values("distance_values", runs[~np.isnan(runs)]),
                check_p_recovered(rec.fits, self.n)]

    def digest(self, out):
        files = out["files"]
        return _digest(out["result"].runs, *(files[k] for k in sorted(files)))


WORKLOADS = {cls.name: cls for cls in (Grow, Compare, BenchGrid)}


def quality(rec):
    """rho_abs_err of the first estimate call and the mean detected modularity.

    Either is None when the pass made no such call.
    """
    rho_err = (float(np.abs(np.asarray(rec.fits[0].params.rho) - P.rho).max())
               if rec.fits else None)
    q = float(np.mean(rec.modularities)) if rec.modularities else None
    return {"rho_abs_err": rho_err, "detected_q": q}
