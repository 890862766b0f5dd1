import subprocess
import sys
import os

import numpy as np
import pytest

from citegen import kernels

PIPELINE_SNIPPET = r"""
import hashlib
import numpy as np
from citegen import kernels
from citegen.generator import CsParams, generate
from citegen.neardag import cycle_break, inject_back_edges
from citegen.baselines import ErFit, generate_er
from citegen.metrics.triads import triad_census
from citegen.metrics.communities import detect_communities
from citegen.metrics.paths import betweenness_values

print("numba", kernels.HAVE_NUMBA)
params = CsParams(p=(0.5, 0.3, 0.2), m=(5.0, 4.0, 3.0),
                  rho=(0.3, 0.5, 0.7), sigma2=(9.0, 8.0, 4.0))
dag = generate(params, 400, 3)
near = inject_back_edges(dag, 0.1, 5)
er = generate_er(ErFit(n=300, p=0.02), 7)
broken, _ = cycle_break(near, 0.15, 9, "degree-diff")
census = triad_census(er, n_samples=20000, seed=1)
labels, q = detect_communities(near, 1.0, 2)
btw = betweenness_values(near, np.arange(0, 400, 7))
digest = hashlib.sha256()
for arr in (dag.src, dag.dst, near.src, near.dst, er.src, er.dst,
            broken.src, broken.dst, labels):
    digest.update(np.ascontiguousarray(arr).tobytes())
digest.update(census.tobytes())
digest.update(np.float64(q).tobytes())
digest.update(btw.tobytes())
print("digest", digest.hexdigest())
"""


DEFAULT_SNIPPET = r"""
from citegen import kernels
print("numba", kernels.HAVE_NUMBA)
print("using", kernels.using_numba())
"""


def run_snippet(snippet: str, disable_numba: bool):
    """Run ``snippet`` in a fresh interpreter; parse its "key value" lines.

    ``CITEGEN_NO_NUMBA`` is removed from the child's environment, then set
    when ``disable_numba`` is true, so the caller's setting never leaks in.
    """
    env = dict(os.environ)
    env.pop("CITEGEN_NO_NUMBA", None)
    if disable_numba:
        env["CITEGEN_NO_NUMBA"] = "1"
    proc = subprocess.run([sys.executable, "-c", snippet],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return dict(line.split(" ", 1) for line in proc.stdout.split("\n") if line)


def run_pipeline(disable_numba: bool):
    lines = run_snippet(PIPELINE_SNIPPET, disable_numba)
    return lines["numba"], lines["digest"]


def test_numba_path_active_by_default():
    pytest.importorskip("numba")
    lines = run_snippet(DEFAULT_SNIPPET, disable_numba=False)
    assert lines["numba"] == "True"
    assert lines["using"] == "True"


def test_pure_path_bit_identical_to_numba_path():
    pytest.importorskip("numba")
    numba_flag, numba_digest = run_pipeline(disable_numba=False)
    pure_flag, pure_digest = run_pipeline(disable_numba=True)
    assert numba_flag == "True"
    assert pure_flag == "False"
    assert numba_digest == pure_digest


def test_array_list_push_grows():
    bufs = kernels.make_array_list([np.empty(1, np.int64)])
    counts = np.zeros(1, np.int64)
    for value in range(10):
        kernels._push(bufs, counts, 0, value)
    assert counts[0] == 10
    assert bufs[0][:10].tolist() == list(range(10))


def test_gen_dag_top_uniform_stays_in_range():
    # The largest double below 1 resolves to the last index of each range:
    # node 1's cold-start draw to the only earlier member, each accidental
    # draw to node v - 1, and each urn draw to the urn's last entry
    # (node 0, after the urn fills as [0], then [0, 1, 0]).
    labels = np.zeros(4, np.int64)
    d = np.array([0, 1, 2, 2], np.int64)
    n_acc = np.array([0, 0, 1, 1], np.int64)
    urns = kernels.make_array_list([np.empty(1, np.int64)])
    u_tgt = np.full(int(d.sum()), np.nextafter(1.0, 0.0))
    src, dst = kernels._gen_dag(labels, d, n_acc, np.arange(4, dtype=np.int64),
                                np.zeros(1, np.int64), urns,
                                np.zeros(1, np.int64), u_tgt)
    assert src.tolist() == [1, 2, 2, 3, 3]
    assert dst.tolist() == [0, 1, 0, 2, 0]
