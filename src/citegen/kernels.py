"""Sequential numeric kernels with a numba/pure dual path.

Only loops whose steps depend on earlier steps live here: the growth
model's target resolution (the urn walk), BFS collection and DAG longest
paths.  Each is written once and compiled with numba's ``@njit`` when
available.  Setting ``CITEGEN_NO_NUMBA=1`` (or running without numba
installed) selects a pure-Python execution of the very same function
bodies.  The kernels draw no randomness: callers draw every stream with
numpy before entering a kernel and pass the uniforms in as arrays, so the
two paths produce bit-identical results.

``benchmarks/kernel_speed.py`` compares the two paths on the heavy kernels.
"""

from __future__ import annotations

import os

import numpy as np

NUMBA_DISABLED = os.environ.get("CITEGEN_NO_NUMBA", "") not in ("", "0")

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled via CITEGEN_NO_NUMBA")
    from numba import njit
    from numba.typed import List as _TypedList

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False
    _TypedList = None

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def using_numba() -> bool:
    return HAVE_NUMBA


def make_array_list(arrays):
    """Container of growable int64 buffers usable inside kernels."""
    if HAVE_NUMBA:
        out = _TypedList()
        for a in arrays:
            out.append(a)
        return out
    return list(arrays)


# ---------------------------------------------------------------------------
# growable buffers

@njit(cache=True)
def _push(bufs, counts, idx, value):
    """Append ``value`` to buffer ``idx``; a full buffer of n grows to 2n + 1."""
    buf = bufs[idx]
    n = counts[idx]
    if n >= buf.shape[0]:
        grown = np.empty(2 * n + 1, np.int64)
        grown[:n] = buf
        buf = grown
        bufs[idx] = buf
    buf[n] = value
    counts[idx] = n + 1


# ---------------------------------------------------------------------------
# growth-model generation

@njit(cache=True)
def _gen_dag(labels, d, n_acc, members, starts, urns, urn_n, u_tgt):
    """Resolve the citation targets of nodes k..n-1; return (src, dst).

    Node v makes ``n_acc[v]`` accidental draws, uniform over 0..v-1, then
    ``d[v] - n_acc[v]`` preferential ones, uniform over its community's
    urn, or over the community's earlier members while that urn is empty.
    Each draw scales the next uniform of ``u_tgt`` (one per draw, in node
    order) to an index.  A repeated target is dropped.  ``members`` lists
    the nodes by community in id order, community c from ``starts[c]``.
    Every cited node then gets one more copy in its own community's urn.
    """
    n = labels.shape[0]
    mem_n = np.ones(starts.shape[0], np.int64)
    total = d.sum()
    esrc = np.empty(total, np.int64)
    edst = np.empty(total, np.int64)
    ne = 0
    t = 0
    for v in range(starts.shape[0], n):
        c = labels[v]
        na = n_acc[v]
        first = ne
        for a in range(d[v]):
            x = u_tgt[t]
            t += 1
            if a < na:
                u = min(int(x * v), v - 1)
            elif urn_n[c] > 0:
                u = urns[c][min(int(x * urn_n[c]), urn_n[c] - 1)]
            else:
                u = members[starts[c] + min(int(x * mem_n[c]), mem_n[c] - 1)]
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
            _push(urns, urn_n, labels[edst[j]], edst[j])
        mem_n[c] += 1
    return esrc[:ne].copy(), edst[:ne].copy()


# ---------------------------------------------------------------------------
# BFS subsampling

@njit(cache=True)
def _bfs_collect(indptr, indices, source, visited, queue, budget):
    """Collect up to `budget` unvisited nodes in BFS order from source."""
    head = 0
    tail = 0
    if visited[source] or budget <= 0:
        return 0
    queue[tail] = source
    tail += 1
    visited[source] = True
    while head < tail and tail < budget:
        v = queue[head]
        head += 1
        for e in range(indptr[v], indptr[v + 1]):
            w = indices[e]
            if not visited[w]:
                visited[w] = True
                queue[tail] = w
                tail += 1
                if tail >= budget:
                    return tail
    return tail


# ---------------------------------------------------------------------------
# DAG longest paths

@njit(cache=True)
def _longest_path_lengths(indptr, indices, rank, n):
    """Longest directed path from each node, ignoring rank-violating edges.

    Kept edges point from higher rank to lower rank, so processing nodes by
    ascending rank is a topological order of the stripped graph.
    """
    order = np.argsort(rank, kind="mergesort")
    lp = np.zeros(n, np.int64)
    for i in range(n):
        v = order[i]
        best = 0
        for e in range(indptr[v], indptr[v + 1]):
            w = indices[e]
            if rank[w] < rank[v]:
                cand = lp[w] + 1
                if cand > best:
                    best = cand
        lp[v] = best
    return lp
