"""Sequential numeric kernels with a numba/pure dual path.

Only loops whose steps depend on earlier steps live here: the growth
model's target resolution, ER skip sampling, BFS collection, the exact
triad census and DAG longest paths.  Each is written once and compiled
with numba's ``@njit`` when available.  Setting
``CITEGEN_NO_NUMBA=1`` (or running without numba installed) selects a
pure-Python execution of the very same function bodies.  The kernels draw
randomness only as ``Generator.random()`` uniforms, so the two paths
consume identical RNG streams and produce bit-identical results; callers
draw every other stream with numpy before entering a kernel.

``benchmarks/kernel_speed.py`` compares the two paths on the heavy kernels.
"""

from __future__ import annotations

import math
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
def _grow(arr, need):
    cap = arr.shape[0]
    while cap < need:
        cap *= 2
    out = np.empty(cap, np.int64)
    out[: arr.shape[0]] = arr
    return out


@njit(cache=True)
def _push(bufs, counts, idx, value):
    buf = bufs[idx]
    n = counts[idx]
    if n >= buf.shape[0]:
        buf = _grow(buf, n + 1)
        bufs[idx] = buf
    buf[n] = value
    counts[idx] = n + 1


# ---------------------------------------------------------------------------
# uniform index draws

@njit(cache=True)
def _rand_below(rng, n):
    j = int(rng.random() * n)
    if j >= n:
        j = n - 1
    return j


# ---------------------------------------------------------------------------
# growth-model generation

@njit(cache=True)
def _gen_dag(labels, d, n_acc, members, starts, urns, urn_n, rng_tgt):
    """Resolve the citation targets of nodes k..n-1; return (src, dst).

    Node v makes ``n_acc[v]`` accidental draws, uniform over 0..v-1, then
    ``d[v] - n_acc[v]`` preferential ones, uniform over its community's
    urn, or over the community's earlier members while that urn is empty.
    A repeated target is dropped.  ``members`` lists the nodes by
    community in id order, community c from ``starts[c]``.  Every cited
    node then gets one more copy in its own community's urn.
    """
    n = labels.shape[0]
    mem_n = np.ones(starts.shape[0], np.int64)
    total = d.sum()
    esrc = np.empty(total, np.int64)
    edst = np.empty(total, np.int64)
    ne = 0
    for v in range(starts.shape[0], n):
        c = labels[v]
        na = n_acc[v]
        first = ne
        for a in range(d[v]):
            if a < na:
                u = _rand_below(rng_tgt, v)
            elif urn_n[c] > 0:
                u = urns[c][_rand_below(rng_tgt, urn_n[c])]
            else:
                u = members[starts[c] + _rand_below(rng_tgt, mem_n[c])]
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
# Erdos-Renyi skip sampling over ordered non-self pairs

@njit(cache=True)
def _er_edges(n, p, rng):
    total = n * (n - 1)
    cap = int(total * p * 1.2) + 64
    esrc = np.empty(cap, np.int64)
    edst = np.empty(cap, np.int64)
    ne = 0
    log1mp = math.log1p(-p) if p < 1.0 else -math.inf
    idx = -1
    while True:
        if p >= 1.0:
            gap = 1
        else:
            u = rng.random()
            gap = 1 + int(math.floor(math.log1p(-u) / log1mp))
        idx += gap
        if idx >= total:
            break
        s = idx // (n - 1)
        off = idx % (n - 1)
        t = off if off < s else off + 1
        if ne >= esrc.shape[0]:
            esrc = _grow(esrc, ne + 1)
            edst = _grow(edst, ne + 1)
        esrc[ne] = s
        edst[ne] = t
        ne += 1
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
# exact triad census

@njit(cache=True)
def _has_sorted(indices, lo, hi, x):
    while lo < hi:
        mid = (lo + hi) // 2
        v = indices[mid]
        if v == x:
            return True
        if v < x:
            lo = mid + 1
        else:
            hi = mid
    return False


@njit(cache=True)
def _tricode(out_indptr, out_indices, u, v, w):
    code = 0
    if _has_sorted(out_indices, out_indptr[u], out_indptr[u + 1], v):
        code += 1
    if _has_sorted(out_indices, out_indptr[v], out_indptr[v + 1], u):
        code += 2
    if _has_sorted(out_indices, out_indptr[u], out_indptr[u + 1], w):
        code += 4
    if _has_sorted(out_indices, out_indptr[w], out_indptr[w + 1], u):
        code += 8
    if _has_sorted(out_indices, out_indptr[v], out_indptr[v + 1], w):
        code += 16
    if _has_sorted(out_indices, out_indptr[w], out_indptr[w + 1], v):
        code += 32
    return code


@njit(cache=True)
def _triad_census_exact(und_indptr, und_indices, out_indptr, out_indices,
                        n, table):
    counts = np.zeros(16, np.int64)
    for u in range(n):
        for iu in range(und_indptr[u], und_indptr[u + 1]):
            v = und_indices[iu]
            if v <= u:
                continue
            # size of the joint neighborhood of u and v (excluding u, v)
            a = und_indptr[u]
            ae = und_indptr[u + 1]
            b = und_indptr[v]
            be = und_indptr[v + 1]
            union = 0
            while a < ae or b < be:
                if a < ae and (b >= be or und_indices[a] < und_indices[b]):
                    x = und_indices[a]
                    a += 1
                elif b < be and (a >= ae or und_indices[b] < und_indices[a]):
                    x = und_indices[b]
                    b += 1
                else:
                    x = und_indices[a]
                    a += 1
                    b += 1
                if x != u and x != v:
                    union += 1
            mutual = _has_sorted(out_indices, out_indptr[u], out_indptr[u + 1], v) and \
                _has_sorted(out_indices, out_indptr[v], out_indptr[v + 1], u)
            if mutual:
                counts[2] += n - union - 2
            else:
                counts[1] += n - union - 2
            # connected triples, counted once per Batagelj-Mrvar rule
            a = und_indptr[u]
            b = und_indptr[v]
            while a < ae or b < be:
                if a < ae and (b >= be or und_indices[a] < und_indices[b]):
                    x = und_indices[a]
                    a += 1
                elif b < be and (a >= ae or und_indices[b] < und_indices[a]):
                    x = und_indices[b]
                    b += 1
                else:
                    x = und_indices[a]
                    a += 1
                    b += 1
                if x == u or x == v:
                    continue
                if v < x or (u < x and x < v and
                             not _has_sorted(und_indices, und_indptr[u],
                                             und_indptr[u + 1], x)):
                    counts[table[_tricode(out_indptr, out_indices, u, v, x)]] += 1
    total = n * (n - 1) * (n - 2) // 6
    rest = 0
    for i in range(1, 16):
        rest += counts[i]
    counts[0] = total - rest
    return counts


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
