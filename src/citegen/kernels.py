"""Hot numeric kernels with a numba/pure dual path.

Every kernel below is written once and compiled with numba's ``@njit`` when
available.  Setting ``CITEGEN_NO_NUMBA=1`` (or running without numba
installed) selects a pure-Python execution of the very same function bodies.
All random draws go through ``Generator.random()`` uniforms only, so the two
paths consume identical RNG streams and produce bit-identical results.

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
    from numba import njit as _numba_njit
    from numba.typed import List as _TypedList

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False
    _TypedList = None

    def _numba_njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def wrap(func):
            return func

        return wrap


def njit(*args, **kwargs):
    return _numba_njit(*args, **kwargs)


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
# distribution draws built from Generator.random() uniforms only

@njit(cache=True)
def _rand_below(rng, n):
    j = int(rng.random() * n)
    if j >= n:
        j = n - 1
    return j


@njit(cache=True)
def _categorical(rng, cum_p):
    u = rng.random()
    k = cum_p.shape[0]
    for i in range(k):
        if u < cum_p[i]:
            return i
    return k - 1


@njit(cache=True)
def _normal_draw(rng):
    # Marsaglia polar method; second variate discarded for a fixed draw order.
    while True:
        a = 2.0 * rng.random() - 1.0
        b = 2.0 * rng.random() - 1.0
        s = a * a + b * b
        if s > 0.0 and s < 1.0:
            return a * math.sqrt(-2.0 * math.log(s) / s)


@njit(cache=True)
def _gamma_draw(rng, shape):
    # Marsaglia-Tsang squeeze; shape < 1 handled by the boost identity.
    boost = 1.0
    a = shape
    if shape < 1.0:
        u = rng.random()
        boost = u ** (1.0 / shape)
        a = shape + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = _normal_draw(rng)
        t = 1.0 + c * x
        if t <= 0.0:
            continue
        v = t * t * t
        u = rng.random()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return boost * d * v
        if u < 1e-300:
            return boost * d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return boost * d * v


@njit(cache=True)
def _poisson_draw(rng, lam):
    if lam <= 0.0:
        return 0
    if lam < 30.0:
        # Knuth product-of-uniforms
        limit = math.exp(-lam)
        k = 0
        p = rng.random()
        while p > limit:
            k += 1
            p *= rng.random()
        return k
    # Hormann PTRS transformed rejection, exact for lam >= 10
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = int(math.floor((2.0 * a / us + b) * u + lam + 0.43))
        if us >= 0.07 and v <= v_r:
            return k
        if k < 0:
            continue
        if us < 0.013 and v > us:
            continue
        if v < 1e-300:
            return k
        if (
            math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b)
            <= k * math.log(lam) - lam - math.lgamma(k + 1.0)
        ):
            return k


@njit(cache=True)
def _binomial_draw(rng, n, p):
    c = 0
    for _ in range(n):
        if rng.random() < p:
            c += 1
    return c


@njit(cache=True)
def _geometric_draw(rng, p):
    # support {1, 2, ...}
    u = rng.random()
    return 1 + int(math.floor(math.log1p(-u) / math.log1p(-p)))


@njit(cache=True)
def _out_degree_draw(rng, m, sigma2, upper):
    if sigma2 > m:
        r = m * m / (sigma2 - m)
        p_nb = m / sigma2
        scale = (1.0 - p_nb) / p_nb
        lam = _gamma_draw(rng, r) * scale
        d = _poisson_draw(rng, lam)
    else:
        d = _poisson_draw(rng, m)
    if d > upper:
        d = upper
    return d


# ---------------------------------------------------------------------------
# open-addressing int64 hash set (prime capacity, double hashing)

_HS_PRIMES = (
    53, 97, 193, 389, 769, 1543, 3079, 6151, 12289, 24593, 49157, 98317,
    196613, 393241, 786433, 1572869, 3145739, 6291469, 12582917, 25165843,
    50331653, 100663319, 201326611, 402653189, 805306457, 1610612741,
)


def hs_capacity(expected: int) -> int:
    need = 3 * max(expected, 1)
    for p in _HS_PRIMES:
        if p >= need:
            return p
    return _HS_PRIMES[-1]


def hs_new(expected: int) -> np.ndarray:
    return np.full(hs_capacity(expected), -1, np.int64)


@njit(cache=True)
def _hs_insert(table, key):
    # returns True when the key was absent; keys must be >= 0
    m = table.shape[0]
    i = key % m
    step = 1 + key % (m - 2)
    while True:
        cur = table[i]
        if cur == key:
            return False
        if cur == -1:
            table[i] = key
            return True
        i += step
        if i >= m:
            i -= m


@njit(cache=True)
def _hs_contains(table, key):
    m = table.shape[0]
    i = key % m
    step = 1 + key % (m - 2)
    while True:
        cur = table[i]
        if cur == key:
            return True
        if cur == -1:
            return False
        i += step
        if i >= m:
            i -= m


@njit(cache=True)
def _hs_fill_edges(table, src, dst, n):
    for e in range(src.shape[0]):
        _hs_insert(table, src[e] * n + dst[e])


# ---------------------------------------------------------------------------
# growth-model generation

@njit(cache=True)
def _gen_dag(n, cum_p, m, rho, sigma2, members, mem_n, urns, urn_n,
             rng_cat, rng_deg, rng_split, rng_tgt):
    k = cum_p.shape[0]
    labels = np.empty(n, np.int64)
    for c in range(k):
        labels[c] = c
    esrc = np.empty(1024, np.int64)
    edst = np.empty(1024, np.int64)
    ne = 0
    tbuf = np.empty(64, np.int64)
    for v in range(k, n):
        c = _categorical(rng_cat, cum_p)
        labels[v] = c
        d = _out_degree_draw(rng_deg, m[c], sigma2[c], v)
        n_acc = _binomial_draw(rng_split, d, 1.0 - rho[c])
        n_pref = d - n_acc
        if d > tbuf.shape[0]:
            tbuf = np.empty(d, np.int64)
        nt = 0
        for _ in range(n_acc):
            u = _rand_below(rng_tgt, v)
            dup = False
            for j in range(nt):
                if tbuf[j] == u:
                    dup = True
                    break
            if not dup:
                tbuf[nt] = u
                nt += 1
        for _ in range(n_pref):
            if urn_n[c] > 0:
                u = urns[c][_rand_below(rng_tgt, urn_n[c])]
            else:
                mc = mem_n[c]
                if mc == 0:
                    continue
                u = members[c][_rand_below(rng_tgt, mc)]
            dup = False
            for j in range(nt):
                if tbuf[j] == u:
                    dup = True
                    break
            if not dup:
                tbuf[nt] = u
                nt += 1
        if ne + nt > esrc.shape[0]:
            esrc = _grow(esrc, ne + nt)
            edst = _grow(edst, ne + nt)
        for j in range(nt):
            u = tbuf[j]
            esrc[ne] = v
            edst[ne] = u
            ne += 1
            _push(urns, urn_n, labels[u], u)
        _push(members, mem_n, c, v)
    return esrc[:ne].copy(), edst[:ne].copy(), labels


# ---------------------------------------------------------------------------
# back-edge injection

@njit(cache=True)
def _inject_back_edges(n, n_back, table, labels, has_labels, eligible,
                       p_geom, p_intra, max_try, rng):
    bsrc = np.empty(n_back, np.int64)
    bdst = np.empty(n_back, np.int64)
    added = 0
    for _ in range(n_back):
        intra = has_labels and eligible.shape[0] > 0 and rng.random() < p_intra
        placed = False
        for phase in range(2):
            # phase 0 honors the intra constraint, phase 1 retries without it
            if phase == 1 and not intra:
                break
            want_intra = intra and phase == 0
            for _t in range(max_try):
                if want_intra:
                    v = eligible[_rand_below(rng, eligible.shape[0])]
                else:
                    v = _rand_below(rng, n)
                g = _geometric_draw(rng, p_geom)
                if g > v:
                    continue
                u = v - g
                if want_intra and labels[u] != labels[v]:
                    continue
                key = u * n + v
                if _hs_insert(table, key):
                    bsrc[added] = u
                    bdst[added] = v
                    added += 1
                    placed = True
                    break
            if placed:
                break
    return bsrc[:added].copy(), bdst[:added].copy()


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
# betweenness (Brandes accumulation from a set of sources)

@njit(cache=True)
def _betweenness(indptr, indices, sources, n):
    bc = np.zeros(n, np.float64)
    dist = np.empty(n, np.int64)
    sigma = np.empty(n, np.float64)
    delta = np.empty(n, np.float64)
    queue = np.empty(n, np.int64)
    for si in range(sources.shape[0]):
        s = sources[si]
        dist[:] = -1
        sigma[:] = 0.0
        delta[:] = 0.0
        head = 0
        tail = 0
        queue[tail] = s
        tail += 1
        dist[s] = 0
        sigma[s] = 1.0
        while head < tail:
            v = queue[head]
            head += 1
            dv = dist[v]
            for e in range(indptr[v], indptr[v + 1]):
                w = indices[e]
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue[tail] = w
                    tail += 1
                if dist[w] == dv + 1:
                    sigma[w] += sigma[v]
        for qi in range(tail - 1, -1, -1):
            v = queue[qi]
            dv = dist[v]
            acc = 0.0
            for e in range(indptr[v], indptr[v + 1]):
                w = indices[e]
                if dist[w] == dv + 1 and sigma[w] > 0.0:
                    acc += sigma[v] / sigma[w] * (1.0 + delta[w])
            delta[v] = acc
            if v != s:
                bc[v] += acc
    return bc


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
