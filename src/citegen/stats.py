"""Rank-based benchmark statistics: Friedman, Mann-Whitney, W/T/L, bootstrap."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy.special import chdtrc, ndtr

log = logging.getLogger(__name__)


class StatsError(ValueError):
    pass


def average_ranks(values) -> np.ndarray:
    """Ranks 1..n of a 1-D sample, ties sharing their average rank.

    Matches ``scipy.stats.rankdata`` (method "average"), which citegen does
    not import for its cost: all NaN when any value is NaN.
    """
    values = np.asarray(values, np.float64)
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new = np.r_[True, ordered[1:] != ordered[:-1]]
    # a tie group filling sorted slots first..last (1-based) has mean rank
    # (first + last) / 2
    first = np.flatnonzero(new) + 1
    last = np.r_[first[1:] - 1, values.size]
    ranks = np.empty(values.size)
    ranks[order] = ((first + last) / 2.0)[np.cumsum(new) - 1]
    return ranks


@dataclass(frozen=True)
class RankTable:
    """Per-(dataset, metric) block mean distances and within-block ranks.

    Ranks run 1 (best = smallest distance) to k (worst), with average
    ranks on ties; each block's ranks therefore sum to k(k+1)/2.
    """

    methods: Tuple[str, ...]
    blocks: Tuple[Tuple[str, str], ...]
    values: np.ndarray
    ranks: np.ndarray

    def mean_ranks(self) -> np.ndarray:
        return self.ranks.mean(axis=0)


def rank_blocks(values: np.ndarray, methods: Sequence[str],
                blocks: Sequence[Tuple[str, str]]) -> RankTable:
    """Rank methods within each block; blocks with missing values drop out."""
    values = np.asarray(values, np.float64)
    if values.ndim != 2 or values.shape[1] != len(methods):
        raise StatsError("values must be (n_blocks, n_methods)")
    if len(methods) < 2:
        raise StatsError("ranking needs at least 2 methods")
    if values.shape[0] != len(blocks):
        raise StatsError("block identifiers must match the value rows")
    keep = ~np.isnan(values).any(axis=1)
    if not keep.all():
        dropped = [blocks[i] for i in np.flatnonzero(~keep)]
        log.warning("dropping %d blocks with missing values: %s",
                    len(dropped), dropped[:5])
    values = values[keep]
    if values.shape[0] == 0:
        raise StatsError("no complete blocks to rank")
    ranks = np.apply_along_axis(average_ranks, 1, values)
    return RankTable(methods=tuple(methods),
                     blocks=tuple(b for b, k in zip(blocks, keep) if k),
                     values=values, ranks=ranks)


def standardize(values: np.ndarray) -> np.ndarray:
    """Per-block z-scores; a zero-spread block standardizes to zeros."""
    values = np.asarray(values, np.float64)
    mu = values.mean(axis=1, keepdims=True)
    sd = values.std(axis=1, keepdims=True)
    out = np.zeros_like(values)
    nz = sd[:, 0] > 0
    out[nz] = (values[nz] - mu[nz]) / sd[nz]
    return out


def friedman(table: RankTable) -> Tuple[float, float]:
    """Friedman chi-square over the rank table and its chi-square p-value."""
    n, k = table.ranks.shape
    if n < 2:
        raise StatsError("Friedman test needs at least 2 blocks")
    if k < 3:
        raise StatsError("Friedman test needs at least 3 methods")
    mean_ranks = table.mean_ranks()
    chi2 = 12.0 * n / (k * (k + 1)) * float(np.sum((mean_ranks - (k + 1) / 2.0) ** 2))
    p = float(chdtrc(k - 1, chi2))
    return chi2, p


def _exact_u_counts(n1: int, n2: int) -> np.ndarray:
    """Counts of arrangements per U value via the two-sample recurrence."""
    max_u = n1 * n2
    # table[j][u] for current i; start at i = 0: U must be 0 for every j
    table = np.zeros((n2 + 1, max_u + 1), np.float64)
    table[:, 0] = 1.0
    for i in range(1, n1 + 1):
        new = np.zeros_like(table)
        new[0, 0] = 1.0
        for j in range(1, n2 + 1):
            new[j] = new[j - 1]
            new[j, j:] += table[j, :max_u + 1 - j]
        table = new
    return table[n2]


def mann_whitney(a, b) -> Tuple[float, float]:
    """Mann-Whitney U (for the first sample) with a two-sided p-value.

    Small tie-free samples use the exact permutation null; otherwise a
    normal approximation with midrank tie correction and continuity
    correction.
    """
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    n1, n2 = a.size, b.size
    if n1 == 0 or n2 == 0:
        raise StatsError("Mann-Whitney needs non-empty samples")
    combined = np.concatenate([a, b])
    ranks = average_ranks(combined)
    r1 = float(ranks[:n1].sum())
    u1 = r1 - n1 * (n1 + 1) / 2.0
    n = n1 + n2
    _, tie_counts = np.unique(combined, return_counts=True)
    has_ties = bool((tie_counts > 1).any())
    if not has_ties and n1 < 20 and n2 < 20:
        counts = _exact_u_counts(n1, n2)
        total = counts.sum()
        u_static = min(u1, n1 * n2 - u1)
        p = 2.0 * float(counts[:int(round(u_static)) + 1].sum()) / total
        return u1, min(p, 1.0)
    mu = n1 * n2 / 2.0
    tie_term = float(np.sum(tie_counts ** 3 - tie_counts)) / (n * (n - 1))
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if sigma2 <= 0:
        return u1, 1.0
    diff = abs(u1 - mu)
    z = max(diff - 0.5, 0.0) / np.sqrt(sigma2)
    return u1, float(2.0 * ndtr(-z))


def wtl_matrix(runs: np.ndarray, alpha: float = 0.05):
    """Pairwise win/tie/loss tallies over blocks of replicate distances.

    ``runs`` has shape (n_blocks, n_methods, n_replicates).  Method i beats
    j in a block when the two-sided Mann-Whitney p < alpha and i's
    replicate distances sit on the lower side.
    """
    runs = np.asarray(runs, np.float64)
    if runs.ndim != 3:
        raise StatsError("runs must be (blocks, methods, replicates)")
    n_blocks, k, _ = runs.shape
    wins = np.zeros((k, k), np.int64)
    for bidx in range(n_blocks):
        for i in range(k):
            for j in range(i + 1, k):
                u1, p = mann_whitney(runs[bidx, i], runs[bidx, j])
                if p < alpha:
                    half = runs.shape[2] ** 2 / 2.0
                    if u1 < half:
                        wins[i, j] += 1
                    elif u1 > half:
                        wins[j, i] += 1
    losses = wins.T.copy()
    ties = n_blocks - wins - losses
    np.fill_diagonal(ties, 0)
    return wins, ties, losses


def bootstrap_ci(table: RankTable, draws: int = 10_000, seed=0) -> np.ndarray:
    """Percentile bootstrap CI of mean ranks, resampling blocks with replacement.

    Returns an array (n_methods, 2) of the 2.5th and 97.5th percentiles.
    """
    n, k = table.ranks.shape
    if n < 1:
        raise StatsError("bootstrap needs at least one block")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(draws, n))
    means = table.ranks[idx].mean(axis=1)
    return np.percentile(means, [2.5, 97.5], axis=0).T
