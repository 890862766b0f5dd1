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
    """Ranks 1..n along the last axis, ties sharing their average rank.

    Matches ``scipy.stats.rankdata(values, axis=-1)``, which citegen does
    not import for its cost: a row holding a NaN ranks all NaN.
    """
    values = np.asarray(values, np.float64)
    order = np.argsort(values, axis=-1, kind="stable")
    ordered = np.take_along_axis(values, order, axis=-1)
    slot = np.arange(values.shape[-1], dtype=np.int32)
    new = np.ones(values.shape, bool)
    new[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    # a tie group filling sorted slots first..last (0-based) has mean rank
    # (first + last + 2) / 2; its last slot precedes the next group's first
    first = np.maximum.accumulate(np.where(new, slot, 0), axis=-1)
    ends = np.where(np.roll(new, -1, axis=-1), slot, slot.size)
    last = np.minimum.accumulate(ends[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(values.shape)
    np.put_along_axis(ranks, order, (first + last + 2) / 2.0, axis=-1)
    ranks[np.isnan(values).any(axis=-1)] = np.nan
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
    return RankTable(methods=tuple(methods),
                     blocks=tuple(b for b, k in zip(blocks, keep) if k),
                     values=values, ranks=average_ranks(values))


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


def _u_test(a: np.ndarray, b: np.ndarray):
    """Mann-Whitney U and two-sided p of every row pair of ``a`` (..., n1)
    and ``b`` (..., n2): the exact permutation null for tie-free rows when
    both sizes are under 20, else a normal approximation with midrank tie
    and continuity corrections.  A row holding a NaN gets U and p NaN.
    """
    n1, n2 = a.shape[-1], b.shape[-1]
    if n1 == 0 or n2 == 0:
        raise StatsError("Mann-Whitney needs non-empty samples")
    n = n1 + n2
    ranks = average_ranks(np.concatenate([a, b], axis=-1))
    u1 = ranks[..., :n1].sum(axis=-1) - n1 * (n1 + 1) / 2.0
    # a group of t tied values lowers the sum of squared ranks from the
    # tie-free n(n+1)(2n+1)/6 by (t^3 - t)/12, exactly in half-integers
    tie_sum = 12.0 * (n * (n + 1) * (2 * n + 1) // 6
                      - np.einsum("...i,...i", ranks, ranks))
    sigma2 = n1 * n2 / 12.0 * ((n + 1) - tie_sum / (n * (n - 1)))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.maximum(np.abs(u1 - n1 * n2 / 2.0) - 0.5, 0.0) / np.sqrt(sigma2)
    p = np.where(sigma2 <= 0, 1.0, 2.0 * ndtr(-z))
    exact = (tie_sum == 0) & (n1 < 20) & (n2 < 20)
    if exact.any():
        cdf = np.cumsum(_exact_u_counts(n1, n2))
        u_static = np.where(exact, np.minimum(u1, n1 * n2 - u1), 0)
        p = np.where(exact, np.minimum(
            2.0 * cdf[u_static.astype(np.intp)] / cdf[-1], 1.0), p)
    return u1, p


def mann_whitney(a, b) -> Tuple[float, float]:
    """Mann-Whitney U (for the first sample) with a two-sided p-value;
    ``_u_test`` on one pair of samples."""
    u1, p = _u_test(np.asarray(a, np.float64), np.asarray(b, np.float64))
    return float(u1), float(p)


def wtl_matrix(runs: np.ndarray, alpha: float = 0.05):
    """Pairwise win/tie/loss tallies over blocks of replicate distances.

    ``runs`` has shape (n_blocks, n_methods, n_replicates).  Method i beats
    j in a block when the two-sided Mann-Whitney p < alpha and i's
    replicate distances sit on the lower side; one U test covers them all.
    """
    runs = np.asarray(runs, np.float64)
    if runs.ndim != 3:
        raise StatsError("runs must be (blocks, methods, replicates)")
    n_blocks, k, r = runs.shape
    i, j = np.triu_indices(k, 1)
    u1, p = _u_test(runs[:, i], runs[:, j])
    significant = p < alpha
    wins = np.zeros((k, k), np.int64)
    wins[i, j] = (significant & (u1 < r * r / 2.0)).sum(axis=0)
    wins[j, i] = (significant & (u1 > r * r / 2.0)).sum(axis=0)
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
    # block counts per draw times the ranks: half-integer ranks keep every
    # sum exact, so this is ranks[idx].mean(axis=1) without its 3-D gather
    idx += n * np.arange(draws)[:, None]
    counts = np.bincount(idx.ravel(), minlength=draws * n).reshape(draws, n)
    return np.percentile(counts @ table.ranks / n, [2.5, 97.5], axis=0).T
