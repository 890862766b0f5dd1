import itertools
import logging
import math

import numpy as np
import pytest
import scipy.stats

from citegen.stats import (
    StatsError,
    average_ranks,
    bootstrap_ci,
    friedman,
    mann_whitney,
    rank_blocks,
    standardize,
    wtl_matrix,
)

METHODS3 = ("alpha", "beta", "gamma")


def blocks_for(n):
    return [(f"d{i}", "metric") for i in range(n)]


def exact_mwu_oracle(a, b):
    """Two-sided exact p by enumerating every group assignment."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n1, n2 = a.size, b.size
    pooled = np.concatenate([a, b])
    order = np.argsort(pooled)
    rank_of = np.empty(pooled.size)
    rank_of[order] = np.arange(1, pooled.size + 1)
    u_obs = rank_of[:n1].sum() - n1 * (n1 + 1) / 2.0
    u_static = min(u_obs, n1 * n2 - u_obs)
    hits = 0
    total = 0
    for subset in itertools.combinations(range(pooled.size), n1):
        u = sum(rank_of[i] for i in subset) - n1 * (n1 + 1) / 2.0
        hits += u <= u_static
        total += 1
    return min(1.0, 2.0 * hits / total)


# ----------------------------------------------------------------- ranking


def test_rank_blocks_fixture():
    table = rank_blocks(np.array([[0.1, 0.2, 0.3]]), METHODS3, blocks_for(1))
    assert table.ranks.tolist() == [[1.0, 2.0, 3.0]]
    assert table.methods == METHODS3


def test_rank_blocks_midranks_on_ties():
    table = rank_blocks(np.array([[1.0, 1.0, 2.0]]), METHODS3, blocks_for(1))
    assert table.ranks.tolist() == [[1.5, 1.5, 3.0]]


def test_average_ranks_match_scipy_rankdata():
    rng = np.random.default_rng(12)
    samples = [np.zeros(0), np.array([3.5]), np.full(7, 2.0),
               np.array([1.0, np.nan, 2.0]), np.array([-0.0, 0.0, 1.0])]
    # few distinct values in many draws: long tie runs, in any order
    samples += [rng.integers(0, k, n).astype(float)
                for n in (2, 9, 40, 500) for k in (1, 2, 5, 1000)]
    samples += [rng.normal(size=n) for n in (3, 64)]
    for values in samples:
        want = scipy.stats.rankdata(values)
        assert np.array_equal(average_ranks(values), want, equal_nan=True)
    rows = rng.integers(0, 3, (20, 6)).astype(float)
    rows[4] = 1.0
    assert np.array_equal(np.apply_along_axis(average_ranks, 1, rows),
                          scipy.stats.rankdata(rows, axis=1))


def test_rank_blocks_drops_incomplete_rows(caplog):
    values = np.array([[1.0, 2.0, 3.0], [np.nan, 1.0, 2.0], [3.0, 2.0, 1.0]])
    with caplog.at_level(logging.WARNING):
        table = rank_blocks(values, METHODS3, blocks_for(3))
    assert table.ranks.shape == (2, 3)
    assert table.blocks == (("d0", "metric"), ("d2", "metric"))
    assert "dropping 1 blocks" in caplog.text


def test_rank_blocks_mean_ranks():
    values = np.array([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0]])
    table = rank_blocks(values, METHODS3, blocks_for(2))
    assert table.mean_ranks().tolist() == [1.0, 2.5, 2.5]


def test_rank_blocks_validations():
    with pytest.raises(StatsError, match="n_methods"):
        rank_blocks(np.zeros(3), METHODS3, blocks_for(1))
    with pytest.raises(StatsError, match="2 methods"):
        rank_blocks(np.zeros((1, 1)), ("solo",), blocks_for(1))
    with pytest.raises(StatsError, match="match"):
        rank_blocks(np.zeros((2, 3)), METHODS3, blocks_for(1))
    with pytest.raises(StatsError, match="no complete"):
        rank_blocks(np.full((2, 3), np.nan), METHODS3, blocks_for(2))


def test_standardize_zscores_and_degenerate_rows():
    values = np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]])
    out = standardize(values)
    assert out[1].tolist() == [0.0, 0.0, 0.0]
    assert out[0].mean() == pytest.approx(0.0)
    assert out[0].std() == pytest.approx(1.0)
    # Standardizing never reorders a block.
    assert np.array_equal(np.argsort(out[0]), np.argsort(values[0]))


# ---------------------------------------------------------------- friedman


def test_friedman_no_signal():
    # Every method gets every rank equally often.
    values = np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 1.0], [3.0, 1.0, 2.0]])
    table = rank_blocks(values, METHODS3, blocks_for(3))
    chi2, p = friedman(table)
    assert chi2 == pytest.approx(0.0)
    assert p == pytest.approx(1.0)


def test_friedman_perfect_ordering():
    # Seven blocks agreeing on the same total order of three methods give
    # the maximum statistic 2n = 14; with two degrees of freedom the
    # chi-square survival function is exp(-chi2 / 2).
    values = np.tile([1.0, 2.0, 3.0], (7, 1))
    table = rank_blocks(values, METHODS3, blocks_for(7))
    chi2, p = friedman(table)
    assert chi2 == pytest.approx(14.0)
    assert p == pytest.approx(math.exp(-7.0), rel=1e-12)


def test_friedman_requires_enough_data():
    table = rank_blocks(np.array([[1.0, 2.0, 3.0]]), METHODS3, blocks_for(1))
    with pytest.raises(StatsError, match="2 blocks"):
        friedman(table)
    two = rank_blocks(np.array([[1.0, 2.0], [2.0, 1.0]]), ("a", "b"),
                      blocks_for(2))
    with pytest.raises(StatsError, match="3 methods"):
        friedman(two)


# ------------------------------------------------------------ mann-whitney


def test_mann_whitney_separated_fixture():
    u1, p = mann_whitney([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert u1 == 0.0
    # Two of the twenty equally likely arrangements are this extreme.
    assert p == pytest.approx(0.1)


def test_mann_whitney_identical_samples():
    u1, p = mann_whitney([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert u1 == pytest.approx(4.5)
    assert p == pytest.approx(1.0)


def test_mann_whitney_exact_matches_permutation_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = rng.normal(size=4)
        b = rng.normal(loc=rng.uniform(-2, 2), size=5)
        _, p = mann_whitney(a, b)
        assert p == pytest.approx(exact_mwu_oracle(a, b), abs=1e-9)


def test_mann_whitney_u_statistic_is_rank_sum_based():
    rng = np.random.default_rng(29)
    a = rng.normal(size=6)
    b = rng.normal(size=8)
    u1, _ = mann_whitney(a, b)
    greater = sum(x > y for x in a for y in b)
    assert u1 == pytest.approx(greater)


def test_mann_whitney_large_samples_use_normal_tail():
    rng = np.random.default_rng(31)
    a = rng.normal(size=40)
    b = rng.normal(loc=3.0, size=40)
    u1, p = mann_whitney(a, b)
    assert p < 1e-6
    assert u1 < 40 * 40 / 2


def test_mann_whitney_rejects_empty():
    with pytest.raises(StatsError):
        mann_whitney([], [1.0])


# --------------------------------------------------------------------- wtl


def test_wtl_identical_runs_all_ties():
    runs = np.tile(np.arange(5.0), (4, 3, 1))
    wins, ties, losses = wtl_matrix(runs)
    assert wins.sum() == 0 and losses.sum() == 0
    off_diag = ~np.eye(3, dtype=bool)
    assert (ties[off_diag] == 4).all()
    assert (np.diag(ties) == 0).all()


def test_wtl_dominant_method_wins_everywhere():
    reps = np.arange(1.0, 6.0)
    runs = np.stack([np.stack([reps, reps + 10, reps + 20]) for _ in range(3)])
    wins, ties, losses = wtl_matrix(runs)
    assert wins[0].tolist() == [0, 3, 3]
    assert losses[1, 0] == 3 and losses[2, 0] == 3
    assert wins[1, 2] == 3
    assert np.array_equal(losses, wins.T)
    totals = wins + ties + losses
    assert np.array_equal(totals, np.where(np.eye(3, dtype=bool), 0, 3))


def test_wtl_shape_validation():
    with pytest.raises(StatsError, match="blocks"):
        wtl_matrix(np.zeros((2, 3)))


def test_wtl_insignificant_differences_tie():
    # Three replicates can never reach p < 0.05 in the exact test.
    rng = np.random.default_rng(37)
    runs = rng.normal(size=(2, 3, 3))
    wins, ties, losses = wtl_matrix(runs)
    assert wins.sum() == 0
    off_diag = ~np.eye(3, dtype=bool)
    assert (ties[off_diag] == 2).all()


# --------------------------------------------------------------- bootstrap


def test_bootstrap_ci_deterministic_and_ordered():
    values = np.array([[1.0, 2.0, 3.0], [1.0, 3.0, 2.0], [2.0, 1.0, 3.0],
                       [1.0, 2.0, 3.0]])
    table = rank_blocks(values, METHODS3, blocks_for(4))
    ci_a = bootstrap_ci(table, draws=500, seed=7)
    ci_b = bootstrap_ci(table, draws=500, seed=7)
    assert np.array_equal(ci_a, ci_b)
    assert ci_a.shape == (3, 2)
    mean = table.mean_ranks()
    assert (ci_a[:, 0] <= mean + 1e-12).all()
    assert (ci_a[:, 1] >= mean - 1e-12).all()


def test_bootstrap_ci_single_block_has_zero_width():
    table = rank_blocks(np.array([[1.0, 2.0, 3.0]]), METHODS3, blocks_for(1))
    ci = bootstrap_ci(table, draws=50, seed=0)
    assert np.array_equal(ci[:, 0], ci[:, 1])
    assert ci[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_bootstrap_ci_single_draw():
    table = rank_blocks(np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]),
                        METHODS3, blocks_for(2))
    ci = bootstrap_ci(table, draws=1, seed=1)
    assert ci.shape == (3, 2)
    assert np.array_equal(ci[:, 0], ci[:, 1])
