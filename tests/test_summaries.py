"""Behavior summaries: weighted average, mode centroids, eigen-behavior vectors.

The eigen-behavior oracle is a hand-solved 2x2 eigendecomposition plus, on
random inputs, the independent eigvalsh route through X^T X.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from eigenbehavior import (
    EigenBehaviorSet,
    centroid_first_mode,
    eigen_behaviors,
    eigen_sets_for,
    onavg,
    power_captured,
    significance,
    summary_table,
    summary_vectors,
)
from eigenbehavior.cluster import METRIC_MAX
from eigenbehavior.summaries import MODE_THRESHOLDS, SUMMARY_NAMES, _mode_cuts

from conftest import basis_rows, matrix_from_rows, table_of
from summaries_oracle import modal_class


def random_matrix(rng, t=12, n=5, offline=0):
    rows = rng.uniform(0, 1, size=(t, n))
    rows /= rows.sum(axis=1, keepdims=True)
    for i in range(offline):
        rows[i] = 0.0
    return matrix_from_rows(rows)


# ------------------------------------------------------------------ onavg ---


def test_onavg_weighted_average():
    m = matrix_from_rows(basis_rows([0, 0, 1], 2))
    np.testing.assert_allclose(onavg(m), [2 / 3, 1 / 3])


def test_onavg_ignores_offline_rows_via_mass():
    m = matrix_from_rows(basis_rows([0, None, 1], 2))
    np.testing.assert_allclose(onavg(m), [0.5, 0.5])


def test_onavg_requires_online_time():
    with pytest.raises(ValueError, match="no online slots"):
        onavg(matrix_from_rows(np.zeros((3, 2))))


# ----------------------------------------------------------- significance ---


def test_significance_frozen_values():
    m = matrix_from_rows(basis_rows([0, 1], 2))
    assert significance(m, np.array([1.0, 0.0])) == pytest.approx(0.5)
    all_first = matrix_from_rows(basis_rows([0, 0, 0], 2))
    assert significance(all_first, np.array([1.0, 0.0])) == pytest.approx(1.0)


def test_significance_scales_with_raw_vector_length():
    m = matrix_from_rows(basis_rows([0, 1], 2))
    y = np.array([2.0, 0.0])
    assert significance(m, y) == pytest.approx(1.0)


def test_significance_validation():
    m = matrix_from_rows(basis_rows([0], 2))
    with pytest.raises(ValueError, match="shape"):
        significance(m, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="nonzero"):
        significance(m, np.zeros(2))


# -------------------------------------------------------- behavioral modes ---


def mode_rows(matrix, threshold):
    """The rows of each of matrix's modes at threshold, read off the roots
    of its online rows, and the largest mode's centroid."""
    (roots,), centroids = _mode_cuts(matrix.rows[None], matrix.online[None], (threshold,))
    online = np.flatnonzero(matrix.online)
    return [online[roots == root].tolist() for root in np.unique(roots)], centroids[0, 0]


def test_mode_cuts_without_online_rows_are_empty():
    """No matrix with an online row grows no tree: no roots, and NaN centroids."""
    roots, centroids = _mode_cuts(np.zeros((2, 3, 2)), np.zeros((2, 3), bool), (0.5, 1.0))
    assert roots.shape == (2, 0)
    assert centroids.shape == (2, 2, 2) and np.isnan(centroids).all()


def test_modes_two_clear_clusters():
    m = matrix_from_rows(basis_rows([0, 0, 0, 1, 1, None], 2))
    modes, largest = mode_rows(m, threshold=0.5)
    assert modes == [[0, 1, 2], [3, 4]]  # the offline row 5 is in no mode
    np.testing.assert_allclose(largest, [1.0, 0.0])
    assert modal_class(m, 0.5)


def test_modes_merge_under_loose_threshold():
    m = matrix_from_rows(basis_rows([0, 0, 0, 1, 1], 2))
    modes, largest = mode_rows(m, threshold=2.0)
    assert modes == [[0, 1, 2, 3, 4]]
    np.testing.assert_allclose(largest, [0.6, 0.4])
    assert not modal_class(m, 2.0)


def test_modes_average_linkage_boundary():
    rows = np.array([[1.0, 0.0], [0.8, 0.2], [0.5, 0.5]])
    m = matrix_from_rows(rows)
    # d(0,1)=0.4 merges at 0.5; the merged pair sits at mean linkage 0.8 from row 2.
    assert mode_rows(m, threshold=0.5)[0] == [[0, 1], [2]]
    assert mode_rows(m, threshold=0.9)[0] == [[0, 1, 2]]


def test_centroid_first_mode_picks_largest():
    m = matrix_from_rows(basis_rows([0, 0, 0, 1, 1], 2))
    np.testing.assert_allclose(centroid_first_mode(m, 0.5), [1.0, 0.0])


def test_centroid_first_mode_tie_goes_to_earliest_row():
    m = matrix_from_rows(basis_rows([1, 1, 0, 0], 2))
    np.testing.assert_allclose(centroid_first_mode(m, 0.5), [0.0, 1.0])


def test_centroid_requires_online_time():
    with pytest.raises(ValueError, match="no online slots"):
        centroid_first_mode(matrix_from_rows(np.zeros((2, 2))), 0.5)
    modes, largest = mode_rows(matrix_from_rows(np.zeros((2, 2))), 0.5)
    assert modes == [] and np.isnan(largest).all()


# -------------------------------------------------------- eigen behaviors ---


def test_eigen_rank_one_matrix():
    m = matrix_from_rows(basis_rows([0, 0, 0], 2))
    eb = eigen_behaviors(m)
    assert eb.vectors.shape == (1, 2)
    np.testing.assert_allclose(eb.vectors[0], [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(eb.weights, [1.0])


def test_eigen_hand_solved_two_by_two():
    # rows (0.8,0.2) and (0.2,0.8): X^T X = [[0.68,0.32],[0.32,0.68]],
    # eigenpairs (1.0, (1,1)/sqrt2) and (0.36, (1,-1)/sqrt2).
    m = matrix_from_rows([[0.8, 0.2], [0.2, 0.8]])
    eb = eigen_behaviors(m, power_floor=0.0)
    r = 1 / math.sqrt(2)
    np.testing.assert_allclose(eb.vectors[0], [r, r], atol=1e-12)
    np.testing.assert_allclose(np.abs(eb.vectors[1]), [r, r], atol=1e-12)
    assert eb.vectors[1][0] * eb.vectors[1][1] < 0  # the contrast direction
    np.testing.assert_allclose(eb.weights, [1.0 / 1.36, 0.36 / 1.36], atol=1e-12)


def test_eigen_orthogonal_two_direction_weights():
    m = matrix_from_rows(basis_rows([0, 1, 0], 2))
    eb = eigen_behaviors(m, power_floor=0.0)
    np.testing.assert_allclose(eb.vectors, [[1.0, 0.0], [0.0, 1.0]], atol=1e-12)
    np.testing.assert_allclose(eb.weights, [2 / 3, 1 / 3])


def test_eigen_sign_canonical_and_orthonormal():
    rng = np.random.default_rng(41)
    for _ in range(25):
        eb = eigen_behaviors(random_matrix(rng, t=20, n=6), power_floor=0.0)
        gram = eb.vectors @ eb.vectors.T
        np.testing.assert_allclose(gram, np.eye(len(eb.weights)), atol=1e-8)
        assert np.all(np.diff(eb.weights) <= 1e-12)
        assert eb.weights.sum() == pytest.approx(1.0)
        peaks = eb.vectors[np.arange(len(eb.weights)), np.abs(eb.vectors).argmax(axis=1)]
        assert np.all(peaks > 0)


def test_eigen_matches_eigvalsh_of_gram_matrix():
    rng = np.random.default_rng(43)
    for _ in range(25):
        m = random_matrix(rng, t=15, n=4)
        eb = eigen_behaviors(m, power_floor=0.0)
        evals = np.linalg.eigvalsh(m.rows.T @ m.rows)[::-1]
        np.testing.assert_allclose(
            eb.weights, evals[: len(eb.weights)] / evals.sum(), atol=1e-9
        )
        assert evals.sum() == pytest.approx((m.rows**2).sum())


def test_power_floor_drops_weak_directions():
    rows = np.vstack([basis_rows([0] * 2000, 2), basis_rows([1], 2)])
    m = matrix_from_rows(rows)
    assert eigen_behaviors(m).vectors.shape == (1, 2)  # 1/2001 < 0.001 dropped
    assert eigen_behaviors(m, power_floor=0.0).vectors.shape == (2, 2)


def test_first_vector_survives_any_floor():
    m = matrix_from_rows([[0.8, 0.2], [0.2, 0.8]])
    eb = eigen_behaviors(m, power_floor=0.9)  # first weight 0.735 < floor
    assert eb.vectors.shape == (1, 2)


def test_eigen_validation():
    m = matrix_from_rows(basis_rows([0], 2))
    with pytest.raises(ValueError, match="power_floor"):
        eigen_behaviors(m, power_floor=1.0)
    with pytest.raises(ValueError, match="no online slots"):
        eigen_behaviors(matrix_from_rows(np.zeros((2, 2))))


def test_eigen_set_invariants_enforced():
    with pytest.raises(ValueError):
        EigenBehaviorSet(np.array([[2.0, 0.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        EigenBehaviorSet(
            np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.3, 0.7])
        )


# --------------------------------------------------------- power captured ---


def test_power_captured_monotone_and_complete():
    rng = np.random.default_rng(47)
    m = random_matrix(rng, t=10, n=4)
    values = [power_captured(m, k) for k in range(1, 6)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[3] == pytest.approx(1.0)  # rank <= 4
    assert values[4] == pytest.approx(1.0)  # k beyond rank saturates
    with pytest.raises(ValueError):
        power_captured(m, 0)


def test_power_captured_matches_eigvalsh():
    rng = np.random.default_rng(53)
    m = random_matrix(rng, t=18, n=6)
    evals = np.sort(np.linalg.eigvalsh(m.rows.T @ m.rows))[::-1]
    for k in (1, 2, 3):
        assert power_captured(m, k) == pytest.approx(
            evals[:k].sum() / evals.sum(), abs=1e-9
        )


# ------------------------------------------------------------ summary table ---


def test_summary_names_name_each_kind_and_its_metric():
    """One table names each summary's summary.csv row and the --metric that
    clusters on it; the eigen-behavior summary has no metric."""
    assert SUMMARY_NAMES == (
        ("onavg", "onavg"),
        ("centroid@0.5", "centroid05"),
        ("centroid@0.9", "centroid09"),
        ("svd", None),
    )
    assert {metric for _, metric in SUMMARY_NAMES if metric} < set(METRIC_MAX)


def test_summary_vectors_hold_each_online_users_summaries():
    mats = {
        "b": matrix_from_rows(basis_rows([1, 1, 0, 2], 3), user_id="b"),
        "dead": matrix_from_rows(np.zeros((4, 3)), user_id="dead"),
        "a": matrix_from_rows(basis_rows([0, 2, 2, 1], 3), user_id="a"),
    }
    mats = table_of(mats)
    sets = eigen_sets_for(mats)
    with pytest.warns(UserWarning, match=r"^summary_vectors: skipped all-offline users: \['dead'\]$"):
        summary = summary_vectors(mats, sets)
    assert summary.ids == ("a", "b")  # the table's sorted order
    assert summary.vectors.shape == (2, len(SUMMARY_NAMES), 3)
    for user, vectors in zip(summary.ids, summary.vectors):
        want = [onavg(mats[user])]
        want += [centroid_first_mode(mats[user], thr) for thr in MODE_THRESHOLDS]
        want += [sets[user].vectors[0]]
        np.testing.assert_array_equal(vectors, want)


def test_summary_table_keys_and_ranges():
    mats = {
        "a": matrix_from_rows(basis_rows([0, 0, 1], 2), user_id="a"),
        "b": matrix_from_rows(basis_rows([1, 1, 1], 2), user_id="b"),
    }
    mats = table_of(mats)
    table = summary_table(mats, summary_vectors(mats, eigen_sets_for(mats)))
    assert list(table) == [name for name, _ in SUMMARY_NAMES]
    for value in table.values():
        assert 0.0 <= value <= 1.0 + 1e-9
    # user b is perfectly regular: every summary scores 1.0 there, so the
    # table means are pulled by user a, whose first mode covers 2/3 of slots.
    assert table["centroid@0.5"] == pytest.approx((1.0 + 2 / 3) / 2)


def test_summary_table_skips_offline_users_with_warning():
    mats = {
        "a": matrix_from_rows(basis_rows([0, 1], 2), user_id="a"),
        "dead": matrix_from_rows(np.zeros((2, 2)), user_id="dead"),
    }
    mats = table_of(mats)
    sets = eigen_sets_for(mats)
    with pytest.warns(UserWarning, match="all-offline"):
        table = summary_table(mats, summary_vectors(mats, sets))
    alone = table_of({"a": mats["a"]})
    clean = summary_table(alone, summary_vectors(alone, sets))
    assert table == clean
    with pytest.raises(ValueError, match="no users"), pytest.warns(UserWarning):
        summary_vectors(table_of({"dead": mats["dead"]}), sets)
    with pytest.raises(ValueError, match="no eigen-behavior set"), pytest.warns(UserWarning):
        summary_vectors(mats, {"dead": None})
