"""significance, summary_table and cross_significance, which score through one
significances table, against the per-pair oracle in summaries_oracle: every
score and mean must be equal with ==, no tolerance, at any BLAS thread count
(the oracle and the package run at the same one)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import summaries_oracle as oracle
from conftest import basis_rows, matrix_from_rows, table_of
from eigenbehavior import (
    PopulationTable,
    cross_significance,
    eigen_sets_for,
    group_profiles,
    partition_from_labels,
    significance,
    summary_table,
    summary_vectors,
)
from eigenbehavior.summaries import significances
from test_groups import orthogonal_population

PROPERTY = settings(max_examples=150, deadline=None)


def test_significances_of_no_users_are_an_empty_table():
    """No users to score: an empty (0, k) table, for shared vectors or a set each."""
    rows = np.random.default_rng(0).random((3, 4, 2))
    for vectors in (np.ones((2, 2)), np.ones((0, 2, 2))):
        got = significances(rows, vectors, np.array([], dtype=np.intp))
        assert got.shape == (0, 2) and got.dtype == float


def same(got: float, want: float) -> bool:
    return got == want or (math.isnan(got) and math.isnan(want))


def scores(result) -> list[float]:
    return [x for _, *pair in result.per_cluster for x in pair] + [result.own_mean, result.other_mean]


def assert_cross_equal(got, want) -> None:
    assert [c for c, _, _ in got.per_cluster] == [c for c, _, _ in want.per_cluster]
    assert all(map(same, scores(got), scores(want))), (got, want)


def assert_all_equal(matrices, partition) -> None:
    """Every (online user, cluster vector) significance, the summary table
    and cross significance equal the oracle's, or both refuse alike."""
    matrices = table_of(matrices)
    profiles = group_profiles(partition, matrices)
    firsts = [p.eigen.vectors[0] for p in profiles if p.eigen is not None]
    for matrix in matrices.values():
        if matrix.online.any():
            for y in firsts:
                assert significance(matrix, y) == oracle.significance(matrix, y)
    if firsts:
        assert_cross_equal(cross_significance(profiles, matrices), oracle.cross_significance(profiles, matrices))
    else:
        with pytest.raises(ValueError, match="no cluster has online members"):
            cross_significance(profiles, matrices)
    sets = eigen_sets_for(matrices)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if any(s is not None for s in sets.values()):
            summary = summary_vectors(matrices, sets)
            assert summary_table(matrices, summary) == oracle.summary_table(matrices, sets)
        else:
            with pytest.raises(ValueError, match="no users with online slots"):
                summary_vectors(matrices, sets)


def test_orthogonal_population_matches_oracle():
    assert_all_equal(*orthogonal_population(n_groups=5, per_group=7))


def test_offline_users_and_an_offline_only_cluster_match_oracle():
    """Two offline users in an online cluster, three in a cluster of their own."""
    matrices, partition = orthogonal_population(n_groups=3, per_group=4)
    labels = dict(partition.assignment)
    for i, label in enumerate([0, 0, 3, 3, 3]):
        matrices[f"z{i}"] = matrix_from_rows(np.zeros((5, 3)), user_id=f"z{i}")
        labels[f"z{i}"] = label
    assert_all_equal(matrices, partition_from_labels(labels))


def test_cluster_of_mixed_online_and_offline_rows_matches_oracle():
    rows = {
        "a": [0, None, 1, 2],
        "b": [None, None, 0, 0],
        "c": [2, 2, None, 1],
        "d": [1, 0, 2, None],
        "e": [None, None, None, None],
    }
    matrices = {}
    for user, pattern in rows.items():
        cells = basis_rows(pattern, 3)
        cells[cells.sum(axis=1) > 0] += [0.1, 0.2, 0.3]
        matrices[user] = matrix_from_rows(cells, user_id=user)
    assert_all_equal(matrices, partition_from_labels({"a": 0, "b": 0, "c": 1, "d": 1, "e": 1}))


@pytest.mark.parametrize("n_locations", [1, 3])
def test_single_slot_matrices_match_oracle(n_locations):
    rng = np.random.default_rng(3)
    matrices = {f"s{i}": matrix_from_rows(rng.random((1, n_locations)), user_id=f"s{i}") for i in range(9)}
    matrices["s9"] = matrix_from_rows(np.zeros((1, n_locations)), user_id="s9")
    assert_all_equal(matrices, partition_from_labels({u: int(u[1:]) % 3 for u in matrices}))


def test_noisy_planted_population_matches_oracle(mixed_population):
    matrices, truth = mixed_population
    assert_all_equal(matrices, partition_from_labels({u: truth[u] for u in matrices}))


@st.composite
def random_population(draw):
    """A few users of one shape with random cells in thousandths, some rows
    and some users offline, in up to four clusters."""
    n_slots, n_locations = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    cell = st.integers(0, 1000).map(lambda x: x / 1000)
    row = st.one_of(st.just([0.0] * n_locations), st.lists(cell, min_size=n_locations, max_size=n_locations))
    users = draw(st.lists(st.lists(row, min_size=n_slots, max_size=n_slots), min_size=1, max_size=10))
    labels = draw(st.lists(st.integers(0, 3), min_size=len(users), max_size=len(users)))
    matrices = {f"u{i}": matrix_from_rows(rows, user_id=f"u{i}") for i, rows in enumerate(users)}
    return matrices, partition_from_labels(dict(zip(matrices, labels)))


@PROPERTY
@given(random_population())
def test_random_population_matches_oracle(population):
    assert_all_equal(*population)


def test_one_table_equals_one_call_per_pair():
    """Shared and per-matrix vectors, across several blocks."""
    rng = np.random.default_rng(8)
    matrices = [matrix_from_rows(rng.random((28, 20)) * (rng.random((28, 1)) < 0.7), f"m{i}") for i in range(400)]
    shared = rng.random((3, 20))
    own = rng.random((400, 2, 20))
    want_shared = [[oracle.significance(m, y) for y in shared] for m in matrices]
    want_own = [[oracle.significance(m, y) for y in ys] for m, ys in zip(matrices, own)]
    rows = np.stack([m.rows for m in matrices])
    assert significances(rows, shared, np.arange(400)).tolist() == want_shared
    assert significances(rows, own, np.arange(400)).tolist() == want_own
    # a gather of the rows in another order scores the same pairs
    at = np.random.default_rng(9).permutation(400)
    assert significances(rows, own[at], at).tolist() == [want_own[i] for i in at]


def test_mixed_shapes_raise():
    """The scoring stages read one (users, slots, locations) PopulationTable,
    so matrices of mixed shapes cannot reach them: the table refuses rows
    that are not one such array over its users and location index."""
    short = matrix_from_rows(basis_rows([0, 1], 2), user_id="a")
    wide = matrix_from_rows(basis_rows([0, 2], 3), user_id="c")
    for users, rows in (
        (["a"], short.rows),  # one matrix, not a stack of them
        (["a", "c"], short.rows[None]),  # one matrix for two users
        (["a"], wide.rows[None]),  # three locations over an index of two
    ):
        with pytest.raises(ValueError, match=r"rows must be \(users, slots, locations\)"):
            PopulationTable(users, short.location_index, rows)
