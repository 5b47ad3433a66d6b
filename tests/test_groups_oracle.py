"""Group validation, which gathers each cluster's rows off the population
table in one step, against the oracle in summaries_oracle, which row-stacks
the members' AssociationMatrix views in user-id order and takes one
np.linalg.svd: group_profiles' eigen vectors, weights and top power, the
scatter's random power and cross_significance's means must be equal with
==, no tolerance, at any BLAS thread count (the oracle and the package run at
the same one)."""

from __future__ import annotations

import numpy as np

import summaries_oracle as oracle
from conftest import matrix_from_rows, table_of
from eigenbehavior import (
    Partition,
    cross_significance,
    group_power_scatter,
    group_profiles,
    partition_from_labels,
)
from eigenbehavior.summaries import DEFAULT_POWER_FLOOR
from test_groups import orthogonal_population
from test_significance_oracle import assert_cross_equal


def assert_validation_equal(table, partition, min_size: int = 5, seed: int = 0) -> None:
    """Profiles, scatter points and cross significance equal the oracle's
    bit for bit, each computed from its own profiles."""
    got = group_profiles(partition, table)
    want = oracle.group_profiles(partition, table, DEFAULT_POWER_FLOOR)
    assert [(p.cluster_id, p.members) for p in got] == [(p.cluster_id, p.members) for p in want]
    for g, w in zip(got, want):
        assert (g.eigen is None) == (w.eigen is None), g.cluster_id
        if g.eigen is not None:
            assert g.eigen.vectors.tobytes() == w.eigen.vectors.tobytes(), g.cluster_id
            assert g.eigen.weights.tobytes() == w.eigen.weights.tobytes(), g.cluster_id
        assert g.top_power == w.top_power, g.cluster_id
    points = group_power_scatter(got, table, min_size=min_size, seed=seed)
    assert points == oracle.group_power_scatter(want, table, min_size, seed)
    assert_cross_equal(cross_significance(got, table), oracle.cross_significance(want, table))


def test_planted_population_with_offline_members_matches_oracle(mixed_population):
    """200 users of 60 days over 40 locations, each cluster a planted group
    with its all-offline days, under the planted partition and under a
    seeded random one whose clusters mix the groups."""
    table, truth = mixed_population
    assert_validation_equal(table, partition_from_labels(truth))
    rng = np.random.default_rng(5)
    assert_validation_equal(table, partition_from_labels({u: int(rng.integers(0, 6)) for u in table}), seed=9)


def test_all_offline_members_and_an_all_offline_cluster_match_oracle():
    """300 users of 28 slots over 20 locations, a third of the slots offline:
    every fifth user is all offline, and cluster 12 holds only such users.
    The partition's elements come in no sorted order."""
    rng = np.random.default_rng(23)
    matrices, labels = {}, {}
    for i in rng.permutation(300).tolist():
        user = f"u{i:03d}"
        cells = rng.dirichlet(np.full(20, 0.3), size=28) * (rng.random((28, 1)) < 0.67)
        if i % 5 == 0:
            cells[:] = 0.0
        matrices[user] = matrix_from_rows(cells, user)
        labels[user] = 12 if i % 5 == 0 and i < 50 else i % 12
    partition = Partition(labels)
    assert list(partition.assignment) != sorted(partition.assignment)
    assert_validation_equal(table_of(matrices), partition, seed=4)


def test_all_offline_members_keep_their_rows_in_the_joint_matrix():
    """Clusters of five online and two all-offline users of 6 slots over 20
    locations: with its offline members' zero rows a joint matrix has 42
    rows, past LAPACK's tall-matrix cut of 11/6 x 20, and without them 30,
    so the SVD takes another path and other bits."""
    rng = np.random.default_rng(43)
    matrices, labels = {}, {}
    for i in range(42):
        cells = rng.dirichlet(np.full(20, 0.3), size=6) * (rng.random((6, 1)) < 0.8)
        cells[0] = rng.dirichlet(np.full(20, 0.3))  # online on the first slot at least
        if i % 7 >= 5:
            cells[:] = 0.0
        matrices[f"u{i:02d}"] = matrix_from_rows(cells, f"u{i:02d}")
        labels[f"u{i:02d}"] = i // 7
    assert_validation_equal(table_of(matrices), partition_from_labels(labels))


def test_integer_partition_elements_gather_in_user_id_order():
    """Elements 0..11 of a partition sort as integers, 2 before 10, while
    the table's users "0".."11" sort as strings, "10" before "2": a joint
    matrix stacks its members in user-id order either way."""
    rng = np.random.default_rng(61)
    matrices = {str(i): matrix_from_rows(rng.random((6, 4)) * (rng.random((6, 1)) < 0.8), str(i)) for i in range(12)}
    partition = Partition({i: i % 2 for i in range(12)})
    assert_validation_equal(table_of(matrices), partition)


def test_orthogonal_population_with_an_offline_cluster_matches_oracle():
    matrices, partition = orthogonal_population(n_groups=3, per_group=7)
    labels = dict(partition.assignment)
    for i, label in enumerate([0, 0, 3, 3, 3, 3, 3, 3]):
        matrices[f"z{i}"] = matrix_from_rows(np.zeros((5, 3)), user_id=f"z{i}")
        labels[f"z{i}"] = label
    assert_validation_equal(table_of(matrices), partition_from_labels(labels))
