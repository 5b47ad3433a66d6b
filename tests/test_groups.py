"""Group validation: group profiles, power scatter, cross significance,
rank-size fit, and partition comparison (Jaccard against a pair-scan oracle)."""

from __future__ import annotations

import sys
import warnings

import numpy as np
import pytest

from eigenbehavior import (
    cross_significance,
    group_power_scatter,
    group_profiles,
    jaccard,
    partition_from_labels,
    rank_size_fit,
    top_groups_share,
)

import summaries_oracle
from conftest import basis_rows, matrix_from_rows, table_of


def jaccard_oracle(p, q):
    elements = sorted(p.assignment)
    r = u = v = 0
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            same_p = p.assignment[elements[i]] == p.assignment[elements[j]]
            same_q = q.assignment[elements[i]] == q.assignment[elements[j]]
            r += same_p and same_q
            u += same_p and not same_q
            v += same_q and not same_p
    return 1.0 if r + u + v == 0 else r / (r + u + v)


def orthogonal_population(n_groups=6, per_group=6, t=5):
    """Users u00..: group g lives entirely at location g."""
    matrices = {}
    labels = {}
    for g in range(n_groups):
        for k in range(per_group):
            uid = f"u{g * per_group + k:02d}"
            matrices[uid] = matrix_from_rows(
                basis_rows([g] * t, n_groups), user_id=uid
            )
            labels[uid] = g
    return matrices, partition_from_labels(labels)


# ------------------------------------------------------------ power scatter ---


def test_power_scatter_coherent_beats_random():
    matrices, partition = orthogonal_population(n_groups=8, per_group=10)
    matrices = table_of(matrices)
    profiles = group_profiles(partition, matrices)
    points = group_power_scatter(profiles, matrices, min_size=5, seed=0)
    assert len(points) == 8
    for point in points:
        assert point.size == 10
        assert point.coherent_power == pytest.approx(1.0)
        assert point.coherent_power > point.random_power
    again = group_power_scatter(profiles, matrices, min_size=5, seed=0)
    assert [p.random_power for p in again] == [p.random_power for p in points]


def test_power_scatter_size_filter_is_strict():
    matrices, partition = orthogonal_population(per_group=6)
    matrices = table_of(matrices)
    with pytest.raises(ValueError, match="more than 6"):
        group_power_scatter(group_profiles(partition, matrices), matrices, min_size=6)


def test_power_scatter_skips_offline_only_clusters():
    matrices, partition = orthogonal_population(n_groups=2, per_group=8)
    labels = dict(partition.assignment)
    for i in range(7):
        matrices[f"x{i}"] = matrix_from_rows(np.zeros((5, 2)), user_id=f"x{i}")
        labels[f"x{i}"] = 2
    matrices = table_of(matrices)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profiles = group_profiles(partition_from_labels(labels), matrices)
        points = group_power_scatter(profiles, matrices, min_size=5)
    assert [p.cluster_id for p in points] == [0, 1]
    assert all(p.coherent_power == pytest.approx(1.0) for p in points)
    assert all(np.isfinite(p.random_power) for p in points)


def test_power_scatter_draws_from_online_users_only():
    """7 users at one location beside 30 all-offline users: a sample drawn
    from everyone could hold only offline users (seed 4 did), whose joint
    matrix has no power to measure."""
    matrices = {f"a{i}": matrix_from_rows(basis_rows([0] * 5, 2), user_id=f"a{i}") for i in range(7)}
    for i in range(30):
        matrices[f"z{i:02d}"] = matrix_from_rows(np.zeros((5, 2)), user_id=f"z{i:02d}")
    labels = {u: int(u[0] == "z") for u in matrices}
    labels.update({"z00": 0, "z01": 0})  # 9 members, 7 online: the sample takes 7
    matrices = table_of(matrices)
    profiles = group_profiles(partition_from_labels(labels), matrices)
    for seed in range(10):
        (point,) = group_power_scatter(profiles, matrices, seed=seed)
        assert (point.size, point.coherent_power, point.random_power) == (9, 1.0, 1.0)


def test_power_scatter_draws_are_unchanged_when_everyone_is_online():
    matrices, partition = orthogonal_population(n_groups=4, per_group=7)
    matrices = table_of(matrices)
    profiles = group_profiles(partition, matrices)
    want = summaries_oracle.group_power_scatter(profiles, matrices, 5, 3)
    assert group_power_scatter(profiles, matrices, seed=3) == want


# ------------------------------------------------------ cross significance ---


def test_cross_significance_separates_groups():
    matrices, partition = orthogonal_population(n_groups=3, per_group=4)
    matrices = table_of(matrices)
    result = cross_significance(group_profiles(partition, matrices), matrices)
    assert len(result.per_cluster) == 3
    assert result.own_mean == pytest.approx(1.0)
    assert result.other_mean == pytest.approx(0.0)
    for _, own, other in result.per_cluster:
        assert own == pytest.approx(1.0)
        assert other == pytest.approx(0.0)


def test_cross_significance_skips_offline_only_clusters():
    matrices = {
        "a": matrix_from_rows(basis_rows([0], 2), user_id="a"),
        "b": matrix_from_rows(basis_rows([1], 2), user_id="b"),
        "dead": matrix_from_rows(np.zeros((1, 2)), user_id="dead"),
    }
    matrices = table_of(matrices)
    partition = partition_from_labels({"a": 0, "b": 1, "dead": 2})
    result = cross_significance(group_profiles(partition, matrices), matrices)
    assert [cid for cid, _, _ in result.per_cluster] == [0, 1]


def test_cross_significance_imports_no_masked_arrays(monkeypatch):
    """200 users in two clusters, the first and the last of them offline:
    the member masks drop the offline members, the means equal the per-pair
    oracle's, and nothing imports numpy.ma (np.isin's sort path did, through
    a plain np.unique)."""
    rng = np.random.default_rng(41)
    users = [f"u{i:03d}" for i in range(200)]
    matrices = {u: matrix_from_rows(rng.random((4, 3)), user_id=u) for u in users}
    for dead in ("u000", "u199"):
        matrices[dead] = matrix_from_rows(np.zeros((4, 3)), user_id=dead)
    matrices = table_of(matrices)
    profiles = group_profiles(partition_from_labels({u: i % 2 for i, u in enumerate(users)}), matrices)
    want = summaries_oracle.cross_significance(profiles, matrices)
    monkeypatch.setitem(sys.modules, "numpy.ma", None)
    monkeypatch.delattr(np, "ma", raising=False)
    assert cross_significance(profiles, matrices) == want


# ------------------------------------------------------------ rank size fit ---


def test_rank_size_fit_exact_power_law():
    sizes = [1200, 600, 400, 300]  # 1200 / rank, exactly
    labels = {}
    uid = 0
    for g, size in enumerate(sizes):
        for _ in range(size):
            labels[f"u{uid:05d}"] = g
            uid += 1
    slope, intercept = rank_size_fit(partition_from_labels(labels))
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert intercept == pytest.approx(np.log10(1200), abs=1e-12)


def test_rank_size_fit_filters_small_clusters():
    labels = {f"u{i}": i for i in range(4)}  # four singletons
    labels.update({f"v{i}": 100 + i % 3 for i in range(60)})  # three clusters of 20
    slope, _ = rank_size_fit(partition_from_labels(labels), min_size=5)
    assert slope == pytest.approx(0.0, abs=1e-12)  # equal sizes: flat line
    with pytest.raises(ValueError, match="at least 3"):
        rank_size_fit(partition_from_labels({f"u{i}": i for i in range(8)}), min_size=5)


def test_top_groups_share():
    labels = {}
    uid = 0
    for g, size in enumerate([5, 4, 3, 2, 1]):
        for _ in range(size):
            labels[f"u{uid}"] = g
            uid += 1
    partition = partition_from_labels(labels)
    assert top_groups_share(partition, k=2) == pytest.approx(9 / 15)
    assert top_groups_share(partition, k=5) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="at least 6"):
        top_groups_share(partition, k=6)


# ---------------------------------------------------------------- jaccard ---


def test_jaccard_frozen_examples():
    p = partition_from_labels({"a": 0, "b": 0, "c": 1, "d": 1})
    q = partition_from_labels({"a": 0, "b": 0, "c": 0, "d": 0})
    assert jaccard(p, q) == pytest.approx(1 / 3)
    assert jaccard(p, p) == 1.0
    singletons = partition_from_labels({"a": 0, "b": 1, "c": 2, "d": 3})
    assert jaccard(singletons, singletons) == 1.0  # no co-clustered pairs anywhere
    assert jaccard(p, singletons) == 0.0
    with pytest.raises(ValueError, match="same elements"):
        jaccard(p, partition_from_labels({"a": 0, "b": 0}))


def test_jaccard_matches_pair_scan_oracle():
    rng = np.random.default_rng(83)
    for _ in range(30):
        n = 100
        p = partition_from_labels({i: int(rng.integers(0, 8)) for i in range(n)})
        q = partition_from_labels({i: int(rng.integers(0, 8)) for i in range(n)})
        assert jaccard(p, q) == jaccard_oracle(p, q)


def test_partition_from_labels_relabels_contiguously():
    p = partition_from_labels({"b": 7, "a": 7, "c": 2})
    assert p.assignment == {"a": 0, "b": 0, "c": 1}
    assert p.clusters() == [["a", "b"], ["c"]]


# ----------------------------------------------------------- group profiles ---


def test_group_profiles():
    matrices = {
        "a": matrix_from_rows(basis_rows([0, 0], 2), user_id="a"),
        "b": matrix_from_rows(basis_rows([0, 1], 2), user_id="b"),
        "dead": matrix_from_rows(np.zeros((2, 2)), user_id="dead"),
    }
    partition = partition_from_labels({"a": 0, "b": 0, "dead": 1})
    profiles = group_profiles(partition, table_of(matrices))
    assert [p.cluster_id for p in profiles] == [0, 1]
    live = profiles[0]
    assert live.members == ("a", "b") and live.size == 2
    assert len(live.top_power) == 4
    assert all(b >= a for a, b in zip(live.top_power, live.top_power[1:]))
    assert live.top_power[-1] == pytest.approx(1.0)
    np.testing.assert_allclose(live.eigen.vectors[0], [1.0, 0.0], atol=1e-12)
    offline = profiles[1]
    assert offline.members == ("dead",) and offline.size == 1
    assert offline.eigen is None and offline.top_power == []


def test_validation_decomposes_each_cluster_once(monkeypatch):
    """group_profiles gathers and decomposes each cluster's joint matrix
    once; the scatter and cross significance read its profiles, so the only
    other SVDs are the scatter's random samples."""
    matrices, partition = orthogonal_population(n_groups=4, per_group=6)
    for i in range(6):  # an all-offline cluster: never decomposed
        matrices[f"x{i}"] = matrix_from_rows(np.zeros((5, 4)), user_id=f"x{i}")
    labels = {**partition.assignment, **{f"x{i}": 4 for i in range(6)}}
    matrices = table_of(matrices)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(len(args[0])) or svd(*args, **kwargs))
    profiles = group_profiles(partition_from_labels(labels), matrices)
    assert calls == [1] * 4  # one stack of one joint matrix a cluster with online members
    points = group_power_scatter(profiles, matrices, min_size=5, seed=0)
    cross = cross_significance(profiles, matrices)
    assert len(points) == 4 and len(cross.per_cluster) == 4
    assert calls == [1] * 4 + [6 * 5] * 4  # one more per random sample, its joint rows
    for point, profile in zip(points, profiles):
        assert point.coherent_power == profile.top_power[3]
