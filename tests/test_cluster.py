"""Average-linkage clustering against a direct cross-pair-mean oracle.

The production code uses the running Lance-Williams recursion; the oracle
recomputes every linkage as the plain mean over all cross pairs of original
elements, with the same tie rule (lexicographically smallest id pair).  For
average linkage the two must agree.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import checked, unfold, upper
from eigenbehavior import DistanceMatrix, Partition, agglomerate, cluster, distance_cdfs
from eigenbehavior.cluster import pair_index, row_runs


def naive_average_linkage(dm, threshold=None, target_count=None):
    n = dm.shape[0]
    clusters = {i: [i] for i in range(n)}
    history = []
    while len(clusters) > 1:
        if target_count is not None and len(clusters) == target_count:
            break
        ids = sorted(clusters)
        best = None
        for ai, a in enumerate(ids):
            for b in ids[ai + 1 :]:
                d = np.mean([dm[x, y] for x in clusters[a] for y in clusters[b]])
                if best is None or d < best[0]:
                    best = (d, a, b)
        d, a, b = best
        if threshold is not None and d > threshold:
            break
        history.append((a, b, float(d)))
        clusters[a] = clusters[a] + clusters.pop(b)
    assignment = {}
    for cid, key in enumerate(sorted(clusters)):
        for x in clusters[key]:
            assignment[x] = cid
    return assignment, history


def random_dm(rng, n):
    raw = rng.uniform(0.1, 1.0, size=(n, n))
    dm = (raw + raw.T) / 2.0
    np.fill_diagonal(dm, 0.0)
    return dm


# ------------------------------------------------------------- hand cases ---


def test_three_points_on_a_line():
    dm = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
    p = agglomerate(checked(dm), threshold=2.0)
    assert p.assignment == {0: 0, 1: 0, 2: 1}
    assert p.merge_history == [(0, 1, 1.0)]
    full = agglomerate(checked(dm), target_count=1)
    assert full.merge_history == [(0, 1, 1.0), (0, 2, 4.5)]
    assert full.assignment == {0: 0, 1: 0, 2: 0}


def test_all_tied_distances_merge_lowest_ids_first():
    dm = np.ones((4, 4)) - np.eye(4)
    p = agglomerate(checked(dm), target_count=1)
    assert p.merge_history == [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]


def test_tie_prefers_smaller_first_id():
    # (0,2) and (1,2) tie at 1; (0,1) is larger.
    dm = np.array([[0.0, 2.0, 1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    p = agglomerate(checked(dm), target_count=2)
    assert p.merge_history == [(0, 2, 1.0)]
    assert p.assignment == {0: 0, 2: 0, 1: 1}


def test_threshold_is_inclusive():
    dm = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert agglomerate(checked(dm), threshold=1.0).n_clusters == 1
    assert agglomerate(checked(dm), threshold=0.999).n_clusters == 2


def test_labels_key_the_assignment():
    dm = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 4.0], [5.0, 4.0, 0.0]])
    p = agglomerate(checked(dm, ["w", "x", "y"]), threshold=2.0)
    assert p.assignment == {"w": 0, "x": 0, "y": 1}
    assert p.clusters() == [["w", "x"], ["y"]]
    assert p.sizes() == [2, 1]


def test_single_element():
    p = agglomerate(checked(np.zeros((1, 1))), threshold=1.0)
    assert p.assignment == {0: 0}
    assert p.merge_history == []


def test_validation_errors():
    dm = checked(np.zeros((3, 3)))
    with pytest.raises(ValueError, match="exactly one"):
        agglomerate(dm)
    with pytest.raises(ValueError, match="exactly one"):
        agglomerate(dm, threshold=1.0, target_count=2)
    with pytest.raises(ValueError, match="target_count"):
        agglomerate(dm, target_count=0)


def test_nan_threshold_is_refused_and_inf_and_negative_keep_their_meaning():
    """A NaN threshold would merge everything, as no linkage exceeds it; inf
    merges everything and a negative threshold merges nothing."""
    dm = checked(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))
    with pytest.raises(ValueError, match="threshold must not be NaN"):
        agglomerate(dm, threshold=float("nan"))
    with pytest.raises(ValueError, match="threshold must not be NaN"):
        cluster.merge_histories(dm.values[None], threshold=np.nan)
    assert agglomerate(dm, threshold=float("inf")).n_clusters == 1
    assert agglomerate(dm, threshold=-1.0).n_clusters == 3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nan_and_infinite_distances_are_refused(bad):
    """A metric outside METRIC_MAX has no range to refuse them, and an inf
    made agglomerate merge slot 0 with itself at inf and drop two ids."""
    with pytest.raises(ValueError, match="distances must not be NaN or infinite"):
        DistanceMatrix(np.array([bad, 1.0, bad]), "custom", ("a", "b", "c"))


def test_repeated_ids_are_refused():
    with pytest.raises(ValueError, match=r"ids must be distinct; repeated: \['a'\]"):
        DistanceMatrix(np.zeros(3), "custom", ("a", "a", "c"))


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_row_runs_are_the_triangles_rows(n):
    """Row a's run holds the pairs (a, j > a): the runs are views that tile
    the triangle in order, pair_index places each pair in it, and writing
    through them fills it."""
    values = np.zeros(n * (n - 1) // 2)
    runs = row_runs(values, n)
    assert len(runs) == max(n - 1, 0)
    assert [len(run) for run in runs] == list(range(n - 1, 0, -1))
    assert [pair_index(n, a, j) for a in range(n) for j in range(a + 1, n)] == list(range(values.size))
    square = np.zeros((n, n))
    for a, run in enumerate(runs):
        assert np.shares_memory(run, values)
        run[:] = np.arange(a + 1, n) + 10 * a
        square[a, a + 1 :] = run
    assert np.array_equal(values, upper(square))
    dm = DistanceMatrix(values, "custom", range(n))
    assert np.array_equal(unfold(dm), square + square.T)


def test_a_checked_matrix_is_validated_once(monkeypatch):
    calls = []
    post_init = DistanceMatrix.__post_init__
    monkeypatch.setattr(DistanceMatrix, "__post_init__", lambda dm: calls.append(1) or post_init(dm))
    dm = DistanceMatrix(upper(random_dm(np.random.default_rng(3), 6)), "eigen", "abcdef")
    partition = agglomerate(dm, target_count=2)
    distance_cdfs(partition, dm)
    assert len(calls) == 1


# ----------------------------------------------------------------- oracle ---


def test_matches_naive_oracle_target_count():
    rng = np.random.default_rng(101)
    for _ in range(30):
        n = int(rng.integers(3, 41))
        dm = random_dm(rng, n)
        k = int(rng.integers(1, n + 1))
        got = agglomerate(checked(dm), target_count=k)
        want_assign, want_hist = naive_average_linkage(dm, target_count=k)
        assert got.assignment == want_assign
        assert [(a, b) for a, b, _ in got.merge_history] == [
            (a, b) for a, b, _ in want_hist
        ]
        np.testing.assert_allclose(
            [d for _, _, d in got.merge_history],
            [d for _, _, d in want_hist],
            atol=1e-9,
        )


def test_matches_naive_oracle_threshold():
    rng = np.random.default_rng(103)
    for _ in range(30):
        n = int(rng.integers(3, 31))
        dm = random_dm(rng, n)
        threshold = float(rng.uniform(0.2, 0.9))
        got = agglomerate(checked(dm), threshold=threshold)
        want_assign, want_hist = naive_average_linkage(dm, threshold=threshold)
        assert got.assignment == want_assign
        assert len(got.merge_history) == len(want_hist)


def test_merge_distances_nondecreasing():
    rng = np.random.default_rng(107)
    for _ in range(20):
        n = int(rng.integers(3, 41))
        p = agglomerate(checked(random_dm(rng, n)), target_count=1)
        ds = [d for _, _, d in p.merge_history]
        assert all(b >= a - 1e-12 for a, b in zip(ds, ds[1:]))


def test_threshold_between_merge_levels_reproduces_prefix():
    rng = np.random.default_rng(109)
    for _ in range(20):
        n = int(rng.integers(4, 31))
        dm = random_dm(rng, n)
        full = agglomerate(checked(dm), target_count=1)
        ds = [d for _, _, d in full.merge_history]
        m = int(rng.integers(1, n - 1))
        if ds[m] - ds[m - 1] < 1e-9:
            continue
        cut = (ds[m - 1] + ds[m]) / 2.0
        p = agglomerate(checked(dm), threshold=cut)
        assert p.merge_history == full.merge_history[:m]
        assert p.n_clusters == n - m


# ------------------------------------------------------------------- cdfs ---


def test_distance_cdfs_hand_case():
    dm = np.array(
        [
            [0.0, 0.1, 0.8, 0.9],
            [0.1, 0.0, 0.7, 0.6],
            [0.8, 0.7, 0.0, 0.2],
            [0.9, 0.6, 0.2, 0.0],
        ]
    )
    p = Partition(assignment={0: 0, 1: 0, 2: 1, 3: 1})
    intra, inter = distance_cdfs(p, checked(dm))
    np.testing.assert_allclose(intra, [0.1, 0.2])
    np.testing.assert_allclose(inter, [0.6, 0.7, 0.8, 0.9])
    assert len(intra) + len(inter) == 6


def test_distance_cdfs_split_the_square_by_its_cluster_mask():
    rng = np.random.default_rng(23)
    square = random_dm(rng, 40)
    labels = rng.integers(0, 5, 40)
    intra, inter = distance_cdfs(Partition(dict(enumerate(labels.tolist()))), checked(square))
    same = upper(labels[:, None] == labels)
    assert np.array_equal(intra, np.sort(upper(square)[same]))
    assert np.array_equal(inter, np.sort(upper(square)[~same]))


def test_distance_cdfs_with_labels():
    dm = np.array([[0.0, 0.5], [0.5, 0.0]])
    p = Partition(assignment={"a": 0, "b": 0})
    intra, inter = distance_cdfs(p, checked(dm, ["a", "b"]))
    np.testing.assert_allclose(intra, [0.5])
    assert inter.size == 0
