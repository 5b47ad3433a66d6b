"""Property tests on tie-heavy inputs: behavioral modes cut from one merge tree
per user against the per-threshold oracle in summaries_oracle, and threshold
clustering against the prefix of a full merge history.  A random population's
modes and centroid distances, cut in chunks of 1, 2 and 7 users whose
triangles are measured a few rows at a time, against the same oracle."""

from __future__ import annotations

from itertools import takewhile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

import summaries_oracle as oracle
from cluster_oracle import partition_from_merges
from conftest import checked
from eigenbehavior import agglomerate, centroid_first_mode, trace
from eigenbehavior.distances import eigen_sets_for, summary_l1_distance
from eigenbehavior.summaries import MODE_THRESHOLDS, _mode_cuts, summary_vectors

from conftest import matrix_from_rows, table_of

PROPERTY = settings(max_examples=200, deadline=None)

# Thresholds on the grid where Manhattan distances between these rows and
# their average linkages tend to land, so cuts fall exactly on merge heights.
THRESHOLDS = st.sampled_from([0.0, 0.25, 0.5, 2 / 3, 0.75, 0.9, 1.0, 4 / 3, 1.5, 2.0, 3.0])


@st.composite
def tie_heavy_matrix(draw):
    """Rows drawn from a small pool: offline rows, basis rows and normalized
    small-integer rows, so duplicate rows and equal distances are common."""
    n = draw(st.integers(1, 4))
    pool = [np.zeros(n)] + [np.eye(n)[k] for k in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        weights = np.array(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), float)
        if weights.sum() > 0:
            pool.append(weights / weights.sum())
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=14))
    return matrix_from_rows(np.array([pool[p] for p in picks]))


@st.composite
def small_integer_distances(draw):
    n = draw(st.integers(1, 9))
    values = draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(values, dtype=float).reshape(n, n), k=1)
    return upper + upper.T


def assert_roots_are_modes(matrix, root, want):
    """root, the online rows' roots at one threshold, names the oracle's modes
    by their earliest rows, and the rows in no mode are the offline ones."""
    online = np.flatnonzero(matrix.online)
    assert [online[root == r].tolist() for r in np.unique(root)] == want.row_clusters
    assert (root <= np.arange(root.size)).all() and (root[root] == root).all()  # earliest rows
    assert (np.unique(root).size >= 2) == want.multi_modal
    assert np.flatnonzero(~matrix.online).tolist() == want.offline_rows


@PROPERTY
@given(tie_heavy_matrix(), st.lists(THRESHOLDS, min_size=1, max_size=4))
def test_modes_cut_from_one_tree_match_per_threshold_oracle(matrix, thresholds):
    roots, centroids = _mode_cuts(matrix.rows[None], matrix.online[None], tuple(thresholds))
    assert roots.shape == (len(thresholds), matrix.online.sum())
    for thr, root, centroid in zip(thresholds, roots, centroids[0]):
        want = oracle.behavioral_modes(matrix, thr)
        assert_roots_are_modes(matrix, root, want)
        if want.row_clusters:
            np.testing.assert_array_equal(centroid, oracle.largest_mode_centroid(want))
            np.testing.assert_array_equal(centroid_first_mode(matrix, thr), centroid)
        else:
            assert np.isnan(centroid).all()


@PROPERTY
@given(small_integer_distances(), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]))
def test_threshold_run_is_prefix_of_full_history(dm, threshold):
    n = dm.shape[0]
    labels = [f"e{i}" for i in range(n)]
    full = agglomerate(checked(dm, labels), target_count=1)
    assert len(full.merge_history) == n - 1
    prefix = list(takewhile(lambda merge: merge[2] <= threshold, full.merge_history.tolist()))
    cut = agglomerate(checked(dm, labels), threshold=threshold)
    assert cut.merge_history.tolist() == prefix
    assert list(cut.assignment.items()) == list(
        partition_from_merges(prefix, labels).assignment.items()
    )


@pytest.fixture(scope="module")
def population():
    """200 users of 28 rows over 4 locations, each row near one of a user's
    two prototypes, each user offline on a random share of its rows; u000 is
    all offline, u001 has one online row and u002 is online on every row."""
    rng = np.random.default_rng(8)
    prototypes = rng.random((6, 4)) ** 3  # peaked, so most users are multi-modal at 0.9 too
    matrices = {}
    for u in range(200):
        picks = rng.choice(rng.choice(6, size=2, replace=False), size=28, p=[0.7, 0.3])
        rows = prototypes[picks] + 0.2 * rng.random((28, 4))
        rows /= rows.sum(axis=1, keepdims=True)
        rows[rng.random(28) < rng.uniform(0.0, 0.8)] = 0.0
        matrices[f"u{u:03d}"] = rows
    matrices["u000"][:] = 0.0
    matrices["u001"][1:] = 0.0
    matrices["u002"] = prototypes[rng.integers(0, 6, 28)]
    matrices = table_of({u: matrix_from_rows(rows, u) for u, rows in matrices.items()})
    modes = {thr: {u: oracle.behavioral_modes(m, thr) for u, m in matrices.items()} for thr in MODE_THRESHOLDS}
    return matrices, modes


@pytest.mark.parametrize("per_chunk", [1, 2, 7])
def test_population_cut_in_chunks_matches_oracle(population, per_chunk, monkeypatch):
    matrices, modes = population
    online_counts = [int(m.online.sum()) for m in matrices.values()]
    assert {0, 1, 28} <= set(online_counts) and len(set(online_counts)) > 10
    # chunks of per_chunk trees of 28 rows; a chunk's triangles fit in one
    # l1_triangles block, whose blocks over stacks test_cluster_oracle checks
    monkeypatch.setattr(trace, "BLOCK_CELLS", per_chunk * 28**2)

    roots, _ = _mode_cuts(matrices.rows, matrices.online, MODE_THRESHOLDS)
    ends = np.cumsum(online_counts)
    for (user, matrix), end, count in zip(matrices.items(), ends, online_counts):
        for thr, root in zip(MODE_THRESHOLDS, roots[:, end - count : end]):
            assert_roots_are_modes(matrix, root, modes[thr][user])

    with pytest.warns(UserWarning, match=r"skipped all-offline users: \['u000'\]"):
        summary = summary_vectors(matrices, eigen_sets_for(matrices))
    for metric, thr in [("centroid05", 0.5), ("centroid09", 0.9)]:
        dm = summary_l1_distance(*summary.column(metric), metric)
        assert dm.ids == tuple(sorted(matrices))[1:]
        centroids = np.array([oracle.largest_mode_centroid(modes[thr][u]) for u in dm.ids])
        assert np.array_equal(dm.values, pdist(centroids, "cityblock"))
