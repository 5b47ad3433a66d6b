"""Property tests on tie-heavy inputs: behavioral modes cut from one merge tree
per user against the per-threshold oracle in summaries_oracle, and threshold
clustering against the prefix of a full merge history."""

from __future__ import annotations

from itertools import takewhile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import summaries_oracle as oracle
from conftest import checked
from eigenbehavior import agglomerate, behavioral_modes, centroid_first_mode
from eigenbehavior.cluster import partition_from_merges
from eigenbehavior.summaries import _mode_tables

from conftest import matrix_from_rows

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


def assert_modes_equal(got, want):
    assert got.row_clusters == want.row_clusters
    assert got.offline_rows == want.offline_rows
    assert got.threshold == want.threshold
    assert len(got.centroids) == len(want.centroids)
    for a, b in zip(got.centroids, want.centroids):
        np.testing.assert_array_equal(a, b)


@PROPERTY
@given(tie_heavy_matrix(), st.lists(THRESHOLDS, min_size=1, max_size=4))
def test_modes_cut_from_one_tree_match_per_threshold_oracle(matrix, thresholds):
    cut = next(_mode_tables([matrix], tuple(thresholds)))
    assert len(cut) == len(thresholds)
    for thr, modes in zip(thresholds, cut):
        want = oracle.behavioral_modes(matrix, thr)
        assert_modes_equal(modes, want)
        assert_modes_equal(behavioral_modes(matrix, thr), want)
        assert modes.multi_modal == oracle.modal_class(matrix, thr)
        if want.row_clusters:
            sizes = [len(members) for members in want.row_clusters]
            np.testing.assert_array_equal(
                centroid_first_mode(matrix, thr), want.centroids[sizes.index(max(sizes))]
            )


@PROPERTY
@given(small_integer_distances(), st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]))
def test_threshold_run_is_prefix_of_full_history(dm, threshold):
    n = dm.shape[0]
    labels = [f"e{i}" for i in range(n)]
    full = agglomerate(checked(dm, labels), target_count=1)
    assert len(full.merge_history) == n - 1
    prefix = list(takewhile(lambda merge: merge[2] <= threshold, full.merge_history))
    cut = agglomerate(checked(dm, labels), threshold=threshold)
    assert cut.merge_history == prefix
    assert list(cut.assignment.items()) == list(
        partition_from_merges(prefix, labels).assignment.items()
    )
