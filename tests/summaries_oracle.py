"""Behavioral modes clustered once per threshold, as they were before the
package cut every threshold's modes from one merge tree per user.

The oracle for summaries._mode_clusterings, behavioral_modes and
centroid_first_mode.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from cluster_oracle import agglomerate
from eigenbehavior import ModeClustering


def behavioral_modes(matrix, threshold: float) -> ModeClustering:
    """Cluster the online rows by average linkage under Manhattan distance."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    online_mask = matrix.rows.sum(axis=1) > 0
    online = np.flatnonzero(online_mask)
    offline = [int(i) for i in np.flatnonzero(~online_mask)]
    if online.size == 0:
        return ModeClustering([], [], offline, threshold)
    rows = matrix.rows[online]
    dm = cdist(rows, rows, "cityblock")
    clusters = agglomerate(dm, threshold=threshold, labels=[int(i) for i in online]).clusters()
    pos = {int(row): p for p, row in enumerate(online)}
    centroids = [rows[[pos[i] for i in members]].mean(axis=0) for members in clusters]
    return ModeClustering(clusters, centroids, offline, threshold)


def modal_class(matrix, threshold: float) -> bool:
    """True when the user shows two or more distinct online behavioral modes."""
    return behavioral_modes(matrix, threshold).multi_modal
