"""Behavioral modes clustered once per threshold, as they were before the
package cut every threshold's modes from one merge tree per user, and
significance scored one (user, vector) pair at a time, as it was before the
package scored every pair of a summary table or of cross significance in one
significances table.

The oracle for summaries._mode_cuts and centroid_first_mode, and for
significance, summary_table and groups.cross_significance; and, as each
matrix was decomposed by its own SVD before the package took one stacked
SVD per block of users, for distances.eigen_sets_for and
summaries.eigen_decompositions.  And, as the package built each joint group
matrix before it gathered a cluster's rows off the population table in one
step, for groups.group_profiles and group_power_scatter: np.vstack of the
members' AssociationMatrix views in user-id order, then np.linalg.svd.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from cluster_oracle import agglomerate
from eigenbehavior import AssociationMatrix, CrossSignificance, EigenBehaviorSet, GroupProfile, ScatterPoint
from eigenbehavior.summaries import MODE_THRESHOLDS


@dataclass
class ModeClustering:
    """Online rows grouped into behavioral modes; offline rows form the trivial cluster."""

    row_clusters: list[list[int]]
    centroids: list[np.ndarray]
    offline_rows: list[int]
    threshold: float

    @property
    def multi_modal(self) -> bool:
        return len(self.row_clusters) >= 2


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


def largest_mode_centroid(modes: ModeClustering) -> np.ndarray:
    """Centroid of the mode with the most rows, the earliest row's mode on ties."""
    sizes = [len(members) for members in modes.row_clusters]
    return modes.centroids[sizes.index(max(sizes))]


def modal_class(matrix, threshold: float) -> bool:
    """True when the user shows two or more distinct online behavioral modes."""
    return behavioral_modes(matrix, threshold).multi_modal


def significance(matrix, y: np.ndarray) -> float:
    """SIG(y): total |row . y| over total L1 row mass, scoring y as given."""
    y = np.asarray(y, dtype=float)
    if y.shape != (matrix.n_locations,):
        raise ValueError(f"y must have shape ({matrix.n_locations},)")
    if np.linalg.norm(y) == 0:
        raise ValueError("y must be nonzero")
    denom = np.abs(matrix.rows).sum()
    if denom <= 0:
        raise ValueError(f"user {matrix.user_id!r} has no online slots")
    return float(np.abs(matrix.rows @ y).sum() / denom)


def summary_table(matrices, eigen_sets) -> dict[str, float]:
    """Mean significance per summary kind over all users with online time,
    four significance calls a user."""
    usable = {u: m for u, m in matrices.items() if m.online.any()}
    skipped = sorted(set(matrices) - set(usable))
    if skipped:
        warnings.warn(f"summary_table: skipped all-offline users: {skipped}")
    if not usable:
        raise ValueError("no users with online slots")
    scores: dict[str, list[float]] = {"onavg": []}
    for thr in MODE_THRESHOLDS:
        scores[f"centroid@{thr:g}"] = []
    scores["svd"] = []
    for user, matrix in usable.items():
        rows = matrix.rows
        scores["onavg"].append(significance(matrix, rows.sum(axis=0) / np.abs(rows).sum()))
        for thr in MODE_THRESHOLDS:
            centroid = largest_mode_centroid(behavioral_modes(matrix, thr))
            scores[f"centroid@{thr:g}"].append(significance(matrix, centroid))
        scores["svd"].append(significance(matrix, eigen_sets[user].vectors[0]))
    return {name: float(np.mean(vals)) for name, vals in scores.items()}


def cross_significance(profiles, matrices) -> CrossSignificance:
    """Each cluster's first joint eigen-behavior scored on its online members
    and on every other online user, one significance call a pair."""
    online = {u for u, m in matrices.items() if m.online.any()}
    per_cluster = []
    own_all: list[float] = []
    other_all: list[float] = []
    for profile in profiles:
        if profile.eigen is None:
            continue
        first = profile.eigen.vectors[0]
        member_set = online.intersection(profile.members)
        own = [significance(matrices[u], first) for u in sorted(member_set)]
        other = [significance(matrices[u], first) for u in sorted(online - member_set)]
        per_cluster.append(
            (profile.cluster_id, float(np.mean(own)), float(np.mean(other)) if other else float("nan"))
        )
        own_all.extend(own)
        other_all.extend(other)
    if not per_cluster:
        raise ValueError("no cluster has online members")
    return CrossSignificance(
        per_cluster,
        float(np.mean(own_all)),
        float(np.mean(other_all)) if other_all else float("nan"),
    )


def eigen_decomposition(matrix, power_floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A matrix's kept eigen-behavior vectors and weights and all its singular
    values, from one np.linalg.svd of its rows, as the package took them one
    matrix at a time before it decomposed a block of matrices with one
    stacked SVD: weights are squared singular values over their sum, those
    below power_floor after the first are dropped, and each kept vector's
    first largest-magnitude entry is made positive."""
    _, s, vt = np.linalg.svd(matrix.rows, full_matrices=False)
    powers = s * s
    weights = powers / powers.sum()
    keep = weights >= power_floor
    keep[0] = True
    vectors = vt[keep]
    flip = vectors[np.arange(vectors.shape[0]), np.abs(vectors).argmax(axis=1)] < 0
    vectors[flip] *= -1.0
    return vectors, weights[keep], s


def eigen_sets_for(matrices, power_floor: float) -> dict:
    """eigen_decomposition of each user with an online row (a row with a
    positive sum), one call a user; None for an all-offline user."""
    return {
        user: eigen_decomposition(matrix, power_floor) if (matrix.rows.sum(axis=1) > 0).any() else None
        for user, matrix in matrices.items()
    }


def joint_matrix(matrices, members) -> AssociationMatrix:
    """The members' matrices row-stacked in ascending user-id order."""
    ordered = sorted(members)
    rows = np.vstack([matrices[user].rows for user in ordered])
    return AssociationMatrix("+".join(ordered), rows, matrices[ordered[0]].location_index)


def top_power(s: np.ndarray, k: int) -> float:
    """Share of the squared singular values s captured by the top k of them."""
    powers = s * s
    return float((np.cumsum(powers) / powers.sum())[min(k, s.size) - 1])


def group_profiles(partition, matrices, power_floor: float) -> list[GroupProfile]:
    """Each cluster's joint matrix built from its members' views, then one
    eigen_decomposition of it, when a member has an online row."""
    profiles = []
    for cid, members in enumerate(partition.clusters()):
        members = tuple(map(str, members))
        eigen, top = None, []
        if any(matrices[user].online.any() for user in members):
            vectors, weights, s = eigen_decomposition(joint_matrix(matrices, members), power_floor)
            eigen = EigenBehaviorSet(vectors, weights)
            top = [top_power(s, k) for k in range(1, 5)]
        profiles.append(GroupProfile(cid, members, eigen, top))
    return profiles


def group_power_scatter(profiles, matrices, min_size: int, seed: int) -> list[ScatterPoint]:
    """Each large enough cluster with online members against a seeded sample
    of as many of the sorted online users as it has online members, the
    sample's joint matrix built from their views and its singular values
    taken by np.linalg.svd."""
    rng = np.random.default_rng(seed)
    population = sorted(u for u, m in matrices.items() if m.online.any())
    points = []
    for profile in profiles:
        if profile.size <= min_size or profile.eigen is None:
            continue
        n_online = len(set(population).intersection(profile.members))
        sample = [population[i] for i in rng.choice(len(population), size=n_online, replace=False)]
        s = np.linalg.svd(joint_matrix(matrices, sample).rows, compute_uv=False)
        points.append(ScatterPoint(profile.cluster_id, profile.size, profile.top_power[3], top_power(s, 4)))
    return points
