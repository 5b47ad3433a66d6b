"""Per-user behavior summaries of an association matrix.

Three families: the association-time weighted average vector, the centroid of
the dominant behavioral mode (modes are average-linkage clusters of the online
rows under Manhattan distance), and eigen-behavior vectors from the singular
value decomposition of the matrix (principal directions of X^T X, no mean
subtraction).  A summary's quality is its significance score, the total
projection of the rows onto the summary over the total L1 association mass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .cluster import agglomerate, cityblock, partition_from_merges
from .trace import AssociationMatrix

DEFAULT_POWER_FLOOR = 0.001  # keep eigen-behaviors carrying >= 0.1% of total power
MODE_THRESHOLDS = (0.5, 0.9)


@dataclass(frozen=True)
class EigenBehaviorSet:
    """Unit eigen-behavior vectors (rows) with their fraction of total power."""

    vectors: np.ndarray
    weights: np.ndarray
    power_floor: float = DEFAULT_POWER_FLOOR

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.vectors.ndim != 2 or self.weights.ndim != 1:
            raise ValueError("vectors must be (k, n), weights (k,)")
        if self.vectors.shape[0] != self.weights.shape[0] or self.weights.shape[0] == 0:
            raise ValueError("need one weight per vector, at least one vector")
        norms = np.linalg.norm(self.vectors, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-8):
            raise ValueError("eigen-behavior vectors must be unit length")
        if np.any(np.diff(self.weights) > 1e-12):
            raise ValueError("weights must be in decreasing order")
        if np.any(self.weights < 0) or self.weights.sum() > 1.0 + 1e-9:
            raise ValueError("weights must be nonnegative with sum <= 1")

    @property
    def k(self) -> int:
        return self.vectors.shape[0]


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


def _online_mask(matrix: AssociationMatrix) -> np.ndarray:
    return matrix.rows.sum(axis=1) > 0


def _require_online(matrix: AssociationMatrix) -> None:
    if not np.any(_online_mask(matrix)):
        raise ValueError(f"user {matrix.user_id!r} has no online slots")


def onavg(matrix: AssociationMatrix) -> np.ndarray:
    """Association-time weighted average: sum of rows over total L1 mass."""
    denom = np.abs(matrix.rows).sum()
    if denom <= 0:
        raise ValueError(f"user {matrix.user_id!r} has no online slots")
    return matrix.rows.sum(axis=0) / denom


def _mode_clusterings(
    matrix: AssociationMatrix, thresholds: tuple[float, ...]
) -> list[ModeClustering]:
    """Modes at each threshold, cut from one average-linkage tree of the online rows.

    The tree is grown once, up to the largest threshold; the modes at a
    threshold are what the prefix of its merge history before the first
    merge above that threshold leaves, which is exactly what clustering
    with that threshold would give.
    """
    if any(thr < 0 for thr in thresholds):
        raise ValueError("threshold must be nonnegative")
    mask = _online_mask(matrix)
    online = np.flatnonzero(mask)
    offline = [int(i) for i in np.flatnonzero(~mask)]
    if online.size == 0 or not thresholds:
        return [ModeClustering([], [], offline, thr) for thr in thresholds]
    rows = matrix.rows[online]
    labels = [int(i) for i in online]
    history = agglomerate(cityblock(rows, rows), threshold=max(thresholds)).merge_history
    out = []
    for thr in thresholds:
        prefix = list(takewhile(lambda merge: merge[2] <= thr, history))
        clusters = partition_from_merges(prefix, labels).clusters()
        centroids = [rows[np.searchsorted(online, members)].mean(axis=0) for members in clusters]
        out.append(ModeClustering(clusters, centroids, offline, thr))
    return out


def behavioral_modes(matrix: AssociationMatrix, threshold: float) -> ModeClustering:
    """Cluster the online rows by average linkage under Manhattan distance."""
    return _mode_clusterings(matrix, (threshold,))[0]


def _largest_mode_centroid(modes: ModeClustering) -> np.ndarray:
    sizes = [len(members) for members in modes.row_clusters]
    return modes.centroids[sizes.index(max(sizes))]  # cluster ids follow the smallest row index


def centroid_first_mode(matrix: AssociationMatrix, threshold: float) -> np.ndarray:
    """Mean vector of the largest behavioral mode (ties: the mode holding the earliest row)."""
    _require_online(matrix)
    return _largest_mode_centroid(behavioral_modes(matrix, threshold))


def significance(matrix: AssociationMatrix, y: np.ndarray, normalize: bool = False) -> float:
    """SIG(y): total |row . y| over total L1 row mass, scoring y as given.

    normalize=True rescales y to unit L2 norm first; the default keeps the
    vector's own length, which is what makes the summary comparison table
    meaningful (an L1-normalized average is penalized for spreading out).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (matrix.n_locations,):
        raise ValueError(f"y must have shape ({matrix.n_locations},)")
    ynorm = np.linalg.norm(y)
    if ynorm == 0:
        raise ValueError("y must be nonzero")
    if normalize:
        y = y / ynorm
    denom = np.abs(matrix.rows).sum()
    if denom <= 0:
        raise ValueError(f"user {matrix.user_id!r} has no online slots")
    return float(np.abs(matrix.rows @ y).sum() / denom)


def cumulative_power(rows: np.ndarray) -> np.ndarray:
    """Share of total squared singular-value power captured by the top 1..r components."""
    s = np.linalg.svd(rows, compute_uv=False)
    powers = s * s
    return np.cumsum(powers) / powers.sum()


def eigen_behaviors(
    matrix: AssociationMatrix,
    power_floor: float = DEFAULT_POWER_FLOOR,
    max_k: int | None = None,
) -> EigenBehaviorSet:
    """Eigen-behavior vectors: unit eigenvectors of X^T X in decreasing power order.

    The j-th weight is sigma_j^2 over the sum of all squared singular values;
    vectors whose weight falls below power_floor are dropped, and max_k, when
    given, caps how many are kept.  Each kept vector is sign-canonicalized so
    its largest-magnitude entry is positive.
    """
    if not 0 <= power_floor < 1:
        raise ValueError("power_floor must lie in [0, 1)")
    if max_k is not None and max_k < 1:
        raise ValueError("max_k must be >= 1")
    _require_online(matrix)
    _, s, vt = np.linalg.svd(matrix.rows, full_matrices=False)
    powers = s * s
    weights = powers / powers.sum()
    keep = weights >= power_floor
    keep[0] = True  # the dominant direction always qualifies
    if max_k is not None:
        keep &= np.arange(keep.size) < max_k
    vectors = vt[keep]
    flip = vectors[np.arange(vectors.shape[0]), np.abs(vectors).argmax(axis=1)] < 0
    vectors[flip] *= -1.0
    return EigenBehaviorSet(vectors, weights[keep], power_floor)


def power_captured(matrix: AssociationMatrix, k: int) -> float:
    """Fraction of total squared association mass captured by the top k components."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_online(matrix)
    cumulative = cumulative_power(matrix.rows)
    return float(cumulative[min(k, cumulative.size) - 1])


def summary_table(
    matrices: dict[str, AssociationMatrix],
    eigen_sets: dict[str, EigenBehaviorSet | None],
    thresholds: tuple[float, ...] = MODE_THRESHOLDS,
) -> dict[str, float]:
    """Mean significance per summary kind over all users with online time.

    Keys: "onavg", "centroid@<thr>" per threshold, and "svd" for the first
    eigen-behavior vector, read from eigen_sets (one set per online user, as
    eigen_sets_for builds them).  All-offline users are skipped with a warning.
    """
    usable = {u: m for u, m in matrices.items() if np.any(_online_mask(m))}
    skipped = sorted(set(matrices) - set(usable))
    if skipped:
        warnings.warn(f"summary_table: skipped all-offline users: {skipped}")
    if not usable:
        raise ValueError("no users with online slots")
    missing = sorted(u for u in usable if eigen_sets.get(u) is None)
    if missing:
        raise ValueError(f"no eigen-behavior set for online users: {missing}")
    scores: dict[str, list[float]] = {"onavg": []}
    for thr in thresholds:
        scores[f"centroid@{thr:g}"] = []
    scores["svd"] = []
    for user, matrix in usable.items():
        scores["onavg"].append(significance(matrix, onavg(matrix)))
        for modes in _mode_clusterings(matrix, thresholds):
            centroid = _largest_mode_centroid(modes)
            scores[f"centroid@{modes.threshold:g}"].append(significance(matrix, centroid))
        scores["svd"].append(significance(matrix, eigen_sets[user].vectors[0]))
    return {name: float(np.mean(vals)) for name, vals in scores.items()}
