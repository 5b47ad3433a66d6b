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
from typing import Iterator, Sequence

import numpy as np

from .cluster import merge_histories, pairwise_l1, partition_from_merges
from .trace import AssociationMatrix, budget_blocks

DEFAULT_POWER_FLOOR = 0.001  # keep eigen-behaviors carrying >= 0.1% of total power
MODE_THRESHOLDS = (0.5, 0.9)
# Mode trees grown in one engine call hold at most this many distance cells
# (trees x rows^2): about 160 users of 28 daily slots, so each of the call's
# (trees, rows, rows) arrays takes 1 MB.  A block of significance scores
# holds at most this many stacked row and product cells.
MODE_TREE_CELLS = 1 << 17


@dataclass(frozen=True)
class EigenBehaviorSet:
    """Unit eigen-behavior vectors (rows) with their fraction of total power."""

    vectors: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.vectors.ndim != 2 or self.weights.ndim != 1:
            raise ValueError("vectors must be (k, n), weights (k,)")
        if self.vectors.shape[0] != self.weights.shape[0] or self.weights.shape[0] == 0:
            raise ValueError("need one weight per vector, at least one vector")
        # np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-8), written
        # out with the same bits at a third of the cost; a NaN norm fails it
        norms = np.sqrt((self.vectors * self.vectors).sum(axis=1))
        if not (np.abs(norms - 1.0) <= 1e-8 + 1e-5).all():
            raise ValueError("eigen-behavior vectors must be unit length")
        if (self.weights[1:] - self.weights[:-1] > 1e-12).any():
            raise ValueError("weights must be in decreasing order")
        if not ((self.weights >= 0).all() and self.weights.sum() <= 1.0 + 1e-9):  # NaN fails
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


def _require_online(matrix: AssociationMatrix) -> None:
    if not matrix.online.any():
        raise ValueError(f"user {matrix.user_id!r} has no online slots")


def onavg(matrix: AssociationMatrix) -> np.ndarray:
    """Association-time weighted average: sum of rows over total L1 mass."""
    denom = np.abs(matrix.rows).sum()
    if denom <= 0:
        raise ValueError(f"user {matrix.user_id!r} has no online slots")
    return matrix.rows.sum(axis=0) / denom


def _mode_trees(
    matrices: Sequence[AssociationMatrix], online: list[np.ndarray], threshold: float
) -> list[list[tuple]]:
    """Merge histories, up to threshold, of the average-linkage trees of each
    matrix's online rows (the row indices in ``online``) under Manhattan
    distance.

    The trees are grown together by one engine call per chunk of users; a
    chunk holds at most MODE_TREE_CELLS distance cells, padding included, and
    its rows are copied into the engine's stack only for that call.
    """
    histories: list[list[tuple]] = [[] for _ in matrices]
    grown = [b for b, rows in enumerate(online) if rows.size]
    if not grown:
        return histories
    per_call = max(1, MODE_TREE_CELLS // max(online[b].size for b in grown) ** 2)
    for first in range(0, len(grown), per_call):
        ids = grown[first : first + per_call]
        width = max(online[b].size for b in ids)
        stack = np.zeros((len(ids), width, max(matrices[b].n_locations for b in ids)))
        taking_part = np.zeros((len(ids), width), dtype=bool)
        for k, b in enumerate(ids):
            n_rows, n_cols = online[b].size, matrices[b].n_locations
            stack[k, :n_rows, :n_cols] = matrices[b].rows[online[b]]
            taking_part[k, :n_rows] = True
        trees = merge_histories(pairwise_l1(stack, stack), taking_part, threshold=threshold)
        for b, history in zip(ids, trees):
            histories[b] = history
    return histories


def _mode_tables(
    matrices: Sequence[AssociationMatrix], thresholds: tuple[float, ...]
) -> Iterator[list[ModeClustering]]:
    """Each matrix's modes at each threshold, cut from one tree of its online rows.

    The trees are grown once, up to the largest threshold; the modes at a
    threshold are what the prefix of a merge history before the first merge
    above that threshold leaves, which is exactly what clustering with that
    threshold would give.  The tables are made one matrix at a time, as the
    caller takes them.
    """
    if any(thr < 0 for thr in thresholds):
        raise ValueError("threshold must be nonnegative")
    masks = [m.online for m in matrices]
    online = [np.flatnonzero(mask) for mask in masks]
    histories = (
        _mode_trees(matrices, online, max(thresholds)) if thresholds else [[] for _ in matrices]
    )
    for matrix, mask, idx, history in zip(matrices, masks, online, histories):
        offline = [int(i) for i in np.flatnonzero(~mask)]
        labels = idx.tolist()
        table = []
        for thr in thresholds:
            prefix = list(takewhile(lambda merge: merge[2] <= thr, history))
            clusters = partition_from_merges(prefix, labels).clusters()
            centroids = [matrix.rows[members].mean(axis=0) for members in clusters]
            table.append(ModeClustering(clusters, centroids, offline, thr))
        yield table


def behavioral_modes(matrix: AssociationMatrix, threshold: float) -> ModeClustering:
    """Cluster the online rows by average linkage under Manhattan distance."""
    return next(_mode_tables([matrix], (threshold,)))[0]


def _largest_mode_centroid(modes: ModeClustering) -> np.ndarray:
    sizes = [len(members) for members in modes.row_clusters]
    return modes.centroids[sizes.index(max(sizes))]  # cluster ids follow the smallest row index


def centroid_first_mode(matrix: AssociationMatrix, threshold: float) -> np.ndarray:
    """Mean vector of the largest behavioral mode (ties: the mode holding the earliest row)."""
    return centroid_first_modes([matrix], threshold)[0]


def centroid_first_modes(
    matrices: Sequence[AssociationMatrix], threshold: float
) -> list[np.ndarray]:
    """centroid_first_mode of every matrix, with all mode trees grown at once."""
    for matrix in matrices:
        _require_online(matrix)
    return [_largest_mode_centroid(t[0]) for t in _mode_tables(matrices, (threshold,))]


def significance(matrix: AssociationMatrix, y: np.ndarray) -> float:
    """SIG(y): total |row . y| over total L1 row mass, scoring y as given.

    y keeps its own length, which is what makes the summary comparison table
    meaningful (an L1-normalized average is penalized for spreading out).
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (matrix.n_locations,):
        raise ValueError(f"y must have shape ({matrix.n_locations},)")
    if np.linalg.norm(y) == 0:
        raise ValueError("y must be nonzero")
    _require_online(matrix)
    return float(significances([matrix], y[None])[0, 0])


def significances(matrices: Sequence[AssociationMatrix], vectors: np.ndarray) -> np.ndarray:
    """SIG of k vectors on each of the matrices, which share one shape: a
    (matrices, k) table with contiguous columns.  vectors is (matrices, k,
    locations), a set per matrix, or (k, locations), shared.  Each cell is the
    matrix-vector product of one significance call, with its bits (a gemm
    rounds differently), in blocks of MODE_TREE_CELLS row and product cells."""
    shapes = {m.rows.shape for m in matrices}
    if len(shapes) != 1:
        raise ValueError(f"matrices must share one (slots, locations) shape, not {sorted(shapes)}")
    ((n_slots, n_locations),) = shapes
    k = vectors.shape[-2]
    table = np.empty((k, len(matrices)))
    per_matrix = np.full(len(matrices), n_slots * (n_locations + k))
    for lo, hi in budget_blocks(per_matrix, MODE_TREE_CELLS):
        rows = np.stack([m.rows for m in matrices[lo:hi]])
        ys = vectors if vectors.ndim == 2 else vectors[lo:hi]
        products = np.matmul(rows[:, None], ys[..., None])[..., 0]  # (block, k, slots)
        mass = np.abs(rows, out=rows).reshape(hi - lo, -1).sum(axis=1)
        table[:, lo:hi] = (np.abs(products, out=products).sum(axis=2) / mass[:, None]).T
        del rows, products  # before the next block is stacked
    return table.T


def check_power_floor(power_floor: float) -> float:
    """power_floor, checked to lie in [0, 1)."""
    if not 0 <= power_floor < 1:
        raise ValueError("power_floor must lie in [0, 1)")
    return power_floor


def cumulative_power(s: np.ndarray) -> np.ndarray:
    """Share of total squared singular-value power captured by the top 1..r
    of the singular values s."""
    powers = s * s
    return np.cumsum(powers) / powers.sum()


def eigen_decomposition(
    matrix: AssociationMatrix, power_floor: float = DEFAULT_POWER_FLOOR
) -> tuple[EigenBehaviorSet, np.ndarray]:
    """eigen_behaviors of matrix and the singular values of the one SVD it takes."""
    check_power_floor(power_floor)
    _require_online(matrix)
    _, s, vt = np.linalg.svd(matrix.rows, full_matrices=False)
    powers = s * s
    weights = powers / powers.sum()
    keep = weights >= power_floor
    keep[0] = True  # the dominant direction always qualifies
    vectors = vt[keep]
    flip = vectors[np.arange(vectors.shape[0]), np.abs(vectors).argmax(axis=1)] < 0
    vectors[flip] *= -1.0
    return EigenBehaviorSet(vectors, weights[keep]), s


def eigen_behaviors(
    matrix: AssociationMatrix,
    power_floor: float = DEFAULT_POWER_FLOOR,
) -> EigenBehaviorSet:
    """Eigen-behavior vectors: unit eigenvectors of X^T X in decreasing power order.

    The j-th weight is sigma_j^2 over the sum of all squared singular values;
    vectors whose weight falls below power_floor are dropped.  Each kept
    vector is sign-canonicalized so its largest-magnitude entry is positive.
    """
    return eigen_decomposition(matrix, power_floor)[0]


def power_captured(matrix: AssociationMatrix, k: int) -> float:
    """Fraction of total squared association mass captured by the top k
    components, from the singular values alone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_online(matrix)
    cumulative = cumulative_power(np.linalg.svd(matrix.rows, compute_uv=False))
    return float(cumulative[min(k, cumulative.size) - 1])


def summary_table(
    matrices: dict[str, AssociationMatrix],
    eigen_sets: dict[str, EigenBehaviorSet | None],
) -> dict[str, float]:
    """Mean significance per summary kind over all users with online time.

    Keys: "onavg", "centroid@<thr>" per threshold of MODE_THRESHOLDS, and
    "svd" for the first eigen-behavior vector, read from eigen_sets (one set
    per online user, as eigen_sets_for builds them).  All-offline users are
    skipped with a warning.
    """
    usable = {u: m for u, m in matrices.items() if m.online.any()}
    skipped = sorted(set(matrices) - set(usable))
    if skipped:
        warnings.warn(f"summary_table: skipped all-offline users: {skipped}")
    if not usable:
        raise ValueError("no users with online slots")
    missing = sorted(u for u in usable if eigen_sets.get(u) is None)
    if missing:
        raise ValueError(f"no eigen-behavior set for online users: {missing}")
    names = ["onavg", *(f"centroid@{thr:g}" for thr in MODE_THRESHOLDS), "svd"]
    online = list(usable.values())
    vectors = np.empty((len(online), len(names), online[0].n_locations))
    for i, (user, table) in enumerate(zip(usable, _mode_tables(online, MODE_THRESHOLDS))):
        centroids = [_largest_mode_centroid(modes) for modes in table]
        vectors[i] = [onavg(usable[user]), *centroids, eigen_sets[user].vectors[0]]
    return dict(zip(names, significances(online, vectors).T.mean(axis=1).tolist()))
