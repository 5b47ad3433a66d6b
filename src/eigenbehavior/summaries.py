"""Per-user behavior summaries of an association matrix.

Three families: the association-time weighted average vector, the centroid of
the dominant behavioral mode (modes are average-linkage clusters of the online
rows under Manhattan distance), and eigen-behavior vectors from the singular
value decomposition of the matrix (principal directions of X^T X, no mean
subtraction).  A summary's quality is its significance score, the total
projection of the rows onto the summary over the total L1 association mass.
Every threshold's modes are cut from one merge tree per user, each online row
named by its mode's earliest row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cluster import l1_triangles, merge_histories, merge_roots
from .trace import AssociationMatrix, budget_blocks

DEFAULT_POWER_FLOOR = 0.001  # keep eigen-behaviors carrying >= 0.1% of total power
MODE_THRESHOLDS = (0.5, 0.9)
# Each summary's summary.csv name and --metric (None: none), in SummaryVectors' kinds order.
SUMMARY_NAMES = (
    ("onavg", "onavg"),
    *((f"centroid@{thr:g}", f"centroid{thr:g}".replace(".", "")) for thr in MODE_THRESHOLDS),
    ("svd", None),
)
# Mode trees grown in one engine call count at most this many cells (trees x
# rows^2): about 160 users of 28 daily slots, whose triangles and the
# engine's working copy of them take 1 MB together.  A block of significance
# scores holds at most this many stacked row and product cells.
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


@dataclass(frozen=True)
class SummaryVectors:
    """vectors[i, kind], of shape (users, kinds, locations), is user ids[i]'s summary SUMMARY_NAMES[kind]."""

    ids: tuple[str, ...]
    vectors: np.ndarray

    def column(self, metric: str) -> tuple[tuple[str, ...], np.ndarray] | None:
        """The summaries that --metric metric names in SUMMARY_NAMES, users in
        sorted order: their ids and a fresh (users, locations) array; None
        when metric names no summary."""
        kind = {name: k for k, (_, name) in enumerate(SUMMARY_NAMES) if name is not None}.get(metric)
        if kind is None:
            return None
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        return tuple(self.ids[i] for i in order), self.vectors[order, kind]


def _require_online(matrix: AssociationMatrix) -> None:
    if not matrix.online.any():
        raise ValueError(f"user {matrix.user_id!r} has no online slots")


def onavg(matrix: AssociationMatrix) -> np.ndarray:
    """Association-time weighted average: sum of rows over total L1 mass."""
    denom = np.abs(matrix.rows).sum()
    if denom <= 0:
        raise ValueError(f"user {matrix.user_id!r} has no online slots")
    return matrix.rows.sum(axis=0) / denom


def _mode_cuts(
    matrices: Sequence[AssociationMatrix], thresholds: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix's modes at each threshold, cut from one tree of its online rows.

    Returns the (thresholds, rows) roots of the online rows, matrix after
    matrix, and the (matrices, thresholds, locations) centroids of the largest
    modes (the earliest root's on ties), NaN for a matrix with no online row.
    A row's root is the place among its matrix's online rows of its mode's
    earliest row, as merge_roots gives it.  Trees are grown to the largest
    threshold, MODE_TREE_CELLS cells at a time.
    """
    if any(thr < 0 for thr in thresholds):
        raise ValueError("threshold must be nonnegative")
    n_online = np.array([np.count_nonzero(m.online) for m in matrices], dtype=np.intp)
    roots = np.empty((len(thresholds), n_online.sum()), dtype=np.intp)
    n_locations = max((m.n_locations for m in matrices), default=0)
    centroids = np.full((len(matrices), len(thresholds), n_locations), np.nan)
    grown = np.flatnonzero(n_online)
    per_call = max(1, MODE_TREE_CELLS // n_online.max(initial=1) ** 2)
    lo = 0
    for first in range(0, grown.size, per_call):
        ids = grown[first : first + per_call]
        hi = lo + n_online[ids].sum()
        roots[:, lo:hi], centroids[ids] = _chunk_cuts([matrices[b] for b in ids], thresholds, n_locations)
        lo = hi
    return roots, centroids


def _chunk_cuts(
    chunk: list[AssociationMatrix], thresholds: tuple[float, ...], n_locations: int
) -> tuple[np.ndarray, np.ndarray]:
    """_mode_cuts of matrices with online rows, from one merge_histories call
    on the l1_triangles of their rows, cut by merge_roots at each threshold.
    A centroid sums its mode's rows, gathered in row order, over their count:
    the bits of their mean."""
    counts = np.array([np.count_nonzero(m.online) for m in chunk])
    width = counts.max()
    taking_part = np.arange(width) < counts[:, None]
    stack = np.zeros((len(chunk), width, n_locations))
    stack[taking_part] = np.concatenate([m.rows[m.online] for m in chunk])
    merges = merge_histories(l1_triangles(stack), taking_part, threshold=max(thresholds))
    roots = np.empty((len(thresholds), counts.sum()), dtype=np.intp)
    centroids = np.empty((len(chunk), len(thresholds), n_locations))
    for c, thr in enumerate(thresholds):
        parent = merge_roots(merges, thr)
        roots[c] = parent[taking_part]
        sizes = ((parent[..., None] == np.arange(width)) & taking_part[..., None]).sum(axis=1)
        largest = sizes.argmax(axis=1)  # the earliest root on ties
        members = (parent == largest[:, None]) & taking_part
        count = members.sum(axis=1)
        order = np.argsort(~members, axis=1, kind="stable")  # members first, in row order
        for n in np.flatnonzero(np.bincount(count)):  # each member count that occurs, ascending
            at = np.flatnonzero(count == n)
            centroids[at, c] = stack[at[:, None], order[at, :n]].sum(axis=1) / n
    return roots, centroids


def centroid_first_mode(matrix: AssociationMatrix, threshold: float) -> np.ndarray:
    """Mean vector of the largest behavioral mode (ties: the mode holding the earliest row)."""
    _require_online(matrix)
    return _mode_cuts([matrix], (threshold,))[1][0, 0]


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


def summary_vectors(
    matrices: dict[str, AssociationMatrix],
    eigen_sets: dict[str, EigenBehaviorSet | None],
) -> SummaryVectors:
    """Each online user's summaries, in the order of matrices: onavg, the largest
    mode's centroid at each of MODE_THRESHOLDS, cut from one tree, and the first
    vector of its set in eigen_sets.  All-offline users are skipped with one warning."""
    usable = {u: m for u, m in matrices.items() if m.online.any()}
    skipped = sorted(set(matrices) - set(usable))
    if skipped:
        warnings.warn(f"summary_vectors: skipped all-offline users: {skipped}")
    if not usable:
        raise ValueError("no users with online slots")
    missing = sorted(u for u in usable if eigen_sets.get(u) is None)
    if missing:
        raise ValueError(f"no eigen-behavior set for online users: {missing}")
    centroids = _mode_cuts(list(usable.values()), MODE_THRESHOLDS)[1]
    others = np.array([[onavg(m), eigen_sets[u].vectors[0]] for u, m in usable.items()])
    return SummaryVectors(tuple(usable), np.concatenate([others[:, :1], centroids, others[:, 1:]], axis=1))


def summary_table(matrices: dict[str, AssociationMatrix], summary: SummaryVectors) -> dict[str, float]:
    """Mean significance of each summary on its user's matrix, keyed by its summary.csv name."""
    scores = significances([matrices[u] for u in summary.ids], summary.vectors)
    return dict(zip([name for name, _ in SUMMARY_NAMES], scores.T.mean(axis=1).tolist()))
