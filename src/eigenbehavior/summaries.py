"""Per-user behavior summaries of an association matrix.

Three families: the association-time weighted average vector, the centroid of
the dominant behavioral mode (modes are average-linkage clusters of the online
rows under Manhattan distance), and eigen-behavior vectors from the singular
value decomposition of the matrix (principal directions of X^T X, no mean
subtraction).  A summary's quality is its significance score, the total
projection of the rows onto the summary over the total L1 association mass.
Every threshold's modes are cut from one merge tree per user, each online row
named by its mode's earliest row.

The population passes read a ``PopulationTable``, every user's rows in one
(users, slots, locations) array with its online mask: they run over blocks
of users of about ``trace.BLOCK_CELLS`` cells, each block a slice or one
gather of the table, and the one-matrix functions run the same passes on a
stack of one matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import trace
from .cluster import l1_triangles, merge_histories, merge_roots
from .trace import AssociationMatrix, PopulationTable, budget_blocks

DEFAULT_POWER_FLOOR = 0.001  # keep eigen-behaviors carrying >= 0.1% of total power
MODE_THRESHOLDS = (0.5, 0.9)
# Each summary's summary.csv name and --metric (None: none), in SummaryVectors' kinds order.
SUMMARY_NAMES = (
    ("onavg", "onavg"),
    *((f"centroid@{thr:g}", f"centroid{thr:g}".replace(".", "")) for thr in MODE_THRESHOLDS),
    ("svd", None),
)


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
        the order of ids (the table's, sorted): the ids and a fresh (users,
        locations) array; None when metric names no summary."""
        kind = {name: k for k, (_, name) in enumerate(SUMMARY_NAMES) if name is not None}.get(metric)
        if kind is None:
            return None
        return self.ids, self.vectors[:, kind].copy()


def _require_online(matrix: AssociationMatrix) -> None:
    if not matrix.online.any():
        raise ValueError(f"user {matrix.user_id!r} has no online slots")


def onavg(matrix: AssociationMatrix) -> np.ndarray:
    """Association-time weighted average: sum of rows over total L1 mass."""
    _require_online(matrix)
    return _onavgs(matrix.rows[None])[0]


def _onavgs(rows: np.ndarray) -> np.ndarray:
    """onavg of each matrix of the (matrices, slots, locations) stack rows,
    NaN for a matrix without association mass, from slices of about
    trace.BLOCK_CELLS row cells."""
    out = np.empty(rows.shape[::2])
    for lo, hi in budget_blocks(np.full(len(rows), rows.shape[1] * rows.shape[2]), trace.BLOCK_CELLS):
        block = rows[lo:hi]
        mass = np.abs(block).reshape(hi - lo, -1).sum(axis=1)
        with np.errstate(invalid="ignore"):  # 0 / 0 for a matrix without mass
            np.divide(block.sum(axis=1), mass[:, None], out=out[lo:hi])
    return out


def _mode_cuts(
    rows: np.ndarray, online: np.ndarray, thresholds: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix's modes at each threshold, cut from one tree of its online rows.

    rows is a (matrices, slots, locations) stack and online its (matrices,
    slots) mask.  Returns the (thresholds, rows) roots of the online rows,
    matrix after matrix, and the (matrices, thresholds, locations) centroids
    of the largest modes (the earliest root's on ties), NaN for a matrix with
    no online row.  A row's root is the place among its matrix's online rows
    of its mode's earliest row, as merge_roots gives it.  Trees are grown to
    the largest threshold, about trace.BLOCK_CELLS cells at a time, each
    tree counted at the widest tree's rows^2: the size its padded stack holds.
    """
    if any(thr < 0 for thr in thresholds):
        raise ValueError("threshold must be nonnegative")
    n_online = np.count_nonzero(online, axis=1)
    roots = np.empty((len(thresholds), n_online.sum()), dtype=np.intp)
    centroids = np.full((len(rows), len(thresholds), rows.shape[2]), np.nan)
    grown = np.flatnonzero(n_online)
    cells = np.full(grown.size, n_online.max(initial=0) ** 2)
    lo = 0
    for first, last in budget_blocks(cells, trace.BLOCK_CELLS):
        ids = grown[first:last]
        hi = lo + n_online[ids].sum()
        roots[:, lo:hi], centroids[ids] = _chunk_cuts(rows, online, ids, thresholds)
        lo = hi
    return roots, centroids


def _chunk_cuts(
    rows: np.ndarray, online: np.ndarray, ids: np.ndarray, thresholds: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """_mode_cuts of the matrices ids, each with online rows, from one
    merge_histories call on the l1_triangles of their online rows, cut by
    merge_roots at each threshold.  One stable argsort puts each matrix's
    online rows first, in row order, and one gather stacks them.  A centroid
    sums its mode's rows, gathered in row order, over their count: the bits
    of their mean."""
    counts = np.count_nonzero(online[ids], axis=1)
    width = counts.max()
    taking_part = np.arange(width) < counts[:, None]
    first = np.argsort(~online[ids], axis=1, kind="stable")[:, :width]
    stack = rows[ids[:, None], first]
    stack[~taking_part] = 0.0  # the slots past a matrix's online ones
    merges = merge_histories(l1_triangles(stack), taking_part, threshold=max(thresholds))
    roots = np.empty((len(thresholds), counts.sum()), dtype=np.intp)
    centroids = np.empty((len(ids), len(thresholds), rows.shape[2]))
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
    return _mode_cuts(matrix.rows[None], matrix.online[None], (threshold,))[1][0, 0]


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
    return float(significances(matrix.rows[None], y[None], np.arange(1))[0, 0])


def significances(rows: np.ndarray, vectors: np.ndarray, at: np.ndarray) -> np.ndarray:
    """SIG of k vectors on each matrix rows[at] of the (matrices, slots,
    locations) stack rows: a (len(at), k) table with contiguous columns.
    vectors is (len(at), k, locations), a set per matrix, or (k, locations),
    shared.  Each cell is the matrix-vector product of one significance call,
    with its bits (a gemm rounds differently), in blocks of about
    trace.BLOCK_CELLS row and product cells, each block's rows one gather
    of rows."""
    _, n_slots, n_locations = rows.shape
    k = vectors.shape[-2]
    table = np.empty((k, len(at)))
    per_matrix = np.full(len(at), n_slots * (n_locations + k))
    for lo, hi in budget_blocks(per_matrix, trace.BLOCK_CELLS):
        block = rows[at[lo:hi]]
        ys = vectors if vectors.ndim == 2 else vectors[lo:hi]
        products = np.matmul(block[:, None], ys[..., None])[..., 0]  # (block, k, slots)
        mass = np.abs(block, out=block).reshape(hi - lo, -1).sum(axis=1)
        table[:, lo:hi] = (np.abs(products, out=products).sum(axis=2) / mass[:, None]).T
        del block, products  # before the next block is gathered
    return table.T


def check_power_floor(power_floor: float) -> float:
    """power_floor, checked to lie in [0, 1)."""
    if not 0 <= power_floor < 1:
        raise ValueError("power_floor must lie in [0, 1)")
    return power_floor


def cumulative_power(s: np.ndarray, k: int) -> np.ndarray:
    """Share of total squared singular-value power captured by the top 1..k
    of the singular values s; past len(s), the share of all of them."""
    powers = s * s
    return (np.cumsum(powers) / powers.sum())[np.minimum(np.arange(k), s.size - 1)]


def eigen_decompositions(rows: np.ndarray, power_floor: float) -> tuple[list[EigenBehaviorSet], np.ndarray]:
    """eigen_behaviors of each matrix of the (matrices, slots, locations)
    stack rows, every one with online time, and the (matrices, components)
    singular values of the one stacked SVD they take.  Weights, the power
    floor's keep and each vector's sign run as array passes over the stack;
    a stacked SVD has the bits of one SVD a matrix."""
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    powers = s * s
    weights = powers / powers.sum(axis=1, keepdims=True)
    keep = weights >= power_floor
    keep[:, 0] = True  # the dominant direction always qualifies
    lead = np.take_along_axis(vt, np.abs(vt).argmax(axis=2)[..., None], axis=2)[..., 0]
    vt[lead < 0] *= -1.0  # its first largest-magnitude entry made positive
    return [EigenBehaviorSet(v[m], w[m]) for v, w, m in zip(vt, weights, keep)], s


def eigen_behaviors(
    matrix: AssociationMatrix,
    power_floor: float = DEFAULT_POWER_FLOOR,
) -> EigenBehaviorSet:
    """Eigen-behavior vectors: unit eigenvectors of X^T X in decreasing power order.

    The j-th weight is sigma_j^2 over the sum of all squared singular values;
    vectors whose weight falls below power_floor are dropped.  Each kept
    vector is sign-canonicalized so its largest-magnitude entry is positive.
    It is eigen_decompositions on a stack of one matrix.
    """
    check_power_floor(power_floor)
    _require_online(matrix)
    return eigen_decompositions(matrix.rows[None], power_floor)[0][0]


def power_captured(matrix: AssociationMatrix, k: int) -> float:
    """Fraction of total squared association mass captured by the top k
    components, from the singular values alone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    _require_online(matrix)
    return float(cumulative_power(np.linalg.svd(matrix.rows, compute_uv=False), k)[-1])


def summary_vectors(
    table: PopulationTable,
    eigen_sets: dict[str, EigenBehaviorSet | None],
) -> SummaryVectors:
    """Each online user's summaries, in the order of the table: onavg, the largest
    mode's centroid at each of MODE_THRESHOLDS, cut from one tree, and the first
    vector of its set in eigen_sets.  All-offline users are skipped with one
    warning.  onavg and the centroids are array passes over the whole table,
    whose all-offline users' rows are dropped from their results."""
    usable = table.online_users
    skipped = sorted(set(table.users).difference(usable))
    if skipped:
        warnings.warn(f"summary_vectors: skipped all-offline users: {skipped}")
    if not usable:
        raise ValueError("no users with online slots")
    missing = sorted(u for u in usable if eigen_sets.get(u) is None)
    if missing:
        raise ValueError(f"no eigen-behavior set for online users: {missing}")
    vectors = np.empty((len(usable), len(SUMMARY_NAMES), len(table.location_index)))
    vectors[:, 0] = _onavgs(table.rows)[table.live]
    vectors[:, 1:-1] = _mode_cuts(table.rows, table.online, MODE_THRESHOLDS)[1][table.live]
    vectors[:, -1] = [eigen_sets[u].vectors[0] for u in usable]
    return SummaryVectors(usable, vectors)


def summary_table(table: PopulationTable, summary: SummaryVectors) -> dict[str, float]:
    """Mean significance of each summary on its user's matrix, keyed by its summary.csv name."""
    scores = significances(table.rows, summary.vectors, table.places(summary.ids))
    return dict(zip([name for name, _ in SUMMARY_NAMES], scores.T.mean(axis=1).tolist()))
