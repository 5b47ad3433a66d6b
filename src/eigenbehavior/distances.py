"""Behavioral distances between users.

Two routes to the same question, how alike are two users' daily association
patterns:

* AMVD works on raw matrices.  The asymmetric part averages, over the days of
  one user, the Manhattan distance to the closest day of the other user; the
  symmetric distance averages both directions.  Cost grows with the square of
  the day count per pair.
* The eigen route compresses each user to a few weighted eigen-behavior
  vectors first.  The similarity index sums weighted absolute dot products of
  two users' vectors, is normalized per user by the largest similarity to any
  other user, and the distance is one minus the symmetrized normalized
  similarity.  Per-pair cost depends only on the kept component count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .cluster import cityblock, validate_square
from .summaries import (
    DEFAULT_POWER_FLOOR,
    EigenBehaviorSet,
    centroid_first_mode,
    eigen_behaviors,
    onavg,
)
from .trace import AssociationMatrix

METRIC_MAX = {"amvd": 2.0, "eigen": 1.0, "onavg_l1": 2.0, "centroid_l1": 2.0}

SUMMARY_KINDS = ("onavg", "centroid@0.5", "centroid@0.9")


@dataclass
class DistanceMatrix:
    """Symmetric pairwise distances with a metric tag and element ids."""

    values: np.ndarray
    metric: str
    ids: tuple[str, ...]
    flagged_ids: tuple[str, ...] = ()
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.ids = tuple(self.ids)
        self.flagged_ids = tuple(self.flagged_ids)
        n = len(self.ids)
        if np.shape(self.values) != (n, n):
            raise ValueError("values must be N x N matching ids")
        self.values = validate_square(self.values)
        top = METRIC_MAX.get(self.metric)
        if top is not None and (self.values.min() < -1e-9 or self.values.max() > top + 1e-9):
            raise ValueError(f"{self.metric} distances must lie in [0, {top}]")

    @property
    def n(self) -> int:
        return len(self.ids)


def _vector_set(rows: np.ndarray, include_offline: bool) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D vector set")
    if include_offline:
        return rows
    return rows[np.abs(rows).sum(axis=1) > 0]


def amvd_distance_matrix(
    matrices: dict[str, AssociationMatrix], include_offline: bool = False
) -> DistanceMatrix:
    """Pairwise symmetric AMVD; pairs touching an all-offline user get the metric max."""
    ids = tuple(sorted(matrices))
    sets = []
    flagged = []
    for user in ids:
        rows = _vector_set(matrices[user].rows, include_offline)
        if rows.shape[0] == 0:
            flagged.append(user)
            sets.append(None)
        else:
            sets.append(rows)
    n = len(ids)
    values = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if sets[i] is None or sets[j] is None:
                d = METRIC_MAX["amvd"]
            else:
                forward = float(np.mean(cityblock(sets[i], sets[j]).min(axis=1)))
                backward = float(np.mean(cityblock(sets[j], sets[i]).min(axis=1)))
                d = (forward + backward) / 2.0
            values[i, j] = values[j, i] = d
    return DistanceMatrix(
        values, "amvd", ids, tuple(flagged), {"include_offline": include_offline}
    )


def _stacked(sets: list[EigenBehaviorSet]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    counts = [s.k for s in sets]
    basis = np.vstack([s.vectors for s in sets])
    weights = np.concatenate([s.weights for s in sets])
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return basis, weights, starts


def sim_matrix(sets: list[EigenBehaviorSet], chunk: int = 256) -> np.ndarray:
    """Raw similarity index for every ordered pair (diagonal included).

    sim(u, v) = sum over i, j of w_ui * w_vj * |u_i . v_j|, the weighted
    absolute dot products of the two users' eigen-behavior vectors.
    """
    if len(sets) < 2:
        raise ValueError("need at least two eigen-behavior sets")
    basis, weights, starts = _stacked(sets)
    weighted = basis * weights[:, None]
    n = len(sets)
    out = np.empty((n, n))
    bounds = list(starts) + [basis.shape[0]]
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        block = np.abs(weighted[bounds[lo] : bounds[hi]] @ weighted.T)
        partial = np.add.reduceat(block, starts, axis=1)
        out[lo:hi] = np.add.reduceat(partial, np.array(bounds[lo:hi]) - bounds[lo], axis=0)
    return out


def normalize_sims(raw: np.ndarray) -> np.ndarray:
    """Scale each user's row by its largest similarity to any other user.

    Off-diagonal entries land in [0, 1]; the diagonal is set to 1.  Rows with
    no positive similarity to anyone are left at zero with a warning.
    """
    raw = np.asarray(raw, dtype=float)
    n = raw.shape[0]
    if raw.ndim != 2 or raw.shape != (n, n) or n < 2:
        raise ValueError("raw similarities must be square, at least 2 x 2")
    off = raw.copy()
    np.fill_diagonal(off, -np.inf)
    row_max = off.max(axis=1)
    out = np.zeros_like(raw)
    dead = row_max <= 0
    if np.any(dead):
        warnings.warn(f"normalize_sims: rows with no positive similarity: {np.flatnonzero(dead).tolist()}")
    live = ~dead
    out[live] = raw[live] / row_max[live, None]
    np.fill_diagonal(out, 1.0)
    return out


def normalized_sim_table(eigen_sets: dict[str, EigenBehaviorSet]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Population-normalized similarity table and its user-id order."""
    ids = tuple(sorted(eigen_sets))
    raw = sim_matrix([eigen_sets[u] for u in ids])
    return normalize_sims(raw), ids


def eigen_distance_from_sims(
    normalized: np.ndarray,
    sim_ids: tuple[str, ...],
    eigen_sets: dict[str, EigenBehaviorSet | None],
) -> DistanceMatrix:
    """Eigen-behavior distance 1 - (S + S^T) / 2 from the table over sim_ids.

    Users mapped to None in eigen_sets (no online time) are flagged and sit at
    the metric maximum from everyone.
    """
    ids = tuple(sorted(eigen_sets))
    flagged = tuple(u for u in ids if eigen_sets[u] is None)
    live_d = 1.0 - (normalized + normalized.T) / 2.0
    np.fill_diagonal(live_d, 0.0)
    live_d = np.clip(live_d, 0.0, 1.0)
    values = np.full((len(ids), len(ids)), METRIC_MAX["eigen"])
    np.fill_diagonal(values, 0.0)
    pos_of = {u: i for i, u in enumerate(ids)}
    live_pos = [pos_of[u] for u in sim_ids]
    values[np.ix_(live_pos, live_pos)] = live_d
    floor = eigen_sets[sim_ids[0]].power_floor
    return DistanceMatrix(values, "eigen", ids, flagged, {"power_floor": floor})


def eigen_distance_matrix(
    eigen_sets: dict[str, EigenBehaviorSet | None],
) -> DistanceMatrix:
    """Pairwise eigen-behavior distance over a population; see eigen_distance_from_sims."""
    live = {u: s for u, s in eigen_sets.items() if s is not None}
    return eigen_distance_from_sims(*normalized_sim_table(live), eigen_sets)


def summary_l1_distance(
    matrices: dict[str, AssociationMatrix], kind: str
) -> DistanceMatrix:
    """Manhattan distance between per-user summary vectors.

    kind is one of "onavg", "centroid@0.5", "centroid@0.9".  Users without a
    summary (all offline) are excluded with a warning, so the result may cover
    a subset of the input users.
    """
    if kind not in SUMMARY_KINDS:
        raise ValueError(f"unknown summary kind {kind!r}, expected one of {SUMMARY_KINDS}")
    vectors: dict[str, np.ndarray] = {}
    skipped = []
    for user in sorted(matrices):
        matrix = matrices[user]
        if matrix.rows.sum() <= 0:
            skipped.append(user)
            continue
        if kind == "onavg":
            vectors[user] = onavg(matrix)
        else:
            vectors[user] = centroid_first_mode(matrix, float(kind.split("@")[1]))
    if skipped:
        warnings.warn(f"summary_l1_distance: excluded all-offline users: {skipped}")
    if len(vectors) < 2:
        raise ValueError("need at least two users with online slots")
    ids = tuple(vectors)
    stack = np.vstack([vectors[u] for u in ids])
    values = cityblock(stack, stack)
    values = (values + values.T) / 2.0  # scrub asymmetry noise
    np.fill_diagonal(values, 0.0)
    metric = "onavg_l1" if kind == "onavg" else "centroid_l1"
    return DistanceMatrix(values, metric, ids, (), {"kind": kind})


def eigen_sets_for(
    matrices: dict[str, AssociationMatrix], power_floor: float = DEFAULT_POWER_FLOOR
) -> dict[str, EigenBehaviorSet | None]:
    """Eigen-behavior sets per user; all-offline users map to None."""
    out: dict[str, EigenBehaviorSet | None] = {}
    for user, matrix in matrices.items():
        if matrix.rows.sum() <= 0:
            out[user] = None
        else:
            out[user] = eigen_behaviors(matrix, power_floor)
    return out
