"""Scalar distance helpers, kept as oracles for the vectorized distance routes.

The package computes AMVD for a whole population in amvd_distance_matrix and
the similarity index for every pair at once in sim_matrix; these per-pair
versions are the reference the tests hold them to.

normalized_sim_table is the square route to the normalized similarities as
the package once took it: sim_matrix's row blocks written into an n x n
table, normalized in place row by row.  Built from the same block products,
it is the bit-for-bit reference for distances.sim_triangle.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.spatial.distance import cdist

from eigenbehavior.distances import sim_matrix


def manhattan(a: np.ndarray, b: np.ndarray) -> float:
    """L1 distance; at most 2 for two normalized association vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("vectors must be 1-D with equal length")
    return float(np.abs(a - b).sum())


def _vector_set(rows: np.ndarray, include_offline: bool) -> np.ndarray:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a 2-D vector set")
    if include_offline:
        return rows
    return rows[np.abs(rows).sum(axis=1) > 0]


def amvd(a_rows: np.ndarray, b_rows: np.ndarray, include_offline: bool = False) -> float:
    """Asymmetric minimum vector distance from set A to set B.

    Mean over A's vectors of the Manhattan distance to the nearest vector in
    B.  All-zero (offline) rows are dropped from both sets unless
    include_offline is set.
    """
    a = _vector_set(a_rows, include_offline)
    b = _vector_set(b_rows, include_offline)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("amvd needs a nonempty vector set on both sides")
    if a.shape[1] != b.shape[1]:
        raise ValueError("vector sets must share the location dimension")
    return float(np.mean(cdist(a, b, "cityblock").min(axis=1)))


def amvd_distance(a_rows: np.ndarray, b_rows: np.ndarray, include_offline: bool = False) -> float:
    """Symmetric AMVD: the mean of the two directed values."""
    return (
        amvd(a_rows, b_rows, include_offline) + amvd(b_rows, a_rows, include_offline)
    ) / 2.0


def sim(u, v) -> float:
    """Similarity index of two EigenBehaviorSets: sum of weighted absolute dot products."""
    if u.vectors.shape[1] != v.vectors.shape[1]:
        raise ValueError("eigen-behavior sets must share the location dimension")
    return float(u.weights @ np.abs(u.vectors @ v.vectors.T) @ v.weights)


def eigen_distance(sim_uv: float, sim_vu: float) -> float:
    """Distance from the two directed normalized similarities: 1 - their mean."""
    for s in (sim_uv, sim_vu):
        if not 0.0 <= s <= 1.0 + 1e-9:
            raise ValueError("normalized similarities must lie in [0, 1]")
    return min(max(1.0 - (sim_uv + sim_vu) / 2.0, 0.0), 1.0)


def _normalize_in_place(out: np.ndarray) -> np.ndarray:
    """Scale each user's row of the square raw similarities out, in place, by
    its largest similarity to any other user.  Off-diagonal entries land in
    [0, 1]; the diagonal is set to 1.  Rows with no positive similarity to
    anyone are left at zero with a warning."""
    np.fill_diagonal(out, -np.inf)
    row_max = out.max(axis=1)
    dead = row_max <= 0
    if np.any(dead):
        warnings.warn(f"normalize_sims: rows with no positive similarity: {np.flatnonzero(dead).tolist()}")
    np.divide(out, row_max[:, None], out=out, where=~dead[:, None])
    out[dead] = 0.0
    np.fill_diagonal(out, 1.0)
    return out


def normalized_sim_table(eigen_sets) -> tuple[np.ndarray, tuple[str, ...]]:
    """The square normalized similarity table of the sorted ids of eigen_sets
    (every set given), and those ids."""
    ids = tuple(sorted(eigen_sets))
    out = np.empty((len(ids), len(ids)))
    for lo, rows in sim_matrix([eigen_sets[u] for u in ids]):
        out[lo : lo + len(rows)] = rows
    return _normalize_in_place(out), ids


def sim_triangle(eigen_sets) -> tuple[np.ndarray, tuple[str, ...]]:
    """(S + S^T) / 2 over normalized_sim_table's S of the users with a set,
    as the condensed triangle of every sorted id; a pair with a user mapped
    to None holds 0."""
    ids = tuple(sorted(eigen_sets))
    table, live = normalized_sim_table({u: s for u, s in eigen_sets.items() if s is not None})
    square = np.zeros((len(ids), len(ids)))
    pos = [ids.index(u) for u in live]
    square[np.ix_(pos, pos)] = (table + table.T) / 2.0
    return square[np.triu_indices(len(ids), 1)], ids
