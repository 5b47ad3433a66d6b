"""Behavioral distances between users.

Two routes to the same question, how alike are two users' daily association
patterns:

* AMVD works on raw matrices.  The asymmetric part averages, over the days of
  one user, the Manhattan distance to the closest day of the other user; the
  symmetric distance averages both directions, both read off one block of
  day-to-day distances per pair.  Cost grows with the square of the day count
  per pair.
* The eigen route compresses each user to a few weighted eigen-behavior
  vectors first.  The similarity index sums weighted absolute dot products of
  two users' vectors, is normalized per user by the largest similarity to any
  other user, and the distance is one minus the symmetrized normalized
  similarity.  Per-pair cost depends only on the kept component count.

Both routes read the ``PopulationTable`` of ``build_matrices``: the eigen
sets come from one stacked SVD per block of its online users, and AMVD
gathers every user's online rows off its rows and online mask in one step.
"""

from __future__ import annotations

import warnings
from typing import Iterator

import numpy as np

from . import trace
from .cluster import METRIC_MAX, DistanceMatrix, l1_triangles, pair_index, pairwise_l1
from .summaries import DEFAULT_POWER_FLOOR, EigenBehaviorSet, check_power_floor, eigen_decompositions
from .trace import PopulationTable, budget_blocks


def amvd_distance_matrix(table: PopulationTable, include_offline: bool = False) -> DistanceMatrix:
    """Pairwise symmetric AMVD; pairs touching an all-offline user get the metric max.

    Users are taken in order of row count, ids breaking ties, and their rows
    (the online ones unless include_offline) gathered off the table in that
    order at once.  Each user's L1 distances to the rows of the users after
    it are made once, in blocks of about trace.BLOCK_CELLS cells: minima over
    each later user's rows give the forward means, minima over the user's
    own rows the backward ones.  Each mean is a row mean over one contiguous
    run, so it has np.mean's bits; the later users' counts never fall, so
    their backward runs reshape to rows.
    """
    ids = table.users
    taken = table.online | include_offline  # (users, slots)
    counts = np.count_nonzero(taken, axis=1)
    flagged = tuple(user for user, count in zip(ids, counts.tolist()) if count == 0)
    order = np.argsort(counts, kind="stable")  # flagged users first
    _, n_slots, n_locations = table.rows.shape
    slots = (order[:, None] * n_slots + np.arange(n_slots))[taken[order]]
    rows = table.rows.reshape(-1, n_locations)[slots]
    sizes = counts[order]
    bounds = np.append(0, np.cumsum(sizes))
    values = np.full(len(ids) * (len(ids) - 1) // 2, METRIC_MAX["amvd"])
    for p in range(len(flagged), len(ids) - 1):
        own = rows[bounds[p] : bounds[p + 1]]
        for lo, hi in budget_blocks(sizes[p + 1 :], max(1, trace.BLOCK_CELLS // len(own))):
            lo, hi = lo + p + 1, hi + p + 1
            dist = pairwise_l1(own, rows[bounds[lo] : bounds[hi]])
            edges = bounds[lo:hi] - bounds[lo]
            forward = np.minimum.reduceat(dist, edges, axis=1).T.copy().mean(axis=1)
            nearest = dist.min(axis=0)
            del dist  # freed before the next block is made
            cuts = np.flatnonzero(np.diff(sizes[lo:hi])) + 1  # where the row count grows
            runs = zip(np.split(nearest, edges[cuts]), sizes[lo + np.append(0, cuts)])
            backward = np.concatenate([run.reshape(-1, size).mean(axis=1) for run, size in runs])
            first, second = np.minimum(order[p], order[lo:hi]), np.maximum(order[p], order[lo:hi])
            values[pair_index(len(ids), first, second)] = (forward + backward) / 2.0
    return DistanceMatrix(values, "amvd", ids, flagged)


def sim_matrix(sets: list[EigenBehaviorSet]) -> Iterator[tuple[int, np.ndarray]]:
    """Raw similarity index of every ordered pair (diagonal included), as
    (lo, rows) blocks: rows[i, j] is the index of sets lo + i and j.

    sim(u, v) = sum over i, j of w_ui * w_vj * |u_i . v_j|, the weighted
    absolute dot products of the two users' eigen-behavior vectors.  The
    products are taken for blocks of users whose vectors times all vectors
    come to about trace.BLOCK_CELLS.
    """
    weighted = np.vstack([s.vectors * s.weights[:, None] for s in sets])
    bounds = np.append(0, np.cumsum([s.k for s in sets]))
    starts = bounds[:-1]
    per_block = max(1, trace.BLOCK_CELLS // len(weighted))
    for lo, hi in budget_blocks(np.diff(bounds), per_block):
        block = weighted[bounds[lo] : bounds[hi]] @ weighted.T
        np.abs(block, out=block)
        partial = np.add.reduceat(block, starts, axis=1)
        del block  # freed before the rows are made
        rows = np.add.reduceat(partial, bounds[lo:hi] - bounds[lo], axis=0)
        del partial  # freed before the next block is made
        yield lo, rows


def sim_triangle(eigen_sets: dict[str, EigenBehaviorSet | None]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Symmetrized normalized similarities (S + S^T) / 2 of the sorted ids, as
    their condensed triangle, and the ids.

    Row a of S is user a's raw similarities over its largest one to any other
    user, so every user's closest neighbor scores 1; a row with no positive
    similarity stays at zero, with a warning.  A user mapped to None has
    similarity 0 to everyone.  Each block of sim_matrix's rows is normalized
    as it comes: row a's j > a part is written at its pairs (a, j) and its
    j < a part added at the pairs (j, a), which row j wrote before, all
    placed by pair_index; then the triangle is halved.  Addition commutes,
    so every cell has the bits of the whole-array S + S^T.
    """
    ids = tuple(sorted(eigen_sets))
    pos = np.flatnonzero([eigen_sets[u] is not None for u in ids])  # the live users' places in ids
    if len(pos) < 2:
        raise ValueError("need at least two users with eigen-behavior sets")
    n = len(ids)
    values = np.zeros(n * (n - 1) // 2)
    first = pair_index(n, pos, 0)  # the pair (pos[a], j) sits at first[a] + j
    dead = []
    for lo, rows in sim_matrix([eigen_sets[ids[p]] for p in pos]):
        live = np.arange(lo, lo + len(rows))
        rows[live - lo, live] = -np.inf  # a user's own similarity is not its largest
        top = rows.max(axis=1)
        flat = top <= 0
        dead.extend(pos[live[flat]].tolist())
        np.divide(rows, top[:, None], out=rows, where=~flat[:, None])
        rows[flat] = 0.0
        for a, row in zip(live.tolist(), rows):
            values[first[a] + pos[a + 1 :]] = row[a + 1 :]
            values[first[:a] + pos[a]] += row[:a]
    if dead:
        warnings.warn(f"sim_triangle: rows with no positive similarity: {dead}")
    values /= 2.0
    return values, ids


def eigen_distance_matrix(
    eigen_sets: dict[str, EigenBehaviorSet | None],
) -> DistanceMatrix:
    """Eigen-behavior distance 1 - (S + S^T) / 2 over the normalized
    similarities S, clipped to [0, 1], made in place over sim_triangle's
    triangle.  Users mapped to None (no online time) are flagged; their
    similarity 0 puts them at the metric maximum, 1, from everyone.
    """
    values, ids = sim_triangle(eigen_sets)
    np.subtract(1.0, values, out=values)
    np.clip(values, 0.0, 1.0, out=values)
    flagged = tuple(u for u in ids if eigen_sets[u] is None)
    return DistanceMatrix(values, "eigen", ids, flagged)


def summary_l1_distance(ids: tuple[str, ...], vectors: np.ndarray, metric: str) -> DistanceMatrix:
    """Manhattan distance, named metric, between the users ids, whose
    summaries are the rows of vectors, (users, locations): l1_triangles of
    the rows."""
    if len(ids) < 2:
        raise ValueError("need at least two users with online slots")
    return DistanceMatrix(l1_triangles(vectors), metric, ids)


def eigen_sets_for(
    table: PopulationTable, power_floor: float = DEFAULT_POWER_FLOOR
) -> dict[str, EigenBehaviorSet | None]:
    """Eigen-behavior sets per user, in the order of the table; all-offline
    users map to None.  The online users are decomposed a block at a time by
    eigen_decompositions, each block one gather of their rows and one stacked
    SVD, of about trace.BLOCK_CELLS input and output cells."""
    check_power_floor(power_floor)
    sets: dict[str, EigenBehaviorSet | None] = dict.fromkeys(table.users)
    _, n_slots, n_locations = table.rows.shape
    rank = min(n_slots, n_locations)  # the SVD's components: U, s and vt
    cells = np.full(len(table.live), n_slots * n_locations + rank * (n_slots + n_locations + 1))
    users = table.online_users
    for lo, hi in budget_blocks(cells, trace.BLOCK_CELLS):
        block, _ = eigen_decompositions(table.rows[table.live[lo:hi]], power_floor)
        sets.update(zip(users[lo:hi], block))
    return sets
