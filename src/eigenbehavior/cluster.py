"""Average-linkage agglomerative clustering with a deterministic merge order.

The linkage between two clusters is the arithmetic mean of the distances over
all cross pairs of their elements.  Merging continues until either all
inter-cluster linkages exceed a threshold or a target cluster count is
reached.  Ties are broken toward the pair with the smaller cluster id, then
the smaller partner id, where a cluster's running id is the smallest original
element index it contains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import Hashable, Sequence

import numpy as np

_MONOTONE_SLACK = 1e-12


@dataclass
class Partition:
    """Clustering result: element -> contiguous cluster id, plus merge history."""

    assignment: dict[Hashable, int]
    merge_history: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def n_clusters(self) -> int:
        return len(set(self.assignment.values()))

    def clusters(self) -> list[list[Hashable]]:
        """Members per cluster id; each member list sorted."""
        out: dict[int, list[Hashable]] = {}
        for element, cid in self.assignment.items():
            out.setdefault(cid, []).append(element)
        return [sorted(out[cid]) for cid in sorted(out)]

    def sizes(self) -> list[int]:
        return [len(members) for members in self.clusters()]


@cache
def _cdist():
    # scipy costs more to import than numpy and the rest of the package
    # together; commands that never measure an L1 distance never load it.
    from scipy.spatial.distance import cdist

    return cdist


def cityblock(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise L1 distances between the rows of a and the rows of b (scipy's cdist)."""
    return _cdist()(a, b, "cityblock")


def validate_square(dm: np.ndarray) -> np.ndarray:
    """dm as a float array, checked to be square, symmetric and zero on the diagonal."""
    dm = np.asarray(dm, dtype=float)
    if dm.ndim != 2 or dm.shape[0] != dm.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.allclose(dm, dm.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    if not np.allclose(np.diag(dm), 0.0, atol=1e-9):
        raise ValueError("distance matrix must have a zero diagonal")
    return dm


def agglomerate(
    dm: np.ndarray,
    threshold: float | None = None,
    target_count: int | None = None,
    labels: Sequence[Hashable] | None = None,
) -> Partition:
    """Cluster elements of a symmetric distance matrix by average linkage.

    Exactly one of threshold / target_count selects the stop rule.  Under the
    threshold rule, merging proceeds while the smallest inter-cluster linkage
    is <= threshold; under the count rule, until target_count clusters remain.
    Merge distances are checked to be non-decreasing on every run.
    """
    if (threshold is None) == (target_count is None):
        raise ValueError("give exactly one of threshold or target_count")
    dm = validate_square(dm)
    n = dm.shape[0]
    if labels is None:
        labels = list(range(n))
    elif len(labels) != n:
        raise ValueError("labels length must match matrix size")
    if target_count is not None and not 1 <= target_count <= n:
        raise ValueError(f"target_count must lie in [1, {n}]")

    work = dm.copy()
    np.fill_diagonal(work, np.inf)
    sizes = np.ones(n, dtype=int)
    active = np.ones(n, dtype=bool)
    history: list[tuple[int, int, float]] = []
    n_active = n
    last_dist = -np.inf

    while n_active > 1:
        if target_count is not None and n_active == target_count:
            break
        flat = int(np.argmin(work))  # row-major scan realizes the id tie-break
        i, j = divmod(flat, n)
        dist = work[i, j]
        if threshold is not None and dist > threshold:
            break
        if i > j:
            i, j = j, i
        if dist < last_dist - _MONOTONE_SLACK:
            raise AssertionError(
                f"average-linkage monotonicity violated: {dist} after {last_dist}"
            )
        last_dist = dist
        history.append((i, j, float(dist)))
        # Lance-Williams update for average linkage, result stored at slot i.
        others = active.copy()
        others[[i, j]] = False
        ni, nj = sizes[i], sizes[j]
        merged_row = (ni * work[i, others] + nj * work[j, others]) / (ni + nj)
        work[i, others] = merged_row
        work[others, i] = merged_row
        work[j, :] = np.inf
        work[:, j] = np.inf
        work[i, i] = np.inf
        sizes[i] = ni + nj
        active[j] = False
        n_active -= 1

    return partition_from_merges(history, labels)


def partition_from_merges(
    merges: Sequence[tuple[int, int, float]], labels: Sequence[Hashable]
) -> Partition:
    """The partition left by replaying a merge history over len(labels) singletons.

    Each merge (i, j, d) moves slot j's members into slot i (i < j), so a
    slot's id is its smallest member index; final cluster ids are contiguous
    in that order.  Any prefix of a history is itself a valid history.
    """
    members: dict[int, list[int]] = {i: [i] for i in range(len(labels))}
    for i, j, _ in merges:
        members[i].extend(members.pop(j))
    assignment: dict[Hashable, int] = {}
    for cid, slot in enumerate(sorted(members)):
        for idx in members[slot]:
            assignment[labels[idx]] = cid
    return Partition(assignment=assignment, merge_history=list(merges))


def distance_cdfs(
    partition: Partition,
    dm: np.ndarray,
    labels: Sequence[Hashable] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted intra-cluster and inter-cluster pair distance samples."""
    dm = validate_square(dm)
    n = dm.shape[0]
    if labels is None:
        labels = list(range(n))
    cluster_of = np.array([partition.assignment[lab] for lab in labels])
    iu, ju = np.triu_indices(n, k=1)
    same = cluster_of[iu] == cluster_of[ju]
    values = dm[iu, ju]
    return np.sort(values[same]), np.sort(values[~same])
