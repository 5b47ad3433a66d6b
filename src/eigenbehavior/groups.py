"""Validation and characterization of discovered behavioral groups.

A group's members are pooled into a joint matrix (rows of every member's
matrix stacked in user-id order).  Coherent groups concentrate their joint
power in a few components, beat size-matched random user samples on top-4
captured power, and their leading joint eigen-behavior scores high on
members and near zero on everyone else.  Group size distributions are
summarized by a power-law rank-size fit, and partitions are compared by the
pair-counting Jaccard index.  Every test reads the ``PopulationTable``: a
joint matrix is one gather of the table's rows at its users' sorted places,
and the online users are the table's ``live`` places.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Hashable, Sequence

import numpy as np

from .cluster import Partition
from .summaries import (
    DEFAULT_POWER_FLOOR,
    EigenBehaviorSet,
    check_power_floor,
    cumulative_power,
    eigen_decompositions,
    significances,
)
from .trace import PopulationTable

SCATTER_TOP_K = 4


@dataclass
class GroupProfile:
    cluster_id: int
    members: tuple[str, ...]  # sorted member ids
    eigen: EigenBehaviorSet | None  # None for all-offline clusters
    top_power: list[float]  # cumulative power captured by the top 1..4 components

    @property
    def size(self) -> int:
        return len(self.members)


def group_profiles(
    partition: Partition,
    table: PopulationTable,
    power_floor: float = DEFAULT_POWER_FLOOR,
) -> list[GroupProfile]:
    """Each cluster's members, joint eigen-behaviors and top 1..4 cumulative
    power, both from one SVD of its joint matrix, which eigen_decompositions
    takes as a stack of one; the validation functions read these profiles
    instead of rebuilding the clusters."""
    check_power_floor(power_floor)
    profiles = []
    for cid, members in enumerate(partition.clusters()):
        members = tuple(map(str, members))
        at = np.sort(table.places(members))
        eigen, top = None, []
        if table.online[at].any():
            (eigen,), (s,) = eigen_decompositions(_joint_rows(table, at)[None], power_floor)
            top = cumulative_power(s, SCATTER_TOP_K).tolist()
        profiles.append(GroupProfile(cid, members, eigen, top))
    return profiles


def _joint_rows(table: PopulationTable, at: np.ndarray) -> np.ndarray:
    """The joint matrix of the users at the ascending places at: their rows,
    offline ones included, stacked in user-id order by one gather."""
    return table.rows[at].reshape(-1, len(table.location_index))


def _online_members(table: PopulationTable, members: Sequence[str]) -> np.ndarray:
    """Which of the table's online users, at its places live, are members."""
    member = np.zeros(len(table), dtype=bool)
    member[table.places(members)] = True
    return member[table.live]


@dataclass
class ScatterPoint:
    cluster_id: int
    size: int
    coherent_power: float  # top-4 power of the cluster's joint matrix
    random_power: float  # top-4 power of a size-matched random user sample


def group_power_scatter(
    profiles: list[GroupProfile],
    table: PopulationTable,
    min_size: int = 5,
    seed: int = 0,
) -> list[ScatterPoint]:
    """Top-4 joint power of each cluster with more than min_size users,
    against one seeded random sample of as many users with online time as it
    has online members, drawn without replacement.  Clusters without online
    members have no power to compare and are skipped.  A sample's power takes
    the singular values of its joint matrix alone."""
    rng = np.random.default_rng(seed)
    points = []
    for profile in profiles:
        if profile.size <= min_size or profile.eigen is None:
            continue
        n_online = np.count_nonzero(_online_members(table, profile.members))
        sample = np.sort(rng.choice(len(table.live), size=n_online, replace=False))
        s = np.linalg.svd(_joint_rows(table, table.live[sample]), compute_uv=False)
        random_power = float(cumulative_power(s, SCATTER_TOP_K)[-1])
        coherent = profile.top_power[SCATTER_TOP_K - 1]
        points.append(ScatterPoint(profile.cluster_id, profile.size, coherent, random_power))
    if not points:
        raise ValueError(f"no cluster with online members has more than {min_size} users")
    return points


@dataclass
class CrossSignificance:
    per_cluster: list[tuple[int, float, float]]  # (cluster_id, own mean, other mean)
    own_mean: float  # mean SIG over all (cluster, member) pairs
    other_mean: float  # mean SIG over all (cluster, non-member) pairs


def cross_significance(profiles: list[GroupProfile], table: PopulationTable) -> CrossSignificance:
    """Score each cluster's first joint eigen-behavior on online members vs everyone else."""
    scored = [p for p in profiles if p.eigen is not None]
    if not scored:
        raise ValueError("no cluster has online members")
    firsts = np.array([p.eigen.vectors[0] for p in scored])
    scores = significances(table.rows, firsts, table.live).T  # (clusters, online users)
    flat = scores.reshape(-1)
    per_cluster, own_all, n_other = [], [], 0
    for profile, row in zip(scored, scores):
        member = _online_members(table, profile.members)
        own, other = row[member], row[~member]
        per_cluster.append(
            (profile.cluster_id, float(own.mean()), float(other.mean()) if other.size else float("nan"))
        )
        own_all.append(own)
        # the other-scores overwrite rows already read, so that the mean over
        # all (cluster, non-member) pairs reads one contiguous run
        flat[n_other : n_other + other.size] = other
        n_other += other.size
    return CrossSignificance(
        per_cluster,
        float(np.concatenate(own_all).mean()),
        float(flat[:n_other].mean()) if n_other else float("nan"),
    )


def rank_size_fit(partition: Partition, min_size: int = 5) -> tuple[float, float]:
    """Least-squares power-law fit of cluster size against rank.

    Clusters of at least min_size members are sorted by descending size and a
    line is fitted to (log10 rank, log10 size); returns (slope, intercept).
    """
    sizes = sorted((s for s in partition.sizes() if s >= min_size), reverse=True)
    if len(sizes) < 3:
        raise ValueError(f"need at least 3 clusters of size >= {min_size}, have {len(sizes)}")
    ranks = np.arange(1, len(sizes) + 1)
    slope, intercept = np.polyfit(np.log10(ranks), np.log10(sizes), 1)
    return float(slope), float(intercept)


def top_groups_share(partition: Partition, k: int = 10) -> float:
    """Fraction of the population held by the k largest clusters."""
    sizes = sorted(partition.sizes(), reverse=True)
    if len(sizes) < k:
        raise ValueError(f"need at least {k} clusters, have {len(sizes)}")
    return float(sum(sizes[:k]) / sum(sizes))


def jaccard(p: Partition, q: Partition) -> float:
    """Pair-counting Jaccard index between two partitions of one element set.

    r pairs co-clustered in both, u only in the first, v only in the second;
    the index is r / (r + u + v), and 1.0 when no pair is co-clustered in
    either (nothing to disagree about).
    """
    if set(p.assignment) != set(q.assignment):
        raise ValueError("partitions must cover the same elements")
    contingency = Counter((pc, q.assignment[element]) for element, pc in p.assignment.items())
    r = sum(comb(c, 2) for c in contingency.values())
    u = sum(comb(c, 2) for c in Counter(p.assignment.values()).values()) - r
    v = sum(comb(c, 2) for c in Counter(q.assignment.values()).values()) - r
    denom = r + u + v
    return 1.0 if denom == 0 else r / denom


def partition_from_labels(labels: dict[Hashable, int]) -> Partition:
    """Wrap a plain element -> group-id mapping (ids made contiguous)."""
    elements = sorted(labels, key=str)
    relabel: dict[int, int] = {}
    for element in elements:
        relabel.setdefault(labels[element], len(relabel))
    return Partition(assignment={element: relabel[labels[element]] for element in elements})
