"""End-to-end wiring: trace -> matrices -> metric -> partition -> group report."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import distances, groups, summaries
from .cluster import DistanceMatrix, Partition, agglomerate
from .trace import AssociationMatrix, TraceConfig, build_matrices

METRICS = ("eigen", "amvd", "onavg", "centroid05", "centroid09")

_SUMMARY_KIND = {"onavg": "onavg", "centroid05": "centroid@0.5", "centroid09": "centroid@0.9"}


def build_distance_matrix(
    matrices: dict[str, AssociationMatrix],
    metric: str,
    eigen_sets: dict[str, summaries.EigenBehaviorSet | None],
    normalized_sims: np.ndarray | None,
    sim_ids: tuple[str, ...] | None,
    include_offline: bool = False,
) -> DistanceMatrix:
    """Distance matrix for a metric; eigen distances come from the given sim table,
    which is None when fewer than two users have eigen-behavior sets."""
    if metric == "eigen":
        if normalized_sims is None:
            raise ValueError("need at least two users with eigen-behavior sets")
        return distances.eigen_distance_from_sims(normalized_sims, sim_ids, eigen_sets)
    if metric == "amvd":
        return distances.amvd_distance_matrix(matrices, include_offline)
    if metric in _SUMMARY_KIND:
        return distances.summary_l1_distance(matrices, _SUMMARY_KIND[metric])
    raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")


@dataclass
class PipelineResult:
    matrices: dict[str, AssociationMatrix]
    eigen_sets: dict[str, summaries.EigenBehaviorSet | None]
    normalized_sims: np.ndarray | None
    sim_ids: tuple[str, ...] | None
    distance_matrix: DistanceMatrix
    partition: Partition
    profiles: list[groups.GroupProfile] = field(default_factory=list)


def run_pipeline(
    records,
    config: TraceConfig,
    metric: str = "eigen",
    threshold: float | None = None,
    target_count: int | None = None,
    power_floor: float = summaries.DEFAULT_POWER_FLOOR,
    include_offline: bool = False,
) -> PipelineResult:
    """Run the full grouping pipeline on prepared (already aggregated) records.

    Eigen sets and the similarity table are built once and feed every output."""
    matrices = build_matrices(records, config)
    eigen_sets = distances.eigen_sets_for(matrices, power_floor)
    live = {u: s for u, s in eigen_sets.items() if s is not None}
    normalized = None
    sim_ids = None
    if len(live) >= 2:
        normalized, sim_ids = distances.normalized_sim_table(live)
    dm = build_distance_matrix(matrices, metric, eigen_sets, normalized, sim_ids, include_offline)
    partition = agglomerate(dm, threshold=threshold, target_count=target_count)
    profiles = groups.group_profiles(partition, matrices, power_floor=power_floor)
    return PipelineResult(
        matrices=matrices,
        eigen_sets=eigen_sets,
        normalized_sims=normalized,
        sim_ids=sim_ids,
        distance_matrix=dm,
        partition=partition,
        profiles=profiles,
    )
