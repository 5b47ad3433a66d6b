"""End-to-end wiring: population table -> metric -> partition -> group report."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import distances, groups, summaries
from .cluster import METRIC_MAX, DistanceMatrix, Partition, agglomerate
from .trace import PopulationTable

METRICS = tuple(METRIC_MAX)


def build_distance_matrix(
    matrices: PopulationTable,
    metric: str,
    eigen_sets: dict[str, summaries.EigenBehaviorSet | None],
    column: tuple[tuple[str, ...], np.ndarray] | None = None,
    include_offline: bool = False,
) -> DistanceMatrix:
    """Distance matrix for a metric, read off the eigen sets, or off column,
    the metric's SummaryVectors.column, for a summary metric."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    if metric == "eigen":
        return distances.eigen_distance_matrix(eigen_sets)
    if metric == "amvd":
        return distances.amvd_distance_matrix(matrices, include_offline)
    return distances.summary_l1_distance(*column, metric)


@dataclass
class PipelineResult:
    matrices: PopulationTable
    eigen_sets: dict[str, summaries.EigenBehaviorSet | None]
    distance_matrix: DistanceMatrix
    partition: Partition
    summary_table: dict[str, float]  # summaries.summary_table of the run's summary vectors
    profiles: list[groups.GroupProfile] = field(default_factory=list)


def run_pipeline(
    matrices: PopulationTable,
    metric: str = "eigen",
    threshold: float | None = None,
    target_count: int | None = None,
    power_floor: float = summaries.DEFAULT_POWER_FLOOR,
    include_offline: bool = False,
) -> PipelineResult:
    """Run the full grouping pipeline on the population table that
    build_matrices makes of the prepared (already aggregated) records.

    Eigen sets and then summary vectors are built once and feed every output;
    the summaries are held only while the summary table and the metric's
    column are read off them, and the similarity triangle is built only for
    the eigen metric."""
    eigen_sets = distances.eigen_sets_for(matrices, power_floor)
    summary = summaries.summary_vectors(matrices, eigen_sets)
    table, column = summaries.summary_table(matrices, summary), summary.column(metric)
    del summary  # only the metric's column, none for eigen and amvd, is held on
    dm = build_distance_matrix(matrices, metric, eigen_sets, column, include_offline)
    del column
    partition = agglomerate(dm, threshold=threshold, target_count=target_count)
    profiles = groups.group_profiles(partition, matrices, power_floor=power_floor)
    return PipelineResult(
        matrices=matrices,
        eigen_sets=eigen_sets,
        distance_matrix=dm,
        partition=partition,
        summary_table=table,
        profiles=profiles,
    )
