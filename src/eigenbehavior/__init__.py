"""Behavioral-group mining from wireless LAN association traces.

Pipeline: association records -> per-user normalized association matrices ->
behavior summaries (weighted average, dominant-mode centroid, eigen-behavior
vectors) -> pairwise behavioral distances (AMVD on raw matrices, or the cheap
eigen-behavior similarity distance) -> average-linkage clustering -> group
validation (power scatter, cross significance, rank-size power law, Jaccard)
-> group-cast message simulation over the remaining trace half.
"""

__version__ = "0.1.0"

from .cluster import DistanceMatrix, Partition, agglomerate, distance_cdfs
from .distances import (
    amvd_distance_matrix,
    eigen_distance_matrix,
    eigen_sets_for,
    sim_matrix,
    sim_triangle,
    summary_l1_distance,
)
from .groups import (
    CrossSignificance,
    GroupProfile,
    ScatterPoint,
    cross_significance,
    group_power_scatter,
    group_profiles,
    jaccard,
    partition_from_labels,
    rank_size_fit,
    top_groups_share,
)
from .pipeline import PipelineResult, build_distance_matrix, run_pipeline
from .profilecast import (
    EncounterStream,
    Encounters,
    Message,
    SimConfig,
    SimResult,
    SimulationOutcome,
    build_messages,
    compare_schemes,
    simulate,
    split_trace,
)
from .summaries import (
    EigenBehaviorSet,
    SummaryVectors,
    centroid_first_mode,
    eigen_behaviors,
    onavg,
    power_captured,
    significance,
    summary_table,
    summary_vectors,
)
from .synth import (
    ONLINE_SECONDS,
    GroupSpec,
    SynthSpec,
    generate,
    single_location_modes,
    spec_from_json,
    spec_to_json_dict,
)
from .trace import (
    DAY_SECONDS,
    AssociationMatrix,
    AssociationRecord,
    PopulationTable,
    Records,
    TraceConfig,
    aggregate_locations,
    build_matrices,
    load_location_map,
    load_records,
)

__all__ = [name for name in dir() if not name.startswith("_")]
