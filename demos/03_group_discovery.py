"""
Finding behavioral groups: distances, clustering, validation
============================================================

Two users belong together when their recurring visiting patterns agree, not
when they happen to be in the same room.  This script compares the two
pairwise distances (exhaustive set matching vs truncated spectral), clusters
a planted population, and validates the result three ways.
"""

import sys
import time

import numpy as np

from eigenbehavior import (
    DAY_SECONDS,
    GroupSpec,
    SynthSpec,
    TraceConfig,
    agglomerate,
    amvd_distance_matrix,
    build_matrices,
    cross_significance,
    distance_cdfs,
    eigen_distance_matrix,
    eigen_sets_for,
    generate,
    group_power_scatter,
    group_profiles,
    jaccard,
    partition_from_labels,
    rank_size_fit,
    single_location_modes,
    top_groups_share,
)

# 150 users, five planted groups with orthogonal dominant buildings.
spec = SynthSpec(
    n_locations=20,
    n_days=28,
    seed=90210,
    noise_epsilon=0.05,
    groups=tuple(
        GroupSpec(30, single_location_modes(20, [loc]), (1.0,), p_online=0.8)
        for loc in (0, 4, 8, 12, 16)
    ),
)
records, truth = generate(spec)
matrices = build_matrices(records, TraceConfig(0, spec.n_days * DAY_SECONDS))

# -- the two metrics, timed ---------------------------------------------------
start = time.perf_counter()
dm_sets = amvd_distance_matrix(matrices)
set_time = time.perf_counter() - start

start = time.perf_counter()
dm_spectral = eigen_distance_matrix(eigen_sets_for(matrices))
spectral_time = time.perf_counter() - start

# Timings vary from run to run, so they go to stderr and stdout stays comparable.
print(f"set-matching distances:  {set_time:.2f}s", file=sys.stderr)
print(f"spectral distances:      {spectral_time:.2f}s  "
      f"({set_time / spectral_time:.0f}x faster)", file=sys.stderr)

# -- average-linkage clustering ----------------------------------------------
partition = agglomerate(dm_spectral, target_count=5)
sizes = sorted(partition.sizes(), reverse=True)
agreement = jaccard(partition, partition_from_labels(truth))
print(f"\nclusters found: sizes {sizes}, pair agreement with planted truth "
      f"{agreement:.4f}")

intra, inter = distance_cdfs(partition, dm_spectral)
print(f"within-group distances:  max {intra.max():.4f}")
print(f"between-group distances: min {inter.min():.4f}")

# -- validation: are these real groups? ---------------------------------------
# Each group's members are pooled into one joint matrix, decomposed once; both
# tests below read those profiles.
profiles = group_profiles(partition, matrices)

# (a) each group's joint matrix concentrates its power in few directions,
#     which a size-matched random sample of users does not
print("\njoint top-4 power, group vs size-matched random sample")
for point in group_power_scatter(profiles, matrices, seed=1):
    print(f"  cluster {point.cluster_id} (n={point.size}):  "
          f"{point.coherent_power:.3f} vs {point.random_power:.3f}")

# (b) each group's first joint direction scores its own members far higher
#     than everybody else
cross = cross_significance(profiles, matrices)
print(f"\nin-group significance {cross.own_mean:.3f} vs out-of-group "
      f"{cross.other_mean:.3f}")

# -- rank-size structure -------------------------------------------------------
# Group sizes in large populations tend to follow a power law.  Plant one with
# exponent -0.75 across 60 clusters and read it back off the fitted slope.
labels = {}
uid = 0
for cluster_id, size in enumerate(int(round(400 * r ** -0.75)) for r in range(1, 61)):
    for _ in range(size):
        labels[f"x{uid:05d}"] = cluster_id
        uid += 1
synthetic = partition_from_labels(labels)
slope, intercept = rank_size_fit(synthetic)
print(f"\nplanted rank-size exponent -0.75, fitted slope {slope:.3f}")
print(f"population share of the 10 largest groups: "
      f"{top_groups_share(synthetic, 10):.3f}")
