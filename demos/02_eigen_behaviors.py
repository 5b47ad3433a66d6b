"""
Eigen-behavior decompositions: recurring patterns and how many matter
=====================================================================

A user's association matrix, decomposed by SVD, yields unit "eigen-behavior"
directions in location space.  Each carries a weight: its share of the total
squared singular value ("power").  A user who repeats one routine needs one
direction; a user with three routines needs about three.
"""

import numpy as np

from eigenbehavior import (
    DAY_SECONDS,
    GroupSpec,
    SynthSpec,
    TraceConfig,
    build_matrices,
    eigen_behaviors,
    eigen_sets_for,
    generate,
    power_captured,
    summary_table,
    summary_vectors,
)

# A small seeded campus: regulars with one routine, commuters with two, and
# wanderers with three, over 12 buildings and 8 weeks.
spec = SynthSpec(
    n_locations=12,
    n_days=56,
    seed=4242,
    noise_epsilon=0.03,
    groups=(
        GroupSpec(15, ((1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),), (1.0,), p_online=0.9),
        GroupSpec(
            15,
            (
                (0, 0, 0.9, 0.1, 0, 0, 0, 0, 0, 0, 0, 0),
                (0, 0, 0.1, 0.9, 0, 0, 0, 0, 0, 0, 0, 0),
            ),
            (0.6, 0.4),
            p_online=0.9,
        ),
        GroupSpec(
            15,
            (
                (0, 0, 0, 0, 0, 0.8, 0.2, 0, 0, 0, 0, 0),
                (0, 0, 0, 0, 0, 0.2, 0.6, 0.2, 0, 0, 0, 0),
                (0, 0, 0, 0, 0, 0, 0.2, 0.8, 0, 0, 0, 0),
            ),
            (0.5, 0.3, 0.2),
            p_online=0.9,
        ),
    ),
)
records, truth = generate(spec)
matrices = build_matrices(records, TraceConfig(0, spec.n_days * DAY_SECONDS))

# one user from each planted group
samples = {"regular": "u00000", "commuter": "u00015", "wanderer": "u00030"}

for label, user in samples.items():
    behaviors = eigen_behaviors(matrices[user])
    print(f"{label} ({user}): {behaviors.k} directions kept")
    for rank, (vector, weight) in enumerate(zip(behaviors.vectors, behaviors.weights)):
        top = np.argsort(vector)[::-1][:3]
        described = ", ".join(
            f"{matrices[user].location_index[i]}:{vector[i]:+.2f}"
            for i in top
            if abs(vector[i]) > 0.05
        )
        print(f"    #{rank}  weight {weight:.3f}   {described}")
    print()

# Captured power as a function of rank: a staircase that saturates early.
print("cumulative power captured by the first k directions")
print(" " * 11 + "".join(f"    k={k}" for k in range(1, 7)))
for label, user in samples.items():
    caps = [power_captured(matrices[user], k) for k in range(1, 7)]
    print(f"  {label:9s}" + "".join(f"  {c:.3f}" for c in caps))
print()

# Population view: mean explanatory score of each one-vector summary, and the
# share of users whose five leading directions capture 90% of the power.
table = summary_table(matrices, summary_vectors(matrices, eigen_sets_for(matrices)))
print("population mean significance of each summary")
for method in ("onavg", "centroid@0.5", "centroid@0.9", "svd"):
    print(f"  {method:13s} {table[method]:.4f}")

enough = sum(power_captured(m, 5) >= 0.9 for m in matrices.values())
print(f"\nusers where five directions capture >= 90% of power: "
      f"{enough}/{len(matrices)}")
