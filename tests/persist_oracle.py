"""Per-value reference writers for persist's array outputs.

Each cell goes through ``fmt`` and each row through ``csv.writer``; the
block-formatted writers in ``eigenbehavior.persist`` must write the same bytes.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Sequence

from eigenbehavior.distances import DistanceMatrix
from eigenbehavior.summaries import EigenBehaviorSet
from eigenbehavior.trace import AssociationMatrix, TraceConfig


def fmt(x: float) -> str:
    return format(float(x), ".9g")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_matrices(
    out_dir: str, matrices: dict[str, AssociationMatrix], config: TraceConfig
) -> None:
    """Every user's rows in one rows.csv plus an index manifest with the shared
    location index."""
    os.makedirs(out_dir, exist_ok=True)
    users = sorted(matrices)
    first = matrices[users[0]]
    with open(os.path.join(out_dir, "rows.csv"), "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user"] + list(first.location_index))
        for user in users:
            for row in matrices[user].rows:
                writer.writerow([user] + [fmt(v) for v in row])
    index = {
        "users": users,
        "t": first.n_slots,
        "n": first.n_locations,
        "location_index": list(first.location_index),
        "config": {
            "trace_start": config.trace_start,
            "trace_end": config.trace_end,
            "slot_seconds": config.slot_seconds,
            "window": list(config.window) if config.window else None,
            "normalization": config.normalization,
            "align_midnight": config.align_midnight,
        },
    }
    write_json(os.path.join(out_dir, "index.json"), index)


def write_eigen_sets(
    path: str, eigen_sets: dict[str, EigenBehaviorSet | None], location_index: Sequence[str]
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user", "power_floor", "weight"] + list(location_index))
        for user in sorted(eigen_sets):
            eset = eigen_sets[user]
            if eset is None:
                continue
            for weight, vector in zip(eset.weights, eset.vectors):
                writer.writerow([user, fmt(eset.power_floor), fmt(weight)] + [fmt(v) for v in vector])


def write_distance_matrix(path: str, dm: DistanceMatrix) -> None:
    """Upper triangle as i,j,distance rows plus a JSON sidecar with ids and params."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "j", "distance"])
        for i in range(dm.n):
            for j in range(i + 1, dm.n):
                writer.writerow([i, j, fmt(dm.values[i, j])])
    write_json(
        path + ".json",
        {
            "metric": dm.metric,
            "ids": list(dm.ids),
            "flagged_ids": list(dm.flagged_ids),
            "params": dm.params,
        },
    )
