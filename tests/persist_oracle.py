"""The per-value array writers as persist had them before block formatting.

Each cell goes through ``fmt`` and each row through ``csv.writer``; the
block-formatted writers in ``eigenbehavior.persist`` must write the same bytes.
"""

from __future__ import annotations

import csv
import json
import os
from typing import Sequence
from urllib.parse import quote

import numpy as np

from eigenbehavior.distances import DistanceMatrix
from eigenbehavior.summaries import EigenBehaviorSet
from eigenbehavior.trace import AssociationMatrix, TraceConfig


def fmt(x: float) -> str:
    return format(float(x), ".9g")


def _safe_name(user: str) -> str:
    return quote(user, safe="")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_matrices(
    out_dir: str, matrices: dict[str, AssociationMatrix], config: TraceConfig
) -> None:
    """One CSV per user plus an index manifest with the shared location index."""
    os.makedirs(out_dir, exist_ok=True)
    users = sorted(matrices)
    first = matrices[users[0]]
    for user in users:
        with open(os.path.join(out_dir, f"{_safe_name(user)}.csv"), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in matrices[user].rows:
                writer.writerow([fmt(v) for v in row])
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
    out_dir: str, eigen_sets: dict[str, EigenBehaviorSet | None]
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for user in sorted(eigen_sets):
        eset = eigen_sets[user]
        if eset is None:
            continue
        payload = {
            "user": user,
            "weights": [float(fmt(w)) for w in eset.weights],
            "vectors": [[float(fmt(v)) for v in vec] for vec in eset.vectors],
            "power_floor": eset.power_floor,
        }
        write_json(os.path.join(out_dir, f"{_safe_name(user)}.json"), payload)


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


def write_cdf_csv(path: str, samples: np.ndarray) -> None:
    """Sorted samples with their empirical CDF value."""
    n = len(samples)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["distance", "cdf"])
        for i, value in enumerate(samples):
            writer.writerow([fmt(value), fmt((i + 1) / n)])


def write_sims_csv(path: str, normalized: np.ndarray, ids: Sequence[str]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user"] + list(ids))
        for i, user in enumerate(ids):
            writer.writerow([user] + [fmt(v) for v in normalized[i]])
