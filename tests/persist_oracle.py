"""Per-value reference writer for persist's eigen.csv.

Each cell goes through ``fmt`` and each row through ``csv.writer``; the
block-formatted ``eigenbehavior.persist.write_eigen_sets`` must write the
same bytes.
"""

from __future__ import annotations

import csv
from typing import Sequence

from eigenbehavior.summaries import EigenBehaviorSet


def fmt(x: float) -> str:
    return format(float(x), ".9g")


def write_eigen_sets(
    path: str, eigen_sets: dict[str, EigenBehaviorSet | None], location_index: Sequence[str]
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user", "weight"] + list(location_index))
        for user in sorted(eigen_sets):
            eset = eigen_sets[user]
            if eset is None:
                continue
            for weight, vector in zip(eset.weights, eset.vectors):
                writer.writerow([user, fmt(weight)] + [fmt(v) for v in vector])
