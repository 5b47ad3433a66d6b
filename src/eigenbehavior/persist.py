"""Deterministic on-disk formats for every pipeline artifact.

Floats in the CSV and JSON files are written with 9 significant digits and
all JSON with sorted keys, so identical inputs and seeds reproduce
byte-identical files.

The per-user array ``eigen.csv`` is one labelled CSV: a header of ``user``
and the column names, then one line per array row, led by its user's cell.
No file is named after a user.  One writer formats a user's whole block with
one ``%.9g`` template applied to ``ndarray.tolist()``, and one reader, on
``trace.read_csv``, parses them back; ``"%.9g" % x`` is byte-identical to
``format(x, ".9g")``.  The trace writer writes in chunks of at most
``CHUNK_ROWS`` records, with one ``%s,%s,%d,%d`` template over the int64
casts of the bounds, which truncate toward zero as ``int()`` does; every
bound of a ``Records`` is below 2**53 in magnitude, so the cast is exact.
Ids are quoted once each through ``csv.writer``, as QUOTE_MINIMAL requires.

The distance matrix is the one binary file and is stored exactly: its
``DistanceMatrix.values``, the condensed upper triangle as float64 (the
row-major ``i < j`` order of scipy's ``squareform``), saved as it is in
NumPy's own ``.npy`` format and loaded back as it is, with a JSON sidecar of
its ids, its ``--metric`` name and its flagged ids.

Each run option is stored once, and nothing that can be recomputed is stored.
The association matrices are a function of the trace, config and locmap whose
digests ``manifest.json`` records, so ``matrices/index.json`` keeps only their
shape, users and location index, and in its ``config`` the trace config and
the analysis options (``power_floor``, ``include_offline``).  The data files
keep only data: ``eigen.csv`` holds each kept eigen-behavior's weight and
vector, not the floor that kept it.  The similarity triangle is a function of
the eigen sets, ``distances.sim_triangle(load_eigen_sets(path))``.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
from datetime import datetime, timezone
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .cluster import DistanceMatrix, Partition
from .groups import GroupProfile
from .profilecast import Message, SimConfig, SimResult
from .summaries import EigenBehaviorSet
from .trace import (
    AssociationRecord,
    PopulationTable,
    Records,
    TraceConfig,
    as_records,
    json_keys,
    json_number,
    read_csv,
    read_json,
    read_table,
)


CHUNK_ROWS = 4096
EIGEN_LEAD = ("user", "weight")  # eigen.csv's columns before the location ids
RESULT_HEADER = ["scheme", "param", "delivery_ratio", "mean_delay_s", "overhead"]
TOP_LOCATIONS = 5  # leading locations of each cluster's first eigen-behavior in report.json


def fmt(x: float) -> str:
    return format(float(x), ".9g")


def _csv_cells(values: Sequence[str]) -> list[str]:
    """Each value as csv.writer writes it as one cell of a longer row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    cells = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow([value, ""])
        cells.append(buf.getvalue()[: -len(",\n")])
    return cells


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A small table, every row through csv.writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_trace_csv(path: str, records: Records | Iterable[AssociationRecord]) -> None:
    """Whole-second user,location,start,end rows: each float bound as the
    int64 it truncates to toward zero, the digits ``int()`` gives."""
    records = as_records(records)
    user_cells = np.array(_csv_cells(records.users), dtype=object)
    loc_cells = np.array(_csv_cells(records.locations), dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write("user,location,start,end\n")
        for lo in range(0, len(records), CHUNK_ROWS):
            hi = min(lo + CHUNK_ROWS, len(records))
            cells = np.empty((hi - lo, 4), dtype=object)
            cells[:, 0] = user_cells[records.user[lo:hi]]
            cells[:, 1] = loc_cells[records.loc[lo:hi]]
            cells[:, 2] = records.start[lo:hi].astype(np.int64).tolist()
            cells[:, 3] = records.end[lo:hi].astype(np.int64).tolist()
            fh.write("%s,%s,%d,%d\n" * (hi - lo) % tuple(cells.ravel().tolist()))


def write_truth_csv(path: str, truth: dict[str, int]) -> None:
    _write_csv(path, ["user", "group"], ([user, truth[user]] for user in sorted(truth)))


def load_truth_csv(path: str) -> dict[str, int]:
    return read_table(path, ("user", "group"), "user", ints=True)


def write_matrix_index(out_dir: str, table: PopulationTable, config: TraceConfig, options: dict) -> None:
    """index.json: the table's sorted users, its matrices' shape, their shared
    location index, and as its config the trace config and the run's
    analysis options.  The rows are not stored: build_matrices rebuilds them
    from the trace, config and locmap that manifest.json digests."""
    os.makedirs(out_dir, exist_ok=True)
    _, t, n = table.rows.shape
    index = {
        "users": list(table.users),
        "t": t,
        "n": n,
        "location_index": list(table.location_index),
        "config": {**dataclasses.asdict(config), **options},
    }
    write_json(os.path.join(out_dir, "index.json"), index)


def load_trace_end(path: str) -> float:
    """The trace_end of the config that write_matrix_index stored in the
    index.json at path."""
    return read_json(path, "matrices index", lambda raw: json_number(raw["config"], "trace_end"))


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_eigen_sets(
    path: str, eigen_sets: dict[str, EigenBehaviorSet | None], location_index: Sequence[str]
) -> None:
    """One weight,vector row per kept eigen-behavior, led by its user's cell,
    users in sorted order; users without a set are left out.  One user's
    block is formatted at a time, with the cell (its ``%`` escaped) embedded
    in the row template."""
    users = [user for user in sorted(eigen_sets) if eigen_sets[user] is not None]
    header = [*EIGEN_LEAD, *location_index]
    row = ",".join(["%.9g"] * (len(header) - 1)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_csv_cells(header)) + "\n")
        for cell, eset in zip(_csv_cells(users), map(eigen_sets.get, users)):
            block = np.column_stack([eset.weights, eset.vectors])
            template = (cell.replace("%", "%%") + "," + row) * len(block)
            fh.write(template % tuple(block.ravel().tolist()))


def load_eigen_sets(path: str) -> dict[str, EigenBehaviorSet]:
    """Each user's set from its run of consecutive rows in an eigen.csv."""
    rows = read_csv(path, None)
    _, header = next(rows, (1, []))
    if header[: len(EIGEN_LEAD)] != list(EIGEN_LEAD):
        raise ValueError(f"{path}: bad header {header!r}, expected {','.join(EIGEN_LEAD)} and then the ids")
    labels, numbers = [], []
    for line, row in rows:
        try:
            numbers.append(np.fromiter(map(float, row[1:]), float, len(row) - 1))
        except ValueError as exc:
            raise ValueError(f"{path}: eigen-behavior table holds a non-number at {path}:{line} ({exc})") from None
        labels.append((line, row[0]))
    values = np.array(numbers).reshape(len(numbers), len(header) - 1)
    sets: dict[str, EigenBehaviorSet] = {}
    starts = [i for i in range(len(labels)) if i == 0 or labels[i][1] != labels[i - 1][1]]
    for lo, hi in zip(starts, starts[1:] + [len(labels)]):
        (line, user), block = labels[lo], values[lo:hi]
        if user in sets:
            raise ValueError(f"{path}:{line}: rows of user {user!r} are not contiguous")
        try:
            sets[user] = EigenBehaviorSet(block[:, 1:], block[:, 0])
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: bad eigen-behavior set of user {user!r} ({exc})") from None
    return sets


def write_distance_matrix(path: str, dm: DistanceMatrix) -> None:
    """The condensed upper triangle (the ``i < j`` pairs, row-major) as one
    float64 .npy array, plus a JSON sidecar with the ids, metric and flagged ids."""
    with open(path, "wb") as fh:
        np.save(fh, dm.values, allow_pickle=False)
    write_json(
        path + ".json",
        {"metric": dm.metric, "ids": list(dm.ids), "flagged_ids": list(dm.flagged_ids)},
    )


def _id_list(raw: dict, key: str) -> tuple[str, ...]:
    """The JSON list of strings at raw[key]."""
    ids = raw[key]
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise TypeError(f"{key} must be a list of strings")
    return tuple(ids)


def _sidecar(raw: dict) -> tuple[tuple[str, ...], str, tuple[str, ...]]:
    """The ids, metric name and flagged ids of a distance matrix sidecar, which
    holds no other key."""
    json_keys(raw, ("ids", "metric", "flagged_ids"))
    ids, metric, flagged_ids = _id_list(raw, "ids"), raw["metric"], _id_list(raw, "flagged_ids")
    if not isinstance(metric, str):
        raise TypeError(f"metric must be a string, got {metric!r}")
    return ids, metric, flagged_ids


def load_distance_matrix(path: str) -> DistanceMatrix:
    """A file of write_distance_matrix, its sidecar's keys and types checked
    here and its ids and triangle by DistanceMatrix."""
    ids, metric, flagged_ids = read_json(path + ".json", "distance matrix sidecar", _sidecar)
    with open(path, "rb") as fh:
        try:
            condensed = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise ValueError(f"{path}: not a .npy array ({exc})") from None
    if not isinstance(condensed, np.ndarray) or condensed.ndim != 1 or condensed.dtype != np.float64:
        raise ValueError(f"{path}: expected a 1-D float64 array")
    try:
        return DistanceMatrix(condensed, metric, ids, flagged_ids)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_partition_csv(path: str, partition: Partition) -> None:
    assignment = partition.assignment
    _write_csv(path, ["element", "cluster"], ([e, assignment[e]] for e in sorted(assignment, key=str)))


def load_partition_csv(path: str) -> Partition:
    assignment = read_table(path, ("element", "cluster"), "element", ints=True)
    if not assignment:
        raise ValueError(f"{path}: empty partition")
    return Partition(assignment=assignment)


def write_merge_history_csv(path: str, partition: Partition) -> None:
    merges = enumerate(partition.merge_history)
    _write_csv(path, ["step", "a", "b", "distance"], ([s, a, b, fmt(d)] for s, (a, b, d) in merges))


def write_summary_table_csv(path: str, table: dict[str, float]) -> None:
    _write_csv(path, ["summary", "mean_significance"], ([name, fmt(table[name])] for name in table))


def _json_float(x: float) -> float:
    """x at fmt's 9 digits as a JSON number; + 0.0 turns -0.0 into 0.0."""
    return float(fmt(x)) + 0.0


def write_report_json(
    path: str,
    profiles: list[GroupProfile],
    location_index: Sequence[str],
    slope: float | None,
    top10_share: float | None,
) -> None:
    clusters = []
    for profile in profiles:
        entry: dict = {"cluster": profile.cluster_id, "size": profile.size}
        if profile.eigen is not None:
            first = profile.eigen.vectors[0]
            order = np.argsort(-np.abs(first), kind="stable")[:TOP_LOCATIONS]
            entry["weights"] = [_json_float(w) for w in profile.eigen.weights]
            entry["top_locations"] = [
                {"location": location_index[i], "entry": _json_float(first[i])} for i in order
            ]
            entry["top_power"] = [_json_float(p) for p in profile.top_power]
        clusters.append(entry)
    write_json(
        path,
        {
            "clusters": clusters,
            "rank_size_slope": None if slope is None else _json_float(slope),
            "top10_share": None if top10_share is None else _json_float(top10_share),
        },
    )


def write_replay_report_json(
    path: str,
    records: int,
    encounters: int,
    messages: Sequence[Message],
    configs: Sequence[SimConfig],
    results: Sequence[SimResult],
) -> None:
    """The counts of a replay: its records and encounters, the messages and
    their targets, and each scheme's transmissions and deliveries."""
    write_json(
        path,
        {
            "records": records,
            "encounters": encounters,
            "messages": len(messages),
            "targets": sum(len(m.targets) for m in messages),
            "schemes": [
                {"scheme": c.scheme, "param": c.param, "transmissions": r.overhead, "delivered": r.delivered}
                for c, r in zip(configs, results, strict=True)
            ],
        },
    )


def write_results_csv(path: str, configs: Sequence[SimConfig], results: Sequence[SimResult]) -> None:
    rows = zip(configs, results, strict=True)
    _write_csv(
        path,
        RESULT_HEADER,
        ([c.scheme, c.param, fmt(r.delivery_ratio), fmt(r.mean_delay), r.overhead] for c, r in rows),
    )


def write_normalized_results_csv(
    path: str, configs: Sequence[SimConfig], ratios: Sequence[tuple[str, float, float, float]]
) -> None:
    """One row per config of profilecast.compare_schemes's ratios to the baseline."""
    rows = zip(configs, ratios, strict=True)
    _write_csv(
        path,
        RESULT_HEADER,
        ([c.scheme, c.param, fmt(d), fmt(delay), fmt(o)] for c, (_, d, delay, o) in rows),
    )


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _manifest_timestamp() -> str:
    """Wall clock, unless SOURCE_DATE_EPOCH pins it for reproducible output."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch:
        return datetime.fromtimestamp(int(epoch), tz=timezone.utc).isoformat()
    return datetime.now(timezone.utc).isoformat()


def write_run_manifest(
    out_dir: str,
    command: str,
    seed: int,
    config_payload: dict | None,
    input_paths: Sequence[str],
) -> None:
    """The single manifest.json every output directory carries."""
    canonical = json.dumps(config_payload or {}, sort_keys=True, separators=(",", ":"))
    manifest = {
        "tool": "eigenbehavior",
        "version": __version__,
        "command": command,
        "seed": seed,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "inputs": {os.path.basename(p): sha256_file(p) for p in input_paths},
        "created_utc": _manifest_timestamp(),
    }
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
