"""Deterministic on-disk formats for every pipeline artifact.

All floats are written with 9 significant digits and all JSON with sorted
keys, so identical inputs and seeds reproduce byte-identical files.

The array writers (matrices, eigen sets, similarity table, distance matrix
and CDFs) format a whole row, or a chunk of at most ``CHUNK_ROWS`` rows, with
one ``%.9g`` template applied to ``ndarray.tolist()`` and write it with one
call; ``"%.9g" % x`` is byte-identical to ``format(x, ".9g")``.  Only user
ids go through ``csv.writer``, which quotes them as QUOTE_MINIMAL requires.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from datetime import datetime, timezone
from typing import Iterable, Sequence
from urllib.parse import quote

import numpy as np

from . import __version__
from .cluster import Partition
from .distances import DistanceMatrix
from .groups import GroupProfile
from .profilecast import SimConfig, SimResult
from .summaries import EigenBehaviorSet
from .trace import AssociationMatrix, AssociationRecord, TraceConfig


CHUNK_ROWS = 4096


def fmt(x: float) -> str:
    return format(float(x), ".9g")


def _row_template(n_cells: int) -> str:
    """One CSV line of n_cells 9-significant-digit cells."""
    return ",".join(["%.9g"] * n_cells) + "\n"


def _rounded(values: np.ndarray) -> list:
    """float(fmt(x)) for every entry, as nested lists in the shape of values."""
    values = np.asarray(values, dtype=float)
    flat = values.ravel().tolist()
    if not flat:
        return values.tolist()
    text = ",".join(["%.9g"] * len(flat)) % tuple(flat)
    return np.reshape(list(map(float, text.split(","))), values.shape).tolist()


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


def _safe_name(user: str) -> str:
    return quote(user, safe="")


def write_trace_csv(path: str, records: Iterable[AssociationRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user", "location", "start", "end"])
        for rec in records:
            writer.writerow([rec.user_id, rec.location_id, int(rec.start), int(rec.end)])


def write_truth_csv(path: str, truth: dict[str, int]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user", "group"])
        for user in sorted(truth):
            writer.writerow([user, truth[user]])


def load_truth_csv(path: str) -> dict[str, int]:
    out: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["user", "group"]:
            raise ValueError(f"{path}: bad header {header!r}, expected user,group")
        for row in reader:
            out[row[0]] = int(row[1])
    return out


def write_matrices(
    out_dir: str, matrices: dict[str, AssociationMatrix], config: TraceConfig
) -> None:
    """One CSV per user plus an index manifest with the shared location index."""
    os.makedirs(out_dir, exist_ok=True)
    users = sorted(matrices)
    first = matrices[users[0]]
    for user in users:
        rows = np.asarray(matrices[user].rows, dtype=float)
        t, n = rows.shape
        with open(os.path.join(out_dir, f"{_safe_name(user)}.csv"), "w", newline="") as fh:
            fh.write(_row_template(n) * t % tuple(rows.ravel().tolist()))
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


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
            "weights": _rounded(eset.weights),
            "vectors": _rounded(eset.vectors),
            "power_floor": eset.power_floor,
        }
        write_json(os.path.join(out_dir, f"{_safe_name(user)}.json"), payload)


def load_eigen_sets(out_dir: str) -> dict[str, EigenBehaviorSet]:
    out: dict[str, EigenBehaviorSet] = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(out_dir, name)) as fh:
            payload = json.load(fh)
        out[payload["user"]] = EigenBehaviorSet(
            np.array(payload["vectors"]), np.array(payload["weights"]), payload["power_floor"]
        )
    return out


def write_distance_matrix(path: str, dm: DistanceMatrix) -> None:
    """Upper triangle as i,j,distance rows plus a JSON sidecar with ids and params."""
    values = np.asarray(dm.values, dtype=float)
    lines = [f"{j},%.9g\n" for j in range(dm.n)]  # row i's line for j is f"{i}," + lines[j]
    with open(path, "w", newline="") as fh:
        fh.write("i,j,distance\n")
        for i in range(dm.n - 1):
            prefix = f"{i},"
            template = prefix + prefix.join(lines[i + 1 :])
            fh.write(template % tuple(values[i, i + 1 :].tolist()))
    write_json(
        path + ".json",
        {
            "metric": dm.metric,
            "ids": list(dm.ids),
            "flagged_ids": list(dm.flagged_ids),
            "params": dm.params,
        },
    )


def load_distance_matrix(path: str) -> DistanceMatrix:
    with open(path + ".json") as fh:
        sidecar = json.load(fh)
    ids = sidecar["ids"]
    values = np.zeros((len(ids), len(ids)))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["i", "j", "distance"]:
            raise ValueError(f"{path}: bad header {header!r}")
        for row in reader:
            i, j, d = int(row[0]), int(row[1]), float(row[2])
            values[i, j] = values[j, i] = d
    return DistanceMatrix(
        values, sidecar["metric"], ids, tuple(sidecar["flagged_ids"]), sidecar["params"]
    )


def write_partition_csv(path: str, partition: Partition) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["element", "cluster"])
        for element in sorted(partition.assignment, key=str):
            writer.writerow([element, partition.assignment[element]])


def load_partition_csv(path: str) -> Partition:
    assignment: dict[str, int] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["element", "cluster"]:
            raise ValueError(f"{path}: bad header {header!r}, expected element,cluster")
        for row in reader:
            if len(row) != 2:
                raise ValueError(f"{path}:{reader.line_num}: expected 2 fields")
            if row[0] in assignment:
                raise ValueError(f"{path}:{reader.line_num}: duplicate element {row[0]!r}")
            try:
                assignment[row[0]] = int(row[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{reader.line_num}: cluster is not an integer: {row[1]!r}"
                ) from None
    if not assignment:
        raise ValueError(f"{path}: empty partition")
    return Partition(assignment=assignment)


def write_merge_history_csv(path: str, partition: Partition) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "a", "b", "distance"])
        for step, (a, b, dist) in enumerate(partition.merge_history):
            writer.writerow([step, a, b, fmt(dist)])


def write_cdf_csv(path: str, samples: np.ndarray) -> None:
    """Sorted samples with their empirical CDF value."""
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    with open(path, "w", newline="") as fh:
        fh.write("distance,cdf\n")
        for start in range(0, n, CHUNK_ROWS):
            stop = min(start + CHUNK_ROWS, n)
            # (i + 1) / n, correctly rounded as Python's int division is
            cells = np.column_stack((samples[start:stop], np.arange(start + 1, stop + 1) / n))
            fh.write(_row_template(2) * (stop - start) % tuple(cells.ravel().tolist()))


def write_summary_table_csv(path: str, table: dict[str, float]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["summary", "mean_significance"])
        for name in table:
            writer.writerow([name, fmt(table[name])])


def write_sims_csv(path: str, normalized: np.ndarray, ids: Sequence[str]) -> None:
    normalized = np.asarray(normalized, dtype=float)
    template = "%s," + _row_template(normalized.shape[1])
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["user"] + list(ids))
        for i, user in enumerate(_csv_cells(ids)):
            fh.write(template % (user, *normalized[i].tolist()))


def load_sims_csv(path: str) -> tuple[np.ndarray, tuple[str, ...]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[0] != "user":
            raise ValueError(f"{path}: bad similarity table header")
        ids = tuple(header[1:])
        rows = [(reader.line_num, row) for row in reader]
    for line, row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}:{line}: row has {len(row)} cells, expected {len(header)}")
    values = np.array([[float(v) for v in row[1:]] for _, row in rows])
    if values.shape != (len(ids), len(ids)):
        raise ValueError(f"{path}: similarity table is not square")
    for (line, row), expected in zip(rows, ids):
        if row[0] != expected:
            raise ValueError(f"{path}:{line}: row user {row[0]!r} differs from header id {expected!r}")
    return values, ids


def write_report_json(
    path: str,
    profiles: list[GroupProfile],
    location_index: Sequence[str],
    slope: float | None,
    top10_share: float | None,
    top_locations: int = 5,
) -> None:
    clusters = []
    for profile in profiles:
        entry: dict = {"cluster": profile.cluster_id, "size": profile.size}
        if profile.eigen is not None:
            first = profile.eigen.vectors[0]
            order = np.argsort(-np.abs(first), kind="stable")[:top_locations]
            entry["weights"] = [float(fmt(w)) for w in profile.eigen.weights]
            entry["top_locations"] = [
                {"location": location_index[i], "entry": float(fmt(first[i]))} for i in order
            ]
            entry["top_power"] = [float(fmt(p)) for p in profile.top_power]
        clusters.append(entry)
    write_json(
        path,
        {
            "clusters": clusters,
            "rank_size_slope": None if slope is None else float(fmt(slope)),
            "top10_share": None if top10_share is None else float(fmt(top10_share)),
        },
    )


def write_results_csv(path: str, rows: list[tuple[SimConfig, SimResult]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scheme", "param", "delivery_ratio", "mean_delay_s", "overhead"])
        for config, result in rows:
            writer.writerow(
                [
                    config.scheme,
                    config.param,
                    fmt(result.delivery_ratio),
                    fmt(result.mean_delay),
                    result.overhead,
                ]
            )


def write_normalized_results_csv(
    path: str, rows: list[tuple[SimConfig, SimResult]], baseline: SimResult
) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["scheme", "param", "delivery_ratio", "mean_delay_s", "overhead"])
        for config, result in rows:
            writer.writerow(
                [
                    config.scheme,
                    config.param,
                    fmt(result.delivery_ratio / baseline.delivery_ratio),
                    fmt(result.mean_delay / baseline.mean_delay),
                    fmt(result.overhead / baseline.overhead),
                ]
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
