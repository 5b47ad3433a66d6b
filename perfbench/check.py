"""Output checks: a compact fingerprint of a run's outputs, invariants that
hold for every seed, and comparison with the recorded reference.

Partitions and merge ids are compared through their digests, so they must be
identical.  Integer fields (overhead, delivered, n_targets, counts) must
match exactly.  Floats are written by the program with 9 significant digits
and must agree within FLOAT_REL_TOL, which leaves room for a changed
summation order but not for a changed result.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import Counter

FLOAT_REL_TOL = 1e-6
FLOAT_ABS_TOL = 1e-9
MERGE_SAMPLES = 24  # merge heights kept in the reference, evenly spaced, last included
MONOTONE_SLACK = 1e-9
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def _rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _sha256(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def read_partition(path: str) -> dict[str, str]:
    rows = _rows(path)
    if rows[0] != ["element", "cluster"]:
        raise ValueError(f"{path}: bad partition header {rows[0]!r}")
    return {element: cluster for element, cluster in rows[1:]}


def read_partition_truth(path: str) -> dict[str, str]:
    rows = _rows(path)
    if rows[0] != ["user", "group"]:
        raise ValueError(f"{path}: bad truth header {rows[0]!r}")
    return {user: group for user, group in rows[1:]}


def pair_jaccard(a: dict, b: dict) -> float:
    """Pair-counting Jaccard index: pairs together in both / pairs together in either."""
    if set(a) != set(b):
        raise ValueError("partitions cover different elements")
    pairs = lambda counts: sum(c * (c - 1) // 2 for c in counts.values())  # noqa: E731
    both = pairs(Counter((a[e], b[e]) for e in a))
    either = pairs(Counter(a.values())) + pairs(Counter(b.values())) - both
    return 1.0 if either == 0 else both / either


def pipeline_fingerprint(out_dir: str, truth_path: str) -> dict:
    partition_path = os.path.join(out_dir, "partition.csv")
    partition = read_partition(partition_path)
    truth = read_partition_truth(truth_path)
    merges = _rows(os.path.join(out_dir, "merges.csv"))[1:]
    heights = [float(row[3]) for row in merges]
    picks = sorted({round(i * (len(heights) - 1) / (MERGE_SAMPLES - 1)) for i in range(MERGE_SAMPLES)})
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    with open(partition_path) as fh:
        partition_sha = _sha256(fh.read().splitlines())
    return {
        "users": len(partition),
        "clusters": len(set(partition.values())),
        "partition_sha256": partition_sha,
        "merges": len(merges),
        "merge_ids_sha256": _sha256(f"{row[1]},{row[2]}" for row in merges),
        "merge_heights": [heights[i] for i in picks] if heights else [],
        "merge_height_sum": math.fsum(heights),
        "merge_heights_monotone": all(
            b >= a - MONOTONE_SLACK for a, b in zip(heights, heights[1:])
        ),
        "cluster_sizes": [c["size"] for c in report["clusters"]],
        "summary": {row[0]: float(row[1]) for row in _rows(os.path.join(out_dir, "summary.csv"))[1:]},
        "jaccard_truth": pair_jaccard(partition, truth),
    }


def _scheme_rows(path: str) -> list[dict]:
    rows = _rows(path)
    if rows[0] != ["scheme", "param", "delivery_ratio", "mean_delay_s", "overhead"]:
        raise ValueError(f"{path}: bad header {rows[0]!r}")
    return [
        {
            "scheme": scheme,
            "param": param,
            "delivery_ratio": float(ratio),
            "mean_delay_s": float(delay),
            "overhead": overhead,
        }
        for scheme, param, ratio, delay, overhead in rows[1:]
    ]


def simulate_fingerprint(out_dir: str, jaccard_truth: float) -> dict:
    results = _scheme_rows(os.path.join(out_dir, "results.csv"))
    for row in results:
        row["overhead"] = int(row["overhead"])
    normalized = _scheme_rows(os.path.join(out_dir, "normalized.csv"))
    for row in normalized:
        row["overhead"] = float(row["overhead"])
    return {"results": results, "normalized": normalized, "jaccard_truth": jaccard_truth}


def invariant_errors(fp: dict, users: int, clusters: int) -> list[str]:
    """Properties every correct run has, whatever the seed."""
    errors = []
    if "results" not in fp:
        if fp["users"] != users:
            errors.append(f"partition covers {fp['users']} users, expected {users}")
        if fp["clusters"] != clusters or len(fp["cluster_sizes"]) != clusters:
            errors.append(f"{fp['clusters']} clusters, expected {clusters}")
        if fp["merges"] != users - clusters:
            errors.append(f"{fp['merges']} merges, expected {users - clusters}")
        if not fp["merge_heights_monotone"]:
            errors.append("merge heights decrease")
        return errors
    schemes = {row["scheme"]: row for row in fp["results"]}
    flood = schemes.get("flooding")
    if flood is None:
        return ["no flooding row in results.csv"]
    for row in fp["results"]:
        if not 0.0 < row["delivery_ratio"] <= flood["delivery_ratio"] + FLOAT_ABS_TOL:
            errors.append(f"{row['scheme']}: delivery ratio {row['delivery_ratio']} outside (0, flooding]")
        if row["overhead"] <= 0:
            errors.append(f"{row['scheme']}: no transmissions")
    if schemes.get("centralized", flood)["overhead"] > flood["overhead"]:
        errors.append("centralized sent more copies than flooding")
    base = fp["normalized"][0]
    if base["scheme"] != "flooding" or (base["delivery_ratio"], base["mean_delay_s"], base["overhead"]) != (1, 1, 1):
        errors.append("normalized flooding row is not 1,1,1")
    return errors


def differences(ref, got, path: str = "") -> list[str]:
    """Where `got` departs from `ref`: exact for str/int/bool, FLOAT_REL_TOL for floats."""
    if isinstance(ref, dict) and isinstance(got, dict):
        if set(ref) != set(got):
            return [f"{path}: keys {sorted(set(ref) ^ set(got))} differ"]
        return [d for key in ref for d in differences(ref[key], got[key], f"{path}.{key}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [d for i, (r, g) in enumerate(zip(ref, got)) for d in differences(r, g, f"{path}[{i}]")]
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, bool) or isinstance(got, bool) or not isinstance(got, (int, float)):
            return [f"{path}: {got!r} != {ref!r}"]
        if math.isclose(ref, got, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
            return []
        return [f"{path}: {got!r} != {ref!r} (rel tol {FLOAT_REL_TOL})"]
    return [] if ref == got and type(ref) is type(got) else [f"{path}: {got!r} != {ref!r}"]


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str, seed: int) -> dict | None:
    try:
        with open(reference_path(workload)) as fh:
            return json.load(fh).get(str(seed))
    except FileNotFoundError:
        return None


def store_reference(workload: str, seed: int, record: dict) -> None:
    path = reference_path(workload)
    try:
        with open(path) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    table[str(seed)] = record
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(dict(sorted(table.items(), key=lambda kv: int(kv[0]))), fh, indent=1, sort_keys=True)
        fh.write("\n")
