"""Shared fixtures: seeded synthetic populations reused across test modules."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from eigenbehavior import (
    AssociationMatrix,
    DistanceMatrix,
    EncounterStream,
    GroupSpec,
    PopulationTable,
    SynthSpec,
    TraceConfig,
    build_matrices,
    generate,
    single_location_modes,
    spec_from_json,
    split_trace,
)
from eigenbehavior.trace import DAY_SECONDS

from cluster_oracle import check_square


def digest_tree(directory, skip=()) -> dict:
    """sha256 of every file under a directory, keyed by relative path; files
    named in skip are left out."""
    out = {}
    for dirpath, _, filenames in os.walk(directory):
        for name in filenames:
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def count_calls(monkeypatch, module, name: str, calls, sizes=None) -> None:
    """Count each call of module.name into calls[name], through every
    eigenbehavior module that binds the function, under whatever name; with
    sizes given, also append the len of each call's first argument to it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        if sizes is not None:
            sizes.append(len(args[0]))
        return original(*args, **kwargs)

    rebind(monkeypatch, original, counted)


def rebind(monkeypatch, original, replacement) -> None:
    """Patch every eigenbehavior module's binding of original, under
    whatever name, to replacement."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "eigenbehavior":
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, replacement)


def benchmark_spec(tmp_path, monkeypatch, n_users: int, seed: int) -> SynthSpec:
    """The benchmark's planted population spec, read as `synth` reads it."""
    loader = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, workloads)
    loader.loader.exec_module(workloads)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(workloads.population_spec(n_users, seed)))
    return spec_from_json(str(path))


def table_of(matrices) -> PopulationTable:
    """A dict of same-shape matrices over one location index, stacked into
    the PopulationTable that build_matrices would give: its users sorted."""
    users = sorted(matrices)
    each = [matrices[user] for user in users]
    index = each[0].location_index if each else ()
    assert all(m.location_index == index for m in each), "one location_index"
    rows = np.stack([m.rows for m in each]) if each else np.zeros((0, 0, 0))
    return PopulationTable(users, index, rows)


def profile_half_config(records) -> dict:
    """A pipeline config that ends at the last whole second at or before the
    trace's split time under split_fraction 0.5, so that simulate accepts the
    profile: it sees nothing of the replay half."""
    return {"trace_start": 0, "trace_end": math.floor(split_trace(records)[2])}


def stream_rows(records) -> list[tuple]:
    """The (a, b, start, end, location) rows of every block of an
    EncounterStream over records, concatenated; their number is the
    stream's len."""
    stream = EncounterStream(records)
    rows = [row for block in stream for row in block.rows()]
    assert len(rows) == len(stream)
    return rows


def checked(square, ids=None) -> DistanceMatrix:
    """A symmetric, zero-diagonal square as a DistanceMatrix of an untagged
    metric, keyed by 0..n-1 unless ids are given."""
    square = check_square(square)
    return DistanceMatrix(upper(square), "custom", range(len(square)) if ids is None else ids)


def upper(square) -> np.ndarray:
    """The condensed triangle of a square array: its i < j entries in
    row-major order, gathered by np.triu_indices."""
    square = np.asarray(square)
    return square[np.triu_indices(len(square), 1)]


def unfold(dm: DistanceMatrix) -> np.ndarray:
    """A fresh n x n array of dm's distances, bit for bit, zero on the
    diagonal: upper's inverse, scattered by np.triu_indices."""
    square = np.zeros((dm.n, dm.n))
    i, j = np.triu_indices(dm.n, 1)
    square[i, j] = square[j, i] = dm.values
    return square


def matrix_from_rows(rows, user_id="u", locations=None) -> AssociationMatrix:
    rows = np.asarray(rows, dtype=float)
    if locations is None:
        locations = tuple(f"L{i:03d}" for i in range(rows.shape[1]))
    return AssociationMatrix(user_id, rows, locations)


def basis_rows(pattern, n):
    """Rows from a pattern like [0, 0, 1, None]: basis vectors, None = offline."""
    rows = []
    for p in pattern:
        row = np.zeros(n)
        if p is not None:
            row[p] = 1.0
        rows.append(row)
    return np.array(rows)


def _mode(n, pairs):
    vec = [0.0] * n
    for loc, w in pairs:
        vec[loc] = w
    return tuple(vec)


MIXED_SEED = 20260817


def mixed_population_spec() -> SynthSpec:
    """200 users over 40 locations: single-, bi-, tri-modal and overlapping-mode groups.

    Every mode weight is a multiple of 1/28800 and every user has at most
    three modes with a dominant first mode.
    """
    n = 40
    groups = [
        GroupSpec(25, single_location_modes(n, [loc]), (1.0,), p_online=0.85)
        for loc in range(4)
    ]
    groups.append(GroupSpec(25, single_location_modes(n, [4, 5]), (0.6, 0.4), p_online=0.85))
    groups.append(GroupSpec(25, single_location_modes(n, [6, 7]), (0.7, 0.3), p_online=0.85))
    groups.append(
        GroupSpec(25, single_location_modes(n, [8, 9, 10]), (0.5, 0.3, 0.2), p_online=0.85)
    )
    groups.append(
        GroupSpec(
            25,
            (
                _mode(n, [(11, 0.7), (12, 0.3)]),
                _mode(n, [(11, 0.4), (12, 0.3), (13, 0.3)]),
            ),
            (0.55, 0.45),
            p_online=0.85,
        )
    )
    return SynthSpec(
        n_locations=n, n_days=60, groups=tuple(groups), seed=MIXED_SEED, noise_epsilon=0.02
    )


@pytest.fixture(scope="session")
def mixed_population():
    spec = mixed_population_spec()
    records, truth = generate(spec)
    config = TraceConfig(0, spec.n_days * DAY_SECONDS)
    return build_matrices(records, config), truth


def planted_five_spec() -> SynthSpec:
    """500 users in 5 groups of 100 with orthogonal dominant modes, noise 0.05."""
    n = 40
    groups = tuple(
        GroupSpec(100, single_location_modes(n, [loc]), (1.0,), p_online=0.8)
        for loc in (0, 8, 16, 24, 32)
    )
    return SynthSpec(n_locations=n, n_days=30, groups=groups, seed=424242, noise_epsilon=0.05)


@pytest.fixture(scope="session")
def planted_five():
    spec = planted_five_spec()
    records, truth = generate(spec)
    config = TraceConfig(0, spec.n_days * DAY_SECONDS)
    return build_matrices(records, config), truth


SIM_GROUP_SIZES = (100, 80, 60, 50, 40, 40, 35, 35, 30, 30)


def sim_trace_spec() -> SynthSpec:
    """500 users, 60 days, 10 groups; each mode spends 10% in a shared common area."""
    n = 40
    common = 39
    groups = tuple(
        GroupSpec(size, (_mode(n, [(gi, 0.9), (common, 0.1)]),), (1.0,), p_online=0.5)
        for gi, size in enumerate(SIM_GROUP_SIZES)
    )
    return SynthSpec(n_locations=n, n_days=60, groups=groups, seed=77001, noise_epsilon=0.05)


OVERLAP_SHARES = (0.3, 0.45, 0.6, 0.75, 0.9)


def sim_overlap_spec() -> SynthSpec:
    """102 users, 20 days, 5 groups whose one mode splits its time between the
    group's own building and one shared building, in the shares of
    OVERLAP_SHARES; two groups' symmetrized similarity grows with both shares,
    so the similarity scheme's thresholds fall between group pairs."""
    n = 10
    shared = 9
    groups = tuple(
        GroupSpec(size, (_mode(n, [(g, 1.0 - w), (shared, w)]),), (1.0,), p_online=0.7)
        for g, (size, w) in enumerate(zip((30, 25, 20, 15, 12), OVERLAP_SHARES))
    )
    return SynthSpec(n_locations=n, n_days=20, groups=groups, seed=1, noise_epsilon=0.05)
