"""Reference implementations of synthetic trace generation, for tests only.

These are ``synth.generate`` and ``persist.write_trace_csv`` as they stood
before the columnar generator: every online day is weighted, apportioned and
laid out as ``AssociationRecord``s inside the per-day loop, and the trace is
written one ``csv.writer`` row at a time.  They are kept verbatim, so the
shipped code is checked against an independent implementation, never
against itself.
"""

from __future__ import annotations

import csv
from typing import Iterable

import numpy as np

from eigenbehavior.synth import (
    ONLINE_SECONDS,
    GroupSpec,
    SynthSpec,
    location_name,
    user_name,
)
from eigenbehavior.trace import DAY_SECONDS, AssociationRecord


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Split `total` whole seconds proportional to weights (largest remainder)."""
    raw = weights * total
    base = np.floor(raw).astype(int)
    leftover = total - int(base.sum())
    if leftover > 0:
        order = np.argsort(-(raw - base), kind="stable")  # ties favor lower index
        base[order[:leftover]] += 1
    return base


def _user_days(
    rng: np.random.Generator, spec: SynthSpec, group: GroupSpec
) -> list[tuple[int, int, np.ndarray]]:
    """(day, start offset, whole-second durations per location) per online day.

    The 8 h block starts at a random offset within the day so co-located users
    overlap partially instead of identically.
    """
    modes = np.array(group.modes)
    probs = np.array(group.mode_probs)
    probs = probs / probs.sum()
    days = []
    for day in range(spec.n_days):
        if rng.random() >= group.p_online:
            continue
        offset = int(rng.integers(0, DAY_SECONDS - ONLINE_SECONDS + 1))
        mode = modes[rng.choice(len(modes), p=probs)]
        if spec.noise_epsilon > 0:
            noisy = mode + rng.uniform(-spec.noise_epsilon, spec.noise_epsilon, spec.n_locations)
            noisy = np.clip(noisy, 0.0, None)
            if noisy.sum() <= 0:
                noisy = mode
            mode = noisy / noisy.sum()
        days.append((day, offset, _apportion(mode, ONLINE_SECONDS)))
    return days


def generate(spec: SynthSpec) -> tuple[list[AssociationRecord], dict[str, int]]:
    """Generate the trace and the user -> group-index ground truth."""
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_users)
    records: list[AssociationRecord] = []
    truth: dict[str, int] = {}
    user_idx = 0
    for group_idx, group in enumerate(spec.groups):
        for _ in range(group.size):
            user = user_name(user_idx)
            truth[user] = group_idx
            rng = np.random.default_rng(seeds[user_idx])
            for day, offset, durations in _user_days(rng, spec, group):
                cursor = day * DAY_SECONDS + offset
                for loc in np.flatnonzero(durations):
                    dur = int(durations[loc])
                    records.append(
                        AssociationRecord(user, location_name(loc), cursor, cursor + dur)
                    )
                    cursor += dur
            user_idx += 1
    return records, truth


def write_trace_csv(path: str, records: Iterable[AssociationRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user", "location", "start", "end"])
        for rec in records:
            writer.writerow([rec.user_id, rec.location_id, int(rec.start), int(rec.end)])

