"""Association traces and per-user normalized association matrices.

A trace is a list of (user, location, start, end) association records.
The builder turns one user's records into a t x n matrix whose rows are
time slots (days by default) and whose columns are locations.  Rows of an
online slot sum to 1 in normalized mode; offline slots stay all zero.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

DAY_SECONDS = 86_400

NORMALIZATIONS = ("normalized", "absolute")


@dataclass(frozen=True)
class AssociationRecord:
    """One association interval: user at location over [start, end) epoch seconds."""

    user_id: str
    location_id: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if not self.user_id:
            raise ValueError("record has empty user_id")
        if not self.location_id:
            raise ValueError("record has empty location_id")
        if not self.end > self.start:
            raise ValueError(
                f"record for {self.user_id!r} has end <= start "
                f"({self.end} <= {self.start})"
            )


@dataclass(frozen=True)
class TraceConfig:
    """How a trace horizon is sliced into slots and locations are counted.

    slot_seconds divides [trace_start, trace_end) into ceil(span / slot_seconds)
    slots.  When align_midnight is set, the slot grid is anchored at the last
    grid point at or before trace_start (midnight for day slots) instead of at
    trace_start itself.  window, when given, keeps only the [w_start, w_end)
    seconds-of-day portion of every record.
    """

    trace_start: float
    trace_end: float
    slot_seconds: int = DAY_SECONDS
    window: tuple[int, int] | None = None
    normalization: str = "normalized"
    align_midnight: bool = False

    def __post_init__(self) -> None:
        if self.slot_seconds <= 0:
            raise ValueError("slot_seconds must be positive")
        if not self.trace_end > self.trace_start:
            raise ValueError("trace_end must exceed trace_start")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.window is not None:
            w_start, w_end = self.window
            if not (0 <= w_start < w_end <= DAY_SECONDS):
                raise ValueError(f"window must satisfy 0 <= start < end <= {DAY_SECONDS}")

    @property
    def slot_origin(self) -> float:
        if self.align_midnight:
            return self.trace_start - (self.trace_start % self.slot_seconds)
        return self.trace_start

    @property
    def n_slots(self) -> int:
        return int(math.ceil((self.trace_end - self.slot_origin) / self.slot_seconds))


@dataclass
class AssociationMatrix:
    """Per-user slot-by-location association fractions (or raw seconds)."""

    user_id: str
    rows: np.ndarray
    location_index: tuple[str, ...]

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=float)
        self.location_index = tuple(self.location_index)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.location_index):
            raise ValueError("rows must be 2-D with one column per location")

    @property
    def n_slots(self) -> int:
        return self.rows.shape[0]

    @property
    def n_locations(self) -> int:
        return self.rows.shape[1]


def load_records(path: str) -> list[AssociationRecord]:
    """Read a trace CSV with header user,location,start,end (integer epoch seconds)."""
    records: list[AssociationRecord] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty trace file") from None
        if header != ["user", "location", "start", "end"]:
            raise ValueError(f"{path}: bad header {header!r}, expected user,location,start,end")
        for row in reader:
            line = reader.line_num
            if len(row) != 4:
                raise ValueError(f"{path}:{line}: expected 4 fields, got {len(row)}")
            user, location, start_s, end_s = row
            try:
                start = int(start_s)
            except ValueError:
                raise ValueError(f"{path}:{line}: start is not an integer: {start_s!r}") from None
            try:
                end = int(end_s)
            except ValueError:
                raise ValueError(f"{path}:{line}: end is not an integer: {end_s!r}") from None
            try:
                records.append(AssociationRecord(user, location, start, end))
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from None
    return records


def load_location_map(path: str) -> dict[str, str]:
    """Read an access-point to building map CSV with header ap,building."""
    mapping: dict[str, str] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["ap", "building"]:
            raise ValueError(f"{path}: bad header {header!r}, expected ap,building")
        for row in reader:
            if len(row) != 2:
                raise ValueError(f"{path}:{reader.line_num}: expected 2 fields")
            ap, building = row
            mapping[ap] = building
    return mapping


def aggregate_locations(
    records: Sequence[AssociationRecord], location_map: dict[str, str]
) -> list[AssociationRecord]:
    """Rewrite access-point location ids to their buildings; count is preserved."""
    out = []
    for rec in records:
        try:
            building = location_map[rec.location_id]
        except KeyError:
            raise ValueError(f"unmapped location: {rec.location_id!r}") from None
        out.append(AssociationRecord(rec.user_id, building, rec.start, rec.end))
    return out


def build_location_index(records: Iterable[AssociationRecord]) -> tuple[str, ...]:
    """Lexicographically sorted unique location ids."""
    return tuple(sorted({rec.location_id for rec in records}))


def records_by_user(records: Iterable[AssociationRecord]) -> dict[str, list[AssociationRecord]]:
    out: dict[str, list[AssociationRecord]] = {}
    for rec in records:
        out.setdefault(rec.user_id, []).append(rec)
    return out


def _clip(start: float, end: float, lo: float, hi: float) -> tuple[float, float] | None:
    s, e = max(start, lo), min(end, hi)
    return (s, e) if e > s else None


def _window_pieces(start: float, end: float, window: tuple[int, int]) -> list[tuple[float, float]]:
    """Intersect [start, end) with the daily [w_start, w_end) window of each day it touches."""
    w_start, w_end = window
    pieces = []
    day = math.floor(start / DAY_SECONDS)
    while day * DAY_SECONDS < end:
        piece = _clip(start, end, day * DAY_SECONDS + w_start, day * DAY_SECONDS + w_end)
        if piece is not None:
            pieces.append(piece)
        day += 1
    return pieces


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge possibly overlapping half-open intervals (same user, same location)."""
    merged: list[list[float]] = []
    for s, e in sorted(intervals):
        if merged and s <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], e)
        else:
            merged.append([s, e])
    return [(s, e) for s, e in merged]


def _slot_shares(per_location: dict[int, list[tuple[float, float]]], n_locations: int) -> np.ndarray:
    """Seconds credited per location in one slot.

    Per-location intervals are unioned first, then time covered by k locations
    at once is split evenly, 1/k to each.  The credited total therefore equals
    the union length of the user's intervals in the slot.
    """
    shares = np.zeros(n_locations)
    events: list[tuple[float, int, int]] = []  # (position, +1 start / -1 end, location)
    for loc, intervals in per_location.items():
        for s, e in _union(intervals):
            events.append((s, 1, loc))
            events.append((e, -1, loc))
    if not events:
        return shares
    positions = sorted({pos for pos, _, _ in events})
    starts: dict[float, list[int]] = {}
    ends: dict[float, list[int]] = {}
    for pos, kind, loc in events:
        (starts if kind == 1 else ends).setdefault(pos, []).append(loc)
    active: set[int] = set()
    for i, pos in enumerate(positions[:-1]):
        for loc in ends.get(pos, ()):
            active.discard(loc)
        for loc in starts.get(pos, ()):
            active.add(loc)
        length = positions[i + 1] - pos
        if active and length > 0:
            each = length / len(active)
            for loc in active:
                shares[loc] += each
    return shares


def build_matrix(
    records: Sequence[AssociationRecord],
    config: TraceConfig,
    location_index: Sequence[str],
) -> AssociationMatrix:
    """Build one user's slot-by-location matrix.

    Records are clipped to [trace_start, trace_end) and to the daily window if
    one is configured, split at slot boundaries, unioned per location, and
    cross-location overlap is split evenly.  Normalized mode divides each
    online row by its online seconds so it sums to 1; absolute mode keeps raw
    (overlap-split) seconds.
    """
    if not records:
        raise ValueError("no records given")
    users = {rec.user_id for rec in records}
    if len(users) > 1:
        raise ValueError(f"records span multiple users: {sorted(users)!r}")
    loc_pos = {loc: i for i, loc in enumerate(location_index)}
    if len(loc_pos) != len(location_index):
        raise ValueError("location_index contains duplicates")

    t = config.n_slots
    origin = config.slot_origin
    slot_sec = config.slot_seconds
    # slot -> location -> clipped interval pieces
    per_slot: dict[int, dict[int, list[tuple[float, float]]]] = {}
    for rec in records:
        try:
            col = loc_pos[rec.location_id]
        except KeyError:
            raise ValueError(f"location {rec.location_id!r} not in location_index") from None
        clipped = _clip(rec.start, rec.end, config.trace_start, config.trace_end)
        if clipped is None:
            continue
        pieces = [clipped] if config.window is None else _window_pieces(*clipped, config.window)
        for s, e in pieces:
            first = int((s - origin) // slot_sec)
            last = int(math.ceil((e - origin) / slot_sec)) - 1
            for slot in range(first, last + 1):
                piece = _clip(s, e, origin + slot * slot_sec, origin + (slot + 1) * slot_sec)
                if piece is not None:
                    per_slot.setdefault(slot, {}).setdefault(col, []).append(piece)

    rows = np.zeros((t, len(location_index)))
    for slot, per_location in per_slot.items():
        shares = _slot_shares(per_location, len(location_index))
        total = shares.sum()
        if config.normalization == "normalized" and total > 0:
            shares = shares / total
        rows[slot] = shares
    return AssociationMatrix(next(iter(users)), rows, tuple(location_index))


def build_matrices(
    records: Sequence[AssociationRecord],
    config: TraceConfig,
    location_index: Sequence[str] | None = None,
) -> dict[str, AssociationMatrix]:
    """Build matrices for every user in the trace over a shared location index."""
    index = tuple(location_index) if location_index is not None else build_location_index(records)
    grouped = records_by_user(records)
    return {user: build_matrix(recs, config, index) for user, recs in sorted(grouped.items())}


def online_slot_count(matrix: AssociationMatrix) -> int:
    """Number of slots with any association time."""
    return int(np.count_nonzero(matrix.rows.sum(axis=1) > 0))
