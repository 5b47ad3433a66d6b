"""Reference implementations of the trace layer, for tests only.

These are the record functions as they stood before columnar ``Records``:
the loader builds one frozen ``AssociationRecord`` per row,
``aggregate_locations`` and ``split_trace`` rebuild records one at a time,
and ``build_matrix`` sweeps each (user, slot) over per-location unions.  They
are kept verbatim, so the shipped columnar code is checked against an
independent implementation, never against itself.
"""

from __future__ import annotations

import csv
import math
from typing import Iterable, Sequence

import numpy as np

from eigenbehavior.trace import DAY_SECONDS, AssociationMatrix, AssociationRecord, TraceConfig


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


def split_trace(
    records: Sequence[AssociationRecord],
    fraction: float = 0.5,
    span: tuple[float, float] | None = None,
) -> tuple[list[AssociationRecord], list[AssociationRecord], float]:
    """Clip the trace into a profile half and a replay half at a time point.

    Returns (first, second, split_time).  A record straddling the split lands
    in both halves, clipped.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    if not records:
        raise ValueError("cannot split an empty trace")
    if span is None:
        span = (min(r.start for r in records), max(r.end for r in records))
    lo, hi = span
    if not hi > lo:
        raise ValueError("degenerate trace span")
    mid = lo + fraction * (hi - lo)
    first, second = [], []
    for rec in records:
        if rec.start < mid:
            first.append(
                AssociationRecord(rec.user_id, rec.location_id, rec.start, min(rec.end, mid))
            )
        if rec.end > mid:
            second.append(
                AssociationRecord(rec.user_id, rec.location_id, max(rec.start, mid), rec.end)
            )
    return first, second, mid


def budget_blocks(sizes: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """trace.budget_blocks as it stood with ``np.unique`` dropping the
    repeated cut points (a plain ``np.unique`` imports ``numpy.ma``); no
    items give no range."""
    if not len(sizes):
        return []
    ends = np.cumsum(sizes)
    total = int(ends[-1])
    cuts = np.unique(np.searchsorted(ends, np.arange(budget, total, budget)) + 1)
    edges = [0, *cuts[cuts < len(sizes)].tolist(), len(sizes)]
    return list(zip(edges[:-1], edges[1:]))
