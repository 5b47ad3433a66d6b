"""Association traces and per-user normalized association matrices.

A trace is a set of (user, location, start, end) association records, held
as columns (``Records``: int user and location codes, float start and end,
each finite and below 2**53 in magnitude, so every whole second is exact).
The builder turns every user's records into a t x n matrix whose rows are
time slots (days by default) and whose columns are locations.  Rows of an
online slot sum to 1 in normalized mode; offline slots stay all zero.  It
returns every user's matrix as one ``PopulationTable``: a read-only (users,
slots, locations) array of the sorted users, with its online mask and the
places of its online users, which the later stages read a block or a
gather of users at a time, and which also maps each user to an
``AssociationMatrix`` view of its rows.
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import count, filterfalse, islice
from typing import Callable, Iterable, Iterator, NoReturn, Sequence, TypeVar

import numpy as np

DAY_SECONDS = 86_400

NORMALIZATIONS = ("normalized", "absolute")
# build_matrices sweeps users in blocks of about this many records, so its
# per-piece scratch arrays stay a few MB whatever the trace length.
BLOCK_RECORDS = 1 << 13
# load_records takes its trace rows from csv.reader, and checks them as
# columns, this many at a time; a chunk's rows and columns stay a few
# hundred kB, and 512 rows loaded faster than 256 or 1024.
LOAD_CHUNK_ROWS = 1 << 9

T = TypeVar("T")


class MatricesTooLarge(MemoryError):
    """The (users, slots, locations) association matrices cannot be allocated."""


@dataclass(frozen=True)
class AssociationRecord:
    """One association interval: user at location over [start, end) epoch seconds."""

    user_id: str
    location_id: str
    start: float
    end: float

    def __post_init__(self) -> None:
        _check_id("user", self.user_id)
        _check_id("location", self.location_id)
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
        # math.isfinite raises OverflowError on an int too large for a float
        if not (self.slot_seconds > 0 and math.isfinite(self.slot_seconds)):
            raise ValueError("slot_seconds must be positive and finite")
        if not (math.isfinite(self.trace_start) and math.isfinite(self.trace_end)):
            raise ValueError("trace_start and trace_end must be finite")
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

    @property
    def online(self) -> np.ndarray:
        """Mask of the online slots (see ``online_slots``)."""
        return online_slots(self.rows)


def online_slots(rows: np.ndarray) -> np.ndarray:
    """The online mask of (..., slots, locations) rows: the slots with
    association time, whose row has a positive sum."""
    return rows.sum(axis=-1) > 0


class PopulationTable(Mapping[str, AssociationMatrix]):
    """Every user's slot-by-location matrix, held as one read-only (users,
    slots, locations) array.

    ``rows[i]`` is user ``users[i]``'s matrix over ``location_index``; the
    users are sorted and unique, so every stage reads them in one order.
    ``online[i]``, computed once with the table, marks its online slots: the
    rows with association time, as ``AssociationMatrix.online`` has them;
    ``live`` holds the places of the users with an online slot.  The stages
    read user ranges and gathers of ``rows`` and ``online``; as a mapping the
    table gives each user an ``AssociationMatrix`` view of its rows.
    """

    def __init__(self, users: Sequence[str], location_index: Sequence[str], rows: np.ndarray) -> None:
        self.users = tuple(users)
        self.location_index = tuple(location_index)
        self.rows = np.asarray(rows, dtype=float).view()
        if self.rows.ndim != 3 or self.rows.shape[::2] != (len(self.users), len(self.location_index)):
            raise ValueError("rows must be (users, slots, locations) over the users and location_index")
        late = next((b for a, b in zip(self.users, self.users[1:]) if not a < b), None)
        if late is not None:
            raise ValueError(f"the table's users must be sorted and unique: {late!r} is out of order or repeated")
        self._place = {user: i for i, user in enumerate(self.users)}
        self.rows.flags.writeable = False
        self.online = online_slots(self.rows)
        self.online.flags.writeable = False
        self.live = np.flatnonzero(self.online.any(axis=1))
        self.live.flags.writeable = False

    def __getitem__(self, user: str) -> AssociationMatrix:
        return AssociationMatrix(user, self.rows[self._place[user]], self.location_index)

    def __iter__(self) -> Iterator[str]:
        return iter(self.users)

    def __len__(self) -> int:
        return len(self.users)

    @property
    def online_users(self) -> tuple[str, ...]:
        """The users with an online slot, in table order."""
        return tuple(map(self.users.__getitem__, self.live.tolist()))

    def places(self, users: Iterable[str]) -> np.ndarray:
        """Each of the users' row in the table."""
        return np.array([self._place[user] for user in users], dtype=np.intp)


@dataclass(frozen=True, eq=False)
class Records:
    """Association records as parallel columns.

    Record i: users[user[i]] at locations[loc[i]] over [start[i], end[i]).
    ``users`` and ``locations`` are sorted and hold exactly the ids that occur
    in some record, so the codes order like the ids.  Rows keep the trace
    order, which every transformation preserves.
    """

    users: tuple[str, ...]
    locations: tuple[str, ...]
    user: np.ndarray
    loc: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def __post_init__(self) -> None:
        set_columns(self, "record", user=np.intp, loc=np.intp, start=float, end=float)
        if not np.all(self.end > self.start):
            raise ValueError("record must have end > start")
        for kind, ids, codes in (("user", self.users, self.user), ("location", self.locations, self.loc)):
            for value in ids:
                _check_id(kind, value)
            if list(ids) != sorted(set(ids)):
                raise ValueError("record ids must be sorted and unique")
            if len(codes) and (codes.min() < 0 or codes.max() >= len(ids)):
                raise ValueError("record code out of range")
            if not np.bincount(codes, minlength=len(ids)).all():
                raise ValueError("every record id must occur in some record")

    def __len__(self) -> int:
        return len(self.user)

    @classmethod
    def from_rows(cls, rows: Iterable[AssociationRecord]) -> Records:
        """Columns from association records, in the given order."""
        rows = list(rows)
        each = np.arange(len(rows))
        users, user = code_ids([r.user_id for r in rows], each)
        locations, loc = code_ids([r.location_id for r in rows], each)
        return cls(users, locations, user, loc, [r.start for r in rows], [r.end for r in rows])

    def rows(self) -> list[AssociationRecord]:
        users, locations = self.users, self.locations
        return [
            AssociationRecord(users[u], locations[loc], start, end)
            for u, loc, start, end in zip(
                self.user.tolist(), self.loc.tolist(), self.start.tolist(), self.end.tolist()
            )
        ]

    def select(self, keep: np.ndarray, start: np.ndarray, end: np.ndarray) -> Records:
        """The records where ``keep`` holds, with bounds taken from the
        full-length ``start``/``end``; ids left without a record are dropped."""
        users, user = code_ids(self.users, self.user[keep])
        locations, loc = code_ids(self.locations, self.loc[keep])
        return Records(users, locations, user, loc, start[keep], end[keep])


def set_columns(table: object, what: str, **dtypes: type) -> None:
    """Make each named field of the frozen dataclass ``table`` an array of its
    dtype, and check that they are 1-d and of equal length and that every
    float column is ``_exact``; ``what`` names a row in the errors."""
    for name, dtype in dtypes.items():
        object.__setattr__(table, name, np.asarray(getattr(table, name), dtype=dtype))
    columns = [getattr(table, name) for name in dtypes]
    if len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
        raise ValueError(f"{what} columns must be 1-d and of equal length")
    if not all(_exact(c).all() for c in columns if c.dtype == float):
        raise ValueError(f"{what} bounds must be finite and of magnitude below 2**53")


def _exact(seconds: np.ndarray) -> np.ndarray:
    """Where a float bound is finite and of magnitude below 2**53, so that
    every integer up to it is a float and the trace writer's int64 cells
    hold it; NaN is not exact.  Two comparisons make no float temporary."""
    return (seconds < 2.0**53) & (seconds > -(2.0**53))


def code_ids(names: Sequence[str], index: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct names that ``index`` uses, sorted as strings, and each
    index entry's code among them, so that the codes order like the ids.

    ``names`` may repeat a name, whose entries then share one code, and may
    hold names that no entry uses, which are dropped.  One ``np.bincount``
    over ``index`` finds the used names; only those are sorted.
    """
    index = np.asarray(index, dtype=np.intp)
    used = np.flatnonzero(np.bincount(index, minlength=len(names))).tolist()
    ids = sorted({names[i] for i in used})
    code = {name: c for c, name in enumerate(ids)}
    rank = np.zeros(len(names), np.intp)
    rank[used] = [code[names[i]] for i in used]
    return tuple(ids), rank[index]


def as_records(records: Records | Iterable[AssociationRecord]) -> Records:
    """``records`` if already columnar, else the record sequence converted once."""
    return records if isinstance(records, Records) else Records.from_rows(records)


def _check_id(kind: str, value: str, where: str = "") -> None:
    """Refuse an empty id and one holding a line break, which the CSV writers
    downstream would not quote; ``where``, when given, is the path and line
    it is on."""
    place = f"{where}: " if where else ""
    if not value:
        raise ValueError(f"{place}record has empty {kind}_id")
    if "\r" in value or "\n" in value:
        raise ValueError(f"{place}{kind} id {value!r} contains a line break")


@contextmanager
def _csv_reader(
    path: str, header: Sequence[str] | None
) -> Iterator[tuple[list[str] | None, Iterator[list[str]]]]:
    """The first row of a CSV file (None if it is empty) and a csv.reader
    past it, once the first row equals ``header``; with ``header`` None any
    first row does.  A csv.Error or UnicodeDecodeError raised while the file
    is open becomes a ValueError that names the path."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if header is not None and first != list(header):
                raise ValueError(f"{path}: bad header {first!r}, expected {','.join(header)}")
            yield first, reader
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def read_csv(path: str, header: Sequence[str] | None) -> Iterator[tuple[int, list[str]]]:
    """(line, row) for each row of a CSV file after a header row equal to
    ``header``; with ``header`` None, the header row comes first, as line 1.
    Every row has as many cells as the header.  line is the line the row
    starts on: a quoted cell holding a line break makes a row span lines."""
    with _csv_reader(path, header) as (first, reader):
        if header is None and first is not None:
            yield 1, first
        width = len(first or ())
        line = reader.line_num + 1
        for row in reader:
            if len(row) != width:
                raise ValueError(f"{path}:{line}: expected {width} fields, got {len(row)}")
            yield line, row
            line = reader.line_num + 1


def read_json(path: str, what: str, parse: Callable[[dict], T]) -> T:
    """``parse`` of the JSON object in a file.  Invalid JSON, any other
    top-level value, and a KeyError, TypeError, ValueError or OverflowError
    from ``parse`` raise a ValueError that names the path."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    try:
        return parse(raw)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed {what} ({exc})") from None


def json_keys(payload: dict, keys: Sequence[str], where: str = "") -> dict:
    """payload, refused unless it is a JSON object whose keys are all among
    keys, so that a misspelt key fails instead of reading as absent; where
    names a nested object in the message."""
    place = f" in {where}" if where else ""
    if not isinstance(payload, dict):
        raise TypeError(f"expected an object{place}, got {payload!r}")
    unknown = sorted(set(payload).difference(keys))
    if unknown:
        raise ValueError(f"unknown key {', '.join(map(repr, unknown))}{place}; the keys are {sorted(keys)}")
    return payload


def json_int(payload: dict, key: str, default: int | None = None) -> int:
    """The JSON integer at payload[key], or default when the key is absent (it
    is required when default is None).  Floats and true/false are refused."""
    value = payload[key] if default is None else payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def json_number(payload: dict, key: str, default: float | None = None) -> float:
    """The JSON number at payload[key] as a float, or default when the key is
    absent (it is required when default is None).  Strings, null and
    true/false are refused."""
    value = payload[key] if default is None else payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def _int_cell(text: str, name: str, where: str) -> int:
    """The integer in a CSV cell; ``where`` is the path and line it is on."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{where}: {name} is not an integer: {text!r}") from None


def read_table(path: str, header: tuple[str, str], key: str, ints: bool) -> dict:
    """A two-column CSV file as a dict from each row's first cell, an id that
    must pass ``_check_id`` and may occur once, to its second: an int with
    ``ints`` set, else another id.  A row's second cell is checked first."""
    table: dict = {}
    for line, (name, value) in read_csv(path, header):
        where = f"{path}:{line}"
        if ints:
            value = _int_cell(value, header[1], where)
        else:
            _check_id(header[1], value, where)
        _check_id(header[0], name, where)
        if name in table:
            raise ValueError(f"{where}: duplicate {key} {name!r}")
        table[name] = value
    return table


def load_records(path: str) -> Records:
    """Read a trace CSV with header user,location,start,end (integer epoch
    seconds of magnitude below 2**53, so that each is exactly a float).

    One csv.reader hands over the rows ``LOAD_CHUNK_ROWS`` at a time, and
    ``_append_chunk`` appends each chunk as columns, checking only what the
    columns need: four cells and integer bounds that convert to floats.
    ``Records`` then applies the id, end > start and 2**53 rules once, to the
    whole columns.  When a chunk fails, its reading fails or ``Records``
    refuses the columns, ``_refuse_rows`` reads the file again from its
    first row and names the first bad row's line, as a check row by row
    would.  A bound of 2**53 or more in magnitude becomes a float of at
    least that magnitude, which ``Records`` refuses; a bound too large for a
    float is a chunk's failed check.
    """
    header = ("user", "location", "start", "end")
    codes: tuple[dict[str, int], dict[str, int]] = ({}, {})
    columns = array("q"), array("q"), array("d"), array("d")
    with _csv_reader(path, header) as (_, reader):
        for done in count(0, LOAD_CHUNK_ROWS):
            try:
                chunk = list(islice(reader, LOAD_CHUNK_ROWS))
            except (csv.Error, UnicodeDecodeError):
                _refuse_rows(path, header, done + LOAD_CHUNK_ROWS)
            if not chunk:
                break
            if not _append_chunk(chunk, codes, columns):
                _refuse_rows(path, header, done + LOAD_CHUNK_ROWS)
    user_col, loc_col, start_col, end_col = columns
    users, user = code_ids(list(codes[0]), user_col)
    locations, loc = code_ids(list(codes[1]), loc_col)
    try:
        return Records(users, locations, user, loc, np.frombuffer(start_col), np.frombuffer(end_col))
    except ValueError:
        _refuse_rows(path, header, None)


def _append_chunk(
    rows: list[list[str]], codes: tuple[dict[str, int], dict[str, int]], columns: tuple[array, ...]
) -> bool:
    """Append a chunk of trace rows to the (user, loc, start, end) columns
    and return True if every row has four cells and integer bounds that
    convert to floats; each user and location id not yet in ``codes`` gets
    the next code.  Return False when a check fails; the codes and columns
    are then of no further use."""
    if set(map(len, rows)) != {4}:
        return False
    users, locations, start_s, end_s = zip(*rows)
    try:
        columns[2].fromlist(list(map(int, start_s)))
        columns[3].fromlist(list(map(int, end_s)))
    except (ValueError, OverflowError):  # OverflowError: an int too large for a float
        return False
    for ids, code, column in zip((users, locations), codes, columns):
        fresh = list(filterfalse(code.__contains__, dict.fromkeys(ids)))
        code.update(zip(fresh, count(len(code))))
        column.fromlist(list(map(code.__getitem__, ids)))
    return True


def _refuse_rows(path: str, header: Sequence[str], stop: int | None) -> NoReturn:
    """Raise the refusal of the first bad row among the first ``stop`` trace
    rows (all of them when None), read again with ``read_csv``, naming its
    line.  Each row is checked in turn: its cell count, then start and end
    as integers, the user id, the location id, end > start, and each bound
    as a float; when no row fails those, the first row with a bound of
    magnitude 2**53 or more is refused."""
    inexact = None
    for line, (user, location, start_s, end_s) in islice(read_csv(path, header), stop):
        where = f"{path}:{line}"
        start, end = _int_cell(start_s, "start", where), _int_cell(end_s, "end", where)
        _check_id("user", user, where)
        _check_id("location", location, where)
        if not end > start:
            raise ValueError(f"{where}: record for {user!r} has end <= start ({end} <= {start})")
        try:
            low, high = float(start), float(end)
        except OverflowError:  # an int too large for a float
            raise _inexact_bound(path, line) from None
        if inexact is None and not -(2.0**53) < low <= high < 2.0**53:  # float() keeps the order of the ints
            inexact = line
    if inexact is not None:
        raise _inexact_bound(path, inexact)
    raise AssertionError(f"{path}: the trace was refused, but none of its rows was")


def _inexact_bound(path: str, line: int) -> ValueError:
    """The refusal of the trace row on a line whose start or end is of
    magnitude 2**53 or more."""
    return ValueError(
        f"{path}:{line}: start and end must be of magnitude below 2**53 = {2**53} seconds, "
        "beyond which float seconds are not exact"
    )


def load_location_map(path: str) -> dict[str, str]:
    """Read an access-point to building map CSV with header ap,building; its
    ids are checked as the trace loader checks a user or location id."""
    return read_table(path, ("ap", "building"), "access point", ints=False)


def aggregate_locations(records: Records, location_map: dict[str, str]) -> Records:
    """Rewrite access-point location ids to their buildings; count is preserved.
    An access point that location_map lacks is refused, the first in trace
    order named."""
    missing = np.array([ap not in location_map for ap in records.locations], dtype=bool)
    if missing.any():
        first = records.loc[np.flatnonzero(missing[records.loc])[0]]
        raise ValueError(f"unmapped location: {records.locations[first]!r}")
    buildings, loc = code_ids([location_map[ap] for ap in records.locations], records.loc)
    return Records(records.users, buildings, records.user, loc, records.start, records.end)


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Item k repeated counts[k] times, and each copy's position 0, 1, ... in its run."""
    item = np.repeat(np.arange(len(counts)), counts)
    return item, np.arange(len(item)) - np.repeat(np.cumsum(counts) - counts, counts)


def _window_pieces(
    user: np.ndarray, col: np.ndarray, s: np.ndarray, e: np.ndarray, window: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Intersect each [s, e) with the daily [w_start, w_end) window of each day
    it touches: days floor(s / DAY_SECONDS) onwards while day * DAY_SECONDS < e.
    A day that starts at or after e gives an empty piece, which is dropped."""
    w_start, w_end = window
    first = np.floor(s / DAY_SECONDS)
    last = np.floor(e / DAY_SECONDS)
    item, k = _runs(np.maximum(last - first + 1, 0).astype(np.intp))
    day = (first[item] + k) * DAY_SECONDS
    ps, pe = np.maximum(s[item], day + w_start), np.minimum(e[item], day + w_end)
    keep = pe > ps
    return user[item][keep], col[item][keep], ps[keep], pe[keep]


def merge_intervals(
    group: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The union of each group's half-open intervals, abutting ones merged too.

    ``group`` holds non-negative ints.  ``start`` and ``end`` are the bounds'
    integer ranks (``np.unique``'s inverse over every bound, say), so that
    (group, rank) packs into one integer that compares group first.  Returns
    (group, start, end) of the merged intervals in (group, start) order: with
    the intervals sorted so, one opens a new merged interval unless it starts
    at or before the running maximum of the ends before it in its group.
    """
    if not len(group):
        return group, start, end
    base = group * (int(end.max()) + 1)
    key = base + start
    order = np.argsort(key, kind="stable")
    reach = np.maximum.accumulate((base + end)[order])
    opens = np.ones(len(key), dtype=bool)
    opens[1:] = key[order[1:]] > reach[:-1]
    heads = order[opens]
    tails = np.append(np.flatnonzero(opens)[1:], len(key)) - 1
    return group[heads], start[heads], reach[tails] - base[heads]


# Every population pass that counts float cells (the onavgs, mode trees,
# significance scores, eigen sets, L1 triangles, AMVD and similarity blocks
# and synth's users) cuts its blocks with budget_blocks from what one item
# holds in cells, so that a block holds about this many: 2 MB of float64.
BLOCK_CELLS = 1 << 18


def budget_blocks(sizes: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Consecutive item ranges [lo, hi) covering every item, cut after the
    first item whose running total of ``sizes`` reaches each multiple of
    ``budget``: a range holds less than ``budget`` plus its last item's size.
    No items give no range."""
    if not len(sizes):
        return []
    ends = np.cumsum(sizes)
    total = int(ends[-1])
    cuts = np.searchsorted(ends, np.arange(budget, total, budget)) + 1
    cuts = cuts[np.diff(cuts, prepend=-1) != 0]  # non-decreasing: drop the repeats
    edges = [0, *cuts[cuts < len(sizes)].tolist(), len(sizes)]
    return list(zip(edges[:-1], edges[1:]))


def build_matrices(records: Records | Iterable[AssociationRecord], config: TraceConfig) -> PopulationTable:
    """Build every user's slot-by-location matrix over the records' own
    locations (``records.locations``, sorted), as one table of the sorted
    users; one user's matrix is ``build_matrices(records, config)[user]``.

    Records are clipped to [trace_start, trace_end) and to the daily window if
    one is configured, and split at slot boundaries.  Within a slot, a user's
    intervals are unioned per location and time covered by k locations at
    once is split evenly.  Normalized mode divides each online row by its
    online seconds so it sums to 1; absolute mode keeps raw (overlap-split)
    seconds.

    Cells are independent per user, so the users are swept in blocks of
    consecutive codes holding about ``BLOCK_RECORDS`` records each (see
    ``_sweep_block``), which bounds the per-piece scratch arrays.
    """
    records = as_records(records)
    shape = (len(records.users), config.n_slots, len(records.locations))
    try:
        rows = np.zeros(shape)
    except (MemoryError, ValueError):  # numpy raises ValueError past its size limits
        raise MatricesTooLarge(
            f"the (users, slots, locations) = {shape} association matrices do not fit in memory"
        ) from None
    per_user = np.bincount(records.user, minlength=len(records.users))
    order = np.argsort(records.user, kind="stable")
    offset = np.concatenate(([0], np.cumsum(per_user)))
    for u0, u1 in budget_blocks(per_user, BLOCK_RECORDS):
        take = order[offset[u0] : offset[u1]]
        _sweep_block(
            records.user[take] - u0,
            records.loc[take],
            records.start[take],
            records.end[take],
            config,
            rows[u0:u1],
        )
    if config.normalization == "normalized":
        totals = rows.sum(axis=2, keepdims=True)
        np.divide(rows, totals, out=rows, where=totals > 0)
    return PopulationTable(records.users, records.locations, rows)


def _sweep_block(
    user: np.ndarray,
    col: np.ndarray,
    s: np.ndarray,
    e: np.ndarray,
    config: TraceConfig,
    rows: np.ndarray,
) -> None:
    """Add the seconds of the records (user, col, s, e) into ``rows``, a
    (users, slots, locations) array indexed by ``user``.

    One vectorized sweep covers every (user, slot) cell: ``merge_intervals``
    unions the pieces per (cell, location), and every span between two
    consecutive distinct bounds of a cell is split over the locations that
    cover it.  ``np.add.at`` adds the shares in position order within each
    cell and location, so the float sums are those of a per-slot sweep that
    adds span by span, whatever other cells the block holds.
    """
    _, t, n = rows.shape
    origin, slot_sec = float(config.slot_origin), float(config.slot_seconds)
    s = np.maximum(s, config.trace_start)
    e = np.minimum(e, config.trace_end)
    keep = e > s
    user, col, s, e = user[keep], col[keep], s[keep], e[keep]
    if config.window is not None:
        user, col, s, e = _window_pieces(user, col, s, e, config.window)
    first = np.floor_divide(s - origin, slot_sec)
    last = np.ceil((e - origin) / slot_sec) - 1
    item, k = _runs(np.maximum(last - first + 1, 0).astype(np.intp))
    slot = (first[item] + k).astype(np.intp)
    ps = np.maximum(s[item], origin + slot * slot_sec)
    pe = np.minimum(e[item], origin + (slot + 1) * slot_sec)
    keep = pe > ps
    user, col, slot, ps, pe = user[item][keep], col[item][keep], slot[keep], ps[keep], pe[keep]

    # Sweep every (user, slot) cell over its per-location unions.  The
    # distinct (cell, bound) pairs are the sweep's points, numbered in order;
    # between a point and the next, each of the k locations whose union
    # covers the span gets (next - pos) / k.  k is 0 after a cell's last
    # point, so a span into the next cell is never credited.
    flat = (user * t + slot) * n + col
    values, rank = np.unique(np.concatenate((ps, pe)), return_inverse=True)
    flat, lo, hi = merge_intervals(flat, rank[: len(ps)], rank[len(ps) :])
    base = flat // n * len(values)
    bounds = np.concatenate((base + lo, base + hi))
    order = np.argsort(bounds, kind="stable")
    fresh = np.ones(len(bounds), dtype=bool)
    fresh[1:] = np.diff(bounds[order]) != 0
    at = values[np.concatenate((lo, hi))[order][fresh]]
    point = np.empty_like(order)
    point[order] = np.cumsum(fresh) - 1
    opened, closed = point[: len(lo)], point[len(lo) :]
    depth = np.cumsum(
        np.bincount(opened, minlength=len(at)) - np.bincount(closed, minlength=len(at))
    )
    share = (at[1:] - at[:-1]) / np.maximum(depth[:-1], 1)
    # A merged interval covers the spans from its opening point up to its
    # closing one.  In (cell, location, start) order, np.add.at credits each
    # cell and location span by span in position order, as the sweep does.
    item, k = _runs(closed - opened)
    np.add.at(rows.reshape(-1), flat[item], share[opened[item] + k])
