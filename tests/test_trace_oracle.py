"""Property tests: the columnar trace layer against the per-record oracles in
trace_oracle (the loader, aggregation, split and per-user matrix sweep as
they stood before columnar ``Records``).  Matrices must be bit-identical,
not merely close."""

from __future__ import annotations

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trace_oracle as oracle
from eigenbehavior import trace
from eigenbehavior import (
    DAY_SECONDS,
    AssociationRecord,
    Encounters,
    Records,
    TraceConfig,
    aggregate_locations,
    build_matrices,
    load_records,
    split_trace,
)
from eigenbehavior.trace import budget_blocks, merge_intervals

PROPERTY = settings(max_examples=150, deadline=None)

FRACTIONS = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1 / 3, 2 / 7, 0.7])


@st.composite
def record_rows(draw):
    """Sessions of stays near midnight.

    A stay starts where the previous one ended (abutting, at the same or
    another location), a little later (a gap) or a little before it
    (overlapping).  Bounds are integers or carry a fractional part, and the
    rows come in random order.
    """
    users = [f"u{k}" for k in range(draw(st.integers(1, 3)))]
    locations = [f"L{k}" for k in range(draw(st.integers(1, 3)))]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        user = draw(st.sampled_from(users))
        t = draw(st.sampled_from([0, DAY_SECONDS, 2 * DAY_SECONDS]))
        t += draw(st.integers(-400, 700)) + draw(FRACTIONS)
        for _ in range(draw(st.integers(1, 4))):
            end = t + draw(st.integers(1, 300)) + draw(FRACTIONS)
            rows.append(AssociationRecord(user, draw(st.sampled_from(locations)), t, end))
            t = end + draw(st.sampled_from([0, 0, 3.5, -7, -0.5]))
            if t <= rows[-1].start:
                t = end
    return draw(st.permutations(rows))


SCALES = st.sampled_from([0.001, 0.1, 1.0, 10.0])


@st.composite
def disjoint_stays(draw):
    """Non-overlapping stays within seconds of time 0, most of them apart.

    Each stay starts where the last one ended or after a gap, so stays abut
    (at one location or two) or are apart, and never overlap.  Lengths and
    gaps are multiples of 1/997 (no short binary fraction) over four orders
    of magnitude near 0, so a length is not always an exact difference of
    its bounds: both the order of a sum and merging abutting stays first
    change the result.
    """
    users = ["u", "v"][: draw(st.integers(1, 2))]
    locations = ["L0", "L1"][: draw(st.integers(1, 2))]
    t = draw(st.integers(0, 996)) / 997 * 0.01
    rows = []
    for _ in range(draw(st.integers(4, 10))):
        end = t + draw(SCALES) * draw(st.integers(100, 996)) / 997
        user, location = draw(st.sampled_from(users)), draw(st.sampled_from(locations))
        rows.append(AssociationRecord(user, location, t, end))
        t = end
        if draw(st.integers(0, 3)):
            t += draw(SCALES) * draw(st.integers(100, 996)) / 997
    return draw(st.permutations(rows))


@st.composite
def trace_configs(draw):
    window = None
    if draw(st.booleans()):
        w_start = draw(st.integers(0, 600))
        window = (w_start, draw(st.sampled_from([w_start + 1, w_start + 250, 700, DAY_SECONDS])))
    trace_start = draw(st.sampled_from([0, 0.5, 100.25, -300.75, DAY_SECONDS - 0.5]))
    return TraceConfig(
        trace_start,
        trace_start + draw(st.sampled_from([DAY_SECONDS, 2 * DAY_SECONDS + 0.5, 3 * DAY_SECONDS])),
        slot_seconds=draw(st.sampled_from([100, 300, 3600, DAY_SECONDS])),
        window=window,
        normalization=draw(st.sampled_from(["normalized", "absolute"])),
        align_midnight=draw(st.booleans()),
    )


def assert_matches_oracle(rows, config):
    got = build_matrices(Records.from_rows(rows), config)
    want = oracle.build_matrices(rows, config)
    assert list(got) == list(want)
    for user, matrix in want.items():
        assert got[user].location_index == matrix.location_index
        assert np.array_equal(got[user].rows, matrix.rows), user


@given(record_rows(), trace_configs())
@PROPERTY
def test_build_matrices_equals_per_record_oracle(rows, config):
    assert_matches_oracle(rows, config)


@given(disjoint_stays(), st.sampled_from(["normalized", "absolute"]))
@PROPERTY
def test_build_matrices_float_sums_equal_per_record_oracle(rows, normalization):
    """Stays within seconds of 0 in one 100 s slot: disjoint stays, whose
    float sum depends on the order of addition, next to abutting stays at one
    location, which must be merged before they are summed."""
    assert_matches_oracle(rows, TraceConfig(0, 100, slot_seconds=100, normalization=normalization))


def test_pieces_are_summed_in_start_order():
    """Three disjoint stays at one location, given latest first: their float
    sum depends on the order, and the sweep adds them in start order."""
    rows = [
        AssociationRecord("u", "A", 20.0, 22.3),
        AssociationRecord("u", "A", 10.0, 10.2),
        AssociationRecord("u", "A", 0.0, 1 / 3),
    ]
    config = TraceConfig(0, 100, slot_seconds=100, normalization="absolute")
    assert_matches_oracle(rows, config)
    assert build_matrices(rows, config)["u"].rows[0, 0] == 2.833333333333333


def test_abutting_stays_at_one_location_are_merged():
    """[0.1, 0.2) and [0.2, 1.1) at one location count as one stay of
    1.1 - 0.1 = 1.0; the two lengths would add up to 1.0000000000000002."""
    rows = [AssociationRecord("u", "A", 0.1, 0.2), AssociationRecord("u", "A", 0.2, 1.1)]
    config = TraceConfig(0, 100, slot_seconds=100, normalization="absolute")
    assert_matches_oracle(rows, config)
    assert build_matrices(rows, config)["u"].rows[0, 0] == 1.0


def test_overlapping_stays_are_split_by_the_sweep():
    rows = [
        AssociationRecord("u", "A", 0.5, 60.25),
        AssociationRecord("u", "B", 30.0, 90.0),
        AssociationRecord("v", "A", 0, 10),
    ]
    for normalization in ("normalized", "absolute"):
        config = TraceConfig(0, 100, slot_seconds=50, normalization=normalization)
        assert_matches_oracle(rows, config)


def ap_style_rows(seed):
    """Thirty users over a week of access-point stays.

    Each online day is one session of stays at random access points, most of
    them minutes to two hours long, so they cross hour boundaries.  A stay
    follows the last one after a gap, abuts it, or, about a quarter of the
    time, starts before it ends (a client still associated with the last
    access point).  Bounds are integer seconds; rows come in random order.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for user in range(30):
        for day in range(7):
            if rng.random() < 0.3:
                continue
            t = day * DAY_SECONDS + int(rng.integers(6 * 3600, 14 * 3600))
            for _ in range(int(rng.integers(3, 12))):
                end = t + int(rng.integers(60, 2 * 3600))
                rows.append(AssociationRecord(f"u{user:02d}", f"ap{rng.integers(12):02d}", t, end))
                step = rng.random()
                if step < 0.25:
                    t = max(t + 1, end - int(rng.integers(1, 900)))
                elif step < 0.4:
                    t = end
                else:
                    t = end + int(rng.integers(1, 600))
    return [rows[i] for i in rng.permutation(len(rows))]


def test_build_matrices_equals_oracle_on_an_ap_style_trace(monkeypatch):
    """Hourly slots and a daily window over tens of users with overlapping
    stays: many cells, each sweeping stays that overlap or abut.  The users
    are swept in one block, then in blocks of about 100 records (a few users
    each), which must not change a bit."""
    rows = ap_style_rows(seed=11)
    by_user = oracle.records_by_user(sorted(rows, key=lambda r: (r.user_id, r.start)))
    overlapping = sum(
        b.start < a.end for recs in by_user.values() for a, b in zip(recs, recs[1:])
    )
    assert len(by_user) == 30 and overlapping > len(rows) // 5
    assert len(rows) <= trace.BLOCK_RECORDS
    for block_records in (trace.BLOCK_RECORDS, 100):
        monkeypatch.setattr(trace, "BLOCK_RECORDS", block_records)
        for normalization in ("normalized", "absolute"):
            config = TraceConfig(
                0, 7 * DAY_SECONDS, slot_seconds=3600, window=(7 * 3600, 21 * 3600),
                normalization=normalization,
            )
            assert_matches_oracle(rows, config)


BOUNDS = st.integers(0, 24).map(lambda k: k / 4 - 1.5)


@st.composite
def interval_groups(draw):
    """Groups of intervals on a coarse grid, so that runs, nested, abutting
    and duplicate intervals are common; a group, or the whole input, may be
    empty.  Group ids are spread out so that the packing is exercised."""
    groups = {}
    for g in draw(st.lists(st.integers(0, 50), unique=True, max_size=4)):
        pairs = draw(st.lists(st.tuples(BOUNDS, BOUNDS).filter(lambda p: p[0] != p[1]), max_size=8))
        intervals = [(min(p), max(p)) for p in pairs]
        if intervals:
            intervals += draw(st.lists(st.sampled_from(intervals), max_size=3))
        groups[g] = draw(st.permutations(intervals))
    return groups


@given(interval_groups())
@PROPERTY
def test_merge_intervals_equals_per_group_union(groups):
    flat = [(g, s, e) for g, intervals in groups.items() for s, e in intervals]
    group = np.array([g for g, _, _ in flat], dtype=np.intp)
    bounds = np.array([s for _, s, _ in flat] + [e for _, _, e in flat])
    values, rank = np.unique(bounds, return_inverse=True)
    got = merge_intervals(group, rank[: len(flat)], rank[len(flat) :])
    want = [(g, s, e) for g in sorted(groups) for s, e in oracle._union(groups[g])]
    assert list(zip(got[0].tolist(), values[got[1]].tolist(), values[got[2]].tolist())) == want


def test_merge_intervals_hand_case():
    """A run of abutting intervals, a nested one and a duplicate merge into
    one interval; a later disjoint one and another group stay apart."""
    group = np.array([0, 0, 0, 0, 0, 0, 2])
    start = np.array([3, 0, 1, 0, 5, 1, 0])
    end = np.array([4, 1, 3, 1, 6, 2, 1])
    got = merge_intervals(group, start, end)
    assert [x.tolist() for x in got] == [[0, 0, 2], [0, 5, 0], [4, 6, 1]]


@given(
    st.lists(st.one_of(st.integers(0, 3), st.integers(0, 200)), max_size=40),
    st.one_of(st.integers(1, 4), st.integers(1, 500)),
)
@example([], 1)
@example([], 500)
@PROPERTY
def test_budget_blocks_equals_its_unique_formulation(sizes, budget):
    # zero sizes and items larger than the budget make repeated cut points;
    # no items make no range
    sizes = np.array(sizes, dtype=np.intp)
    got = budget_blocks(sizes, budget)
    assert got == oracle.budget_blocks(sizes, budget)
    assert (got == []) == (not sizes.size)


def test_matrix_rows_are_views_of_one_array():
    rows = [AssociationRecord("u", "A", 0, 10), AssociationRecord("v", "B", 5, 20)]
    mats = build_matrices(rows, TraceConfig(0, 100, slot_seconds=50))
    assert mats["u"].rows.base is not None
    assert mats["u"].rows.base is mats["v"].rows.base


@given(record_rows())
@PROPERTY
def test_records_round_trip(rows):
    records = Records.from_rows(rows)
    assert records.rows() == rows
    assert len(records) == len(rows)
    assert records.users == tuple(sorted({r.user_id for r in rows}))
    assert records.locations == tuple(sorted({r.location_id for r in rows}))


# ids whose sorted order differs from any first-seen order, non-ASCII ids, and
# "a" beside "a\x00": numpy's <U dtype strips a trailing NUL, which would
# make those two one id
CODE_NAMES = st.one_of(
    st.sampled_from(["a", "a\x00", "\x00", "b", "B", "10", "9", "é", "e\u0301", "日本"]),
    st.text(max_size=3),
)


@st.composite
def coded_names(draw):
    """Names (repeats allowed) and an index that may leave some of them unused."""
    names = draw(st.lists(CODE_NAMES, max_size=8))
    index = draw(st.lists(st.integers(0, len(names) - 1), max_size=20)) if names else []
    return names, index


@given(coded_names())
@PROPERTY
def test_code_ids_equals_sorted_set_and_dict(case):
    names, index = case
    ids = sorted({names[i] for i in index})
    code = {name: c for c, name in enumerate(ids)}
    got_ids, got_codes = trace.code_ids(names, np.array(index, dtype=np.intp))
    assert got_ids == tuple(ids)
    assert got_codes.dtype == np.intp
    assert got_codes.tolist() == [code[names[i]] for i in index]


def test_code_ids_hand_cases():
    # first-seen order is not sorted order; a repeated name shares one code
    ids, codes = trace.code_ids(["b", "a\x00", "a", "b"], np.array([0, 1, 2, 3, 1]))
    assert ids == ("a", "a\x00", "b") and codes.tolist() == [2, 1, 0, 2, 1]
    # unused names are dropped
    ids, codes = trace.code_ids(["z", "y", "x"], np.array([2, 2]))
    assert ids == ("x",) and codes.tolist() == [0, 0]
    ids, codes = trace.code_ids(["z"], np.array([], dtype=np.intp))
    assert ids == () and codes.tolist() == []


def test_records_validate_columns():
    with pytest.raises(ValueError, match="equal length"):
        Records(("u",), ("A",), [0], [0, 0], [0.0], [1.0])
    with pytest.raises(ValueError, match="end > start"):
        Records(("u",), ("A",), [0], [0], [1.0], [1.0])
    with pytest.raises(ValueError, match="sorted and unique"):
        Records(("v", "u"), ("A",), [0, 1], [0, 0], [0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="must occur"):
        Records(("u", "v"), ("A",), [0], [0], [0.0], [1.0])
    with pytest.raises(ValueError, match="out of range"):
        Records(("u",), ("A",), [1], [0], [0.0], [1.0])
    assert len(Records.from_rows([])) == 0


@pytest.mark.parametrize(
    "start, end",
    [(0.0, math.inf), (-math.inf, 0.0), (0.0, 2.0**53), (-(2.0**53), 0.0), (2.0**53, 2.0**54), (0.0, 1e300)],
)
def test_columns_refuse_bounds_that_are_not_exact_seconds(start, end):
    # the trace writer's int64 cells hold every bound below 2**53 in magnitude exactly
    with pytest.raises(ValueError, match=r"^record bounds must be finite and of magnitude below 2\*\*53$"):
        Records(("u",), ("A",), [0], [0], [start], [end])
    for bound in {start, end} - {0.0}:  # each bound here but 0 is not exact; an encounter has only a start
        with pytest.raises(ValueError, match=r"^encounter bounds must be finite and of magnitude below 2\*\*53$"):
            Encounters(("u", "v"), [0], [1], [bound])


ID_TEXT = st.text(alphabet="ab ,\"'é%", max_size=3)
NUMBER_TEXT = st.one_of(
    st.integers(-50, 400).map(str), st.sampled_from(["x", "1.5", "", " 7", "1_0", "+3"])
)


@st.composite
def trace_files(draw):
    """Trace CSV text: mostly valid rows, some with a wrong field count, a
    non-integer bound, an empty id or end <= start."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(["user", "location", "start", "end"])
    for _ in range(draw(st.integers(0, 12))):
        start = draw(st.integers(-50, 300))
        row = [
            draw(st.one_of(st.sampled_from(["u1", "u2", "x,y"]), ID_TEXT)),
            draw(st.one_of(st.sampled_from(["A", "B"]), ID_TEXT)),
            str(start),
            str(start + draw(st.integers(1, 100))),
        ]
        if draw(st.integers(0, 9)) == 0:
            row[draw(st.integers(2, 3))] = draw(NUMBER_TEXT)
        if draw(st.integers(0, 19)) == 0:
            row = row[: draw(st.sampled_from([3, 5]))] + ["extra"]
        writer.writerow(row)
    return buf.getvalue()


def _outcome(load, path):
    try:
        return "ok", load(path)
    except ValueError as exc:
        return "error", str(exc)


@given(trace_files())
@PROPERTY
def test_load_records_agrees_with_per_row_loader(tmp_path_factory, text):
    path = str(tmp_path_factory.mktemp("trace") / "trace.csv")
    with open(path, "w", newline="") as fh:
        fh.write(text)
    got, want = _outcome(load_records, path), _outcome(oracle.load_records, path)
    if got[0] == "ok" and want[0] == "ok":
        assert got[1].rows() == want[1]
        assert all(type(v) is float for r in got[1].rows() for v in (r.start, r.end))
    else:
        assert got == want


@pytest.mark.parametrize("chunk_rows", [1, 3])
@given(trace_files())
@PROPERTY
def test_load_records_agrees_with_per_row_loader_chunk_by_chunk(tmp_path_factory, chunk_rows, text):
    """The property above, read one and three rows a chunk, so that bad rows
    fall in every chunk of a file and at every place in a chunk."""
    with mock.patch.object(trace, "LOAD_CHUNK_ROWS", chunk_rows):
        test_load_records_agrees_with_per_row_loader.hypothesis.inner_test(tmp_path_factory, text)


@given(record_rows(), st.sampled_from([0.5, 0.3, 1 / 3, 0.9]), st.booleans())
@PROPERTY
def test_split_trace_agrees_with_per_record_split(rows, fraction, with_span):
    span = (-100.5, 3 * DAY_SECONDS + 0.25) if with_span else None
    first, second, mid = split_trace(Records.from_rows(rows), fraction, span)
    want_first, want_second, want_mid = oracle.split_trace(rows, fraction, span)
    assert mid == want_mid
    assert first.rows() == want_first
    assert second.rows() == want_second


LOCATION_MAPS = st.dictionaries(st.sampled_from(["L0", "L1", "L2", "L9"]), st.sampled_from(["B1", "B0"]))


@given(record_rows(), LOCATION_MAPS)
@PROPERTY
def test_aggregate_locations_agrees_with_per_record_rewrite(rows, location_map):
    try:
        want = oracle.aggregate_locations(rows, location_map)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            aggregate_locations(Records.from_rows(rows), location_map)
        assert str(err.value) == str(exc)
        return
    got = aggregate_locations(Records.from_rows(rows), location_map)
    assert got.rows() == want
    assert got.locations == oracle.build_location_index(want)
