"""Trace model: record parsing, aggregation, and matrix building.

The build_matrix oracle simulates coverage second by second: each in-window
second covered by k locations credits 1/k to each, which must agree with the
vectorized sweep in build_matrices within float tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenbehavior import (
    DAY_SECONDS,
    AssociationRecord,
    Records,
    TraceConfig,
    aggregate_locations,
    build_matrices,
    build_matrix,
    load_location_map,
    load_records,
    trace,
)

from conftest import matrix_from_rows


def rec(user, loc, start, end):
    return AssociationRecord(user, loc, start, end)


def oracle_rows(records, config, index):
    """Per-second brute force: every covered in-window second splits 1/k over k locations."""
    rows = np.zeros((config.n_slots, len(index)))
    pos = {loc: i for i, loc in enumerate(index)}
    lo, hi = int(config.trace_start), int(config.trace_end)
    seconds = sorted(
        {
            s
            for r in records
            for s in range(max(int(r.start), lo), min(int(r.end), hi))
        }
    )
    for sec in seconds:
        if config.window is not None:
            sod = sec % 86400
            if not config.window[0] <= sod < config.window[1]:
                continue
        locs = {
            pos[r.location_id] for r in records if r.start <= sec < r.end
        }
        if not locs:
            continue
        slot = int((sec - config.slot_origin) // config.slot_seconds)
        for loc in locs:
            rows[slot, loc] += 1.0 / len(locs)
    if config.normalization == "normalized":
        totals = rows.sum(axis=1, keepdims=True)
        rows = np.divide(rows, totals, out=np.zeros_like(rows), where=totals > 0)
    return rows


# ---------------------------------------------------------------- records ---


def test_record_validation():
    with pytest.raises(ValueError):
        rec("u", "A", 10, 10)
    with pytest.raises(ValueError):
        rec("u", "A", 10, 5)
    with pytest.raises(ValueError):
        rec("", "A", 0, 1)
    with pytest.raises(ValueError):
        rec("u", "", 0, 1)


def test_load_records_roundtrip(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("user,location,start,end\nu1,A,0,100\nu2,B,50,150\n")
    records = load_records(str(path))
    assert records.rows() == [rec("u1", "A", 0, 100), rec("u2", "B", 50, 150)]


LINE_NUMBER_CASES = [
    ("user,loc,start,end\n", "bad header"),
    ("user,location,start,end\nu1,A,xx,100\n", "not an integer"),
    ("user,location,start,end\nu1,A,5,5\n", "end <= start"),
    ("user,location,start,end\nu1,A,5\n", "expected 4 fields"),
    ("user,location,start,end\n,A,0,5\n", "record has empty user_id"),
]


@pytest.mark.parametrize("body,fragment", LINE_NUMBER_CASES)
def test_load_records_errors_carry_line_numbers(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError) as err:
        load_records(str(path))
    assert fragment in str(err.value)
    if "header" not in fragment:
        assert ":2:" in str(err.value)


INEXACT_BOUNDS = [
    (0, 2**53),
    (-(2**53), 0),
    (0, 2**53 + 1),  # loads as 2**53 + 0 without the check: no float holds it
    (-(2**54), -(2**53)),
    (0, 10**400),  # too large for a float: its conversion overflows
    (-(10**400), 0),
]


@pytest.mark.parametrize(
    "start, end", INEXACT_BOUNDS, ids=["2**53", "-2**53", "2**53+1", "-2**54", "10**400", "-10**400"]
)
def test_load_records_refuses_bounds_that_are_not_exact_floats(tmp_path, start, end):
    path = tmp_path / "big.csv"
    path.write_text(f"user,location,start,end\nu1,A,0,5\nu2,B,{start},{end}\nu3,A,0,5\n")
    with pytest.raises(ValueError) as err:
        load_records(str(path))
    assert str(err.value).startswith(f"{path}:3: start and end must be of magnitude below 2**53")


def test_load_records_takes_bounds_just_below_2_53(tmp_path):
    top = 2**53 - 1
    path = tmp_path / "edge.csv"
    path.write_text(f"user,location,start,end\nu1,A,{-top},{top}\nu1,A,{top - 1},{top}\n")
    records = load_records(str(path))
    assert [(int(r.start), int(r.end)) for r in records.rows()] == [(-top, top), (top - 1, top)]


LINE_BREAKS = [
    (b'user,location,start,end\nu1,A,0,5\n"u\n1",A,0,5\n', r":3: user id 'u\n1' contains"),
    (b'user,location,start,end\nu1,"A\r",0,5\n', r":2: location id 'A\r' contains"),
    (b'user,location,start,end\nu1,A,0,5\nu1,"B\r\n",0,5\n', r":3: location id 'B\r\n' contains"),
]


@pytest.mark.parametrize("body,message", LINE_BREAKS)
def test_load_records_rejects_line_breaks_in_ids(tmp_path, body, message):
    """The line is the one the row starts on, not the last physical line of the row."""
    path = tmp_path / "bad.csv"
    path.write_bytes(body)
    with pytest.raises(ValueError) as err:
        load_records(str(path))
    assert str(err.value) == f"{path}{message} a line break"


@pytest.mark.parametrize("chunk_rows", [1, 3])
def test_load_records_names_the_same_lines_in_chunks_of_one_and_three_rows(tmp_path, monkeypatch, chunk_rows):
    """Every loader case above, read one and three rows a chunk, so that a
    bad row also falls in a chunk after the first and past a chunk's first row."""
    monkeypatch.setattr(trace, "LOAD_CHUNK_ROWS", chunk_rows)
    test_load_records_roundtrip(tmp_path)
    test_load_records_takes_bounds_just_below_2_53(tmp_path)
    for body, fragment in LINE_NUMBER_CASES:
        test_load_records_errors_carry_line_numbers(tmp_path, body, fragment)
    for start, end in INEXACT_BOUNDS:
        test_load_records_refuses_bounds_that_are_not_exact_floats(tmp_path, start, end)
    for body, message in LINE_BREAKS:
        test_load_records_rejects_line_breaks_in_ids(tmp_path, body, message)


# Each a bad row after the good ones, and the message after its path:line.
PAST_THE_FIRST_CHUNK = [
    ("u1,L1,0,x9\n", "end is not an integer: 'x9'"),
    ('"u\n9",L1,0,5\n', r"user id 'u\n9' contains a line break"),
    ("u0,L1,5,5\n", "record for 'u0' has end <= start (5 <= 5)"),  # u0 is first seen on line 2
    ("\n", "expected 4 fields, got 0"),
    ('u1,"L1\nL2",0\n', "expected 4 fields, got 3"),  # the line is the one the row starts on
]


@pytest.mark.parametrize("chunk_rows", [1, 3, None], ids=["rows1", "rows3", "default"])
@pytest.mark.parametrize("bad, message", PAST_THE_FIRST_CHUNK, ids=["int", "id", "order", "blank", "quoted"])
def test_load_records_refuses_the_first_bad_row_past_the_first_chunk(tmp_path, monkeypatch, chunk_rows, bad, message):
    """The bad row is the third of the second chunk (of the fourth with one
    row a chunk), and a later chunk holds another bad row: the first is named."""
    if chunk_rows is not None:
        monkeypatch.setattr(trace, "LOAD_CHUNK_ROWS", chunk_rows)
    n_good = trace.LOAD_CHUNK_ROWS + 2
    good = "".join(f"u{i % 7},L{i % 5},{i},{i + 10}\n" for i in range(n_good))
    later = "".join(f"u{i % 7},L{i % 5},{i},{i + 10}\n" for i in range(trace.LOAD_CHUNK_ROWS)) + "u2,L1,9,1\n"
    path = tmp_path / "bad.csv"
    path.write_bytes(f"user,location,start,end\n{good}{bad}{later}".encode())
    with pytest.raises(ValueError) as err:
        load_records(str(path))
    assert str(err.value) == f"{path}:{n_good + 2}: {message}"


@pytest.mark.parametrize("chunk_rows", [1, 3, None], ids=["rows1", "rows3", "default"])
@pytest.mark.parametrize(
    "rows, message",
    [
        # end > start is decided on the integers: both bounds are the float 2**53
        ([f"u2,B,{2**53},{2**53 + 1}"], ":2: start and end must be of magnitude below 2**53"),
        # a bound that a float holds, however large, is refused only after the pass
        ([f"u2,B,0,{10**20}", "u3,A,5,5"], ":3: record for 'u3' has end <= start (5 <= 5)"),
        # a bound too large for a float is refused at its line
        ([f"u2,B,0,{10**400}", "u3,A,5,5"], ":2: start and end must be of magnitude below 2**53"),
    ],
    ids=["2**53-order", "10**20-then-order", "10**400-then-order"],
)
def test_load_records_keeps_the_order_of_its_refusals(tmp_path, monkeypatch, chunk_rows, rows, message):
    if chunk_rows is not None:
        monkeypatch.setattr(trace, "LOAD_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "order.csv"
    path.write_text("user,location,start,end\n" + "".join(row + "\n" for row in rows))
    with pytest.raises(ValueError) as err:
        load_records(str(path))
    assert str(err.value).startswith(f"{path}{message}")


def test_aggregate_locations():
    records = [rec("u", "ap1", 0, 10), rec("u", "ap2", 10, 20)]
    out = aggregate_locations(Records.from_rows(records), {"ap1": "B1", "ap2": "B1"})
    assert [r.location_id for r in out.rows()] == ["B1", "B1"]
    assert out.locations == ("B1",)
    assert len(out) == len(records)
    with pytest.raises(ValueError, match="unmapped location: 'ap3'"):
        aggregate_locations(Records.from_rows([rec("u", "ap3", 0, 5)]), {"ap1": "B1"})


def test_load_location_map_rejects_duplicate_access_points(tmp_path):
    path = tmp_path / "locmap.csv"
    path.write_text("ap,building\nap1,B1\nap2,B1\nap1,B2\n")
    with pytest.raises(ValueError, match=r"locmap.csv:4: duplicate access point 'ap1'"):
        load_location_map(str(path))
    path.write_text("ap,building\nap1,B1\nap2,B1\n")
    assert load_location_map(str(path)) == {"ap1": "B1", "ap2": "B1"}


@pytest.mark.parametrize(
    "body, message",
    [
        (b'ap,building\nap1,B1\n"a\np",B1\n"a\np",B2\n', ":3: ap id 'a\\np' contains a line break"),
        (b'ap,building\nap1,"B\r\nC"\n', ":2: building id 'B\\r\\nC' contains a line break"),
        (b"ap,building\nap1,B1\n,B1\n", ":3: record has empty ap_id"),
        (b"ap,building\nap1,\n", ":2: record has empty building_id"),
    ],
)
def test_load_location_map_checks_ids_as_the_trace_loader_does(tmp_path, body, message):
    path = tmp_path / "locmap.csv"
    path.write_bytes(body)
    with pytest.raises(ValueError) as err:
        load_location_map(str(path))
    assert str(err.value) == f"{path}{message}"


def test_build_location_index_lexicographic():
    records = [rec("u", "B", 0, 1), rec("u", "A", 1, 2), rec("v", "C", 0, 1)]
    assert Records.from_rows(records).locations == ("A", "B", "C")
    mats = build_matrices(records, TraceConfig(0, 2, slot_seconds=2))
    assert {m.location_index for m in mats.values()} == {("A", "B", "C")}


# ----------------------------------------------------------- build_matrix ---


def test_single_record_spanning_slots():
    config = TraceConfig(0, 250, slot_seconds=100, normalization="absolute")
    m = build_matrix([rec("u", "A", 0, 250)], config, ["A"])
    assert m.rows.shape == (3, 1)
    np.testing.assert_allclose(m.rows[:, 0], [100.0, 100.0, 50.0])
    # a slot longer than any int64 product of slot number and slot length
    whole = build_matrix([rec("u", "A", 0, 250)], TraceConfig(0, 250, 2**63, normalization="absolute"), ["A"])
    np.testing.assert_array_equal(whole.rows, [[250.0]])


def test_cross_location_overlap_split_evenly():
    config = TraceConfig(0, 200, slot_seconds=200, normalization="absolute")
    records = [rec("u", "A", 0, 100), rec("u", "B", 50, 150)]
    m = build_matrix(records, config, ["A", "B"])
    # [0,50) A alone, [50,100) split 25/25, [100,150) B alone
    np.testing.assert_allclose(m.rows[0], [75.0, 75.0])
    normalized = build_matrix(records, TraceConfig(0, 200, slot_seconds=200), ["A", "B"])
    np.testing.assert_allclose(normalized.rows[0], [0.5, 0.5])
    assert m.rows[0].sum() == pytest.approx(150.0)  # union length of the intervals


def test_three_way_overlap():
    config = TraceConfig(0, 90, slot_seconds=90)
    records = [rec("u", loc, 0, 90) for loc in ("A", "B", "C")]
    m = build_matrix(records, config, ["A", "B", "C"])
    np.testing.assert_allclose(m.rows[0], [1 / 3] * 3)


def test_same_location_overlap_unions():
    config = TraceConfig(0, 200, slot_seconds=200, normalization="absolute")
    m = build_matrix([rec("u", "A", 0, 100), rec("u", "A", 50, 150)], config, ["A"])
    assert m.rows[0, 0] == pytest.approx(150.0)


def test_daily_window_clips_records():
    config = TraceConfig(0, 86400, window=(0, 43200), normalization="absolute")
    m = build_matrix([rec("u", "A", 21600, 64800)], config, ["A"])
    assert m.rows[0, 0] == pytest.approx(21600.0)


def test_align_midnight_shifts_slot_grid():
    records = [rec("u", "A", 120000, 140000)]
    plain = TraceConfig(43200, 216000, normalization="absolute")
    m = build_matrix(records, plain, ["A"])
    np.testing.assert_allclose(m.rows[:, 0], [9600.0, 10400.0])
    aligned = TraceConfig(43200, 216000, normalization="absolute", align_midnight=True)
    m2 = build_matrix(records, aligned, ["A"])
    assert aligned.n_slots == 3
    np.testing.assert_allclose(m2.rows[:, 0], [0.0, 20000.0, 0.0])


def test_records_outside_horizon_dropped():
    config = TraceConfig(0, 100, slot_seconds=100)
    m = build_matrix([rec("u", "A", 300, 400)], config, ["A"])
    assert m.rows.sum() == 0.0
    assert not m.online.any()


def test_build_matrix_errors():
    config = TraceConfig(0, 100, slot_seconds=100)
    with pytest.raises(ValueError, match="multiple users"):
        build_matrix([rec("u", "A", 0, 1), rec("v", "A", 1, 2)], config, ["A"])
    with pytest.raises(ValueError, match="not in location_index"):
        build_matrix([rec("u", "B", 0, 1)], config, ["A"])
    with pytest.raises(ValueError, match="no records"):
        build_matrix([], config, ["A"])


def test_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(0, 0)
    with pytest.raises(ValueError):
        TraceConfig(0, 10, slot_seconds=0)
    with pytest.raises(ValueError, match="positive and finite"):
        TraceConfig(0, 10, slot_seconds=float("inf"))
    with pytest.raises(OverflowError):  # read_json names the file for it
        TraceConfig(0, 10, slot_seconds=10**400)
    with pytest.raises(ValueError):
        TraceConfig(0, 10, window=(10, 5))
    with pytest.raises(ValueError):
        TraceConfig(0, 10, normalization="relative")


def test_row_sums_and_shuffle_invariance():
    rng = np.random.default_rng(7)
    locations = ["A", "B", "C", "D"]
    config = TraceConfig(0, 300, slot_seconds=100)
    for _ in range(100):
        records = [
            rec("u", locations[rng.integers(4)], int(s), int(s) + int(rng.integers(1, 120)))
            for s in rng.integers(0, 290, size=rng.integers(1, 8))
        ]
        m = build_matrix(records, config, locations)
        sums = m.rows.sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))
        shuffled = [records[i] for i in rng.permutation(len(records))]
        m2 = build_matrix(shuffled, config, locations)
        np.testing.assert_allclose(m.rows, m2.rows, atol=1e-12)


def test_build_matrix_matches_per_second_oracle():
    rng = np.random.default_rng(11)
    locations = ["A", "B", "C", "D"]
    config = TraceConfig(0, 300, slot_seconds=100, normalization="absolute")
    norm_config = TraceConfig(0, 300, slot_seconds=100)
    for _ in range(150):
        records = [
            rec("u", locations[rng.integers(4)], int(s), int(s) + int(rng.integers(1, 150)))
            for s in rng.integers(-20, 310, size=rng.integers(1, 7))
        ]
        for cfg in (config, norm_config):
            got = build_matrix(records, cfg, locations).rows
            want = oracle_rows(records, cfg, locations)
            np.testing.assert_allclose(got, want, atol=1e-9)


@st.composite
def overlapping_sessions(draw):
    """A two-day config and sessions near midnight and near the daily window."""
    locations = [f"L{k}" for k in range(draw(st.integers(1, 4)))]
    window = None
    if draw(st.booleans()):
        w_start = draw(st.integers(0, 600))
        window = (w_start, draw(st.sampled_from([w_start + 1, w_start + 250, 700, DAY_SECONDS])))
    config = TraceConfig(
        0,
        2 * DAY_SECONDS,
        slot_seconds=draw(st.sampled_from([100, 300, 3600, DAY_SECONDS])),
        window=window,
        normalization=draw(st.sampled_from(["normalized", "absolute"])),
    )
    records = []
    for _ in range(draw(st.integers(1, 8))):
        start = draw(st.sampled_from([0, DAY_SECONDS, 2 * DAY_SECONDS])) + draw(st.integers(-400, 700))
        records.append(rec("u", draw(st.sampled_from(locations)), start, start + draw(st.integers(1, 400))))
    return records, config, locations


@given(overlapping_sessions())
@settings(max_examples=150, deadline=None)
def test_build_matrix_property_matches_per_second_oracle(case):
    records, config, locations = case
    got = build_matrix(records, config, locations).rows
    np.testing.assert_allclose(got, oracle_rows(records, config, locations), atol=1e-9)


def test_window_matches_per_second_oracle():
    rng = np.random.default_rng(13)
    locations = ["A", "B"]
    config = TraceConfig(0, 2 * 86400, window=(3600, 14400), normalization="absolute")
    for _ in range(20):
        records = [
            rec("u", locations[rng.integers(2)], int(s), int(s) + int(rng.integers(600, 40000)))
            for s in rng.integers(0, 2 * 86400 - 40000, size=rng.integers(1, 5))
        ]
        got = build_matrix(records, config, locations).rows
        want = oracle_rows(records, config, locations)
        np.testing.assert_allclose(got, want, atol=1e-9)


def test_total_online_seconds_equals_union_length():
    rng = np.random.default_rng(17)
    locations = ["A", "B", "C"]
    config = TraceConfig(0, 100, slot_seconds=100, normalization="absolute")
    for _ in range(100):
        records = [
            rec("u", locations[rng.integers(3)], int(s), int(s) + int(rng.integers(1, 60)))
            for s in rng.integers(0, 60, size=rng.integers(1, 6))
        ]
        m = build_matrix(records, config, locations)
        covered = set()
        for r in records:
            covered.update(range(int(r.start), min(int(r.end), 100)))
        assert m.rows.sum() == pytest.approx(len(covered), abs=1e-9)


def test_build_matrices_shared_index(tmp_path):
    records = [rec("u1", "B", 0, 50), rec("u2", "A", 0, 80)]
    config = TraceConfig(0, 100, slot_seconds=100)
    mats = build_matrices(records, config)
    assert sorted(mats) == ["u1", "u2"]
    assert mats["u1"].location_index == ("A", "B")
    np.testing.assert_allclose(mats["u1"].rows[0], [0.0, 1.0])
    np.testing.assert_allclose(mats["u2"].rows[0], [1.0, 0.0])


def test_online_marks_the_slots_with_association_time():
    m = matrix_from_rows([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0]])
    assert m.online.tolist() == [True, False, True]
