"""Trace model: record parsing, aggregation, and matrix building.

The build_matrix oracle simulates coverage second by second: each in-window
second covered by k locations credits 1/k to each, which must agree with the
production sweep-line within float tolerance.
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
    TraceConfig,
    aggregate_locations,
    build_location_index,
    build_matrices,
    build_matrix,
    load_records,
    online_slot_count,
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
    assert records == [rec("u1", "A", 0, 100), rec("u2", "B", 50, 150)]


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("user,loc,start,end\n", "bad header"),
        ("user,location,start,end\nu1,A,xx,100\n", "not an integer"),
        ("user,location,start,end\nu1,A,5,5\n", "end <= start"),
        ("user,location,start,end\nu1,A,5\n", "expected 4 fields"),
    ],
)
def test_load_records_errors_carry_line_numbers(tmp_path, body, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError) as err:
        load_records(str(path))
    assert fragment in str(err.value)
    if "header" not in fragment:
        assert ":2:" in str(err.value)


def test_aggregate_locations():
    records = [rec("u", "ap1", 0, 10), rec("u", "ap2", 10, 20)]
    out = aggregate_locations(records, {"ap1": "B1", "ap2": "B1"})
    assert [r.location_id for r in out] == ["B1", "B1"]
    assert len(out) == len(records)
    with pytest.raises(ValueError, match="unmapped location: 'ap3'"):
        aggregate_locations([rec("u", "ap3", 0, 5)], {"ap1": "B1"})


def test_build_location_index_lexicographic():
    records = [rec("u", "B", 0, 1), rec("u", "A", 1, 2), rec("v", "C", 0, 1)]
    assert build_location_index(records) == ("A", "B", "C")


# ----------------------------------------------------------- build_matrix ---


def test_single_record_spanning_slots():
    config = TraceConfig(0, 250, slot_seconds=100, normalization="absolute")
    m = build_matrix([rec("u", "A", 0, 250)], config, ["A"])
    assert m.rows.shape == (3, 1)
    np.testing.assert_allclose(m.rows[:, 0], [100.0, 100.0, 50.0])


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
    assert online_slot_count(m) == 0


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


def test_online_slot_count():
    m = matrix_from_rows([[0.5, 0.5], [0.0, 0.0], [1.0, 0.0]])
    assert online_slot_count(m) == 2
