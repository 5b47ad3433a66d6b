"""Synthetic trace generator: determinism, day structure, and mode statistics."""

from __future__ import annotations

import json
import sys

import numpy as np
import pytest

from eigenbehavior import (
    DAY_SECONDS,
    ONLINE_SECONDS,
    GroupSpec,
    SynthSpec,
    TraceConfig,
    build_matrices,
    generate,
    single_location_modes,
    spec_from_json,
    spec_to_json_dict,
)


def two_group_spec(seed=3, noise=0.0, days=10):
    return SynthSpec(
        n_locations=4,
        n_days=days,
        groups=(
            GroupSpec(3, ((1.0, 0.0, 0.0, 0.0),), (1.0,)),
            GroupSpec(2, ((0.0, 0.75, 0.25, 0.0), (0.0, 0.0, 0.0, 1.0)), (0.6, 0.4)),
        ),
        seed=seed,
        noise_epsilon=noise,
    )


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec(0, ((1.0,),), (1.0,))
    with pytest.raises(ValueError):
        GroupSpec(1, ((0.5, 0.4),), (1.0,))  # weights must sum to 1
    with pytest.raises(ValueError):
        GroupSpec(1, ((1.0,),), (0.5,))  # probs must sum to 1
    with pytest.raises(ValueError):
        GroupSpec(1, ((1.0,), (0.5, 0.5)), (1.0,))  # probs/modes length mismatch
    with pytest.raises(ValueError):
        GroupSpec(1, ((1.0,),), (1.0,), p_online=1.5)
    with pytest.raises(ValueError):
        SynthSpec(n_locations=2, n_days=1, groups=(GroupSpec(1, ((1.0,),), (1.0,)),))
    with pytest.raises(ValueError):
        SynthSpec(n_locations=1, n_days=0, groups=(GroupSpec(1, ((1.0,),), (1.0,)),))
    nan = float("nan")
    with pytest.raises(ValueError, match="mode weights"):
        GroupSpec(1, ((nan, 1.0),), (1.0,))
    with pytest.raises(ValueError, match="mode_probs"):
        GroupSpec(1, ((1.0,), (1.0,)), (nan, 1.0))
    with pytest.raises(ValueError, match="p_online"):
        GroupSpec(1, ((1.0,),), (1.0,), p_online=nan)
    with pytest.raises(ValueError, match="noise_epsilon"):
        SynthSpec(n_locations=1, n_days=1, groups=(GroupSpec(1, ((1.0,),), (1.0,)),), noise_epsilon=nan)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SynthSpec(n_locations=1, n_days=1, groups=(GroupSpec(1, ((1.0,),), (1.0,)),), seed=-1)


@pytest.mark.parametrize("n_locations", [1, 3])
def test_noise_epsilon_is_refused_where_the_noise_would_overflow(n_locations):
    """A noise_epsilon near the largest accepted one generates a trace; 1e308
    and inf, whose noise range 2 eps overflows, are refused."""
    mode = (1.0,) + (0.0,) * (n_locations - 1)
    group = GroupSpec(2, (mode,), (1.0,))
    huge = sys.float_info.max / (n_locations + 3)
    records, _ = generate(SynthSpec(n_locations=n_locations, n_days=3, groups=(group,), noise_epsilon=huge))
    assert len(records) > 0
    for eps in (1e308, float("inf")):
        with pytest.raises(ValueError, match="noise_epsilon is too large"):
            SynthSpec(n_locations=n_locations, n_days=3, groups=(group,), noise_epsilon=eps)


def test_generate_is_deterministic():
    spec = two_group_spec()
    r1, t1 = generate(spec)
    r2, t2 = generate(spec)
    assert r1.rows() == r2.rows()
    assert t1 == t2
    r3, _ = generate(two_group_spec(seed=4))
    assert r1.rows() != r3.rows()


def test_truth_covers_all_users_in_group_order():
    spec = two_group_spec()
    _, truth = generate(spec)
    assert len(truth) == 5
    assert sorted(truth) == sorted({f"u{i:05d}" for i in range(5)})
    assert {truth[f"u{i:05d}"] for i in range(3)} == {0}
    assert {truth[f"u{i:05d}"] for i in range(3, 5)} == {1}


def test_records_are_integer_seconds_within_one_day():
    records, _ = generate(two_group_spec(noise=0.07))
    assert len(records)
    assert np.array_equal(records.start, np.floor(records.start))
    assert np.array_equal(records.end, np.floor(records.end))
    for r in records.rows():
        day = r.start // DAY_SECONDS
        assert r.end <= (day + 1) * DAY_SECONDS
        assert r.end > r.start


def test_online_day_totals_exactly_eight_hours():
    records, _ = generate(two_group_spec(noise=0.05, days=6))
    per_user_day = {}
    for r in records.rows():
        key = (r.user_id, r.start // DAY_SECONDS)
        per_user_day[key] = per_user_day.get(key, 0) + (r.end - r.start)
    assert per_user_day
    assert set(per_user_day.values()) == {ONLINE_SECONDS}


def test_noise_zero_reproduces_mode_weights_exactly():
    spec = two_group_spec(noise=0.0, days=8)
    records, _ = generate(spec)
    config = TraceConfig(*spec.trace_span)
    mats = build_matrices(records, config)
    mode_a = np.array([1.0, 0.0, 0.0, 0.0])
    mode_b1 = np.array([0.0, 0.75, 0.25, 0.0])
    mode_b2 = np.array([0.0, 0.0, 0.0, 1.0])
    for uid, m in mats.items():
        for row in m.rows:
            if row.sum() == 0:
                continue
            dists = [np.abs(row - mode).sum() for mode in (mode_a, mode_b1, mode_b2)]
            assert min(dists) < 1e-9
            if uid < "u00003":
                assert dists[0] < 1e-9


def test_mode_choice_frequencies_match_probs():
    spec = SynthSpec(
        n_locations=2,
        n_days=400,
        groups=(GroupSpec(4, ((1.0, 0.0), (0.0, 1.0)), (0.7, 0.3)),),
        seed=9,
    )
    records, _ = generate(spec)
    mats = build_matrices(records, TraceConfig(*spec.trace_span))
    first = np.concatenate([m.rows[:, 0] for m in mats.values()])
    share = (first == 1.0).mean()
    assert abs(share - 0.7) < 0.05


def test_p_online_controls_day_frequency():
    spec = SynthSpec(
        n_locations=1,
        n_days=300,
        groups=(GroupSpec(5, ((1.0,),), (1.0,), p_online=0.4),),
        seed=21,
    )
    records, _ = generate(spec)
    online_days = {(r.user_id, r.start // DAY_SECONDS) for r in records.rows()}
    share = len(online_days) / (5 * 300)
    assert abs(share - 0.4) < 0.05


def test_day_start_offset_varies_and_fits():
    records, _ = generate(two_group_spec(days=50))
    starts = {}
    for r in records.rows():
        key = (r.user_id, r.start // DAY_SECONDS)
        starts[key] = min(starts.get(key, r.start), r.start)
    offsets = {s % DAY_SECONDS for s in starts.values()}
    assert len(offsets) > 10  # not everyone anchored at the same second
    assert all(0 <= off <= DAY_SECONDS - ONLINE_SECONDS for off in offsets)


def test_spec_json_roundtrip(tmp_path):
    spec = two_group_spec(noise=0.02)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_json_dict(spec)))
    assert spec_from_json(str(path)) == spec
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_locations": 2}))
    with pytest.raises(ValueError, match="malformed synth spec"):
        spec_from_json(str(bad))


def test_single_location_modes_helper():
    modes = single_location_modes(4, [1, 3])
    assert modes == ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0))
