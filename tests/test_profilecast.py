"""Group-cast simulator: trace splitting, encounter extraction (vs an
interval-intersection oracle), and hand-traced forwarding scenarios."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import stream_rows, upper
from eigenbehavior import (
    AssociationRecord,
    EigenBehaviorSet,
    EncounterStream,
    Encounters,
    Message,
    Records,
    SimConfig,
    build_messages,
    compare_schemes,
    partition_from_labels,
    sim_triangle,
    simulate,
    split_trace,
)
from eigenbehavior.profilecast import SimResult
from profilecast_oracle import encounters_oracle


def rec(user, loc, start, end):
    return AssociationRecord(user, loc, start, end)


def enc(a, b, start, end, loc="L"):
    return (a, b, start, end, loc)


def msg(source, targets, when=0.0, mid="m0000"):
    return Message(mid, source, frozenset(targets), when)


# -------------------------------------------------------------- split_trace ---


def test_split_trace_clips_straddlers_into_both_halves():
    records = [rec("u", "L", 0, 100), rec("v", "L", 10, 40), rec("w", "L", 60, 90)]
    first, second, mid = split_trace(records)
    assert mid == 50.0
    assert first.rows() == [rec("u", "L", 0, 50), rec("v", "L", 10, 40)]
    assert second.rows() == [rec("u", "L", 50, 100), rec("w", "L", 60, 90)]
    assert (first.users, second.users) == (("u", "v"), ("u", "w"))


def test_split_trace_fraction_and_span():
    records = [rec("u", "L", 0, 100)]
    _, _, mid = split_trace(records, fraction=0.25)
    assert mid == 25.0
    _, _, mid2 = split_trace(records, span=(0, 200))
    assert mid2 == 100.0


def test_split_trace_validation():
    with pytest.raises(ValueError, match="fraction"):
        split_trace([rec("u", "L", 0, 1)], fraction=1.0)
    with pytest.raises(ValueError, match="empty"):
        split_trace([])
    with pytest.raises(ValueError, match="degenerate"):
        split_trace([rec("u", "L", 0, 1)], span=(5, 5))


# ---------------------------------------------------------------- encounters ---


def test_single_encounter_overlap():
    records = [rec("u", "L1", 0, 100), rec("v", "L1", 50, 150)]
    assert stream_rows(Records.from_rows(records)) == [enc("u", "v", 50, 100, "L1")]


def test_adjacent_intervals_merge_into_one_encounter():
    records = [
        rec("u", "L1", 0, 50),
        rec("u", "L1", 50, 100),
        rec("v", "L1", 40, 60),
    ]
    assert stream_rows(Records.from_rows(records)) == [enc("u", "v", 40, 60, "L1")]


def test_different_locations_never_meet():
    records = [rec("u", "L1", 0, 100), rec("v", "L2", 0, 100)]
    assert stream_rows(Records.from_rows(records)) == []


def test_touching_intervals_do_not_meet():
    records = [rec("u", "L1", 0, 50), rec("v", "L1", 50, 100)]
    assert stream_rows(Records.from_rows(records)) == []


def test_three_users_pairwise_sorted_by_start():
    records = [
        rec("u", "L1", 0, 30),
        rec("v", "L1", 10, 40),
        rec("w", "L1", 20, 50),
    ]
    assert stream_rows(Records.from_rows(records)) == [
        enc("u", "v", 10, 30, "L1"),
        enc("u", "w", 20, 30, "L1"),
        enc("v", "w", 20, 40, "L1"),
    ]


def test_encounters_match_intersection_oracle():
    rng = np.random.default_rng(91)
    users = [f"u{i}" for i in range(8)]
    locs = ["L1", "L2"]
    for _ in range(60):
        records = []
        for _ in range(int(rng.integers(5, 25))):
            s = int(rng.integers(0, 180))
            records.append(
                rec(
                    users[rng.integers(len(users))],
                    locs[rng.integers(2)],
                    s,
                    s + int(rng.integers(1, 60)),
                )
            )
        got = stream_rows(Records.from_rows(records))
        want = encounters_oracle(records)
        assert sorted(got) == want
        order = [(start, a, b) for a, b, start, _, _ in got]
        assert order == sorted(order)


def test_encounter_validation():
    with pytest.raises(ValueError, match="a < b"):
        Encounters.from_rows([enc("v", "u", 0, 1)])
    with pytest.raises(ValueError, match="end > start"):
        Encounters.from_rows([enc("u", "v", 5, 5)])


# ------------------------------------------------------------ message build ---


def test_build_messages_sizes_and_sources():
    labels = {}
    for g, size in enumerate([10, 6, 5, 3]):
        for k in range(size):
            labels[f"g{g}u{k:02d}"] = g
    partition = partition_from_labels(labels)
    messages = build_messages(partition, creation_time=123.0, seed=5)
    # groups of 10 and 6 qualify; round(0.2*10)=2 and round(0.2*6)=1 sources
    assert [m.message_id for m in messages] == ["m0000", "m0001", "m0002"]
    assert all(m.creation_time == 123.0 for m in messages)
    by_group = {}
    for m in messages:
        group = m.source[:2]
        by_group[group] = by_group.get(group, 0) + 1
        assert all(t.startswith(group) for t in m.targets)
        assert len(m.targets) == {"g0": 9, "g1": 5}[group]
    assert by_group == {"g0": 2, "g1": 1}
    again = build_messages(partition, creation_time=123.0, seed=5)
    assert [m.source for m in again] == [m.source for m in messages]


def test_build_messages_full_fraction_and_errors():
    partition = partition_from_labels({f"u{i}": 0 for i in range(6)})
    messages = build_messages(partition, 0.0, source_fraction=1.0)
    assert len(messages) == 6
    with pytest.raises(ValueError, match="min_group_size"):
        build_messages(partition, 0.0, min_group_size=7)
    with pytest.raises(ValueError, match="source_fraction"):
        build_messages(partition, 0.0, source_fraction=0.0)
    for size in (1, 0, -3):  # a group of one has no one to send to
        with pytest.raises(ValueError, match="min_group_size must be at least 2"):
            build_messages(partition, 0.0, min_group_size=size)


def test_message_validation():
    with pytest.raises(ValueError, match="own target"):
        msg("a", {"a", "b"})
    with pytest.raises(ValueError, match="at least one"):
        msg("a", set())


def test_sim_config_validation():
    SimConfig("flooding")
    SimConfig("similarity", sim_threshold=0.5)
    SimConfig("rtx", p=0.5, ttl_factor=3)
    with pytest.raises(ValueError, match="unknown scheme"):
        SimConfig("gossip")
    with pytest.raises(ValueError, match="sim_threshold"):
        SimConfig("similarity")
    with pytest.raises(ValueError, match="sim_threshold"):
        SimConfig("similarity", sim_threshold=1.5)
    with pytest.raises(ValueError, match="needs p"):
        SimConfig("rtx", ttl_factor=3)
    with pytest.raises(ValueError, match="ttl_factor"):
        SimConfig("rtx", p=0.5)
    assert SimConfig("similarity", sim_threshold=0.25).param == "0.25"
    assert SimConfig("rtx", p=1.0, ttl_factor=3).param == "p=1,ttl=3"
    assert SimConfig("flooding").param == ""


@pytest.mark.parametrize(
    "scheme, params, unused",
    [
        ("flooding", {"p": 0.3}, "p"),
        ("centralized", {"sim_threshold": 0.5, "ttl_factor": 3}, "sim_threshold, ttl_factor"),
        ("similarity", {"sim_threshold": 0.5, "p": 0.5}, "p"),
        ("rtx", {"sim_threshold": 0.5, "p": 0.5, "ttl_factor": 3}, "sim_threshold"),
    ],
    ids=["flooding", "centralized", "similarity", "rtx"],
)
def test_sim_config_refuses_a_parameter_its_scheme_does_not_use(scheme, params, unused):
    """A parameter the scheme never reads would be dropped from results.csv's
    param column without a word."""
    with pytest.raises(ValueError, match=f"^the {scheme} scheme does not use {unused}$"):
        SimConfig(scheme, **params)


# ------------------------------------------------------- forwarding schemes ---


def test_flooding_chain_delivery_and_delay():
    message = msg("A", {"B", "C", "D"})
    encounters = Encounters.from_rows(
        [
            enc("A", "B", 10, 20),
            enc("B", "C", 30, 40),
            enc("C", "D", 50, 60),
        ]
    )
    out = simulate([message], encounters, SimConfig("flooding"))
    res = out.per_message["m0000"]
    assert res.delivery_ratio == 1.0
    assert res.mean_delay == pytest.approx(30.0)  # receipt at encounter starts
    assert res.overhead == 3
    assert out.leaked == 0
    assert out.aggregate.delivery_ratio == 1.0


def test_messages_ignore_encounters_before_creation():
    message = msg("A", {"B", "C", "D"}, when=25.0)
    encounters = Encounters.from_rows(
        [
            enc("A", "B", 10, 20),  # too early: A had nothing to give yet
            enc("A", "C", 35, 45),
            enc("C", "D", 50, 60),
        ]
    )
    out = simulate([message], encounters, SimConfig("flooding"))
    res = out.per_message["m0000"]
    assert res.delivered == 2  # C and D; B was only met before creation
    assert res.mean_delay == pytest.approx(((35 - 25) + (50 - 25)) / 2)


def test_flooding_relays_through_outsiders():
    message = msg("A", {"B"})
    encounters = Encounters.from_rows([enc("A", "X", 10, 20), enc("B", "X", 30, 40)])
    out = simulate([message], encounters, SimConfig("flooding"))
    assert out.per_message["m0000"].delivery_ratio == 1.0
    assert out.per_message["m0000"].overhead == 2
    assert out.leaked == 1


def test_centralized_never_leaks_but_may_miss():
    message = msg("A", {"B"})
    encounters = Encounters.from_rows([enc("A", "X", 10, 20), enc("B", "X", 30, 40)])
    out = simulate([message], encounters, SimConfig("centralized"))
    res = out.per_message["m0000"]
    assert res.delivery_ratio == 0.0
    assert res.overhead == 0
    assert math.isnan(res.mean_delay)
    assert out.leaked == 0


def test_at_most_one_copy_per_node():
    message = msg("A", {"B"})
    encounters = Encounters.from_rows([enc("A", "B", 10, 20), enc("A", "B", 30, 40)])
    out = simulate([message], encounters, SimConfig("flooding"))
    assert out.per_message["m0000"].overhead == 1
    assert out.per_message["m0000"].mean_delay == pytest.approx(10.0)


def sims_for(ids, pairs):
    """The condensed triangle of ids holding the given pairs' similarities."""
    n = len(ids)
    table = np.eye(n)
    pos = {u: i for i, u in enumerate(ids)}
    for (u, v), s in pairs.items():
        table[pos[u], pos[v]] = s
        table[pos[v], pos[u]] = s
    return upper(table)


def test_similarity_gates_encounters():
    message = msg("A", {"B"})
    ids = ("A", "B", "X")
    sims = sims_for(ids, {("A", "B"): 0.9, ("A", "X"): 0.2, ("B", "X"): 0.2})
    encounters = Encounters.from_rows([enc("A", "X", 10, 20), enc("A", "B", 30, 40)])
    out = simulate(
        [message],
        encounters,
        SimConfig("similarity", sim_threshold=0.5),
        sim_values=sims,
        sim_ids=ids,
    )
    res = out.per_message["m0000"]
    assert res.delivery_ratio == 1.0
    assert res.overhead == 1  # the A-X hop was gated off
    assert out.leaked == 0


def test_similarity_threshold_zero_is_flooding():
    message = msg("A", {"B"})
    ids = ("A", "B", "X")
    sims = sims_for(ids, {("A", "B"): 0.9, ("A", "X"): 0.2, ("B", "X"): 0.2})
    encounters = Encounters.from_rows([enc("A", "X", 10, 20), enc("B", "X", 30, 40)])
    gated = simulate(
        [message],
        encounters,
        SimConfig("similarity", sim_threshold=0.0),
        sim_values=sims,
        sim_ids=ids,
    )
    flooded = simulate([message], encounters, SimConfig("flooding"))
    assert gated.per_message["m0000"] == flooded.per_message["m0000"]
    assert gated.leaked == flooded.leaked == 1


def test_similarity_symmetrizes_directed_table():
    """The gate reads sim_triangle's mean of the two directed normalized
    similarities: B is A's closest user (1.0), but B's raw similarity to C is
    five times that to A (0.2), so the pair scores 0.6."""
    gram = np.array([[1.0, 0.1, 0.05], [0.1, 1.0, 0.5], [0.05, 0.5, 1.0]])
    rows = np.linalg.cholesky(gram)  # raw similarity of users i and j is |gram[i, j]|
    sets = {u: EigenBehaviorSet(row[None], np.ones(1)) for u, row in zip("ABC", rows)}
    sims, ids = sim_triangle(sets)
    assert sims[0] == pytest.approx(0.6)
    message = msg("A", {"B"})
    encounters = Encounters.from_rows([enc("A", "B", 10, 20)])
    # the gate is >=: a threshold equal to the pair's value lets the copy
    # through, the next float above it blocks the copy
    at = float(sims[0])
    passing = simulate([message], encounters, SimConfig("similarity", sim_threshold=at), sims, ids)
    assert passing.per_message["m0000"].delivered == 1
    above = float(np.nextafter(sims[0], 1.0))
    blocked = simulate([message], encounters, SimConfig("similarity", sim_threshold=above), sims, ids)
    assert blocked.per_message["m0000"].delivered == 0


def test_rtx_single_custody_walk():
    message = msg("A", {"B", "C"})
    encounters = Encounters.from_rows(
        [
            enc("A", "B", 10, 20),
            enc("A", "C", 30, 40),  # A no longer holds the message
            enc("B", "C", 50, 60),
        ]
    )
    out = simulate([message], encounters, SimConfig("rtx", p=1.0, ttl_factor=3))
    res = out.per_message["m0000"]
    assert res.delivered == 2
    assert res.overhead == 2
    assert res.mean_delay == pytest.approx((10 + 50) / 2)


def test_rtx_budget_limits_hops():
    message = msg("A", {"B", "C"})
    encounters = Encounters.from_rows([enc("A", "B", 10, 20), enc("B", "C", 50, 60)])
    # budget = round(0.34 * 3) = 1: only the first handover happens
    out = simulate([message], encounters, SimConfig("rtx", p=1.0, ttl_factor=0.34))
    res = out.per_message["m0000"]
    assert res.delivered == 1
    assert res.overhead == 1


def test_rtx_does_not_hand_back():
    message = msg("A", {"B"})
    encounters = Encounters.from_rows([enc("A", "B", 10, 20), enc("A", "B", 30, 40)])
    out = simulate([message], encounters, SimConfig("rtx", p=1.0, ttl_factor=9))
    assert out.per_message["m0000"].overhead == 1  # B already saw it; no bounce


def test_rtx_partial_probability_is_deterministic_by_seed():
    message = msg("A", {"B", "C"})
    encounters = Encounters.from_rows(
        [enc("A", "B", 10, 20), enc("A", "C", 30, 40), enc("B", "C", 50, 60)]
    )
    config = SimConfig("rtx", p=0.5, ttl_factor=3, seed=11)
    first = simulate([message], encounters, config)
    second = simulate([message], encounters, config)
    assert first.per_message == second.per_message
    other = simulate([message], encounters, SimConfig("rtx", p=0.5, ttl_factor=3, seed=12))
    assert isinstance(other.aggregate.overhead, int)  # runs; outcome may differ


def test_simulate_validation():
    with pytest.raises(ValueError, match="no messages"):
        simulate([], Encounters.from_rows([]), SimConfig("flooding"))
    message = msg("A", {"B"})
    with pytest.raises(ValueError, match="needs sim_values"):
        simulate([message], Encounters.from_rows([]), SimConfig("similarity", sim_threshold=0.5))
    with pytest.raises(ValueError, match="without profile similarities"):
        simulate(
            [message],
            Encounters.from_rows([]),
            SimConfig("similarity", sim_threshold=0.5),
            sim_values=np.empty(0),
            sim_ids=("A",),
        )


@pytest.mark.parametrize(
    "sims", [np.ones(2), np.ones(0), np.eye(2), np.ones((1, 1))], ids=["long", "empty", "square", "2-d"]
)
def test_similarity_refuses_a_triangle_that_does_not_fit_its_ids(sims):
    with pytest.raises(ValueError, match="sim_values must be the 1 pair similarities of 2 sim_ids"):
        simulate(
            [msg("A", {"B"})],
            Encounters.from_rows([enc("A", "B", 10, 20)]),
            SimConfig("similarity", sim_threshold=0.5),
            sims,
            ("A", "B"),
        )


def test_similarity_refuses_only_users_that_meet_or_hold_messages():
    """Over a stream the universe is every user of the records, but a user
    without profile similarities is refused only once it meets someone or
    is a message's source or target: C is never near anyone, D meets A."""
    config = SimConfig("similarity", sim_threshold=0.5)
    sims, ids = np.ones(1), ("A", "B")
    quiet = Records.from_rows([rec("A", "L", 0, 20), rec("B", "L", 10, 30), rec("C", "M", 0, 30)])
    outcome = simulate([msg("A", {"B"})], EncounterStream(quiet), config, sims, ids)
    assert outcome.aggregate.delivered == 1
    with pytest.raises(ValueError, match=r"without profile similarities: \['C'\]"):
        simulate([msg("A", {"C"})], EncounterStream(quiet), config, sims, ids)
    met = Records.from_rows(
        [rec("A", "L", 0, 20), rec("B", "L", 10, 30), rec("D", "L", 40, 50), rec("A", "L", 45, 60)]
    )
    with pytest.raises(ValueError, match=r"without profile similarities: \['D'\]"):
        simulate([msg("A", {"B"})], EncounterStream(met), config, sims, ids)


def test_encounter_stream_without_encounters_yields_no_block():
    """Users that never share a location at once, one lone user, or no
    records at all: no encounter, and a walk yields nothing."""
    apart = [rec("A", "L", 0, 10), rec("B", "L", 20, 30), rec("C", "M", 5, 25)]
    for rows in (apart, [rec("A", "L", 0, 10)], []):
        stream = EncounterStream(Records.from_rows(rows))
        assert len(stream) == 0
        assert list(stream) == []


# -------------------------------------------------- scheme interplay (random) ---


def random_scenario(seed):
    rng = np.random.default_rng(seed)
    users = [f"u{i:02d}" for i in range(12)]
    partition = partition_from_labels({u: i // 6 for i, u in enumerate(users)})
    messages = build_messages(partition, creation_time=0.0, seed=seed)
    encounters = []
    for _ in range(80):
        a, b = rng.choice(12, size=2, replace=False)
        a, b = sorted((users[a], users[b]))
        s = float(rng.integers(0, 1000))
        encounters.append(enc(a, b, s, s + float(rng.integers(1, 30))))
    encounters.sort(key=lambda e: (e[2], e[0], e[1]))
    raw = rng.uniform(0, 1, size=(12, 12))
    sims = upper((raw + raw.T) / 2)
    return users, messages, Encounters.from_rows(encounters), sims


def test_flooding_dominates_every_other_scheme():
    for seed in (1, 2, 3):
        users, messages, encounters, sims = random_scenario(seed)
        flood = simulate(messages, encounters, SimConfig("flooding"))
        others = [
            simulate(messages, encounters, SimConfig("centralized")),
            simulate(
                messages,
                encounters,
                SimConfig("similarity", sim_threshold=0.5),
                sim_values=sims,
                sim_ids=users,
            ),
            simulate(messages, encounters, SimConfig("rtx", p=1.0, ttl_factor=3)),
            simulate(messages, encounters, SimConfig("rtx", p=0.6, ttl_factor=3, seed=7)),
        ]
        for out in others:
            assert out.aggregate.delivery_ratio <= flood.aggregate.delivery_ratio
            for mid, res in out.per_message.items():
                assert res.delivered <= flood.per_message[mid].delivered


def test_similarity_overhead_monotone_in_threshold():
    for seed in (4, 5):
        users, messages, encounters, sims = random_scenario(seed)
        prev_overhead = None
        prev_delivered = None
        for threshold in (0.0, 0.3, 0.6, 0.9):
            out = simulate(
                messages,
                encounters,
                SimConfig("similarity", sim_threshold=threshold),
                sim_values=sims,
                sim_ids=users,
            )
            if prev_overhead is not None:
                assert out.aggregate.overhead <= prev_overhead
                assert out.aggregate.delivered <= prev_delivered
            prev_overhead = out.aggregate.overhead
            prev_delivered = out.aggregate.delivered


def test_centralized_never_leaks_property():
    for seed in (6, 7):
        _, messages, encounters, _ = random_scenario(seed)
        out = simulate(messages, encounters, SimConfig("centralized"))
        assert out.leaked == 0


# --------------------------------------------------------------- comparison ---


def test_compare_schemes_ratios():
    results = [
        ("flooding", SimResult(0.9, 100.0, 50, delivered=90, n_targets=100)),
        ("similarity@0.5", SimResult(0.45, 200.0, 10, delivered=45, n_targets=100)),
    ]
    rows = compare_schemes(results)
    assert rows[0] == ("flooding", 1.0, 1.0, 1.0)
    label, delivery_rel, delay_rel, overhead_rel = rows[1]
    assert label == "similarity@0.5"
    assert delivery_rel == pytest.approx(0.5)
    assert delay_rel == pytest.approx(2.0)
    assert overhead_rel == pytest.approx(0.2)


def test_compare_schemes_errors_and_nan_delay():
    with pytest.raises(ValueError, match="baseline"):
        compare_schemes([("similarity", SimResult(1.0, 1.0, 1))])
    with pytest.raises(ValueError, match="delivered nothing"):
        compare_schemes([("flooding", SimResult(0.0, float("nan"), 0))])
    rows = compare_schemes(
        [
            ("flooding", SimResult(1.0, 10.0, 5)),
            ("centralized", SimResult(0.0, float("nan"), 0)),
        ]
    )
    assert math.isnan(rows[1][2])


def test_compare_schemes_gives_nan_delay_ratios_when_flooding_delivers_at_once():
    rows = compare_schemes(
        [
            ("flooding", SimResult(1.0, 0.0, 5)),
            ("centralized", SimResult(0.5, 0.0, 2)),
            ("rtx", SimResult(0.0, float("nan"), 0)),
        ]
    )
    assert [row[0] for row in rows] == ["flooding", "centralized", "rtx"]
    assert all(math.isnan(row[2]) for row in rows)
    assert [row[1] for row in rows] == [1.0, 0.5, 0.0] and [row[3] for row in rows] == [1.0, 0.4, 0.0]


def test_compare_schemes_keeps_every_row_and_takes_the_first_baseline():
    rows = compare_schemes(
        [
            ("rtx", SimResult(0.5, 30.0, 4)),
            ("flooding", SimResult(1.0, 10.0, 8)),
            ("rtx", SimResult(0.25, 40.0, 2)),
            ("flooding", SimResult(0.5, 20.0, 16)),
        ]
    )
    assert rows == [
        ("rtx", 0.5, 3.0, 0.5),
        ("flooding", 1.0, 1.0, 1.0),
        ("rtx", 0.25, 4.0, 0.25),
        ("flooding", 0.5, 2.0, 2.0),
    ]
