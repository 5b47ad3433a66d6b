"""Property tests: the columnar sweep and the bitset replay against the oracles
in profilecast_oracle (brute-force pair intersection, and the replay layer as
it stood before columnar encounters and records).

The encounters are extracted in blocks of about ``profilecast.REPLAY_BLOCK``
rows, and the replay reads its encounters in blocks of that many rows and
skips rows by the state at the start of each block, so the tests also run
with blocks of a few rows, where the extraction's windows, every skip rule
and the rtx walk cross block boundaries.  The simulate command replays each
scheme in turn over one ``EncounterStream``; those tests do the same.

The oracle replay reads a directed square similarity table and symmetrizes
it; the package's replay reads the condensed triangle of the symmetrized
values, as ``sim_triangle`` makes it.  Where the similarities come from eigen
sets, the oracle is fed the square of ``distances_oracle``, made from the
same block products as the triangle."""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distances_oracle
import profilecast_oracle as oracle
from conftest import stream_rows, upper
from eigenbehavior import (
    AssociationRecord,
    EncounterStream,
    Encounters,
    Message,
    Partition,
    Records,
    SimConfig,
    TraceConfig,
    build_matrices,
    build_messages,
    eigen_sets_for,
    profilecast,
    sim_triangle,
    simulate,
    split_trace,
)
from eigenbehavior.synth import GroupSpec, SynthSpec, generate

PROPERTY = settings(max_examples=150, deadline=None)

USERS = tuple(f"u{i}" for i in range(8))
ENCOUNTER_USERS = USERS[:6]  # u6 and u7 can only appear in messages


@st.composite
def sessions(draw):
    """Random overlapping sessions of up to six users at one to three locations."""
    locations = [f"L{k}" for k in range(draw(st.integers(1, 3)))]
    records = []
    for _ in range(draw(st.integers(0, 30))):
        start = draw(st.integers(0, 200))
        records.append(
            AssociationRecord(
                draw(st.sampled_from(ENCOUNTER_USERS)),
                draw(st.sampled_from(locations)),
                start,
                start + draw(st.integers(1, 60)),
            )
        )
    return records


def assert_matches_old_sweep(records):
    """``records`` as Records: the columnar sweep equals the old one row for
    row, in order, and the brute-force intersection as a set."""
    rows = records.rows()
    got = stream_rows(records)
    assert sorted(got) == oracle.encounters_oracle(rows)
    old = oracle.extract_encounters(rows)
    assert got == [(e.a, e.b, e.start, e.end, e.location) for e in old]


@given(sessions())
@PROPERTY
def test_extract_encounters_matches_oracles(records):
    assert_matches_old_sweep(Records.from_rows(records))


@given(sessions(), st.sampled_from([0.5, 1 / 3, 0.3, 0.77]))
@PROPERTY
def test_extract_encounters_on_split_halves_matches_oracles(records, fraction):
    """Both halves of split_trace, cut at a fractional mid, as simulate
    replays the second one."""
    if not records:
        return
    first, second, mid = split_trace(Records.from_rows(records), fraction)
    for half in (first, second):
        assert_matches_old_sweep(half)


def test_equal_rows_keep_the_locations_first_appearance_order():
    """One pair meets over the same span at two locations: the rows tie on
    (start, a, b) and come out in the order the locations first appear."""
    rows = [
        AssociationRecord("u", "L2", 0, 10),
        AssociationRecord("v", "L1", 0, 10),
        AssociationRecord("v", "L2", 0, 10),
        AssociationRecord("u", "L1", 0, 10),
    ]
    assert_matches_old_sweep(Records.from_rows(rows))
    assert [row[4] for row in stream_rows(Records.from_rows(rows))] == ["L2", "L1"]


# The shipped block size holds every trace and replay drawn here in one
# block; these make the extraction's windows, the skip rules and the rtx walk
# cross block boundaries.
SMALL_BLOCKS = (1, 2, 3, 7)


@contextmanager
def replay_block(rows):
    """Encounters are extracted and replayed in blocks of ``rows`` (None: the
    shipped size)."""
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(profilecast, "REPLAY_BLOCK", rows)
        yield


def assert_blocks_match(records, block=None):
    """The stream's blocks concatenate to the rows that match the oracles,
    and a second walk of the stream, or one that orders rows by np.lexsort,
    yields them again; blocks are non-empty, coded over the records' ids,
    cut only between distinct starts, and hold fewer than the budget rows
    before their last start."""
    with replay_block(block):
        stream = EncounterStream(records)
        blocks = list(stream)
        again = list(stream)
        assert_matches_old_sweep(records)
        whole = stream_rows(records)
    assert [row for b in blocks for row in b.rows()] == whole
    assert [b.rows() for b in again] == [b.rows() for b in blocks]
    assert len(stream) == len(whole)
    # the rows sorted by np.lexsort, as when a packed key would overflow
    with replay_block(block), pytest.MonkeyPatch.context() as patch:
        patch.setattr(profilecast, "_KEY_LIMIT", 0)
        assert [b.rows() for b in EncounterStream(records)] == [b.rows() for b in blocks]
    budget = block or profilecast.REPLAY_BLOCK
    for b in blocks:
        assert (b.users, b.locations) == (records.users, records.locations)
        assert 0 < len(b) and len(b) - np.count_nonzero(b.start == b.start[-1]) < budget
    for prev, nxt in zip(blocks, blocks[1:]):
        assert prev.start[-1] < nxt.start[0]


@pytest.mark.parametrize("block", (*SMALL_BLOCKS, None))
@given(sessions())
@PROPERTY
def test_encounter_stream_concatenates_to_the_oracles(block, records):
    assert_blocks_match(Records.from_rows(records), block)


@pytest.mark.parametrize("block", (1, 2, 3))
def test_rows_with_one_start_stay_in_one_block(block):
    """Four users meet at 0 (six rows) and two of them again at 50 and 70:
    however small the budget, the six rows that start at 0 share a block."""
    rows = [AssociationRecord(u, "L", 0, 10) for u in ("a", "b", "c", "d")]
    rows += [AssociationRecord("a", "L", 50, 60), AssociationRecord("b", "L", 55, 80)]
    rows += [AssociationRecord("a", "L", 70, 90)]
    records = Records.from_rows(rows)
    assert_blocks_match(records, block)
    with replay_block(block):
        sizes = [len(b) for b in EncounterStream(records)]
    assert sizes[0] == 6 and sum(sizes) == 8


@st.composite
def replays(draw):
    """Messages with staggered creation times over unsorted encounter rows."""
    messages = []
    for m in range(draw(st.integers(1, 4))):
        source = draw(st.sampled_from(USERS))
        others = [u for u in USERS if u != source]
        targets = draw(st.sets(st.sampled_from(others), min_size=1, max_size=5))
        when = float(draw(st.integers(0, 60)))
        messages.append(Message(f"m{m:04d}", source, frozenset(targets), when))
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        a, b = sorted(draw(st.sets(st.sampled_from(ENCOUNTER_USERS), min_size=2, max_size=2)))
        start = float(draw(st.integers(0, 100)))
        rows.append((a, b, start, start + draw(st.integers(1, 20)), "L"))
    raw = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(size=(8, 8))
    return messages, rows, raw


CONFIGS = st.one_of(
    st.just(SimConfig("flooding")),
    st.just(SimConfig("centralized")),
    st.builds(
        lambda t: SimConfig("similarity", sim_threshold=t),
        st.sampled_from((0.0, 0.3, 0.5, 0.9)),
    ),
    st.builds(
        lambda p, ttl, seed: SimConfig("rtx", p=p, ttl_factor=ttl, seed=seed),
        st.sampled_from((0.3, 1.0)),
        st.sampled_from((0.4, 1.0, 3.0)),
        st.integers(0, 1000),
    ),
)


def _comparable(outcome):
    """Every field of an outcome, NaN replaced by a marker so that NaN == NaN."""

    def fields(res):
        return tuple("nan" if isinstance(v, float) and math.isnan(v) else v for v in vars(res).values())

    per_message = {mid: fields(res) for mid, res in outcome.per_message.items()}
    return per_message, fields(outcome.aggregate), outcome.leaked


def triangle_of(table):
    """The package replay's similarities for the oracle's directed square
    table: the condensed triangle of (table + table^T) / 2."""
    return upper((table + table.T) / 2.0)


def assert_replay_matches_oracle(replay, config, block=None, users=USERS):
    """The package replay's outcome, checked to equal the oracle's."""
    messages, rows, table = replay
    with replay_block(block):
        got = simulate(messages, Encounters.from_rows(rows), config, triangle_of(table), users)
    want = oracle.simulate(messages, [oracle.Encounter(*r) for r in rows], config, table, users)
    assert _comparable(got) == _comparable(want), config
    return got


@given(replays(), CONFIGS)
@PROPERTY
def test_simulate_matches_oracle(replay, config):
    assert_replay_matches_oracle(replay, config)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@given(replays(), CONFIGS)
@PROPERTY
def test_simulate_matches_oracle_in_small_blocks(block, replay, config):
    assert_replay_matches_oracle(replay, config, block)


FIXED_MESSAGES = [
    Message("m0000", "u0", frozenset({"u1", "u2", "u6"}), 5.0),
    Message("m0001", "u3", frozenset({"u4", "u7"}), 0.0),
]
FIXED_ROWS = [
    ("u1", "u2", 40.0, 45.0, "L"),
    ("u0", "u1", 10.0, 20.0, "L"),
    ("u3", "u4", 2.0, 3.0, "L"),
    ("u0", "u5", 1.0, 9.0, "L"),
    ("u1", "u5", 30.0, 31.0, "L"),
    ("u4", "u5", 6.0, 8.0, "L"),
    ("u2", "u3", 50.0, 60.0, "L"),
]
FIXED_REPLAY = (FIXED_MESSAGES, FIXED_ROWS, np.random.default_rng(3).uniform(size=(8, 8)))
FIXED_CONFIGS = [
    SimConfig("flooding"),
    SimConfig("centralized"),
    SimConfig("similarity", sim_threshold=0.5),
    SimConfig("rtx", p=0.3, ttl_factor=3.0, seed=5),
    SimConfig("rtx", p=1.0, ttl_factor=3.0),
]


def test_simulate_matches_oracle_on_each_scheme_of_a_fixed_scenario():
    """One hand-built unsorted replay per scheme, so no scheme depends on what
    Hypothesis happens to draw."""
    for config in FIXED_CONFIGS:
        assert_replay_matches_oracle(FIXED_REPLAY, config)


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_simulate_matches_oracle_on_each_scheme_of_a_fixed_scenario_in_small_blocks(block):
    for config in FIXED_CONFIGS:
        assert_replay_matches_oracle(FIXED_REPLAY, config, block)


WIDE_USERS = tuple(f"w{i:02d}" for i in range(24))
WIDE_TTLS = (0.2, 0.5)  # the rtx configs' ttl_factors, whose budgets run out


@pytest.fixture(scope="module")
def wide_replay():
    """80 messages, so every bitset spans two 64-bit words: random sources
    and target sets over 24 users, staggered creation times, and 700
    unsorted rows."""
    rng = np.random.default_rng(41)
    messages = []
    for m in range(80):
        source, *targets = rng.choice(len(WIDE_USERS), size=1 + rng.integers(1, 7), replace=False).tolist()
        when = float(rng.integers(0, 50))
        messages.append(Message(f"m{m:04d}", WIDE_USERS[source], frozenset(WIDE_USERS[t] for t in targets), when))
    rows = []
    for start in rng.integers(0, 400, size=700).tolist():
        a, b = sorted(rng.choice(len(WIDE_USERS), size=2, replace=False).tolist())
        rows.append((WIDE_USERS[a], WIDE_USERS[b], float(start), start + 5.0, "L"))
    return messages, rows, rng.uniform(size=(len(WIDE_USERS), len(WIDE_USERS)))


WIDE_CONFIGS = (
    SimConfig("flooding"),
    SimConfig("centralized"),
    SimConfig("similarity", sim_threshold=0.5),
    SimConfig("rtx", p=1.0, ttl_factor=WIDE_TTLS[0]),
    SimConfig("rtx", p=0.5, ttl_factor=WIDE_TTLS[1], seed=9),
    SimConfig("rtx", p=0.7, ttl_factor=3.0, seed=2),
)


@pytest.mark.parametrize("block", (None, 5, 64))
@pytest.mark.parametrize("config", WIDE_CONFIGS, ids=lambda c: f"{c.scheme}-{c.param}")
def test_simulate_matches_oracle_past_one_word_of_messages(wide_replay, block, config):
    """Messages 64 to 79 sit in the second word of every bitset.  At the
    shipped size the 700 rows are one block, and the rtx budgets that the
    first 350 rows spend run out partway through it."""
    messages, rows, _ = wide_replay
    got = assert_replay_matches_oracle(wide_replay, config, block, WIDE_USERS).per_message
    assert sum(got[msg.message_id].overhead for msg in messages[64:]) > 0
    if config.ttl_factor in WIDE_TTLS:
        # the first 350 rows alone spend the whole budget of a message past 64
        half = simulate(messages, Encounters.from_rows(rows[:350]), config).per_message
        budgets = [round(config.ttl_factor * (len(msg.targets) + 1)) for msg in messages]
        assert any(half[msg.message_id].overhead == budgets[m] > 0 for m, msg in enumerate(messages) if m >= 64)


def count_rolls(patch):
    """Patch profilecast._rolls to count the rolls drawn; returns the count."""
    drawn = [0]
    rolls = profilecast._rolls

    def counted(*args):
        for roll in rolls(*args):
            drawn[0] += 1
            yield roll

    patch.setattr(profilecast, "_rolls", counted)
    return drawn


# u4 and u5 each hold custody of a message and meet first; then the
# custodians meet users that sort before them, so custody sits at b.
SECOND_END_MESSAGES = [
    Message("m0000", "u5", frozenset({"u0", "u1", "u2", "u4"}), 0.0),
    Message("m0001", "u4", frozenset({"u3", "u5"}), 0.0),
]
SECOND_END_ROWS = [
    ("u4", "u5", 1.0, 2.0, "L"),  # both ends hand over: one roll
    ("u0", "u5", 2.0, 3.0, "L"),  # u5 hands m1 to u0
    ("u1", "u4", 3.0, 4.0, "L"),  # u4 hands m0 to u1
    ("u2", "u3", 4.0, 5.0, "L"),  # no custodian: no roll
    ("u0", "u1", 5.0, 6.0, "L"),  # both ends hand over: one roll
    ("u1", "u2", 6.0, 7.0, "L"),  # u1 hands m1 to u2
]


@pytest.mark.parametrize("block", (None, 1, 2))
def test_rtx_hands_over_from_the_second_end_and_rolls_once_a_row(block):
    """Custody sits only at the second end of the second and third rows,
    and a row whose two ends both hold custody draws one roll for both
    handovers: five rolls for six rows."""
    replay = (SECOND_END_MESSAGES, SECOND_END_ROWS, np.zeros((8, 8)))
    with pytest.MonkeyPatch.context() as patch:
        drawn = count_rolls(patch)
        got = assert_replay_matches_oracle(replay, SimConfig("rtx", p=1.0, ttl_factor=3.0), block)
    assert drawn[0] == 5
    assert [got.per_message[m].overhead for m in ("m0000", "m0001")] == [3, 4]
    for seed in range(12):
        assert_replay_matches_oracle(replay, SimConfig("rtx", p=0.5, ttl_factor=3.0, seed=seed), block)


# Two groups, {u0, u1, u2} and {u3, u4, u5}, and a message from u2 to u3:
# under centralized only rows whose ends share a message can forward.
SHARED_REACH_MESSAGES = [
    Message("m0000", "u0", frozenset({"u1", "u2"}), 0.0),
    Message("m0001", "u3", frozenset({"u4", "u5"}), 0.0),
    Message("m0002", "u2", frozenset({"u3"}), 0.0),
]
SHARED_REACH_ROWS = [
    ("u0", "u3", 0.5, 1.0, "L"),  # no shared message
    ("u0", "u1", 1.0, 2.0, "L"),
    ("u1", "u3", 2.0, 3.0, "L"),  # no shared message
    ("u3", "u4", 3.0, 4.0, "L"),
    ("u0", "u5", 4.0, 5.0, "L"),  # no shared message
    ("u2", "u3", 5.0, 6.0, "L"),  # they share m2 only
    ("u1", "u2", 6.0, 7.0, "L"),
    ("u4", "u5", 7.0, 8.0, "L"),
]


@pytest.mark.parametrize("block", (None, 1, 3))
def test_rows_between_users_whose_reaches_share_no_message(block):
    """Centralized forwards only along rows whose ends may both hold one
    message; flooding forwards along every row."""
    replay = (SHARED_REACH_MESSAGES, SHARED_REACH_ROWS, np.zeros((8, 8)))
    assert_replay_matches_oracle(replay, SimConfig("flooding"), block)
    got = assert_replay_matches_oracle(replay, SimConfig("centralized"), block)
    assert (got.aggregate.delivered, got.aggregate.n_targets, got.aggregate.overhead, got.leaked) == (5, 5, 5, 0)


# u5 is the source of both messages; the rows between users that have seen
# the same messages forward nothing, and the rest forward from b to a.
EQUAL_SEEN_MESSAGES = [
    Message("m0000", "u5", frozenset({"u0", "u2", "u3", "u4"}), 0.0),
    Message("m0001", "u5", frozenset({"u3", "u4"}), 0.0),
]
EQUAL_SEEN_ROWS = [
    ("u0", "u1", 1.0, 2.0, "L"),  # both have seen nothing
    ("u4", "u5", 2.0, 3.0, "L"),  # u5 gives both messages to u4
    ("u4", "u5", 3.0, 4.0, "L"),  # both have seen both
    ("u3", "u4", 4.0, 5.0, "L"),
    ("u3", "u5", 5.0, 6.0, "L"),  # both have seen both
    ("u2", "u3", 6.0, 7.0, "L"),
    ("u0", "u2", 7.0, 8.0, "L"),
]


@pytest.mark.parametrize("block", (None, 1, 2))
def test_rows_between_users_with_equal_seen_sets(block):
    """A row forwards only when its ends have seen different messages, here
    always from b to a."""
    replay = (EQUAL_SEEN_MESSAGES, EQUAL_SEEN_ROWS, np.zeros((8, 8)))
    for config in (SimConfig("centralized"), SimConfig("similarity", sim_threshold=0.0)):
        assert_replay_matches_oracle(replay, config, block)
    got = assert_replay_matches_oracle(replay, SimConfig("flooding"), block)
    assert [got.per_message[m].overhead for m in ("m0000", "m0001")] == [4, 4]


def _mode(n_locations, weights):
    vector = [0.0] * n_locations
    for loc, weight in weights:
        vector[loc] = weight
    return tuple(vector)


SYNTH_CONFIGS = (
    SimConfig("flooding"),
    SimConfig("centralized"),
    SimConfig("similarity", sim_threshold=0.5),
    SimConfig("rtx", p=0.5, ttl_factor=3.0, seed=4),
    SimConfig("rtx", p=1.0, ttl_factor=1.0),
)


@pytest.fixture(scope="module")
def synth_replay():
    """The replay half of a 60-user synth population: four groups of 15 over
    four home locations and one common one, 3466 encounters, 12 messages;
    each config's oracle outcome is computed once."""
    n = 6
    groups = tuple(
        GroupSpec(
            15,
            (_mode(n, [(g, 0.8), (5, 0.2)]), _mode(n, [(g, 0.3), ((g + 1) % 4, 0.5), (5, 0.2)])),
            (0.7, 0.3),
            p_online=0.6,
        )
        for g in range(4)
    )
    records, truth = generate(SynthSpec(n_locations=n, n_days=16, groups=groups, seed=2024, noise_epsilon=0.05))
    first, second, mid = split_trace(records)
    encounters = Encounters.from_rows(stream_rows(second))
    messages = build_messages(Partition(assignment=truth), creation_time=mid, seed=3)
    users = sorted(truth)
    table = np.random.default_rng(1).uniform(size=(len(users), len(users)))
    rows = [oracle.Encounter(*row) for row in encounters.rows()]
    want = {
        config: _comparable(oracle.simulate(messages, rows, config, table, users)) for config in SYNTH_CONFIGS
    }
    return messages, encounters, triangle_of(table), users, want, second, (first, mid)


@pytest.mark.parametrize("block", (None, 7, 256))
@pytest.mark.parametrize("config", SYNTH_CONFIGS, ids=lambda c: f"{c.scheme}-{c.param}")
def test_simulate_matches_oracle_on_a_synth_population(synth_replay, block, config):
    """Every per-message field and the leak count of each scheme; at 7 and
    256 rows a block, users saturate and custody moves between blocks."""
    messages, encounters, sims, users, want, _, _ = synth_replay
    assert len(encounters) == 3466 and len(messages) == 12
    with replay_block(block):
        got = simulate(messages, encounters, config, sims, users)
    assert _comparable(got) == want[config]


@pytest.mark.parametrize("block", (None, 7, 256))
def test_simulate_over_one_stream_matches_oracle_on_a_synth_population(synth_replay, block):
    """The simulate command's replay: each config in turn over one stream of
    the replay half's blocks, over the replay half's users."""
    messages, _, sims, users, want, second, _ = synth_replay
    with replay_block(block):
        stream = EncounterStream(second)
        blocks = list(stream)
        got = [_comparable(simulate(messages, stream, config, sims, users)) for config in SYNTH_CONFIGS]
    assert (len(blocks) == 1) == (block is None) and sum(map(len, blocks)) == len(stream) == 3466
    assert got == [want[config] for config in SYNTH_CONFIGS]


@pytest.mark.parametrize("threshold", (0.3, 0.5, 0.7, 0.9))
def test_similarity_replay_over_profile_similarities_matches_oracle(synth_replay, threshold):
    """The similarities of the profile half's eigen sets: the package replay
    reads sim_triangle, the oracle replay the square route's table, and every
    gate agrees, so every transmission does."""
    messages, encounters, _, _, _, _, (first, mid) = synth_replay
    eigen_sets = eigen_sets_for(build_matrices(first, TraceConfig(0.0, mid)))
    assert None not in eigen_sets.values() and len(eigen_sets) == 60
    sims, ids = sim_triangle(eigen_sets)
    table, table_ids = distances_oracle.normalized_sim_table(eigen_sets)
    assert ids == table_ids
    config = SimConfig("similarity", sim_threshold=threshold)
    got = simulate(messages, encounters, config, sims, ids)
    want = oracle.simulate(messages, [oracle.Encounter(*row) for row in encounters.rows()], config, table, ids)
    assert _comparable(got) == _comparable(want)


def test_encounters_columns_round_trip_in_given_order():
    rows = [("v", "w", 5.0, 6.0, "L2"), ("u", "v", 1.0, 2.0, "L1"), ("u", "w", 5.0, 9.0, "L1")]
    encounters = Encounters.from_rows(rows)
    assert len(encounters) == 3
    assert encounters.users == ("u", "v", "w")
    assert encounters.locations == ("L1", "L2")
    assert encounters.a.tolist() == [1, 0, 0]
    assert encounters.b.tolist() == [2, 1, 2]
    assert encounters.loc.tolist() == [1, 0, 0]
    assert encounters.rows() == rows
    assert len(Encounters.from_rows([])) == 0
    with pytest.raises(ValueError, match="equal length"):
        Encounters(("u", "v"), ("L",), [0], [1, 1], [0.0], [1.0], [0])
