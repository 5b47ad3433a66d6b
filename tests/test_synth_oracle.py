"""Property tests: the columnar synthetic generator and trace writer against
the per-record oracles in synth_oracle (``generate`` and the ``csv.writer``
trace writer as they stood before the columnar generator).  Records and
truth must be equal and the written bytes identical."""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_oracle as oracle
from conftest import benchmark_spec
from eigenbehavior import (
    DAY_SECONDS,
    AssociationRecord,
    GroupSpec,
    Records,
    SynthSpec,
    generate,
    load_records,
    persist,
    synth,
    trace,
)

PROPERTY = settings(max_examples=150, deadline=None)


@st.composite
def unit_vectors(draw, n: int) -> tuple[float, ...]:
    """Nonnegative weights summing to 1, often with zero entries."""
    raw = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any))
    return tuple(w / sum(raw) for w in raw)


@st.composite
def synth_specs(draw):
    n = draw(st.integers(1, 6))
    groups = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 3))
        groups.append(
            GroupSpec(
                draw(st.integers(1, 3)),
                tuple(draw(unit_vectors(n)) for _ in range(k)),
                draw(unit_vectors(k)),
                p_online=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
            )
        )
    return SynthSpec(
        n_locations=n,
        n_days=draw(st.integers(1, 5)),
        groups=tuple(groups),
        seed=draw(st.integers(0, 2**32)),
        noise_epsilon=draw(
            st.one_of(st.sampled_from([0.0, 2.0]), st.floats(0.001, 1.5))
        ),
    )


def trace_bytes(tmp_path, write, records) -> bytes:
    path = tmp_path / "trace.csv"
    write(str(path), records)
    return path.read_bytes()


def assert_matches_oracle(tmp_path, spec: SynthSpec) -> Records:
    records, truth = generate(spec)
    want_rows, want_truth = oracle.generate(spec)
    assert records.rows() == want_rows
    assert truth == want_truth
    assert list(truth) == list(want_truth)
    got = trace_bytes(tmp_path, persist.write_trace_csv, records)
    assert got == trace_bytes(tmp_path, oracle.write_trace_csv, want_rows)
    return records


@given(synth_specs())
@PROPERTY
def test_generate_and_trace_match_oracle(tmp_path_factory, spec):
    assert_matches_oracle(tmp_path_factory.mktemp("synth"), spec)


def test_all_clipped_noise_falls_back_to_the_mode(tmp_path):
    """Noise of +-2 on weights (0.3, 0.7) clips both to 0 on about one day in
    16; such a day keeps the mode, which apportions to exactly 8640 / 20160
    seconds, a split no noisy day reaches."""
    spec = SynthSpec(
        n_locations=2,
        n_days=60,
        groups=(GroupSpec(3, ((0.3, 0.7),), (1.0,)),),
        seed=5,
        noise_epsilon=2.0,
    )
    records = assert_matches_oracle(tmp_path, spec)
    days: dict[tuple[str, int], list[float]] = {}
    for r in records.rows():
        days.setdefault((r.user_id, int(r.start // DAY_SECONDS)), []).append(r.end - r.start)
    assert [8640.0, 20160.0] in days.values()


# generate decodes each block's PCG64 words itself; these check the decoder
# against the Generator calls it replaces, on the same seeds.


def _generators(seeds) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]


@pytest.mark.parametrize("width", [1, 30 * 8], ids=["words-run-out", "words-in-hand"])
def test_streams_decode_as_each_users_generator(width):
    """Thirty days of generate's draws for six users: random() against
    p_online and, on an online day, integers(0, OFFSETS), random() and
    uniform(-eps, eps, 5).  At width 1 every row runs out of words and is
    extended; 30 * 8 words, generate's bound of three words a day besides the
    noise, last unless Lemire rejects.  An offset drawn from a word's lower
    half leaves its upper half to the user's next online day."""
    seeds = np.random.SeedSequence(7).spawn(6)
    streams = synth._Streams(seeds, width)
    rngs = _generators(seeds)
    everyone = np.arange(len(seeds))
    eps, n_noise = 0.05, 5
    carried = 0
    for _ in range(30):
        draws = streams.doubles(everyone)
        assert draws.tolist() == [rng.random() for rng in rngs]
        on = everyone[draws < 0.6]
        carried += int(streams.has_spare[on].sum())
        assert streams.offsets(on).tolist() == [rngs[u].integers(0, synth.OFFSETS) for u in on]
        assert streams.doubles(on).tolist() == [rngs[u].random() for u in on]
        at = streams.take(on, n_noise)[:, None] + np.arange(n_noise)
        noise = synth._uniform(streams.words[on[:, None], at], eps)
        assert np.array_equal(noise, [rngs[u].uniform(-eps, eps, n_noise) for u in on])
    assert carried > 0
    assert (streams.words.shape[1] > width) == (width == 1)


def test_offsets_redraw_a_lemire_rejection():
    """numpy redraws an integers(0, OFFSETS) draw whose low 32 product bits
    fall below 2**32 mod OFFSETS (6332), about once in 678,000 draws.  The
    first rejection in a seeded stream of two million such draws is found
    from the raw words, then the decoder draws across it beside numpy."""
    seed, n = 7, 2_000_000
    values = np.random.Generator(np.random.PCG64(seed)).integers(0, synth.OFFSETS, size=n)
    words = np.random.PCG64(seed).random_raw(n // 2)
    halves = np.stack((words & np.uint64(0xFFFFFFFF), words >> np.uint64(32)), axis=1).ravel()
    product = halves * np.uint64(synth.OFFSETS)
    rejected = np.flatnonzero(product & np.uint64(0xFFFFFFFF) < 6332)
    assert len(rejected) and rejected[0] + 1 not in rejected
    first = int(rejected[0])
    # draw i is half i up to the first rejection, and half i + 1 just after it
    assert np.array_equal(values[:first], product[:first] >> np.uint64(32))
    assert values[first] == product[first + 1] >> np.uint64(32)

    user = np.array([0])
    streams = synth._Streams([np.random.SeedSequence(seed)], 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    skip = first // 2 - 2  # words read as random() draws, as numpy does
    streams.take(user, skip)
    rng.random(skip)
    got = [int(streams.offsets(user)[0]) for _ in range(8)]
    assert got == [rng.integers(0, synth.OFFSETS) for _ in range(8)]
    # eight draws read nine halves: the rejected one was redrawn
    halves_read = 2 * (int(streams.pos[0]) - skip) - int(streams.has_spare[0])
    assert halves_read == 9


@pytest.mark.parametrize("sizes", [[1] * 9, [2, 2, 2, 2, 1], [3, 3, 3]], ids=["1", "2", "3"])
def test_blocks_of_a_few_users_match_oracle(tmp_path, monkeypatch, sizes):
    """Blocks of one, two and three users, some of whose boundaries fall
    inside the groups of four, three and two users."""
    spec = SynthSpec(
        n_locations=3,
        n_days=8,
        groups=(
            GroupSpec(4, ((0.5, 0.5, 0.0), (0.0, 0.0, 1.0)), (0.7, 0.3), p_online=0.7),
            GroupSpec(3, ((0.2, 0.3, 0.5),), (1.0,), p_online=0.5),
            GroupSpec(2, ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0)), (0.5, 0.5)),
        ),
        seed=11,
        noise_epsilon=0.2,
    )
    user_cells = spec.n_days * (spec.n_locations + 3)
    monkeypatch.setattr(trace, "BLOCK_CELLS", sizes[0] * user_cells)
    blocks = synth._user_blocks(spec)
    assert [hi - lo for lo, hi in blocks] == sizes
    assert {lo for lo, _ in blocks} - {0, 4, 7}  # the groups' first users
    assert_matches_oracle(tmp_path, spec)


@pytest.mark.parametrize(
    "n_users, seed, n_records",
    [(800, 0, 172_806), (250, 101, 54_099)],
    ids=["group-800-seed-0", "replay-250-seed-101"],
)
def test_benchmark_trace_and_truth_are_byte_identical(tmp_path, monkeypatch, n_users, seed, n_records):
    spec = benchmark_spec(tmp_path, monkeypatch, n_users, seed)
    records, truth = generate(spec)
    want_rows, want_truth = oracle.generate(spec)
    assert len(records) == len(want_rows) == n_records
    got = trace_bytes(tmp_path, persist.write_trace_csv, records)
    assert got == trace_bytes(tmp_path, oracle.write_trace_csv, want_rows)
    assert truth == want_truth


def test_written_trace_loads_back_column_for_column(tmp_path):
    spec = SynthSpec(
        n_locations=5,
        n_days=9,
        groups=(
            GroupSpec(4, ((0.5, 0.0, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 1.0)), (0.5, 0.5)),
            GroupSpec(3, ((0.0, 0.25, 0.0, 0.75, 0.0),), (1.0,), p_online=0.6),
        ),
        seed=12,
        noise_epsilon=0.1,
    )
    records, _ = generate(spec)
    path = tmp_path / "trace.csv"
    persist.write_trace_csv(str(path), records)
    loaded = load_records(str(path))
    assert loaded.users == records.users
    assert loaded.locations == records.locations
    for column in ("user", "loc", "start", "end"):
        assert np.array_equal(getattr(loaded, column), getattr(records, column)), column


def test_ids_sort_as_strings_past_five_digits():
    """Users u99999, u100000 and u100001 are coded as load_records codes
    them: by string order, in which u100000 sorts first."""
    spec = SynthSpec(
        n_locations=1,
        n_days=1,
        groups=(
            GroupSpec(99_999, ((1.0,),), (1.0,), p_online=0.0),
            GroupSpec(3, ((1.0,),), (1.0,)),
        ),
    )
    records, truth = generate(spec)
    assert records.users == ("u100000", "u100001", "u99999")
    assert records.user.tolist() == [2, 0, 1]
    assert len(truth) == 100_002


# No line breaks: an AssociationRecord refuses them, as load_records does.
IDS = st.text(alphabet=st.sampled_from(list('ab ,"%/é;\t')), min_size=1, max_size=6)
TOP = 2**53 - 1  # the largest bound of a Records
# The writer's int64 cells truncate toward zero as the oracle's int() does,
# up to the largest bounds, at halves of either sign and at the floats just
# below 2**53 in magnitude, where the spacing reaches 1.
BOUNDS = st.one_of(
    st.integers(-(2**40), 2**40),
    st.floats(-1e12, 1e12),
    st.integers(-TOP, TOP),
    st.sampled_from([TOP, -TOP, 0.5, -0.5, 1.5, -1.5, 2.0**52 - 0.5, 0.5 - 2.0**52]),
    st.floats(2.0**52, TOP).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def association_rows(draw):
    """Rows whose end is the start plus a length or a second bound."""
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        start = draw(BOUNDS)
        length = draw(st.one_of(st.integers(1, 10**6), st.floats(0.001, 1e6)))
        end = draw(st.one_of(BOUNDS, st.just(start + length)))
        if end > start and max(abs(start), abs(end)) <= TOP:
            rows.append(AssociationRecord(draw(IDS), draw(IDS), start, end))
    return rows


@given(association_rows())
@PROPERTY
def test_trace_writer_matches_oracle_for_awkward_ids_and_bounds(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("trace")
    want = trace_bytes(tmp_path, oracle.write_trace_csv, rows)
    assert trace_bytes(tmp_path, persist.write_trace_csv, rows) == want
    assert trace_bytes(tmp_path, persist.write_trace_csv, Records.from_rows(rows)) == want


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_trace_writer_chunk_edges(tmp_path, extra):
    n_rows = persist.CHUNK_ROWS + extra
    rows = [AssociationRecord(f"u{i % 7}", f"L{i % 3}", i, i + 1.5) for i in range(n_rows)]
    want = trace_bytes(tmp_path, oracle.write_trace_csv, rows)
    assert trace_bytes(tmp_path, persist.write_trace_csv, rows) == want
