"""Peak memory of the per-record and pairwise stages, measured with tracemalloc.

Each stage may hold its output plus at most one working copy of a distance
triangle or one block of the size its budget sets (``trace.BLOCK_CELLS``
for the float-cell passes); distances are held as their condensed
triangle, no stage builds an n x n array, and nothing else may grow with
the record count or with n squared.  The inputs are built before tracing
starts, so a peak counts only what the stage allocates.  numpy reports its
array buffers to tracemalloc, so the figures are array bytes.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

import pytest

from eigenbehavior import (
    AssociationMatrix,
    DistanceMatrix,
    EigenBehaviorSet,
    Encounters,
    Message,
    EncounterStream,
    GroupSpec,
    Records,
    SimConfig,
    SynthSpec,
    TraceConfig,
    agglomerate,
    build_matrices,
    cross_significance,
    distances,
    eigen_distance_matrix,
    eigen_sets_for,
    generate,
    group_profiles,
    partition_from_labels,
    profilecast,
    run_pipeline,
    simulate,
    single_location_modes,
    summary_table,
    summary_vectors,
    trace,
)
from eigenbehavior.trace import DAY_SECONDS

from conftest import table_of, upper

MB = 1 << 20
# Small arrays and Python objects a stage makes besides its big arrays.
SLACK = MB // 4


def peak_above_inputs(fn, *args, **kwargs):
    """fn's result and the peak traced bytes above those allocated when it started."""
    running = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not running:
            tracemalloc.stop()
    return result, peak


def assert_within(peak: int, bound: int) -> None:
    assert peak <= bound, f"peak {peak / MB:.2f} MB above inputs > bound {bound / MB:.2f} MB"


def random_records(n_users: int, n_days: int, per_day: int, seed: int) -> Records:
    """per_day stays a day for each user over 20 locations; a third of the
    stays overlap the next one, so merge_intervals has unions to build."""
    rng = np.random.default_rng(seed)
    n = n_users * n_days * per_day
    user = np.repeat(np.arange(n_users), n_days * per_day)
    day = np.tile(np.repeat(np.arange(n_days), per_day), n_users)
    slot = np.tile(np.arange(per_day), n_users * n_days)
    start = day * DAY_SECONDS + slot * (DAY_SECONDS // per_day) + rng.integers(0, 600, n)
    length = DAY_SECONDS // per_day * rng.choice([1, 1, 2], n) - rng.integers(0, 600, n)
    loc = rng.integers(0, 20, n)
    loc[:20] = np.arange(20)
    users = tuple(f"u{i:04d}" for i in range(n_users))
    locations = tuple(f"L{i:02d}" for i in range(20))
    order = rng.permutation(n)  # records come in no particular user order
    return Records(
        users, locations, user[order], loc[order], start[order], (start + length)[order]
    )


def random_sets(n_users: int, k: int, seed: int) -> dict[str, EigenBehaviorSet]:
    rng = np.random.default_rng(seed)
    sets = {}
    for i in range(n_users):
        vectors = np.linalg.qr(rng.normal(size=(20, k)))[0].T
        weights = np.sort(rng.dirichlet(np.ones(k)))[::-1]
        sets[f"u{i:04d}"] = EigenBehaviorSet(vectors, weights)
    return sets


def test_load_records_holds_its_columns_and_one_chunk(tmp_path):
    # 100 k rows: the four columns as read (3.1 MB); the two code columns
    # (1.5 MB); the columns' growth room and the bool temporaries of Records'
    # checks (an eighth of the columns); and one chunk of csv rows, a list of
    # four str each.  Every row's cells held at once, as list(csv.reader) or
    # zip(*reader) would, take about 40 MB and break the bound, and so does a
    # float temporary of a column, which a second bound check on np.abs made.
    n = 100_000
    path = tmp_path / "trace.csv"
    with open(path, "w") as fh:
        fh.write("user,location,start,end\n")
        fh.writelines(f"u{i % 997:04d},L{i % 20:02d},{i * 60},{i * 60 + 30}\n" for i in range(n))
    records, peak = peak_above_inputs(trace.load_records, str(path))
    assert len(records) == n and len(records.users) == 997
    columns = n * 4 * 8
    codes = n * 2 * 8
    chunk = trace.LOAD_CHUNK_ROWS * 400
    assert chunk < n * 8  # a chunk is a small share of the file
    assert_within(peak, columns + codes + columns // 8 + chunk + SLACK)


@pytest.mark.parametrize("noise_epsilon, n_users", [(0.0, 1200), (0.05, 120)])
def test_generate_holds_its_records_and_one_block(noise_epsilon, n_users, monkeypatch):
    # 200 locations, blocks of 2**15 cells (6 users).  Without noise, 1200
    # users make 23.6 k records over 23.5 k online days, so one (online days x
    # locations) array of the whole population (38 MB) breaks the bound.  With
    # noise, about half the locations get a record every online day: 120 users
    # make 236 k records, and the whole-population arrays break it by 9 MB.
    monkeypatch.setattr(trace, "BLOCK_CELLS", 1 << 15)
    n_locations, n_groups = 200, 40
    groups = tuple(
        GroupSpec(
            n_users // n_groups,
            single_location_modes(n_locations, [g, n_locations - 1 - g]),
            (0.7, 0.3),
            p_online=0.7,
        )
        for g in range(n_groups)
    )
    spec = SynthSpec(n_locations=n_locations, n_days=28, groups=groups, seed=3, noise_epsilon=noise_epsilon)
    generate(SynthSpec(n_locations=1, n_days=1, groups=(GroupSpec(1, ((1.0,),), (1.0,)),)))
    (records, truth), peak = peak_above_inputs(generate, spec)
    assert len(truth) == n_users
    assert 20 * n_users > len(records) if noise_epsilon == 0 else len(records) > 1900 * n_users
    # the blocks' four columns and their concatenation; the two code columns
    # are made once the blocks are freed
    columns = len(records) * 8 * 8
    names = len(truth) * 300  # the truth and the user names, as Python objects
    # a block's words, noise, weights, _apportion's scratch and durations:
    # fewer than 8 arrays of its cells
    block = 8 * trace.BLOCK_CELLS * 8
    assert_within(peak, columns + names + block + SLACK)


def test_build_matrices_holds_output_and_one_block():
    records = random_records(200, 28, 8, seed=3)
    config = TraceConfig(0.0, 28 * DAY_SECONDS)
    matrices, peak = peak_above_inputs(build_matrices, records, config)
    output = len(matrices) * 28 * 20 * 8
    # The sweep keeps fewer than 40 float or index arrays of one block's
    # pieces alive at once; a record makes one or two pieces here.
    block = trace.BLOCK_RECORDS * 2 * 40 * 8
    order = len(records) * 8  # the records' user order, one index each
    assert_within(peak, output + order + block + SLACK)


def test_sim_triangle_holds_its_triangle_and_one_block():
    # 1500 users: the triangle (9 MB), the stacked basis and one block of
    # products; an n x n table (18 MB) breaks the bound
    n, k = 1500, 4
    sets = random_sets(n, k, seed=5)
    (values, ids), peak = peak_above_inputs(distances.sim_triangle, sets)
    assert values.shape == (n * (n - 1) // 2,) and len(ids) == n
    bound = triangle(n) + eigen_distance_blocks(n, k) + SLACK
    assert bound < n * n * 8
    assert_within(peak, bound)


def test_amvd_holds_output_and_one_block():
    # 60 users of 200 rows: one user against every later row would take
    # 200 x 11800 cells, nine times a block
    n, t = 60, 200
    rng = np.random.default_rng(17)
    matrices = table_of(
        {f"u{i:02d}": AssociationMatrix(f"u{i:02d}", rng.dirichlet(np.ones(2), size=t), ("A", "B")) for i in range(n)}
    )
    dm, peak = peak_above_inputs(distances.amvd_distance_matrix, matrices)
    assert dm.flagged_ids == ()
    output = n * n * 8
    rows = 2 * n * t * 2 * 8  # the online rows gathered at once, and the (users, slots) places they come from
    block = 2 * (trace.BLOCK_CELLS + t * t) * 8  # distances and their terms
    assert_within(peak, output + rows + block + SLACK)


def eigen_distance_blocks(n: int, k: int) -> int:
    """Bytes the similarity triangle's making may hold besides the triangle:
    the stacked and weighted basis vectors, and one block of products and
    their per-user sums."""
    stacked = 3 * n * k * 20 * 8
    sims = 2 * trace.BLOCK_CELLS * 8
    return stacked + sims


def triangle(n: int) -> int:
    """Bytes of the condensed distances of n ids."""
    return n * (n - 1) // 2 * 8


def linkage_copy(n: int) -> int:
    """Bytes merge_histories may hold for one tree of n ids: its working copy
    of the triangle with an inf cell for each pair (a, a), and the view of
    each row's run that fills it, about 200 bytes a row."""
    return n * (n + 1) // 2 * 8 + n * 200


@pytest.mark.parametrize("flagged", [(), ("zz-offline",)], ids=["live", "flagged"])
def test_eigen_distance_holds_its_triangle_and_one_block(flagged):
    # one path for live and flagged users alike: the similarity triangle,
    # built one block of rows at a time, then turned into the distances in
    # place; at 1500 users an n x n similarity table (18 MB) breaks the bound
    n, k = 1500, 2
    sets = {**random_sets(n, k, seed=7), **dict.fromkeys(flagged)}
    dm, peak = peak_above_inputs(eigen_distance_matrix, sets)
    assert dm.flagged_ids == flagged
    ids = n + len(flagged)
    bound = triangle(ids) + eigen_distance_blocks(n, k) + SLACK
    assert bound < n * n * 8
    assert_within(peak, bound)


def test_summary_l1_distance_holds_its_triangle_and_two_blocks():
    # 1000 users over 20 locations: the triangle (3.8 MB) with row_runs' view
    # of each of its rows, pairwise_l1's column copy of the later rows, and a
    # block of distances and one of their terms; the whole square and its
    # terms (15 MB) break the bound
    n, n_locations = 1000, 20
    vectors = np.random.default_rng(13).dirichlet(np.ones(n_locations), size=n)
    ids = tuple(f"u{i:04d}" for i in range(n))
    dm, peak = peak_above_inputs(distances.summary_l1_distance, ids, vectors, "onavg")
    assert dm.n == n
    views = n * 200  # an ndarray view and its list slot, about 160 bytes a row
    column = n * n_locations * 8
    blocks = 2 * trace.BLOCK_CELLS * 8
    assert_within(peak, triangle(n) + views + column + blocks + SLACK)


def test_agglomerate_holds_one_working_copy_of_the_triangle():
    # 1000 ids: the working copy (3.8 MB) and small per-merge rows; the
    # parent's n x n square (7.6 MB) breaks the bound
    n = 1000
    rng = np.random.default_rng(11)
    values = rng.random((n, n))
    values += values.T
    dm = DistanceMatrix(upper(values), "custom", range(n))  # checked before tracing starts
    partition, peak = peak_above_inputs(agglomerate, dm, target_count=10)
    assert partition.n_clusters == 10
    bound = linkage_copy(n) + SLACK
    assert bound < n * n * 8
    assert_within(peak, bound)


def test_agglomerate_rescans_one_row_at_a_time():
    # every id's nearest is the last one, so every row's cache is its pair
    # with it and the first merge, (0, n - 1), makes every other row rescan;
    # holding all their runs at once (3.8 MB) breaks the bound
    n = 1000
    values = np.full((n, n), 2.0)
    values[-1, :-1] = values[:-1, -1] = 1.0
    dm = DistanceMatrix(upper(values), "custom", range(n))
    partition, peak = peak_above_inputs(agglomerate, dm, target_count=n - 1)
    assert partition.merge_history == [(0, n - 1, 1.0)]
    assert_within(peak, linkage_copy(n) + SLACK)


def test_eigen_pipeline_holds_the_triangle_and_one_working_copy():
    # 1200 users in 12 planted groups, 28 days: the similarity blocks, then
    # the linkage's working copy (5.5 MB) beside the triangle (5.5 MB); the
    # parent's n x n square (11 MB) breaks the bound.  The run takes the
    # population table (5 MB), built before tracing starts like every input.
    n_groups, size, n_days = 12, 100, 28
    groups = tuple(
        GroupSpec(size, single_location_modes(20, [g]), (1.0,), p_online=0.8) for g in range(n_groups)
    )
    records, _ = generate(SynthSpec(n_locations=20, n_days=n_days, groups=groups, seed=5, noise_epsilon=0.05))
    table = build_matrices(records, TraceConfig(0.0, n_days * DAY_SECONDS))
    result, peak = peak_above_inputs(run_pipeline, table, metric="eigen", target_count=n_groups)
    n = len(result.matrices)
    assert n == n_groups * size and result.partition.n_clusters == n_groups
    k = max(s.k for s in result.eigen_sets.values() if s is not None)
    allowance = triangle(n) + linkage_copy(n) + eigen_distance_blocks(n, k)
    assert allowance < triangle(n) + n * n * 8
    assert_within(peak, allowance + SLACK)


def test_summary_table_holds_one_block_of_mode_trees(monkeypatch):
    """1200 users in 12 planted two-mode groups, 28 days: nearly every online
    row merges below both thresholds.  Blocks of 2**16 cells grow about 84
    users' trees at once, a small share of the population, so that holding
    every user's merge history at once, or a second column copy of a chunk's
    rows, breaks the bound."""
    monkeypatch.setattr(trace, "BLOCK_CELLS", 1 << 16)
    n_days = 28
    groups = tuple(
        GroupSpec(100, single_location_modes(20, [g, (g + 7) % 20]), (0.7, 0.3), p_online=0.8) for g in range(12)
    )
    records, _ = generate(SynthSpec(n_locations=20, n_days=n_days, groups=groups, seed=5, noise_epsilon=0.05))
    matrices = build_matrices(records, TraceConfig(0.0, n_days * DAY_SECONDS))
    sets = eigen_sets_for(matrices)

    def summary_pass():
        summary = summary_vectors(matrices, sets)
        return summary, summary_table(matrices, summary)

    (_, scores), peak = peak_above_inputs(summary_pass)
    assert set(scores) == {"onavg", "centroid@0.5", "centroid@0.9", "svd"}
    online = [int(m.online.sum()) for m in matrices.values()]
    width = max(online)
    chunk = trace.BLOCK_CELLS // width**2 + 1  # the users whose trees are grown together
    rows = 2 * chunk * width * 20 * 8  # a chunk's rows and pairwise_l1's column copy of them
    # l1_triangles' one block of the chunk's distances and their terms (two
    # squares' worth) beside its triangles (half a square), which the
    # engine's working copy of them later joins
    distances = 5 * chunk * width**2 * 8 // 2
    histories = chunk * width * 3 * 8  # the chunk's (trees, rows, 3) merge record
    cuts = (sum(online) + len(matrices) * 20) * 2 * 8  # each online row's roots, each user's centroids
    output = len(matrices) * len(scores) * 20 * 8  # the (users, kinds, locations) summaries
    assert_within(peak, rows + distances + histories + cuts + output + SLACK)


def test_eigen_sets_hold_their_sets_and_one_block_of_svds():
    """1200 users of 28 daily slots over 20 locations in 12 planted two-mode
    groups.  eigen_sets_for holds its sets and one block of stacked SVDs:
    the block's gathered rows, its U, singular values and Vt (the budget's
    cells) and the sign pass's absolute values of Vt, within twice the
    budget.  A stacked SVD of the whole population takes 18 MB and breaks
    the bound."""
    groups = tuple(
        GroupSpec(100, single_location_modes(20, [g, (g + 7) % 20]), (0.7, 0.3), p_online=0.8) for g in range(12)
    )
    records, _ = generate(SynthSpec(n_locations=20, n_days=28, groups=groups, seed=5, noise_epsilon=0.05))
    matrices = build_matrices(records, TraceConfig(0.0, 28 * DAY_SECONDS))
    sets, peak = peak_above_inputs(eigen_sets_for, matrices)
    assert all(s is not None for s in sets.values())
    data = sum(s.vectors.nbytes + s.weights.nbytes for s in sets.values())
    objects = len(sets) * 500  # each set, its two array headers and its dict entry
    block = 2 * trace.BLOCK_CELLS * 8
    assert_within(peak, data + objects + block + SLACK)


def test_cross_significance_holds_its_table_and_one_block():
    """1200 users, a third of their slots offline, in 30 clusters: stacking
    every user's rows and products at once would take 1200 x 28 x (20 + 30)
    cells, 13.4 MB.  cross_significance reads a PopulationTable, stacked
    before tracing starts like every input."""
    rng = np.random.default_rng(17)
    locations = tuple(f"L{j:03d}" for j in range(20))
    matrices = {}
    for i in range(1200):
        rows = rng.random((28, 20)) * (rng.random((28, 1)) < 0.7)
        matrices[f"u{i:04d}"] = AssociationMatrix(f"u{i:04d}", rows, locations)
    matrices = table_of(matrices)
    profiles = group_profiles(partition_from_labels({u: i % 30 for i, u in enumerate(matrices)}), matrices)
    result, peak = peak_above_inputs(cross_significance, profiles, matrices)
    assert len(result.per_cluster) == 30
    table = 1200 * 30 * 8
    assert_within(peak, table + trace.BLOCK_CELLS * 8 + SLACK)


def random_replay(n_users: int, n_rows: int, n_msgs: int, seed: int) -> tuple[list[Message], Encounters]:
    """n_msgs messages to ten users each, created at 0, and n_rows encounters
    between random pairs in start order."""
    rng = np.random.default_rng(seed)
    users = tuple(f"u{i:04d}" for i in range(n_users))
    messages = []
    for m in range(n_msgs):
        source, *targets = rng.choice(n_users, size=11, replace=False).tolist()
        messages.append(Message(f"m{m:04d}", users[source], frozenset(users[t] for t in targets), 0.0))
    pair = np.sort(rng.choice(n_users, size=(n_rows, 2)), axis=1)
    pair = pair[pair[:, 0] < pair[:, 1]]
    start = np.sort(rng.uniform(0.0, 1e6, len(pair)))
    zeros = np.zeros(len(pair), dtype=np.intp)
    return messages, Encounters(users, ("L",), pair[:, 0], pair[:, 1], start, start + 60.0, zeros)


def replay_allowance(n_msgs: int, n_users: int) -> int:
    """Bytes simulate may hold besides its inputs: one block of rows and the
    results.  A block row costs at most about 256 bytes: a dozen index and
    float arrays, and under rtx the walk's per-block lists (two keys and four
    column values a row, as Python objects).  A (message, user) cell costs at
    most about 128 bytes: its entries in the result arrays and one receipt of
    three list items."""
    return profilecast.REPLAY_BLOCK * 256 + n_msgs * n_users * 128 + SLACK


REPLAY_CONFIGS = (
    SimConfig("flooding"),
    SimConfig("centralized"),
    SimConfig("similarity", sim_threshold=0.3),
    SimConfig("rtx", p=0.5, ttl_factor=3.0),
)


@pytest.mark.parametrize("config", REPLAY_CONFIGS, ids=lambda c: c.scheme)
def test_replay_holds_one_block_of_encounters(config):
    # 400 k encounters, 24 blocks: the whole columns as Python lists would take
    # about 20 MB, five times the allowance
    n_users, n_msgs = 60, 40
    messages, encounters = random_replay(n_users, 400_000, n_msgs, seed=19)
    table = np.random.default_rng(19).uniform(size=(n_users, n_users))
    sims = upper((table + table.T) / 2)
    outcome, peak = peak_above_inputs(simulate, messages, encounters, config, sims, encounters.users)
    assert outcome.aggregate.overhead > 0
    assert_within(peak, replay_allowance(n_msgs, n_users))


def test_similarity_replay_holds_no_square():
    # the gate is read per block from the triangle as given: no square
    n, n_msgs = 1000, 20
    messages, encounters = random_replay(n, 50_000, n_msgs, seed=23)
    table = np.random.default_rng(23).uniform(size=(n, n))
    sims = upper((table + table.T) / 2)
    config = SimConfig("similarity", sim_threshold=0.5)
    outcome, peak = peak_above_inputs(simulate, messages, encounters, config, sims, encounters.users)
    assert outcome.aggregate.overhead > 0
    assert replay_allowance(n_msgs, n) < n * n * 8
    assert_within(peak, replay_allowance(n_msgs, n))


def meeting_records(n_users: int, n_stays: int, seed: int) -> Records:
    """n_stays stays of ten minutes to two hours per user, anywhere in two
    weeks, at one of four locations: at 240 users and 100 stays, 24 k
    records meet in about 410 k encounters."""
    rng = np.random.default_rng(seed)
    n = n_users * n_stays
    user = np.repeat(np.arange(n_users), n_stays)
    start = rng.integers(0, 14 * DAY_SECONDS, n)
    loc = rng.integers(0, 4, n)
    users = tuple(f"u{i:04d}" for i in range(n_users))
    return Records(users, ("L0", "L1", "L2", "L3"), user, loc, start, start + rng.integers(600, 7200, n))


def stream_allowance(n_records: int) -> int:
    """Bytes an EncounterStream may hold: about 25 index and float arrays a
    record while it merges and orders the intervals (np.unique over both
    bounds, merge_intervals, the (location, start) and start orders and each
    interval's run of partners), then one block of rows, at most 16 arrays a
    row."""
    return n_records * 25 * 8 + profilecast.REPLAY_BLOCK * 16 * 8 + SLACK


def count_blocks(records: Records) -> int:
    return sum(len(block) for block in EncounterStream(records))


def test_encounter_stream_holds_one_block():
    # 410 k encounters: their five columns alone would take 16 MB, more than
    # twice the allowance, which does not grow with the encounters
    records = meeting_records(240, 100, seed=29)
    n_encounters, peak = peak_above_inputs(count_blocks, records)
    assert n_encounters > 400_000
    assert_within(peak, stream_allowance(len(records)))


def test_four_schemes_replayed_over_one_stream_hold_one_block():
    # The simulate command's replay over the same 410 k encounters: the
    # stream, walked once per scheme, one block of one scheme's scratch at a
    # time, and each scheme's receipts and results.
    records = meeting_records(240, 100, seed=29)
    rng = np.random.default_rng(29)
    n_users, n_msgs = len(records.users), 40
    messages = []
    for m in range(n_msgs):
        source, *targets = rng.choice(n_users, size=11, replace=False).tolist()
        messages.append(
            Message(f"m{m:04d}", records.users[source], frozenset(records.users[t] for t in targets), 0.0)
        )
    table = rng.uniform(size=(n_users, n_users))
    sims = upper((table + table.T) / 2)

    def replay():
        stream = EncounterStream(records)
        return [
            simulate(messages, stream, config, sims, records.users).aggregate.overhead
            for config in REPLAY_CONFIGS
        ]

    overheads, peak = peak_above_inputs(replay)
    assert min(overheads) > 0
    per_scheme = n_msgs * n_users * 128  # receipts and results, as in replay_allowance
    assert_within(peak, stream_allowance(len(records)) + profilecast.REPLAY_BLOCK * 256 + 4 * per_scheme)
