"""Property tests of the batched average-linkage engine against the old
one-argmin-per-merge loop in cluster_oracle, on tie-heavy inputs, of its cut
merge_roots against the oracle's replay of each merge list, of pairwise_l1
against scipy's cdist, and of l1_triangles against the whole squares."""

from __future__ import annotations

import math
from collections import Counter
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.spatial.distance import cdist

import cluster_oracle as oracle
from conftest import checked, count_calls, matrix_from_rows, unfold, upper
from eigenbehavior import cluster, trace
from eigenbehavior.cluster import (
    DistanceMatrix,
    agglomerate,
    l1_triangles,
    merge_histories,
    merge_roots,
    pairwise_l1,
)
from eigenbehavior.summaries import centroid_first_mode

PROPERTY = settings(max_examples=150, deadline=None)

THRESHOLDS = st.sampled_from([0.0, 0.3, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 10.0])


@st.composite
def distance_matrices(draw, max_n=12):
    """Symmetric, zero-diagonal matrices whose entries are small integers or
    values rounded to one decimal, so equal distances and tied linkages are
    common, or else plain floats."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["integer", "rounded", "float"]))
    if kind == "integer":
        cells = st.integers(0, 3).map(float)
    elif kind == "rounded":
        cells = st.floats(0, 2).map(lambda x: round(x, 1))
    else:
        cells = st.floats(0, 5, allow_subnormal=False)
    values = draw(st.lists(cells, min_size=n * n, max_size=n * n))
    upper = np.triu(np.array(values).reshape(n, n), 1)
    return upper + upper.T


def stop_rule(draw, n):
    if draw(st.booleans()):
        return {"target_count": draw(st.integers(1, n))}
    return {"threshold": draw(THRESHOLDS)}


@PROPERTY
@given(st.data())
def test_merge_history_matches_oracle(data):
    """The square's gathered triangle unfolds back into the square, and
    clusters as the oracle clusters the square, left as it was."""
    square = data.draw(distance_matrices())
    n = square.shape[0]
    dm = DistanceMatrix(upper(square), "custom", range(n))
    assert dm.values.shape == (n * (n - 1) // 2,)
    assert np.array_equal(unfold(dm), square)
    stop = stop_rule(data.draw, n)
    want = oracle.agglomerate(square, **stop)
    given_bytes = dm.values.tobytes()
    got = agglomerate(dm, **stop)
    assert dm.values.tobytes() == given_bytes
    assert got.merge_history == want.merge_history
    assert list(got.assignment.items()) == list(want.assignment.items())


@st.composite
def masked_stacks(draw):
    """A stack of distance matrices padded to one width, each with a random
    mask, and the stack of their upper-gathered triangles.  Pairs outside a
    matrix or outside its mask hold -1, smaller than any distance, so a tree
    that looked at them would merge them first."""
    dms = draw(st.lists(distance_matrices(max_n=9), min_size=1, max_size=5))
    width = max(dm.shape[0] for dm in dms)
    stack = np.full((len(dms), width, width), -1.0)
    mask = np.zeros((len(dms), width), dtype=bool)
    for b, dm in enumerate(dms):
        n = dm.shape[0]
        stack[b, :n, :n] = dm
        mask[b, :n] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        stack[b][~mask[b]] = -1.0
        stack[b][:, ~mask[b]] = -1.0
    triangles = np.array([upper(square) for square in stack]).reshape(len(dms), -1)
    return stack, triangles, mask


def record(history, width):
    """A merge list as merge_histories records it: (width, 3), NaN-padded."""
    out = np.full((width, 3), np.nan)
    out[: len(history)] = np.reshape(history, (-1, 3))
    return out


@PROPERTY
@given(masked_stacks(), st.data())
def test_one_batched_call_equals_one_call_per_matrix(stacks, data):
    """One call on the whole stack, which it only reads, records what one call
    per triangle and the oracle on each masked square record."""
    stack, triangles, mask = stacks
    width = stack.shape[1]
    stop = stop_rule(data.draw, width)
    given_bytes = triangles.tobytes()
    triangles.flags.writeable = False
    batched = merge_histories(triangles, mask, **stop)
    assert triangles.tobytes() == given_bytes
    assert np.array_equal(batched, merge_histories(triangles.copy(), mask, **stop), equal_nan=True)
    assert batched.shape == (len(stack), width, 3)
    for b, merges in enumerate(batched):
        single = merge_histories(triangles[b : b + 1], mask[b : b + 1], **stop)[0]
        assert np.array_equal(merges, single, equal_nan=True)
        taking_part = np.flatnonzero(mask[b])
        if taking_part.size == 0 or stop.get("target_count", 1) > taking_part.size:
            assert np.isnan(merges).all()
            continue
        sub = stack[b][np.ix_(taking_part, taking_part)]
        want = oracle.agglomerate(sub, **stop).merge_history
        want = [(taking_part[i], taking_part[j], d) for i, j, d in want]
        assert np.array_equal(merges, record(want, width), equal_nan=True)


@PROPERTY
@given(masked_stacks(), st.lists(THRESHOLDS, max_size=3))
def test_merge_roots_equal_the_replay_of_each_prefix(stacks, thresholds):
    """At each threshold, one below the first merge and inf, every slot's root
    is the earliest slot of its cluster in the oracle's replay of the merges
    up to the threshold; slots outside a mask stay alone."""
    stack, triangles, mask = stacks
    width = stack.shape[1]
    merges = merge_histories(triangles, mask, target_count=1)
    first = np.nanmin(merges[:, 0, 2], initial=np.inf)
    for thr in [*thresholds, first - 1.0, np.inf]:
        roots = merge_roots(merges) if thr == np.inf else merge_roots(merges, thr)
        assert roots.shape == (len(stack), width)
        for b, tree in enumerate(merges):
            prefix = [(int(i), int(j), d) for i, j, d in takewhile(lambda m: m[2] <= thr, tree.tolist())]
            want = oracle.partition_from_merges(prefix, range(width))
            earliest = [members[0] for members in want.clusters()]
            assert roots[b].tolist() == [earliest[want.assignment[s]] for s in range(width)]
        if thr < first:
            assert np.array_equal(roots, np.tile(np.arange(width), (len(stack), 1)))


def seeded_square(n: int, kind: str, seed: int) -> np.ndarray:
    """A symmetric, zero-diagonal n x n matrix of integer cells 0-3, where
    many rows share their least distance with several others, so ties are
    everywhere and a merge leaves many caches stale, or of plain floats."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 4, (n, n)).astype(float) if kind == "integer" else 3.0 * rng.random((n, n))
    triangle = np.triu(cells, 1)
    return triangle + triangle.T


def large_stops(square: np.ndarray) -> list[dict]:
    """Both stop rules: counts, and thresholds exactly at a merge level (the
    middle merge's, a level several merges share for integer cells) and
    just below it."""
    levels = [d for _, _, d in oracle.agglomerate(square, target_count=1).merge_history]
    level = levels[len(levels) // 2]
    below = float(np.nextafter(level, -np.inf))
    return [{"target_count": 1}, {"target_count": 13}, {"threshold": level}, {"threshold": below}]


@pytest.mark.parametrize("kind, seed", [("integer", 3), ("float", 4)])
def test_large_single_tree_step_equals_the_batched_step_and_the_oracle(kind, seed):
    """At n = 300, a stack of one tree (the single-tree step) records, bit
    for bit, what the same triangle stacked twice (the batched step) records
    for each copy, and what the oracle merges on the square."""
    n = 300
    square = seeded_square(n, kind, seed)
    triangle = upper(square)
    for stop in large_stops(square):
        want = record(oracle.agglomerate(square, **stop).merge_history, n).tobytes()
        single = merge_histories(triangle[None], **stop)
        batched = merge_histories(np.stack([triangle, triangle]), **stop)
        assert single.shape == (1, n, 3) and batched.shape == (2, n, 3)
        assert single[0].tobytes() == want, stop
        assert batched[0].tobytes() == want and batched[1].tobytes() == want, stop


@pytest.mark.parametrize("kind, seed", [("integer", 5), ("float", 6)])
def test_large_masked_tree_equals_the_batched_step_and_the_oracle(kind, seed):
    """A masked tree of n = 300, whose left-out pairs hold -1, smaller than
    any distance, records what the batched step records for it and what the
    oracle merges on the square of the elements taking part."""
    n = 300
    rng = np.random.default_rng(seed)
    square = seeded_square(n, kind, seed)
    mask = rng.random(n) < 0.7
    taking_part = np.flatnonzero(mask)
    sub = square[np.ix_(taking_part, taking_part)]
    square[~mask] = -1.0
    square[:, ~mask] = -1.0
    triangle = upper(square)
    for stop in large_stops(sub):
        want = oracle.agglomerate(sub, **stop).merge_history
        want = record([(taking_part[i], taking_part[j], d) for i, j, d in want], n).tobytes()
        single = merge_histories(triangle[None], mask[None], **stop)
        batched = merge_histories(np.stack([triangle, triangle]), np.stack([mask, mask]), **stop)
        assert single[0].tobytes() == want, stop
        assert batched[0].tobytes() == want and batched[1].tobytes() == want, stop


def test_one_tree_takes_the_single_tree_step(monkeypatch):
    """agglomerate's population tree and a mode-tree chunk of one masked
    tree grow through the single-tree step; a stack of two does not."""
    calls = Counter()
    count_calls(monkeypatch, cluster, "_grow_tree", calls)
    square = seeded_square(40, "float", 7)
    agglomerate(checked(square), target_count=3)
    assert calls["_grow_tree"] == 1
    matrix = matrix_from_rows(np.random.default_rng(8).dirichlet(np.ones(4), size=12))
    centroid_first_mode(matrix, 0.5)
    assert calls["_grow_tree"] == 2
    merge_histories(np.stack([upper(square)] * 2), target_count=3)
    assert calls["_grow_tree"] == 2


def spanning_values():
    """Floats of either sign whose magnitudes span 1e-8 to 1e8."""
    return st.builds(
        lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 9.999),
        st.integers(-8, 7),
    )


def row_stacks():
    """(matrices, rows, columns) stacks of spanning values."""
    return st.tuples(st.integers(1, 4), st.integers(1, 8), st.integers(1, 30)).flatmap(
        lambda shape: arrays(float, shape, elements=spanning_values())
    )


@PROPERTY
@given(row_stacks())
def test_pairwise_l1_has_cdist_bits(stack):
    got = pairwise_l1(stack, stack)
    assert got.shape == (stack.shape[0], stack.shape[1], stack.shape[1])
    assert np.array_equal(got, got.transpose(0, 2, 1))
    assert not got[:, np.arange(stack.shape[1]), np.arange(stack.shape[1])].any()
    for b in range(stack.shape[0]):
        assert np.array_equal(got[b], cdist(stack[b], stack[b], "cityblock"))


@PROPERTY
@given(
    st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 30)).flatmap(
        lambda shape: st.tuples(
            arrays(float, shape[::2], elements=spanning_values()),
            arrays(float, shape[1:], elements=spanning_values()),
        )
    )
)
def test_pairwise_l1_of_two_row_sets_has_cdist_bits(sets):
    a, b = sets
    got = pairwise_l1(a, b)
    assert np.array_equal(got, cdist(a, b, "cityblock"))
    assert np.array_equal(pairwise_l1(b, a), got.T)


@PROPERTY
@given(row_stacks(), st.integers(1, 64))
def test_l1_triangles_hold_the_bits_of_the_whole_squares(stack, block_cells):
    """Measured a few rows at a time, each matrix's triangle, and one 2-D
    matrix's, holds the i < j entries of its whole pairwise_l1 square."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace, "BLOCK_CELLS", block_cells)
        got, single = l1_triangles(stack), l1_triangles(stack[0])
    squares = pairwise_l1(stack, stack)
    assert np.array_equal(got, np.reshape([upper(square) for square in squares], got.shape))
    assert np.array_equal(single, upper(squares[0]))


def test_l1_triangles_of_one_row_are_empty():
    """One row has no pair: each matrix's triangle is empty."""
    for shape in [(1, 4), (3, 1, 4), (2, 2, 1, 4)]:
        got = l1_triangles(np.arange(math.prod(shape), dtype=float).reshape(shape))
        assert got.shape == (*shape[:-2], 0) and got.dtype == float


def test_linkage_rounding_onto_a_row_minimum_takes_the_smaller_column():
    # Row 0's minimum, 1.0, is first in column 2.  Merging 3 into 1 gives row 0
    # the linkage (a + 1) / 2, which rounds to exactly 1.0 in column 1; the
    # row-major argmin then pairs row 0 with column 1, so the cache must move.
    a = np.nextafter(1.0, 2.0)
    dm = np.array(
        [
            [0.0, a, 1.0, 1.0],
            [a, 0.0, 5.0, 0.0],
            [1.0, 5.0, 0.0, 5.0],
            [1.0, 0.0, 5.0, 0.0],
        ]
    )
    assert (a + 1.0) / 2 == 1.0
    want = oracle.agglomerate(dm, target_count=1).merge_history
    assert want[:2] == [(1, 3, 0.0), (0, 1, 1.0)]
    assert agglomerate(checked(dm), target_count=1).merge_history == want
