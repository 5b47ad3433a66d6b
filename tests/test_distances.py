"""Distances: AMVD on raw matrices and the eigen-behavior similarity route.

The AMVD oracle is an exhaustive pure-Python nearest-neighbor scan; it must
agree with the vectorized production path to float precision.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from eigenbehavior import cluster, distances, persist, summaries, trace
from eigenbehavior import (
    DistanceMatrix,
    EigenBehaviorSet,
    PopulationTable,
    TraceConfig,
    amvd_distance_matrix,
    build_matrices,
    eigen_behaviors,
    eigen_distance_matrix,
    eigen_sets_for,
    sim_matrix,
    sim_triangle,
    summary_l1_distance,
    summary_vectors,
)
from eigenbehavior.trace import DAY_SECONDS

import distances_oracle as oracle
from conftest import basis_rows, matrix_from_rows, table_of, unfold, upper
from distances_oracle import amvd, amvd_distance, eigen_distance, manhattan, sim


def unit_set(*rows, weights=None):
    vectors = np.array(rows, dtype=float)
    if weights is None:
        weights = np.full(len(vectors), 1.0 / len(vectors))
    return EigenBehaviorSet(vectors, np.asarray(weights, dtype=float))


def amvd_oracle(a_rows, b_rows):
    mins = []
    for a in a_rows:
        best = None
        for b in b_rows:
            d = 0.0
            for x, y in zip(a, b):
                d += abs(float(x) - float(y))
            if best is None or d < best:
                best = d
        mins.append(best)
    return float(np.mean(np.array(mins)))


# -------------------------------------------------------------- manhattan ---


def test_manhattan():
    assert manhattan(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0
    assert manhattan(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
    with pytest.raises(ValueError):
        manhattan(np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        manhattan(np.zeros((2, 2)), np.zeros((2, 2)))


# ------------------------------------------------------------------- amvd ---


def test_amvd_is_asymmetric():
    a = np.array([[1.0, 0.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert amvd(a, b) == 0.0
    assert amvd(b, a) == 1.0  # (0 + 2) / 2
    assert amvd_distance(a, b) == 0.5


def test_amvd_offline_rows_dropped_by_default():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[1.0, 0.0]])
    assert amvd(a, b) == 0.0
    assert amvd(a, b, include_offline=True) == 0.5  # zero row sits at L1 1 from e1


def test_amvd_needs_online_rows():
    with pytest.raises(ValueError, match="nonempty"):
        amvd(np.zeros((2, 2)), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="location dimension"):
        amvd(np.ones((1, 2)), np.ones((1, 3)))


def test_amvd_matches_exhaustive_oracle():
    rng = np.random.default_rng(61)
    for _ in range(40):
        ta, tb, n = rng.integers(1, 12, size=3)
        a = rng.uniform(0.01, 1, size=(ta, n))
        a /= a.sum(axis=1, keepdims=True)
        b = rng.uniform(0.01, 1, size=(tb, n))
        b /= b.sum(axis=1, keepdims=True)
        assert amvd(a, b) == amvd_oracle(a, b)
        assert amvd_distance(a, b) == (amvd_oracle(a, b) + amvd_oracle(b, a)) / 2.0


def test_amvd_range_on_normalized_rows():
    rng = np.random.default_rng(67)
    for _ in range(50):
        a = rng.dirichlet(np.ones(6), size=5)
        b = rng.dirichlet(np.ones(6), size=7)
        assert 0.0 <= amvd_distance(a, b) <= 2.0


def test_amvd_distance_matrix_consistent_and_flags_offline():
    mats = {
        "a": matrix_from_rows(basis_rows([0, 0], 2), user_id="a"),
        "b": matrix_from_rows(basis_rows([1, None], 2), user_id="b"),
        "dead": matrix_from_rows(np.zeros((2, 2)), user_id="dead"),
    }
    dm = amvd_distance_matrix(table_of(mats))
    assert dm.ids == ("a", "b", "dead")
    assert dm.flagged_ids == ("dead",)
    assert dm.metric == "amvd"
    # the pairs (a, b), (a, dead), (b, dead)
    assert dm.values.tolist() == [amvd_distance(mats["a"].rows, mats["b"].rows), 2.0, 2.0]


@pytest.mark.parametrize(
    "include_offline,cells", [(False, 40), (False, 200), (True, 40), (True, 300)]
)
def test_amvd_distance_matrix_blocks_match_cdist_oracle(monkeypatch, include_offline, cells):
    """Every cell has the bits of the per-pair cdist oracle when each user's
    later users are cut into several blocks.  Users hold 1 to 12 online rows
    out of 14 (means over 8 or more minima take numpy's pairwise sum), in an
    order unlike their id order, and two users are never online."""
    rng = np.random.default_rng(73)
    slots, n_locations = 14, 5
    online_counts = [0, 0, *range(1, 13)]
    mats = {}
    for i, count in enumerate(rng.permutation(online_counts)):
        rows = np.zeros((slots, n_locations))
        online = rng.choice(slots, size=count, replace=False)
        rows[online] = rng.dirichlet(np.full(n_locations, 0.5), size=count)
        mats[f"u{i:02d}"] = matrix_from_rows(rows, user_id=f"u{i:02d}")
    calls = []
    kernel = distances.pairwise_l1
    monkeypatch.setattr(trace, "BLOCK_CELLS", cells)
    monkeypatch.setattr(distances, "pairwise_l1", lambda a, b: calls.append(1) or kernel(a, b))
    dm = amvd_distance_matrix(table_of(mats), include_offline=include_offline)
    live = [u for u in dm.ids if include_offline or mats[u].rows.any()]
    assert len(calls) > len(live) - 1  # some user's later users span several blocks
    assert dm.flagged_ids == tuple(u for u in dm.ids if u not in live)
    square = unfold(dm)
    for i, u in enumerate(dm.ids):
        for j, v in enumerate(dm.ids):
            if i == j:
                want = 0.0
            elif u in live and v in live:
                want = amvd_distance(mats[u].rows, mats[v].rows, include_offline)
            else:
                want = 2.0
            assert square[i, j] == want, (u, v)


# ------------------------------------------------------------- similarity ---


def test_sim_frozen_values():
    e1 = unit_set([1.0, 0.0], weights=[1.0])
    e2 = unit_set([0.0, 1.0], weights=[1.0])
    diag = unit_set([math.sqrt(0.5), math.sqrt(0.5)], weights=[1.0])
    assert sim(e1, e2) == 0.0
    assert sim(e1, e1) == 1.0
    assert sim(e1, diag) == pytest.approx(math.sqrt(0.5))
    mixed = unit_set([1.0, 0.0], [0.0, 1.0], weights=[0.7, 0.3])
    assert sim(mixed, diag) == pytest.approx(math.sqrt(0.5))
    with pytest.raises(ValueError, match="location dimension"):
        sim(e1, unit_set([1.0, 0.0, 0.0], weights=[1.0]))


def random_eigen_sets(n, seed):
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(n):
        rows = rng.uniform(0, 1, size=(10, 6))
        rows /= rows.sum(axis=1, keepdims=True)
        sets.append(eigen_behaviors(matrix_from_rows(rows), power_floor=0.0))
    return sets


def test_sim_matrix_matches_pairwise_loop(monkeypatch):
    sets = random_eigen_sets(30, seed=71)
    # blocks of 40 vectors, about 7 users: n = 30 takes the multi-block path
    monkeypatch.setattr(trace, "BLOCK_CELLS", 40 * sum(s.k for s in sets))
    blocks = list(sim_matrix(sets))
    assert len(blocks) > 1
    assert [lo for lo, _ in blocks] == list(np.cumsum([0] + [len(rows) for _, rows in blocks[:-1]]))
    got = np.vstack([rows for _, rows in blocks])
    want = np.array([[sim(u, v) for v in sets] for u in sets])
    np.testing.assert_allclose(got, want, atol=1e-12)


def gram_sets(gram):
    """One unit vector of weight 1 per user, the rows of gram's Cholesky
    factor, so that the raw similarity of users i and j is |gram[i, j]|."""
    rows = np.linalg.cholesky(np.asarray(gram, dtype=float))
    return {f"u{i}": unit_set(row, weights=[1.0]) for i, row in enumerate(rows)}


@pytest.mark.parametrize("cells", [1 << 18, 24], ids=["one-block", "blocks-of-a-few-users"])
def test_sim_triangle_equals_the_square_oracle_bit_for_bit(monkeypatch, cells):
    """Flagged users first, in the middle and last, and a dead row (a user
    whose one vector has weight 0): sim_triangle equals the square route,
    the oracle's n x n table over sim_matrix's blocks, bit for bit, in one
    block and in blocks of one user."""
    rng = np.random.default_rng(72)
    live = random_eigen_sets(20, seed=72)
    live.append(EigenBehaviorSet(np.eye(6)[:1], np.zeros(1)))  # weight 0: no similarity to anyone
    names = [f"u{i:02d}" for i in rng.permutation(len(live))]
    sets = {**dict(zip(names, live)), "a-flagged": None, "u10-flagged": None, "zz-flagged": None}
    monkeypatch.setattr(trace, "BLOCK_CELLS", cells)
    assert len(list(sim_matrix(live))) == (1 if cells > 1000 else len(live))
    with pytest.warns(UserWarning) as caught:
        values, ids = sim_triangle(sets)
    with pytest.warns(UserWarning, match="normalize_sims"):
        want, want_ids = oracle.sim_triangle(sets)
    assert ids == want_ids == tuple(sorted(sets))
    assert np.array_equal(values, want)
    dead = ids.index(names[-1])
    assert [str(w.message) for w in caught] == [f"sim_triangle: rows with no positive similarity: [{dead}]"]
    square = np.zeros((len(ids), len(ids)))
    square[np.triu_indices(len(ids), 1)] = values
    for user in ("a-flagged", "u10-flagged", "zz-flagged", names[-1]):
        at = ids.index(user)
        assert not square[at].any() and not square[:, at].any(), user
    # the eigen distances are 1 - that triangle, clipped, in place: the
    # flagged users' pairs sit at the metric maximum
    with pytest.warns(UserWarning, match="sim_triangle"):
        dm = eigen_distance_matrix(sets)
    assert np.array_equal(dm.values, np.clip(1.0 - want, 0.0, 1.0))
    assert dm.flagged_ids == ("a-flagged", "u10-flagged", "zz-flagged")
    flagged = [ids.index(u) for u in dm.flagged_ids]
    assert (unfold(dm)[flagged][:, np.delete(np.arange(len(ids)), flagged)] == cluster.METRIC_MAX["eigen"]).all()


def test_normalize_sims_frozen_table():
    # raw similarities proportional to [[5, 2, 1], [2, 3, 0.5], [1, 0.5, 2]] off the diagonal
    table, _ = oracle.normalized_sim_table(gram_sets([[1.0, 0.8, 0.4], [0.8, 1.0, 0.2], [0.4, 0.2, 1.0]]))
    np.testing.assert_allclose(
        table, [[1.0, 1.0, 0.5], [1.0, 1.0, 0.25], [1.0, 0.5, 1.0]]
    )
    # every user's closest neighbor scores exactly 1
    off = table.copy()
    np.fill_diagonal(off, -np.inf)
    assert np.all(off.max(axis=1) == 1.0)
    # sim_triangle holds the symmetrized pairs of that table
    values, _ = sim_triangle(gram_sets([[1.0, 0.8, 0.4], [0.8, 1.0, 0.2], [0.4, 0.2, 1.0]]))
    np.testing.assert_array_equal(values, upper((table + table.T) / 2.0))
    np.testing.assert_allclose(values, [1.0, 0.75, 0.375])


def test_normalize_sims_leaves_its_argument_unchanged():
    sets = gram_sets([[1.0, 0.8, 0.0], [0.8, 1.0, 0.0], [0.0, 0.0, 1.0]])
    kept = {u: (s.vectors.copy(), s.weights.copy()) for u, s in sets.items()}
    with pytest.warns(UserWarning, match="no positive similarity"):
        sim_triangle(sets)
    for u, s in sets.items():
        np.testing.assert_array_equal(s.vectors, kept[u][0])
        np.testing.assert_array_equal(s.weights, kept[u][1])


def test_normalize_sims_dead_row_warns():
    # u0 is orthogonal to both others: no positive similarity to anyone
    sets = gram_sets([[1.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.5, 1.0]])
    with pytest.warns(UserWarning, match=r"sim_triangle: rows with no positive similarity: \[0\]"):
        values, _ = sim_triangle(sets)
    np.testing.assert_allclose(values, [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="at least two"):
        sim_triangle({"u0": sets["u0"]})
    with pytest.raises(ValueError, match="at least two"):
        sim_triangle({"u0": sets["u0"], "u1": None})


def test_eigen_distance():
    assert eigen_distance(1.0, 0.5) == 0.25
    assert eigen_distance(1.0, 1.0) == 0.0
    assert eigen_distance(0.0, 0.0) == 1.0
    assert eigen_distance(1.0, 1.0 + 5e-10) == 0.0  # tolerance edge clips to range
    with pytest.raises(ValueError):
        eigen_distance(1.2, 0.5)
    with pytest.raises(ValueError):
        eigen_distance(-0.1, 0.5)


def test_eigen_distance_matrix_frozen_trio():
    sets = {
        "a": unit_set([1.0, 0.0], weights=[1.0]),
        "b": unit_set([math.sqrt(0.5), math.sqrt(0.5)], weights=[1.0]),
        "c": unit_set([0.0, 1.0], weights=[1.0]),
        "dead": None,
    }
    dm = eigen_distance_matrix(sets)
    assert dm.ids == ("a", "b", "c", "dead")
    assert dm.flagged_ids == ("dead",)
    # a and c are both nearest to b, so those links normalize to 1 -> distance 0;
    # a and c are orthogonal -> distance 1.
    a, b, c, dead = range(4)
    square = unfold(dm)
    assert square[a, b] == pytest.approx(0.0)
    assert square[b, c] == pytest.approx(0.0)
    assert square[a, c] == pytest.approx(1.0)
    assert square[a, dead] == 1.0 and square[dead, dead] == 0.0
    assert dm.metric == "eigen"
    with pytest.raises(ValueError, match="at least two"):
        eigen_distance_matrix({"a": sets["a"], "dead": None})


def test_eigen_distance_matrix_matches_scalar_oracle():
    rng = np.random.default_rng(73)
    sets = {}
    for u in range(12):
        rows = rng.uniform(0, 1, size=(8, 5))
        rows /= rows.sum(axis=1, keepdims=True)
        sets[f"u{u:02d}"] = eigen_behaviors(matrix_from_rows(rows), power_floor=0.01)
    dm = eigen_distance_matrix(sets)
    ids = dm.ids
    raw = np.array([[sim(sets[u], sets[v]) for v in ids] for u in ids])
    np.fill_diagonal(raw, -np.inf)
    table = raw / raw.max(axis=1)[:, None]  # each row over its largest similarity to another user
    np.fill_diagonal(table, 1.0)
    want = np.array(
        [[eigen_distance(table[i, j], table[j, i]) for j in range(len(ids))] for i in range(len(ids))]
    )
    np.fill_diagonal(want, 0.0)
    np.testing.assert_allclose(unfold(dm), want, atol=1e-12)


def test_sim_triangle_orders_ids():
    sets = {
        "b": unit_set([math.sqrt(0.5), math.sqrt(0.5)], weights=[1.0]),
        "a": unit_set([1.0, 0.0], weights=[1.0]),
        "c": unit_set([0.0, 1.0], weights=[1.0]),
    }
    values, ids = sim_triangle(sets)
    assert ids == ("a", "b", "c")
    assert values.shape == (3,)
    # a and c are each closest to b: (a, b) and (b, c) score 1, (a, c) 0
    np.testing.assert_allclose(values, [1.0, 0.0, 1.0])


# --------------------------------------------------------- summary L1 dms ---


def summaries_of(mats):
    table = table_of(mats)
    return summary_vectors(table, eigen_sets_for(table))


def test_summary_l1_distance_onavg_and_centroid():
    mats = {
        "a": matrix_from_rows(basis_rows([0, 0, 1], 2), user_id="a"),
        "b": matrix_from_rows(basis_rows([1, None, None], 2), user_id="b"),
    }
    summary = summaries_of(mats)
    dm = summary_l1_distance(*summary.column("onavg"), "onavg")
    assert dm.metric == "onavg"
    assert dm.values[0] == pytest.approx(4 / 3)  # (2/3,1/3) vs (0,1)
    for metric in ("centroid05", "centroid09"):
        dm_c = summary_l1_distance(*summary.column(metric), metric)
        assert dm_c.metric == metric
        assert dm_c.values[0] == pytest.approx(2.0)  # dominant modes e1 vs e2
    for name in ("median", "centroid@0.5", "onavg_l1", "eigen", "amvd", "svd", None):
        assert summary.column(name) is None


def test_summary_l1_distance_reads_its_column_in_sorted_user_order():
    """A PopulationTable holds its users sorted and unique, and refuses them
    out of order or repeated, so the summaries, their column and the
    distances all keep the table's one user order."""
    mats = {
        u: matrix_from_rows(basis_rows(slots, 3), user_id=u)
        for u, slots in (("c", [2, 2, 0]), ("a", [0, 0, 1]), ("b", [1, 1, 1]))
    }
    rows = np.stack([m.rows for m in mats.values()])
    index = mats["a"].location_index
    for users in (("c", "a", "b"), ("a", "c", "b"), ("a", "b", "b")):
        with pytest.raises(ValueError, match="users must be sorted and unique"):
            PopulationTable(users, index, rows)
    summary = summaries_of(mats)
    assert summary.ids == ("a", "b", "c")
    for metric in ("onavg", "centroid05", "centroid09"):
        kind = [name for _, name in summaries.SUMMARY_NAMES].index(metric)
        ids, column = summary.column(metric)
        assert ids == ("a", "b", "c") and np.array_equal(column, summary.vectors[:, kind])
        assert not np.shares_memory(column, summary.vectors)  # the summaries may be dropped
        dm = summary_l1_distance(ids, column, metric)
        assert dm.ids == ("a", "b", "c")
        assert np.array_equal(unfold(dm), np.abs(column[:, None] - column[None]).sum(axis=2))


def test_summary_l1_distance_excludes_offline():
    mats = {
        "a": matrix_from_rows(basis_rows([0], 2), user_id="a"),
        "b": matrix_from_rows(basis_rows([1], 2), user_id="b"),
        "dead": matrix_from_rows(np.zeros((1, 2)), user_id="dead"),
    }
    with pytest.warns(UserWarning, match=r"summary_vectors: skipped all-offline users: \['dead'\]"):
        summary = summaries_of(mats)
    dm = summary_l1_distance(*summary.column("onavg"), "onavg")
    assert dm.ids == ("a", "b")
    with pytest.raises(ValueError, match="at least two"):
        summary_l1_distance(*summaries_of({"a": mats["a"]}).column("onavg"), "onavg")


def test_summary_l1_distance_equals_the_per_pair_oracle_over_several_blocks(monkeypatch):
    """700 users over 6 locations: blocks of about 2**16 cells take 93 rows
    each, so the triangle is filled from 8 blocks.  Each pair equals the
    per-pair sum, which adds its fewer than 8 terms in column order."""
    n = 700
    vectors = np.random.default_rng(29).dirichlet(np.ones(6), size=n)
    monkeypatch.setattr(trace, "BLOCK_CELLS", 1 << 16)
    assert n // (trace.BLOCK_CELLS // (n - 1)) > 2
    dm = summary_l1_distance(tuple(f"u{i:03d}" for i in range(n)), vectors, "onavg")
    want = [manhattan(vectors[i], vectors[j]) for i, j in combinations(range(n), 2)]
    assert dm.values.tolist() == want


def test_eigen_sets_for_marks_offline_users():
    mats = {
        "a": matrix_from_rows(basis_rows([0], 2), user_id="a"),
        "dead": matrix_from_rows(np.zeros((1, 2)), user_id="dead"),
    }
    sets = eigen_sets_for(table_of(mats))
    assert sets["dead"] is None
    assert isinstance(sets["a"], EigenBehaviorSet)


def test_eigen_sets_for_a_population_without_online_users_maps_each_to_none():
    """Users, but no online row: nothing to decompose, and every user maps to None."""
    table = PopulationTable(("a", "b"), ("L0", "L1"), np.zeros((2, 3, 2)))
    assert table.live.size == 0
    assert eigen_sets_for(table) == {"a": None, "b": None}


def test_eigen_sets_for_an_empty_population_is_empty():
    """No user, or no location: nothing to decompose, and no SVD of an empty stack."""
    assert eigen_sets_for(table_of({})) == {}
    empty = build_matrices([], TraceConfig(0.0, DAY_SECONDS))
    assert len(empty) == 0 and eigen_sets_for(empty) == {}


# ---------------------------------------------------------- DistanceMatrix ---


def test_distance_matrix_validation():
    ok = np.array([1.0])
    DistanceMatrix(ok, "amvd", ("a", "b"))
    with pytest.raises(ValueError, match="the 1 pair distances of 2 ids"):
        DistanceMatrix(np.zeros((2, 2)), "amvd", ("a", "b"))
    with pytest.raises(ValueError, match="the 1 pair distances of 2 ids"):
        DistanceMatrix(np.zeros(3), "amvd", ("a", "b"))
    with pytest.raises(ValueError, match="must not be NaN"):
        DistanceMatrix(np.array([np.nan]), "amvd", ("a", "b"))
    with pytest.raises(ValueError, match="must not be NaN"):
        DistanceMatrix(np.array([np.nan]), "custom", ("a", "b"))
    with pytest.raises(ValueError, match=r"lie in \[0, 1"):
        DistanceMatrix(ok * 1.5, "eigen", ("a", "b"))
    # untagged metrics skip the range check
    DistanceMatrix(ok * 7.0, "custom", ("a", "b"))


def test_a_distance_matrix_with_a_stranger_flagged_is_refused(tmp_path):
    """Flagged ids are checked where the type is built, so the library cannot
    make, and write, a matrix its own loader refuses."""
    with pytest.raises(ValueError, match=r"flagged_ids must be among the ids; not there: \['zz'\]"):
        DistanceMatrix(np.array([0.5]), "eigen", ("a", "b"), ("zz",))
    dm = DistanceMatrix(np.array([1.0]), "eigen", ("a", "b"), ("b",))
    path = tmp_path / "distances.npy"
    persist.write_distance_matrix(str(path), dm)
    assert persist.load_distance_matrix(str(path)).flagged_ids == ("b",)
