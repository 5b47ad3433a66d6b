"""eigen_sets_for, which decomposes a block of users with one stacked SVD,
against the one-SVD-a-matrix oracle in summaries_oracle: every kept vector,
weight and singular value must be equal with ==, no tolerance, at any BLAS
thread count (the oracle and the package run at the same one); and the
population table's online mask against AssociationMatrix.online."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import summaries_oracle as oracle
from conftest import count_calls, matrix_from_rows, table_of
from eigenbehavior import (
    GroupSpec,
    PopulationTable,
    SynthSpec,
    TraceConfig,
    build_matrices,
    eigen_sets_for,
    generate,
    single_location_modes,
    summaries,
    trace,
)
from eigenbehavior.summaries import eigen_behaviors, eigen_decompositions
from eigenbehavior.trace import DAY_SECONDS

SLOTS, LOCATIONS = 12, 6
# stacked input and SVD output cells a user counts in eigen_sets_for's blocks
USER_CELLS = SLOTS * LOCATIONS + LOCATIONS * (SLOTS + LOCATIONS + 1)


def population() -> PopulationTable:
    """60 users of 12 slots over 6 locations, each slot offline with a
    user's own probability: "dead" is all offline, "one" has one online
    row, and "tied" has the rows (0.8, 0.2) and (0.2, 0.8), whose second
    eigen-behavior is (1, -1) / sqrt(2) up to sign, a largest magnitude
    held by two entries of opposite sign."""
    rng = np.random.default_rng(31)
    rows = {}
    for i in range(57):
        cells = rng.dirichlet(np.full(LOCATIONS, 0.4), size=SLOTS)
        cells[rng.random(SLOTS) < rng.uniform(0.0, 0.6)] = 0.0
        rows[f"u{i:02d}"] = cells
    rows["dead"] = np.zeros((SLOTS, LOCATIONS))
    rows["one"] = np.zeros((SLOTS, LOCATIONS))
    rows["one"][4] = rng.dirichlet(np.ones(LOCATIONS))
    rows["tied"] = np.zeros((SLOTS, LOCATIONS))
    rows["tied"][0, :2] = 0.8, 0.2
    rows["tied"][1, :2] = 0.2, 0.8
    return table_of({user: matrix_from_rows(cells, user) for user, cells in rows.items()})


@pytest.mark.parametrize("power_floor", [0.0, summaries.DEFAULT_POWER_FLOOR, 0.2])
@pytest.mark.parametrize("per_block", [1, 7, 1000])
def test_eigen_sets_equal_one_svd_a_matrix_bit_for_bit(monkeypatch, power_floor, per_block):
    """Blocks of 1, 7 and every user: each set's vectors and weights, and
    each online user's singular values, equal the oracle's."""
    monkeypatch.setattr(trace, "BLOCK_CELLS", per_block * USER_CELLS)
    matrices = population()
    want = oracle.eigen_sets_for(matrices, power_floor)
    vectors, _, _ = want["tied"]
    lead = np.abs(vectors[1])
    assert lead[0] == lead[1] == lead.max() and vectors[1, 0] == -vectors[1, 1]  # the tie is there
    calls = Counter()
    count_calls(monkeypatch, summaries, "eigen_decompositions", calls)
    got = eigen_sets_for(matrices, power_floor)
    assert calls["eigen_decompositions"] == -(-59 // per_block)  # the 59 online users' blocks
    assert list(got) == list(matrices) and got["dead"] is None and want["dead"] is None
    for user, eigen in got.items():
        if eigen is not None:
            assert eigen.vectors.tobytes() == want[user][0].tobytes(), user
            assert eigen.weights.tobytes() == want[user][1].tobytes(), user
    live = [u for u in matrices.users if want[u] is not None]
    sets, s = eigen_decompositions(matrices.rows[matrices.places(live)], power_floor)
    assert s.tobytes() == np.array([want[u][2] for u in live]).tobytes()
    assert [e.vectors.tobytes() for e in sets] == [got[u].vectors.tobytes() for u in live]
    for user in ("one", "tied", "u00"):
        (eigen,), values = eigen_decompositions(matrices[user].rows[None], power_floor)
        assert eigen.vectors.tobytes() == want[user][0].tobytes() and values[0].tobytes() == want[user][2].tobytes()
        assert eigen_behaviors(matrices[user], power_floor).vectors.tobytes() == want[user][0].tobytes()


def test_eigen_sets_of_a_built_population_equal_the_oracle(mixed_population):
    """200 users of 60 daily slots over 40 locations, from build_matrices,
    in the package's own blocks."""
    matrices, _ = mixed_population
    want = oracle.eigen_sets_for(matrices, summaries.DEFAULT_POWER_FLOOR)
    got = eigen_sets_for(matrices)
    assert [u for u, s in got.items() if s is None] == [u for u, s in want.items() if s is None]
    for user, eigen in got.items():
        if eigen is not None:
            assert eigen.vectors.tobytes() == want[user][0].tobytes(), user
            assert eigen.weights.tobytes() == want[user][1].tobytes(), user


@pytest.mark.parametrize("normalization", ["normalized", "absolute"])
def test_table_online_mask_is_each_matrix_online(normalization):
    """The table's mask, computed once, marks the slots that each user's
    AssociationMatrix.online marks, for users offline on some of the
    trace's days and on none of them."""
    groups = (
        GroupSpec(6, single_location_modes(4, [0, 1]), (0.6, 0.4), p_online=0.5),
        GroupSpec(3, single_location_modes(4, [2]), (1.0,), p_online=1.0),
    )
    records, _ = generate(SynthSpec(n_locations=4, n_days=10, groups=groups, seed=4, noise_epsilon=0.05))
    # a trace end past the last day leaves every user offline on the last slots
    table = build_matrices(records, TraceConfig(0.0, 12 * DAY_SECONDS, normalization=normalization))
    counts = table.online.sum(axis=1)
    assert counts.min() < counts.max() == 10
    assert not table.online.flags.writeable and not table.rows.flags.writeable
    for i, user in enumerate(table.users):
        matrix = table[user]
        assert np.shares_memory(matrix.rows, table.rows)
        assert np.array_equal(table.online[i], matrix.online), user
        assert np.array_equal(table.online[i], matrix.rows.sum(axis=1) > 0), user
