"""Property tests: each block-formatted array writer writes exactly the bytes of
its per-value oracle in persist_oracle, for awkward floats and ids."""

from __future__ import annotations

import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import persist_oracle as oracle
from eigenbehavior import DistanceMatrix, EigenBehaviorSet, TraceConfig, persist
from eigenbehavior.trace import AssociationMatrix

PROPERTY = settings(max_examples=150, deadline=None)

SPECIAL = (
    float("nan"),
    float("inf"),
    float("-inf"),
    -0.0,
    0.0,
    5e-324,
    -2.2250738585072014e-308,
    1e300,
    -1e-300,
    1 / 3,
    123456789.5,
    0.1,
)
FLOATS = st.one_of(st.sampled_from(SPECIAL), st.floats())
# ids that need csv quoting (comma, quote, newline), percent signs and non-ASCII
IDS = st.text(alphabet=st.sampled_from(list('ab ,"\n\r%/é;\t')), max_size=6)


def floats(draw, shape) -> np.ndarray:
    size = int(np.prod(shape))
    return np.array(draw(st.lists(FLOATS, min_size=size, max_size=size)), dtype=float).reshape(shape)


def tree(root: str) -> dict[str, bytes]:
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def same_bytes(write, oracle_write, *args) -> None:
    """write and oracle_write, each given a fresh path, leave identical files."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got"), os.path.join(tmp, "want")
        os.makedirs(got)
        os.makedirs(want)
        write(os.path.join(got, "out"), *args)
        oracle_write(os.path.join(want, "out"), *args)
        assert tree(got) == tree(want)


@st.composite
def matrix_sets(draw):
    t, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    users = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    locations = tuple(f"L{k}" for k in range(n))
    return {user: AssociationMatrix(user, floats(draw, (t, n)), locations) for user in users}


@given(matrix_sets())
@PROPERTY
def test_write_matrices_matches_oracle(matrices):
    config = TraceConfig(0, 86400, slot_seconds=3600, window=(0, 7200))
    same_bytes(persist.write_matrices, oracle.write_matrices, matrices, config)


@st.composite
def eigen_set_maps(draw):
    out = {}
    for user in draw(st.lists(IDS, min_size=1, max_size=4, unique=True)):
        if draw(st.booleans()):
            out[user] = None
            continue
        k = draw(st.integers(1, 3))
        n = draw(st.integers(k, 5))
        eset = EigenBehaviorSet(np.eye(n)[:k], np.full(k, 1.0 / k))
        # the writer formats whatever it is given, valid unit vectors or not
        object.__setattr__(eset, "vectors", floats(draw, (k, n)))
        object.__setattr__(eset, "weights", floats(draw, (k,)))
        out[user] = eset
    return out


@given(eigen_set_maps())
@PROPERTY
def test_write_eigen_sets_matches_oracle(eigen_sets):
    same_bytes(persist.write_eigen_sets, oracle.write_eigen_sets, eigen_sets)


@st.composite
def sims_tables(draw):
    ids = draw(st.lists(IDS, min_size=1, max_size=5, unique=True))
    return floats(draw, (len(ids), len(ids))), tuple(ids)


@given(sims_tables())
@PROPERTY
def test_write_sims_csv_matches_oracle(table):
    same_bytes(persist.write_sims_csv, oracle.write_sims_csv, *table)


@st.composite
def distance_matrices(draw):
    n = draw(st.integers(1, 7))
    dm = DistanceMatrix(np.zeros((n, n)), "eigen", tuple(f"u{i}" for i in range(n)))
    # the writer formats whatever it is given, in the metric's range or not
    iu, ju = np.triu_indices(n, k=1)
    dm.values[iu, ju] = dm.values[ju, iu] = floats(draw, (len(iu),))
    return dm


@given(distance_matrices())
@PROPERTY
def test_write_distance_matrix_matches_oracle(dm):
    same_bytes(persist.write_distance_matrix, oracle.write_distance_matrix, dm)


def test_write_distance_matrix_two_by_two(tmp_path):
    dm = DistanceMatrix(np.array([[0.0, 1 / 3], [1 / 3, 0.0]]), "eigen", ("a", "b,c"))
    same_bytes(persist.write_distance_matrix, oracle.write_distance_matrix, dm)
    persist.write_distance_matrix(str(tmp_path / "d.csv"), dm)
    assert (tmp_path / "d.csv").read_text() == "i,j,distance\n0,1,0.333333333\n"


@given(st.lists(FLOATS, max_size=40), st.sampled_from([1, 3, persist.CHUNK_ROWS]))
@PROPERTY
def test_write_cdf_csv_matches_oracle(samples, chunk_rows):
    with mock.patch.object(persist, "CHUNK_ROWS", chunk_rows):
        same_bytes(persist.write_cdf_csv, oracle.write_cdf_csv, np.array(samples, dtype=float))


def test_write_cdf_csv_across_chunks_and_empty(tmp_path):
    rng = np.random.default_rng(3)
    for n in (0, persist.CHUNK_ROWS, 2 * persist.CHUNK_ROWS + 7):
        samples = np.sort(rng.random(n))
        same_bytes(persist.write_cdf_csv, oracle.write_cdf_csv, samples)
    persist.write_cdf_csv(str(tmp_path / "empty.csv"), np.array([]))
    assert (tmp_path / "empty.csv").read_text() == "distance,cdf\n"
