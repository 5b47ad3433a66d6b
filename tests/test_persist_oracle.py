"""Property tests, for awkward floats and ids: the block-formatted eigen.csv
writer writes exactly the bytes of its per-value oracle in persist_oracle, and
distances.npy holds exactly the bits of a per-pair loop over the triangle."""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import persist_oracle as oracle
from conftest import unfold
from eigenbehavior import DistanceMatrix, EigenBehaviorSet, persist

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
def eigen_set_maps(draw):
    n = draw(st.integers(1, 5))
    locations = draw(st.lists(IDS, min_size=n, max_size=n, unique=True))
    out = {}
    for user in draw(st.lists(IDS, min_size=1, max_size=4, unique=True)):
        if draw(st.booleans()):
            out[user] = None
            continue
        k = draw(st.integers(1, n))
        eset = EigenBehaviorSet(np.eye(n)[:k], np.full(k, 1.0 / k))
        # the writer formats whatever it is given, valid unit vectors or not
        object.__setattr__(eset, "vectors", floats(draw, (k, n)))
        object.__setattr__(eset, "weights", floats(draw, (k,)))
        out[user] = eset
    return out, locations


@given(eigen_set_maps())
@PROPERTY
def test_write_eigen_sets_matches_oracle(eigen_sets):
    same_bytes(persist.write_eigen_sets, oracle.write_eigen_sets, *eigen_sets)


@st.composite
def distance_matrices(draw):
    n = draw(st.integers(0, 7))
    dm = DistanceMatrix(np.zeros(n * (n - 1) // 2), "eigen", tuple(f"u{i}" for i in range(n)))
    # the writer stores whatever it is given, in the metric's range or not
    for k in range(len(dm.values)):
        dm.values[k] = draw(FLOATS)
    return dm


@given(distance_matrices())
@PROPERTY
def test_write_distance_matrix_stores_every_bit_in_pair_order(dm):
    """distances.npy holds the i < j pairs, row-major, bit for bit."""
    square = unfold(dm)
    want = np.array([square[i, j] for i in range(dm.n) for j in range(i + 1, dm.n)], dtype=np.float64)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "distances.npy")
        persist.write_distance_matrix(path, dm)
        got = np.load(path, allow_pickle=False)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
