"""Round trips and formatting for the on-disk artifact formats."""

from __future__ import annotations

import csv
import io
import json
import pickle
import re

import numpy as np
import pytest

from eigenbehavior import (
    AssociationRecord,
    DistanceMatrix,
    EigenBehaviorSet,
    Partition,
    Records,
    TraceConfig,
    load_records,
)
from conftest import matrix_from_rows, table_of, unfold
from eigenbehavior.persist import (
    fmt,
    load_distance_matrix,
    load_eigen_sets,
    load_partition_csv,
    load_trace_end,
    load_truth_csv,
    write_distance_matrix,
    write_eigen_sets,
    write_matrix_index,
    write_partition_csv,
    write_trace_csv,
    write_truth_csv,
)


def test_trace_end_reads_back_from_the_matrix_index(tmp_path):
    table = table_of({"u": matrix_from_rows(np.eye(2), user_id="u")})
    write_matrix_index(str(tmp_path), table, TraceConfig(0, 172800), {"power_floor": 0.001})
    index = json.loads((tmp_path / "index.json").read_text())
    assert (index["users"], index["t"], index["n"], index["location_index"]) == (["u"], 2, 2, ["L000", "L001"])
    assert load_trace_end(str(tmp_path / "index.json")) == 172800.0
    (tmp_path / "index.json").write_text(json.dumps({"config": {"trace_end": "172800"}}))
    with pytest.raises(ValueError, match=r"index\.json: malformed matrices index \(trace_end must be a number"):
        load_trace_end(str(tmp_path / "index.json"))


def test_fmt_nine_significant_digits():
    assert fmt(1 / 3) == "0.333333333"
    assert fmt(123456789.123) == "123456789"
    assert fmt(1.0) == "1"
    assert fmt(0.25) == "0.25"


def test_trace_csv_roundtrip(tmp_path):
    records = [
        AssociationRecord("u1", "A", 0, 100),
        AssociationRecord("u2", "B", 50, 150),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), records)
    assert load_records(str(path)).rows() == records


@pytest.mark.parametrize(
    "user, location", [("a\nb", "L"), ("a\rb", "L"), ("", "L"), ("u", "L\r\nM"), ("u", "")]
)
def test_a_record_refuses_the_ids_its_trace_could_not_load_back(tmp_path, user, location):
    """AssociationRecord applies load_records' id rule, with its message, so
    a record that can be built writes a trace that loads back."""
    path = tmp_path / "trace.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([["user", "location", "start", "end"], [user, location, 0, 10]])
    with pytest.raises(ValueError) as loaded:
        load_records(str(path))
    with pytest.raises(ValueError) as built:
        AssociationRecord(user, location, 0, 10)
    assert str(loaded.value) == f"{path}:2: {built.value}"


@pytest.mark.parametrize(
    "user, location", [("a\nb", "L"), ("a\rb", "L"), ("", "L"), ("u", "L\r\nM"), ("u", "")]
)
def test_columns_refuse_the_ids_their_trace_could_not_load_back(user, location):
    """Records built from columns apply the same rule, so write_trace_csv
    never writes a trace that load_records refuses or, for a bare carriage
    return that csv.writer leaves unquoted, reads back as a split row."""
    with pytest.raises(ValueError) as built:
        Records((user,), (location,), [0], [0], [0.0], [10.0])
    with pytest.raises(ValueError) as row:
        AssociationRecord(user, location, 0, 10)
    assert str(built.value) == str(row.value)


def test_truth_csv_roundtrip(tmp_path):
    truth = {"u2": 1, "u1": 0, "u3": 1}
    path = tmp_path / "truth.csv"
    write_truth_csv(str(path), truth)
    assert load_truth_csv(str(path)) == truth
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError, match="bad header"):
        load_truth_csv(str(bad))


@pytest.mark.parametrize(
    "body, message",
    [
        ("user,group\nu1\n", r"truth\.csv:2: expected 2 fields"),
        ("user,group\nu1,0\nu2,0,1\n", r"truth\.csv:3: expected 2 fields"),
        ("user,group\nu1,0\nu2,g\n", r"truth\.csv:3: group is not an integer: 'g'"),
        ("user,group\nu1,0\nu2,1\nu1,1\n", r"truth\.csv:4: duplicate user 'u1'"),
        ("user,group\nu1,0\n,1\n", r"truth\.csv:3: record has empty user_id"),
        ('user,group\nu1,0\n"u\r2",1\n', r"truth\.csv:3: user id 'u\\r2' contains a line break"),
    ],
)
def test_truth_csv_errors_name_path_and_line(tmp_path, body, message):
    path = tmp_path / "truth.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        load_truth_csv(str(path))


def test_eigen_sets_roundtrip(tmp_path):
    r = 1 / np.sqrt(2)
    sets = {
        "alpha": EigenBehaviorSet(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.8, 0.2])),
        "beta/slash": EigenBehaviorSet(np.array([[r, r]]), np.array([1.0])),
        "dead": None,
    }
    path = str(tmp_path / "eigen.csv")
    write_eigen_sets(path, sets, ("A", "B"))
    assert (tmp_path / "eigen.csv").read_text().splitlines() == [
        "user,weight,A,B",
        "alpha,0.8,1,0",
        "alpha,0.2,0,1",
        "beta/slash,1,0.707106781,0.707106781",
    ]
    loaded = load_eigen_sets(path)
    assert set(loaded) == {"alpha", "beta/slash"}  # None entries are not written
    np.testing.assert_allclose(loaded["alpha"].weights, [0.8, 0.2])
    np.testing.assert_allclose(loaded["beta/slash"].vectors, [[r, r]], atol=1e-9)
    write_eigen_sets(path, {"dead": None}, ("A", "B"))
    assert (tmp_path / "eigen.csv").read_text() == "user,weight,A,B\n"
    assert load_eigen_sets(path) == {}


EIGEN_HEADER = "user,weight,A,B\n"


@pytest.mark.parametrize(
    "body, message",
    [
        # the format before the power floor moved to index.json: never read one column shifted
        ("user,power_floor,weight,A,B\na,0.001,1,1,0\n", r"eigen\.csv: bad header \['user', 'power_floor'"),
        ("user,A,B\na,1,0\n", r"eigen\.csv: bad header \['user', 'A'"),
        (EIGEN_HEADER + "a,1,1\n", r"eigen\.csv:2: expected 4 fields, got 3"),
        (
            EIGEN_HEADER + "a,0.6,1,0\na,0.4,x,1\n",
            r"eigen\.csv: eigen-behavior table holds a non-number at \S*eigen\.csv:3 ",
        ),
        (
            EIGEN_HEADER + "a,0.6,1,0\nb,1,0,1\na,0.4,0,1\n",
            r"eigen\.csv:4: rows of user 'a' are not contiguous",
        ),
        (
            EIGEN_HEADER + "a,1,1,0\nb,1,0.5,0.5\n",
            r"eigen\.csv:3: bad eigen-behavior set of user 'b' \(eigen-behavior vectors must be unit",
        ),
        (
            EIGEN_HEADER + "a,1,1,0\nb,0.6,0,1\nb,0.4,nan,0\n",
            r"eigen\.csv:3: bad eigen-behavior set of user 'b' \(eigen-behavior vectors must be unit",
        ),
        (
            EIGEN_HEADER + "a,1,1,0\nb,0.4,1,0\nb,0.6,0,1\n",
            r"eigen\.csv:3: bad eigen-behavior set of user 'b' \(weights must be in decreasing order\)",
        ),
        (
            EIGEN_HEADER + "a,1,1,0\nb,nan,0,1\n",
            r"eigen\.csv:3: bad eigen-behavior set of user 'b' \(weights must be nonnegative with sum <= 1\)",
        ),
        (
            EIGEN_HEADER + "a,-0.5,1,0\n",
            r"eigen\.csv:2: bad eigen-behavior set of user 'a' \(weights must be nonnegative with sum <= 1\)",
        ),
    ],
)
def test_eigen_sets_errors_name_path_and_line(tmp_path, body, message):
    path = tmp_path / "eigen.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        load_eigen_sets(str(path))


def test_distance_matrix_roundtrip(tmp_path):
    """The triangle is stored as float64 .npy, so every bit comes back, and
    the loaded values are the stored array itself."""
    values = np.array([0.25, 1 / 3, np.nextafter(0.5, 1)])
    dm = DistanceMatrix(values, "eigen", ("a", "b", "dead"), ("dead",))
    path = str(tmp_path / "distances.npy")
    write_distance_matrix(path, dm)
    with open(path + ".json") as fh:
        assert json.load(fh) == {"ids": ["a", "b", "dead"], "metric": "eigen", "flagged_ids": ["dead"]}
    assert np.load(path, allow_pickle=False).tobytes() == values.tobytes()
    loaded = load_distance_matrix(path)
    assert np.array_equal(loaded.values, np.load(path, allow_pickle=False))
    assert loaded.values.tobytes() == values.tobytes()
    assert loaded.metric == "eigen"
    assert tuple(loaded.ids) == ("a", "b", "dead")
    assert loaded.flagged_ids == ("dead",)


@pytest.mark.parametrize("n", [0, 1])
def test_empty_distance_matrix_roundtrip(tmp_path, n):
    """A bounded metric's 0 x 0 matrix has no values to range-check; it and
    the 1 x 1 matrix write an empty triangle and load back."""
    path = str(tmp_path / "distances.npy")
    ids = tuple(f"u{i}" for i in range(n))
    write_distance_matrix(path, DistanceMatrix(np.zeros(0), "eigen", ids))
    assert np.load(path, allow_pickle=False).shape == (0,)
    loaded = load_distance_matrix(path)
    assert loaded.values.shape == (0,)
    assert unfold(loaded).shape == (n, n)
    assert loaded.metric == "eigen"
    assert loaded.ids == ids


def _saved(save, *args, **kwargs) -> bytes:
    buf = io.BytesIO()
    save(buf, *args, **kwargs)
    return buf.getvalue()


THREE = np.array([0.5, 0.5, 0.5])


@pytest.mark.parametrize(
    "body, message",
    [
        (_saved(np.save, THREE[:2]), r": values must be the 3 pair distances of 3 ids"),
        (_saved(np.save, np.append(THREE, 0.5)), r": values must be the 3 pair distances of 3 ids"),
        (_saved(np.save, THREE[None]), r": expected a 1-D float64 array"),
        (_saved(np.save, np.array([0, 1, 1])), r": expected a 1-D float64 array"),
        (_saved(np.save, THREE.astype(np.float32)), r": expected a 1-D float64 array"),
        (
            _saved(np.save, THREE.astype(object), allow_pickle=True),
            r": not a \.npy array \(Object arrays cannot be loaded when allow_pickle=False\)",
        ),
        (pickle.dumps(THREE), r": not a \.npy array \(This file contains pickled \(object\) data"),
        (b"i,j,distance\n0,1,0.5\n0,2,0.5\n1,2,0.5\n", r": not a \.npy array"),
        (b"", r": not a \.npy array"),
        (_saved(np.savez, THREE), r": expected a 1-D float64 array"),
        (_saved(np.save, np.array([0.5, np.nan, 0.5])), r": distances must not be NaN"),
        (_saved(np.save, np.array([0.5, 1.5, 0.5])), r": eigen distances must lie in \[0, 1\.0\]"),
        (_saved(np.save, np.array([0.5, -0.5, 0.5])), r": eigen distances must lie in \[0, 1\.0\]"),
        # a dict replaces those keys of the sidecar
        ({"ids": ["a", "a", "c"]}, r": ids must be distinct; repeated: \['a'\]"),
        ({"ids": "abc"}, r"\.json: malformed distance matrix sidecar \(ids must be a list of strings\)"),
        ({"ids": [1, 2, 3]}, r"\.json: malformed distance matrix sidecar \(ids must be a list of strings\)"),
        ({"flagged_ids": "c"}, r"\.json: malformed distance matrix sidecar \(flagged_ids must be a list of strings\)"),
        ({"metric": ["eigen"]}, r"\.json: malformed distance matrix sidecar \(metric must be a string, got \['eigen'\]\)"),
        ({"metric": 5}, r"\.json: malformed distance matrix sidecar \(metric must be a string, got 5\)"),
        ({"flagged_ids": ["nobody"]}, r": flagged_ids must be among the ids; not there: \['nobody'\]"),
        ({"metirc": "eigen"}, r"\.json: malformed distance matrix sidecar \(unknown key 'metirc'"),
        ({"params": {"power_floor": 0.001}}, r"\.json: malformed distance matrix sidecar \(unknown key 'params'"),
    ],
    ids=[
        "short", "long", "2-d", "int", "float32", "object", "pickle", "csv", "empty", "npz", "nan", "above", "below",
        "ids-repeat", "ids-string", "ids-numbers", "flagged-ids-string", "metric-list", "metric-number",
        "flagged-ids-unknown", "misspelt-key", "old-params",
    ],
)
def test_distance_matrix_refusals_name_the_path(tmp_path, body, message):
    path = tmp_path / "distances.npy"
    write_distance_matrix(str(path), DistanceMatrix(np.zeros(3), "eigen", ("a", "b", "c")))
    if isinstance(body, dict):
        sidecar = tmp_path / "distances.npy.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **body}))
    else:
        path.write_bytes(body)
    with pytest.raises(ValueError, match=re.escape(str(path)) + message):
        load_distance_matrix(str(path))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_an_infinite_stored_distance_is_refused_naming_the_path(tmp_path, bad):
    """Under a metric outside METRIC_MAX no range check stands in."""
    path = tmp_path / "distances.npy"
    write_distance_matrix(str(path), DistanceMatrix(THREE, "custom", ("a", "b", "c")))
    path.write_bytes(_saved(np.save, np.array([0.5, bad, 0.5])))
    with pytest.raises(ValueError, match=re.escape(str(path)) + r": distances must not be NaN or infinite"):
        load_distance_matrix(str(path))


def test_truncated_distance_file_names_the_path(tmp_path):
    """A file cut short in its header or in its data is refused."""
    path = tmp_path / "distances.npy"
    write_distance_matrix(str(path), DistanceMatrix(np.full(6, 0.5), "eigen", "abcd"))
    whole = path.read_bytes()
    for cut in (len(whole) - 8, 100, 20, 5):
        path.write_bytes(whole[:cut])
        with pytest.raises(ValueError, match=re.escape(str(path)) + r": not a \.npy array"):
            load_distance_matrix(str(path))


def test_partition_csv_roundtrip(tmp_path):
    partition = Partition(assignment={"u1": 0, "u2": 0, "u3": 1})
    path = str(tmp_path / "partition.csv")
    write_partition_csv(path, partition)
    loaded = load_partition_csv(path)
    assert loaded.assignment == partition.assignment
    empty = tmp_path / "empty.csv"
    empty.write_text("element,cluster\n")
    with pytest.raises(ValueError, match="empty partition"):
        load_partition_csv(str(empty))
    duplicate = tmp_path / "duplicate.csv"
    duplicate.write_text("element,cluster\nu1,0\nu2,0\nu1,1\n")
    with pytest.raises(ValueError, match=r"duplicate\.csv:4: duplicate element 'u1'"):
        load_partition_csv(str(duplicate))
    not_int = tmp_path / "not_int.csv"
    not_int.write_text("element,cluster\nu1,0\nu2,x\n")
    with pytest.raises(ValueError, match=r"not_int\.csv:3: cluster is not an integer: 'x'"):
        load_partition_csv(str(not_int))


def test_loaders_name_the_line_a_multiline_row_starts_on(tmp_path):
    partition = tmp_path / "partition.csv"
    partition.write_bytes(b'element,cluster\n"u\n1",x\n')
    with pytest.raises(ValueError, match=r"partition\.csv:2: cluster is not an integer: 'x'"):
        load_partition_csv(str(partition))
    eigen = tmp_path / "eigen.csv"
    eigen.write_bytes(b'user,weight,A,B\na,1,1,0\n"b\n",x,1,0\n')
    with pytest.raises(ValueError, match=r"eigen\.csv:3 \(could not convert string to float: 'x'\)"):
        load_eigen_sets(str(eigen))
