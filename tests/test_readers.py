"""The two checked readers: every CSV loader names the file and the line a bad
row starts on, and every JSON document error names the file."""

from __future__ import annotations

import locale

import pytest

from eigenbehavior.persist import (
    load_eigen_sets,
    load_partition_csv,
    load_truth_csv,
)
from eigenbehavior.trace import load_location_map, load_records, read_csv, read_json

# loader, header, one valid row
LOADERS = {
    "trace": (load_records, "user,location,start,end", "u1,A,0,5"),
    "locmap": (load_location_map, "ap,building", "ap1,B1"),
    "truth": (load_truth_csv, "user,group", "u1,0"),
    "partition": (load_partition_csv, "element,cluster", "u1,0"),
    "eigen": (load_eigen_sets, "user,weight,A,B", "a,1,1,0"),
}


def _write(tmp_path, kind: str, body: bytes) -> str:
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(body)
    return str(path)


def _cases():
    for kind, (_, header, row) in LOADERS.items():
        cells = row.split(",")
        width = len(cells)
        short = ",".join(cells[:-1])
        multiline = ",".join(['"x\ny"'] + cells[1:-1])  # starts on line 3, ends on 4
        yield kind, f"x{header}\n{row}\n", ": bad header "
        yield kind, f"{header}\n{row}\n{short}\n", f":3: expected {width} fields, got {width - 1}"
        yield kind, f"{header}\n{row},9\n", f":2: expected {width} fields, got {width + 1}"
        yield kind, f"{header}\n{row}\n{multiline}\n", f":3: expected {width} fields, got {width - 1}"


@pytest.mark.parametrize("kind, body, message", list(_cases()))
def test_loaders_name_path_and_line(tmp_path, kind, body, message):
    path = _write(tmp_path, kind, body.encode())
    with pytest.raises(ValueError) as err:
        LOADERS[kind][0](path)
    assert str(err.value).startswith(path + message)


def test_read_csv_numbers_rows_by_their_first_line(tmp_path):
    path = _write(tmp_path, "plain", b'a,b\n"1\n2",3\n4,5\n6,"7\r\n8"\n9,10\n')
    assert list(read_csv(path, ("a", "b"))) == [
        (2, ["1\n2", "3"]),
        (4, ["4", "5"]),
        (5, ["6", "7\r\n8"]),
        (7, ["9", "10"]),
    ]


def test_read_csv_without_a_header_yields_it_as_line_one(tmp_path):
    path = _write(tmp_path, "plain", b"user,a\na,1\n")
    assert list(read_csv(path, None)) == [(1, ["user", "a"]), (2, ["a", "1"])]
    empty = _write(tmp_path, "empty", b"")
    assert list(read_csv(empty, None)) == []
    with pytest.raises(ValueError, match=r"empty\.csv: bad header None, expected user,a"):
        list(read_csv(empty, ("user", "a")))


def test_read_csv_names_the_path_of_an_unreadable_file(tmp_path):
    path = _write(tmp_path, "huge", b"a\n" + b"x" * 200_000 + b"\n")
    with pytest.raises(ValueError, match=r"huge\.csv: field larger than field limit"):
        list(read_csv(path, ("a",)))
    if locale.getpreferredencoding(False).lower().replace("-", "") != "utf8":
        pytest.skip("files are not decoded as UTF-8 here")
    path = _write(tmp_path, "binary", b"a\n\xff\xfe\n")
    with pytest.raises(ValueError, match=r"binary\.csv: 'utf-8' codec can't decode"):
        list(read_csv(path, ("a",)))


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", r": invalid JSON \(Expecting property name"),
        ("", r": invalid JSON \(Expecting value"),
        ("[]", r": expected a JSON object, got list"),
        ('"spec"', r": expected a JSON object, got str"),
        ("{}", r": malformed thing \('n'\)"),
        ('{"n": "x"}', r": malformed thing \(invalid literal for int"),
        ('{"n": []}', r": malformed thing \(int\(\) argument must be"),
    ],
)
def test_read_json_names_the_path(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"doc\.json" + message):
        read_json(str(path), "thing", lambda raw: int(raw["n"]))


def test_read_json_returns_what_parse_makes(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"n": "7"}')
    assert read_json(str(path), "thing", lambda raw: int(raw["n"])) == 7
