"""Command-line flows: synth -> pipeline -> simulate -> compare, error exits,
and byte-identical reruns of every data output."""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest

import eigenbehavior
from conftest import benchmark_spec, count_calls, digest_tree, profile_half_config
from eigenbehavior import (
    DAY_SECONDS,
    EncounterStream,
    build_matrices,
    build_messages,
    distance_cdfs,
    jaccard,
    load_records,
    split_trace,
)
from eigenbehavior import cli, pipeline, summaries, trace
from eigenbehavior.cli import _pipeline_config, main
from eigenbehavior.pipeline import METRICS, run_pipeline
from eigenbehavior.persist import (
    load_distance_matrix,
    load_eigen_sets,
    load_partition_csv,
    load_truth_csv,
)


SPEC = {
    "n_locations": 4,
    "n_days": 8,
    "seed": 5,
    "noise_epsilon": 0.02,
    "groups": [
        {
            "size": 8,
            "p_online": 0.9,
            "modes": [{"weights": [1.0, 0.0, 0.0, 0.0], "prob": 1.0}],
        },
        {
            "size": 8,
            "p_online": 0.9,
            "modes": [{"weights": [0.0, 1.0, 0.0, 0.0], "prob": 1.0}],
        },
        {
            "size": 8,
            "p_online": 0.9,
            "modes": [{"weights": [0.0, 0.0, 1.0, 0.0], "prob": 1.0}],
        },
    ],
}

SKIP = ("manifest.json",)  # its created_utc differs between runs

# every file a pipeline run writes; none is named after a user
PIPELINE_FILES = {
    os.path.join("matrices", "index.json"),
    "eigen.csv",
    "distances.npy",
    "distances.npy.json",
    "partition.csv",
    "merges.csv",
    "summary.csv",
    "report.json",
    "manifest.json",
}

# every file a simulate run writes
SIMULATE_FILES = {"results.csv", "normalized.csv", "report.json", "manifest.json"}

SCENARIO = {
    "split_fraction": 0.5,
    "schemes": [
        {"scheme": "flooding"},
        {"scheme": "centralized"},
        {"scheme": "similarity", "sim_threshold": 0.5},
        {"scheme": "rtx", "p": 1.0, "ttl_factor": 3},
    ],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth + pipeline run on the profile half, shared by the downstream
    command tests."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    scenario_path = root / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    synth_dir = root / "synth"
    assert main(["synth", str(spec_path), "--out", str(synth_dir)]) == 0
    config_path = root / "config.json"
    config = profile_half_config(load_records(str(synth_dir / "trace.csv")))
    config_path.write_text(json.dumps(config))
    pipe_dir = root / "pipe"
    assert (
        main(
            [
                "pipeline",
                str(synth_dir / "trace.csv"),
                "--config",
                str(config_path),
                "--clusters",
                "3",
                "--out",
                str(pipe_dir),
            ]
        )
        == 0
    )
    return root


def test_synth_outputs(workdir):
    synth_dir = workdir / "synth"
    records = load_records(str(synth_dir / "trace.csv"))
    truth = load_truth_csv(str(synth_dir / "truth.csv"))
    assert len(truth) == 24
    assert set(records.users) <= set(truth)
    manifest = json.loads((synth_dir / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 5
    assert "created_utc" in manifest and "config_hash" in manifest


def test_synth_seed_override(workdir, tmp_path):
    spec_path = workdir / "spec.json"
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["synth", str(spec_path), "--seed", "7", "--out", str(a)]) == 0
    assert main(["synth", str(spec_path), "--seed", "7", "--out", str(b)]) == 0
    assert main(["synth", str(spec_path), "--out", str(c)]) == 0
    assert digest_tree(a, SKIP) == digest_tree(b, SKIP)
    assert digest_tree(a, SKIP) != digest_tree(c, SKIP)  # spec seed 5 vs override 7
    # --seed 0 overrides the spec's seed 5 too
    seed_0 = tmp_path / "spec-seed-0.json"
    seed_0.write_text(json.dumps({**SPEC, "seed": 0}))
    zero, spec_zero = tmp_path / "zero", tmp_path / "spec-zero"
    assert main(["synth", str(spec_path), "--seed", "0", "--out", str(zero)]) == 0
    assert main(["synth", str(seed_0), "--out", str(spec_zero)]) == 0
    assert digest_tree(zero, SKIP) == digest_tree(spec_zero, SKIP)
    assert digest_tree(zero, SKIP) != digest_tree(c, SKIP)
    assert json.loads((zero / "manifest.json").read_text())["seed"] == 0


def test_pipeline_outputs_and_recovers_truth(workdir):
    pipe_dir = workdir / "pipe"
    assert set(digest_tree(pipe_dir)) == PIPELINE_FILES
    partition = load_partition_csv(str(pipe_dir / "partition.csv"))
    truth = load_truth_csv(str(workdir / "synth" / "truth.csv"))
    from eigenbehavior import partition_from_labels

    assert len(partition.sizes()) == 3
    assert jaccard(partition, partition_from_labels(truth)) == 1.0
    report = json.loads((pipe_dir / "report.json").read_text())
    assert len(report["clusters"]) == 3


def test_pipeline_writes_a_long_user_id_into_its_rows(workdir, tmp_path):
    """A user id is a cell, never a file name: 100 x 'é' quotes to a
    600-character name, longer than a file name may be."""
    long_id = "é" * 100
    trace = tmp_path / "trace.csv"
    text = (workdir / "synth" / "trace.csv").read_text(encoding="utf-8")
    trace.write_text(text.replace("\nu00000,", f"\n{long_id},"), encoding="utf-8")
    out = tmp_path / "pipe"
    argv = ["pipeline", str(trace), "--config", str(workdir / "config.json")]
    assert main(argv + ["--clusters", "3", "--out", str(out)]) == 0
    assert set(digest_tree(out)) == PIPELINE_FILES
    # the renamed user takes u00000's place in the index, and its eigen set is
    # that of u00000 in the fixture run
    index = json.loads((out / "matrices" / "index.json").read_text(encoding="utf-8"))
    fixture_index = json.loads((workdir / "pipe" / "matrices" / "index.json").read_text(encoding="utf-8"))
    assert long_id in index["users"] and "u00000" not in index["users"]
    assert sorted(long_id if u == "u00000" else u for u in fixture_index["users"]) == index["users"]
    assert {**index, "users": None} == {**fixture_index, "users": None}
    assert index["t"] == 5  # one row per day of the profile half
    loaded = load_eigen_sets(str(out / "eigen.csv"))
    fixture = load_eigen_sets(str(workdir / "pipe" / "eigen.csv"))
    assert long_id in loaded and "u00000" not in loaded
    np.testing.assert_array_equal(loaded[long_id].vectors, fixture["u00000"].vectors)
    np.testing.assert_array_equal(loaded[long_id].weights, fixture["u00000"].weights)


@pytest.mark.parametrize("metric", ["eigen", "amvd"])
def test_reloaded_distances_give_exact_cdfs(workdir, tmp_path, metric):
    """distances.npy reloads bit for bit, so the within- and between-group
    distance CDFs of a run directory are those of a matrix recomputed in
    process."""
    out = workdir / "pipe"
    trace, config_path = str(workdir / "synth" / "trace.csv"), str(workdir / "config.json")
    if metric != "eigen":
        out = tmp_path / metric
        argv = ["pipeline", trace, "--config", config_path, "--metric", metric, "--clusters", "3"]
        assert main(argv + ["--out", str(out)]) == 0
    records = load_records(trace)
    _, config, options = _pipeline_config(json.loads((workdir / "config.json").read_text()), records)
    result = run_pipeline(build_matrices(records, config), metric=metric, target_count=3, **options)
    loaded = load_distance_matrix(str(out / "distances.npy"))
    assert loaded.ids == result.distance_matrix.ids and loaded.metric == metric
    assert loaded.values.tobytes() == result.distance_matrix.values.tobytes()
    assert np.array_equal(loaded.values, np.load(out / "distances.npy"))
    got = distance_cdfs(load_partition_csv(str(out / "partition.csv")), loaded)
    want = distance_cdfs(result.partition, result.distance_matrix)
    assert [cdf.tobytes() for cdf in got] == [cdf.tobytes() for cdf in want]
    assert all(len(cdf) for cdf in got)


@pytest.mark.parametrize("locmap", [False, True])
def test_pipeline_drops_the_trace_before_clustering(workdir, tmp_path, monkeypatch, locmap):
    """cmd_pipeline builds the population table and then drops the trace's
    Records, as loaded and as aggregated to buildings: none is alive when
    agglomerate starts, the stage at which a run peaks."""
    refs, alive = [], []

    def keeping_refs(fn):
        def call(*args):
            records = fn(*args)
            refs.append(weakref.ref(records))
            return records

        return call

    def clustering(*args, **kwargs):
        alive.append([ref() is not None for ref in refs])
        return agglomerate(*args, **kwargs)

    agglomerate = pipeline.agglomerate
    monkeypatch.setattr(cli, "load_records", keeping_refs(cli.load_records))
    monkeypatch.setattr(cli, "aggregate_locations", keeping_refs(cli.aggregate_locations))
    monkeypatch.setattr(pipeline, "agglomerate", clustering)
    argv = ["pipeline", str(workdir / "synth" / "trace.csv"), "--config", str(workdir / "config.json")]
    if locmap:
        (tmp_path / "locmap.csv").write_text("ap,building\nL000,B0\nL001,B0\nL002,B1\nL003,B1\n")
        argv += ["--locmap", str(tmp_path / "locmap.csv")]
    assert main(argv + ["--clusters", "2", "--out", str(tmp_path / "out")]) == 0
    assert alive == [[False] * (1 + locmap)]


def test_pipeline_amvd_metric_and_locmap(workdir, tmp_path):
    locmap = tmp_path / "locmap.csv"
    locmap.write_text(
        "ap,building\nL000,B0\nL001,B0\nL002,B1\nL003,B1\n"
    )
    out = tmp_path / "amvd"
    rc = main(
        [
            "pipeline",
            str(workdir / "synth" / "trace.csv"),
            "--config",
            str(workdir / "config.json"),
            "--locmap",
            str(locmap),
            "--metric",
            "amvd",
            "--clusters",
            "2",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    index = json.loads((out / "matrices" / "index.json").read_text())
    assert index["location_index"] == ["B0", "B1"]
    # no similarity table is stored: simulate's similarity scheme rebuilds it from eigen.csv
    assert set(digest_tree(out)) == PIPELINE_FILES


def test_simulate_outputs(workdir, tmp_path):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            str(workdir / "synth" / "trace.csv"),
            "--pipeline",
            str(workdir / "pipe"),
            "--scenario",
            str(workdir / "scenario.json"),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "scheme,param,delivery_ratio,mean_delay_s,overhead"
    assert len(lines) == 5
    schemes = [line.split(",")[0] for line in lines[1:]]
    assert schemes == ["flooding", "centralized", "similarity", "rtx"]
    normalized = (out / "normalized.csv").read_text().splitlines()
    flood_row = normalized[1].split(",")
    assert flood_row[0] == "flooding"
    assert float(flood_row[2]) == 1.0  # baseline normalizes to itself
    assert set(digest_tree(out)) == SIMULATE_FILES


def test_simulate_report_counts(workdir, tmp_path):
    """report.json counts the replay: its encounters are the len of an
    EncounterStream over the replay half and the rows of a walk of it, and
    each scheme's transmissions are its results.csv overhead."""
    out = tmp_path / "sim"
    trace = str(workdir / "synth" / "trace.csv")
    argv = ["simulate", trace, "--pipeline", str(workdir / "pipe"), "--scenario", str(workdir / "scenario.json")]
    assert main(argv + ["--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    _, second, mid = split_trace(load_records(trace), SCENARIO["split_fraction"])
    messages = build_messages(load_partition_csv(str(workdir / "pipe" / "partition.csv")), creation_time=mid)
    assert report["records"] == len(second)
    stream = EncounterStream(second)
    assert report["encounters"] == len(stream) == sum(map(len, stream)) > 0
    assert report["messages"] == len(messages)
    assert report["targets"] == sum(len(m.targets) for m in messages)
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [(s["scheme"], s["param"], s["transmissions"]) for s in report["schemes"]] == [
        (row[0], row[1], int(row[4])) for row in rows
    ]
    # flooding, centralized and similarity reach every target here; rtx (p = 1, ttl 3) does not
    delivered = [s["delivered"] for s in report["schemes"]]
    assert delivered[:3] == [report["targets"]] * 3 and 0 < delivered[3] < report["targets"]


def test_compare_prints_jaccard(workdir, capsys):
    partition = str(workdir / "pipe" / "partition.csv")
    assert main(["compare", partition, partition]) == 0
    assert capsys.readouterr().out.strip() == "1.0000"


@pytest.mark.parametrize(
    "row, message",
    [(",0", "record has empty element_id"), ('"u\n1",0', "element id 'u\\n1' contains a line break")],
    ids=["empty", "line-break"],
)
def test_bad_element_id_in_partition_exits_2_naming_its_line(workdir, tmp_path, capsys, row, message):
    """partition.csv's elements are checked as a trace's ids are, by compare
    and by simulate --pipeline alike."""
    pipe = tmp_path / "pipe"
    shutil.copytree(workdir / "pipe", pipe)
    partition = pipe / "partition.csv"
    lines = partition.read_text().splitlines(keepends=True)
    partition.write_text("".join(lines[:3]) + row + "\n" + "".join(lines[3:]))
    out = tmp_path / "o"
    where = f"{partition}:4"
    _exits_2_naming(["compare", str(workdir / "pipe" / "partition.csv"), str(partition)], where, message, out, capsys)
    argv = ["simulate", str(workdir / "synth" / "trace.csv"), "--pipeline", str(pipe)]
    argv += ["--scenario", str(workdir / "scenario.json"), "--out", str(out)]
    _exits_2_naming(argv, where, message, out, capsys)


def test_reruns_are_byte_identical(workdir, tmp_path):
    pipe_a, pipe_b = tmp_path / "p1", tmp_path / "p2"
    argv = [
        "pipeline",
        str(workdir / "synth" / "trace.csv"),
        "--config",
        str(workdir / "config.json"),
        "--clusters",
        "3",
    ]
    assert main(argv + ["--out", str(pipe_a)]) == 0
    assert main(argv + ["--out", str(pipe_b)]) == 0
    tree_a = digest_tree(pipe_a, SKIP)
    assert tree_a == digest_tree(pipe_b, SKIP)
    assert set(tree_a) == PIPELINE_FILES - set(SKIP)
    sim_a, sim_b = tmp_path / "s1", tmp_path / "s2"
    sim_argv = [
        "simulate",
        str(workdir / "synth" / "trace.csv"),
        "--pipeline",
        str(pipe_a),
        "--scenario",
        str(workdir / "scenario.json"),
    ]
    assert main(sim_argv + ["--out", str(sim_a)]) == 0
    assert main(sim_argv + ["--out", str(sim_b)]) == 0
    assert digest_tree(sim_a, SKIP) == digest_tree(sim_b, SKIP)


@pytest.mark.parametrize("change", ["shuffled", "duplicated"])
@pytest.mark.parametrize("metric", ["eigen", "centroid09"])
def test_pipeline_outputs_do_not_depend_on_trace_row_order_or_repeats(workdir, tmp_path, metric, change):
    """A trace is a set of association intervals: with its rows shuffled, or
    with every third row repeated at the end (a user's time at a location is
    the union of its intervals there, so a repeat adds none), a pipeline run
    writes the same bytes as on the trace itself.  Every online day of the
    noisy spec has a record at each location, so an overlap counted twice
    would move that day's shares."""
    header, *rows = (workdir / "synth" / "trace.csv").read_text().splitlines()
    if change == "shuffled":
        rows = [rows[i] for i in np.random.default_rng(3).permutation(len(rows))]
    else:
        rows = rows + rows[::3]
    changed = tmp_path / "trace.csv"
    changed.write_text("\n".join([header, *rows]) + "\n")
    base, other = tmp_path / "base", tmp_path / "changed"
    argv = ["--config", str(workdir / "config.json"), "--clusters", "3", "--metric", metric, "--out"]
    assert main(["pipeline", str(workdir / "synth" / "trace.csv"), *argv, str(base)]) == 0
    assert main(["pipeline", str(changed), *argv, str(other)]) == 0
    tree = digest_tree(base, SKIP)
    assert set(tree) == PIPELINE_FILES - set(SKIP)
    assert digest_tree(other, SKIP) == tree


@pytest.fixture(scope="module")
def population_trace(tmp_path_factory):
    """synth's trace of a small benchmark population: 100 users in 13 planted
    two-mode groups, online 70% of 28 days, over 20 locations."""
    root = tmp_path_factory.mktemp("population")
    with pytest.MonkeyPatch.context() as monkeypatch:
        benchmark_spec(root, monkeypatch, 100, 3)
    assert main(["synth", str(root / "spec.json"), "--out", str(root / "synth")]) == 0
    return root / "synth" / "trace.csv"


def _pipeline_run(tmp_path, name, rows, bounds, metric):
    """A pipeline --clusters 13 run on the trace rows (user, location, start,
    end) over the horizon bounds, (trace_start, trace_end): its output directory."""
    trace_path, config = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
    trace_path.write_text("".join(f"{u},{loc},{s},{e}\n" for u, loc, s, e in [("user", "location", "start", "end"), *rows]))
    config.write_text(json.dumps(dict(zip(("trace_start", "trace_end"), bounds))))
    out = tmp_path / name
    argv = ["pipeline", str(trace_path), "--config", str(config), "--metric", metric, "--clusters", "13"]
    assert main([*argv, "--out", str(out)]) == 0
    return out


def _trace_rows(path):
    return [(u, loc, int(s), int(e)) for u, loc, s, e in (line.split(",") for line in path.read_text().splitlines()[1:])]


@pytest.mark.parametrize("metric", ["eigen", "centroid09"])
def test_pipeline_outputs_do_not_depend_on_records_split_at_their_midpoints(population_trace, tmp_path, metric):
    """A trace is a set of association intervals: with every record longer
    than 2 s split into two that meet at its midpoint, a pipeline run writes
    the same bytes, manifest.json aside, as on the trace itself."""
    rows = _trace_rows(population_trace)
    split = []
    for u, loc, s, e in rows:
        mid = (s + e) // 2
        split += [(u, loc, s, mid), (u, loc, mid, e)] if e - s > 2 else [(u, loc, s, e)]
    assert len(split) > len(rows)
    bounds = (0, 28 * DAY_SECONDS)
    base = _pipeline_run(tmp_path, "base", rows, bounds, metric)
    tree = digest_tree(base, SKIP)
    assert set(tree) == PIPELINE_FILES - set(SKIP)
    assert digest_tree(_pipeline_run(tmp_path, "split", split, bounds, metric), SKIP) == tree


@pytest.mark.parametrize("metric", ["eigen", "centroid09"])
def test_pipeline_outputs_do_not_depend_on_the_trace_epoch(population_trace, tmp_path, metric):
    """Every bound of the trace and of the config's horizon shifted by 7 days
    leaves the slots' contents as they were: a pipeline run writes the same
    bytes, manifest.json aside, except matrices/index.json's config, which
    holds the shifted horizon."""
    shift = 7 * DAY_SECONDS
    rows = _trace_rows(population_trace)
    bounds = (0, 28 * DAY_SECONDS)
    base = _pipeline_run(tmp_path, "base", rows, bounds, metric)
    shifted = [(u, loc, s + shift, e + shift) for u, loc, s, e in rows]
    other = _pipeline_run(tmp_path, "shifted", shifted, [b + shift for b in bounds], metric)
    index = os.path.join("matrices", "index.json")
    tree, other_tree = digest_tree(base, SKIP), digest_tree(other, SKIP)
    assert set(tree) == PIPELINE_FILES - set(SKIP)
    assert tree.pop(index) != other_tree.pop(index) and other_tree == tree
    base_index, other_index = (json.loads((out / index).read_text()) for out in (base, other))
    want = {**base_index.pop("config"), "trace_start": shift, "trace_end": 28 * DAY_SECONDS + shift}
    assert other_index.pop("config") == want and other_index == base_index


def test_malformed_spec_exits_2_without_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "out"
    assert main(["synth", str(bad), "--out", str(out)]) == 2
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_missing_trace_exits_2(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text("{}")
    rc = main(
        [
            "pipeline",
            str(tmp_path / "absent.csv"),
            "--config",
            str(config),
            "--clusters",
            "2",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_scenario_without_flooding_exits_2(workdir, tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"schemes": [{"scheme": "centralized"}]}))
    rc = main(
        [
            "simulate",
            str(workdir / "synth" / "trace.csv"),
            "--pipeline",
            str(workdir / "pipe"),
            "--scenario",
            str(scenario),
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert rc == 2
    assert "flooding" in capsys.readouterr().err


def test_simulate_without_flooding_delivery_exits_2(tmp_path, capsys):
    """Two groups that meet only in the profile half: flooding delivers nothing
    in the replay half, so the normalized ratios are undefined."""
    users = {f"g{g}u{i}": g for g in range(2) for i in range(6)}
    trace = tmp_path / "trace.csv"
    lines = ["user,location,start,end"]
    for user, group in users.items():
        lines.append(f"{user},shared{group},0,100")
        lines.append(f"{user},alone-{user},100,200")
    trace.write_text("\n".join(lines) + "\n")
    pipe = tmp_path / "pipe"
    (pipe / "matrices").mkdir(parents=True)
    (pipe / "matrices" / "index.json").write_text(json.dumps({"config": {"trace_end": 100}}))
    (pipe / "partition.csv").write_text(
        "element,cluster\n" + "".join(f"{u},{g}\n" for u, g in users.items())
    )
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"schemes": [{"scheme": "flooding"}]}))
    out = tmp_path / "o"
    rc = main(
        [
            "simulate",
            str(trace),
            "--pipeline",
            str(pipe),
            "--scenario",
            str(scenario),
            "--out",
            str(out),
        ]
    )
    assert rc == 2
    assert "flooding" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_with_every_delivery_at_creation_time_writes_nan_delay_ratios(tmp_path):
    """Eight users, each at its own home most days, all in one hall for 100 s
    either side of the split: every delivery happens when the message is
    made, so flooding's mean delay is 0 and every delay ratio is nan."""
    day, users = 86400, [f"u{i}" for i in range(8)]
    mid = 2 * day  # the split: the trace runs from 0 to 4 days
    lines = ["user,location,start,end"]
    for i, user in enumerate(users):
        lines += [f"{user},home{i},{d * day},{d * day + 30000}" for d in range(4)]
        lines.append(f"{user},hall,{mid - 100},{mid + 100}")
    lines.append(f"u0,home0,{4 * day - 1000},{4 * day}")
    trace = tmp_path / "trace.csv"
    trace.write_text("\n".join(lines) + "\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(profile_half_config(load_records(str(trace)))))
    pipe = tmp_path / "pipe"
    assert main(["pipeline", str(trace), "--config", str(config), "--clusters", "1", "--out", str(pipe)]) == 0
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"schemes": [{"scheme": "flooding"}, {"scheme": "centralized"}]}))
    out = tmp_path / "sim"
    argv = ["simulate", str(trace), "--pipeline", str(pipe), "--scenario", str(scenario), "--out", str(out)]
    assert main(argv) == 0
    results = list(csv.DictReader((out / "results.csv").read_text().splitlines()))
    assert [float(row["mean_delay_s"]) for row in results] == [0.0, 0.0]
    assert all(float(row["delivery_ratio"]) == 1.0 for row in results)
    normalized = list(csv.DictReader((out / "normalized.csv").read_text().splitlines()))
    assert [row["mean_delay_s"] for row in normalized] == ["nan", "nan"]
    assert set(digest_tree(out)) == SIMULATE_FILES


def test_simulate_refuses_a_profile_of_the_whole_trace(workdir, tmp_path, capsys):
    """A pipeline run whose horizon reaches past the split time learned its
    profiles from the replay half; simulate names its index and writes nothing."""
    config = tmp_path / "whole.json"
    config.write_text(json.dumps({"trace_start": 0, "trace_end": 8 * 86400}))
    pipe = tmp_path / "whole"
    assert main(_pipeline_argv(workdir, config, pipe)) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    argv = ["simulate", str(workdir / "synth" / "trace.csv"), "--pipeline", str(pipe)]
    argv += ["--scenario", str(workdir / "scenario.json"), "--out", str(out)]
    index = pipe / "matrices" / "index.json"
    _exits_2_naming(argv, index, "trace_end 691200.0 is after the split time", out, capsys)


def test_nan_threshold_exits_2_without_outputs(workdir, tmp_path, capsys):
    """No linkage exceeds NaN, so a NaN threshold would merge every user into one group."""
    out = tmp_path / "o"
    argv = _pipeline_argv(workdir, workdir / "config.json", out)
    argv[argv.index("--clusters") : argv.index("--clusters") + 2] = ["--threshold", "nan"]
    assert main(argv) == 2
    assert "threshold must not be NaN" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "stop, message",
    [
        (["--threshold", "nan"], "argument --threshold: threshold must not be NaN"),
        (["--clusters", "0"], "argument --clusters: clusters must be at least 1, got 0"),
        (["--clusters", "-3"], "argument --clusters: clusters must be at least 1, got -3"),
    ],
    ids=["threshold-nan", "clusters-zero", "clusters-negative"],
)
def test_bad_stop_value_exits_2_before_the_trace_is_read(tmp_path, capsys, stop, message):
    """The stop value is refused at argument parsing, so the absent trace is
    never opened and the error names the flag, not the trace."""
    config = tmp_path / "c.json"
    config.write_text("{}")
    out = tmp_path / "o"
    argv = ["pipeline", str(tmp_path / "absent.csv"), "--config", str(config), *stop, "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "absent.csv" not in err
    assert not out.exists()


def test_clusters_above_the_user_count_exits_2_before_any_stage_runs(workdir, tmp_path, capsys, monkeypatch):
    """A cluster count above the trace's users is refused once the table is
    built, naming the flag, the count and the trace, before any stage runs."""
    calls = Counter()
    count_calls(monkeypatch, pipeline, "run_pipeline", calls)
    trace_path = workdir / "synth" / "trace.csv"
    n_users = len(load_records(str(trace_path)).users)
    out = tmp_path / "o"
    argv = _pipeline_argv(workdir, workdir / "config.json", out)
    argv[argv.index("--clusters") + 1] = str(n_users + 1)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--clusters {n_users + 1} exceeds the {n_users} users of {trace_path}" in err
    assert calls["run_pipeline"] == 0
    assert not out.exists()
    argv[argv.index("--clusters") + 1] = str(n_users)
    assert main(argv) == 0 and calls["run_pipeline"] == 1


def test_clusters_above_the_count_the_metric_clusters_exits_2_before_any_stage_runs(tmp_path, capsys, monkeypatch):
    """The summary metrics cluster only the online users, eigen and amvd
    every user: a count above the chosen metric's is refused once the table
    is built, naming the flag, that count and the trace, before any stage
    runs; the count itself is accepted."""
    calls = Counter()
    count_calls(monkeypatch, pipeline, "run_pipeline", calls)
    trace_path = tmp_path / "trace.csv"
    # u3's only record is past the horizon, so two of the three users are online
    trace_path.write_text("user,location,start,end\nu1,L0,0,600\nu2,L1,0,600\nu3,L0,90000,90600\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trace_start": 0, "trace_end": 86400}))
    counts = {metric: (2, "online users") for metric in ("onavg", "centroid05", "centroid09")}
    counts.update(eigen=(3, "users"), amvd=(3, "users"))
    assert set(counts) == set(METRICS)
    for metric, (clustered, who) in counts.items():
        out = tmp_path / metric
        argv = ["pipeline", str(trace_path), "--config", str(config), "--metric", metric]
        argv += ["--clusters", str(clustered + 1), "--out", str(out)]
        runs = calls["run_pipeline"]
        assert main(argv) == 2, metric
        err = capsys.readouterr().err
        assert f"--clusters {clustered + 1} exceeds the {clustered} {who} of {trace_path} that --metric {metric} clusters" in err
        assert calls["run_pipeline"] == runs and not out.exists()
        argv[argv.index("--clusters") + 1] = str(clustered)
        assert main(argv) == 0 and calls["run_pipeline"] == runs + 1, metric


def test_compare_of_partitions_over_different_elements_exits_2_naming_both(workdir, tmp_path, capsys):
    """compare refuses two partitions of different element sets, naming both
    files and an element that only one of them holds, in either order."""
    partition = workdir / "pipe" / "partition.csv"
    lines = partition.read_text().splitlines(keepends=True)
    shorter = tmp_path / "partition.csv"
    shorter.write_text("".join(lines[:-1]))
    element = lines[-1].split(",")[0]
    for argv in ([str(partition), str(shorter)], [str(shorter), str(partition)]):
        assert main(["compare", *argv]) == 2
        captured = capsys.readouterr()
        assert f"{partition} and {shorter} cover different elements: {element!r} is only in {partition}" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("command", ["synth", "pipeline", "simulate"])
def test_negative_seed_exits_2_before_any_input_is_read(tmp_path, capsys, command):
    """numpy's generators refuse a negative seed; the flag is refused at
    argument parsing, so the absent input is never opened."""
    absent = str(tmp_path / "absent")
    inputs = {
        "synth": [absent],
        "pipeline": [absent, "--config", absent, "--clusters", "2"],
        "simulate": [absent, "--pipeline", absent, "--scenario", absent],
    }[command]
    out = tmp_path / "o"
    assert main([command, *inputs, "--seed", "-1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "argument --seed: seed must be non-negative, got -1" in err
    assert "absent" not in err
    assert not out.exists()


def test_negative_spec_seed_exits_2_naming_the_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SPEC, "seed": -1}))
    out = tmp_path / "o"
    assert main(["synth", str(spec), "--out", str(out)]) == 2
    assert f"{spec}: malformed synth spec (seed must be non-negative)" in capsys.readouterr().err
    assert not out.exists()


def test_noise_free_report_writes_zero_entries_without_a_sign(tmp_path):
    """Noise-free groups have first eigen-behaviors with exact-zero entries;
    report.json writes each as 0.0, never as -0.0."""
    groups = []
    for g in range(6):
        weights = [0.0] * 12
        weights[g], weights[6 + g % 3] = 0.8, 0.2
        groups.append({"size": 20, "p_online": 0.8, "modes": [{"weights": weights, "prob": 1}]})
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_locations": 12, "n_days": 28, "seed": 0, "noise_epsilon": 0, "groups": groups}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trace_start": 0, "trace_end": 28 * 86400}))
    assert main(["synth", str(spec), "--out", str(tmp_path / "synth")]) == 0
    trace = str(tmp_path / "synth" / "trace.csv")
    out = tmp_path / "o"
    assert main(["pipeline", trace, "--config", str(config), "--clusters", "6", "--out", str(out)]) == 0
    clusters = json.loads((out / "report.json").read_text())["clusters"]
    numbers = [
        x
        for c in clusters
        for x in [*c["weights"], *c["top_power"], *(loc["entry"] for loc in c["top_locations"])]
    ]
    zeros = [x for x in numbers if x == 0.0]
    assert zeros, "the spec plants no exact-zero entry"
    assert all(math.copysign(1.0, x) == 1.0 for x in zeros)


def test_each_run_option_is_stored_once_in_the_index(workdir, tmp_path):
    """index.json's config holds the trace config and the analysis options;
    eigen.csv and the distance sidecar hold only data."""
    config = tmp_path / "config.json"
    options = {"power_floor": 0.01, "include_offline": True}
    config.write_text(json.dumps({**json.loads((workdir / "config.json").read_text()), **options}))
    out = tmp_path / "o"
    assert main(_pipeline_argv(workdir, config, out) + ["--metric", "amvd"]) == 0
    index = json.loads((out / "matrices" / "index.json").read_text())
    fixture = json.loads((workdir / "pipe" / "matrices" / "index.json").read_text())
    assert index["config"] == {**fixture["config"], **options}
    assert fixture["config"]["power_floor"] == 0.001 and fixture["config"]["include_offline"] is False
    assert (out / "eigen.csv").read_text().startswith("user,weight,L000,")
    sidecar = json.loads((out / "distances.npy.json").read_text())
    assert set(sidecar) == {"ids", "metric", "flagged_ids"} and sidecar["metric"] == "amvd"


def test_simulate_refuses_an_eigen_csv_with_a_power_floor_column(workdir, tmp_path, capsys):
    """eigen.csv once carried each row's power floor in its second column; such
    a file is refused by its header, never read one column shifted."""
    pipe = tmp_path / "pipe"
    shutil.copytree(workdir / "pipe", pipe)
    eigen = pipe / "eigen.csv"
    lines = eigen.read_text().splitlines(keepends=True)
    header = lines[0].replace("user,", "user,power_floor,", 1)
    eigen.write_text(header + "".join(row.replace(",", ",0.001,", 1) for row in lines[1:]))
    out = tmp_path / "o"
    argv = ["simulate", str(workdir / "synth" / "trace.csv"), "--pipeline", str(pipe)]
    argv += ["--scenario", str(workdir / "scenario.json"), "--out", str(out)]
    _exits_2_naming(argv, eigen, "bad header ['user', 'power_floor', 'weight', 'L000'", out, capsys)


def test_line_break_in_user_id_exits_2_without_outputs(workdir, tmp_path, capsys):
    """A quoted carriage return inside a user id would be written unquoted by the
    output writers and break eigen.csv and partition.csv, so the loader refuses it."""
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b'user,location,start,end\nu1,A,0,100\n"c\rr",A,0,100\n')
    out = tmp_path / "o"
    rc = main(
        [
            "pipeline",
            str(trace),
            "--config",
            str(workdir / "config.json"),
            "--clusters",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 2
    assert f"{trace}:3: user id 'c\\rr' contains a line break" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "body, message",
    [
        (b"ap,building\nL000,\n", ":2: record has empty building_id"),
        (b'ap,building\nL000,B0\nL001,"B\nC"\n', ":3: building id 'B\\nC' contains a line break"),
    ],
    ids=["empty", "line-break"],
)
def test_bad_building_id_in_locmap_exits_2_naming_the_file(workdir, tmp_path, capsys, body, message):
    """A locmap id is checked as a trace id is: an empty or line-break
    building would otherwise reach matrices/index.json and eigen.csv's header."""
    locmap = tmp_path / "locmap.csv"
    locmap.write_bytes(body)
    out = tmp_path / "o"
    rc = main(
        ["pipeline", str(workdir / "synth" / "trace.csv"), "--config", str(workdir / "config.json")]
        + ["--locmap", str(locmap), "--clusters", "1", "--out", str(out)]
    )
    assert rc == 2
    assert f"{locmap}{message}" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_on_a_trace_without_records_exits_2_naming_the_trace(tmp_path, capsys):
    """The trace is blamed, not the config whose defaults it would fill."""
    trace = tmp_path / "trace.csv"
    trace.write_text("user,location,start,end\n")
    config = tmp_path / "cfg.json"
    config.write_text("{}")
    out = tmp_path / "o"
    rc = main(["pipeline", str(trace), "--config", str(config), "--clusters", "1", "--out", str(out)])
    assert rc == 2
    assert f"{trace}: trace has no records" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_on_a_trace_without_records_exits_2_naming_the_trace(workdir, tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("user,location,start,end\n")
    out = tmp_path / "o"
    rc = main(
        ["simulate", str(trace), "--pipeline", str(workdir / "pipe")]
        + ["--scenario", str(workdir / "scenario.json"), "--out", str(out)]
    )
    assert rc == 2
    assert f"{trace}: trace has no records" in capsys.readouterr().err
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "eigenbehavior" in capsys.readouterr().out


def test_every_command_runs_without_scipy(workdir, tmp_path):
    """numpy is the only runtime dependency: every command, with every metric
    and with a location map, runs where importing scipy fails."""
    src = os.path.dirname(os.path.dirname(eigenbehavior.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    locmap = tmp_path / "locmap.csv"
    locmap.write_text("ap,building\nL000,B0\nL001,B0\nL002,B1\nL003,B1\n")
    trace = str(tmp_path / "synth" / "trace.csv")
    config = str(workdir / "config.json")
    runs = [["synth", str(workdir / "spec.json"), "--out", str(tmp_path / "synth")]]
    for metric in METRICS:
        argv = ["pipeline", trace, "--config", config, "--metric", metric, "--clusters", "3"]
        runs.append(argv + ["--out", str(tmp_path / metric)])
    runs.append(
        ["pipeline", trace, "--config", config, "--locmap", str(locmap), "--metric", "amvd"]
        + ["--clusters", "2", "--out", str(tmp_path / "locmap")]
    )
    runs.append(
        ["simulate", trace, "--pipeline", str(tmp_path / "eigen")]
        + ["--scenario", str(workdir / "scenario.json"), "--out", str(tmp_path / "sim")]
    )
    partition = str(tmp_path / "eigen" / "partition.csv")
    runs.append(["compare", partition, partition])
    probe = (
        "import sys; sys.modules['scipy'] = None\n"
        "try:\n    import scipy.spatial\nexcept ImportError:\n    pass\n"
        "else:\n    raise SystemExit('scipy imported')\n"
        "from eigenbehavior.cli import main\n"
        f"for argv in {runs!r}:\n    assert main(argv) == 0, argv\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert set(digest_tree(tmp_path / "locmap")) == PIPELINE_FILES
    assert (tmp_path / "sim" / "results.csv").exists()
    assert result.stdout.strip() == "1.0000"


# each command's arguments before --out: {root} is the workdir, {trace} its synth trace
PIPELINE_ON_TRACE = ["pipeline", "{trace}", "--config", "{root}/config.json", "--metric"]
NUMPY_MA_RUNS = {
    "synth": ["synth", "{root}/spec.json"],
    "pipeline-eigen": [*PIPELINE_ON_TRACE, "eigen", "--clusters", "3"],
    "pipeline-centroid09": [*PIPELINE_ON_TRACE, "centroid09", "--clusters", "3"],
    "pipeline-amvd": [*PIPELINE_ON_TRACE, "amvd", "--threshold", "0.5"],
    "simulate": ["simulate", "{trace}", "--pipeline", "{root}/pipe", "--scenario", "{root}/scenario.json"],
}


@pytest.mark.parametrize("run", [*NUMPY_MA_RUNS, "compare"])
def test_no_command_imports_numpy_ma(workdir, tmp_path, run):
    # a plain np.unique imports numpy.ma, about 6 ms of every run's start-up
    src = os.path.dirname(os.path.dirname(eigenbehavior.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    if run == "compare":
        partition = str(workdir / "pipe" / "partition.csv")
        argv = ["compare", partition, partition]
    else:
        fill = {"root": workdir, "trace": workdir / "synth" / "trace.csv"}
        argv = [arg.format(**fill) for arg in NUMPY_MA_RUNS[run]] + ["--out", str(tmp_path / "o")]
    probe = (
        "import sys; from eigenbehavior.cli import main; "
        f"assert main({argv!r}) == 0; "
        "print('numpy.ma' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("end", [2**53, 10**400], ids=["2**53", "10**400"])
def test_a_bound_past_exact_float_seconds_exits_2_naming_its_line(workdir, tmp_path, capsys, end):
    trace = tmp_path / "trace.csv"
    trace.write_text(f"user,location,start,end\nu1,A,0,5\nu2,A,0,{end}\n")
    out = tmp_path / "o"
    argv = ["pipeline", str(trace), "--config", str(workdir / "config.json"), "--clusters", "1"]
    message = "start and end must be of magnitude below 2**53"
    _exits_2_naming([*argv, "--out", str(out)], f"{trace}:3", message, out, capsys)


def test_cli_import_leaves_scipy_unloaded():
    # with scipy installed (the test extra), importing the CLI still loads none of it
    src = os.path.dirname(os.path.dirname(eigenbehavior.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, eigenbehavior.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "metric,loads_scipy",
    [("eigen", False), ("onavg", False), ("centroid05", False), ("amvd", False)],
)
def test_only_the_amvd_pipeline_loads_scipy(workdir, tmp_path, metric, loads_scipy):
    # AMVD once called scipy's cdist; every metric now runs on numpy alone, so
    # with scipy installed no pipeline loads it, not even through an optional import
    src = os.path.dirname(os.path.dirname(eigenbehavior.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [
        "pipeline",
        str(workdir / "synth" / "trace.csv"),
        "--config",
        str(workdir / "config.json"),
        "--metric",
        metric,
        "--clusters",
        "3",
        "--out",
        str(tmp_path / "o"),
    ]
    probe = (
        "import sys; from eigenbehavior.cli import main; "
        f"assert main({argv!r}) == 0; "
        "import json; print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert bool(loaded) == loads_scipy, loaded


def _pipeline_argv(workdir, config, out):
    return [
        "pipeline",
        str(workdir / "synth" / "trace.csv"),
        "--config",
        str(config),
        "--clusters",
        "3",
        "--out",
        str(out),
    ]


def _simulate_argv(workdir, scenario, out):
    return [
        "simulate",
        str(workdir / "synth" / "trace.csv"),
        "--pipeline",
        str(workdir / "pipe"),
        "--scenario",
        str(scenario),
        "--out",
        str(out),
    ]


def _exits_2_naming(argv, path, message, out, capsys):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path}: {message}" in err
    assert not out.exists()


def test_pipeline_refuses_a_trace_whose_first_bad_row_is_past_the_first_chunk(workdir, tmp_path, capsys):
    """The loader reads its rows a chunk at a time; a bad row in the second
    chunk, with another in the third, exits 2 naming the first one's line."""
    good = [f"u{i % 9},L{i % 4},{i * 60},{i * 60 + 30}" for i in range(trace.LOAD_CHUNK_ROWS + 2)]
    rows = ["user,location,start,end", *good, "u1,L1,600,60", *good, "u1,L1,x,60"]
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "o"
    rc = main(["pipeline", str(path), "--config", str(workdir / "config.json"), "--clusters", "3", "--out", str(out)])
    line = len(good) + 2
    assert rc == 2
    assert f"{path}:{line}: record for 'u1' has end <= start (60 <= 600)" in capsys.readouterr().err
    assert not out.exists()


def test_config_that_is_not_an_object_exits_2(workdir, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[]")
    out = tmp_path / "o"
    _exits_2_naming(
        _pipeline_argv(workdir, config, out), config, "expected a JSON object, got list", out, capsys
    )


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"slot_seconds": "x"}, "malformed pipeline config (slot_seconds must be an integer, got 'x')"),
        ({"slot_seconds": 86400.9}, "malformed pipeline config (slot_seconds must be an integer, got 86400.9)"),
        ({"slot_seconds": True}, "malformed pipeline config (slot_seconds must be an integer, got True)"),
        ({"window": [5]}, "malformed pipeline config (not enough values to unpack"),
        ({"window": []}, "malformed pipeline config (not enough values to unpack (expected 2, got 0))"),
        ({"window": 0}, "malformed pipeline config (window must be null or a list of two integers, got 0)"),
        ({"window": False}, "malformed pipeline config (window must be null or a list of two integers, got False)"),
        ({"window": {}}, "malformed pipeline config (window must be null or a list of two integers, got {})"),
        ({"window": [True, 3600]}, "malformed pipeline config (window[0] must be an integer, got True)"),
        ({"window": [0, 3600.5]}, "malformed pipeline config (window[1] must be an integer, got 3600.5)"),
        ({"trace_start": "0", "trace_end": "9"}, "malformed pipeline config (trace_start must be an integer, got '0')"),
        ({"trace_start": 1.5}, "malformed pipeline config (trace_start must be an integer, got 1.5)"),
        (
            {"trace_start": False, "trace_end": True},
            "malformed pipeline config (trace_start must be an integer, got False)",
        ),
        ({"trace_end": float("inf")}, "malformed pipeline config (trace_end must be an integer, got inf)"),
        ({"trace_end": 10**400}, "malformed pipeline config (int too large to convert to float)"),
        ({"slot_seconds": 10**400}, "malformed pipeline config (int too large to convert to float)"),
        ({"align_midnight": "false"}, "malformed pipeline config (align_midnight must be true or false, got 'false')"),
        ({"include_offline": 1}, "malformed pipeline config (include_offline must be true or false, got 1)"),
        ({"power_floor": -1}, "malformed pipeline config (power_floor must lie in [0, 1))"),
        ({"power_floor": True}, "malformed pipeline config (power_floor must be a number, got True)"),
        ({"power_floor": "0.1"}, "malformed pipeline config (power_floor must be a number, got '0.1')"),
    ],
    ids=[
        "slot-seconds-not-int",
        "slot-seconds-float",
        "slot-seconds-true",
        "window-of-one",
        "window-empty-list",
        "window-zero",
        "window-false",
        "window-empty-object",
        "window-entry-true",
        "window-entry-float",
        "bounds-not-numbers",
        "trace-start-float",
        "bounds-true-false",
        "infinite-end",
        "end-too-large-for-a-float",
        "slot-seconds-too-large-for-a-float",
        "align-midnight-string",
        "include-offline-number",
        "power-floor-negative",
        "power-floor-true",
        "power-floor-string",
    ],
)
def test_malformed_config_field_exits_2_naming_the_config(workdir, tmp_path, capsys, payload, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "o"
    _exits_2_naming(_pipeline_argv(workdir, config, out), config, message, out, capsys)


@pytest.mark.parametrize("window", [None, [0, 43200]], ids=["null", "two-integers"])
def test_window_null_or_two_integers_is_kept(workdir, tmp_path, window):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"window": window}))
    out = tmp_path / "o"
    assert main(_pipeline_argv(workdir, config, out)) == 0
    assert json.loads((out / "matrices" / "index.json").read_text())["config"]["window"] == window


@pytest.mark.parametrize(
    "trace_end, n_slots",
    [
        (10**18, 11574074074075),  # numpy's MemoryError: 1.6 PiB
        (10**22, math.ceil(10**22 / 86400)),  # ValueError: more bytes than 2**63
        (10**300, math.ceil(10**300 / 86400)),  # ValueError: beyond numpy's largest dimension
    ],
    ids=["1e18", "1e22", "1e300"],
)
def test_trace_end_too_large_for_the_matrices_exits_2_naming_the_config(
    trace_end, n_slots, tmp_path, capsys
):
    """A 200-row trace of one user at 20 locations, and a trace_end whose day
    slots would take more matrices than a 64-bit address space holds, so the
    allocation fails at once and no memory is touched."""
    trace = tmp_path / "trace.csv"
    rows = "".join(f"u1,L{i % 20:02d},{i * 100},{i * 100 + 50}\n" for i in range(200))
    trace.write_text("user,location,start,end\n" + rows)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trace_start": 0, "trace_end": trace_end}))
    out = tmp_path / "o"
    argv = ["pipeline", str(trace), "--config", str(config), "--clusters", "1", "--out", str(out)]
    message = f"the (users, slots, locations) = (1, {n_slots}, 20) association matrices do not fit in memory"
    _exits_2_naming(argv, config, message, out, capsys)


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"schemes": [1]}, "malformed scenario (scheme entry 1 is not an object)"),
        (
            {"schemes": [{"scheme": "flooding"}, {"scheme": "rtx", "p": "x", "ttl_factor": 3}]},
            "malformed scenario (p must be a number, got 'x')",
        ),
        (
            {"schemes": [{"scheme": "flooding"}, {"scheme": "rtx", "p": True, "ttl_factor": True}]},
            "malformed scenario (p must be a number, got True)",
        ),
        (
            {"schemes": [{"scheme": "flooding"}, {"scheme": "rtx", "p": 1.0, "ttl_factor": True}]},
            "malformed scenario (ttl_factor must be a number, got True)",
        ),
        *(
            (
                {"schemes": [{"scheme": "flooding"}, {"scheme": "rtx", "p": 0.5, "ttl_factor": ttl}]},
                f"malformed scenario (rtx scheme needs a ttl_factor in (0, {sys.maxsize}])",
            )
            for ttl in (float("inf"), 1e308, float("nan"))
        ),
        (
            {"schemes": [{"scheme": "flooding"}, {"scheme": "similarity", "sim_threshold": False}]},
            "malformed scenario (sim_threshold must be a number, got False)",
        ),
        (
            {"split_fraction": "half", "schemes": [{"scheme": "flooding"}]},
            "malformed scenario (split_fraction must be a number, got 'half')",
        ),
        (
            {"split_fraction": True, "schemes": [{"scheme": "flooding"}]},
            "malformed scenario (split_fraction must be a number, got True)",
        ),
        (
            {"split_fraction": 2, "schemes": [{"scheme": "flooding"}]},
            "malformed scenario (fraction must lie strictly between 0 and 1)",
        ),
        (
            {"source_fraction": 0, "schemes": [{"scheme": "flooding"}]},
            "malformed scenario (source_fraction must lie in (0, 1])",
        ),
        (
            {"source_fraction": True, "schemes": [{"scheme": "flooding"}]},
            "malformed scenario (source_fraction must be a number, got True)",
        ),
        (
            {"min_group_size": 6.9, "schemes": [{"scheme": "flooding"}]},
            "malformed scenario (min_group_size must be an integer, got 6.9)",
        ),
        (
            {"min_group_size": True, "schemes": [{"scheme": "flooding"}]},
            "malformed scenario (min_group_size must be an integer, got True)",
        ),
        *(
            (
                {"min_group_size": size, "schemes": [{"scheme": "flooding"}]},
                "malformed scenario (min_group_size must be at least 2)",
            )
            for size in (1, 0, -3)
        ),
    ],
    ids=[
        "scheme-not-object",
        "rtx-p-not-number",
        "rtx-p-and-ttl-true",
        "rtx-ttl-true",
        "rtx-ttl-infinite",
        "rtx-ttl-budget-overflows",
        "rtx-ttl-nan",
        "sim-threshold-false",
        "split-fraction-not-number",
        "split-fraction-true",
        "split-fraction-out-of-range",
        "source-fraction-zero",
        "source-fraction-true",
        "min-group-size-float",
        "min-group-size-true",
        "min-group-size-one",
        "min-group-size-zero",
        "min-group-size-negative",
    ],
)
def test_malformed_scenario_exits_2_naming_the_scenario(workdir, tmp_path, capsys, payload, message):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(payload))
    out = tmp_path / "o"
    _exits_2_naming(_simulate_argv(workdir, scenario, out), scenario, message, out, capsys)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "invalid JSON (Expecting property name"),
        (
            json.dumps({**SPEC, "groups": [{"size": 2, "modes": [{"weights": ["a"], "prob": 1}]}]}),
            "malformed synth spec (weights[0] must be a number, got 'a')",
        ),
        (
            json.dumps({**SPEC, "groups": [{"size": 2, "modes": [{"weights": [True], "prob": 1}]}]}),
            "malformed synth spec (weights[0] must be a number, got True)",
        ),
        (
            json.dumps({**SPEC, "groups": [{**SPEC["groups"][0], "p_online": True}]}),
            "malformed synth spec (p_online must be a number, got True)",
        ),
        (json.dumps({**SPEC, "noise_epsilon": False}), "malformed synth spec (noise_epsilon must be a number, got False)"),
        (json.dumps({**SPEC, "n_days": 6.5}), "malformed synth spec (n_days must be an integer, got 6.5)"),
        (json.dumps({**SPEC, "n_locations": "4"}), "malformed synth spec (n_locations must be an integer, got '4')"),
        (json.dumps({**SPEC, "seed": True}), "malformed synth spec (seed must be an integer, got True)"),
        (
            json.dumps({**SPEC, "groups": [{**SPEC["groups"][0], "size": 8.0}]}),
            "malformed synth spec (size must be an integer, got 8.0)",
        ),
        (
            json.dumps({**SPEC, "groups": [{"size": 2, "modes": [{"weights": [1, 0, 0, 0], "prob": math.nan}]}]}),
            "malformed synth spec (mode_probs must be nonnegative and sum to 1)",
        ),
        (
            json.dumps({**SPEC, "groups": [{"size": 2, "modes": [{"weights": [math.nan, 1, 0, 0], "prob": 1}]}]}),
            "malformed synth spec (mode weights must be nonnegative)",
        ),
        (json.dumps({**SPEC, "noise_epsilon": math.nan}), "malformed synth spec (noise_epsilon must be nonnegative)"),
        (
            json.dumps({**SPEC, "noise_epsilon": 1e308}),
            "malformed synth spec (noise_epsilon is too large: the noisy weights would overflow)",
        ),
        (
            json.dumps({**SPEC, "noise_epsilon": math.inf}),
            "malformed synth spec (noise_epsilon is too large: the noisy weights would overflow)",
        ),
    ],
    ids=[
        "invalid-json",
        "weight-not-number",
        "weight-true",
        "p-online-true",
        "noise-epsilon-false",
        "n-days-float",
        "n-locations-string",
        "seed-true",
        "size-float",
        "prob-nan",
        "weight-nan",
        "noise-epsilon-nan",
        "noise-epsilon-1e308",
        "noise-epsilon-infinity",
    ],
)
def test_malformed_spec_exits_2_naming_the_spec(tmp_path, capsys, text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    out = tmp_path / "o"
    _exits_2_naming(["synth", str(spec), "--out", str(out)], spec, message, out, capsys)


@pytest.mark.parametrize("metric", METRICS)
def test_a_pipeline_run_builds_the_summaries_once(workdir, tmp_path, monkeypatch, metric):
    """summary.csv and a summary metric read one summary pass: one _mode_cuts
    call grows every user's mode trees, and one _onavgs pass averages every
    user of the table (each user in eigen.csv, all online here) once."""
    calls, averaged = Counter(), []
    count_calls(monkeypatch, summaries, "_mode_cuts", calls)
    count_calls(monkeypatch, summaries, "_onavgs", calls, averaged)
    out = tmp_path / "o"
    assert main(_pipeline_argv(workdir, workdir / "config.json", out) + ["--metric", metric]) == 0
    online = {line.split(",", 1)[0] for line in (out / "eigen.csv").read_text().splitlines()[1:]}
    assert calls == {"_mode_cuts": 1, "_onavgs": 1}
    assert averaged == [len(online)]


def test_summary_csv_is_the_same_for_every_metric(workdir, tmp_path):
    tables = set()
    for metric in METRICS:
        out = tmp_path / metric
        assert main(_pipeline_argv(workdir, workdir / "config.json", out) + ["--metric", metric]) == 0
        tables.add((out / "summary.csv").read_bytes())
    assert tables == {(workdir / "pipe" / "summary.csv").read_bytes()}


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"windw": [0, 43200]}, "unknown key 'windw'; the keys are"),
        ({"trace_start": 0, "powr_floor": 0.1}, "unknown key 'powr_floor'; the keys are"),
    ],
    ids=["window-misspelt", "power-floor-misspelt"],
)
def test_unknown_config_key_exits_2_naming_the_config(workdir, tmp_path, capsys, payload, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "o"
    _exits_2_naming(_pipeline_argv(workdir, config, out), config, f"malformed pipeline config ({message}", out, capsys)


@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"split_fractoin": 0.5, "schemes": [{"scheme": "flooding"}]},
            "unknown key 'split_fractoin'; the keys are",
        ),
        (
            {"schemes": [{"scheme": "flooding"}, {"scheme": "rtx", "p": 0.5, "ttl_factor": 3, "ttl": 3}]},
            "unknown key 'ttl' in scheme entry 1; the keys are",
        ),
        (
            {"schemes": [{"scheme": "flooding", "p": 0.3}]},
            "the flooding scheme does not use p",
        ),
    ],
    ids=["split-fraction-misspelt", "rtx-ttl", "flooding-with-p"],
)
def test_unknown_scenario_key_exits_2_naming_the_scenario(workdir, tmp_path, capsys, payload, message):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(payload))
    out = tmp_path / "o"
    _exits_2_naming(_simulate_argv(workdir, scenario, out), scenario, f"malformed scenario ({message}", out, capsys)


@pytest.mark.parametrize(
    "spec, message",
    [
        ({**SPEC, "noise_epsilom": 0.1}, "unknown key 'noise_epsilom'; the keys are"),
        (
            {**SPEC, "groups": [SPEC["groups"][0], {**SPEC["groups"][1], "p_onlne": 0.5}]},
            "unknown key 'p_onlne' in groups[1]; the keys are",
        ),
        (
            {**SPEC, "groups": [{**SPEC["groups"][0], "modes": [{"weights": [1, 0, 0, 0], "probability": 1}]}]},
            "unknown key 'probability' in groups[0].modes[0]; the keys are",
        ),
    ],
    ids=["noise-epsilon-misspelt", "group-p-online-misspelt", "mode-prob-misspelt"],
)
def test_unknown_spec_key_exits_2_naming_the_spec(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "o"
    _exits_2_naming(["synth", str(path), "--out", str(out)], path, f"malformed synth spec ({message}", out, capsys)


def test_similarity_replay_does_not_depend_on_the_profile_metric(workdir, tmp_path):
    """simulate rebuilds the similarity table from eigen.csv, which every metric
    writes alike, so an amvd and an eigen profile of the same half, grouped
    alike, replay to the same bytes."""
    amvd = tmp_path / "amvd"
    assert main(_pipeline_argv(workdir, workdir / "config.json", amvd) + ["--metric", "amvd"]) == 0
    eigen = workdir / "pipe"
    for name in ("eigen.csv", "partition.csv"):
        assert (amvd / name).read_bytes() == (eigen / name).read_bytes(), name
    assert "similarity" in {entry["scheme"] for entry in SCENARIO["schemes"]}
    results = []
    for pipe in (amvd, eigen):
        out = tmp_path / f"sim-{pipe.name}"
        argv = ["simulate", str(workdir / "synth" / "trace.csv"), "--pipeline", str(pipe)]
        assert main(argv + ["--scenario", str(workdir / "scenario.json"), "--out", str(out)]) == 0
        results.append((out / "results.csv").read_bytes())
    assert results[0] == results[1]


def test_similarity_scheme_needs_two_eigen_sets(workdir, tmp_path, capsys):
    """The similarity table is rebuilt from eigen.csv; one user's rows make no
    table, and simulate names the file."""
    pipe = tmp_path / "pipe"
    shutil.copytree(workdir / "pipe", pipe)
    eigen = pipe / "eigen.csv"
    lines = eigen.read_text().splitlines(keepends=True)
    eigen.write_text("".join(line for line in lines if line.startswith(("user,", "u00000,"))))
    out = tmp_path / "o"
    argv = ["simulate", str(workdir / "synth" / "trace.csv"), "--pipeline", str(pipe)]
    argv += ["--scenario", str(workdir / "scenario.json"), "--out", str(out)]
    message = "the similarity scheme needs two or more users with eigen sets"
    _exits_2_naming(argv, eigen, message, out, capsys)
