"""Command-line flows: synth -> pipeline -> simulate -> compare, error exits,
and byte-identical reruns of every data output."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import eigenbehavior
from eigenbehavior import jaccard, load_records
from eigenbehavior.cli import main
from eigenbehavior.persist import load_partition_csv, load_truth_csv


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
    """One synth + pipeline run shared by the downstream command tests."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(SPEC))
    config_path = root / "config.json"
    config_path.write_text(json.dumps({"trace_start": 0, "trace_end": 8 * 86400}))
    scenario_path = root / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    synth_dir = root / "synth"
    assert main(["synth", str(spec_path), "--out", str(synth_dir)]) == 0
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


def digest_tree(directory, skip=("manifest.json",)):
    out = {}
    for dirpath, _, filenames in os.walk(directory):
        for name in filenames:
            if name in skip:
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, directory)
            out[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
    return out


def test_synth_outputs(workdir):
    synth_dir = workdir / "synth"
    records = load_records(str(synth_dir / "trace.csv"))
    truth = load_truth_csv(str(synth_dir / "truth.csv"))
    assert len(truth) == 24
    assert {r.user_id for r in records} <= set(truth)
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
    assert digest_tree(a) == digest_tree(b)
    assert digest_tree(a) != digest_tree(c)  # spec seed 5 vs override 7


def test_pipeline_outputs_and_recovers_truth(workdir):
    pipe_dir = workdir / "pipe"
    expected = {
        "distances.csv",
        "distances.csv.json",
        "partition.csv",
        "merges.csv",
        "cdf_intra.csv",
        "cdf_inter.csv",
        "summary.csv",
        "sims.csv",
        "report.json",
        "manifest.json",
    }
    assert expected <= set(os.listdir(pipe_dir))
    assert (pipe_dir / "matrices" / "index.json").exists()
    assert (pipe_dir / "eigen").is_dir()
    partition = load_partition_csv(str(pipe_dir / "partition.csv"))
    truth = load_truth_csv(str(workdir / "synth" / "truth.csv"))
    from eigenbehavior import partition_from_labels

    assert partition.n_clusters == 3
    assert jaccard(partition, partition_from_labels(truth)) == 1.0
    report = json.loads((pipe_dir / "report.json").read_text())
    assert len(report["clusters"]) == 3


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
    # the similarity table ships regardless of clustering metric: the simulate
    # command's similarity scheme reads it from the pipeline directory
    assert (out / "sims.csv").exists()


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


def test_compare_prints_jaccard(workdir, capsys):
    partition = str(workdir / "pipe" / "partition.csv")
    assert main(["compare", partition, partition]) == 0
    assert capsys.readouterr().out.strip() == "1.0000"


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
    tree_a = digest_tree(pipe_a)
    assert tree_a == digest_tree(pipe_b)
    assert len(tree_a) > 10  # matrices + eigen files are all covered
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
    assert digest_tree(sim_a) == digest_tree(sim_b)


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
    pipe.mkdir()
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "eigenbehavior" in capsys.readouterr().out


def test_cli_import_leaves_scipy_unloaded():
    # scipy is loaded on the first L1 distance, so `simulate` never pays for it
    src = os.path.dirname(os.path.dirname(eigenbehavior.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, eigenbehavior.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
