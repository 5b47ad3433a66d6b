"""Tests of the benchmark itself: span arithmetic, generators, output checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import metrics  # noqa: E402
import spans as spanlib  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


def tree() -> list[Span]:
    """root [0,100) holds a [10,40) (which holds a1 [15,25)), b [30,60) overlapping a,
    c [70,80), and d [90,110) running past root's end."""
    return [
        Span(0, "cli.main", 0, 100),
        Span(1, "trace.load_records", 10, 40, 0, {"records": 7}),
        Span(2, "persist.write_json", 15, 25, 1),
        Span(3, "trace.build_matrices", 30, 60, 0, {"users": 3}),
        Span(4, "persist.write_matrices", 70, 80, 0),
        Span(5, "persist.load_sims_csv", 90, 110, 0),
    ]


def test_self_time_subtracts_union_of_children():
    own = spanlib.self_times(tree())
    # children of root cover [10,60) + [70,80) + [90,100) = 70
    assert own == {0: 30, 1: 20, 2: 10, 3: 30, 4: 10, 5: 20}


def test_covered_merges_nested_and_overlapping_intervals():
    assert spanlib.covered([(5, 8), (0, 10), (2, 3), (12, 15)], 0, 20) == 13
    assert spanlib.covered([(-5, 5), (18, 30)], 0, 20) == 7
    assert spanlib.covered([], 0, 20) == 0


def test_layer_metrics_from_hand_built_tree():
    m = spanlib.layer_metrics(tree(), startup_s=0.5, files_written=2, bytes_written=99)
    assert m["cli.startup_s"] == 0.5
    assert m["cli.self_s"] == pytest.approx(30e-9)
    assert m["trace.self_s"] == pytest.approx(50e-9)
    assert m["persist.self_s"] == pytest.approx(40e-9)
    assert m["trace.records"] == 7 and m["trace.users"] == 3
    assert m["trace.load_records_s"] == pytest.approx(30e-9)
    assert m["persist.write_s"] == pytest.approx(20e-9)  # write_json and write_matrices are both outermost
    assert m["persist.load_s"] == pytest.approx(20e-9)
    assert (m["persist.files_written"], m["persist.bytes_written"]) == (2, 99)


def test_boundaries_never_called_report_zero_not_missing():
    m = spanlib.layer_metrics([Span(0, "cli.main", 0, 10)], 0.1, 0, 0)
    added_by_run = {"delivery_ratio.similarity", "overhead_ratio.similarity", "tracing.overhead_ratio"}
    assert set(m) == {x.name for x in metrics.PER_LAYER} - added_by_run
    assert m["cluster.agglomerate.calls"] == 0
    assert m["profilecast.simulate_s.rtx"] == 0
    assert m["profilecast.useful_ratio.similarity"] == 0


def test_population_agglomerate_time_counts_only_the_pipeline_call():
    spans = [
        Span(0, "cli.main", 0, 100),
        Span(1, "pipeline.cluster_population", 10, 50, 0),
        Span(2, "cluster.agglomerate", 11, 49, 1, {"merges": 5}),
        Span(3, "summaries.behavioral_modes", 60, 70, 0),
        Span(4, "cluster.agglomerate", 61, 69, 3, {"merges": 2}),
    ]
    m = spanlib.layer_metrics(spans, 0.0, 0, 0)
    assert m["cluster.agglomerate_s"] == pytest.approx(38e-9)
    assert m["cluster.agglomerate.calls"] == 2
    assert m["cluster.merges"] == 5


def test_differences_exact_for_ints_and_digests_tolerant_for_floats():
    ref = {"sha": "ab", "overhead": 12, "ratio": 0.5, "rows": [1.0, 2.0]}
    assert check.differences(ref, {"sha": "ab", "overhead": 12, "ratio": 0.5000001, "rows": [1.0, 2.0]}) == []
    assert check.differences(ref, {**ref, "overhead": 13})
    assert check.differences(ref, {**ref, "sha": "ac"})
    assert check.differences(ref, {**ref, "ratio": 0.5001})
    assert check.differences(ref, {**ref, "rows": [1.0]})


def test_pair_jaccard_counts_pairs():
    a = {"u1": "0", "u2": "0", "u3": "1", "u4": "1"}
    assert check.pair_jaccard(a, {"u1": "x", "u2": "x", "u3": "y", "u4": "y"}) == 1.0
    # b joins everything: pairs together in a = 2, in b = 6, in both = 2
    assert check.pair_jaccard(a, dict.fromkeys(a, "z")) == pytest.approx(2 / 6)


def test_benchmark_json_is_generated_from_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    assert committed == metrics.benchmark_json(workloads.WORKLOADS.values())
    bounds = {m["name"]: m["bound"] for m in committed["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_probe_speed_averages_the_samples_inside_the_interval(tmp_path):
    unit_ns = int(speedprobe.REFERENCE_UNIT_S * 1e9)
    path = tmp_path / "speed.txt"
    # at 100: reference speed; at 200: half speed; 300 is outside; the last line is half-written
    path.write_text(f"100 {unit_ns}\n200 {2 * unit_ns}\n300 {unit_ns}\n400")
    probe = speedprobe.Probe(str(path))
    assert probe.speed(100, 300) == pytest.approx(0.75)
    assert probe.speed(200, 500) == pytest.approx(0.75)
    with pytest.raises(RuntimeError):
        probe.speed(301, 1000)


def test_rank_sizes_fill_every_group():
    for n in (workloads.SMOKE.users, 200, 400, 800):
        sizes = workloads.rank_sizes(n)
        assert sum(sizes) == n and len(sizes) == workloads.N_GROUPS
        assert sizes == sorted(sizes, reverse=True) and min(sizes) >= 1


def synth(seed: int, out: str) -> str:
    spec = out + "-spec.json"
    with open(spec, "w") as fh:
        json.dump(workloads.population_spec(workloads.SMOKE.users, seed), fh)
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    subprocess.run(
        [sys.executable, "-m", "eigenbehavior.cli", "synth", spec, "--seed", str(seed), "--out", out],
        env=env,
        check=True,
    )
    return os.path.join(out, "trace.csv")


@pytest.fixture(scope="module")
def smoke_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("smoke")
    trace = synth(3, str(base / "pop"))
    return base, trace


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_generators_write_the_same_bytes_for_the_same_seed(smoke_dir):
    base, trace = smoke_dir
    assert read_bytes(synth(3, str(base / "again"))) == read_bytes(trace)
    assert read_bytes(synth(4, str(base / "other"))) != read_bytes(trace)
    outputs = []
    for name in ("a", "b"):
        workloads.rewrite_to_access_points(trace, str(base / f"ap_{name}.csv"), str(base / f"map_{name}.csv"), 3)
        workloads.write_profile_half(trace, str(base / f"half_{name}.csv"))
        outputs.append([read_bytes(base / f"{kind}_{name}.csv") for kind in ("ap", "map", "half")])
    assert outputs[0] == outputs[1]
    workloads.rewrite_to_access_points(trace, str(base / "ap_c.csv"), str(base / "map_c.csv"), 4)
    assert read_bytes(base / "ap_c.csv") != outputs[0][0]


def test_access_point_trace_overlaps_and_locmap_covers_every_ap(smoke_dir):
    base, trace = smoke_dir
    n = workloads.rewrite_to_access_points(trace, str(base / "ap.csv"), str(base / "map.csv"), 3)
    rows = workloads.read_trace(str(base / "ap.csv"))
    assert n == len(rows) > len(workloads.read_trace(trace))
    with open(base / "map.csv", newline="") as fh:
        locmap = dict(list(csv.reader(fh))[1:])
    assert len(locmap) == workloads.N_LOCATIONS * workloads.APS_PER_BUILDING
    assert {loc for _, loc, _, _ in rows} <= set(locmap)
    common = workloads.building_name(workloads.COMMON_BUILDING)
    overlaps = {"same building": 0, "common building": 0}
    by_user: dict[str, list] = {}
    for user, loc, start, end in rows:
        by_user.setdefault(user, []).append((start, end, locmap[loc]))
    for sessions in by_user.values():
        sessions.sort()
        for (_, e1, b1), (s2, _, b2) in zip(sessions, sessions[1:]):
            if s2 < e1:  # synth sessions are back to back, so only added ones overlap
                if b1 == b2:
                    overlaps["same building"] += 1
                elif common in (b1, b2):
                    overlaps["common building"] += 1
    assert overlaps["same building"] > 0 and overlaps["common building"] > 0


def test_profile_half_ends_before_the_split(smoke_dir):
    base, trace = smoke_dir
    end, split = workloads.write_profile_half(trace, str(base / "half.csv"))
    assert end <= split == workloads.split_time(workloads.read_trace(trace))
    assert max(e for _, _, _, e in workloads.read_trace(str(base / "half.csv"))) <= end


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_reports_every_metric(trace):
    done = bench("--workload", "smoke", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    listed = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert set(result["metrics"]) == {m.name for m in listed}
    assert all(result["metrics"][m.name]["unit"] == m.unit for m in listed)
    if trace == "0":
        assert result["metrics"]["jaccard_truth"]["value"] == 1.0
    else:
        assert result["metrics"]["trace.users"]["value"] == workloads.SMOKE.users
        assert result["metrics"]["distances.sim_matrix.calls"]["value"] == 2


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("--workload", "group-800", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
