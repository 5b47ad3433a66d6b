"""Every metric the benchmark reports, with its unit and direction.

BENCHMARK.json at the repository root is generated from these lists and the
workload table (`python3 perfbench/run.py --write-benchmark-json`), so the
names printed by a run and the names in the contract cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

LAYERS = ("cli", "pipeline", "trace", "summaries", "distances", "cluster", "groups", "profilecast", "persist")
SCHEMES = ("flooding", "centralized", "similarity", "rtx")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: float | None = None  # end-to-end only: allowed worsening, share of the parent's median


# Times are at the speed probe's reference speed (speedprobe.py), which took
# their spread on a shared 2-CPU virtual machine from 0.17-0.30 to about
# 0.05.  The time bounds stay wide because that machine also has rarer,
# minute-long spells in which the program runs up to 3x slower while the
# probe does not.
END_TO_END = (
    Metric("run_s", "s", "lower", 0.25),
    Metric("records_per_s", "records/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("jaccard_truth", "ratio", "higher", 0.05),
)


def _per_layer() -> tuple[Metric, ...]:
    s = lambda name: Metric(name, "s", "lower")  # noqa: E731
    count = lambda name: Metric(name, "count", "lower")  # noqa: E731
    metrics = [
        s("cli.startup_s"),
        s("trace.load_records_s"),
        Metric("trace.records", "count", "higher"),
        s("trace.aggregate_locations_s"),
        s("trace.build_matrices_s"),
        Metric("trace.users", "count", "higher"),
        s("summaries.summary_table_s"),
        count("summaries.eigen_behaviors.calls"),
        count("summaries.behavioral_modes.calls"),
        s("distances.eigen_sets_for_s"),
        count("distances.eigen_sets_for.calls"),
        s("distances.sim_matrix_s"),
        count("distances.sim_matrix.calls"),
        count("distances.basis_vectors"),
        s("distances.eigen_distance_matrix_s"),
        s("distances.amvd_distance_matrix_s"),
        s("cluster.agglomerate_s"),
        count("cluster.agglomerate.calls"),
        count("cluster.merges"),
        s("cluster.distance_cdfs_s"),
        s("groups.group_profiles_s"),
        count("groups.clusters"),
        s("pipeline.run_pipeline_s"),
        s("persist.write_s"),
        s("persist.load_s"),
        Metric("persist.bytes_written", "bytes", "lower"),
        count("persist.files_written"),
        s("profilecast.split_trace_s"),
        s("profilecast.extract_encounters_s"),
        Metric("profilecast.encounters", "count", "higher"),
        s("profilecast.build_messages_s"),
        Metric("profilecast.messages", "count", "higher"),
    ]
    for scheme in SCHEMES:
        metrics += [
            s(f"profilecast.simulate_s.{scheme}"),
            count(f"profilecast.transmissions.{scheme}"),
            Metric(f"profilecast.useful_ratio.{scheme}", "ratio", "higher"),
        ]
    metrics += [
        Metric("delivery_ratio.similarity", "ratio", "higher"),
        Metric("overhead_ratio.similarity", "ratio", "lower"),
    ]
    metrics += [s(f"{layer}.self_s") for layer in LAYERS]
    metrics.append(Metric("tracing.overhead_ratio", "ratio", "lower"))
    return tuple(metrics)


PER_LAYER = _per_layer()
RUN_SECONDS = 30  # four runs of each workload at reference speed
COUNT_UNITS = ("count", "bytes")  # must repeat exactly between traced runs


def benchmark_json(workloads) -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
