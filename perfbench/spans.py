"""Spans from a traced run and the per-layer metrics derived from them.

A span is one call across a layer boundary: its name is
"<module>.<function>", its parent is the innermost boundary call open when
it started, and times are CLOCK_MONOTONIC nanoseconds, which the benchmark
and its child processes share.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from metrics import LAYERS, SCHEMES


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of `intervals` inside [lo, hi)."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start) - covered(children[span.id], span.start, span.end)
        for span in spans
    }


def layer_metrics(spans, startup_s: float, files_written: int, bytes_written: int) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, which needs untraced runs.

    A boundary that was never called reports 0, so every workload prints the
    same keys.
    """
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    name_of = {span.id: span.name for span in spans}

    def seconds(selected) -> float:
        return sum(span.end - span.start for span in selected) / 1e9

    def total(name: str) -> float:
        return seconds(by_name[name])

    def attr(name: str, key: str, selected=None) -> int:
        return sum(span.attrs.get(key, 0) for span in (by_name[name] if selected is None else selected))

    def outermost(prefix: str):
        return [
            span
            for span in spans
            if span.name.startswith(prefix)
            and not (span.parent is not None and name_of[span.parent].startswith(prefix))
        ]

    population = [
        span
        for span in by_name["cluster.agglomerate"]
        if span.parent is not None and name_of[span.parent].startswith("pipeline.")
    ]
    m: dict[str, float] = {
        "cli.startup_s": startup_s,
        "trace.load_records_s": total("trace.load_records"),
        "trace.records": attr("trace.load_records", "records"),
        "trace.aggregate_locations_s": total("trace.aggregate_locations"),
        "trace.build_matrices_s": total("trace.build_matrices"),
        "trace.users": attr("trace.build_matrices", "users"),
        "summaries.summary_table_s": total("summaries.summary_table"),
        "summaries.eigen_behaviors.calls": len(by_name["summaries.eigen_behaviors"]),
        "summaries.behavioral_modes.calls": len(by_name["summaries.behavioral_modes"]),
        "distances.eigen_sets_for_s": total("distances.eigen_sets_for"),
        "distances.eigen_sets_for.calls": len(by_name["distances.eigen_sets_for"]),
        "distances.sim_matrix_s": total("distances.sim_matrix"),
        "distances.sim_matrix.calls": len(by_name["distances.sim_matrix"]),
        "distances.basis_vectors": max(
            (span.attrs.get("basis_vectors", 0) for span in by_name["distances.sim_matrix"]), default=0
        ),
        "distances.eigen_distance_matrix_s": total("distances.eigen_distance_matrix"),
        "distances.amvd_distance_matrix_s": total("distances.amvd_distance_matrix"),
        "cluster.agglomerate_s": seconds(population),
        "cluster.agglomerate.calls": len(by_name["cluster.agglomerate"]),
        "cluster.merges": attr("cluster.agglomerate", "merges", population),
        "cluster.distance_cdfs_s": total("cluster.distance_cdfs"),
        "groups.group_profiles_s": total("groups.group_profiles"),
        "groups.clusters": attr("groups.group_profiles", "clusters"),
        "pipeline.run_pipeline_s": total("pipeline.run_pipeline"),
        "persist.write_s": seconds(outermost("persist.write_")),
        "persist.load_s": seconds(outermost("persist.load_")),
        "persist.bytes_written": bytes_written,
        "persist.files_written": files_written,
        "profilecast.split_trace_s": total("profilecast.split_trace"),
        "profilecast.extract_encounters_s": total("profilecast.extract_encounters"),
        "profilecast.encounters": attr("profilecast.extract_encounters", "encounters"),
        "profilecast.build_messages_s": total("profilecast.build_messages"),
        "profilecast.messages": attr("profilecast.build_messages", "messages"),
    }
    for scheme in SCHEMES:
        runs = [s for s in by_name["profilecast.simulate"] if s.attrs.get("scheme") == scheme]
        transmissions = attr("profilecast.simulate", "transmissions", runs)
        delivered = attr("profilecast.simulate", "delivered", runs)
        m[f"profilecast.simulate_s.{scheme}"] = seconds(runs)
        m[f"profilecast.transmissions.{scheme}"] = transmissions
        m[f"profilecast.useful_ratio.{scheme}"] = delivered / transmissions if transmissions else 0.0
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer) / 1e9
    return m
