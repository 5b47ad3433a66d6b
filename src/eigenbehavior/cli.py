"""Command-line front end.

Subcommands: synth (generate a planted-group trace), pipeline (matrices,
distances, clustering, group report), simulate (group-cast replay on the
second trace half), compare (Jaccard index of two partition files).  Every
output directory gets exactly one manifest.json recording the tool version,
seed, config hash, and input digests.  Given identical inputs and seed, all
data outputs are byte-identical across reruns (the manifest carries a
wall-clock timestamp and is the one exception).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import __version__, persist
from .distances import sim_triangle
from .groups import jaccard, rank_size_fit, top_groups_share
from .pipeline import METRICS, run_pipeline
from .profilecast import (
    DEFAULT_MIN_GROUP_SIZE,
    DEFAULT_SOURCE_FRACTION,
    SCHEME_PARAMS,
    EncounterStream,
    SimConfig,
    build_messages,
    check_min_group_size,
    check_source_fraction,
    check_split_fraction,
    compare_schemes,
    simulate,
    split_trace,
)
from .summaries import DEFAULT_POWER_FLOOR, SUMMARY_NAMES, check_power_floor
from .synth import generate, spec_from_json, spec_to_json_dict
from .trace import (
    MatricesTooLarge,
    Records,
    TraceConfig,
    aggregate_locations,
    build_matrices,
    json_int,
    json_keys,
    json_number,
    load_location_map,
    load_records,
    read_json,
)


def threshold(text: str) -> float:
    """--threshold's value, refused when NaN: no linkage exceeds NaN."""
    value = float(text)
    if math.isnan(value):
        raise argparse.ArgumentTypeError("threshold must not be NaN")
    return value


def cluster_count(text: str) -> int:
    """--clusters' value, refused below 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"clusters must be at least 1, got {value}")
    return value


def seed(text: str) -> int:
    """--seed's value, refused below 0, as numpy's generators refuse it."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    """The command line; a value that an option's type refuses raises
    argparse.ArgumentError (exit_on_error=False), which main turns into exit 2
    before any input is read."""
    parser = argparse.ArgumentParser(
        prog="eigenbehavior",
        description="Mine behavioral groups from WLAN association traces and "
        "replay group-cast messaging over them.",
        exit_on_error=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True, help="output directory")
    common = argparse.ArgumentParser(add_help=False, parents=[out])
    common.add_argument("--seed", type=seed, default=0,
                        help="seed of simulate's draws; pipeline draws none and records it in manifest.json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", parents=[out], help="generate a synthetic trace", exit_on_error=False)
    p_synth.add_argument("spec", help="synth spec JSON")
    p_synth.add_argument("--seed", type=seed, help="seed in place of the spec's (0 included)")

    p_pipe = sub.add_parser("pipeline", parents=[common], help="matrices to group report", exit_on_error=False)
    p_pipe.add_argument("trace", help="trace CSV (user,location,start,end)")
    p_pipe.add_argument("--config", required=True, help="trace/analysis config JSON")
    p_pipe.add_argument("--locmap", help="ap,building CSV to aggregate locations")
    p_pipe.add_argument("--metric", choices=METRICS, default="eigen")
    stop = p_pipe.add_mutually_exclusive_group(required=True)
    stop.add_argument("--clusters", type=cluster_count, help="stop at this cluster count")
    stop.add_argument("--threshold", type=threshold, help="stop when linkages exceed this")

    p_sim = sub.add_parser("simulate", parents=[common], help="replay group-cast schemes", exit_on_error=False)
    p_sim.add_argument("trace", help="trace CSV; the second half is replayed")
    p_sim.add_argument("--pipeline", required=True, dest="pipeline_dir",
                       help="output directory of a pipeline run on the profile half")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON (schemes, split)")

    p_cmp = sub.add_parser("compare", help="Jaccard index of two partition CSVs", exit_on_error=False)
    p_cmp.add_argument("partition_a")
    p_cmp.add_argument("partition_b")
    return parser


def cmd_synth(args: argparse.Namespace) -> int:
    spec = spec_from_json(args.spec)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    records, truth = generate(spec)
    os.makedirs(args.out, exist_ok=True)
    persist.write_trace_csv(os.path.join(args.out, "trace.csv"), records)
    persist.write_truth_csv(os.path.join(args.out, "truth.csv"), truth)
    persist.write_run_manifest(
        args.out, "synth", spec.seed, spec_to_json_dict(spec), [args.spec]
    )
    return 0


def _load_trace(path: str) -> Records:
    """The trace at path, refused when it holds no records."""
    records = load_records(path)
    if not len(records):
        raise ValueError(f"{path}: trace has no records")
    return records


def _flag(payload: dict, key: str) -> bool:
    """A true/false config entry, false when absent."""
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise TypeError(f"{key} must be true or false, got {value!r}")
    return value


def _pipeline_config(payload: dict, records: Records) -> tuple[dict, TraceConfig, dict]:
    """The config file's payload, its trace config and run_pipeline's options."""
    window = payload.get("window")
    if window is not None:
        if not isinstance(window, list):
            raise TypeError(f"window must be null or a list of two integers, got {window!r}")
        entries = {f"window[{i}]": entry for i, entry in enumerate(window)}
        window = tuple(json_int(entries, key) for key in entries)
    config = TraceConfig(
        # load_records admits integer seconds only, so the default bounds are exact.
        trace_start=json_int(payload, "trace_start", int(records.start.min())),
        trace_end=json_int(payload, "trace_end", int(records.end.max())),
        slot_seconds=json_int(payload, "slot_seconds", 86400),
        window=window,
        normalization=payload.get("normalization", "normalized"),
        align_midnight=_flag(payload, "align_midnight"),
    )
    options = {
        "power_floor": check_power_floor(json_number(payload, "power_floor", DEFAULT_POWER_FLOOR)),
        "include_offline": _flag(payload, "include_offline"),
    }
    json_keys(payload, [*dataclasses.asdict(config), *options])  # the keys index.json's config stores
    return payload, config, options


def cmd_pipeline(args: argparse.Namespace) -> int:
    records = _load_trace(args.trace)
    if args.locmap:
        records = aggregate_locations(records, load_location_map(args.locmap))
    payload, config, options = read_json(
        args.config, "pipeline config", lambda raw: _pipeline_config(raw, records)
    )
    try:
        table = build_matrices(records, config)
    except MatricesTooLarge as exc:  # the config's horizon and slots size them
        raise ValueError(f"{args.config}: {exc}") from None
    del records  # nothing reads the trace after the table is built
    # the summary metrics cluster only the online users, eigen and amvd every user
    summary = args.metric in (name for _, name in SUMMARY_NAMES)
    clustered, who = (len(table.live), "online users") if summary else (len(table), "users")
    if args.clusters is not None and args.clusters > clustered:
        raise ValueError(
            f"--clusters {args.clusters} exceeds the {clustered} {who} of {args.trace}"
            f" that --metric {args.metric} clusters"
        )
    result = run_pipeline(
        table, metric=args.metric, threshold=args.threshold, target_count=args.clusters, **options
    )
    location_index = result.matrices.location_index
    os.makedirs(args.out, exist_ok=True)
    persist.write_matrix_index(os.path.join(args.out, "matrices"), result.matrices, config, options)
    persist.write_eigen_sets(os.path.join(args.out, "eigen.csv"), result.eigen_sets, location_index)
    persist.write_distance_matrix(os.path.join(args.out, "distances.npy"), result.distance_matrix)
    persist.write_partition_csv(os.path.join(args.out, "partition.csv"), result.partition)
    persist.write_merge_history_csv(os.path.join(args.out, "merges.csv"), result.partition)
    persist.write_summary_table_csv(os.path.join(args.out, "summary.csv"), result.summary_table)
    try:
        slope = rank_size_fit(result.partition)[0]
    except ValueError:
        slope = None
    try:
        share = top_groups_share(result.partition)
    except ValueError:
        share = None
    persist.write_report_json(
        os.path.join(args.out, "report.json"),
        result.profiles,
        location_index,
        slope,
        share,
    )
    stop_payload = {"threshold": args.threshold, "clusters": args.clusters}
    inputs = [args.trace, args.config] + ([args.locmap] if args.locmap else [])
    persist.write_run_manifest(
        args.out, "pipeline", args.seed, {**payload, **stop_payload, "metric": args.metric}, inputs
    )
    return 0


def _scenario(payload: dict, seed: int) -> tuple[dict, list[SimConfig], float, dict]:
    """The scenario file's payload, one SimConfig per listed scheme (seeded
    seed, seed + 1, ...), the split fraction and build_messages' options."""
    json_keys(payload, ("schemes", "split_fraction", "source_fraction", "min_group_size"))
    schemes = payload.get("schemes")
    if not schemes:
        raise ValueError("scenario lists no schemes")
    configs = []
    for i, entry in enumerate(schemes):
        if not isinstance(entry, dict):
            raise TypeError(f"scheme entry {entry!r} is not an object")
        json_keys(entry, ("scheme", *SCHEME_PARAMS), f"scheme entry {i}")
        params = {key: json_number(entry, key) for key in SCHEME_PARAMS if key in entry}
        configs.append(SimConfig(scheme=entry.get("scheme", ""), seed=seed + i, **params))
    options = {
        "source_fraction": check_source_fraction(
            json_number(payload, "source_fraction", DEFAULT_SOURCE_FRACTION)
        ),
        "min_group_size": check_min_group_size(json_int(payload, "min_group_size", DEFAULT_MIN_GROUP_SIZE)),
    }
    split_fraction = check_split_fraction(json_number(payload, "split_fraction", 0.5))
    return payload, configs, split_fraction, options


def _check_profile_half(pipeline_dir: str, split_time: float) -> None:
    """Refuse a pipeline directory whose profile reaches past the split time."""
    index = os.path.join(pipeline_dir, "matrices", "index.json")
    end = persist.load_trace_end(index)
    if end > split_time:
        raise ValueError(
            f"{index}: trace_end {end} is after the split time {split_time}, "
            "so the profile saw the replay half"
        )


def cmd_simulate(args: argparse.Namespace) -> int:
    records = _load_trace(args.trace)
    scenario, configs, split_fraction, options = read_json(
        args.scenario, "scenario", lambda raw: _scenario(raw, args.seed)
    )
    if not any(c.scheme == "flooding" for c in configs):
        raise ValueError("scenario must include the flooding scheme (normalization baseline)")
    _, second, mid = split_trace(records, split_fraction)
    _check_profile_half(args.pipeline_dir, mid)
    partition = persist.load_partition_csv(os.path.join(args.pipeline_dir, "partition.csv"))
    eigen_sets = None
    if any(c.scheme == "similarity" for c in configs):
        path = os.path.join(args.pipeline_dir, "eigen.csv")
        eigen_sets = persist.load_eigen_sets(path)
        if len(eigen_sets) < 2:
            raise ValueError(f"{path}: the similarity scheme needs two or more users with eigen sets")
    messages = build_messages(partition, creation_time=mid, seed=args.seed, **options)
    sim_values, sim_ids = (None, None) if eigen_sets is None else sim_triangle(eigen_sets)
    encounters = EncounterStream(second)
    results = [
        simulate(messages, encounters, config, sim_values, sim_ids).aggregate for config in configs
    ]
    ratios = compare_schemes([(c.scheme, r) for c, r in zip(configs, results)])
    os.makedirs(args.out, exist_ok=True)
    persist.write_results_csv(os.path.join(args.out, "results.csv"), configs, results)
    persist.write_normalized_results_csv(os.path.join(args.out, "normalized.csv"), configs, ratios)
    persist.write_replay_report_json(
        os.path.join(args.out, "report.json"), len(second), len(encounters), messages, configs, results
    )
    persist.write_run_manifest(
        args.out, "simulate", args.seed, scenario, [args.trace, args.scenario]
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    a = persist.load_partition_csv(args.partition_a)
    b = persist.load_partition_csv(args.partition_b)
    only = set(a.assignment).symmetric_difference(b.assignment)
    if only:
        element = min(only)
        paths = (args.partition_a, args.partition_b)
        inside, outside = paths if element in a.assignment else paths[::-1]
        raise ValueError(f"{inside} and {outside} cover different elements: {element!r} is only in {inside}")
    print(f"{jaccard(a, b):.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"eigenbehavior: error: {exc}", file=sys.stderr)
        return 2
    handlers = {
        "synth": cmd_synth,
        "pipeline": cmd_pipeline,
        "simulate": cmd_simulate,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"eigenbehavior {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
