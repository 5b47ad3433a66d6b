"""Benchmark of the eigenbehavior command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --record
    python3 perfbench/run.py --write-benchmark-json

Run from a checkout of the repository.  Set-up writes the workload's inputs
from the seed (several times, to time it); then the workload's CLI command
runs in a fresh child process, one at a time, at least MIN_RUNS times and
while another run still fits in S seconds.  Every run's outputs are checked.
Everything runs on one CPU beside a speed probe (speedprobe.py), and every
time is reported at the probe's reference CPU speed.
With --trace 0 the end-to-end metrics are reported; with --trace 1 traced
and untraced runs alternate, and the per-layer metrics come from the traced
ones.  A human-readable report goes to stdout, followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --record stores the outputs
of one run as the reference for that workload and seed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import check  # noqa: E402
import metrics  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402
from speedprobe import Probe  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
TRACER = os.path.join(HERE, "tracer.py")

MIN_RUNS = 3  # a median needs at least three samples
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170
# One BLAS/OpenMP thread per child (never more than the CPUs we may use), so
# timings measure the program rather than thread scheduling.
BLAS_THREADS = min(1, len(os.sched_getaffinity(0)))
SECONDS_METRICS = {m.name for m in metrics.PER_LAYER if m.unit == "s"}
SOURCE_DATE_EPOCH = "1700000000"  # pins the manifest timestamp, so outputs are byte-stable


class SetupError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=SRC,
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        SOURCE_DATE_EPOCH=SOURCE_DATE_EPOCH,
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
    )
    return env


@dataclass
class Child:
    returncode: int
    seconds: float
    rss_mb: float
    spawned_ns: int
    ended_ns: int
    cpu_s: float


def run_child(argv: list[str], log_path: str) -> Child:
    """Run one child to completion; wall time is spawn to exit, RSS from wait4."""
    with open(log_path, "wb") as log:
        spawned = time.monotonic_ns()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    cpu_s = usage.ru_utime + usage.ru_stime
    return Child(proc.returncode, (ended - spawned) / 1e9, usage.ru_maxrss / 1024, spawned, ended, cpu_s)


def log_tail(path: str, lines: int = 5) -> str:
    with open(path, errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def cli(args: list, log_path: str) -> None:
    argv = [sys.executable, "-m", "eigenbehavior.cli", *map(str, args)]
    child = run_child(argv, log_path)
    if child.returncode != 0:
        raise SetupError(f"{' '.join(argv[3:5])} exited {child.returncode}: {log_tail(log_path)}")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


@dataclass
class Inputs:
    args: list[str]  # the measured CLI command, without --out
    trace: str
    truth: str
    records: int
    profile_jaccard: float | None = None  # replay: the profile half's partition vs truth


def set_up(w: workloads.Workload, seed: int, d: str) -> Inputs:
    """Generate one workload's inputs into directory d."""
    os.makedirs(d)
    spec = os.path.join(d, "spec.json")
    write_json(spec, workloads.population_spec(w.users, seed))
    population = os.path.join(d, "population")
    cli(["synth", spec, "--seed", seed, "--out", population], os.path.join(d, "synth.log"))
    trace = os.path.join(population, "trace.csv")
    truth = os.path.join(population, "truth.csv")
    config = os.path.join(d, "config.json")
    write_json(config, workloads.pipeline_config())
    locmap_args = []
    if w.access_points:
        ap_trace, locmap = os.path.join(d, "trace_ap.csv"), os.path.join(d, "locmap.csv")
        workloads.rewrite_to_access_points(trace, ap_trace, locmap, seed)
        trace, locmap_args = ap_trace, ["--locmap", locmap]
    stop = ["--clusters", str(workloads.N_GROUPS), "--seed", str(seed)]
    profile_jaccard = None
    if w.command == "pipeline":
        args = ["pipeline", trace, "--config", config, *locmap_args, "--metric", w.metric, *stop]
    else:
        half, half_config = os.path.join(d, "profile_trace.csv"), os.path.join(d, "profile_config.json")
        end, split = workloads.write_profile_half(trace, half)
        write_json(half_config, workloads.pipeline_config(end))
        profile = os.path.join(d, "profile")
        cli(["pipeline", half, "--config", half_config, "--metric", "eigen", *stop, "--out", profile],
            os.path.join(d, "profile.log"))
        with open(os.path.join(profile, "matrices", "index.json")) as fh:
            profiled_to = json.load(fh)["config"]["trace_end"]
        if profiled_to > split:
            raise SetupError(f"profile half ends at {profiled_to}, after the split at {split}")
        profile_jaccard = check.pair_jaccard(
            check.read_partition(os.path.join(profile, "partition.csv")), check.read_partition_truth(truth)
        )
        scenario = os.path.join(d, "scenario.json")
        write_json(scenario, workloads.scenario())
        args = ["simulate", trace, "--pipeline", profile, "--scenario", scenario, "--seed", str(seed)]
    with open(trace, "rb") as fh:
        records = sum(1 for _ in fh) - 1
    return Inputs(args, trace, truth, records, profile_jaccard)


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def set_up_timed(w, seed: int, work: str, reps: int, probe: Probe) -> tuple[Inputs, list[float]]:
    """Set up `reps` times from scratch; every repetition must write the same trace.

    Returns the set-up times at reference speed.
    """
    times, digests = [], set()
    for rep in range(reps):
        d = os.path.join(work, f"setup{rep}")
        t0 = time.monotonic_ns()
        inputs = set_up(w, seed, d)
        t1 = time.monotonic_ns()
        times.append((t1 - t0) / 1e9 * probe.speed(t0, t1))
        digests.add(file_sha256(inputs.trace))
        if rep + 1 < reps:
            shutil.rmtree(d)
    if len(digests) != 1:
        raise SetupError("set-up wrote different traces for the same seed")
    return inputs, times


@dataclass
class Run:
    seconds: float  # at reference speed: wall_s * speed
    wall_s: float
    speed: float  # CPU speed during the run, relative to the probe's reference
    cpu_s: float  # the child's user + system time, at reference speed
    rss_mb: float
    traced: bool
    fingerprint: dict | None = None
    layers: dict[str, float] = field(default_factory=dict)
    sim_counts: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def fingerprint(w, inputs: Inputs, out: str) -> dict:
    if w.command == "pipeline":
        return check.pipeline_fingerprint(out, inputs.truth)
    return check.simulate_fingerprint(out, inputs.profile_jaccard)


def dir_usage(path: str) -> tuple[int, int]:
    files = size = 0
    for folder, _, names in os.walk(path):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(folder, name))
    return files, size


def one_run(w, inputs: Inputs, work: str, i: int, traced: bool, probe: Probe) -> Run:
    out = os.path.join(work, f"run{i}")
    log = os.path.join(work, f"run{i}.log")
    spans_path = os.path.join(work, f"spans{i}.json")
    head = [sys.executable, TRACER, spans_path, "--"] if traced else [sys.executable, "-m", "eigenbehavior.cli"]
    child = run_child([*head, *inputs.args, "--out", out], log)
    speed = probe.speed(child.spawned_ns, child.ended_ns)
    run = Run(child.seconds * speed, child.seconds, speed, child.cpu_s * speed, child.rss_mb, traced)
    if child.returncode != 0:
        run.errors.append(f"run {i} exited {child.returncode}: {log_tail(log)}")
        return run
    try:
        run.fingerprint = fingerprint(w, inputs, out)
        if traced:
            with open(spans_path) as fh:
                payload = json.load(fh)
            spans = [spanlib.Span(**s) for s in payload["spans"]]
            startup = (payload["imported_ns"] - child.spawned_ns) / 1e9
            layers = spanlib.layer_metrics(spans, startup, *dir_usage(out))
            run.layers = {k: v * speed if k in SECONDS_METRICS else v for k, v in layers.items()}
            run.sim_counts = [
                {k: s.attrs.get(k) for k in ("scheme", "delivered", "n_targets")}
                for s in spans
                if s.name == "profilecast.simulate"
            ]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        run.errors.append(f"run {i}: unreadable output: {exc!r}")
        return run
    finally:
        shutil.rmtree(out, ignore_errors=True)
    run.errors += check.invariant_errors(run.fingerprint, w.users, workloads.N_GROUPS)
    return run


def measure(w, inputs: Inputs, work: str, seconds: int, trace: bool, probe: Probe) -> list[Run]:
    """At least MIN_RUNS runs, and more while the next one should end within `seconds`.

    With tracing, traced and untraced runs alternate, starting traced, so
    there are at least two traced runs to compare counts across.
    """
    runs: list[Run] = []
    start = time.monotonic()
    while True:
        runs.append(one_run(w, inputs, work, len(runs), trace and len(runs) % 2 == 0, probe))
        elapsed = time.monotonic() - start
        if len(runs) >= MIN_RUNS and elapsed + runs[-1].wall_s > seconds:
            return runs


def compare_outputs(runs: list[Run], reference: dict | None) -> None:
    """Check each run against the reference, or, without one, against the first run."""
    baseline = reference["outputs"] if reference else next(
        (r.fingerprint for r in runs if r.fingerprint is not None), None
    )
    for i, run in enumerate(runs):
        if run.fingerprint is None:
            continue
        diffs = check.differences(baseline, run.fingerprint, "outputs")
        if reference and run.traced and reference.get("sim_counts") is not None:
            diffs += check.differences(reference["sim_counts"], run.sim_counts, "sim_counts")
        run.errors += [f"run {i}: {d}" for d in diffs[:5]]


def check_counts_repeat(runs: list[Run]) -> None:
    counts = [m.name for m in metrics.PER_LAYER if m.unit in metrics.COUNT_UNITS]
    traced = [r for r in runs if r.traced and not r.errors]
    for run in traced[1:]:
        moved = [n for n in counts if run.layers[n] != traced[0].layers[n]]
        if moved:
            run.errors.append(f"counts differ between traced runs: {moved}")


def scheme_row(fp: dict | None, scheme: str) -> dict | None:
    rows = (fp or {}).get("normalized", [])
    return next((row for row in rows if row["scheme"] == scheme), None)


def end_to_end(runs: list[Run], inputs: Inputs, setup_times: list[float]) -> dict[str, float]:
    ok = [r for r in runs if not r.errors]
    run_s = statistics.median(r.seconds for r in ok)
    return {
        "run_s": run_s,
        "records_per_s": inputs.records / run_s,
        "peak_rss_mb": statistics.median(r.rss_mb for r in ok),
        "setup_s": statistics.median(setup_times),
        "jaccard_truth": ok[0].fingerprint["jaccard_truth"],
    }


def per_layer(runs: list[Run]) -> dict[str, float]:
    ok = [r for r in runs if not r.errors]
    traced = [r for r in ok if r.traced]
    plain = [r for r in ok if not r.traced]
    counts = {m.name for m in metrics.PER_LAYER if m.unit in metrics.COUNT_UNITS}
    out = {
        name: traced[0].layers[name] if name in counts else statistics.median(r.layers[name] for r in traced)
        for name in traced[0].layers
    }
    similarity = scheme_row(traced[0].fingerprint, "similarity")
    out["delivery_ratio.similarity"] = similarity["delivery_ratio"] if similarity else 0.0
    out["overhead_ratio.similarity"] = similarity["overhead"] if similarity else 0.0
    out["tracing.overhead_ratio"] = (
        statistics.median(r.seconds for r in traced) / statistics.median(r.seconds for r in plain)
        if plain
        else 0.0
    )
    return out


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_metadata() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(),
        "platform": platform.platform(),
    }


def report(w, seed: int, trace: bool, meta: dict, runs: list[Run], setup_times, values: dict) -> None:
    attempted = len(runs)
    failed = sum(1 for r in runs if r.errors)
    print(f"eigenbehavior benchmark: workload {w.name}, seed {seed}, trace {int(trace)}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"runs {attempted} attempted, {failed} failed, failed_ratio {failed / attempted:.4g} (lower is better)")
    print("run seconds " + " ".join(f"{r.seconds:.3f}{'T' if r.traced else ''}" for r in runs))
    print("run wall seconds " + " ".join(f"{r.wall_s:.3f}" for r in runs))
    print("run cpu seconds " + " ".join(f"{r.cpu_s:.3f}" for r in runs))
    print("run speed " + " ".join(f"{r.speed:.3f}" for r in runs))
    print("setup seconds " + " ".join(f"{t:.3f}" for t in setup_times))
    for run in runs:
        for error in run.errors:
            print(f"FAILED {error}")
    similarity = scheme_row(runs[0].fingerprint, "similarity")
    if not trace and similarity:
        print(f"delivery_ratio.similarity {similarity['delivery_ratio']:.6g} ratio (higher is better)")
        print(f"overhead_ratio.similarity {similarity['overhead']:.6g} ratio (lower is better)")
    listed = metrics.PER_LAYER if trace else metrics.END_TO_END
    for m in listed:
        if m.name in values:
            print(f"{m.name:40s} {values[m.name]:>14.6g} {m.unit:10s} ({m.better} is better)")


def record(w, seed: int, work: str, probe: Probe) -> int:
    inputs = set_up(w, seed, os.path.join(work, "setup0"))
    run = one_run(w, inputs, work, 0, True, probe)
    if run.errors:
        print("\n".join(run.errors), file=sys.stderr)
        return 1
    entry = {"outputs": run.fingerprint}
    if run.sim_counts:
        entry["sim_counts"] = run.sim_counts
    check.store_reference(w.name, seed, entry)
    print(f"recorded {w.name} seed {seed} -> {check.reference_path(w.name)}")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEV_SEED)
    parser.add_argument("--seconds", type=int, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="store this seed's outputs as the reference")
    parser.add_argument("--write-benchmark-json", action="store_true", help="regenerate BENCHMARK.json")
    args = parser.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        contract = metrics.benchmark_json(workloads.WORKLOADS.values())
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(contract, fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isfile(os.path.join(SRC, "eigenbehavior", "cli.py")):
        print(f"perfbench: no eigenbehavior sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    w = workloads.ALL_WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # The probe must share the CPU the program runs on: the CPUs of a shared
    # machine change speed independently.  Children inherit this affinity.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # On SIGTERM, unwind: the running child is killed and the probe stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with Probe(os.path.join(work, "speed.txt")) as probe:
            return measure_and_report(args, w, work, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_and_report(args, w, work: str, probe: Probe) -> int:
    if args.record:
        return record(w, args.seed, work, probe)
    meta = run_metadata()
    inputs, setup_times = set_up_timed(w, args.seed, work, 1 if args.trace else SETUP_REPS, probe)
    runs = measure(w, inputs, work, args.seconds, bool(args.trace), probe)
    compare_outputs(runs, check.load_reference(w.name, args.seed))
    if args.trace:
        check_counts_repeat(runs)
    failed = sum(1 for r in runs if r.errors)
    complete = any(not r.errors and r.traced for r in runs) if args.trace else failed < len(runs)
    values = {}
    if complete:
        values = per_layer(runs) if args.trace else end_to_end(runs, inputs, setup_times)
    report(w, args.seed, bool(args.trace), meta, runs, setup_times, values)
    listed = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    result = {
        "correct": failed == 0 and complete,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in listed if m.name in values},
    }
    results = os.path.join(WORK, "results")
    stem = os.path.join(results, f"{w.name}-seed{args.seed}-trace{args.trace}")
    os.makedirs(results, exist_ok=True)
    write_json(stem + ".json", {**result, "meta": meta, "setup_s": setup_times, "runs": [r.__dict__ for r in runs]})
    if args.trace and os.path.exists(os.path.join(work, "spans0.json")):
        shutil.move(os.path.join(work, "spans0.json"), stem + "-spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
