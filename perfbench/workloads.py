"""Seeded inputs for the benchmark workloads.

Every workload starts from one planted population written by the program's
own `synth` command from a spec built here.  The access-point rewrite (with
concurrent, overlapping second associations and the AP -> building map) and
the profile-half split of the replay workload are done here as well, so the
program only ever receives generated files.  Each generator is a pure
function of its seed: rerunning it with the same seed writes the same bytes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

DAY_SECONDS = 86_400
N_LOCATIONS = 20  # buildings L000..L019
N_DAYS = 28
N_GROUPS = 13
COMMON_BUILDING = N_LOCATIONS - 1  # every mode spends 10% of its day here
APS_PER_BUILDING = 4
OVERLAP_SHARE = 0.25  # sessions that get a concurrent second association
SPLIT_FRACTION = 0.5

DEV_SEED = 0
# Named before any optimisation is written: a gain claimed on DEV_SEED must
# also hold on this seed, which nobody tunes against.
HELD_OUT_SEED = 101


@dataclass(frozen=True)
class Workload:
    name: str
    users: int
    command: str  # "pipeline" or "simulate"
    metric: str = "eigen"  # pipeline metric; the replay profile half always uses eigen
    access_points: bool = False  # rewrite buildings to APs with overlaps + locmap
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "group-800",
            800,
            "pipeline",
            why="population-scale eigen pipeline: persist, O(n^3) agglomerate, "
            "summary table, build_matrices and the twice-computed sim table",
        ),
        Workload(
            "replay-250",
            250,
            "simulate",
            why="profile-cast replay of four schemes: extract_encounters and simulate "
            "do the work, cluster and distances do none",
        ),
    )
}
# Not in BENCHMARK.json.  AMVD_AP runs by hand only: a full benchmark pass
# (4 + 22 runs per workload) with three workloads does not fit in 57 minutes
# on a 2-CPU machine whose CPU speed halves at times.  SMOKE is small enough
# for the benchmark's own tests.
AMVD_AP = Workload(
    "amvd-ap-400",
    400,
    "pipeline",
    metric="amvd",
    access_points=True,
    why="AP trace with overlapping sessions and a locmap: aggregate_locations, "
    "overlap splitting in build_matrix and the AMVD pair loop; cluster does little",
)
SMOKE = Workload("smoke", 39, "pipeline", access_points=True, why="benchmark self-test")
ALL_WORKLOADS = {**WORKLOADS, AMVD_AP.name: AMVD_AP, SMOKE.name: SMOKE}


def rank_sizes(n_users: int, n_groups: int = N_GROUPS) -> list[int]:
    """Group sizes proportional to 1/rank, apportioned by largest remainder."""
    raw = [n_users / r for r in range(1, n_groups + 1)]
    total = sum(1 / r for r in range(1, n_groups + 1))
    raw = [x / total for x in raw]
    sizes = [int(x) for x in raw]
    order = sorted(range(n_groups), key=lambda i: (-(raw[i] - sizes[i]), i))
    for i in order[: n_users - sum(sizes)]:
        sizes[i] += 1
    if min(sizes) < 1:
        raise ValueError(f"{n_users} users cannot fill {n_groups} groups")
    return sizes


def population_spec(n_users: int, seed: int) -> dict:
    """`synth` spec: 13 rank-size groups, each with two modes chosen 0.7 / 0.3.

    Group g dwells mostly in its own building g (mode 1) or in one of six
    shared secondary buildings (mode 2); both modes spend 10% of the online
    time in the common building.  Users are online on 70% of days and every
    day's weights get +-0.05 uniform noise.
    """
    groups = []
    for g, size in enumerate(rank_sizes(n_users)):
        modes = []
        for dominant, prob in ((g, 0.7), (N_GROUPS + g % 6, 0.3)):
            weights = [0.0] * N_LOCATIONS
            weights[dominant] = 0.9
            weights[COMMON_BUILDING] = 0.1
            modes.append({"weights": weights, "prob": prob})
        groups.append({"size": size, "p_online": 0.7, "modes": modes})
    return {
        "n_locations": N_LOCATIONS,
        "n_days": N_DAYS,
        "seed": seed,
        "noise_epsilon": 0.05,
        "groups": groups,
    }


def pipeline_config(trace_end: int = N_DAYS * DAY_SECONDS) -> dict:
    return {"trace_start": 0, "trace_end": trace_end}


def scenario() -> dict:
    return {
        "split_fraction": SPLIT_FRACTION,
        "schemes": [
            {"scheme": "flooding"},
            {"scheme": "centralized"},
            {"scheme": "similarity", "sim_threshold": 0.5},
            {"scheme": "rtx", "p": 0.5, "ttl_factor": 3},
        ],
    }


def access_point(building: str, k: int) -> str:
    return f"{building}-ap{k}"


def building_name(index: int) -> str:
    return f"L{index:03d}"


def read_trace(path: str) -> list[tuple[str, str, int, int]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["user", "location", "start", "end"]:
            raise ValueError(f"{path}: not a trace CSV")
        return [(u, loc, int(s), int(e)) for u, loc, s, e in reader]


def write_trace(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user", "location", "start", "end"])
        writer.writerows(rows)


def write_locmap(path: str) -> None:
    """Every AP of every building, whether or not the trace uses it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["ap", "building"])
        for b in range(N_LOCATIONS):
            for k in range(APS_PER_BUILDING):
                writer.writerow([access_point(building_name(b), k), building_name(b)])


def rewrite_to_access_points(trace_in: str, trace_out: str, locmap_out: str, seed: int) -> int:
    """Move each session to a random AP of its building and add overlaps.

    A quarter of the sessions get a concurrent second association that starts
    later by 10-50% of the session length and is shifted by the same amount
    (cut at midnight): half at another AP of the same building, half at an AP
    of the common building.  Returns the number of records written.
    """
    rows = read_trace(trace_in)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA9]))
    n = len(rows)
    ap = rng.integers(0, APS_PER_BUILDING, n)
    extra = rng.random(n) < OVERLAP_SHARE
    same_building = rng.random(n) < 0.5
    other_ap = (ap + rng.integers(1, APS_PER_BUILDING, n)) % APS_PER_BUILDING
    shift = rng.uniform(0.1, 0.5, n)
    out = []
    for i, (user, building, start, end) in enumerate(rows):
        out.append((user, access_point(building, int(ap[i])), start, end))
        if not extra[i]:
            continue
        delta = max(1, int(shift[i] * (end - start)))
        s2 = start + delta
        e2 = min(end + delta, (start // DAY_SECONDS + 1) * DAY_SECONDS)
        if e2 <= s2:
            continue
        loc2 = (
            access_point(building, int(other_ap[i]))
            if same_building[i]
            else access_point(building_name(COMMON_BUILDING), int(other_ap[i]))
        )
        out.append((user, loc2, s2, e2))
    write_trace(trace_out, out)
    write_locmap(locmap_out)
    return len(out)


def split_time(rows) -> float:
    """The split point `simulate` uses: `fraction` of the way across the trace span."""
    lo = min(r[2] for r in rows)
    hi = max(r[3] for r in rows)
    return lo + SPLIT_FRACTION * (hi - lo)


def write_profile_half(trace_in: str, trace_out: str) -> tuple[int, float]:
    """Write the part of the trace before the split, clipped to a whole second.

    Returns (end, split): end = floor(split) is the profile pipeline's
    trace_end, so no profile can see the replay half.
    """
    rows = read_trace(trace_in)
    split = split_time(rows)
    end = math.floor(split)
    write_trace(trace_out, [(u, loc, s, min(e, end)) for u, loc, s, e in rows if s < end])
    return end, split
