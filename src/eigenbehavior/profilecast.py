"""Group-cast message dissemination over encounter traces.

The trace is split in two by time: the first half profiles users and fixes the
groups, the second half is replayed as a delay-tolerant network.  An encounter
is a maximal interval during which two users' association intervals overlap at
the same location.  Messages are created at the start of the replay half, one
per source, addressed to the source's whole group; sources are a random
fraction of each sufficiently large group.

Forwarding schemes:

* flooding: every holder copies to every non-holder it meets (delivery and
  delay upper bound, transmission worst case).
* centralized: like flooding, but a copy crosses only to members of the
  message's group, so it never leaks outside.
* similarity: a holder copies to a met user when their symmetrized normalized
  similarity (from the profile half, treated as pre-shared) reaches the
  threshold.
* rtx: single-custody random walk; the current holder hands the message over
  with probability p, spending one hop of a budget of round(ttl_factor *
  group size) transmissions.

One forwarding decision is taken per (encounter, message); receipt time is the
encounter start; a node holds at most one copy of a message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .cluster import Partition
from .trace import AssociationRecord, _union

SCHEMES = ("flooding", "centralized", "similarity", "rtx")

DEFAULT_SOURCE_FRACTION = 0.2
DEFAULT_MIN_GROUP_SIZE = 6  # groups with more than five members get messages
DEFAULT_TTL_FACTORS = (3, 6, 9)


@dataclass(frozen=True)
class Encounter:
    """Two users co-located over [start, end); a < b lexicographically."""

    a: str
    b: str
    start: float
    end: float
    location: str

    def __post_init__(self) -> None:
        if self.a >= self.b:
            raise ValueError("encounter users must satisfy a < b")
        if not self.end > self.start:
            raise ValueError("encounter must have end > start")


@dataclass(frozen=True)
class Message:
    message_id: str
    source: str
    targets: frozenset[str]
    creation_time: float

    def __post_init__(self) -> None:
        if self.source in self.targets:
            raise ValueError("source cannot be its own target")
        if not self.targets:
            raise ValueError("message needs at least one target")


@dataclass(frozen=True)
class SimConfig:
    scheme: str
    sim_threshold: float | None = None
    p: float | None = None
    ttl_factor: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == "similarity":
            if self.sim_threshold is None or not 0.0 <= self.sim_threshold <= 1.0:
                raise ValueError("similarity scheme needs sim_threshold in [0, 1]")
        if self.scheme == "rtx":
            if self.p is None or not 0.0 < self.p <= 1.0:
                raise ValueError("rtx scheme needs p in (0, 1]")
            if self.ttl_factor is None or self.ttl_factor <= 0:
                raise ValueError("rtx scheme needs a positive ttl_factor")

    @property
    def param(self) -> str:
        if self.scheme == "similarity":
            return f"{self.sim_threshold:g}"
        if self.scheme == "rtx":
            return f"p={self.p:g},ttl={self.ttl_factor:g}"
        return ""


@dataclass
class SimResult:
    """Dissemination metrics, per message or aggregated."""

    delivery_ratio: float
    mean_delay: float  # seconds over delivered targets; nan when none delivered
    overhead: int  # total transmissions, target or not
    delivered: int = 0
    n_targets: int = 0


@dataclass
class SimulationOutcome:
    per_message: dict[str, SimResult]
    aggregate: SimResult
    leaked: int = 0  # receipts by nodes outside the message's target set + source


def split_trace(
    records: Sequence[AssociationRecord],
    fraction: float = 0.5,
    span: tuple[float, float] | None = None,
) -> tuple[list[AssociationRecord], list[AssociationRecord], float]:
    """Clip the trace into a profile half and a replay half at a time point.

    Returns (first, second, split_time).  A record straddling the split lands
    in both halves, clipped.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    if not records:
        raise ValueError("cannot split an empty trace")
    if span is None:
        span = (min(r.start for r in records), max(r.end for r in records))
    lo, hi = span
    if not hi > lo:
        raise ValueError("degenerate trace span")
    mid = lo + fraction * (hi - lo)
    first, second = [], []
    for rec in records:
        if rec.start < mid:
            first.append(
                AssociationRecord(rec.user_id, rec.location_id, rec.start, min(rec.end, mid))
            )
        if rec.end > mid:
            second.append(
                AssociationRecord(rec.user_id, rec.location_id, max(rec.start, mid), rec.end)
            )
    return first, second, mid


def _merged_user_intervals(
    records: Iterable[AssociationRecord],
) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """location -> user -> merged interval list."""
    per: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for rec in records:
        per.setdefault(rec.location_id, {}).setdefault(rec.user_id, []).append(
            (rec.start, rec.end)
        )
    for users in per.values():
        for user, intervals in users.items():
            users[user] = _union(intervals)
    return per


def extract_encounters(records: Sequence[AssociationRecord]) -> list[Encounter]:
    """All maximal pairwise co-presence intervals, sorted by (start, a, b)."""
    encounters: list[Encounter] = []
    for location, users in _merged_user_intervals(records).items():
        flat = [
            (s, e, user) for user, intervals in users.items() for s, e in intervals
        ]
        flat.sort()
        active: list[tuple[float, float, str]] = []  # (end, start, user)
        for s, e, user in flat:
            active = [entry for entry in active if entry[0] > s]
            for other_end, other_start, other in active:
                if other == user:
                    continue
                a, b = sorted((user, other))
                encounters.append(
                    Encounter(a, b, max(s, other_start), min(e, other_end), location)
                )
            active.append((e, s, user))
    encounters.sort(key=lambda enc: (enc.start, enc.a, enc.b))
    return encounters


def build_messages(
    partition: Partition,
    creation_time: float,
    source_fraction: float = DEFAULT_SOURCE_FRACTION,
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE,
    seed: int = 0,
) -> list[Message]:
    """One group-cast message per sampled source in each large-enough group."""
    if not 0.0 < source_fraction <= 1.0:
        raise ValueError("source_fraction must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    messages = []
    counter = 0
    for members in partition.clusters():
        if len(members) < min_group_size:
            continue
        members = [str(m) for m in members]
        k = max(1, round(source_fraction * len(members)))
        sources = rng.choice(len(members), size=k, replace=False)
        for idx in sorted(sources):
            source = members[idx]
            messages.append(
                Message(
                    f"m{counter:04d}",
                    source,
                    frozenset(m for m in members if m != source),
                    creation_time,
                )
            )
            counter += 1
    if not messages:
        raise ValueError(f"no group reaches min_group_size={min_group_size}")
    return messages


def simulate(
    messages: Sequence[Message],
    encounters: Sequence[Encounter],
    config: SimConfig,
    sim_table: np.ndarray | None = None,
    sim_ids: Sequence[str] | None = None,
) -> SimulationOutcome:
    """Replay the encounters under one forwarding scheme.

    The similarity scheme needs sim_table/sim_ids: the population-normalized
    similarity matrix from the profile half and its user-id order; the gate is
    the symmetrized value (mean of the two directions).
    """
    if not messages:
        raise ValueError("no messages to simulate")
    users = sorted(
        {m.source for m in messages}
        | {t for m in messages for t in m.targets}
        | {e.a for e in encounters}
        | {e.b for e in encounters}
    )
    uidx = {u: i for i, u in enumerate(users)}
    n_users = len(users)
    n_msgs = len(messages)

    gate = None
    if config.scheme == "similarity":
        if sim_table is None or sim_ids is None:
            raise ValueError("similarity scheme needs sim_table and sim_ids")
        table = np.asarray(sim_table, dtype=float)
        sym = (table + table.T) / 2.0
        pos = {u: i for i, u in enumerate(sim_ids)}
        missing = [u for u in users if u not in pos]
        if missing:
            raise ValueError(f"users without profile similarities: {missing[:5]}")
        order = np.array([pos[u] for u in users])
        gate = sym[np.ix_(order, order)] >= config.sim_threshold

    member = np.zeros((n_msgs, n_users), dtype=bool)  # target set + source
    is_target = np.zeros((n_msgs, n_users), dtype=bool)
    seen = np.zeros((n_msgs, n_users), dtype=bool)
    arrival = np.full((n_msgs, n_users), np.nan)
    created = np.empty(n_msgs)
    tx = np.zeros(n_msgs, dtype=int)
    holder = np.full(n_msgs, -1, dtype=int)  # rtx custody
    budget = np.zeros(n_msgs, dtype=int)
    for m, msg in enumerate(messages):
        src = uidx[msg.source]
        seen[m, src] = True
        member[m, src] = True
        holder[m] = src
        created[m] = msg.creation_time
        for t in msg.targets:
            member[m, uidx[t]] = True
            is_target[m, uidx[t]] = True
        if config.scheme == "rtx":
            group_size = len(msg.targets) + 1
            budget[m] = int(round(config.ttl_factor * group_size))
    rng = np.random.default_rng(config.seed)

    def receive(mask: np.ndarray, node: int, now: float) -> None:
        if not np.any(mask):
            return
        seen[mask, node] = True
        arrival[mask, node] = now
        tx[mask] += 1

    for enc in encounters:
        a, b = uidx[enc.a], uidx[enc.b]
        now = enc.start
        live = created <= now
        if config.scheme == "rtx":
            give_ab = live & (holder == a) & ~seen[:, b] & (budget > 0)
            give_ba = live & (holder == b) & ~seen[:, a] & (budget > 0)
            any_give = give_ab | give_ba
            if np.any(any_give):
                if config.p < 1.0:
                    roll = rng.random(n_msgs) < config.p
                    give_ab &= roll
                    give_ba &= roll
                receive(give_ab, b, now)
                receive(give_ba, a, now)
                holder[give_ab] = b
                holder[give_ba] = a
                budget[give_ab | give_ba] -= 1
            continue
        fwd_ab = live & seen[:, a] & ~seen[:, b]
        fwd_ba = live & seen[:, b] & ~seen[:, a]
        if config.scheme == "centralized":
            fwd_ab &= member[:, b]
            fwd_ba &= member[:, a]
        elif config.scheme == "similarity":
            if not gate[a, b]:
                continue
        receive(fwd_ab, b, now)
        receive(fwd_ba, a, now)

    per_message: dict[str, SimResult] = {}
    total_delivered = 0
    total_targets = 0
    total_tx = 0
    delays: list[np.ndarray] = []
    leaked = int((seen & ~member).sum())
    for m, msg in enumerate(messages):
        got = seen[m] & is_target[m]
        delivered = int(got.sum())
        n_targets = int(is_target[m].sum())
        delay = arrival[m, got] - created[m]
        per_message[msg.message_id] = SimResult(
            delivery_ratio=delivered / n_targets,
            mean_delay=float(delay.mean()) if delivered else float("nan"),
            overhead=int(tx[m]),
            delivered=delivered,
            n_targets=n_targets,
        )
        total_delivered += delivered
        total_targets += n_targets
        total_tx += int(tx[m])
        delays.append(delay)
    all_delays = np.concatenate(delays) if delays else np.array([])
    aggregate = SimResult(
        delivery_ratio=total_delivered / total_targets,
        mean_delay=float(all_delays.mean()) if all_delays.size else float("nan"),
        overhead=total_tx,
        delivered=total_delivered,
        n_targets=total_targets,
    )
    return SimulationOutcome(per_message, aggregate, leaked)


def compare_schemes(
    results: dict[str, SimResult], baseline: str = "flooding"
) -> list[tuple[str, float, float, float]]:
    """Each scheme's aggregate metrics as ratios to the baseline scheme.

    Rows are (label, delivery_ratio_rel, mean_delay_rel, overhead_rel).
    """
    if baseline not in results:
        raise ValueError(f"baseline {baseline!r} missing from results")
    base = results[baseline]
    if base.delivery_ratio <= 0 or base.overhead <= 0:
        raise ValueError("baseline delivered nothing; ratios undefined")
    rows = []
    for label in results:
        res = results[label]
        rows.append(
            (
                label,
                res.delivery_ratio / base.delivery_ratio,
                res.mean_delay / base.mean_delay if np.isfinite(res.mean_delay) else float("nan"),
                res.overhead / base.overhead,
            )
        )
    return rows
