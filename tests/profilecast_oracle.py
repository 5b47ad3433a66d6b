"""Reference implementations of the replay layer, for tests only.

``encounters_oracle`` intersects every pair of merged intervals by brute force.
``extract_encounters`` and ``simulate`` are the replay layer as it stood before
columnar encounters: the sweep rebuilds the active list for every interval and
emits one frozen ``Encounter`` per pair, and the replay makes one numpy
round-trip per encounter over (messages x users) arrays.  They are kept
verbatim, so the shipped engine is checked against an independent
implementation, never against itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from eigenbehavior.profilecast import Message, SimConfig, SimResult, SimulationOutcome
from eigenbehavior.trace import AssociationRecord
from trace_oracle import _union


def encounters_oracle(records):
    """Brute force: merge each user's intervals per location, intersect all pairs."""

    def union(intervals):
        merged = []
        for s, e in sorted(intervals):
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        return merged

    per = {}
    for r in records:
        per.setdefault(r.location_id, {}).setdefault(r.user_id, []).append(
            (r.start, r.end)
        )
    out = []
    for loc, users in per.items():
        merged = {u: union(iv) for u, iv in users.items()}
        ids = sorted(merged)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                for s1, e1 in merged[ids[i]]:
                    for s2, e2 in merged[ids[j]]:
                        s, e = max(s1, s2), min(e1, e2)
                        if e > s:
                            out.append((ids[i], ids[j], s, e, loc))
    return sorted(out)


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

