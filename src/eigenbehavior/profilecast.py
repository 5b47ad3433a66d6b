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

Encounters are columnar (``Encounters``: parallel arrays over int user and
location codes).  The replay keeps one Python-int bitset over the messages
per user, so one encounter costs a few integer operations whatever the number
of messages; earliest-arrival replay over a time-ordered contact sequence
follows Wu et al., "Path problems in temporal graphs" (VLDB 2014).

The replay reads the encounters in blocks of ``REPLAY_BLOCK`` rows, and numpy
picks the rows of a block that can still change state; Python visits only
those.  A user is saturated once it has seen every message it may receive;
seen only grows, so it stays saturated, and flooding, centralized and
similarity drop the rows between two users saturated at the block's start.
rtx walks only the rows of users holding custody of a message with hops
left, in row order, and draws its p-rolls many at a time from the same
Generator stream, so every transmission is the one of a row-by-row replay.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cluster import Partition
from .trace import AssociationRecord, Records, _present, _runs, as_records, merge_intervals

SCHEMES = ("flooding", "centralized", "similarity", "rtx")

DEFAULT_SOURCE_FRACTION = 0.2
DEFAULT_MIN_GROUP_SIZE = 6  # groups with more than five members get messages
# simulate reads the encounters in blocks of this many rows, so its per-row
# scratch arrays and lists stay a few MB whatever the replay's length.
REPLAY_BLOCK = 1 << 14


EncounterRow = tuple[str, str, float, float, str]  # (a, b, start, end, location)


@dataclass(frozen=True, eq=False)
class Encounters:
    """Encounters as parallel columns.

    Row i: users[a[i]] and users[b[i]] co-located over [start[i], end[i]) at
    locations[loc[i]].  ``users`` and ``locations`` are sorted and hold exactly
    the ids that occur in some row, so the codes order like the ids and
    a < b holds for the codes exactly when it holds for the ids.
    """

    users: tuple[str, ...]
    locations: tuple[str, ...]
    a: np.ndarray
    b: np.ndarray
    start: np.ndarray
    end: np.ndarray
    loc: np.ndarray

    def __post_init__(self) -> None:
        columns = {"a": np.intp, "b": np.intp, "start": float, "end": float, "loc": np.intp}
        for name, dtype in columns.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if len({getattr(self, name).shape for name in columns}) != 1 or self.a.ndim != 1:
            raise ValueError("encounter columns must be 1-d and of equal length")
        if np.any(self.a >= self.b):
            raise ValueError("encounter users must satisfy a < b")
        if not np.all(self.end > self.start):
            raise ValueError("encounter must have end > start")

    def __len__(self) -> int:
        return len(self.a)

    @classmethod
    def from_rows(cls, rows: Iterable[EncounterRow]) -> Encounters:
        """Columns from (a, b, start, end, location) rows, in the given order."""
        rows = list(rows)
        users = tuple(sorted({r[0] for r in rows} | {r[1] for r in rows}))
        locations = tuple(sorted({r[4] for r in rows}))
        ucode = {u: i for i, u in enumerate(users)}
        lcode = {loc: i for i, loc in enumerate(locations)}
        return cls(
            users,
            locations,
            [ucode[r[0]] for r in rows],
            [ucode[r[1]] for r in rows],
            [r[2] for r in rows],
            [r[3] for r in rows],
            [lcode[r[4]] for r in rows],
        )

    def rows(self) -> list[EncounterRow]:
        users, locations = self.users, self.locations
        return [
            (users[a], users[b], start, end, locations[loc])
            for a, b, start, end, loc in zip(
                self.a.tolist(),
                self.b.tolist(),
                self.start.tolist(),
                self.end.tolist(),
                self.loc.tolist(),
            )
        ]


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


def check_split_fraction(fraction: float) -> float:
    """fraction, checked to lie strictly between 0 and 1."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly between 0 and 1")
    return fraction


def split_trace(
    records: Records | Iterable[AssociationRecord],
    fraction: float = 0.5,
    span: tuple[float, float] | None = None,
) -> tuple[Records, Records, float]:
    """Clip the trace into a profile half and a replay half at a time point.

    Returns (first, second, split_time).  A record straddling the split lands
    in both halves, clipped.
    """
    check_split_fraction(fraction)
    records = as_records(records)
    if not len(records):
        raise ValueError("cannot split an empty trace")
    if span is None:
        span = (records.start.min().item(), records.end.max().item())
    lo, hi = span
    if not hi > lo:
        raise ValueError("degenerate trace span")
    mid = lo + fraction * (hi - lo)
    start, end = records.start, records.end
    first = records.select(start < mid, start, np.minimum(end, mid))
    second = records.select(end > mid, np.maximum(start, mid), end)
    return first, second, mid


def extract_encounters(records: Records) -> Encounters:
    """All maximal pairwise co-presence intervals, sorted by (start, a, b).

    Each user's intervals are merged per location first (abutting ones too,
    by ``trace.merge_intervals`` over the bounds' ranks), so a user never
    meets itself and one pair's meetings at a location never touch.  With a
    location's merged intervals in start order, interval j meets exactly the
    later intervals that start before it ends: one contiguous run, found by a
    binary search.  Rows with equal (start, a, b) come from different
    locations and keep the order in which the locations first appear in the
    records.
    """
    if not len(records):
        return Encounters.from_rows([])
    n = len(records)
    values, rank = np.unique(np.concatenate((records.start, records.end)), return_inverse=True)
    run, lo, hi = merge_intervals(
        records.loc * len(records.users) + records.user, rank[:n], rank[n:]
    )
    loc, user = np.divmod(run, len(records.users))

    # Merged intervals by (location, start); j's partners run up to the first
    # interval at a later location or starting at or after end[j].
    starts_key = loc * len(values) + lo
    order = np.argsort(starts_key, kind="stable")
    user, loc, lo, hi, starts_key = user[order], loc[order], lo[order], hi[order], starts_key[order]
    stop = np.searchsorted(starts_key, loc * len(values) + hi)
    first = np.arange(len(lo))
    j, k = _runs(stop - first - 1)
    i = j + 1 + k
    a = np.minimum(user[i], user[j])
    b = np.maximum(user[i], user[j])
    appearance = np.argsort(np.argsort(np.unique(records.loc, return_index=True)[1]))
    order = np.lexsort((appearance[loc[j]], b, a, lo[i]))
    users, pair = _present(records.users, np.concatenate((a[order], b[order])))
    locations, loc = _present(records.locations, loc[j][order])
    return Encounters(
        users,
        locations,
        pair[: len(order)],
        pair[len(order) :],
        values[lo[i][order]],
        values[np.minimum(hi[i], hi[j])[order]],
        loc,
    )


def check_source_fraction(source_fraction: float) -> float:
    """source_fraction, checked to lie in (0, 1]."""
    if not 0.0 < source_fraction <= 1.0:
        raise ValueError("source_fraction must lie in (0, 1]")
    return source_fraction


def build_messages(
    partition: Partition,
    creation_time: float,
    source_fraction: float = DEFAULT_SOURCE_FRACTION,
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE,
    seed: int = 0,
) -> list[Message]:
    """One group-cast message per sampled source in each large-enough group."""
    check_source_fraction(source_fraction)
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


def _bits_of(mask: np.ndarray) -> int:
    """Bitset with bit m set where mask[m] is true."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _rolls(rng: np.random.Generator, n_msgs: int, p: float) -> Iterator[int]:
    """Bitsets of ``rng.random(n_msgs) < p``, one per call of next().

    The draws come as rows of ``rng.random((k, n_msgs))``, about REPLAY_BLOCK
    numbers at a time; row i holds the bits of the i-th ``rng.random(n_msgs)``
    call, so the Generator gives every roll the numbers it gave one call each.
    """
    rows = max(1, REPLAY_BLOCK // n_msgs)
    width = (n_msgs + 7) // 8
    while True:
        packed = np.packbits(rng.random((rows, n_msgs)) < p, axis=1, bitorder="little").tobytes()
        for i in range(0, len(packed), width):
            yield int.from_bytes(packed[i : i + width], "little")


def simulate(
    messages: Sequence[Message],
    encounters: Encounters,
    config: SimConfig,
    sim_table: np.ndarray | None = None,
    sim_ids: Sequence[str] | None = None,
) -> SimulationOutcome:
    """Replay the encounters, in the given order, under one forwarding scheme.

    The similarity scheme needs sim_table/sim_ids: the population-normalized
    similarity matrix from the profile half and its user-id order; the gate is
    the symmetrized value (mean of the two directions).

    State is one bitset over the messages per user (bit m is message m): the
    messages it has seen, those it may receive (all, or under centralized
    those of its groups), and under rtx those in its custody.  Both directions
    of an encounter are decided from the state before it.

    The encounters are read REPLAY_BLOCK rows at a time, and only the rows
    that can still change state are visited:

    * flooding, centralized and similarity skip the rows that start before
      the first message exists, those between two users saturated at the
      start of the block (seen covers what they may receive: such a row
      forwards nothing either way, and seen only grows), and under similarity
      those whose gate, ``(t[a, b] + t[b, a]) / 2.0``, is below the threshold;
    * rtx walks, in row order, only the rows of users that hold custody of a
      message with hops left, through a heap of the current custodians over a
      per-block index from user to rows; a taker joins the walk at its next
      row.  The p-rolls come from ``_rolls``, so every transmission is the one
      a roll per handover would make.
    """
    if not messages:
        raise ValueError("no messages to simulate")
    users = sorted(
        {m.source for m in messages}
        | {t for m in messages for t in m.targets}
        | set(encounters.users)
    )
    uidx = {u: i for i, u in enumerate(users)}
    n_users = len(users)
    n_msgs = len(messages)
    to_user = np.array([uidx[u] for u in encounters.users], dtype=np.intp)

    if config.scheme == "similarity":
        if sim_table is None or sim_ids is None:
            raise ValueError("similarity scheme needs sim_table and sim_ids")
        table = np.asarray(sim_table, dtype=float)
        pos = {u: i for i, u in enumerate(sim_ids)}
        missing = [u for u in users if u not in pos]
        if missing:
            raise ValueError(f"users without profile similarities: {missing[:5]}")
        sim_row = np.array([pos[u] for u in users], dtype=np.intp)

    member = np.zeros((n_msgs, n_users), dtype=bool)  # target set + source
    is_target = np.zeros((n_msgs, n_users), dtype=bool)
    created = np.empty(n_msgs)
    seen = [0] * n_users
    custody = [0] * n_users  # rtx
    budget = [0] * n_msgs  # rtx
    for m, msg in enumerate(messages):
        src = uidx[msg.source]
        seen[src] |= 1 << m
        custody[src] |= 1 << m
        member[m, src] = True
        created[m] = msg.creation_time
        for t in msg.targets:
            member[m, uidx[t]] = True
            is_target[m, uidx[t]] = True
        if config.scheme == "rtx":
            budget[m] = int(round(config.ttl_factor * (len(msg.targets) + 1)))
    if config.scheme == "centralized":
        reach = [_bits_of(column) for column in member.T]
    else:
        reach = [(1 << n_msgs) - 1] * n_users
    funded = _bits_of(np.array(budget) > 0)  # rtx: messages with hops left
    # users whose seen covers reach; kept up to date from the receipts at
    # the start of each block
    saturated = np.array([not r & ~s for r, s in zip(reach, seen)])
    receipts_seen = 0

    # live(now) = messages created at or before now, whatever the encounter order
    by_creation = np.argsort(created, kind="stable")
    creation_sorted = created[by_creation]
    live_prefix = [0]
    for m in by_creation.tolist():
        live_prefix.append(live_prefix[-1] | 1 << m)

    rng = np.random.default_rng(config.seed)
    rolls = _rolls(rng, n_msgs, config.p) if config.scheme == "rtx" and config.p < 1.0 else None
    got_m: list[int] = []  # one receipt per newly set bit: message, node, time
    got_u: list[int] = []
    got_t: list[float] = []

    def receive(bits: int, node: int, now: float) -> None:
        seen[node] |= bits
        while bits:
            low = bits & -bits
            got_m.append(low.bit_length() - 1)
            got_u.append(node)
            got_t.append(now)
            bits ^= low

    for lo in range(0, len(encounters), REPLAY_BLOCK):
        block = slice(lo, lo + REPLAY_BLOCK)
        enc_a, enc_b = to_user[encounters.a[block]], to_user[encounters.b[block]]
        enc_start = encounters.start[block]
        n_live = np.searchsorted(creation_sorted, enc_start, side="right")

        if config.scheme != "rtx":
            for u in set(got_u[receipts_seen:]):
                saturated[u] = not reach[u] & ~seen[u]
            receipts_seen = len(got_u)
            rows = np.flatnonzero((n_live > 0) & ~(saturated[enc_a] & saturated[enc_b]))
            if config.scheme == "similarity":
                oa, ob = sim_row[enc_a[rows]], sim_row[enc_b[rows]]
                rows = rows[(table[oa, ob] + table[ob, oa]) / 2.0 >= config.sim_threshold]
            for a, b, now, k in zip(
                enc_a[rows].tolist(), enc_b[rows].tolist(), enc_start[rows].tolist(), n_live[rows].tolist()
            ):
                live = live_prefix[k]
                seen_a, seen_b = seen[a], seen[b]
                fwd_ab = live & seen_a & ~seen_b & reach[b]
                fwd_ba = live & seen_b & ~seen_a & reach[a]
                if fwd_ab:
                    receive(fwd_ab, b, now)
                if fwd_ba:
                    receive(fwd_ba, a, now)
            continue

        custodians = [u for u in range(n_users) if custody[u] & funded]
        if not custodians:
            break
        # Both ends of every row as keys user * n + row, sorted: user u's rows,
        # in order, are the keys from position first[u] to first[u + 1].
        n = len(enc_a)
        keys = np.concatenate((enc_a, enc_b)) * n + np.tile(np.arange(n), 2)
        keys.sort()
        first = keys.searchsorted(np.arange(n_users + 1) * n).tolist()
        key_list = keys.tolist()
        pa, pb, pt, pk = enc_a.tolist(), enc_b.tolist(), enc_start.tolist(), n_live.tolist()
        # (row, user, key position): each custodian waits at its next row
        heap = [(key_list[first[u]] - u * n, u, first[u]) for u in custodians if first[u] < first[u + 1]]
        heapify(heap)
        queued = [False] * n_users
        for _, u, _ in heap:
            queued[u] = True
        last = -1
        while heap:
            r, u, at = heappop(heap)
            queued[u] = False
            if not custody[u] & funded:
                continue
            if r != last:  # the other end may hold custody too and visit r first
                last = r
                a, b, now, live = pa[r], pb[r], pt[r], live_prefix[pk[r]]
                give_ab = live & funded & custody[a] & ~seen[b]
                give_ba = live & funded & custody[b] & ~seen[a]
                if give_ab | give_ba:
                    if rolls is not None:
                        roll = next(rolls)
                        give_ab &= roll
                        give_ba &= roll
                    handed_from = len(got_m)
                    for give, giver, taker in ((give_ab, a, b), (give_ba, b, a)):
                        if give:
                            receive(give, taker, now)
                            custody[giver] &= ~give
                            custody[taker] |= give
                    for m in got_m[handed_from:]:
                        budget[m] -= 1
                        if not budget[m]:
                            funded &= ~(1 << m)
                    # a taker that was not a custodian joins at its next row
                    v = b if u == a else a
                    if not queued[v] and custody[v] & funded:
                        at_v = bisect_left(key_list, v * n + r + 1, first[v], first[v + 1])
                        if at_v < first[v + 1]:
                            heappush(heap, (key_list[at_v] - v * n, v, at_v))
                            queued[v] = True
            at += 1
            if at < first[u + 1] and custody[u] & funded:
                heappush(heap, (key_list[at] - u * n, u, at))
                queued[u] = True

    arrival = np.full((n_msgs, n_users), np.nan)
    arrival[got_m, got_u] = got_t
    received = ~np.isnan(arrival)
    tx = np.bincount(np.array(got_m, dtype=np.intp), minlength=n_msgs)
    per_message: dict[str, SimResult] = {}
    total_delivered = 0
    total_targets = 0
    total_tx = 0
    delays: list[np.ndarray] = []
    leaked = int((received & ~member).sum())
    for m, msg in enumerate(messages):
        got = received[m] & is_target[m]
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
    results: Sequence[tuple[str, SimResult]], baseline: str = "flooding"
) -> list[tuple[str, float, float, float]]:
    """Each scheme's aggregate metrics as ratios to the baseline scheme's.

    results holds (label, result) rows; the first row labelled baseline is the
    baseline, which must have delivered and transmitted.  Rows are (label,
    delivery_ratio_rel, mean_delay_rel, overhead_rel) in the given order; a
    scheme that delivered nothing has a nan delay ratio.
    """
    base = next((res for label, res in results if label == baseline), None)
    if base is None:
        raise ValueError(f"baseline {baseline!r} missing from results")
    if base.delivery_ratio <= 0 or base.overhead <= 0:
        raise ValueError(f"baseline {baseline!r} delivered nothing; ratios undefined")
    return [
        (
            label,
            res.delivery_ratio / base.delivery_ratio,
            res.mean_delay / base.mean_delay,
            res.overhead / base.overhead,
        )
        for label, res in results
    ]
