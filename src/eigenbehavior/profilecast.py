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
  similarity (from the profile half, treated as pre-shared; one cell of
  ``distances.sim_triangle``'s condensed triangle) reaches the threshold.
* rtx: single-custody random walk; the current holder hands the message over
  with probability p, spending one hop of a budget of round(ttl_factor *
  group size) transmissions.

One forwarding decision is taken per (encounter, message); receipt time is the
encounter start; a node holds at most one copy of a message.

Encounters are columnar (``Encounters``: parallel arrays over int user and
location codes).  An ``EncounterStream`` merges the replay half's intervals
once and yields the encounters as a stream of blocks of about
``REPLAY_BLOCK`` rows, in (start, a, b, location appearance) order, each cut
between two distinct start times; an encounter that starts in [T0, T1)
depends only on the merged intervals that overlap that window, so only one
block is ever held.

``simulate`` replays one scheme over an ``Encounters`` or an
``EncounterStream``; the ``simulate`` command calls it for each scheme in
turn over one stream, which walks the merged intervals again for each scheme
and so holds one block and one scheme's state at a time.  The state keeps
one Python-int bitset over the messages per user, so one encounter costs a
few integer operations whatever the number of messages; earliest-arrival
replay over a time-ordered contact sequence follows Wu et al., "Path
problems in temporal graphs" (VLDB 2014), and needs only the current block
of contacts.

``simulate`` reads the encounters REPLAY_BLOCK rows at a time, and numpy
picks the rows that can still change state; Python visits only those.  A
user is saturated once it has seen every message it may receive; seen only
grows, so it stays saturated, and flooding, centralized and similarity drop
the rows between two users saturated at the start of the rows read, and the
rows between two users whose reach classes (their distinct sets of messages
they may receive) share no message: seen stays within reach, so such a row
forwards nothing.  Of the rows kept, Python skips those whose two ends have
seen the same messages.  rtx scans its rows in order and looks at a row only
when one end holds custody of a message with hops left, and draws its
p-rolls many at a time from the same Generator stream (at p = 1 every roll
is all ones), so every transmission is the one of a row-by-row replay.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .cluster import Partition, pair_index
from .trace import (
    AssociationRecord,
    Records,
    _runs,
    as_records,
    budget_blocks,
    code_ids,
    merge_intervals,
    set_columns,
)

SCHEME_PARAMS = ("sim_threshold", "p", "ttl_factor")  # the SimConfig fields a scheme may read
# Each scheme and the parameters it reads; SimConfig refuses the others.
SCHEMES = {"flooding": (), "centralized": (), "similarity": ("sim_threshold",), "rtx": ("p", "ttl_factor")}

DEFAULT_SOURCE_FRACTION = 0.2
DEFAULT_MIN_GROUP_SIZE = 6  # groups with more than five members get messages
# Encounters are extracted and replayed in blocks of about this many rows, so
# the per-row scratch arrays and lists stay a few MB whatever the replay's
# length.
REPLAY_BLOCK = 1 << 14
_KEY_LIMIT = np.iinfo(np.int64).max  # the largest sort key packed into one integer


EncounterRow = tuple[str, str, float, float, str]  # (a, b, start, end, location)


@dataclass(frozen=True, eq=False)
class Encounters:
    """Encounters as parallel columns.

    Row i: users[a[i]] and users[b[i]] co-located over [start[i], end[i]) at
    locations[loc[i]].  ``users`` and ``locations`` are sorted and unique, so
    the codes order like the ids and a < b holds for the codes exactly when it
    holds for the ids.  ``from_rows`` keeps exactly the ids that occur in
    some row; a block of an ``EncounterStream`` keeps its records' ids.
    """

    users: tuple[str, ...]
    locations: tuple[str, ...]
    a: np.ndarray
    b: np.ndarray
    start: np.ndarray
    end: np.ndarray
    loc: np.ndarray

    def __post_init__(self) -> None:
        set_columns(self, "encounter", a=np.intp, b=np.intp, start=float, end=float, loc=np.intp)
        if np.any(self.a >= self.b):
            raise ValueError("encounter users must satisfy a < b")

    def __len__(self) -> int:
        return len(self.a)

    @classmethod
    def from_rows(cls, rows: Iterable[EncounterRow]) -> Encounters:
        """Columns from (a, b, start, end, location) rows, in the given order."""
        rows = list(rows)
        n = len(rows)
        users, ab = code_ids([r[0] for r in rows] + [r[1] for r in rows], np.arange(2 * n))
        locations, loc = code_ids([r[4] for r in rows], np.arange(n))
        return cls(users, locations, ab[:n], ab[n:], [r[2] for r in rows], [r[3] for r in rows], loc)

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
        unused = [
            name for name in SCHEME_PARAMS if getattr(self, name) is not None and name not in SCHEMES[self.scheme]
        ]
        if unused:
            raise ValueError(f"the {self.scheme} scheme does not use {', '.join(unused)}")
        if self.scheme == "similarity":
            if self.sim_threshold is None or not 0.0 <= self.sim_threshold <= 1.0:
                raise ValueError("similarity scheme needs sim_threshold in [0, 1]")
        if self.scheme == "rtx":
            if self.p is None or not 0.0 < self.p <= 1.0:
                raise ValueError("rtx scheme needs p in (0, 1]")
            # past sys.maxsize: more hops than any replay has encounters; NaN fails
            if self.ttl_factor is None or not 0.0 < self.ttl_factor <= sys.maxsize:
                raise ValueError(f"rtx scheme needs a ttl_factor in (0, {sys.maxsize}]")

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


class EncounterStream:
    """A trace's encounters (all maximal pairwise co-presence intervals) as a
    stream of blocks of about REPLAY_BLOCK rows.

    The intervals are merged once, when the stream is made: each user's per
    location (abutting ones too, by ``trace.merge_intervals`` over the
    bounds' ranks), so a user never meets itself and one pair's meetings at
    a location never touch.  With a location's merged intervals in start
    order, interval j meets exactly the later intervals that start before it
    ends: positions j + 1 to stop[j], found by a binary search, and each
    meeting starts where its later interval does.  Bounds are kept as ranks
    into ``_values``.

    Each iteration walks the merged intervals anew and yields the blocks of
    consecutive windows [T0, T1) of start ranks, cut only between distinct
    starts (``trace.budget_blocks`` over the number of encounters at each);
    a window pairs only the intervals that overlap it, those still open from
    earlier windows and those starting in it.  Each block is sorted by
    (start, a, b), and rows with equal (start, a, b) come from different
    locations and keep the order in which the locations first appear in the
    records.  Every block codes its rows over the records' ``users`` and
    ``locations``; a window without a meeting yields no block.  ``len`` is
    the number of encounters, known without a walk.
    """

    def __init__(self, records: Records) -> None:
        self.users, self.locations = records.users, records.locations
        n, n_users = len(records), len(records.users)
        self._values, rank = np.unique(np.concatenate((records.start, records.end)), return_inverse=True)
        run, lo, hi = merge_intervals(records.loc * n_users + records.user, rank[:n], rank[n:])
        loc, user = np.divmod(run, n_users)
        key = loc * len(self._values) + lo
        order = np.argsort(key, kind="stable")
        self._user, self._loc, self._key = user[order], loc[order], key[order]
        self._lo, self._hi = lo[order], hi[order]
        self._stop = np.searchsorted(self._key, self._loc * len(self._values) + self._hi)
        self._appearance = np.argsort(np.argsort(np.unique(records.loc, return_index=True)[1]))
        self._by_start = np.argsort(self._lo, kind="stable")
        # Interval i is the later one of a meeting with each earlier j whose
        # run reaches past it: i minus the runs that stop at or before i.
        m = len(self._lo)
        later_of = np.arange(m) - np.cumsum(np.bincount(self._stop, minlength=m + 1))[:m]
        per_start = np.bincount(self._lo, weights=later_of, minlength=len(self._values)).astype(np.intp)
        self._windows = budget_blocks(per_start, REPLAY_BLOCK)
        self._count = int(per_start.sum())

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Encounters]:
        hi, by_start = self._hi, self._by_start
        starts = self._lo[by_start]
        overlapping = by_start[:0]
        for t0, t1 in self._windows:
            fresh = by_start[np.searchsorted(starts, t0) : np.searchsorted(starts, t1)]
            # in (location, start) order, so the searches in _meetings walk
            # their sorted keys forwards
            overlapping = np.sort(np.concatenate((overlapping[hi[overlapping] > t0], fresh)))
            block = self._meetings(overlapping, t0, t1)
            if len(block):
                yield block

    def _meetings(self, j: np.ndarray, t0: int, t1: int) -> Encounters:
        """The meetings that start in [t0, t1) of the intervals j, which
        overlap that window, sorted by (start, a, b, location appearance)."""
        user, loc, lo, hi, key, v = self._user, self._loc, self._lo, self._hi, self._key, len(self._values)
        begin = np.maximum(j + 1, np.searchsorted(key, loc[j] * v + t0))
        end = np.minimum(self._stop[j], np.searchsorted(key, loc[j] * v + t1))
        pick, k = _runs(np.maximum(end - begin, 0))
        i, j = begin[pick] + k, j[pick]
        a = np.minimum(user[i], user[j])
        b = np.maximum(user[i], user[j])
        appearance = self._appearance[loc[j]]
        # (start, a, b, appearance) is unique per row; one argsort of it as a
        # mixed-radix integer when that fits in an int64
        n_users, n_locations = len(self.users), len(self.locations)
        if (t1 - t0) * n_users * n_users * n_locations <= _KEY_LIMIT:
            rows = np.argsort((((lo[i] - t0) * n_users + a) * n_users + b) * n_locations + appearance)
        else:
            rows = np.lexsort((appearance, b, a, lo[i]))
        return Encounters(
            self.users,
            self.locations,
            a[rows],
            b[rows],
            self._values[lo[i][rows]],
            self._values[np.minimum(hi[i], hi[j])[rows]],
            loc[j][rows],
        )


def check_source_fraction(source_fraction: float) -> float:
    """source_fraction, checked to lie in (0, 1]."""
    if not 0.0 < source_fraction <= 1.0:
        raise ValueError("source_fraction must lie in (0, 1]")
    return source_fraction


def check_min_group_size(min_group_size: int) -> int:
    """min_group_size, checked to be at least 2: a group of one has no one to send to."""
    if min_group_size < 2:
        raise ValueError("min_group_size must be at least 2")
    return min_group_size


def build_messages(
    partition: Partition,
    creation_time: float,
    source_fraction: float = DEFAULT_SOURCE_FRACTION,
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE,
    seed: int = 0,
) -> list[Message]:
    """One group-cast message per sampled source in each large-enough group."""
    check_source_fraction(source_fraction)
    check_min_group_size(min_group_size)
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


def _membership(messages: Sequence[Message], uidx: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """(member, is_target): (messages x users) masks of each message's target
    set plus source, and of its targets alone."""
    member = np.zeros((len(messages), len(uidx)), dtype=bool)
    is_target = np.zeros_like(member)
    for m, msg in enumerate(messages):
        targets = [uidx[t] for t in msg.targets]
        member[m, uidx[msg.source]] = member[m, targets] = True
        is_target[m, targets] = True
    return member, is_target


class _Replay:
    """One forwarding scheme's replay state, fed blocks of encounters in order.

    The users are the messages' sources and targets plus ``users``, the ids
    every block fed codes its rows over.  The similarity scheme needs
    sim_values/sim_ids: the profile half's symmetrized normalized
    similarities as a condensed triangle (``distances.sim_triangle``) and its
    ids, covering every user of a message and every user fed an encounter (a
    user without similarities is refused when it is first found so).

    State is one bitset over the messages per user (bit m is message m): the
    messages it has seen, those it may receive (all, or under centralized
    those of its groups), and under rtx those in its custody.  Both directions
    of an encounter are decided from the state before it.  Receipts (message,
    user, time) are kept in typed arrays, one per newly set bit.

    ``feed`` reads a block REPLAY_BLOCK rows at a time, and only the rows
    that can still change state are visited:

    * flooding, centralized and similarity skip the rows that start before
      the first message exists, those between two users saturated at the
      start of the rows read (seen covers what they may receive: such a row
      forwards nothing either way, and seen only grows), those between two
      users whose reaches share no message (a table over the reach classes,
      which differ only under centralized; seen stays within reach, as each
      source may receive its own message), and under similarity those whose
      pair's similarity is below the threshold.  Of the rows left, a row
      whose two ends have seen the same messages forwards nothing and is
      passed over before ``live`` or ``reach`` is read;
    * rtx scans the rows in order and looks at a row only when one of its
      ends holds custody of a message with hops left, read off a flag per
      user that each handover refreshes for both ends (a message whose hops
      run out was just handed to one of them, its one custodian).  The
      p-rolls come from ``_rolls``, so every transmission is the one a roll
      per handover would make; at p = 1 every roll is all ones.  Once no
      message has hops left, the rest of the stream is skipped.
    """

    def __init__(
        self,
        messages: Sequence[Message],
        config: SimConfig,
        users: tuple[str, ...],
        sim_values: np.ndarray | None = None,
        sim_ids: Sequence[str] | None = None,
    ) -> None:
        if not messages:
            raise ValueError("no messages to simulate")
        self.messages = list(messages)
        self.config = config
        users_of_messages = {m.source for m in messages} | {t for m in messages for t in m.targets}
        names = [*users, *users_of_messages]
        self.users, codes = code_ids(names, np.arange(len(names)))
        self._to_user = codes[: len(users)]
        self._uidx = uidx = {u: i for i, u in enumerate(self.users)}
        n_users, n_msgs = len(self.users), len(messages)

        if config.scheme == "similarity":
            if sim_values is None or sim_ids is None:
                raise ValueError("similarity scheme needs sim_values and sim_ids")
            self._sims = np.asarray(sim_values, dtype=float)
            self._n_sims = n = len(sim_ids)
            if self._sims.shape != (n * (n - 1) // 2,):
                raise ValueError(f"sim_values must be the {n * (n - 1) // 2} pair similarities of {n} sim_ids")
            pos = {u: i for i, u in enumerate(sim_ids)}
            self._sim_row = np.array([pos.get(u, -1) for u in self.users], dtype=np.intp)
            self._check_sims(np.array([uidx[u] for u in users_of_messages], dtype=np.intp))

        self._created = np.array([msg.creation_time for msg in messages], dtype=float)
        self._seen = [0] * n_users
        self._custody = [0] * n_users  # rtx
        self._budget = [0] * n_msgs  # rtx
        for m, msg in enumerate(messages):
            src = uidx[msg.source]
            self._seen[src] |= 1 << m
            self._custody[src] |= 1 << m
            if config.scheme == "rtx":
                self._budget[m] = int(round(config.ttl_factor * (len(msg.targets) + 1)))
        if config.scheme == "centralized":
            self._reach = [_bits_of(column) for column in _membership(messages, uidx)[0].T]
        else:
            self._reach = [(1 << n_msgs) - 1] * n_users
        # each user's reach class (a code over the distinct reaches) and
        # whether two classes share a message; seen stays within reach
        classes = {r: k for k, r in enumerate(dict.fromkeys(self._reach))}
        self._reach_class = np.array([classes[r] for r in self._reach], dtype=np.intp)
        self._shares = np.array([[bool(r & s) for s in classes] for r in classes])
        self._funded = _bits_of(np.array(self._budget) > 0)  # rtx: messages with hops left
        # users whose seen covers reach; kept up to date from the receipts at
        # the start of each run of rows
        self._saturated = np.array([not r & ~s for r, s in zip(self._reach, self._seen)])
        self._receipts_seen = 0

        # live(now) = messages created at or before now, whatever the encounter order
        by_creation = np.argsort(self._created, kind="stable")
        self._creation_sorted = self._created[by_creation]
        self._live_prefix = [0]
        for m in by_creation.tolist():
            self._live_prefix.append(self._live_prefix[-1] | 1 << m)

        self._rolls = _rolls(np.random.default_rng(config.seed), n_msgs, config.p)  # rtx
        self._got_m = array("i")
        self._got_u = array("i")
        self._got_t = array("d")

    def _receive(self, bits: int, node: int, now: float) -> None:
        self._seen[node] |= bits
        while bits:
            low = bits & -bits
            self._got_m.append(low.bit_length() - 1)
            self._got_u.append(node)
            self._got_t.append(now)
            bits ^= low

    def _check_sims(self, users: np.ndarray) -> None:
        """Refuse the users (codes) that have no profile similarities."""
        missing = users[self._sim_row[users] < 0]
        if len(missing):
            names = [self.users[u] for u in sorted(set(missing.tolist()))[:5]]
            raise ValueError(f"users without profile similarities: {names}")

    def feed(self, encounters: Encounters) -> None:
        """Replay the next encounters, coded over ``users``, in the given order."""
        rtx = self.config.scheme == "rtx"
        step = self._walk if rtx else self._forward
        for lo in range(0, len(encounters), REPLAY_BLOCK):
            if rtx and not self._funded:  # no hops left: no row can change state
                return
            rows = slice(lo, lo + REPLAY_BLOCK)
            enc_start = encounters.start[rows]
            step(
                self._to_user[encounters.a[rows]],
                self._to_user[encounters.b[rows]],
                enc_start,
                np.searchsorted(self._creation_sorted, enc_start, side="right"),
            )

    def _forward(self, enc_a: np.ndarray, enc_b: np.ndarray, enc_start: np.ndarray, n_live: np.ndarray) -> None:
        """flooding, centralized and similarity over one run of rows."""
        seen, reach, saturated, live_prefix = self._seen, self._reach, self._saturated, self._live_prefix
        receive = self._receive
        for u in set(self._got_u[self._receipts_seen :]):
            saturated[u] = not reach[u] & ~seen[u]
        self._receipts_seen = len(self._got_u)
        cls = self._reach_class
        rows = np.flatnonzero(
            (n_live > 0) & ~(saturated[enc_a] & saturated[enc_b]) & self._shares[cls[enc_a], cls[enc_b]]
        )
        if self.config.scheme == "similarity":
            self._check_sims(np.concatenate((enc_a, enc_b)))
            oa, ob = self._sim_row[enc_a[rows]], self._sim_row[enc_b[rows]]
            pairs = pair_index(self._n_sims, np.minimum(oa, ob), np.maximum(oa, ob))
            rows = rows[self._sims[pairs] >= self.config.sim_threshold]
        for a, b, now, k in zip(
            enc_a[rows].tolist(), enc_b[rows].tolist(), enc_start[rows].tolist(), n_live[rows].tolist()
        ):
            seen_a, seen_b = seen[a], seen[b]
            if seen_a == seen_b:
                continue
            live = live_prefix[k]
            fwd_ab = live & seen_a & ~seen_b & reach[b]
            fwd_ba = live & seen_b & ~seen_a & reach[a]
            if fwd_ab:
                receive(fwd_ab, b, now)
            if fwd_ba:
                receive(fwd_ba, a, now)

    def _walk(self, enc_a: np.ndarray, enc_b: np.ndarray, enc_start: np.ndarray, n_live: np.ndarray) -> None:
        """rtx over one run of rows, in order.  A row is looked at only when
        one of its ends holds custody of a message with hops left."""
        seen, custody, budget, live_prefix = self._seen, self._custody, self._budget, self._live_prefix
        rolls, got_m, receive = self._rolls, self._got_m, self._receive
        funded = self._funded
        holds = [bool(c & funded) for c in custody]
        pa, pb, pt, pk = enc_a.tolist(), enc_b.tolist(), enc_start.tolist(), n_live.tolist()
        for r, a, b in zip(range(len(pa)), pa, pb):
            if not (holds[a] or holds[b]):
                continue
            live = live_prefix[pk[r]]
            give_ab = live & funded & custody[a] & ~seen[b]
            give_ba = live & funded & custody[b] & ~seen[a]
            if give_ab | give_ba:
                roll = next(rolls)
                give_ab &= roll
                give_ba &= roll
                handed_from = len(got_m)
                for give, giver, taker in ((give_ab, a, b), (give_ba, b, a)):
                    if give:
                        receive(give, taker, pt[r])
                        custody[giver] &= ~give
                        custody[taker] |= give
                for m in got_m[handed_from:]:
                    budget[m] -= 1
                    if not budget[m]:
                        funded &= ~(1 << m)
                # a message that ran out of hops was just handed to a or b,
                # its one custodian, so no other user's flag changes
                holds[a], holds[b] = bool(custody[a] & funded), bool(custody[b] & funded)
        self._funded = funded

    def outcome(self) -> SimulationOutcome:
        """Per-message and aggregate metrics of the encounters fed so far,
        read off one (messages, users) table of delays."""
        messages = self.messages
        member, is_target = _membership(messages, self._uidx)
        got_m = np.array(self._got_m, dtype=np.intp)
        delay = np.full((len(messages), len(self.users)), np.nan)
        delay[got_m, np.array(self._got_u, dtype=np.intp)] = np.array(self._got_t)
        received = ~np.isnan(delay)
        delay -= self._created[:, None]
        got = received & is_target
        tx = np.bincount(got_m, minlength=len(messages)).tolist()
        delivered, n_targets = got.sum(axis=1).tolist(), is_target.sum(axis=1).tolist()
        per_message = {}
        for m, msg in enumerate(messages):
            per_message[msg.message_id] = SimResult(
                delivery_ratio=delivered[m] / n_targets[m],
                mean_delay=float(delay[m, got[m]].mean()) if delivered[m] else float("nan"),
                overhead=tx[m],
                delivered=delivered[m],
                n_targets=n_targets[m],
            )
        all_delays = delay[got]  # message by message, users in code order
        aggregate = SimResult(
            delivery_ratio=sum(delivered) / sum(n_targets),
            mean_delay=float(all_delays.mean()) if all_delays.size else float("nan"),
            overhead=sum(tx),
            delivered=sum(delivered),
            n_targets=sum(n_targets),
        )
        return SimulationOutcome(per_message, aggregate, int((received & ~member).sum()))


def simulate(
    messages: Sequence[Message],
    encounters: Encounters | EncounterStream,
    config: SimConfig,
    sim_values: np.ndarray | None = None,
    sim_ids: Sequence[str] | None = None,
) -> SimulationOutcome:
    """Replay the encounters, in the given order, under one forwarding
    scheme: one state over the messages' and the encounters' users (a
    stream's are its records'), fed an ``Encounters`` as one block or a
    stream's blocks in turn."""
    replay = _Replay(messages, config, encounters.users, sim_values, sim_ids)
    for block in [encounters] if isinstance(encounters, Encounters) else encounters:
        replay.feed(block)
    return replay.outcome()


def compare_schemes(results: Sequence[tuple[str, SimResult]]) -> list[tuple[str, float, float, float]]:
    """Each scheme's aggregate metrics as ratios to flooding's.

    results holds (label, result) rows; the first row labelled "flooding" is
    the baseline, which must have delivered and transmitted.  Rows are
    (label, delivery_ratio_rel, mean_delay_rel, overhead_rel) in the given
    order.  A scheme that delivered nothing has a nan delay ratio, and so
    does every scheme when flooding's mean delay is 0 (every delivery at
    creation time).
    """
    base = next((res for label, res in results if label == "flooding"), None)
    if base is None:
        raise ValueError("baseline 'flooding' missing from results")
    if base.delivery_ratio <= 0 or base.overhead <= 0:
        raise ValueError("baseline 'flooding' delivered nothing; ratios undefined")
    return [
        (
            label,
            res.delivery_ratio / base.delivery_ratio,
            res.mean_delay / base.mean_delay if base.mean_delay else float("nan"),
            res.overhead / base.overhead,
        )
        for label, res in results
    ]
