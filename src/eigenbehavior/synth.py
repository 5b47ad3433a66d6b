"""Synthetic association traces with planted behavioral groups.

Every group plants one or more behavioral modes (a location-weight vector plus
a selection probability).  Each user-day is online with probability p_online;
an online day picks one mode (the first entry of the group's cumulative mode
probabilities above one ``random()`` draw, the draw and pick of
``Generator.choice``), perturbs its weights with bounded uniform noise,
and packs 8 hours of association time laid out contiguously from a random
offset within the day.  Generation is deterministic for a given spec and
parallel-safe: every user draws from its own child seed.

Users are generated in blocks of consecutive users of about
``trace.BLOCK_CELLS`` cells, so only the record columns grow with the
population.  A block reads each user's 64-bit PCG64 words
(``PCG64.random_raw``) and decodes them as that user's ``Generator``
would, for all of the block's users at once: ``random()`` is the top 53
bits times 2**-53, ``integers`` is numpy's 32-bit Lemire draw on the word
halves, and ``uniform`` is low plus range times a double.  Only the online
draws and start offsets are decoded day by day; the mode picks, noise,
weights, whole-second split and record columns are computed over the
block's online days at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import trace
from .trace import (
    DAY_SECONDS,
    Records,
    budget_blocks,
    code_ids,
    json_int,
    json_keys,
    json_number,
    read_json,
)

ONLINE_SECONDS = 8 * 3600  # association time packed into one online day
# a day's start offset is integers(0, OFFSETS): the 8 h block ends by midnight
OFFSETS = DAY_SECONDS - ONLINE_SECONDS + 1
# numpy's Lemire rejection threshold for that range, 2**32 mod OFFSETS
_LEMIRE_THRESHOLD = np.uint64((1 << 32) % OFFSETS)


@dataclass(frozen=True)
class GroupSpec:
    """One planted group: size users sharing modes with selection probabilities."""

    size: int
    modes: tuple[tuple[float, ...], ...]
    mode_probs: tuple[float, ...]
    p_online: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "modes", tuple(tuple(m) for m in self.modes))
        object.__setattr__(self, "mode_probs", tuple(self.mode_probs))
        if self.size <= 0:
            raise ValueError("group size must be positive")
        if not self.modes:
            raise ValueError("group needs at least one mode")
        if len(self.modes) != len(self.mode_probs):
            raise ValueError("modes and mode_probs must have equal length")
        if not 0.0 <= self.p_online <= 1.0:
            raise ValueError("p_online must lie in [0, 1]")
        # each check is written so that NaN fails it
        if not (all(p >= 0 for p in self.mode_probs) and abs(sum(self.mode_probs) - 1.0) <= 1e-9):
            raise ValueError("mode_probs must be nonnegative and sum to 1")
        for mode in self.modes:
            if not all(w >= 0 for w in mode):
                raise ValueError("mode weights must be nonnegative")
            if not abs(sum(mode) - 1.0) <= 1e-9:
                raise ValueError("each mode weight vector must sum to 1")


@dataclass(frozen=True)
class SynthSpec:
    n_locations: int
    n_days: int
    groups: tuple[GroupSpec, ...]
    seed: int = 0
    noise_epsilon: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if self.n_locations <= 0:
            raise ValueError("n_locations must be positive")
        if self.n_days <= 0:
            raise ValueError("n_days must be positive")
        if not self.groups:
            raise ValueError("need at least one group")
        if not self.noise_epsilon >= 0:
            raise ValueError("noise_epsilon must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        for group in self.groups:
            for mode in group.modes:
                if len(mode) != self.n_locations:
                    raise ValueError(
                        f"mode length {len(mode)} does not match n_locations {self.n_locations}"
                    )
        # the noise range (2 eps) and a day's noisy weights (summing to at most
        # 1 + n_locations eps) must be finite; inf and NaN fail this
        if not math.isfinite((self.n_locations + 2) * self.noise_epsilon):
            raise ValueError("noise_epsilon is too large: the noisy weights would overflow")

    @property
    def n_users(self) -> int:
        return sum(g.size for g in self.groups)

    @property
    def trace_span(self) -> tuple[int, int]:
        return (0, self.n_days * DAY_SECONDS)


def location_name(index: int) -> str:
    return f"L{index:03d}"


def user_name(index: int) -> str:
    return f"u{index:05d}"


def _weights(mode: dict) -> tuple[float, ...]:
    """A mode's location weights, each a JSON number."""
    entries = {f"weights[{i}]": w for i, w in enumerate(mode["weights"])}
    return tuple(json_number(entries, key) for key in entries)


def _group(raw: dict, where: str) -> GroupSpec:
    """A spec's group entry; where names it in messages."""
    json_keys(raw, ("size", "modes", "p_online"), where)
    modes = [json_keys(m, ("weights", "prob"), f"{where}.modes[{j}]") for j, m in enumerate(raw["modes"])]
    return GroupSpec(
        size=json_int(raw, "size"),
        modes=tuple(_weights(m) for m in modes),
        mode_probs=tuple(json_number(m, "prob") for m in modes),
        p_online=json_number(raw, "p_online", 1.0),
    )


def _spec_from_dict(raw: dict) -> SynthSpec:
    json_keys(raw, ("n_locations", "n_days", "groups", "seed", "noise_epsilon"))
    return SynthSpec(
        n_locations=json_int(raw, "n_locations"),
        n_days=json_int(raw, "n_days"),
        groups=tuple(_group(g, f"groups[{i}]") for i, g in enumerate(raw["groups"])),
        seed=json_int(raw, "seed", 0),
        noise_epsilon=json_number(raw, "noise_epsilon", 0.0),
    )


def spec_from_json(path: str) -> SynthSpec:
    return read_json(path, "synth spec", _spec_from_dict)


def spec_to_json_dict(spec: SynthSpec) -> dict:
    return {
        "n_locations": spec.n_locations,
        "n_days": spec.n_days,
        "seed": spec.seed,
        "noise_epsilon": spec.noise_epsilon,
        "groups": [
            {
                "size": g.size,
                "p_online": g.p_online,
                "modes": [
                    {"weights": list(m), "prob": p} for m, p in zip(g.modes, g.mode_probs)
                ],
            }
            for g in spec.groups
        ],
    }


class _Streams:
    """The PCG64 streams of a block of users, decoded in lockstep exactly as
    each user's own ``Generator`` decodes them.

    Row u of ``words`` is a prefix of user u's 64-bit words
    (``PCG64.random_raw``) and ``pos[u]`` its next unread word.  ``spare``
    holds the upper half of a word whose lower half a 32-bit draw took, which
    the next 32-bit draw uses first, as numpy's ``pcg64_next32`` does; a
    64-bit draw never touches it.  The decoders mirror numpy's
    ``pcg64_next_double`` (``_doubles``), ``buffered_bounded_lemire_uint32``
    (``offsets``) and ``random_uniform`` (``_uniform``).
    """

    def __init__(self, seeds: Sequence[np.random.SeedSequence], width: int) -> None:
        self.bitgens = [np.random.PCG64(seed) for seed in seeds]
        self.words = np.stack([bg.random_raw(width) for bg in self.bitgens])
        self.pos = np.zeros(len(seeds), dtype=np.intp)
        self.spare = np.zeros(len(seeds), dtype=np.uint64)
        self.has_spare = np.zeros(len(seeds), dtype=bool)

    def take(self, users: np.ndarray, n: int = 1) -> np.ndarray:
        """The position of each user's next n words, which are then read;
        every row is extended from its bit generator if one runs out."""
        first = self.pos[users]
        short = (int(first.max()) + n if len(users) else 0) - self.words.shape[1]
        if short > 0:
            more = np.stack([bg.random_raw(short) for bg in self.bitgens])
            self.words = np.concatenate((self.words, more), axis=1)
        self.pos[users] += n
        return first

    def doubles(self, users: np.ndarray) -> np.ndarray:
        """``Generator.random()`` for each user."""
        at = self.take(users)  # first, since it may extend the words
        return _doubles(self.words[users, at])

    def _uint32(self, users: np.ndarray) -> np.ndarray:
        """The next 32-bit draw of each user: the spare half, else the lower
        half of a new word, whose upper half is kept."""
        value = self.spare[users]
        needs = ~self.has_spare[users]
        fresh = users[needs]
        at = self.take(fresh)
        word = self.words[fresh, at]
        value[needs] = word & np.uint64(0xFFFFFFFF)
        self.spare[fresh] = word >> np.uint64(32)
        self.has_spare[users] = needs
        return value

    def offsets(self, users: np.ndarray) -> np.ndarray:
        """``Generator.integers(0, OFFSETS)`` for each user: Lemire's
        multiply-shift, redrawing a user whose low product falls below the
        rejection threshold."""
        out = np.empty(len(users), dtype=np.int64)
        todo = np.arange(len(users))
        while len(todo):
            product = self._uint32(users[todo]) * np.uint64(OFFSETS)
            kept = product & np.uint64(0xFFFFFFFF) >= _LEMIRE_THRESHOLD
            out[todo[kept]] = product[kept] >> np.uint64(32)
            todo = todo[~kept]
        return out


def _doubles(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each 64-bit word: its top 53 bits times
    2**-53 (numpy's ``pcg64_next_double``)."""
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _uniform(words: np.ndarray, eps: float) -> np.ndarray:
    """``Generator.uniform(-eps, eps)`` of each 64-bit word: low plus range
    times a double (numpy's ``random_uniform``)."""
    return -eps + (eps - -eps) * _doubles(words)


def _user_blocks(spec: SynthSpec) -> list[tuple[int, int]]:
    """Consecutive user ranges of about trace.BLOCK_CELLS cells each, a user
    counting one cell per (day, location) and three more per day, so a
    block's word, weight and duration arrays stay a few MB each."""
    per_user = np.full(spec.n_users, spec.n_days * (spec.n_locations + 3))
    return budget_blocks(per_user, trace.BLOCK_CELLS)


class _Groups(NamedTuple):
    """The spec's groups as arrays: every group's modes stacked in group
    order, and per group its first mode row, mode cdf and p_online."""

    weights: np.ndarray  # one row per mode
    first: np.ndarray  # each group's first row
    cdfs: np.ndarray  # each group's cumulative mode probabilities, padded with 2
    p_online: np.ndarray  # each group's p_online


def _stack_groups(spec: SynthSpec) -> _Groups:
    weights = np.array([m for g in spec.groups for m in g.modes])
    cdfs = np.full((len(spec.groups), max(len(g.modes) for g in spec.groups)), 2.0)
    for i, g in enumerate(spec.groups):
        # the cdf of Generator.choice(n_modes, p=probs); GroupSpec has checked p once
        probs = np.array(g.mode_probs)
        cdf = np.cumsum(probs / probs.sum())
        cdfs[i, : len(cdf)] = cdf / cdf[-1]
    return _Groups(
        weights,
        np.cumsum([0] + [len(g.modes) for g in spec.groups[:-1]]),
        cdfs,
        np.array([g.p_online for g in spec.groups]),
    )


def _block_records(
    spec: SynthSpec, seeds: Sequence[np.random.SeedSequence], group: np.ndarray, groups: _Groups
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The records of one block of users, whose seeds and group indices are
    given, as (user, location, start, end) columns, the user counted from the
    block's first.

    Each user's stream gives, every day, one ``random()`` against p_online
    and, on an online day, ``integers(0, OFFSETS)`` for the start offset,
    ``random()`` for the mode and ``uniform(-eps, eps, n_locations)`` for the
    noise (no noise draws when eps is 0).  The day loop reads the online
    draws and start offsets and notes where the mode and noise words lie;
    the rest is decoded for all online days at once.
    """
    eps = spec.noise_epsilon
    n_noise = spec.n_locations if eps > 0 else 0
    p_online = groups.p_online[group]
    # a day reads at most three words besides its noise, unless Lemire rejects
    streams = _Streams(seeds, spec.n_days * (3 + n_noise))
    everyone = np.arange(len(seeds))
    online = np.zeros((len(seeds), spec.n_days), dtype=bool)
    begin = np.zeros(online.shape, dtype=np.int64)
    mode_at = np.zeros(online.shape, dtype=np.intp)
    noise_at = np.zeros(online.shape, dtype=np.intp)
    for day in range(spec.n_days):
        on = everyone[streams.doubles(everyone) < p_online]
        online[on, day] = True
        begin[on, day] = day * DAY_SECONDS + streams.offsets(on)
        mode_at[on, day] = streams.take(on)
        noise_at[on, day] = streams.take(on, n_noise)
    # the online (user, day) pairs in (user, day) order
    user, day = np.nonzero(online)
    words = streams.words
    g = group[user]
    # the first cdf entry above the draw, as Generator.choice picks
    pick = (groups.cdfs[g] <= _doubles(words[user, mode_at[user, day]])[:, None]).sum(axis=1)
    weights = groups.weights[groups.first[g] + pick]
    if n_noise:
        at = noise_at[user, day][:, None] + np.arange(n_noise)
        weights = _noisy_weights(weights, _uniform(words[user[:, None], at], eps))
    durations = _apportion(weights, ONLINE_SECONDS)
    row, loc = np.nonzero(durations)
    loc = loc.copy()  # nonzero's columns are views of one (records, 2) array
    end = begin[user, day][row] + np.cumsum(durations, axis=1)[row, loc]
    return user[row], loc, end - durations[row, loc], end


def _noisy_weights(weights: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Each online day's mode weights plus noise, clipped at 0 and
    renormalized; a day whose noisy weights all clip to 0 keeps its mode
    (renormalized)."""
    noisy = np.clip(weights + noise, 0.0, None)
    dead = noisy.sum(axis=1) <= 0
    noisy[dead] = weights[dead]
    return noisy / noisy.sum(axis=1)[:, None]


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Split `total` whole seconds proportional to each row of weights
    (largest remainder; ties favor the lower index)."""
    raw = weights * total
    base = np.floor(raw).astype(np.int64)
    leftover = total - base.sum(axis=1)
    order = np.argsort(-(raw - base), axis=1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(weights.shape[1]), axis=1)
    return base + (rank < leftover[:, None])


def generate(spec: SynthSpec) -> tuple[Records, dict[str, int]]:
    """Generate the trace and the user -> group-index ground truth.

    Each online day's whole-second durations are laid out contiguously, in
    location order, from the day's start second; rows run in (user, day,
    location) order.  Users are generated in blocks of about
    trace.BLOCK_CELLS cells (``_block_records``), so only the record columns
    grow with the population.
    """
    group = np.repeat(np.arange(len(spec.groups)), [g.size for g in spec.groups])
    truth = {user_name(u): g for u, g in enumerate(group.tolist())}
    groups = _stack_groups(spec)
    root = np.random.SeedSequence(spec.seed)
    blocks = []
    for lo, hi in _user_blocks(spec):
        # spawning in blocks gives the same children as spawning all at once
        user, loc, start, end = _block_records(spec, root.spawn(hi - lo), group[lo:hi], groups)
        blocks.append((user + lo, loc, start, end))
    user, loc, start, end = (np.concatenate(column) for column in zip(*blocks))
    del blocks
    users, user_code = code_ids(list(truth), user)
    locations, loc_code = code_ids([location_name(i) for i in range(spec.n_locations)], loc)
    return Records(users, locations, user_code, loc_code, start, end), truth


def single_location_modes(n_locations: int, locations: Sequence[int]) -> tuple[tuple[float, ...], ...]:
    """Convenience: unit basis mode vectors for the given location indices."""
    modes = []
    for loc in locations:
        vec = [0.0] * n_locations
        vec[loc] = 1.0
        modes.append(tuple(vec))
    return tuple(modes)
