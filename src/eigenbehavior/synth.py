"""Synthetic association traces with planted behavioral groups.

Every group plants one or more behavioral modes (a location-weight vector plus
a selection probability).  Each user-day is online with probability p_online;
an online day picks one mode (the first entry of the group's cumulative mode
probabilities above one ``random()`` draw, the draw and pick of
``Generator.choice``), perturbs its weights with bounded uniform noise,
and packs 8 hours of association time laid out contiguously from a random
offset within the day.  Generation is deterministic for a given spec and
parallel-safe: every user draws from its own child seed.  A per-day loop
makes only the random draws; the weights, the whole-second split and the
record columns are computed over all online days at once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .trace import DAY_SECONDS, Records, code_ids, json_int, json_number, read_json

ONLINE_SECONDS = 8 * 3600  # association time packed into one online day


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


def _spec_from_dict(raw: dict) -> SynthSpec:
    groups = tuple(
        GroupSpec(
            size=json_int(g, "size"),
            modes=tuple(_weights(m) for m in g["modes"]),
            mode_probs=tuple(json_number(m, "prob") for m in g["modes"]),
            p_online=json_number(g, "p_online", 1.0),
        )
        for g in raw["groups"]
    )
    return SynthSpec(
        n_locations=json_int(raw, "n_locations"),
        n_days=json_int(raw, "n_days"),
        groups=groups,
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


def _draws(
    spec: SynthSpec,
) -> tuple[dict[str, int], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every Generator call, in each user's stream order.

    Returns the user -> group-index truth and, for each online day in (user,
    day) order, the user index, the second its 8 h block starts, the chosen
    mode's index into all groups' modes stacked, and the noise row (no rows
    without noise).  The block starts at a random offset within the day so
    co-located users overlap partially instead of identically.
    """
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_users)
    eps = spec.noise_epsilon
    truth: dict[str, int] = {}
    days: list[tuple[int, int, int]] = []
    noise: list[np.ndarray] = []
    user_idx = first_mode = 0
    for group_idx, group in enumerate(spec.groups):
        n_modes = len(group.modes)
        # the cdf and draw of Generator.choice(n_modes, p=probs); GroupSpec
        # has checked p once
        probs = np.array(group.mode_probs)
        cdf = np.cumsum(probs / probs.sum())
        cdf = (cdf / cdf[-1]).tolist()
        for _ in range(group.size):
            truth[user_name(user_idx)] = group_idx
            rng = np.random.default_rng(seeds[user_idx])
            for day in range(spec.n_days):
                if rng.random() >= group.p_online:
                    continue
                offset = int(rng.integers(0, DAY_SECONDS - ONLINE_SECONDS + 1))
                mode = first_mode + bisect_right(cdf, rng.random())
                days.append((user_idx, day * DAY_SECONDS + offset, mode))
                if eps > 0:
                    noise.append(rng.uniform(-eps, eps, spec.n_locations))
            user_idx += 1
        first_mode += n_modes
    user, begin, mode = np.array(days, dtype=np.int64).reshape(-1, 3).T
    return truth, user, begin, mode, np.array(noise, dtype=float).reshape(-1, spec.n_locations)


def _day_weights(spec: SynthSpec, mode: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Each online day's location weights: its mode plus noise, clipped at 0
    and renormalized; a day whose noisy weights all clip to 0 keeps its mode
    (renormalized)."""
    weights = np.array([m for group in spec.groups for m in group.modes])[mode]
    if spec.noise_epsilon <= 0:
        return weights
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
    location) order.
    """
    truth, user, begin, mode, noise = _draws(spec)
    durations = _apportion(_day_weights(spec, mode, noise), ONLINE_SECONDS)
    day, loc = np.nonzero(durations)
    end = begin[day] + np.cumsum(durations, axis=1)[day, loc]
    users, user_code = code_ids([user_name(i) for i in range(spec.n_users)], user[day])
    locations, loc_code = code_ids([location_name(i) for i in range(spec.n_locations)], loc)
    return Records(users, locations, user_code, loc_code, end - durations[day, loc], end), truth


def single_location_modes(n_locations: int, locations: Sequence[int]) -> tuple[tuple[float, ...], ...]:
    """Convenience: unit basis mode vectors for the given location indices."""
    modes = []
    for loc in locations:
        vec = [0.0] * n_locations
        vec[loc] = 1.0
        modes.append(tuple(vec))
    return tuple(modes)
