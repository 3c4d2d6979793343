"""The static power-control game.

User 0 (the macro user) is the leader; users 1..N (femto users) are the
followers.  Payoffs are thresholded energy efficiencies: rate per consumed
watt when the user's SINR target is met, zero otherwise.  Every user picks
from one finite power grid, so equilibria can be found by exhaustive
enumeration.

The two formulas, `sinr` and `utility`, take one power per user and run
elementwise, in a fixed order, on numbers or on power grids that broadcast
together, so a profile's scalar value and its tensor entry have the same
bits.  They are the reference semantics: each kind of tensor is its own
formula on the broadcast power grids (`sinr_tensor` is `sinr`,
`utility_tensor` is `utility`, and the normalized kind the learners and the
dynamics read is `normalize_utility` of `utility`), the oracle and iterated
best response read those tensors, and a learning trace is the two formulas
on its sampled powers (the tests' scalar enumerations: `tests/reference.py`).

Each kind of tensor is built once per `GameInstance`, on first use, as one
read-only (n, *dims) array whose row i is user i's tensor; its accessor
returns that array, which the learners, the oracle, the references and the
dynamics share.  No build reads another kind's stack, so a command holds
only the kinds it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .channel import dbm_to_watt, sized_by

MAX_SWEEPS = 1000  # Gauss-Seidel sweeps before ``iterated_best_response`` stops


@dataclass(frozen=True)
class ActionSet:
    """Finite, strictly increasing grid of transmit powers in watts."""

    levels_w: tuple[float, ...]

    def __post_init__(self):
        if len(self.levels_w) == 0:
            raise ValueError("action set must be non-empty")
        for p in self.levels_w:
            if not (math.isfinite(p) and p > 0):
                raise ValueError(f"power level must be finite and > 0, got {p!r}")
        if any(b <= a for a, b in zip(self.levels_w, self.levels_w[1:])):
            raise ValueError("power levels must be strictly increasing")

    @classmethod
    def from_dbm(cls, levels_dbm: Sequence[float]) -> "ActionSet":
        return cls(tuple(dbm_to_watt(x) for x in levels_dbm))

    def __len__(self) -> int:
        return len(self.levels_w)


@dataclass(frozen=True)
class UserParams:
    """SINR target (linear) and circuit power (W) of one user."""

    sinr_target_lin: float
    circuit_power_w: float

    def __post_init__(self):
        if not (math.isfinite(self.sinr_target_lin) and self.sinr_target_lin > 0):
            raise ValueError("sinr_target_lin must be finite and > 0")
        if not (math.isfinite(self.circuit_power_w) and self.circuit_power_w >= 0):
            raise ValueError("circuit_power_w must be finite and >= 0")


@dataclass(frozen=True)
class GameInstance:
    """One immutable network realization bound to per-user parameters.

    ``gains[j, i]`` is the channel gain from user j to base station i.
    Every user chooses its power from the one grid ``action_set``.
    """

    gains: np.ndarray
    users: tuple[UserParams, ...]
    action_set: ActionSet
    bandwidth_hz: float
    noise_power_w: float
    # the tensor stacks built so far, by kind (see ``_shared_stack``);
    # ``dataclasses.replace`` gives the new game an empty one
    _tensors: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.gains.setflags(write=False)
        n = len(self.users)
        if self.gains.shape != (n, n):
            raise ValueError(f"gains shape {self.gains.shape} does not match {n} users")
        if not np.all(np.isfinite(self.gains)) or np.any(self.gains <= 0):
            raise ValueError("all channel gains must be finite and > 0")
        if self.bandwidth_hz <= 0 or self.noise_power_w <= 0:
            raise ValueError("bandwidth and noise power must be > 0")

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_followers(self) -> int:
        return len(self.users) - 1

    @property
    def action_dims(self) -> tuple[int, ...]:
        return (len(self.action_set),) * len(self.users)

    def powers_from_indices(self, indices: Sequence[int]) -> list[float]:
        return [self.action_set.levels_w[a] for a in indices]


@dataclass(frozen=True)
class EquilibriumResult:
    leader_action_index: int
    follower_action_indices: tuple[int, ...]
    utilities: tuple[float, ...]
    is_pure_se: bool


def sinr(i: int, powers_w: Sequence[float], game: GameInstance) -> float:
    """Linear SINR of user i at its serving base station, elementwise when
    the powers are arrays that broadcast together (`sinr_tensor`)."""
    h = game.gains
    interference = 0.0
    for j in range(game.num_users):
        if j != i:
            interference = interference + h[j, i] * powers_w[j]
    return h[i, i] * powers_w[i] / (interference + game.noise_power_w)


def utility(i: int, powers_w: Sequence[float], game: GameInstance) -> float:
    """Energy efficiency of user i, rate per consumed watt (bit/s/W), when
    its SINR target is met and exactly zero otherwise; elementwise, as
    `sinr`, on broadcast power grids (`utility_tensor`).  A number in gives a
    numpy float with libm's log2 bits (see `_log2`)."""
    user = game.users[i]
    gamma = sinr(i, powers_w, game)
    efficiency = game.bandwidth_hz * _log2(1.0 + gamma) / (user.circuit_power_w + powers_w[i])
    return np.where(gamma >= user.sinr_target_lin, efficiency, 0.0)[()]


def _log2(x):
    """``np.log2`` of a number or an array, in its shape, with libm's bits:
    numpy runs a reversed input through libm, not its AVX-512 loop, which
    can differ.  A flat view, not ``.flat``: numpy's flat iterator takes at
    most 32 axes."""
    return np.log2(np.reshape(x, -1)[::-1])[::-1].reshape(np.shape(x))


def _power_grids(game: GameInstance) -> list[np.ndarray]:
    """The power levels, shaped to broadcast along each user's axis of the
    joint action grid."""
    n = game.num_users
    levels = np.array(game.action_set.levels_w)
    return [levels.reshape((-1,) + (1,) * (n - 1 - i)) for i in range(n)]


def _shared_stack(game: GameInstance, kind: str, build) -> np.ndarray:
    """The game's read-only (n, *dims) ``kind`` stack, built whole on the
    kind's first use: row i is ``build(game, i)``.  A stack numpy cannot
    allocate, or cannot give one more axis, is a ``ConfigError`` on
    ``network.num_femtocells``."""
    stack = game._tensors.get(kind)
    if stack is None:
        n = game.num_users
        grid = f"the tensors of {n} users on a {len(game.action_set)}-level power grid"
        with sized_by("network.num_femtocells", grid):
            # one more axis for the engine's point stack; an empty array
            # checks the count alone
            np.empty((0, n) + game.action_dims)
            stack = np.empty((n,) + game.action_dims)
        for i in range(n):
            stack[i] = build(game, i)
        stack.setflags(write=False)
        stack = game._tensors[kind] = stack.view()  # no reader can make it writeable
    return stack


def sinr_tensor(game: GameInstance) -> np.ndarray:
    """Linear SINR of every user tabulated over the full joint action grid:
    the game's one read-only (n, *dims) array, built on first use, whose
    row i is user i's tensor.

    Row i is `sinr` itself evaluated on the power grids broadcast along the
    users' axes, so every entry equals the scalar value bit for bit.
    """
    return _shared_stack(game, "sinr", _build_sinr_tensor)


def utility_tensor(game: GameInstance) -> np.ndarray:
    """Utility of every user tabulated over the full joint action grid: the
    game's one read-only (n, *dims) array, built on first use, whose row i
    is user i's tensor.

    Row i is `utility` itself evaluated on the broadcast power grids, so
    every entry equals the scalar value bit for bit.
    """
    return _shared_stack(game, "utility", _build_utility_tensor)


def _build_sinr_tensor(game: GameInstance, i: int) -> np.ndarray:
    return sinr(i, _power_grids(game), game)


def _build_utility_tensor(game: GameInstance, i: int) -> np.ndarray:
    return utility(i, _power_grids(game), game)


def normalize_utility(tensor: np.ndarray) -> np.ndarray:
    """A user's utility tensor rescaled by its own maximum pure-profile
    utility (by 1 when that maximum is 0), the one scale the learners and
    the dynamics share."""
    return tensor / (max(float(tensor.max()), 0.0) or 1.0)


def normalized_utility_tensors(game: GameInstance) -> np.ndarray:
    """Every user's ``normalize_utility`` tensor with the user's own axis
    first and the other users after it in ascending order: the game's one
    read-only (n, *dims) array, built on first use.

    The learners and the dynamics read it in place.  Row i at (a_i, a_-i)
    equals ``normalize_utility(utility_tensor(game)[i])`` at that profile,
    but is built from `utility` on the grids, not from that stack.
    """
    return _shared_stack(game, "normalized", _build_normalized_tensor)


def _build_normalized_tensor(game: GameInstance, i: int) -> np.ndarray:
    return np.moveaxis(normalize_utility(utility(i, _power_grids(game), game)), i, 0)


def _best_response(u_i: np.ndarray, i: int, profile: Sequence[int]) -> int:
    index = list(profile)
    index[i] = slice(None)
    return int(np.argmax(u_i[tuple(index)]))  # the first maximum


def iterated_best_response(
    utilities: Sequence[np.ndarray], start: Sequence[int], movers: Sequence[int]
) -> tuple[list[tuple[int, ...]], bool]:
    """Gauss-Seidel best-response sweeps over the users in ``movers``.

    From ``start``, each sweep moves every mover in turn to its best
    response against the current profile.  Stops when a sweep ends where it
    began (a fixed point) or on a profile seen before (a cycle), or after
    ``MAX_SWEEPS``.  Returns the distinct profiles visited, ``start`` first,
    and whether it stopped at a fixed point, which is then the last of them.
    """
    profile = list(start)
    visited = [tuple(profile)]
    for _ in range(MAX_SWEEPS):
        for i in movers:
            profile[i] = _best_response(utilities[i], i, profile)
        key = tuple(profile)
        if key == visited[-1]:
            return visited, True
        if key in visited:
            break
        visited.append(key)
    return visited, False


def _follower_nash_mask(utilities: Sequence[np.ndarray]) -> np.ndarray:
    """Joint profiles where no follower has a strictly improving deviation."""
    mask = np.ones(utilities[0].shape, dtype=bool)
    for i in range(1, len(utilities)):
        mask &= utilities[i] == utilities[i].max(axis=i, keepdims=True)
    return mask


def stackelberg_oracle(game: GameInstance) -> EquilibriumResult:
    """Brute-force Stackelberg equilibrium over the finite action grids.

    For each leader action the follower response is the pure NE maximizing
    the leader's utility (optimistic convention, lexicographic tie-break);
    leader actions without a pure follower NE fall back to iterated best
    response from the all-min followers, taking the visited profile best for
    the leader, and clear ``is_pure_se``.
    """
    utilities = utility_tensor(game)
    u0 = utilities[0]
    nash = _follower_nash_mask(utilities)
    followers = range(1, game.num_users)
    best: tuple[int, ...] | None = None
    all_pure = True
    for p0 in range(game.action_dims[0]):
        nes = np.argwhere(nash[p0])  # lexicographic order, as is u0[p0][nash[p0]]
        if len(nes):
            response = nes[int(np.argmax(u0[p0][nash[p0]]))]
            profile = (p0,) + tuple(int(a) for a in response)
        else:
            all_pure = False
            start = (p0,) + (0,) * game.num_followers
            visited, _ = iterated_best_response(utilities, start, followers)
            profile = max(visited, key=lambda p: u0[p])
        if best is None or u0[profile] > u0[best]:
            best = profile
    assert best is not None
    return EquilibriumResult(
        leader_action_index=best[0],
        follower_action_indices=best[1:],
        utilities=tuple(float(u[best]) for u in utilities),
        is_pure_se=all_pure,
    )


def leader_feasible(game: GameInstance) -> bool:
    """Can the leader meet its SINR target at max power while every follower
    transmits at its minimum power?"""
    levels = game.action_set.levels_w
    powers = [levels[-1]] + [levels[0]] * game.num_followers
    return sinr(0, powers, game) >= game.users[0].sinr_target_lin
