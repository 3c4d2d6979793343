"""Scalar reference semantics for the batched engine, the batched strategy
field and the game tensors.

Nothing in the package calls these; the tests check the game tensors, the
oracle, the lockstep engine and the dynamics against them.  The game helpers
enumerate the joint action grid one profile at a time, the learning helpers
advance one user of one replicate at a time (the expected-utility chain one
M x M block at a time) and ``ReferenceLearner`` chains them into one run,
and the field helpers run that blocked chain one user and one action at a
time.  ``full_expected_utility`` and ``stationarity_check`` are the
exceptions: the engine's own chain on one tensor, and the max-norm of the
package's own field, for the tests that call them.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from stackelearn.dynamics import _floor_profile, strategy_derivative
from stackelearn.game import (
    GameInstance,
    _best_response,
    _follower_nash_mask,
    utility,
    utility_tensor,
)
from stackelearn.learning import NONCOOP, RLA2, _chain_plan, _expect


def joint_action_space(game: GameInstance):
    """Iterator over all joint action index tuples."""
    return itertools.product(*(range(m) for m in game.action_dims))


def expected_utility(i: int, strategies: Sequence[np.ndarray], game: GameInstance) -> float:
    """Expected utility of user i under a mixed strategy profile.

    Exhaustive enumeration over the product action space; strategies must
    live on their simplices and match the users' action set sizes.
    """
    if len(strategies) != game.num_users:
        raise ValueError("one strategy per user is required")
    for s, m in zip(strategies, game.action_dims):
        if len(s) != m:
            raise ValueError("strategy length does not match the user's action set")
    total = 0.0
    for idx in joint_action_space(game):
        prob = 1.0
        for s, a in zip(strategies, idx):
            prob *= s[a]
        if prob != 0.0:
            total += utility(i, game.powers_from_indices(idx), game) * prob
    return total


def blocked_expected_utility(tensor: np.ndarray, strategies) -> float:
    """Expected value of a joint-action tensor under a full strategy profile,
    last user first: each ``out @ s`` is one matrix-vector product per
    M x M block, and the last one a dot."""
    out = tensor
    for s in reversed(strategies):
        out = out @ s
    return float(out)


def full_expected_utility(tensor: np.ndarray, strategies) -> float:
    """The engine's expected-utility chain, ``learning._expect``, on one
    joint-action tensor and a full strategy profile, with no batch axis.

    Not a reference: it is the chain under test, which the tests check
    against ``blocked_expected_utility`` and against the learners' leader
    targets (``full_expected_utility(u0[j0], follower_strategies)`` is the
    leader's exact expected utility of action ``j0``)."""
    y = np.asarray(strategies, dtype=float)
    return float(_expect(tensor, y, _chain_plan((), (), range(len(y)), y.shape[-1])))


def best_response(i: int, actions: Sequence[int], game: GameInstance) -> int:
    """Best pure action of user i with all opponents fixed.

    ``actions[i]`` is ignored.  Ties break toward the lowest power index.
    """
    return _best_response(utility_tensor(game)[i], i, actions)


def follower_pure_nash(leader_action: int, game: GameInstance) -> list[tuple[int, ...]]:
    """All pure Nash equilibria of the follower game for a fixed leader action,
    in lexicographic order.

    A follower profile qualifies when no follower has a strictly improving
    unilateral deviation.  May be empty: the discretized game need not have
    a pure NE.
    """
    utilities = list(utility_tensor(game))
    nash = _follower_nash_mask(utilities)[leader_action]
    return [tuple(int(a) for a in fol) for fol in np.argwhere(nash)]


def boltzmann_strategy(q: np.ndarray, temperature: float) -> np.ndarray:
    """Softmax of Q-values at the given temperature, overflow-safe."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    z = np.asarray(q, dtype=float) / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def sample_action(strategy: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF sample of an action index from a probability vector."""
    u = rng.random()
    acc = 0.0
    for j in range(len(strategy) - 1):
        acc += strategy[j]
        if u < acc:
            return j
    return len(strategy) - 1


def q_update(q: np.ndarray, action: int, target: float, alpha: float) -> np.ndarray:
    """Single-entry Q recursion q[a] <- q[a] + alpha (target - q[a])."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must lie in [0, 1)")
    out = q.copy()
    out[action] += alpha * (target - out[action])
    return out


class JointEstimate:
    """Running-average utility per (own action, leader action) cell."""

    def __init__(self, own_dim: int, leader_dim: int):
        self.u_hat = np.zeros((own_dim, leader_dim))
        self.counts = np.zeros((own_dim, leader_dim), dtype=np.int64)

    def update(self, own_action: int, leader_action: int, realized_utility: float) -> None:
        c = self.counts[own_action, leader_action]
        self.u_hat[own_action, leader_action] += (
            realized_utility - self.u_hat[own_action, leader_action]
        ) / (c + 1)
        self.counts[own_action, leader_action] = c + 1

    def estimate(self, own_action: int, leader_strategy: np.ndarray) -> float:
        """Estimated expected utility of an own action, weighting the cell
        averages by the leader's broadcast strategy."""
        return float(leader_strategy @ self.u_hat[own_action])


def conjecture_adjust(
    belief: np.ndarray, delta: float, own_prob_new: float, own_prob_old: float
) -> np.ndarray:
    """Shift a contention belief by -delta * (change in own action probability).

    The raw shift can leave the simplex; entries are clamped to [0, 1] and
    renormalized.  ``delta == 0`` is the identity.
    """
    if delta < 0:
        raise ValueError("belief factor must be >= 0")
    raw = belief - delta * (own_prob_new - own_prob_old)
    clipped = np.clip(raw, 0.0, 1.0)
    total = clipped.sum()
    if total <= 0:
        return np.full_like(belief, 1.0 / belief.size)
    return clipped / total


def rla2_estimated_expected_utility(
    own_action: int,
    follower_index: int,
    leader_strategy: np.ndarray,
    belief: np.ndarray,
    u_i: np.ndarray,
) -> float:
    """Belief-weighted expected utility of an own action for an rla2 follower.

    ``u_i`` is the follower's utility tensor over the joint action grid
    (axes ordered by user index); the environment supplies it exactly.
    ``belief`` has one axis per other follower, in user order.
    """
    sub = np.take(u_i, own_action, axis=follower_index)  # axes: leader, other followers
    if belief.ndim:
        over_leader = np.tensordot(sub, belief, axes=(list(range(1, sub.ndim)), list(range(belief.ndim))))
    else:
        over_leader = sub * belief
    return float(leader_strategy @ over_leader)


class ReferenceLearner:
    """One sequential run built from the scalar helpers."""

    def __init__(self, game, algorithm, rng, settings):
        self.algorithm = algorithm
        self.rng = rng
        self.settings = settings
        self.dims = game.action_dims
        n = game.num_users
        self.u_phys = list(utility_tensor(game))
        self.u_norm = [t / (max(float(t.max()), 0.0) or 1.0) for t in self.u_phys]
        self.tau = settings.temperature
        self.q = [np.zeros(m) for m in self.dims]
        self.y = [boltzmann_strategy(q, self.tau) for q in self.q]
        self.prev_y = [y.copy() for y in self.y]
        self.estimates = [JointEstimate(self.dims[i], self.dims[0]) for i in range(1, n)]
        self.beliefs = []
        for i in range(1, n):
            shape = tuple(m for j, m in enumerate(self.dims) if j not in (0, i))
            self.beliefs.append(np.full(shape, 1.0 / max(1, int(np.prod(shape)))))

    def expected_utilities(self):
        return tuple(blocked_expected_utility(t, self.y) for t in self.u_phys)

    def step(self):
        n = len(self.dims)
        alpha = self.settings.alpha
        y = self.y
        actions = tuple(sample_action(y[i], self.rng) for i in range(n))
        realized = [float(self.u_norm[i][actions]) for i in range(n)]
        if self.algorithm == NONCOOP:
            for i in range(n):
                self.q[i] = q_update(self.q[i], actions[i], realized[i], alpha)
        else:
            target = blocked_expected_utility(self.u_norm[0][actions[0]], y[1:])
            self.q[0] = q_update(self.q[0], actions[0], target, alpha)
            for i in range(1, n):
                delta = self.settings.belief_factor
                if self.algorithm == RLA2 and delta != 0.0:
                    self.beliefs[i - 1] = conjecture_adjust(
                        self.beliefs[i - 1],
                        delta,
                        float(y[i][actions[i]]),
                        float(self.prev_y[i][actions[i]]),
                    )
                    target = rla2_estimated_expected_utility(
                        actions[i], i, y[0], self.beliefs[i - 1], self.u_norm[i]
                    )
                else:
                    est = self.estimates[i - 1]
                    est.update(actions[i], actions[0], realized[i])
                    target = est.estimate(actions[i], y[0])
                self.q[i] = q_update(self.q[i], actions[i], target, alpha)
        self.prev_y = y
        self.tau *= self.settings.temperature_decay
        self.y = [boltzmann_strategy(q, self.tau) for q in self.q]
        return actions


def blocked_action_utilities(row: np.ndarray, ys: np.ndarray, user: int) -> np.ndarray:
    """U_i(a, Y_{-i}) for every action a of ``user``, from the user's
    own-axis-first tensor ``row`` (a ``game.normalized_utility_tensors``
    row): one ``blocked_expected_utility`` of ``row[a]`` against the other
    users' strategies, in ascending user order, per action."""
    others = [y for j, y in enumerate(ys) if j != user]
    return np.array([blocked_expected_utility(block, others) for block in row])


def user_order(tensors) -> list[np.ndarray]:
    """Own-axis-first tensors (``game.normalized_utility_tensors``) as C-order
    tensors with their axes in user order, as the enumeration oracles index
    them."""
    return [np.ascontiguousarray(np.moveaxis(t, 0, i)) for i, t in enumerate(tensors)]


def per_user_strategy_derivative(
    profile, rows: list[np.ndarray], alpha: float, temperature: float
) -> np.ndarray:
    """``dynamics.strategy_derivative`` one user at a time, on the list of
    own-axis-first per-user utility tensors."""
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    ys = _floor_profile(profile)
    derivs = np.empty_like(ys)
    for i, y in enumerate(ys):
        u_actions = blocked_action_utilities(rows[i], ys, i)
        mean_u = float(y @ u_actions)
        log_y = np.log(y)
        entropy_term = log_y - float(y @ log_y)
        derivs[i] = (alpha / temperature) * y * ((u_actions - mean_u) - temperature * entropy_term)
    return derivs


def per_user_logit_residual(profile, rows: list[np.ndarray], temperature: float) -> float:
    """``dynamics.logit_residual`` one user at a time, on own-axis-first
    tensors."""
    ys = np.asarray(profile, dtype=float)
    logits = [
        boltzmann_strategy(blocked_action_utilities(row, ys, i), temperature)
        for i, row in enumerate(rows)
    ]
    return float(np.abs(ys - logits).sum(axis=-1).max())


def stationarity_check(
    profile, tensors, alpha: float, temperature: float, tolerance: float
) -> tuple[bool, float]:
    """Max-norm of ``dynamics.strategy_derivative`` at a profile and whether
    it is below tolerance."""
    if not tolerance > 0:
        raise ValueError("tolerance must be > 0")
    derivs = strategy_derivative(profile, tensors, alpha, temperature)
    residual = float(np.max(np.abs(derivs)))
    return residual < tolerance, residual
