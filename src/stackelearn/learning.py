"""Stochastic learners for the Stackelberg power game.

Three schemes share one step loop:

* ``rla1`` -- the leader updates toward its exact expected utility given the
  followers' broadcast strategies; each follower keeps a running-average
  utility table indexed by (own action, leader action) and updates toward
  its estimate weighted by the leader's strategy.
* ``rla2`` -- followers additionally hold a belief over the *other*
  followers' joint actions, nudged by a conjecture rule proportional to the
  change in their own strategy, and evaluate utilities against that belief.
  A follower with belief factor 0 runs the plain ``rla1`` update, so the
  two schemes coincide exactly (bitwise) when all belief factors are zero.
* ``noncoop`` -- every user, leader included, does bandit Q-learning on the
  raw realized utility with no information exchange.

One ``StackelbergLearning`` engine advances a batch of R independent
replicates of a scheme in lockstep, one generator each, and reports every
result per replicate; each replicate is bitwise equal to a one-replicate
batch on its own generator.  The scalar helpers below are the reference
semantics it is tested against.

Each user's utilities are rescaled by that user's own maximum pure-profile
utility before learning (``normalized_utility_tensors``), so one default
temperature works across users and instances (leader and follower utilities
differ by orders of magnitude); traces report physical units.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import watt_to_dbm
from .game import GameInstance, normalized_utility_tensors, sinr_tensor, utility_tensor

RLA1 = "rla1"
RLA2 = "rla2"
NONCOOP = "noncoop"
ALGORITHMS = (RLA1, RLA2, NONCOOP)

# Default Boltzmann temperature as a fraction of the normalized utility scale.
AUTO_TEMPERATURE_FRACTION = 0.05


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


@functools.lru_cache(maxsize=64)
def _contraction_plan(shape: tuple[int, ...], user: int) -> tuple:
    """``np.tensordot``'s own steps for contracting every axis of a tensor of
    ``shape`` but ``user``'s, one ``(perm, rows, m, rest, j)`` per other user j.

    Trailing axes go first so earlier axis numbers stay valid: user j's axis
    is axis j below ``user`` and the last axis above it.  ``perm`` moves that
    axis last (None when it already is).
    """
    plan = []
    for j in range(len(shape) - 1, -1, -1):
        if j == user:
            continue
        last = len(shape) - 1
        axis = j if j < user else last
        rest = shape[:axis] + shape[axis + 1 :]
        perm = None if axis == last else tuple(k for k in range(last + 1) if k != axis) + (axis,)
        plan.append((perm, math.prod(rest), shape[axis], rest, j))
        shape = rest
    return tuple(plan)


def action_expected_utilities(tensor: np.ndarray, strategies, user: int) -> np.ndarray:
    """U_i(a, Y_{-i}) for every action a of ``user``: the expected value of
    ``tensor`` over everyone's strategies except the user's own.

    Each contraction is the transpose, reshape and ``np.dot`` that
    ``np.tensordot`` performs, so the result is bitwise equal to a
    ``tensordot`` chain without its per-call argument handling.
    """
    out = tensor
    for perm, rows, m, rest, j in _contraction_plan(tensor.shape, user):
        if perm is not None:
            out = out.transpose(perm)
        out = np.dot(out.reshape(rows, m), strategies[j].reshape(m, 1)).reshape(rest)
    return out


def full_expected_utility(tensor: np.ndarray, strategies) -> float:
    """Expected value of a joint-action tensor under a full strategy profile.

    ``full_expected_utility(u0[j0], follower_strategies)`` is the leader's
    exact expected utility of action ``j0``, the rla1/rla2 leader target."""
    out = tensor
    for s in reversed(strategies):
        out = out @ s
    return float(out)


@dataclass
class LearnerSettings:
    """Hyperparameters shared by all schemes (``config.LearningConfig``
    extends them with the run length and the schemes to run).

    ``temperature`` is expressed in post-normalization utility units (the
    learner rescales utilities to [0, 1]); it defaults to
    ``AUTO_TEMPERATURE_FRACTION`` of that scale.  ``temperature_decay`` < 1
    anneals geometrically.
    """

    alpha: float = 0.1
    temperature: float = AUTO_TEMPERATURE_FRACTION
    temperature_decay: float = 1.0
    belief_factor: float = 2.0

    def __post_init__(self):
        if not 0 <= self.alpha < 1:
            raise ValueError("alpha: must lie in [0, 1)")
        if not self.temperature > 0:
            raise ValueError("temperature: must be > 0")
        if not 0 < self.temperature_decay <= 1:
            raise ValueError("temperature_decay: must lie in (0, 1]")
        if not self.belief_factor >= 0:
            raise ValueError("belief_factor: must be >= 0")


@dataclass
class TraceRecord:
    """One logged learning step, physical units."""

    step: int
    actions: tuple[int, ...]
    powers_dbm: tuple[float, ...]
    sinr_lin: tuple[float, ...]
    utilities: tuple[float, ...]
    expected_utilities: tuple[float, ...]
    strategies: list[np.ndarray]


@dataclass
class _BeliefGroup:
    """rla2 followers with a nonzero belief factor and beliefs of one size B."""

    users: slice | np.ndarray  # the G members' user indices
    deltas: np.ndarray  # (G,) belief factors
    # flat positions in the stacked normalized utilities of member g's
    # (leader, other followers) block at own action 0, (G, M0 * B); its
    # own action a adds a * strides[g]
    positions: np.ndarray
    strides: np.ndarray  # (G,)
    beliefs: np.ndarray  # (R, G, B)


class StackelbergLearning:
    """Learning runs of one scheme on one game instance, R replicates in lockstep.

    ``rngs`` is a non-empty list of R generators, one per replicate (a
    single run is a batch of one).  Each replicate draws only from its own
    generator, one uniform per user per step in user order, so its results
    do not depend on the replicates run beside it.

    Agent state carries a leading replicate axis and is padded to the
    largest action set M: ``q_batch`` and ``strategy_batch`` are (R, n, M),
    ``u_hat_batch`` and ``count_batch`` (R, n-1, M, M0).  ``step`` and
    ``run`` return one entry per replicate, and the properties ``q``,
    ``strategies``, ``estimates`` and ``beliefs`` one list of per-user
    copies per replicate.

    Each replicate is bitwise equal to a run of the scalar helpers
    (``sample_action``, ``q_update``, ``JointEstimate``,
    ``conjecture_adjust``, ``full_expected_utility``,
    ``rla2_estimated_expected_utility``, ``boltzmann_strategy``).  To keep
    it so, every batched contraction is the same BLAS call per replicate
    as the scalar one: a dot per follower estimate and per final
    expectation, matrix-vector products along the chains.
    """

    # Uniforms drawn per replicate at once by ``run``: memory stays bounded
    # and a run never draws past its last step.
    DRAW_BLOCK = 1024

    def __init__(
        self,
        game: GameInstance,
        algorithm: str,
        rngs: list[np.random.Generator],
        settings: LearnerSettings,
        belief_factors=None,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if not rngs:
            raise ValueError("at least one replicate generator is required")
        if not all(isinstance(g, np.random.Generator) for g in rngs):
            raise TypeError("a replicate batch takes numpy Generator instances")
        self.game = game
        self.algorithm = algorithm
        self.settings = settings
        self.rngs = list(rngs)

        n = game.num_users
        k = game.num_followers
        r = self.num_replicates = len(self.rngs)
        self.dims = dims = game.action_dims
        m = max(dims)
        m0 = dims[0]
        # per-user tensors are views into stacked (n, *dims) arrays
        u_phys = self._stacked(utility_tensor)
        sinr = self._stacked(sinr_tensor)
        self.u_phys = list(u_phys)
        self.sinr_tensors = list(sinr)
        u_norm = np.stack(normalized_utility_tensors(game))
        u_norm.setflags(write=False)
        self.u_norm = list(u_norm)
        self._u_phys_all = u_phys[None]  # broadcasts over replicates
        # (profile, user) tables of realized values
        self._u_norm_by_profile = u_norm.reshape(n, -1).T
        self._u_phys_by_profile = u_phys.reshape(n, -1).T
        self._sinr_by_profile = sinr.reshape(n, -1).T
        self._profile_strides = np.array([math.prod(dims[i + 1 :]) for i in range(n)])
        self._powers_dbm = [
            [watt_to_dbm(p) for p in user.action_set.levels_w] for user in game.users
        ]

        self.temperature = self.settings.temperature

        if belief_factors is None:
            belief_factors = [self.settings.belief_factor] * k
        if len(belief_factors) != k:
            raise ValueError("one belief factor per follower is required")
        self.belief_factors = [float(d) for d in belief_factors]

        self._ragged = any(d != m for d in dims)
        self._last_action = np.array(dims) - 1
        self.q_batch = np.zeros((r, n, m))
        self.strategy_batch = self._boltzmann(self.q_batch)
        self._prev_strategy_batch = self.strategy_batch
        self.u_hat_batch = np.zeros((r, k, m, m0))
        self.count_batch = np.zeros((r, k, m, m0), dtype=np.int64)
        self._belief_groups = self._make_belief_groups() if algorithm == RLA2 else []
        self._u_norm_flat = u_norm.reshape(-1)
        # uniforms drawn ahead by ``run``, (steps, R, n, 1), and the next one
        self._uniforms = np.empty((0, r, n, 1))
        self._next_uniform = 0
        self._leader_columns = self._chain_columns(first=1, lead=1)
        self._expect_columns = self._chain_columns(first=0, lead=2)

        # flat offsets of every (replicate, user) row, for one-gather updates
        self._q_base = (np.arange(r * n) * m).reshape(r, n)
        self._row_base = (np.arange(r * k) * m).reshape(r, k)
        self.t = 0

    def _stacked(self, tensor) -> np.ndarray:
        out = np.empty((self.game.num_users,) + self.game.action_dims)
        for i in range(self.game.num_users):
            out[i] = tensor(self.game, i)
        out.setflags(write=False)
        return out

    def _other_dims(self, follower: int) -> tuple[int, ...]:
        return tuple(m for j, m in enumerate(self.dims) if j not in (0, follower))

    def _make_belief_groups(self) -> list[_BeliefGroup]:
        by_size: dict[int, list[int]] = {}
        for i in range(1, self.game.num_users):
            if self.belief_factors[i - 1] != 0.0:
                by_size.setdefault(math.prod(self._other_dims(i)), []).append(i)
        profiles = math.prod(self.dims)
        groups = []
        for size, users in by_size.items():
            positions = [
                i * profiles + np.moveaxis(np.arange(profiles).reshape(self.dims), i, 0)[0].ravel()
                for i in users
            ]
            contiguous = users == list(range(users[0], users[-1] + 1))
            groups.append(
                _BeliefGroup(
                    users=slice(users[0], users[-1] + 1) if contiguous else np.array(users),
                    deltas=np.array([self.belief_factors[i - 1] for i in users]),
                    positions=np.array(positions),
                    strides=self._profile_strides[users],
                    beliefs=np.full((self.num_replicates, len(users), size), 1.0 / size),
                )
            )
        return groups

    def _chain_columns(self, first: int, lead: int) -> list[tuple]:
        """Indices into ``strategy_batch`` giving the column of user j, for
        j = n-1 down to ``first``, shaped to multiply a tensor with ``lead``
        leading axes and user axes ``first`` to j (see ``_contract``)."""
        columns = []
        for j in range(self.game.num_users - 1, first - 1, -1):
            ndim = lead + (j - first + 1 if j > first else 2)
            columns.append((slice(None),) + (None,) * (ndim - 3) + (j, slice(0, self.dims[j]), None))
        return columns

    def _per_user_rows(self, batch: np.ndarray) -> list:
        return [[row[i, :m].copy() for i, m in enumerate(self.dims)] for row in batch]

    @property
    def strategies(self) -> list:
        """Current strategies: per replicate, per user."""
        return self._per_user_rows(self.strategy_batch)

    @property
    def q(self) -> list:
        """Current Q-values: per replicate, per user."""
        return self._per_user_rows(self.q_batch)

    @property
    def estimates(self) -> list:
        """Follower utility estimates as ``JointEstimate`` copies, per replicate."""

        def per_follower(r):
            out = []
            for i in range(1, self.game.num_users):
                est = JointEstimate(self.dims[i], self.dims[0])
                est.u_hat[...] = self.u_hat_batch[r, i - 1, : self.dims[i]]
                est.counts[...] = self.count_batch[r, i - 1, : self.dims[i]]
                out.append(est)
            return out

        return [per_follower(r) for r in range(self.num_replicates)]

    @property
    def beliefs(self) -> list:
        """rla2 contention beliefs per replicate, one axis per other
        follower; followers that never update theirs keep the uniform one."""
        uniform = [np.full(self._other_dims(i), 1.0 / math.prod(self._other_dims(i)))
                   for i in range(1, self.game.num_users)]

        def per_follower(r):
            out = [b.copy() for b in uniform]
            for group in self._belief_groups:
                users = np.arange(self.game.num_users)[group.users]
                for g, i in enumerate(users):
                    out[i - 1] = group.beliefs[r, g].reshape(self._other_dims(i)).copy()
            return out

        return [per_follower(r) for r in range(self.num_replicates)]

    def _boltzmann(self, q: np.ndarray) -> np.ndarray:
        """``boltzmann_strategy`` of every (replicate, user) row; padding
        entries of a smaller action set get probability 0."""
        if self._ragged:
            y = np.zeros_like(q)
            for i, m in enumerate(self.dims):
                y[:, i, :m] = _softmax_rows(q[:, i, :m], self.temperature)
            return y
        return _softmax_rows(q, self.temperature)

    def _draw(self, steps: int) -> np.ndarray:
        """Uniforms for ``steps`` steps, shaped (steps, R, n, 1)."""
        n = self.game.num_users
        return np.stack([g.random((steps, n)) for g in self.rngs], axis=1)[..., None]

    def _sample(self, u: np.ndarray) -> np.ndarray:
        """``sample_action`` for every (replicate, user): the action is the
        number of inner CDF points at or below the uniform."""
        cdf = self.strategy_batch.cumsum(axis=-1)
        actions = np.add.reduce(cdf[..., :-1] <= u, axis=-1)
        if self._ragged:
            np.minimum(actions, self._last_action, out=actions)
        return actions

    def _contract(self, out: np.ndarray, columns: list[tuple]) -> np.ndarray:
        """Contract the trailing user axes of ``out`` with the current
        strategies, last user first.  Like the scalar ``out @ y_j`` chain,
        each product is one matrix-vector product per block and the last
        one a dot, so every replicate gets the scalar chain's bits."""
        if not columns:
            return out
        y = self.strategy_batch
        for col in columns[:-1]:
            out = np.matmul(out, y[col])[..., 0]
        return np.matmul(out[..., None, :], y[columns[-1]])[..., 0, 0]

    def _records(self, actions: np.ndarray) -> list[TraceRecord]:
        """One record per replicate for the step about to be taken."""
        flat = actions @ self._profile_strides
        sinr = self._sinr_by_profile[flat].tolist()
        utilities = self._u_phys_by_profile[flat].tolist()
        expected = self._contract(self._u_phys_all, self._expect_columns).tolist()
        y = self.strategy_batch
        records = []
        for r, row in enumerate(actions.tolist()):
            records.append(
                TraceRecord(
                    step=self.t,
                    actions=tuple(row),
                    powers_dbm=tuple(dbm[a] for dbm, a in zip(self._powers_dbm, row)),
                    sinr_lin=tuple(sinr[r]),
                    utilities=tuple(utilities[r]),
                    expected_utilities=tuple(expected[r]),
                    strategies=[y[r, i, :m].copy() for i, m in enumerate(self.dims)],
                )
            )
        return records

    def _update(self, actions: np.ndarray) -> None:
        """Realize utilities, update estimators and Q-values, then regenerate
        every strategy from the new Q-values."""
        y = self.strategy_batch
        m0 = self.dims[0]
        realized = self._u_norm_by_profile[actions @ self._profile_strides]  # (R, n)
        q_cells = self._q_base + actions

        if self.algorithm == NONCOOP:
            targets = realized
        else:
            targets = np.empty_like(realized)
            targets[:, 0] = self._contract(self.u_norm[0][actions[:, 0]], self._leader_columns)
            if self.game.num_followers:
                rows = self._row_base + actions[:, 1:]  # (R, K) rows of M0 cells
                cells = rows * m0 + actions[:, :1]
                u_hat = self.u_hat_batch.reshape(-1)
                counts = self.count_batch.reshape(-1)
                visits = counts[cells] + 1
                old = u_hat[cells]
                u_hat[cells] = old + (realized[:, 1:] - old) / visits
                counts[cells] = visits
                estimates = self.u_hat_batch.reshape(-1, 1, m0)[rows]  # (R, K, 1, M0)
                targets[:, 1:] = np.matmul(estimates, y[:, None, 0, :m0, None])[..., 0, 0]
            if self._belief_groups:
                change = y.reshape(-1)[q_cells] - self._prev_strategy_batch.reshape(-1)[q_cells]
                for group in self._belief_groups:
                    targets[:, group.users] = self._belief_targets(group, actions, change)

        q = self.q_batch.reshape(-1)
        old = q[q_cells]
        q[q_cells] = old + self.settings.alpha * (targets - old)

        self._prev_strategy_batch = y
        decay = self.settings.temperature_decay
        if decay != 1.0:
            self.temperature *= decay
        self.strategy_batch = self._boltzmann(self.q_batch)
        self.t += 1

    def _belief_targets(self, group: _BeliefGroup, actions, change) -> np.ndarray:
        """``conjecture_adjust`` the group's beliefs, then return
        ``rla2_estimated_expected_utility`` of each member's action."""
        shift = group.deltas * change[:, group.users]  # (R, G)
        clipped = np.clip(group.beliefs - shift[..., None], 0.0, 1.0)
        total = np.add.reduce(clipped, axis=-1, keepdims=True)
        if not total.all():  # clipped entries are >= 0, so this is total <= 0
            empty = total[..., 0] <= 0
            clipped[empty] = 1.0 / clipped.shape[-1]
            total[empty] = 1.0
        group.beliefs = clipped / total
        m0 = self.dims[0]
        own = (actions[:, group.users] * group.strides)[..., None]
        sub = self._u_norm_flat[group.positions + own]  # (R, G, M0 * B)
        sub = sub.reshape(sub.shape[:2] + (m0, -1))
        over_leader = np.matmul(sub, group.beliefs[..., None])  # (R, G, M0, 1)
        y0 = self.strategy_batch[:, None, None, 0, :m0]
        return np.matmul(y0, over_leader)[..., 0, 0]

    def step(self, record: bool = True) -> list[TraceRecord] | None:
        """One iteration.  Returns its ``TraceRecord``s, one per replicate;
        ``record=False`` builds none and returns None."""
        if self._next_uniform == len(self._uniforms):
            self._uniforms, self._next_uniform = self._draw(1), 0
        actions = self._sample(self._uniforms[self._next_uniform])
        self._next_uniform += 1
        records = self._records(actions) if record else None
        self._update(actions)
        return records

    def run(self, num_steps: int, log_every: int = 1) -> list[list[TraceRecord]]:
        """Run ``num_steps`` iterations, keeping every ``log_every``-th record
        plus the final one; records are only built for kept steps.  Returns
        one such list per replicate."""
        if num_steps < 1:
            raise ValueError("num_steps must be >= 1")
        last = num_steps - 1
        runs = [[] for _ in self.rngs]
        for start in range(0, num_steps, self.DRAW_BLOCK):
            # ``step`` has used up its draws, so the stream stays in order
            self._uniforms = self._draw(min(self.DRAW_BLOCK, num_steps - start))
            self._next_uniform = 0
            for t in range(start, start + len(self._uniforms)):
                keep = t % log_every == 0 or t == last
                records = self.step(record=keep)
                if keep:
                    for run, record in zip(runs, records):
                        run.append(record)
        return runs


def _softmax_rows(q: np.ndarray, temperature: float) -> np.ndarray:
    """``boltzmann_strategy`` along the last axis, with the same operations."""
    z = q / temperature
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)
