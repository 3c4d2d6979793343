"""Stochastic learners for the Stackelberg power game.

Three schemes share one step loop:

* ``rla1`` -- the leader updates toward its exact expected utility given the
  followers' broadcast strategies; each follower keeps a running-average
  utility table indexed by (own action, leader action) and updates toward
  its estimate weighted by the leader's strategy.
* ``rla2`` -- followers hold a belief over the *other* followers' joint
  actions instead of the table, nudged by a conjecture rule proportional to
  the change in their own strategy, and evaluate utilities against that
  belief.  Every follower uses the one belief factor of ``LearnerSettings``;
  at 0 they keep the table and run the plain ``rla1`` update, so the two
  schemes coincide exactly (bitwise).
* ``noncoop`` -- every user, leader included, does bandit Q-learning on the
  raw realized utility with no information exchange.

One ``StackelbergLearning`` engine advances a batch of R independent
replicates of a scheme in lockstep, one game and one generator each, and
reports every result per replicate.  Every user of a game picks from the
game's one grid of M power levels.  The replicates may play different
games with equal ``action_dims`` (such as two points of a sweep); each
replicate is bitwise equal to a one-replicate batch on its own game and
generator, and to the scalar reference semantics in ``tests/reference.py``.

Each user's utilities are rescaled by that user's own maximum pure-profile
utility before learning, so one default temperature works across users and
instances (leader and follower utilities differ by orders of magnitude).
The engine learns on the game's normalized stack alone
(``game.normalized_utility_tensors``, each user's own axis first), and
``run`` returns the steps it kept.  ``read_trace`` reads them in physical
units for the callers that ask for it: the game's two formulas on the
sampled powers, and the expected utilities from its utility stack in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import sized_by, watt_to_dbm
from .game import GameInstance, normalized_utility_tensors, sinr, utility, utility_tensor

RLA1 = "rla1"
RLA2 = "rla2"
NONCOOP = "noncoop"
ALGORITHMS = (RLA1, RLA2, NONCOOP)


def _chain_plan(batch: tuple, rows: tuple, users: range, m: int) -> list[tuple]:
    """``_expect``'s (reshape target, strategy column) pairs for a tensor of
    shape (*batch, *rows, M, ..., M), one M axis per user in ``users``,
    against strategies of shape (*batch, n, M).  One batch axis may be -1."""
    lead = (slice(None),) * len(batch)
    plan = [
        ((*batch, math.prod(rows) * m ** (j - users[0]), m), lead + (j, slice(None), None))
        for j in reversed(users[1:])
    ]
    if users:
        plan.append(((*batch, *rows, 1, m), lead + (None,) * len(rows) + (users[0], slice(None), None)))
    return plan


def _expect(out: np.ndarray, y: np.ndarray, plan: list[tuple], into=None, bound=None) -> np.ndarray:
    """Contract the user axes of ``out`` with the strategies ``y`` along
    ``plan``, last user first, into a new (*batch, *rows) array: one
    matrix-vector product per batch element over all its C-order rows of M
    cells, then one dot per row.  Every value has the bits of
    ``blocked_expected_utility`` in ``tests/reference.py``.  It is the
    package's one expected-utility chain: the learners' leader targets,
    ``_expected_rows`` (``read_trace`` and the sweep) and the strategy
    field (``dynamics.FieldTensors``) all contract through it.

    The last product writes into ``into`` (shaped (*batch, *rows, 1, 1))
    when given.  ``bound``, a list, receives each product's (operand,
    strategy column, output) arrays: ``np.matmul`` over them again repeats
    the chain on whatever ``out`` and ``y`` then hold, with no new array."""
    for k, (shape, col) in enumerate(plan):
        operand, column = out.reshape(shape), y[col]
        out = np.matmul(operand, column, into if k == len(plan) - 1 else None)
        if bound is not None:
            bound.append((operand, column, out))
    return out[..., 0, 0] if plan else out.copy()


def _expected_rows(stack: np.ndarray, profiles: np.ndarray) -> np.ndarray:
    """The (B, *rows) expected values of a (*rows, M, ..., M) ``stack`` under
    B (n, M) ``profiles``, for the traces and the sweep.  ``np.matmul``
    broadcasts the stack over the profiles, so it is read in place; the
    profiles go in blocks whose first product holds no more cells than the
    larger of the stack and the profiles."""
    count, n, m = profiles.shape
    rows = stack.shape[: stack.ndim - n]
    plan = _chain_plan((-1,), rows, range(n), m)
    block = max(1, max(stack.size, profiles.size) * m // stack.size)
    out = np.empty((count,) + rows)
    for k in range(0, count, block):
        out[k : k + block] = _expect(stack, profiles[k : k + block], plan)
    return out


@dataclass(frozen=True)
class LearnerSettings:
    """The ``learning`` config section: the hyperparameters shared by all
    schemes, the run length, the schemes to run and the trace decimation.

    ``temperature`` is expressed in post-normalization utility units (the
    learner rescales utilities to [0, 1]); it defaults to 0.05 of that
    scale.  ``temperature_decay`` < 1 anneals geometrically; the temperature
    after ``num_steps`` steps must stay a normal float, and
    ``StackelbergLearning.run`` checks its own length here.
    """

    alpha: float = 0.1
    temperature: float = 0.05
    temperature_decay: float = 1.0
    belief_factor: float = 2.0
    num_steps: int = 5000
    algorithms: tuple[str, ...] = ALGORITHMS
    trace_decimation: int = 10

    def __post_init__(self):
        if not 0 <= self.alpha < 1:
            raise ValueError("alpha: must lie in [0, 1)")
        if not self.temperature > 0:
            raise ValueError("temperature: must be > 0")
        if not 0 < self.temperature_decay <= 1:
            raise ValueError("temperature_decay: must lie in (0, 1]")
        if not self.belief_factor >= 0:
            raise ValueError("belief_factor: must be >= 0")
        if self.num_steps < 1:
            raise ValueError("num_steps: must be >= 1")
        # the Boltzmann step divides Q-values in [0, 1] by the temperature
        tiny = np.finfo(float).tiny
        if not self.temperature * self.temperature_decay**self.num_steps >= tiny:
            raise ValueError(
                f"temperature: temperature * temperature_decay ** num_steps must be >= {tiny:g}"
            )
        for k, name in enumerate(self.algorithms):
            if name not in ALGORITHMS:
                raise ValueError(f"algorithms: unknown algorithm {name!r}")
            if name in self.algorithms[:k]:
                raise ValueError(f"algorithms: {name!r} is listed twice")
        if self.trace_decimation < 1:
            raise ValueError("trace_decimation: must be >= 1")


@dataclass(frozen=True, eq=False)
class Trace:
    """One replicate's logged learning steps in physical units, as arrays
    over its K kept steps (n users, M power levels each).

    Each row describes one step as it was taken: the strategies it sampled
    from (before its update), the actions it sampled, and the powers, SINRs,
    realized utilities and expected utilities under those strategies.
    """

    steps: np.ndarray  # (K,) engine step index
    actions: np.ndarray  # (K, n)
    powers_dbm: np.ndarray  # (K, n)
    sinr_lin: np.ndarray  # (K, n)
    utilities: np.ndarray  # (K, n)
    expected_utilities: np.ndarray  # (K, n)
    strategies: np.ndarray  # (K, n, M)


class StackelbergLearning:
    """Learning runs of one scheme, R replicates in lockstep.

    ``games`` and ``rngs`` hold one game and one generator per replicate (a
    single run is a batch of one).  The games may differ but must share
    their ``action_dims``.  Each replicate draws only from its own
    generator, one uniform per user per step in user order, and reads only
    its own game, so its results do not depend on the replicates run beside
    it.

    The engine learns on one stack alone.  The distinct games (by
    identity, in order of first appearance, listed in ``games``) put their
    ``normalized_utility_tensors`` under a leading point axis: ``u_norm``
    is a read-only (P, n, *dims) array, each user's own axis first and the
    other users after it in ascending order, and ``points[r]`` is replicate
    r's index into it.  With one game it is a view of the game's stack, not
    a copy.  Every read of a game's values gathers at the replicate's
    point: a realized value at a flat offset, the leader target the row
    ``u_norm[p, 0, a_0]`` and an rla2 follower i's block (leader by other
    followers) the row ``u_norm[p, i, a_i]``.  The engine reads no
    physical stack: ``read_trace`` reads a replicate's kept steps in
    physical units, for the callers that want a ``Trace``.

    A step does its indexing through tables set up once.  Each of those
    indices, like each Q and estimate cell, is an integer linear function
    of the actions plus a per-replicate base, so one integer product of
    the sampling comparisons' 0/1 mask with the offset table ``_table``
    gives them all.  The strategies are one array, ``strategy_batch``,
    which every softmax overwrites in place, so the strategy views the
    products read, and every gather and product output, are fixed arrays.
    rla2 followers that conjecture read their strategy change against
    ``_previous``, a copy of the strategies before the last update.

    Agent state carries a leading replicate axis: ``q_batch`` and
    ``strategy_batch`` are (R, n, M), ``u_hat_batch`` and ``count_batch``
    (R, n-1, M, M), and ``belief_batch`` (R, n-1, M^(n-2)), every rla2
    follower using ``settings.belief_factor``.
    ``step`` returns a new (R, n) array of the actions it sampled, which no
    later step changes, and ``run`` one ``(steps, actions, strategies)``
    tuple of kept steps per replicate.  The properties ``q`` and
    ``strategies`` return (R, n, M) copies, ``estimates`` copies of
    ``(u_hat_batch, count_batch)`` and ``beliefs`` a copy of
    ``belief_batch``.

    Each replicate is bitwise equal to a run of the scalar reference
    helpers in ``tests/reference.py``: every batched product computes each
    row as the scalar one does, a dot per follower estimate and per final
    expectation, and one matrix-vector product per replicate over all its
    rows of M cells along the expected-utility chains (``_expect``), where
    the scalar chain makes one per M x M block.
    """

    # Uniforms drawn per replicate at once by ``run``: memory stays bounded
    # and a run never draws past its last step.
    DRAW_BLOCK = 1024

    def __init__(
        self,
        games: list[GameInstance],
        algorithm: str,
        rngs: list[np.random.Generator],
        settings: LearnerSettings,
    ):
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if not rngs:
            raise ValueError("at least one replicate generator is required")
        if not all(isinstance(g, np.random.Generator) for g in rngs):
            raise TypeError("a replicate batch takes numpy Generator instances")
        if len(games) != len(rngs):
            raise ValueError("one game per replicate generator is required")
        self.games = list({id(game): game for game in games}.values())
        dims = self.games[0].action_dims
        if any(game.action_dims != dims for game in self.games):
            raise ValueError("the games of a batch must have equal action_dims")
        point_of = {id(game): p for p, game in enumerate(self.games)}
        self.points = np.array([point_of[id(game)] for game in games])
        self.algorithm = algorithm
        self.settings = settings
        self.rngs = list(rngs)

        n = self.num_users = len(dims)
        k = n - 1
        r = self.num_replicates = len(self.rngs)
        m = self.num_actions = dims[0]
        profiles = math.prod(dims)
        u_norm = self.u_norm = _point_stack([normalized_utility_tensors(g) for g in self.games])
        self._u_norm_flat = u_norm.reshape(-1)
        # flat offset of each (replicate, user) tensor in ``u_norm``: a
        # realized value is one gather at this base plus the profile offset
        tensor_of = self.points[:, None] * n + np.arange(n)  # (R, n) row of each user's tensor
        user_base = tensor_of * profiles

        self.temperature = self.settings.temperature
        self.q_batch = np.zeros((r, n, m))
        # every softmax writes this one array, so the views below serve
        # every step
        self.strategy_batch = _softmax_rows(self.q_batch, self.temperature)
        self.u_hat_batch = np.zeros((r, k, m, m))
        self.count_batch = np.zeros((r, k, m, m), dtype=np.int64)
        # rla2 beliefs over the other followers' joint actions; with belief
        # factor 0 they stay uniform and the followers run the rla1 update
        beliefs = m ** max(n - 2, 0)
        self.belief_batch = np.full((r, k, beliefs), 1.0 / beliefs)
        self._conjecture = algorithm == RLA2 and settings.belief_factor != 0.0
        # the strategies before the last update, for the conjecture's change;
        # a copy at first, so the first change is zero
        self._previous = self.strategy_batch.copy() if self._conjecture else None
        # uniforms drawn ahead by ``run``, (steps, R, n, 1), and the next one
        self._uniforms = np.empty((0, r, n, 1))
        self._next_uniform = 0

        # Action a_j is the number of user j's inner CDF points at or below
        # its uniform, so the (R, n(M-1)) 0/1 mask of those comparisons times
        # ``_table`` (each user's coefficients repeated M-1 times) plus
        # ``_base`` gives every index of a step.  Columns, as (coefficient of
        # a_j, base): the actions; the offsets in ``u_norm`` (the stride of
        # a_j in user i's own-axis-first tensor); the Q cells; the estimate
        # cells and rows; the leader's row and the follower blocks' rows.
        eye = np.eye(n, dtype=np.intp)
        j, i = np.indices((n, n))
        own_strides = m ** np.where(j == i, n - 1, n - 2 - j + (j > i))
        est_rows = np.arange(r * k).reshape(r, k) * m
        columns = [
            (eye, 0), (own_strides, user_base), (eye, np.arange(r * n).reshape(r, n) * m),
            (m * eye[:, 1:] + eye[:, :1], est_rows * m), (eye[:, 1:], est_rows),
            (eye[:, :1], tensor_of[:, :1] * m), (eye[:, 1:], tensor_of[:, 1:] * m),
        ]
        self._table = np.repeat(np.hstack([c for c, _ in columns]), m - 1, axis=0)
        self._base = np.hstack([np.broadcast_to(b, (r, c.shape[1])) for c, b in columns])
        self._mask = np.empty((r, n * (m - 1)), dtype=np.intp)
        self._mask_by_user = self._mask.reshape(r, n, m - 1)
        self._cdf = np.empty((r, n, m))
        self._cdf_inner = self._cdf[..., :-1]
        self._index = np.empty(self._base.shape, dtype=np.intp)
        cuts = np.cumsum([c.shape[1] for c, _ in columns])[:-1]
        (self._actions, self._offsets, self._q_cells, self._estimate_cells, self._estimate_rows,
         self._leader_row, self._follower_rows) = np.split(self._index, cuts, axis=1)
        self._leader_row = self._leader_row[:, 0]
        self._follower_cells = self._q_cells[:, 1:]

        # fixed buffers and views for the step's gathers and products
        self._u_rows = u_norm.reshape(-1, m ** (n - 1))
        self._realized = np.empty((r, n))
        self._realized_followers = self._realized[:, 1:]
        self._targets = self._realized if algorithm == NONCOOP else np.empty((r, n))
        self._follower_targets = self._targets[:, 1:, None, None]
        self._u0 = np.zeros((r, m ** (n - 1))) if n > 1 else self._targets[:, :1]
        self._u_hat_rows = self.u_hat_batch.reshape(-1, m)
        self._estimates = np.empty((r, k, m))
        self._estimates_by_row = self._estimates.reshape(r, k, 1, m)
        self._follower_blocks = np.empty((r, k, m ** (n - 1)))
        self._follower_blocks_by_leader = self._follower_blocks.reshape(r, k, m, beliefs)
        self._scratch = np.empty((r, n, m))
        # the leader chain bound to ``_u0`` and the strategies, and the
        # leader's strategy as rla1's and rla2's follower products read it
        self._leader_chain = []
        plan = _chain_plan((r,), (), range(1, n), m)
        _expect(self._u0, self.strategy_batch, plan, self._targets[:, :1, None], self._leader_chain)
        self._y0_column = self.strategy_batch[:, None, 0, :, None]
        self._y0_row = self.strategy_batch[:, None, None, 0]
        self.t = 0

    @property
    def strategies(self) -> np.ndarray:
        """A copy of the current (R, n, M) strategies."""
        return self.strategy_batch.copy()

    @property
    def q(self) -> np.ndarray:
        """A copy of the current (R, n, M) Q-values."""
        return self.q_batch.copy()

    @property
    def estimates(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the follower estimate cells and their visit counts,
        each (R, n-1, M, M): own action by leader action.  rla1 and rla2 at
        belief factor 0 fill them; for noncoop and for rla2 followers that
        conjecture they stay zero."""
        return self.u_hat_batch.copy(), self.count_batch.copy()

    @property
    def beliefs(self) -> np.ndarray:
        """A copy of the (R, n-1, M^(n-2)) rla2 beliefs over the other
        followers' joint actions, in user order; they stay uniform unless
        the followers conjecture."""
        return self.belief_batch.copy()

    def _draw(self, steps: int) -> np.ndarray:
        """Uniforms for ``steps`` steps, shaped (steps, R, n, 1)."""
        n = self.num_users
        return np.stack([g.random((steps, n)) for g in self.rngs], axis=1)[..., None]

    def _update(self) -> None:
        """Realize utilities, update estimators and Q-values, then regenerate
        every strategy from the new Q-values, all at the indices ``step``
        put in ``_index``."""
        # the indices are in range by construction; "raise" would make each
        # gather into a fixed buffer copy through a second one
        self._u_norm_flat.take(self._offsets, None, self._realized, "clip")
        if self.algorithm != NONCOOP:
            self._u_rows.take(self._leader_row, 0, self._u0, "clip")
            for operand, column, out in self._leader_chain:
                np.matmul(operand, column, out)
            # a leader-only game runs this on empty (R, 0) follower axes
            if self._conjecture:
                followers = self._follower_cells
                change = self.strategy_batch.take(followers) - self._previous.take(followers)
                np.copyto(self._previous, self.strategy_batch)
                self._belief_targets(change)
            else:
                cells = self._estimate_cells
                visits = self.count_batch.take(cells)
                visits += 1
                old = self.u_hat_batch.take(cells)
                self.u_hat_batch.put(cells, old + (self._realized_followers - old) / visits)
                self.count_batch.put(cells, visits)
                self._u_hat_rows.take(self._estimate_rows, 0, self._estimates, "clip")
                np.matmul(self._estimates_by_row, self._y0_column, self._follower_targets)

        q_cells = self._q_cells
        old = self.q_batch.take(q_cells)
        self.q_batch.put(q_cells, old + self.settings.alpha * (self._targets - old))

        self.temperature *= self.settings.temperature_decay
        _softmax_rows(self.q_batch, self.temperature, self.strategy_batch, self._scratch)
        self.t += 1

    def _belief_targets(self, change: np.ndarray) -> None:
        """``conjecture_adjust`` every follower's belief by its (R, n-1)
        strategy ``change`` at its own action, then write
        ``rla2_estimated_expected_utility`` of those actions to the
        followers' targets."""
        shift = self.settings.belief_factor * change
        clipped = (self.belief_batch - shift[..., None]).clip(0.0, 1.0)
        total = np.add.reduce(clipped, axis=-1, keepdims=True)
        if not total.all():  # clipped entries are >= 0, so this is total <= 0
            empty = total[..., 0] <= 0
            clipped[empty] = 1.0 / clipped.shape[-1]
            total[empty] = 1.0
        self.belief_batch = clipped / total
        self._u_rows.take(self._follower_rows, 0, self._follower_blocks, "clip")
        blocks = self._follower_blocks_by_leader
        over_leader = np.matmul(blocks, self.belief_batch[..., None])  # (R, n-1, M, 1)
        np.matmul(self._y0_row, over_leader, self._follower_targets)

    def step(self) -> np.ndarray:
        """One iteration.  Returns a new (R, n) array of the actions it
        sampled (``sample_action`` for every replicate and user).  The
        unchecked primitive: unlike ``run``, it skips the temperature floor."""
        if self._next_uniform == len(self._uniforms):
            self._uniforms, self._next_uniform = self._draw(1), 0
        u = self._uniforms[self._next_uniform]
        self._next_uniform += 1
        np.add.accumulate(self.strategy_batch, -1, None, self._cdf)  # ``cumsum``
        np.less_equal(self._cdf_inner, u, self._mask_by_user)
        self._mask.dot(self._table, self._index)
        self._index += self._base
        self._update()
        return self._actions.copy()

    def run(self, num_steps: int, log_every: int = 1) -> list[tuple]:
        """Run ``num_steps`` iterations, keeping every ``log_every``-th step
        plus the final one.  Returns one ``(steps, actions, strategies)``
        tuple per replicate: the kept steps' (K,) engine step indices, (K, n)
        sampled actions and (K, n, M) strategies sampled from (before the
        step's update).  ``read_trace(game, *kept)`` reads them in physical
        units; the engine itself reads no physical stack.  Before the first
        step, ``LearnerSettings`` checks ``num_steps`` from the engine's
        current temperature (a ``ValueError``), so a run in several chunks
        meets the same temperature floor as one run.  Kept steps that numpy
        cannot hold in one array are a ``ConfigError`` on
        ``learning.num_steps``, also raised before the first step."""
        replace(self.settings, temperature=self.temperature, num_steps=num_steps)
        if log_every < 1:
            raise ValueError("log_every must be >= 1")
        with sized_by("learning.num_steps", f"the kept steps of {num_steps}"):
            # every log_every-th step and the last one; ``np.arange`` would
            # return no steps, not an error, for a stop near 2^63
            every = range(0, num_steps + log_every - 1, log_every)
            kept = np.fromiter(every, np.int64, len(every)).clip(max=num_steps - 1)
            actions = np.empty(kept.shape + (self.num_replicates, self.num_users), dtype=np.intp)
            strategies = np.empty(kept.shape + self.strategy_batch.shape)
        steps, k = kept + self.t, 0
        for start in range(0, num_steps, self.DRAW_BLOCK):
            # ``step`` has used up its draws, so the stream stays in order
            self._uniforms = self._draw(min(self.DRAW_BLOCK, num_steps - start))
            self._next_uniform = 0
            for t in range(start, start + len(self._uniforms)):
                if t == kept[k]:
                    strategies[k] = self.strategy_batch
                    actions[k] = self.step()
                    k += 1
                else:
                    self.step()
        return [(steps, actions[:, r], strategies[:, r]) for r in range(self.num_replicates)]


def read_trace(
    game: GameInstance, steps: np.ndarray, actions: np.ndarray, strategies: np.ndarray
) -> Trace:
    """Replicate r's ``Trace`` (its game is ``engine.games[engine.points[r]]``)
    from the kept steps ``run`` returns for it, (K, n) ``actions`` and
    (K, n, M) ``strategies``, in physical units: ``sinr`` and ``utility`` on the
    sampled powers, with their stack entries' bits, and the expected
    utilities, ``_expected_rows`` of the utility stack read in place."""
    powers_w = np.array(game.action_set.levels_w)[actions.T]  # (n, K)
    users = range(game.num_users)
    powers_dbm = np.array([watt_to_dbm(w) for w in game.action_set.levels_w])
    return Trace(steps, actions, powers_dbm[actions],
                 np.stack([sinr(i, powers_w, game) for i in users], axis=1),
                 np.stack([utility(i, powers_w, game) for i in users], axis=1),
                 _expected_rows(utility_tensor(game), strategies), strategies)


def _point_stack(stacks: list[np.ndarray]) -> np.ndarray:
    """P games' read-only (n, *dims) stacks of one tensor kind as one
    read-only (P, n, *dims) array: a view of the one game's stack, or a
    copy of several."""
    if len(stacks) == 1:
        return stacks[0][None]
    out = np.stack(stacks)
    out.setflags(write=False)
    return out


def _softmax_rows(q: np.ndarray, temperature: float, out=None, scratch=None) -> np.ndarray:
    """The Boltzmann strategy of each row of Q-values along the last axis at
    ``temperature``: an overflow-safe softmax, the package's one.  ``out``
    and ``scratch``, arrays of ``q``'s shape, receive the strategies and
    the intermediate values when given; new arrays do otherwise."""
    z = np.divide(q, temperature, scratch)
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, z)
    return np.divide(z, np.add.reduce(z, axis=-1, keepdims=True), out)
