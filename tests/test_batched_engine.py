"""The lockstep replicate batch against a scalar reference learner.

``ReferenceLearner`` advances one replicate with the scalar helpers only.
Every replicate of a batched ``StackelbergLearning`` must match its own
reference run bit for bit: Q-values, strategies, estimate cells and beliefs.
"""

import numpy as np
import pytest

import stackelearn as sl
from stackelearn.game import utility_tensor
from stackelearn.learning import (
    NONCOOP,
    RLA1,
    RLA2,
    JointEstimate,
    StackelbergLearning,
    boltzmann_strategy,
    conjecture_adjust,
    full_expected_utility,
    q_update,
    rla2_estimated_expected_utility,
    sample_action,
)

from conftest import random_game

SEEDS = (11, 12, 13)


class ReferenceLearner:
    """One sequential run built from the scalar helpers."""

    def __init__(self, game, algorithm, rng, settings, belief_factors):
        self.algorithm = algorithm
        self.rng = rng
        self.settings = settings
        self.dims = game.action_dims
        n = game.num_users
        self.u_phys = [utility_tensor(game, i) for i in range(n)]
        self.u_norm = [t / (max(float(t.max()), 0.0) or 1.0) for t in self.u_phys]
        self.tau = settings.temperature
        self.deltas = belief_factors
        self.q = [np.zeros(m) for m in self.dims]
        self.y = [boltzmann_strategy(q, self.tau) for q in self.q]
        self.prev_y = [y.copy() for y in self.y]
        self.estimates = [JointEstimate(self.dims[i], self.dims[0]) for i in range(1, n)]
        self.beliefs = []
        for i in range(1, n):
            shape = tuple(m for j, m in enumerate(self.dims) if j not in (0, i))
            self.beliefs.append(np.full(shape, 1.0 / max(1, int(np.prod(shape)))))

    def expected_utilities(self):
        return tuple(full_expected_utility(t, self.y) for t in self.u_phys)

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
            target = full_expected_utility(self.u_norm[0][actions[0]], y[1:])
            self.q[0] = q_update(self.q[0], actions[0], target, alpha)
            for i in range(1, n):
                est = self.estimates[i - 1]
                est.update(actions[i], actions[0], realized[i])
                delta = self.deltas[i - 1]
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
                    target = est.estimate(actions[i], y[0])
                self.q[i] = q_update(self.q[i], actions[i], target, alpha)
        self.prev_y = y
        self.tau *= self.settings.temperature_decay
        self.y = [boltzmann_strategy(q, self.tau) for q in self.q]
        return actions


def _bytes(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _assert_bitwise(engine, refs):
    for r, ref in enumerate(refs):
        assert _bytes(engine.q[r]) == _bytes(ref.q)
        assert _bytes(engine.strategies[r]) == _bytes(ref.y)
        est = engine.estimates[r]
        assert _bytes(e.u_hat for e in est) == _bytes(e.u_hat for e in ref.estimates)
        assert _bytes(e.counts for e in est) == _bytes(e.counts for e in ref.estimates)
        assert _bytes(engine.beliefs[r]) == _bytes(ref.beliefs)


def _ragged_game(rng):
    """Leader with 4 power levels, followers with 3 and 2."""
    game = random_game(rng, num_users=3, num_actions=3)
    users = (
        sl.UserParams(game.users[0].sinr_target_lin, game.users[0].circuit_power_w,
                      sl.ActionSet.from_dbm((18.0, 22.0, 26.0, 30.0))),
        game.users[1],
        sl.UserParams(game.users[2].sinr_target_lin, game.users[2].circuit_power_w,
                      sl.ActionSet.from_dbm((20.0, 30.0))),
    )
    return sl.GameInstance(gains=np.array(game.gains), users=users,
                           bandwidth_hz=game.bandwidth_hz, noise_power_w=game.noise_power_w)


GAMES = {
    "default": lambda desk_game: desk_game,
    "leader_only": lambda _: random_game(np.random.default_rng(21), num_users=1),
    "five_femtocells": lambda _: random_game(np.random.default_rng(22), num_users=6, num_actions=4),
    "ragged": lambda _: _ragged_game(np.random.default_rng(23)),
}


@pytest.mark.parametrize("algorithm", [RLA1, RLA2, NONCOOP])
@pytest.mark.parametrize("game_name", sorted(GAMES))
def test_batch_matches_reference_bitwise(desk_game, algorithm, game_name):
    game = GAMES[game_name](desk_game)
    k = game.num_followers
    # every other follower runs with belief factor 0 (the rla1 update)
    deltas = [0.0 if j % 2 else 1.5 + j for j in range(k)]
    settings = sl.LearnerSettings(temperature=0.08, temperature_decay=0.9995)
    engine = StackelbergLearning(
        game, algorithm, [np.random.default_rng(s) for s in SEEDS],
        settings=settings, belief_factors=deltas,
    )
    refs = [
        ReferenceLearner(game, algorithm, np.random.default_rng(s), settings, deltas)
        for s in SEEDS
    ]
    # interleave single steps (0: without a record) with block runs,
    # including a run that spans more than one block of uniforms
    for chunk in (1, 37, 0, 1, 1100, 2, 5):
        if chunk == 0:
            assert engine.step(record=False) is None
            for ref in refs:
                ref.step()
        elif chunk == 1:
            records = engine.step()
            expected = [ref.expected_utilities() for ref in refs]
            actions = [ref.step() for ref in refs]
            assert [rec.actions for rec in records] == actions
            assert [rec.expected_utilities for rec in records] == expected
        else:
            runs = engine.run(chunk, log_every=chunk)
            for _ in range(chunk):
                for ref in refs:
                    ref.step()
            assert len(runs) == len(SEEDS)
        _assert_bitwise(engine, refs)
    # the replicates took different paths
    assert len({engine.strategy_batch[r].tobytes() for r in range(len(SEEDS))}) == len(SEEDS)


def test_single_generator_matches_one_replicate_of_a_batch(desk_game):
    single = StackelbergLearning(desk_game, RLA2, np.random.default_rng(SEEDS[1]))
    batch = StackelbergLearning(desk_game, RLA2, [np.random.default_rng(s) for s in SEEDS])
    records = single.run(300, log_every=7)
    batch_records = batch.run(300, log_every=7)[1]
    assert [r.actions for r in records] == [r.actions for r in batch_records]
    assert [r.expected_utilities for r in records] == [r.expected_utilities for r in batch_records]
    assert _bytes(single.q) == _bytes(batch.q[1])
    assert _bytes(single.strategies) == _bytes(batch.strategies[1])


def test_batch_rejects_empty_generator_list(desk_game):
    with pytest.raises(ValueError):
        StackelbergLearning(desk_game, RLA1, [])
