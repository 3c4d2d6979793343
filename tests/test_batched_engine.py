"""The lockstep replicate batch against a scalar reference learner.

``ReferenceLearner`` (``tests/reference.py``) advances one replicate with the
scalar helpers only.
Every replicate of a batched ``StackelbergLearning`` must match its own
reference run bit for bit: Q-values, strategies, estimate cells, beliefs,
and the actions and expected utilities of every kept trace row.
A batch over several games (the points of a sweep) must match one-replicate
engines, each on its own game and generator.
"""

import dataclasses

import numpy as np
import pytest

import stackelearn as sl
from stackelearn.game import utility_tensor
from stackelearn.learning import (
    NONCOOP,
    RLA1,
    RLA2,
    StackelbergLearning,
    _chain_plan,
    _expect,
    _expected_rows,
    read_trace,
)

from conftest import random_game
from reference import ReferenceLearner, blocked_expected_utility, full_expected_utility

SEEDS = (11, 12, 13)


def _bytes(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _assert_bitwise(engine, refs):
    u_hat, counts = engine.estimates
    for r, ref in enumerate(refs):
        assert _bytes(engine.q[r]) == _bytes(ref.q)
        assert _bytes(engine.strategies[r]) == _bytes(ref.y)
        assert _bytes(u_hat[r]) == _bytes(e.u_hat for e in ref.estimates)
        assert _bytes(counts[r]) == _bytes(e.counts for e in ref.estimates)
        assert _bytes(engine.beliefs[r]) == _bytes(ref.beliefs)


GAMES = {
    "default": lambda desk_game: desk_game,
    "leader_only": lambda _: random_game(np.random.default_rng(21), num_users=1),
    "five_femtocells": lambda _: random_game(np.random.default_rng(22), num_users=6, num_actions=4),
    # one power level: the sampling mask has no columns and every action is 0
    "one_level": lambda _: random_game(np.random.default_rng(24), 3, num_actions=1),
}


# rla2 conjectures at belief factor 2.5 and runs the rla1 update at 0
SCHEMES = [
    pytest.param(RLA1, 2.5, id=RLA1),
    pytest.param(RLA2, 2.5, id=RLA2),
    pytest.param(RLA2, 0.0, id="rla2_delta0"),
    pytest.param(NONCOOP, 2.5, id=NONCOOP),
]


@pytest.mark.parametrize(("algorithm", "belief_factor"), SCHEMES)
@pytest.mark.parametrize("game_name", sorted(GAMES))
def test_batch_matches_reference_bitwise(desk_game, algorithm, belief_factor, game_name):
    game = GAMES[game_name](desk_game)
    settings = sl.LearnerSettings(
        temperature=0.08, temperature_decay=0.9995, belief_factor=belief_factor
    )
    engine = StackelbergLearning(
        [game] * len(SEEDS), algorithm, [np.random.default_rng(s) for s in SEEDS], settings
    )
    refs = [ReferenceLearner(game, algorithm, np.random.default_rng(s), settings) for s in SEEDS]
    # interleave single steps (chunk 0) with traced runs of one step and
    # decimated runs, including one that spans more than one block of uniforms
    for chunk, log_every in ((1, 1), (37, 5), (0, None), (1, 1), (1100, 7), (2, 1), (5, 5)):
        if chunk == 0:
            actions = engine.step()
            assert actions.tolist() == [list(ref.step()) for ref in refs]
        else:
            start = engine.t
            runs = engine.run(chunk, log_every=log_every)
            assert len(runs) == len(SEEDS)
            rows = [[] for _ in refs]
            for t in range(chunk):
                kept = t % log_every == 0 or t == chunk - 1
                for ref, ref_rows in zip(refs, rows):
                    expected = ref.expected_utilities() if kept else None
                    actions = ref.step()
                    if kept:
                        ref_rows.append((start + t, actions, expected))
            for kept, ref_rows in zip(runs, rows):
                trace = read_trace(game, *kept)
                assert trace.steps.tolist() == [t for t, _, _ in ref_rows]
                assert [tuple(a) for a in trace.actions.tolist()] == [a for _, a, _ in ref_rows]
                assert [tuple(e) for e in trace.expected_utilities.tolist()] == [
                    e for _, _, e in ref_rows
                ]
        _assert_bitwise(engine, refs)
    # the replicates took different paths, where a grid gives more than one
    if len(game.action_set) > 1:
        assert len({engine.strategy_batch[r].tobytes() for r in range(len(SEEDS))}) == len(SEEDS)


@pytest.mark.parametrize("game_name", ["default", "five_femtocells"])
def test_rla2_from_non_uniform_beliefs_matches_reference_bitwise(desk_game, game_name):
    # beliefs that start uniform stay uniform, so a follower block read with
    # its axes out of order would show only in the last bits of the sums;
    # against random beliefs it changes the targets.  A small belief factor
    # keeps every belief from being clipped back to uniform.
    game = GAMES[game_name](desk_game)
    settings = sl.LearnerSettings(temperature=0.08, temperature_decay=0.9995, belief_factor=0.01)
    engine = StackelbergLearning(
        [game] * len(SEEDS), RLA2, [np.random.default_rng(s) for s in SEEDS], settings
    )
    refs = [ReferenceLearner(game, RLA2, np.random.default_rng(s), settings) for s in SEEDS]
    shape = engine.belief_batch.shape
    beliefs = np.random.default_rng(23).dirichlet(np.ones(shape[-1]), size=shape[:-1])
    engine.belief_batch = beliefs.copy()
    for ref, rows in zip(refs, beliefs):
        ref.beliefs = [row.reshape(b.shape) for row, b in zip(rows, ref.beliefs)]
    for _ in range(300):
        assert engine.step().tolist() == [list(ref.step()) for ref in refs]
    _assert_bitwise(engine, refs)
    assert np.abs(engine.belief_batch - 1.0 / shape[-1]).max(axis=-1).min() > 1e-3


def test_single_generator_matches_one_replicate_of_a_batch(desk_game):
    settings = sl.LearnerSettings()
    single = StackelbergLearning([desk_game], RLA2, [np.random.default_rng(SEEDS[1])], settings)
    batch = StackelbergLearning(
        [desk_game] * len(SEEDS), RLA2, [np.random.default_rng(s) for s in SEEDS], settings
    )
    (kept,) = single.run(300, log_every=7)
    trace = read_trace(desk_game, *kept)
    batch_trace = read_trace(desk_game, *batch.run(300, log_every=7)[1])
    assert trace.actions.tolist() == batch_trace.actions.tolist()
    assert trace.expected_utilities.tolist() == batch_trace.expected_utilities.tolist()
    assert _bytes(single.q[0]) == _bytes(batch.q[1])
    assert _bytes(single.strategies[0]) == _bytes(batch.strategies[1])


@pytest.mark.parametrize("algorithm", [RLA1, RLA2, NONCOOP])
def test_interleaved_engines_match_solo_runs(desk_game, algorithm):
    # an engine's buffers are its own: stepping two engines by turns gives
    # each the bits of a run on its own, and no step overwrites the actions
    # an earlier one returned
    five = GAMES["five_femtocells"](desk_game)
    settings = sl.LearnerSettings(temperature=0.08, temperature_decay=0.9995, belief_factor=2.5)
    setups = [([desk_game] * 2, (5, 6)), ([desk_game], (7,)), ([five] * 2, (8, 9))]

    def engines():
        return [
            StackelbergLearning(games, algorithm, [np.random.default_rng(s) for s in seeds], settings)
            for games, seeds in setups
        ]

    together, alone = engines(), engines()
    # each engine's returned arrays, and copies taken as they were returned
    returned, copies = [[] for _ in together], [[] for _ in together]
    for t in range(400):
        for engine, steps, kept in zip(together, returned, copies):
            if t == 200:
                steps.extend(actions for _, actions, _ in engine.run(3))
            steps.append(engine.step())
            kept.append(steps[-1].copy())
    for engine, steps, kept in zip(alone, returned, copies):
        expected = [engine.step().copy() for _ in range(200)]
        expected += [actions for _, actions, _ in engine.run(3)]
        expected += [engine.step().copy() for _ in range(200)]
        assert _bytes(steps) == _bytes(expected)
        assert _bytes(kept[:200] + kept[-200:]) == _bytes(expected[:200] + expected[-200:])
    for a, b in zip(together, alone):
        assert _bytes((a.q, a.strategies, *a.estimates, a.beliefs)) == _bytes(
            (b.q, b.strategies, *b.estimates, b.beliefs)
        )


def test_batch_rejects_empty_generator_list(desk_game):
    with pytest.raises(ValueError):
        StackelbergLearning([], RLA1, [], sl.LearnerSettings())


def _relevel(game, low_dbm):
    """The game with its power grid respaced from ``low_dbm`` to 30 dBm."""
    levels = np.linspace(low_dbm, 30.0, len(game.action_set))
    return dataclasses.replace(game, action_set=sl.ActionSet.from_dbm(tuple(levels)))


def _trace_fields(trace):
    return _bytes((
        trace.steps, trace.actions, trace.powers_dbm, trace.sinr_lin,
        trace.utilities, trace.expected_utilities, trace.strategies,
    ))


# "uniform": every game has one power grid
@pytest.mark.parametrize("algorithm", [RLA1, RLA2, NONCOOP], ids=lambda a: f"uniform-{a}")
def test_mixed_point_batch_matches_single_point_runs(algorithm):
    a = random_game(np.random.default_rng(31), num_users=4)
    b = random_game(np.random.default_rng(32), num_users=4)
    games = [a, b, a, _relevel(b, 14.0), b]
    # a sweep reuses replicate r's stream at every point
    seeds = [40, 40, 41, 40, 41]
    settings = sl.LearnerSettings(temperature=0.08, temperature_decay=0.9995, belief_factor=2.5)
    engine = StackelbergLearning(games, algorithm, [np.random.default_rng(s) for s in seeds], settings)
    singles = [
        StackelbergLearning([g], algorithm, [np.random.default_rng(s)], settings)
        for g, s in zip(games, seeds)
    ]
    assert len(engine.games) == 3
    assert engine.points.tolist() == [0, 1, 0, 2, 1]
    for chunk in (1, 37, 0, 1, 1100, 1):
        if chunk == 0:
            assert engine.step().tolist() == [single.step()[0].tolist() for single in singles]
        else:
            runs = engine.run(chunk, log_every=max(1, chunk // 3))
            assert [
                _trace_fields(read_trace(engine.games[p], *kept))
                for kept, p in zip(runs, engine.points)
            ] == [
                _trace_fields(read_trace(g, *single.run(chunk, log_every=max(1, chunk // 3))[0]))
                for g, single in zip(games, singles)
            ]
        for r, single in enumerate(singles):
            assert _bytes(engine.q[r]) == _bytes(single.q[0])
            assert _bytes(engine.strategies[r]) == _bytes(single.strategies[0])
            assert _bytes(engine.beliefs[r]) == _bytes(single.beliefs[0])
            assert _bytes(engine.estimates[0][r]) == _bytes(single.estimates[0][0])
    # one stream on three games took three paths
    assert len({engine.strategy_batch[r].tobytes() for r in (0, 1, 3)}) == 3


def test_batch_rejects_unequal_action_dims(desk_game):
    rng = np.random.default_rng(21)
    # fewer users, then as many users with four power levels
    for other in (random_game(rng, num_users=2), random_game(rng, num_users=3, num_actions=4)):
        with pytest.raises(ValueError, match="action_dims"):
            StackelbergLearning(
                [desk_game, other], RLA1, [np.random.default_rng(s) for s in (1, 2)],
                sl.LearnerSettings(),
            )


def test_batch_rejects_one_game_per_generator_mismatch(desk_game):
    with pytest.raises(ValueError, match="one game per replicate"):
        StackelbergLearning(
            [desk_game], RLA1, [np.random.default_rng(s) for s in (1, 2)], sl.LearnerSettings()
        )


@pytest.mark.parametrize("m", [3, 4, 5, 7])
@pytest.mark.parametrize("n", range(1, 7))
def test_flat_chain_matches_blocked_reference_bitwise(n, m):
    # each flat row's products must have the bits of the blocked ``out @ s`` chain
    rng = np.random.default_rng(100 * n + m)
    steps, replicates = 7, 2
    scales = 10.0 ** rng.integers(-3, 4, (n,) + (1,) * n)  # each user's own magnitude
    tensors = rng.random((replicates, n) + (m,) * n) * scales
    y = rng.dirichlet(np.ones(m), size=(steps, replicates, n))

    # trace and sweep rows: every user's tensor under each of the 7 profiles,
    # the stack read in place; at n = m = 3 the profiles go in blocks of 3
    for r in range(replicates):
        got = _expected_rows(tensors[r], y[:, r])
        want = [
            [blocked_expected_utility(tensors[r, i], y[k, r]) for i in range(n)] for k in range(steps)
        ]
        assert got.tobytes() == np.array(want).tobytes()

    # leader targets: one leader action's block per replicate, followers' strategies
    blocks = tensors[:, 0, -1]
    for batch in (replicates, 1):
        got = _expect(blocks[:batch], y[0, :batch], _chain_plan((batch,), (), range(1, n), m))
        want = [blocked_expected_utility(blocks[r], y[0, r, 1:]) for r in range(batch)]
        assert got.tobytes() == np.array(want).tobytes()

    # the public single-profile form
    for r in range(replicates):
        got = full_expected_utility(tensors[r, 0], y[0, r])
        assert got.hex() == blocked_expected_utility(tensors[r, 0], y[0, r]).hex()
