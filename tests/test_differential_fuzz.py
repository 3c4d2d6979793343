"""Differential fuzz: the package's batched kernels against the scalar
reference semantics of ``tests/reference.py`` on random games.

Each example draws one or two games of equal ``action_dims`` from
``conftest.random_game`` (1 to 5 users, 2 to 5 power levels, at most 3,125
joint profiles), learner settings (the temperature decaying and not, the
belief factor zero and not), a replicate batch over those games and a
schedule of ``step`` and ``run(log_every)`` calls.  It checks, bit for bit:

* every replicate of one ``StackelbergLearning`` batch against its own
  ``ReferenceLearner``: the actions, the kept steps and their expected
  utilities, and the Q-values, strategies, estimates and beliefs after
  every call;
* each kept step's SINRs and realized utilities against the game's SINR
  and utility stacks at the sampled profile;
* ``stackelberg_oracle`` against the scalar ``follower_pure_nash``;
* the strategy field against ``per_user_strategy_derivative``;
* ``full_expected_utility`` against ``blocked_expected_utility``.

The fixed-game tests hold 1, 3, 4 and 6 users at 3 or 4 levels and one set
of settings; this covers 2 and 5 users, 2 and 5 levels, and the settings
around them.  The examples are derandomized, so every run checks the same
cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import stackelearn as sl
from stackelearn.dynamics import FieldTensors, strategy_derivative
from stackelearn.game import (
    normalized_utility_tensors,
    sinr_tensor,
    stackelberg_oracle,
    utility,
    utility_tensor,
)
from stackelearn.learning import ALGORITHMS, StackelbergLearning, read_trace

from conftest import raised_targets, random_game
from reference import (
    ReferenceLearner,
    blocked_expected_utility,
    follower_pure_nash,
    full_expected_utility,
    per_user_strategy_derivative,
)

SEEDS = st.integers(0, 2**32 - 1)

LEARNER_SETTINGS = st.builds(
    sl.LearnerSettings,
    alpha=st.floats(0.01, 0.5),
    temperature=st.floats(0.02, 1.0),
    temperature_decay=st.floats(0.99, 0.9999) | st.just(1.0),
    belief_factor=st.floats(0.01, 50.0) | st.just(0.0),
)

# (0, 0) is one ``step``; (steps, log_every) one ``run``
SCHEDULE = st.lists(
    st.just((0, 0)) | st.tuples(st.integers(1, 120), st.integers(1, 40)), min_size=1, max_size=4
)


def _bytes(arrays):
    return [np.ascontiguousarray(a).tobytes() for a in arrays]


def _check_engine(games, algorithm, learner_settings, batch, schedule):
    engine = StackelbergLearning(
        [games[g] for g, _ in batch], algorithm,
        [np.random.default_rng(s) for _, s in batch], learner_settings,
    )
    refs = [
        ReferenceLearner(games[g], algorithm, np.random.default_rng(s), learner_settings)
        for g, s in batch
    ]
    for chunk, log_every in schedule:
        if chunk == 0:
            assert engine.step().tolist() == [list(ref.step()) for ref in refs]
        else:
            start = engine.t
            runs = engine.run(chunk, log_every=log_every)
            for kept, (g, _), ref in zip(runs, batch, refs):
                trace = read_trace(games[g], *kept)
                rows = []
                for t in range(chunk):
                    expected = ref.expected_utilities()
                    actions = ref.step()
                    if t % log_every == 0 or t == chunk - 1:
                        rows.append((start + t, actions, expected))
                assert trace.steps.tolist() == [t for t, _, _ in rows]
                assert [tuple(a) for a in trace.actions.tolist()] == [a for _, a, _ in rows]
                assert [tuple(e) for e in trace.expected_utilities.tolist()] == [e for _, _, e in rows]
                # the sampled profiles' entries of the game's stacks
                profiles = tuple(trace.actions.T)
                for i in range(games[g].num_users):
                    assert trace.sinr_lin[:, i].tobytes() == sinr_tensor(games[g])[i][profiles].tobytes()
                    assert trace.utilities[:, i].tobytes() == utility_tensor(games[g])[i][profiles].tobytes()
        u_hat, counts = engine.estimates
        for r, ref in enumerate(refs):
            assert _bytes(engine.q[r]) == _bytes(ref.q)
            assert _bytes(engine.strategies[r]) == _bytes(ref.y)
            assert _bytes(u_hat[r]) == _bytes(e.u_hat for e in ref.estimates)
            assert _bytes(counts[r]) == _bytes(e.counts for e in ref.estimates)
            assert _bytes(engine.beliefs[r]) == _bytes(ref.beliefs)


def _check_oracle(game):
    se = stackelberg_oracle(game)
    profile = (se.leader_action_index,) + se.follower_action_indices
    assert se.utilities == tuple(
        utility(i, game.powers_from_indices(profile), game) for i in range(game.num_users)
    )
    responses = [follower_pure_nash(a0, game) for a0 in range(len(game.action_set))]
    assert se.is_pure_se == all(responses)
    if se.is_pure_se:
        # the leader's best follower NE at each of its actions, first maximum
        # in lexicographic order, then the first best leader action
        def leader_utility(p):
            return utility(0, game.powers_from_indices(p), game)

        best = [max(((a0,) + ne for ne in nes), key=leader_utility) for a0, nes in enumerate(responses)]
        assert profile == max(best, key=leader_utility)


def _check_field_and_expectation(game, learner_settings, rng):
    ys = rng.dirichlet(np.ones(len(game.action_set)), size=game.num_users)
    rows = normalized_utility_tensors(game)
    alpha, temperature = learner_settings.alpha, learner_settings.temperature
    derivs = strategy_derivative(ys, FieldTensors(rows), alpha, temperature)
    assert derivs.tobytes() == per_user_strategy_derivative(ys, rows, alpha, temperature).tobytes()
    for i in range(game.num_users):
        tensor = utility_tensor(game)[i]
        assert full_expected_utility(tensor, ys).hex() == blocked_expected_utility(tensor, ys).hex()
    # the leader target: one leader action's block against the followers
    block = utility_tensor(game)[0][-1]
    assert full_expected_utility(block, ys[1:]).hex() == blocked_expected_utility(block, ys[1:]).hex()


@st.composite
def cases(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2, 5))
    games = [
        raised_targets(random_game(np.random.default_rng(s), n, m), factor)
        for s, factor in draw(st.lists(st.tuples(SEEDS, st.sampled_from([1.0, 1e2, 1e4])), min_size=1, max_size=2))
    ]
    batch = draw(st.lists(st.tuples(st.integers(0, len(games) - 1), SEEDS), min_size=1, max_size=3))
    return games, batch


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(
    case=cases(),
    algorithm=st.sampled_from(ALGORITHMS),
    learner_settings=LEARNER_SETTINGS,
    schedule=SCHEDULE,
    seed=SEEDS,
)
def test_kernels_match_scalar_reference_on_random_games(case, algorithm, learner_settings, schedule, seed):
    games, batch = case
    _check_engine(games, algorithm, learner_settings, batch, schedule)
    rng = np.random.default_rng(seed)
    for game in games:
        _check_oracle(game)
        _check_field_and_expectation(game, learner_settings, rng)
