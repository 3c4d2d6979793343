"""Exact power-of-two relations of the game, its oracle and its learners.

Scaling a game's quantities by powers of two changes no rounding, so these
relations hold bit for bit:

* powers, circuit power and noise x 2^k: every SINR keeps its bits, and
  every utility (rate over consumed watts) is x 2^-k;
* gains and noise x 2^k: every SINR and utility keeps its bits;
* bandwidth x 2^k: every SINR keeps its bits, and every utility is x 2^k.

Each user's normalized utilities are its utilities over its own maximum,
so they keep their bits under all three, and so do the oracle's profile
and everything the learners do: they learn on the normalized stack alone.
The traces read the physical stacks after the run (``read_trace``), so
their SINRs keep their bits and their realized and expected utilities
scale exactly with the utility stack.

A normalization by a fixed scale, a learner that reads physical utilities,
or a noise term that does not scale with the powers breaks these
relations.

Relabeling the two followers of a 3-user game permutes its SINR and utility
stacks exactly: each interference sum there has two terms, and two terms
add to the same bits in either order.  So a tie-free oracle profile
permutes too.  The strategy field and the learners are not relabeled here:
``learning._expect`` contracts the other users in index order, and 50 RK4
steps from the uniform profile, at the learners' default rate and
temperature, differed in their last bits on 5 of the 11 games below.
"""

import math

import numpy as np
import pytest

import stackelearn as sl
from stackelearn.dynamics import FieldTensors, integrate_dynamics
from stackelearn.game import (
    ActionSet,
    GameInstance,
    UserParams,
    normalized_utility_tensors,
    sinr_tensor,
    stackelberg_oracle,
    utility_tensor,
)
from stackelearn.learning import ALGORITHMS, StackelbergLearning, read_trace

STEPS = 300
RK4_STEPS = 50

# (k_pow, k_gain, k_bw): powers and circuit power x 2^k_pow, gains x
# 2^k_gain, bandwidth x 2^k_bw, noise x 2^(k_pow + k_gain)
RESCALINGS = [
    pytest.param(3, 0, 0, id="powers-x2^3"),
    pytest.param(-7, 0, 0, id="powers-x2^-7"),
    pytest.param(0, 5, 0, id="gains-x2^5"),
    pytest.param(0, -9, 0, id="gains-x2^-9"),
    pytest.param(0, 0, 4, id="bandwidth-x2^4"),
    pytest.param(-7, 5, 4, id="all"),
]


@pytest.fixture(scope="module", params=["default", "six_users"])
def game(request):
    """The default game, or 5 femtocells on {14, ..., 30} dBm at a -20 dB
    leader target (6 users, every femtocell active)."""
    if request.param == "default":
        cfg = sl.default_config()
    else:
        cfg = sl.default_config(
            network={"num_femtocells": 5},
            users={"action_set_dbm": [14.0, 18.0, 22.0, 26.0, 30.0], "mu_sinr_target_db": -20.0},
        )
    prepared = sl.build_game(cfg)
    assert all(prepared.active)
    return prepared.game


def _rescaled(game: GameInstance, k_pow: int, k_gain: int, k_bw: int) -> GameInstance:
    return GameInstance(
        gains=np.ldexp(game.gains, k_gain),
        users=tuple(
            UserParams(u.sinr_target_lin, math.ldexp(u.circuit_power_w, k_pow)) for u in game.users
        ),
        action_set=ActionSet(tuple(math.ldexp(p, k_pow) for p in game.action_set.levels_w)),
        bandwidth_hz=math.ldexp(game.bandwidth_hz, k_bw),
        noise_power_w=math.ldexp(game.noise_power_w, k_pow + k_gain),
    )


def _scaled_bytes(values: np.ndarray, k: int) -> bytes:
    return np.ascontiguousarray(np.ldexp(values, k)).tobytes()


@pytest.mark.parametrize(("k_pow", "k_gain", "k_bw"), RESCALINGS)
def test_power_of_two_rescaling_is_exact(game, k_pow, k_gain, k_bw):
    scaled = _rescaled(game, k_pow, k_gain, k_bw)
    k = k_bw - k_pow  # the utilities' exponent

    assert sinr_tensor(scaled).tobytes() == sinr_tensor(game).tobytes()
    assert normalized_utility_tensors(scaled).tobytes() == normalized_utility_tensors(game).tobytes()
    assert utility_tensor(scaled).tobytes() == _scaled_bytes(utility_tensor(game), k)
    # the utilities are nonzero somewhere, so the relation is not 0 == 0
    assert utility_tensor(game).any()

    ours, theirs = stackelberg_oracle(scaled), stackelberg_oracle(game)
    assert ours.leader_action_index == theirs.leader_action_index
    assert ours.follower_action_indices == theirs.follower_action_indices
    assert ours.is_pure_se == theirs.is_pure_se
    assert ours.utilities == tuple(math.ldexp(u, k) for u in theirs.utilities)

    settings = sl.LearnerSettings()
    for seed, algorithm in enumerate(ALGORITHMS):
        traces, states = [], []
        for g in (game, scaled):
            engine = StackelbergLearning([g], algorithm, [np.random.default_rng(seed)], settings)
            (kept,) = engine.run(STEPS)
            traces.append(read_trace(g, *kept))
            states.append([a.tobytes() for a in (engine.q, *engine.estimates, engine.beliefs)])
        base, trace = traces
        # Q-values, estimates and beliefs: a softmax at a low temperature can
        # saturate to the same strategies from Q-values of another scale
        assert states[1] == states[0], algorithm
        assert trace.actions.tobytes() == base.actions.tobytes(), algorithm
        assert trace.strategies.tobytes() == base.strategies.tobytes(), algorithm
        assert trace.sinr_lin.tobytes() == base.sinr_lin.tobytes(), algorithm
        assert trace.utilities.tobytes() == _scaled_bytes(base.utilities, k), algorithm
        assert trace.expected_utilities.tobytes() == _scaled_bytes(
            base.expected_utilities, k
        ), algorithm
        # the learners moved off the uniform start
        assert len({row.tobytes() for row in base.strategies}) > 1, algorithm


@pytest.mark.parametrize(("k_pow", "k_gain", "k_bw"), RESCALINGS)
def test_power_of_two_rescaling_keeps_rk4_bits(game, k_pow, k_gain, k_bw):
    settings = sl.LearnerSettings()
    trajectories = []
    for g in (game, _rescaled(game, k_pow, k_gain, k_bw)):
        m = len(g.action_set)
        initial = np.full((g.num_users, m), 1 / m)
        tensors = FieldTensors(normalized_utility_tensors(g))
        trajectories.append(
            integrate_dynamics(initial, tensors, settings.alpha, settings.temperature, 0.01, RK4_STEPS)
        )
    base, scaled = trajectories
    assert scaled.tobytes() == base.tobytes()
    assert base[-1].tobytes() != base[0].tobytes()  # the field moved the profile


# (topology seed, leader target in dB) of the 3-user games among seeds 0..6
# at 3 and -20 dB: at 3 dB, seeds 0, 2 and 6 lose a femtocell
THREE_USER_GAMES = [(0, -20.0), (2, -20.0), (6, -20.0)] + [
    (seed, target) for seed in (1, 3, 4, 5) for target in (3.0, -20.0)
]


def _relabeled(game: GameInstance, order: tuple[int, ...]) -> GameInstance:
    """The game whose user k is the given game's user ``order[k]``."""
    return GameInstance(
        gains=game.gains[np.ix_(order, order)],
        users=tuple(game.users[i] for i in order),
        action_set=game.action_set,
        bandwidth_hz=game.bandwidth_hz,
        noise_power_w=game.noise_power_w,
    )


@pytest.mark.parametrize(
    ("seed", "target_db"), THREE_USER_GAMES, ids=[f"seed{s}-{t:g}dB" for s, t in THREE_USER_GAMES]
)
def test_follower_relabeling_permutes_stacks_and_oracle(seed, target_db):
    prepared = sl.build_game(
        sl.default_config(network={"rng_seed": seed}, users={"mu_sinr_target_db": target_db})
    )
    game = prepared.game
    assert game.num_users == 3 and all(prepared.active)
    order = (0, 2, 1)
    swapped = _relabeled(game, order)

    for stack in (sinr_tensor, utility_tensor):
        ours, theirs = stack(swapped), stack(game)
        for k, i in enumerate(order):
            assert ours[k].tobytes() == theirs[i].transpose(order).tobytes()
    # the followers' SINRs differ, so the relation is not a symmetric game's
    assert sinr_tensor(game)[1].tobytes() != sinr_tensor(game)[2].transpose(order).tobytes()

    ours, theirs = stackelberg_oracle(swapped), stackelberg_oracle(game)
    profile = (theirs.leader_action_index, *theirs.follower_action_indices)
    assert (ours.leader_action_index, *ours.follower_action_indices) == tuple(profile[i] for i in order)
    assert ours.utilities == tuple(theirs.utilities[i] for i in order)
    assert ours.is_pure_se == theirs.is_pure_se
