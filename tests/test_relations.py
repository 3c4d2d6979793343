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
"""

import math

import numpy as np
import pytest

import stackelearn as sl
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
