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
The traces take their SINRs and realized utilities from the two formulas
on the sampled powers and their expected utilities from the utility stack
(``read_trace``), so their SINRs keep their bits and both utility columns
scale exactly with the utility stack.  So do the summary's terminal and
reference utilities, and its ratios and convergence steps keep their bits.

The relations are checked on two fixed games and on games drawn as the
differential fuzz draws them (``conftest.random_game``: 1 to 5 users, 2 to
5 levels, targets raised so that some or all utilities are 0).  The
summary is built from a ``GameInstance``, not a config: the config gives
powers in dBm and targets in dB, and 10 log10(2) is no exact float offset.

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
from hypothesis import given, settings
from hypothesis import strategies as st

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
from stackelearn.harness import (
    ExperimentResult,
    PreparedGame,
    compare_summary,
    complete_information_reference,
)
from stackelearn.learning import ALGORITHMS, StackelbergLearning, read_trace

from conftest import raised_targets, random_game

STEPS = 300
DRAWN_STEPS = 60
RK4_STEPS = 50

# (k_pow, k_gain, k_bw): powers and circuit power x 2^k_pow, gains x
# 2^k_gain, bandwidth x 2^k_bw, noise x 2^(k_pow + k_gain)
SCALES = {
    "powers-x2^3": (3, 0, 0),
    "powers-x2^-7": (-7, 0, 0),
    "gains-x2^5": (0, 5, 0),
    "gains-x2^-9": (0, -9, 0),
    "bandwidth-x2^4": (0, 0, 4),
    "all": (-7, 5, 4),
}
RESCALINGS = [pytest.param(*scale, id=name) for name, scale in SCALES.items()]


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


def _summary(game: GameInstance, traces: dict) -> list[dict]:
    """``compare_summary`` of the given traces on a game no femtocell of
    which was silenced."""
    n = game.num_users
    prepared = PreparedGame(game, (True,) * (n - 1), tuple(range(n)), unresolved=False)
    result = ExperimentResult(
        prepared, traces, stackelberg_oracle(game), complete_information_reference(game)
    )
    return compare_summary(result)


def _check_rescaling(game: GameInstance, k_pow: int, k_gain: int, k_bw: int, steps: int) -> dict:
    """Assert every relation of ``game`` rescaled by (k_pow, k_gain, k_bw)
    for the stacks, the oracle, ``steps`` steps of each scheme and their
    summary; returns the unscaled game's traces by scheme."""
    scaled = _rescaled(game, k_pow, k_gain, k_bw)
    k = k_bw - k_pow  # the utilities' exponent

    assert sinr_tensor(scaled).tobytes() == sinr_tensor(game).tobytes()
    assert normalized_utility_tensors(scaled).tobytes() == normalized_utility_tensors(game).tobytes()
    assert utility_tensor(scaled).tobytes() == _scaled_bytes(utility_tensor(game), k)

    ours, theirs = stackelberg_oracle(scaled), stackelberg_oracle(game)
    assert ours.leader_action_index == theirs.leader_action_index
    assert ours.follower_action_indices == theirs.follower_action_indices
    assert ours.is_pure_se == theirs.is_pure_se
    assert ours.utilities == tuple(math.ldexp(u, k) for u in theirs.utilities)

    settings = sl.LearnerSettings()
    runs = {}
    for seed, algorithm in enumerate(ALGORITHMS):
        traces, states = [], []
        for g in (game, scaled):
            engine = StackelbergLearning([g], algorithm, [np.random.default_rng(seed)], settings)
            (kept,) = engine.run(steps)
            traces.append(read_trace(g, *kept))
            states.append([a.tobytes() for a in (engine.q, *engine.estimates, engine.beliefs)])
        runs[algorithm] = traces
        base, trace = traces
        # Q-values, estimates and beliefs: a softmax at a low temperature can
        # saturate to the same strategies from Q-values of another scale
        assert states[1] == states[0], algorithm
        assert trace.steps.tobytes() == base.steps.tobytes(), algorithm
        assert trace.actions.tobytes() == base.actions.tobytes(), algorithm
        assert trace.strategies.tobytes() == base.strategies.tobytes(), algorithm
        assert trace.sinr_lin.tobytes() == base.sinr_lin.tobytes(), algorithm
        assert trace.utilities.tobytes() == _scaled_bytes(base.utilities, k), algorithm
        assert trace.expected_utilities.tobytes() == _scaled_bytes(
            base.expected_utilities, k
        ), algorithm

    base_rows = _summary(game, {a: base for a, (base, _) in runs.items()})
    scaled_rows = _summary(scaled, {a: trace for a, (_, trace) in runs.items()})
    for base, row in zip(base_rows, scaled_rows, strict=True):
        for column in ("terminal_expected_utility", "reference_utility"):
            assert row[column].hex() == math.ldexp(base[column], k).hex(), (row, column)
        assert row["ratio_to_reference"].hex() == base["ratio_to_reference"].hex(), row
        assert (row["algo"], row["user"], row["steps_to_10pct"]) == (
            base["algo"], base["user"], base["steps_to_10pct"]
        )
    return {algorithm: base for algorithm, (base, _) in runs.items()}


@pytest.mark.parametrize(("k_pow", "k_gain", "k_bw"), RESCALINGS)
def test_power_of_two_rescaling_is_exact(game, k_pow, k_gain, k_bw):
    traces = _check_rescaling(game, k_pow, k_gain, k_bw, STEPS)
    # the utilities are nonzero somewhere, so the relation is not 0 == 0
    assert utility_tensor(game).any()
    for algorithm, base in traces.items():
        # the learners moved off the uniform start
        assert len({row.tobytes() for row in base.strategies}) > 1, algorithm


@st.composite
def drawn_games(draw):
    """A game as the differential fuzz draws one."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(2, 5))
    seed, factor = draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([1.0, 1e2, 1e4]))
    return raised_targets(random_game(np.random.default_rng(seed), n, m), factor)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(game=drawn_games(), scale=st.sampled_from(sorted(SCALES)))
def test_power_of_two_rescaling_is_exact_on_drawn_games(game, scale):
    _check_rescaling(game, *SCALES[scale], DRAWN_STEPS)


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
