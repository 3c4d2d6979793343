import math

import numpy as np
import pytest

import stackelearn as sl
from stackelearn.config import LearningConfig
from stackelearn.game import expected_utility, normalized_utility_tensors, utility_tensor
from stackelearn.learning import (
    NONCOOP,
    RLA1,
    RLA2,
    JointEstimate,
    StackelbergLearning,
    action_expected_utilities,
    boltzmann_strategy,
    conjecture_adjust,
    full_expected_utility,
    q_update,
    rla2_estimated_expected_utility,
    sample_action,
)

from conftest import ragged_game, random_game, random_simplex


def test_boltzmann_reference_points():
    y = boltzmann_strategy(np.array([1.0, 1.0, 1.0]), 1.0)
    assert np.allclose(y, 1.0 / 3.0, rtol=1e-15)
    y = boltzmann_strategy(np.array([1.0, 0.0]), 1.0)
    e = math.e
    assert y[0] == pytest.approx(e / (e + 1.0), rel=1e-12)
    assert y[1] == pytest.approx(1.0 / (e + 1.0), rel=1e-12)


def test_boltzmann_simplex_and_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        q = rng.normal(size=rng.integers(2, 6))
        tau = float(10.0 ** rng.uniform(-3, 1))
        y = boltzmann_strategy(q, tau)
        assert np.all(y >= 0)  # extreme q/tau ratios may underflow to exact 0
        assert abs(y.sum() - 1.0) < 1e-12
        c = rng.normal()
        assert np.allclose(y, boltzmann_strategy(q + c, tau), atol=1e-12)


def test_boltzmann_low_temperature_concentrates():
    q = np.array([0.2, 0.9, 0.5])
    y = boltzmann_strategy(q, 1e-4)
    assert y[1] > 0.999


def test_boltzmann_rejects_bad_temperature():
    with pytest.raises(ValueError):
        boltzmann_strategy(np.array([1.0, 2.0]), 0.0)


def test_sample_action_frequencies():
    rng = np.random.default_rng(2)
    y = np.array([0.2, 0.5, 0.3])
    counts = np.zeros(3)
    n = 20000
    for _ in range(n):
        counts[sample_action(y, rng)] += 1
    assert np.allclose(counts / n, y, atol=0.02)


def test_sample_action_degenerate():
    rng = np.random.default_rng(3)
    y = np.array([0.0, 1.0, 0.0])
    assert all(sample_action(y, rng) == 1 for _ in range(100))


def test_q_update_hand_computed():
    q = np.array([0.0, 2.0])
    out = q_update(q, 0, 10.0, 0.5)
    assert out[0] == 5.0
    assert out[1] == 2.0
    # the input array is not mutated
    assert q[0] == 0.0
    # the noncoop scheme's target is the raw realized utility sample
    out2 = q_update(q, 1, 4.0, 0.25)
    assert out2[1] == pytest.approx(2.5)


def test_q_update_geometric_fixed_point():
    # repeated updates with a constant target converge geometrically
    q = np.zeros(1)
    target, alpha = 3.0, 0.1
    for k in range(1, 201):
        q = q_update(q, 0, target, alpha)
        assert q[0] == pytest.approx(target * (1 - (1 - alpha) ** k), rel=1e-12)
    assert abs(q[0] - target) < 1e-8


def test_q_update_rejects_bad_alpha():
    with pytest.raises(ValueError):
        q_update(np.zeros(2), 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        q_update(np.zeros(2), 0, 1.0, -0.1)


def test_joint_estimate_running_mean():
    est = JointEstimate(2, 3)
    est.update(0, 0, 4.0)
    assert est.u_hat[0, 0] == 4.0
    assert est.counts[0, 0] == 1
    est.update(0, 0, 2.0)
    assert est.u_hat[0, 0] == 3.0
    assert est.counts[0, 0] == 2
    # other cells untouched
    assert est.u_hat[1, 2] == 0.0


def test_joint_estimate_estimate_weighting():
    est = JointEstimate(2, 3)
    est.u_hat[0] = np.array([1.0, 2.0, 3.0])
    leader_y = np.array([0.5, 0.25, 0.25])
    assert est.estimate(0, leader_y) == pytest.approx(1.75)


def test_joint_estimate_converges_to_conditional_mean():
    rng = np.random.default_rng(7)
    est = JointEstimate(1, 1)
    samples = rng.normal(5.0, 2.0, size=5000)
    for s in samples:
        est.update(0, 0, float(s))
    assert est.u_hat[0, 0] == pytest.approx(samples.mean(), rel=1e-12)


def test_conjecture_adjust_hand_computed():
    b = np.array([0.25, 0.75])
    out = conjecture_adjust(b, 2.0, 0.35, 0.25)  # shift -0.2
    raw = np.array([0.05, 0.55])
    assert np.allclose(out, raw / raw.sum(), rtol=1e-12)
    # clamp at zero then renormalize
    out2 = conjecture_adjust(np.array([0.1, 0.9]), 2.0, 0.35, 0.25)
    assert out2[0] == 0.0
    assert out2[1] == 1.0


def test_conjecture_adjust_identity_and_degenerate():
    b = np.array([0.3, 0.7])
    assert np.array_equal(conjecture_adjust(b, 0.0, 0.9, 0.1), b)
    # everything clamps to zero -> uniform fallback
    out = conjecture_adjust(np.array([0.5, 0.5]), 2.0, 1.0, 0.0)
    assert np.allclose(out, 0.5)
    with pytest.raises(ValueError):
        conjecture_adjust(b, -1.0, 0.5, 0.5)


def test_conjecture_adjust_simplex_invariant():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = int(rng.integers(2, 8))
        b = random_simplex(rng, m)
        out = conjecture_adjust(b, float(rng.uniform(0, 5)), rng.random(), rng.random())
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) < 1e-9


def test_leader_expected_utility_matches_enumeration():
    rng = np.random.default_rng(9)
    for _ in range(50):
        g = random_game(rng, num_users=3, num_actions=3)
        u0 = utility_tensor(g, 0)
        follower_ys = [random_simplex(rng, m) for m in g.action_dims[1:]]
        for j0 in range(g.action_dims[0]):
            leader_y = np.zeros(g.action_dims[0])
            leader_y[j0] = 1.0
            ref = expected_utility(0, [leader_y] + follower_ys, g)
            got = full_expected_utility(u0[j0], follower_ys)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-9)


def test_action_expected_utilities_matches_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(50):
        g = random_game(rng, num_users=3, num_actions=3)
        ys = [random_simplex(rng, m) for m in g.action_dims]
        for i in range(g.num_users):
            t = utility_tensor(g, i)
            vec = action_expected_utilities(t, ys, i)
            for a in range(g.action_dims[i]):
                pure = [y.copy() for y in ys]
                pure[i] = np.zeros(g.action_dims[i])
                pure[i][a] = 1.0
                assert vec[a] == pytest.approx(
                    expected_utility(i, pure, g), rel=1e-10, abs=1e-9
                )
            # full expectation consistency
            assert full_expected_utility(t, ys) == pytest.approx(
                float(ys[i] @ vec), rel=1e-10, abs=1e-9
            )


def _tensordot_chain(tensor, strategies, user):
    """The np.tensordot chain that action_expected_utilities replays step by step."""
    out = tensor
    for j in range(len(strategies) - 1, -1, -1):
        if j == user:
            continue
        out = np.tensordot(out, strategies[j], axes=([j if j < user else out.ndim - 1], [0]))
    return out


def test_action_expected_utilities_bitwise_equals_tensordot_chain(desk_game):
    rng = np.random.default_rng(14)
    games = [
        desk_game,
        ragged_game(random_game(rng, num_users=5)),
        random_game(rng, num_users=5, num_actions=5),
        random_game(rng, num_users=6, num_actions=4),
    ]
    for g in games:
        tensors = normalized_utility_tensors(g)
        for _ in range(4):
            ys = [random_simplex(rng, m) for m in g.action_dims]
            for i, t in enumerate(tensors):
                got = action_expected_utilities(t, ys, i)
                want = _tensordot_chain(t, ys, i)
                assert got.shape == want.shape == (g.action_dims[i],)
                assert got.tobytes() == want.tobytes(), (g.action_dims, i)


def test_rla2_estimate_matches_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(50):
        g = random_game(rng, num_users=3, num_actions=3)
        i = int(rng.integers(1, g.num_users))
        t = utility_tensor(g, i)
        leader_y = random_simplex(rng, g.action_dims[0])
        other = [k for k in range(1, g.num_users) if k != i]
        belief_shape = tuple(g.action_dims[k] for k in other)
        belief = random_simplex(rng, int(np.prod(belief_shape))).reshape(belief_shape)
        for a in range(g.action_dims[i]):
            ys = [None] * g.num_users
            ys[0] = leader_y
            ys[i] = np.zeros(g.action_dims[i])
            ys[i][a] = 1.0
            # expand the joint belief into per-user marginals only when it is
            # a product; with one other follower it is exactly its marginal
            if len(other) == 1:
                ys[other[0]] = belief
                ref = expected_utility(i, ys, g)
                got = rla2_estimated_expected_utility(a, i, leader_y, belief, t)
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-9)


def test_rla2_estimate_scalar_belief_single_follower():
    rng = np.random.default_rng(12)
    g = random_game(rng, num_users=2, num_actions=3)
    t = utility_tensor(g, 1)
    leader_y = random_simplex(rng, 3)
    belief = np.array(1.0)  # zero-dimensional: no other followers
    for a in range(3):
        got = rla2_estimated_expected_utility(a, 1, leader_y, belief, t)
        assert got == pytest.approx(float(leader_y @ t[:, a]), rel=1e-12)


def _engine(game, algo, seed=0, settings=None, belief_factors=None):
    """A one-replicate engine; its results are replicate 0 of each list."""
    return StackelbergLearning(
        game, algo, [np.random.default_rng(seed)], settings or sl.LearnerSettings(), belief_factors
    )


def test_engine_rejects_unknown_algorithm(desk_game):
    with pytest.raises(ValueError):
        _engine(desk_game, "sarsa")


def test_engine_initial_state(desk_game):
    eng = _engine(desk_game, RLA1)
    for y, m in zip(eng.strategies[0], desk_game.action_dims):
        assert np.allclose(y, 1.0 / m)
    for q in eng.q[0]:
        assert np.all(q == 0.0)
    assert len(eng.estimates[0]) == desk_game.num_followers


def test_engine_strategies_stay_on_simplex(desk_game):
    for algo in (RLA1, RLA2, NONCOOP):
        eng = _engine(desk_game, algo, seed=4)
        for _ in range(200):
            eng.step()
            for y in eng.strategies[0]:
                assert np.all(y > 0)
                assert abs(y.sum() - 1.0) < 1e-9


def test_engine_determinism_same_seed(desk_game):
    a = _engine(desk_game, RLA2, seed=5)
    b = _engine(desk_game, RLA2, seed=5)
    for _ in range(100):
        (ra,), (rb,) = a.step(), b.step()
        assert ra.actions == rb.actions
        assert ra.utilities == rb.utilities
    for qa, qb in zip(a.q[0], b.q[0]):
        assert np.array_equal(qa, qb)


def test_engine_trace_record_contents(desk_game):
    eng = _engine(desk_game, RLA1, seed=6)
    (rec,) = eng.step()
    g = desk_game
    assert rec.step == 0
    assert len(rec.actions) == g.num_users
    for i in range(g.num_users):
        p_w = g.users[i].action_set.levels_w[rec.actions[i]]
        assert rec.powers_dbm[i] == pytest.approx(sl.watt_to_dbm(p_w), rel=1e-12)
        idx = rec.actions
        assert rec.utilities[i] == eng.u_phys[i][idx]
        assert rec.sinr_lin[i] == eng.sinr_tensors[i][idx]
    # logged strategies are the pre-update (uniform) ones
    for y, m in zip(rec.strategies, g.action_dims):
        assert np.allclose(y, 1.0 / m)


def test_engine_run_log_decimation(desk_game):
    eng = _engine(desk_game, NONCOOP, seed=7)
    (records,) = eng.run(10, log_every=3)
    assert [r.step for r in records] == [0, 3, 6, 9]
    (records,) = _engine(desk_game, NONCOOP, seed=7).run(10, log_every=4)
    assert [r.step for r in records] == [0, 4, 8, 9]


def test_engine_per_user_normalization(desk_game):
    eng = _engine(desk_game, RLA1)
    for t, tn, want in zip(eng.u_phys, eng.u_norm, normalized_utility_tensors(desk_game)):
        assert tn.tobytes() == want.tobytes()
        assert tn.tobytes() == (t / (max(float(t.max()), 0.0) or 1.0)).tobytes()
        assert float(tn.max()) == pytest.approx(1.0)


def test_engine_belief_factor_validation(desk_game):
    with pytest.raises(ValueError):
        _engine(desk_game, RLA2, belief_factors=[1.0])  # needs one per follower
    eng = _engine(desk_game, RLA2, belief_factors=[0.0, 0.0])
    assert eng.belief_factors == [0.0, 0.0]


def test_learner_settings_validation():
    with pytest.raises(ValueError):
        sl.LearnerSettings(alpha=1.0)
    with pytest.raises(ValueError):
        sl.LearnerSettings(temperature=-1.0)
    with pytest.raises(ValueError):
        sl.LearnerSettings(temperature_decay=0.0)
    with pytest.raises(ValueError):
        sl.LearnerSettings(belief_factor=-0.5)
    # the config section shares the learner's fields and checks
    with pytest.raises(ValueError, match="alpha"):
        LearningConfig(alpha=1.0)
    with pytest.raises(ValueError, match="num_steps"):
        LearningConfig(num_steps=0)
    assert LearningConfig().temperature == sl.LearnerSettings().temperature


def test_temperature_decay_applied(desk_game):
    eng = _engine(
        desk_game, RLA1, settings=sl.LearnerSettings(temperature=0.1, temperature_decay=0.9)
    )
    eng.step()
    assert eng.temperature == pytest.approx(0.09)
    eng.step()
    assert eng.temperature == pytest.approx(0.081)


def test_leader_update_uses_exact_expectation(desk_game):
    # after one step the leader's Q entry equals alpha * U_0(a0, uniform followers)
    eng = _engine(desk_game, RLA1, seed=8)
    uniform = [np.full(m, 1.0 / m) for m in desk_game.action_dims[1:]]
    (rec,) = eng.step()
    a0 = rec.actions[0]
    expected_q = 0.1 * full_expected_utility(eng.u_norm[0][a0], uniform)
    q0 = eng.q[0][0]
    assert q0[a0] == pytest.approx(expected_q, rel=1e-12)
    assert all(q0[a] == 0.0 for a in range(len(q0)) if a != a0)
