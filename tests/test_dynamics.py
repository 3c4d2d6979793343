import itertools

import numpy as np
import pytest

import stackelearn as sl
import stackelearn.dynamics
from stackelearn.dynamics import (
    PROB_FLOOR,
    FieldTensors,
    integrate_dynamics,
    logit_residual,
    strategy_derivative,
    total_variation,
)
from stackelearn.game import normalized_utility_tensors, utility_tensor

from conftest import random_game, random_simplex
from reference import (
    per_user_logit_residual,
    per_user_strategy_derivative,
    stationarity_check,
    user_order,
)


def _expected_action_utilities(u_i, ys, i):
    """Independent enumeration of U_i(a, Y_-i) over the joint grid."""
    dims = u_i.shape
    out = np.zeros(dims[i])
    for idx in itertools.product(*(range(m) for m in dims)):
        prob = 1.0
        for j, a in enumerate(idx):
            if j != i:
                prob *= ys[j][a]
        out[idx[i]] += u_i[idx] * prob
    return out


def _fd_derivative(ys, utilities, alpha, tau, h=1e-7):
    """Finite-difference oracle built from the Q-space picture.

    With q = tau * ln(y) the Boltzmann update has mean field
    dq/dt = alpha * (U - q); mapping through the softmax gives the strategy
    field.  A central difference of softmax((q + h dq)/tau) at h -> 0 is an
    independent derivation of the same vector field.
    """

    def softmax(z):
        z = z - z.max()
        e = np.exp(z)
        return e / e.sum()

    derivs = []
    for i, y in enumerate(ys):
        u = _expected_action_utilities(utilities[i], ys, i)
        q = tau * np.log(y)
        dq = alpha * (u - q)
        plus = softmax((q + h * dq) / tau)
        minus = softmax((q - h * dq) / tau)
        derivs.append((plus - minus) / (2 * h))
    return derivs


def test_derivative_matches_finite_difference_oracle():
    rng = np.random.default_rng(20)
    for _ in range(25):
        g = random_game(rng, num_users=3, num_actions=3)
        utilities = normalized_utility_tensors(g)
        ys = [random_simplex(rng, m) for m in g.action_dims]
        alpha, tau = 0.1, 0.05
        got = strategy_derivative(ys, FieldTensors(utilities), alpha, tau)
        ref = _fd_derivative(ys, user_order(utilities), alpha, tau)
        for a, b in zip(got, ref):
            assert np.allclose(a, b, rtol=1e-4, atol=1e-6)


def test_derivative_is_tangent_to_simplex():
    rng = np.random.default_rng(21)
    for _ in range(100):
        g = random_game(rng, num_users=2, num_actions=3)
        ys = [random_simplex(rng, m) for m in g.action_dims]
        derivs = strategy_derivative(ys, FieldTensors(normalized_utility_tensors(g)), 0.1, 0.05)
        for d in derivs:
            assert abs(d.sum()) < 1e-10


def test_derivative_rejects_non_positive_temperature(desk_game):
    ys = [np.full(m, 1.0 / m) for m in desk_game.action_dims]
    field = FieldTensors(normalized_utility_tensors(desk_game))
    for tau in (-1.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="temperature"):
            strategy_derivative(ys, field, 0.1, tau)
        with pytest.raises(ValueError, match="temperature"):
            logit_residual(np.array(ys), field, tau)


def test_normalized_tensors_match_learner_scale(desk_game):
    tensors = user_order(normalized_utility_tensors(desk_game))
    for i, t in enumerate(tensors):
        raw = utility_tensor(desk_game)[i]
        m = max(float(raw.max()), 0.0) or 1.0
        assert np.allclose(t, raw / m, rtol=1e-15)
        assert float(t.max()) == pytest.approx(1.0)


def test_integrate_returns_full_trajectory(desk_game):
    utilities = FieldTensors(normalized_utility_tensors(desk_game))
    initial = [np.full(m, 1.0 / m) for m in desk_game.action_dims]
    traj = integrate_dynamics(initial, utilities, 0.1, 0.05, step_size=0.05, num_steps=50)
    assert isinstance(traj, np.ndarray)
    assert traj.shape == (51, desk_game.num_users, len(desk_game.action_set))
    assert np.all(traj >= PROB_FLOOR / 2)
    assert np.all(np.abs(traj.sum(axis=-1) - 1.0) < 1e-9)
    for h in (0.0, -0.05, float("nan")):
        with pytest.raises(ValueError, match="step_size"):
            integrate_dynamics(initial, utilities, 0.1, 0.05, step_size=h, num_steps=50)
    for steps in (0, -3):
        with pytest.raises(ValueError, match="num_steps"):
            integrate_dynamics(initial, utilities, 0.1, 0.05, step_size=0.01, num_steps=steps)


def test_integration_settles_to_stationary_point(desk_game):
    utilities = FieldTensors(normalized_utility_tensors(desk_game))
    initial = [np.full(m, 1.0 / m) for m in desk_game.action_dims]
    traj = integrate_dynamics(initial, utilities, 0.1, 0.05, step_size=0.05, num_steps=4000)
    ok, residual = stationarity_check(traj[-1], utilities, 0.1, 0.05, tolerance=1e-4)
    assert ok, f"residual {residual} not stationary"
    assert logit_residual(traj[-1], utilities, 0.05) < 1e-6
    # late trajectory barely moves
    assert total_variation(traj[-1], traj[-50]) < 1e-6


def test_stationarity_check_tolerances(desk_game):
    utilities = FieldTensors(normalized_utility_tensors(desk_game))
    ys = [np.full(m, 1.0 / m) for m in desk_game.action_dims]
    ok_loose, res = stationarity_check(ys, utilities, 0.1, 0.05, tolerance=1e6)
    assert ok_loose
    ok_tight, res2 = stationarity_check(ys, utilities, 0.1, 0.05, tolerance=min(res, 1e-300))
    assert res2 == res
    for tolerance in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance"):
            stationarity_check(ys, utilities, 0.1, 0.05, tolerance=tolerance)


def test_total_variation_reference_points():
    a = [np.array([1.0, 0.0]), np.array([0.5, 0.5])]
    b = [np.array([0.0, 1.0]), np.array([0.5, 0.5])]
    assert total_variation(a, b) == 1.0
    assert total_variation(a, a) == 0.0
    c = [np.array([0.6, 0.4]), np.array([0.5, 0.5])]
    assert total_variation(a, c) == pytest.approx(0.4)


def test_divergence_reports_step_index(desk_game):
    initial = [np.full(m, 1.0 / m) for m in desk_game.action_dims]
    # pathological utility scale + absurd step size overflow the RK4 update
    utilities = FieldTensors([np.asarray(t) * 1e300 for t in normalized_utility_tensors(desk_game)])
    message = r"^dynamics --step-size: 1000000000000\.0 diverges or overshoots at step 0$"
    with pytest.raises(sl.ConfigError, match=message):
        integrate_dynamics(initial, utilities, 0.1, 1e-9, step_size=1e12, num_steps=50)


def test_overshoot_is_divergence(desk_game):
    """A step that leaves negative mass is rejected, not floored onto a vertex."""
    utilities = FieldTensors(normalized_utility_tensors(desk_game))
    initial = [np.full(m, 1.0 / m) for m in desk_game.action_dims]
    message = r"^dynamics --step-size: 1000000\.0 diverges or overshoots at step 0$"
    with pytest.raises(sl.ConfigError, match=message):
        integrate_dynamics(initial, utilities, 0.1, 0.05, step_size=1e6, num_steps=3)


def test_logit_residual_is_large_at_a_vertex(desk_game):
    utilities = FieldTensors(normalized_utility_tensors(desk_game))
    tau = 0.05
    # everyone at the lowest power: the leader's best response is the highest
    vertex = [np.eye(m)[0] for m in desk_game.action_dims]
    assert logit_residual(vertex, utilities, tau) == pytest.approx(2.0, abs=1e-6)
    ok, residual = stationarity_check(vertex, utilities, 0.1, tau, tolerance=1e-9)
    assert ok and residual < 1e-10


def test_field_tensors_reject_ragged_or_missing_tensors(desk_game):
    tensors = normalized_utility_tensors(desk_game)
    for bad in ([], tensors[:2], [tensors[0], tensors[1], tensors[2][:2]]):
        with pytest.raises(ValueError, match="utilities"):
            FieldTensors(bad)


def test_trajectory_bitwise_equals_per_user_field(monkeypatch):
    """RK4 on the batched field is byte for byte RK4 on the one-user-at-a-time
    reference field (the blocked chain per action on the own-axis-first
    rows), on 5 femtocells x 5 levels and on a 2-user game."""
    five_femtocells = sl.parse_config(
        {
            "network": {"num_femtocells": 5},
            "users": {"action_set_dbm": [14.0, 18.0, 22.0, 26.0, 30.0], "mu_sinr_target_db": -20.0},
        }
    )
    games = [sl.build_game(five_femtocells).game, random_game(np.random.default_rng(31), 2, 5)]
    for g in games:
        rows = normalized_utility_tensors(g)
        field = FieldTensors(rows)
        initial = np.full((g.num_users, 5), 0.2)
        args = (0.1, 0.05, 0.05, 200)
        got = integrate_dynamics(initial, field, *args)
        with monkeypatch.context() as patch:
            patch.setattr(stackelearn.dynamics, "strategy_derivative", per_user_strategy_derivative)
            want = integrate_dynamics(initial, rows, *args)
        assert got.tobytes() == want.tobytes()
        for profile in (got[-1], got[len(got) // 2]):
            assert logit_residual(profile, field, 0.05) == per_user_logit_residual(
                profile, rows, 0.05
            )
