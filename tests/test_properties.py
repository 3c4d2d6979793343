"""Randomized invariant checks, one seeded loop per family."""

import itertools
import math

import numpy as np
import pytest

import stackelearn as sl
from stackelearn.dynamics import FieldTensors, strategy_derivative
from stackelearn.game import (
    normalized_utility_tensors,
    sinr,
    stackelberg_oracle,
    utility,
    utility_tensor,
)

from conftest import random_game, random_simplex
from reference import (
    boltzmann_strategy,
    conjecture_adjust,
    expected_utility,
    follower_pure_nash,
    full_expected_utility,
    q_update,
    user_order,
)


def test_simplex_invariants():
    """Strategies and beliefs stay on their simplices under every operation."""
    rng = np.random.default_rng(100)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        q = rng.normal(scale=rng.uniform(0.1, 5.0), size=m)
        tau = float(10.0 ** rng.uniform(-1.5, 1.0))
        y = boltzmann_strategy(q, tau)
        assert np.all(y >= 0.0)
        assert abs(y.sum() - 1.0) < 1e-9
        b = random_simplex(rng, m)
        b2 = conjecture_adjust(b, float(rng.uniform(0, 5)), rng.random(), rng.random())
        assert np.all(b2 >= 0.0)
        assert abs(b2.sum() - 1.0) < 1e-9


def test_boltzmann_shift_invariance():
    rng = np.random.default_rng(101)
    for _ in range(100):
        m = int(rng.integers(2, 7))
        q = rng.normal(scale=2.0, size=m)
        tau = float(10.0 ** rng.uniform(-1, 1))
        c = rng.normal(scale=10.0)
        assert np.allclose(
            boltzmann_strategy(q, tau), boltzmann_strategy(q + c, tau), atol=1e-12
        )


def test_dynamics_field_tangent_to_simplex():
    rng = np.random.default_rng(102)
    for _ in range(100):
        g = random_game(rng, num_users=int(rng.integers(2, 4)))
        ys = [random_simplex(rng, m) for m in g.action_dims]
        alpha = float(rng.uniform(0.01, 0.5))
        tau = float(10.0 ** rng.uniform(-2, 0))
        for d in strategy_derivative(ys, FieldTensors(normalized_utility_tensors(g)), alpha, tau):
            assert abs(d.sum()) < 1e-10


def test_q_update_geometric_contraction():
    rng = np.random.default_rng(103)
    for _ in range(100):
        alpha = float(rng.uniform(0.01, 0.99))
        target = float(rng.normal(scale=10.0))
        q0 = float(rng.normal(scale=10.0))
        q = np.array([q0])
        k = int(rng.integers(1, 50))
        for _ in range(k):
            q = q_update(q, 0, target, alpha)
        expected = target + (q0 - target) * (1 - alpha) ** k
        assert q[0] == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_sinr_monotonicities():
    rng = np.random.default_rng(104)
    for _ in range(100):
        g = random_game(rng, num_users=3)
        idx = tuple(rng.integers(0, m) for m in g.action_dims)
        powers = g.powers_from_indices(idx)
        i, j = rng.permutation(g.num_users)[:2]
        i, j = int(i), int(j)
        base = sinr(i, powers, g)
        scale = float(rng.uniform(1.1, 3.0))
        up = list(powers)
        up[i] *= scale
        assert sinr(i, up, g) > base
        down = list(powers)
        down[j] *= scale
        assert sinr(i, down, g) < base


def test_gain_scaling_law():
    # d^(-n) is multiplicative in distance scalings and monotone in both args
    rng = np.random.default_rng(105)
    for _ in range(100):
        d = float(rng.uniform(1.0, 500.0))
        k = float(rng.uniform(0.1, 10.0))
        n = float(rng.uniform(2.0, 5.0))
        assert (k * d) ** -n == pytest.approx(k ** -n * d ** -n, rel=1e-12)
        if d > 1.0:
            assert d ** -(n + 0.1) < d ** -n


def test_leader_expectation_equivalence():
    """The fast tensor contraction equals brute-force enumeration."""
    rng = np.random.default_rng(106)
    for _ in range(100):
        g = random_game(rng, num_users=int(rng.integers(2, 4)))
        follower_ys = [random_simplex(rng, m) for m in g.action_dims[1:]]
        j0 = int(rng.integers(0, g.action_dims[0]))
        leader_y = np.zeros(g.action_dims[0])
        leader_y[j0] = 1.0
        ref = expected_utility(0, [leader_y] + follower_ys, g)
        got = full_expected_utility(utility_tensor(g)[0][j0], follower_ys)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-9)


def test_equilibrium_oracle_properties():
    """Over random instances: the equilibrium is internally consistent, the
    leader cannot improve against best follower equilibria, and a pure
    follower equilibrium exists at every leader action in most instances."""
    rng = np.random.default_rng(107)
    pure = 0
    total = 120
    for _ in range(total):
        g = random_game(rng, num_users=3, num_actions=3)
        se = stackelberg_oracle(g)
        profile = (se.leader_action_index,) + se.follower_action_indices
        powers = g.powers_from_indices(profile)
        assert se.utilities == tuple(utility(i, powers, g) for i in range(3))
        if se.is_pure_se:
            pure += 1
            assert se.follower_action_indices in follower_pure_nash(
                se.leader_action_index, g
            )
            for p0 in range(g.action_dims[0]):
                nes = follower_pure_nash(p0, g)
                assert nes, "pure flag set but some leader action lacks a follower NE"
                best_here = max(
                    utility(0, g.powers_from_indices((p0,) + fol), g) for fol in nes
                )
                assert best_here <= se.utilities[0] + 1e-15
    # pure follower equilibria dominate across this instance distribution
    assert pure / total > 0.9, f"pure-SE fraction {pure}/{total} unexpectedly low"


def test_normalization_preserves_argmax_structure():
    """Rescaling utilities per user never changes best responses."""
    rng = np.random.default_rng(108)
    for _ in range(100):
        g = random_game(rng, num_users=3)
        tensors = list(utility_tensor(g))
        normed = user_order(normalized_utility_tensors(g))
        i = int(rng.integers(0, 3))
        idx = tuple(rng.integers(0, m) for m in g.action_dims)
        slicer = list(idx)
        raw_vals, norm_vals = [], []
        for a in range(g.action_dims[i]):
            slicer[i] = a
            raw_vals.append(tensors[i][tuple(slicer)])
            norm_vals.append(normed[i][tuple(slicer)])
        assert int(np.argmax(raw_vals)) == int(np.argmax(norm_vals))


def test_utility_threshold_dichotomy():
    """Every joint action yields either exact zero or the energy efficiency."""
    rng = np.random.default_rng(109)
    for _ in range(100):
        g = random_game(rng, num_users=2)
        idx = tuple(rng.integers(0, m) for m in g.action_dims)
        powers = g.powers_from_indices(idx)
        for i in range(2):
            u = utility(i, powers, g)
            gamma = sinr(i, powers, g)
            if gamma >= g.users[i].sinr_target_lin:
                total_p = g.users[i].circuit_power_w + powers[i]
                assert u == g.bandwidth_hz * math.log2(1.0 + gamma) / total_p
            else:
                assert u == 0.0
