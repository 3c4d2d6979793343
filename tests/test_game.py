import itertools
import math

import numpy as np
import pytest

import stackelearn as sl
from stackelearn.game import (
    best_response,
    energy_efficiency,
    expected_utility,
    feasibility_adjust,
    follower_pure_nash,
    joint_action_space,
    leader_feasible,
    sinr,
    sinr_tensor,
    stackelberg_oracle,
    utility,
    utility_tensor,
)
from stackelearn.harness import complete_information_reference

from conftest import ragged_game, random_game, random_simplex


def _two_user_game(gains=None, targets=(1.0, 1.0)):
    if gains is None:
        gains = np.array([[1e-6, 1e-11], [1e-11, 1e-6]])
    actions = sl.ActionSet.from_dbm((20.0, 25.0, 30.0))
    users = tuple(
        sl.UserParams(sinr_target_lin=t, circuit_power_w=0.01, action_set=actions)
        for t in targets
    )
    return sl.GameInstance(gains=gains, users=users, bandwidth_hz=1e6, noise_power_w=1e-14)


def test_sinr_hand_computed():
    g = _two_user_game()
    powers = [0.1, 1.0]
    # user 0: own gain 1e-6 * 0.1 over (1e-11 * 1.0 + 1e-14)
    expected = 1e-6 * 0.1 / (1e-11 * 1.0 + 1e-14)
    assert sinr(0, powers, g) == pytest.approx(expected, rel=1e-14)
    expected1 = 1e-6 * 1.0 / (1e-11 * 0.1 + 1e-14)
    assert sinr(1, powers, g) == pytest.approx(expected1, rel=1e-14)


def test_energy_efficiency_hand_computed():
    g = _two_user_game()
    powers = [0.1, 1.0]
    gamma = sinr(0, powers, g)
    expected = 1e6 * math.log2(1.0 + gamma) / (0.01 + 0.1)
    assert energy_efficiency(0, powers, g) == expected


def test_utility_threshold_is_exact_zero():
    # crank the target far above anything achievable
    g = _two_user_game(targets=(1e12, 1.0))
    powers = [1.0, 0.1]
    assert sinr(0, powers, g) < 1e12
    assert utility(0, powers, g) == 0.0
    # and met targets return the energy efficiency itself
    assert utility(1, powers, g) == energy_efficiency(1, powers, g)


def test_sinr_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_game(rng)
        idx = tuple(rng.integers(0, m) for m in g.action_dims)
        powers = g.powers_from_indices(idx)
        i = int(rng.integers(0, g.num_users))
        base = sinr(i, powers, g)
        up = list(powers)
        up[i] *= 1.5
        assert sinr(i, up, g) > base
        j = int(rng.integers(0, g.num_users))
        if j != i:
            interf = list(powers)
            interf[j] *= 1.5
            assert sinr(i, interf, g) < base


def test_action_set_validation():
    with pytest.raises(ValueError):
        sl.ActionSet(levels_w=(0.1, 0.1))
    with pytest.raises(ValueError):
        sl.ActionSet(levels_w=(0.5, 0.1))
    with pytest.raises(ValueError):
        sl.ActionSet(levels_w=())
    with pytest.raises(ValueError):
        sl.ActionSet(levels_w=(0.0, 0.1))
    a = sl.ActionSet.from_dbm((20.0, 25.0, 30.0))
    assert len(a) == 3
    assert a.levels_w[-1] == 1.0


def test_game_instance_validation():
    with pytest.raises(ValueError):
        _two_user_game(gains=np.array([[1e-6, -1e-11], [1e-11, 1e-6]]))
    with pytest.raises(ValueError):
        _two_user_game(gains=np.ones((3, 3)) * 1e-6)


def test_utility_tensor_matches_scalar_op(desk_game):
    rng = np.random.default_rng(12)
    games = [desk_game]
    for n in (3, 5):
        # enough 5-level grids that np.log2 in place of math.log2 shows
        games += [random_game(rng, num_users=n, num_actions=n) for _ in range(3)]
        games.append(ragged_game(random_game(rng, num_users=n)))
    for g in games:
        for i in range(g.num_users):
            want_u = np.empty(g.action_dims)
            want_s = np.empty(g.action_dims)
            for idx in joint_action_space(g):
                powers = g.powers_from_indices(idx)
                want_u[idx] = utility(i, powers, g)
                want_s[idx] = sinr(i, powers, g)
            assert utility_tensor(g, i).tobytes() == want_u.tobytes()
            assert sinr_tensor(g, i).tobytes() == want_s.tobytes()


def test_expected_utility_degenerate_matches_pure(desk_game):
    g = desk_game
    rng = np.random.default_rng(5)
    for _ in range(20):
        idx = tuple(rng.integers(0, m) for m in g.action_dims)
        strategies = []
        for m, a in zip(g.action_dims, idx):
            y = np.zeros(m)
            y[a] = 1.0
            strategies.append(y)
        for i in range(g.num_users):
            assert expected_utility(i, strategies, g) == utility(
                i, g.powers_from_indices(idx), g
            )


def test_expected_utility_is_multilinear(desk_game):
    g = desk_game
    rng = np.random.default_rng(6)
    for _ in range(30):
        ys = [random_simplex(rng, m) for m in g.action_dims]
        za = [random_simplex(rng, m) for m in g.action_dims]
        lam = rng.random()
        i = int(rng.integers(0, g.num_users))
        k = int(rng.integers(0, g.num_users))
        mixed = [y.copy() for y in ys]
        mixed[k] = lam * ys[k] + (1 - lam) * za[k]
        alt = [y.copy() for y in ys]
        alt[k] = za[k]
        assert expected_utility(i, mixed, g) == pytest.approx(
            lam * expected_utility(i, ys, g) + (1 - lam) * expected_utility(i, alt, g),
            rel=1e-10,
            abs=1e-6,
        )


def test_best_response_is_argmax(desk_game):
    g = desk_game
    for idx in joint_action_space(g):
        for i in range(g.num_users):
            br = best_response(i, idx, g)
            trial = list(idx)
            vals = []
            for a in range(g.action_dims[i]):
                trial[i] = a
                vals.append(utility(i, g.powers_from_indices(trial), g))
            assert vals[br] == max(vals)
            # ties break toward the lowest index
            assert br == vals.index(max(vals))


def test_follower_pure_nash_stability(desk_game):
    g = desk_game
    for p0 in range(g.action_dims[0]):
        for fol in follower_pure_nash(p0, g):
            profile = (p0,) + fol
            for i in range(1, g.num_users):
                u_here = utility(i, g.powers_from_indices(profile), g)
                trial = list(profile)
                for a in range(g.action_dims[i]):
                    trial[i] = a
                    assert utility(i, g.powers_from_indices(trial), g) <= u_here + 0.0


def test_oracle_profile_is_consistent(desk_game):
    se = stackelberg_oracle(desk_game)
    g = desk_game
    profile = (se.leader_action_index,) + se.follower_action_indices
    powers = g.powers_from_indices(profile)
    assert se.utilities == tuple(utility(i, powers, g) for i in range(g.num_users))
    if se.is_pure_se:
        assert se.follower_action_indices in follower_pure_nash(se.leader_action_index, g)


def test_oracle_leader_cannot_improve(desk_game):
    # the leader's equilibrium utility dominates what it gets at any other
    # leader action, assuming followers answer with their best NE for the leader
    g = desk_game
    se = stackelberg_oracle(g)
    for p0 in range(g.action_dims[0]):
        nes = follower_pure_nash(p0, g)
        if not nes:
            continue
        best_here = max(
            utility(0, g.powers_from_indices((p0,) + fol), g) for fol in nes
        )
        assert best_here <= se.utilities[0] + 1e-15


def test_feasibility_adjust_reduces_targets_only():
    gains = np.array([[1e-12, 1e-8], [1e-8, 1e-6]])  # leader is badly served
    g = _two_user_game(gains=gains, targets=(1e6, 1.0))
    assert not leader_feasible(g, -1)
    out = feasibility_adjust(g, reduction_factor=0.5, max_rounds=3)
    assert out.rounds_applied == 3
    # the input game is untouched
    assert g.users[1].sinr_target_lin == 1.0
    assert out.game.users[1].sinr_target_lin == pytest.approx(0.125)
    # the leader's own target is never touched
    assert out.game.users[0].sinr_target_lin == g.users[0].sinr_target_lin
    assert out.feasible == leader_feasible(out.game, -1)


def test_feasibility_adjust_noop_when_feasible(desk_game):
    assert leader_feasible(desk_game, -1) in (True, False)
    g = _two_user_game()  # symmetric strong diagonal: trivially feasible
    assert leader_feasible(g, -1)
    out = feasibility_adjust(g, reduction_factor=0.5, max_rounds=3)
    assert out.rounds_applied == 0
    assert out.feasible
    assert out.game is g


# ---------------------------------------------------------------------------
# no-pure-NE fallback
#
# Thresholded energy efficiency has increasing best responses (more
# interference never lowers the best power), so physical games always have a
# pure follower NE and never reach the fallback.  These tests swap in random
# integer payoff tables, with many ties, as the utility tensors the oracle
# and the reference read.


def _table_game(tables):
    levels = sl.ActionSet.from_dbm((20.0, 25.0, 30.0))
    users = tuple(sl.UserParams(1.0, 0.01, levels) for _ in tables)
    gains = np.full((len(tables), len(tables)), 1e-9)
    return sl.GameInstance(gains=gains, users=users, bandwidth_hz=1e6, noise_power_w=1e-14)


def _install_tables(monkeypatch, tables):
    import stackelearn.game as game_mod
    import stackelearn.harness as harness_mod

    def table_tensor(game, i):
        out = tables[i].copy()
        out.setflags(write=False)
        return out

    for mod in (game_mod, harness_mod):
        monkeypatch.setattr(mod, "utility_tensor", table_tensor)


def _table_best_response(tables, i, profile):
    vals = [float(tables[i][profile[:i] + (a,) + profile[i + 1 :]]) for a in range(3)]
    return vals.index(max(vals))


def _table_ibr(tables, start, movers):
    profile = list(start)
    visited = [tuple(profile)]
    for _ in range(1000):
        for i in movers:
            profile[i] = _table_best_response(tables, i, tuple(profile))
        key = tuple(profile)
        if key == visited[-1]:
            return visited, True
        if key in visited:
            return visited, False
        visited.append(key)
    return visited, False


def _table_follower_nash(tables, p0):
    def stable(profile, i):
        deviations = (profile[:i] + (a,) + profile[i + 1 :] for a in range(3))
        return tables[i][profile] == max(tables[i][d] for d in deviations)

    return [
        fol
        for fol in itertools.product(range(3), repeat=2)
        if stable((p0,) + fol, 1) and stable((p0,) + fol, 2)
    ]


def test_oracle_and_reference_fall_back_without_pure_nash(monkeypatch):
    rng = np.random.default_rng(31)
    fallbacks, cycled, converged = 0, 0, 0
    for _ in range(150):
        tables = [rng.integers(0, 6, size=(3, 3, 3)).astype(float) for _ in range(3)]
        nes = [_table_follower_nash(tables, p0) for p0 in range(3)]
        if all(nes):
            continue
        fallbacks += 1
        best = None
        for p0 in range(3):
            if nes[p0]:
                response = max(nes[p0], key=lambda f: (tables[0][(p0,) + f], tuple(-a for a in f)))
                profile = (p0,) + response
            else:
                visited, _ = _table_ibr(tables, (p0, 0, 0), (1, 2))
                profile = max(visited, key=lambda p: tables[0][p])
            if best is None or tables[0][profile] > tables[0][best]:
                best = profile
        visited, done = _table_ibr(tables, (0, 0, 0), (0, 1, 2))
        if done:
            want_ref = visited[-1]
            converged += 1
        else:
            want_ref = max(visited, key=lambda p: sum(float(t[p]) for t in tables))
            cycled += 1

        with monkeypatch.context() as mp:
            _install_tables(mp, tables)
            game = _table_game(tables)
            se = stackelberg_oracle(game)
            ref = complete_information_reference(game)
        assert se.is_pure_se is False
        assert (se.leader_action_index,) + se.follower_action_indices == best
        assert se.utilities == tuple(float(t[best]) for t in tables)
        assert ref.action_indices == want_ref
        assert ref.converged is done
        assert ref.utilities == tuple(float(t[want_ref]) for t in tables)
    assert fallbacks >= 10 and cycled and converged
