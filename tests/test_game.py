import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import stackelearn as sl
import stackelearn.game as game_mod
from stackelearn import harness
from stackelearn.dynamics import FieldTensors
from stackelearn.game import (
    leader_feasible,
    normalize_utility,
    normalized_utility_tensors,
    sinr,
    sinr_tensor,
    stackelberg_oracle,
    utility,
    utility_tensor,
)
from stackelearn.harness import complete_information_reference

from conftest import random_game, random_simplex
from reference import best_response, expected_utility, follower_pure_nash, joint_action_space


def _two_user_game(gains=None, targets=(1.0, 1.0)):
    if gains is None:
        gains = np.array([[1e-6, 1e-11], [1e-11, 1e-6]])
    actions = sl.ActionSet.from_dbm((20.0, 25.0, 30.0))
    users = tuple(sl.UserParams(sinr_target_lin=t, circuit_power_w=0.01) for t in targets)
    return sl.GameInstance(
        gains=gains, users=users, action_set=actions, bandwidth_hz=1e6, noise_power_w=1e-14
    )


def test_sinr_hand_computed():
    g = _two_user_game()
    powers = [0.1, 1.0]
    # user 0: own gain 1e-6 * 0.1 over (1e-11 * 1.0 + 1e-14)
    expected = 1e-6 * 0.1 / (1e-11 * 1.0 + 1e-14)
    assert sinr(0, powers, g) == pytest.approx(expected, rel=1e-14)
    expected1 = 1e-6 * 1.0 / (1e-11 * 0.1 + 1e-14)
    assert sinr(1, powers, g) == pytest.approx(expected1, rel=1e-14)


def test_energy_efficiency_hand_computed():
    # a met target: the utility is the energy efficiency, libm's log2 and all
    g = _two_user_game()
    powers = [0.1, 1.0]
    gamma = sinr(0, powers, g)
    assert gamma >= 1.0
    expected = 1e6 * math.log2(1.0 + gamma) / (0.01 + 0.1)
    got = utility(0, powers, g)
    assert isinstance(got, float) and got == expected


def test_utility_threshold_is_exact_zero():
    # crank the target far above anything achievable
    g = _two_user_game(targets=(1e12, 1.0))
    powers = [1.0, 0.1]
    assert sinr(0, powers, g) < 1e12
    assert utility(0, powers, g) == 0.0
    # and met targets return the energy efficiency itself
    gamma = sinr(1, powers, g)
    assert utility(1, powers, g) == 1e6 * math.log2(1.0 + gamma) / (0.01 + 0.1)


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
        # enough 5-level grids that a last-bit drift of the grid build shows
        games += [random_game(rng, num_users=n, num_actions=n) for _ in range(3)]
    for g in games:
        for i in range(g.num_users):
            want_u = np.empty(g.action_dims)
            want_s = np.empty(g.action_dims)
            for idx in joint_action_space(g):
                powers = g.powers_from_indices(idx)
                want_u[idx] = utility(i, powers, g)
                want_s[idx] = sinr(i, powers, g)
            assert utility_tensor(g)[i].tobytes() == want_u.tobytes()
            assert sinr_tensor(g)[i].tobytes() == want_s.tobytes()


# ---------------------------------------------------------------------------
# shared tensors: built once per game, never carried into a derived game


def _tensor_bytes(game):
    normalized = normalized_utility_tensors(game)
    return [
        (sinr_tensor(game)[i].tobytes(), utility_tensor(game)[i].tobytes(), normalized[i].tobytes())
        for i in range(game.num_users)
    ]


def _never_queried(game):
    """A new game with the same parameters, whose tensors are built afresh."""
    return sl.GameInstance(
        gains=np.array(game.gains),
        users=game.users,
        action_set=game.action_set,
        bandwidth_hz=game.bandwidth_hz,
        noise_power_w=game.noise_power_w,
    )


def _reading_tensors(monkeypatch, module):
    """Make ``module.leader_feasible`` read every tensor of each game it
    checks, so that a protocol derives its games from games whose tensors
    are built.  Returns the checked games, in order."""
    checked = []
    real = module.leader_feasible

    def reading(game):
        _tensor_bytes(game)
        checked.append(game)
        return real(game)

    monkeypatch.setattr(module, "leader_feasible", reading)
    return checked


def test_shared_tensors_are_built_once_and_read_only(monkeypatch):
    builds = []

    def counting(kind, real):
        def build(game, i):
            builds.append((kind, i))
            return real(game, i)

        return build

    for kind in ("sinr", "utility", "normalized"):
        name = f"_build_{kind}_tensor"
        monkeypatch.setattr(game_mod, name, counting(kind, getattr(game_mod, name)))
    g = random_game(np.random.default_rng(5))
    stacks = []
    for kind, accessor in (
        ("sinr", sinr_tensor),
        ("utility", utility_tensor),
        ("normalized", normalized_utility_tensors),
    ):
        first = accessor(g)
        assert builds[-3:] == [(kind, i) for i in range(3)]
        assert accessor(g) is first
        assert isinstance(first, np.ndarray) and first.shape == (3,) + g.action_dims
        stacks.append(first)
    assert len(builds) == 9
    for stack in stacks:
        for tensor in (stack, stack[1]):
            with pytest.raises(ValueError):
                tensor[0, 0, 0] = 1.0
            with pytest.raises(ValueError):
                tensor.setflags(write=True)


def test_log2_has_libm_bits():
    # numpy's AVX-512 log2 loop differs from libm in the last ulp on a few
    # of these, with or without ``out=``; a reversed input runs libm's
    x = 1.0 + np.random.default_rng(16).random(10**6) * 1e6
    got = game_mod._log2(x)
    want = np.fromiter(map(math.log2, x), float, x.size)
    assert got.tobytes() == want.tobytes()
    # any shape in, that shape out: a 3-d grid, and a number as scalar utility passes
    cube = x.reshape(100, 100, 100)
    got = game_mod._log2(cube)
    assert got.shape == cube.shape and got.tobytes() == want.tobytes()
    for v in x[:2000].tolist():
        got = game_mod._log2(v)
        assert np.shape(got) == () and float(got) == math.log2(v), v


def test_engine_and_field_read_the_game_stacks_in_place():
    g, other = (random_game(np.random.default_rng(seed)) for seed in (8, 9))
    rng = np.random.default_rng(1)
    one = sl.StackelbergLearning([g], sl.RLA1, [rng], sl.LearnerSettings())
    normalized = normalized_utility_tensors(g)
    assert one.u_norm.shape == (1,) + normalized.shape
    assert np.shares_memory(one.u_norm[0], normalized)
    assert np.shares_memory(FieldTensors(normalized).stack, normalized)
    two = sl.StackelbergLearning([g, other], sl.RLA1, [rng, rng], sl.LearnerSettings())
    assert not two.u_norm.flags.writeable
    for p, game in enumerate((g, other)):
        assert two.u_norm[p].tobytes() == normalized_utility_tensors(game).tobytes()
        assert not np.shares_memory(two.u_norm, normalized_utility_tensors(game))
    # each replicate's trace reads its own game's physical stacks
    for kept, p, game in zip(two.run(4), two.points, (g, other)):
        trace = sl.read_trace(two.games[p], *kept)
        profiles = tuple(trace.actions.T)
        for i in range(game.num_users):
            assert trace.utilities[:, i].tobytes() == utility_tensor(game)[i][profiles].tobytes()
            assert trace.sinr_lin[:, i].tobytes() == sinr_tensor(game)[i][profiles].tobytes()
    field = FieldTensors(list(normalized))
    assert not np.shares_memory(field.stack, normalized)
    with pytest.raises(ValueError):
        field.stack[0, 0, 0, 0] = 1.0


def test_feasibility_adjusted_game_builds_its_own_tensors(desk_game):
    # a game whose follower targets are relaxed, as a feasibility adjustment
    # would, derived from a game whose tensors are built; the follower
    # targets lie inside their SINR ranges, so relaxing them changes utilities
    users = (sl.UserParams(1e3, 0.01), sl.UserParams(1e6, 0.01), sl.UserParams(1e4, 0.01))
    strict = replace(desk_game, users=users)
    built = _tensor_bytes(strict)
    relaxed_users = [replace(u, sinr_target_lin=u.sinr_target_lin / 8) for u in users[1:]]
    relaxed = replace(strict, users=users[:1] + tuple(relaxed_users))
    assert _tensor_bytes(relaxed) == _tensor_bytes(_never_queried(relaxed))
    for i, ((s, u, un), (s0, u0, un0)) in enumerate(zip(_tensor_bytes(relaxed), built)):
        assert s == s0  # same gains and powers
        # only the follower targets were relaxed
        assert (u == u0) == (un == un0) == (i == 0)
    assert _tensor_bytes(strict) == built


def test_silenced_game_builds_its_own_tensors(monkeypatch):
    checked = _reading_tensors(monkeypatch, harness)
    prepared = harness.build_game(sl.default_config(), gamma0_db=10.0)
    (silenced,) = [k + 1 for k, a in enumerate(prepared.active) if not a]
    full = checked[0]
    assert full.num_users == 3 and checked[-1] is prepared.game
    assert _tensor_bytes(prepared.game) == _tensor_bytes(_never_queried(prepared.game))
    # the leader sees less interference than with the silenced femtocell at min power
    at_min = np.take(sinr_tensor(full)[0], 0, axis=silenced)
    assert np.all(sinr_tensor(prepared.game)[0] > at_min)


def test_replaced_game_builds_its_own_tensors(desk_game):
    before = _tensor_bytes(desk_game)
    wider = replace(desk_game, bandwidth_hz=2 * desk_game.bandwidth_hz)
    same = replace(desk_game)
    assert _tensor_bytes(wider) == _tensor_bytes(_never_queried(wider))
    for (s, u, un), (s0, u0, un0) in zip(_tensor_bytes(wider), before):
        # twice the bandwidth doubles every utility exactly, and its maximum
        assert s == s0 and u != u0 and un == un0
    assert _tensor_bytes(same) == before
    assert not np.shares_memory(utility_tensor(same)[0], utility_tensor(desk_game)[0])
    assert not np.shares_memory(
        normalized_utility_tensors(same)[0], normalized_utility_tensors(desk_game)[0]
    )
    assert _tensor_bytes(desk_game) == before


def test_normalized_rows_are_own_axis_first_and_read_in_place(desk_game):
    rng = np.random.default_rng(6)
    games = [desk_game, random_game(rng, num_users=1), random_game(rng, num_users=4, num_actions=4)]
    for g in games:
        rows = normalized_utility_tensors(g)
        for i, row in enumerate(rows):
            want = np.moveaxis(normalize_utility(utility_tensor(g)[i]), i, 0)
            assert row.tobytes() == want.tobytes()
        # the learner and the field read the rows, not copies of them
        settings = sl.LearnerSettings()
        engine = sl.StackelbergLearning([g], sl.RLA2, [np.random.default_rng(1)], settings)
        field = FieldTensors(rows)
        for i, row in enumerate(rows):
            assert np.shares_memory(engine.u_norm[0, i], row)
            assert np.shares_memory(field.stack[i], row)


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


def test_leader_feasible_puts_followers_at_min_power():
    g = _two_user_game()
    levels = g.action_set.levels_w
    at_min, at_max = (sinr(0, [levels[-1], p], g) for p in (levels[0], levels[-1]))
    assert at_min > at_max
    for target, feasible in ((at_min, True), (math.nextafter(at_min, math.inf), False)):
        leader = sl.UserParams(target, g.users[0].circuit_power_w)
        assert leader_feasible(replace(g, users=(leader,) + g.users[1:])) == feasible


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
    users = tuple(sl.UserParams(1.0, 0.01) for _ in tables)
    gains = np.full((len(tables), len(tables)), 1e-9)
    return sl.GameInstance(
        gains=gains, users=users, action_set=levels, bandwidth_hz=1e6, noise_power_w=1e-14
    )


def _install_tables(monkeypatch, tables):
    import stackelearn.game as game_mod
    import stackelearn.harness as harness_mod

    def table_tensor(game):
        out = np.array(tables)
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
