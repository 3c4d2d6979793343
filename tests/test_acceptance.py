"""End-to-end acceptance checks for the power-control learning package.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); tolerances and runtime budgets are asserted, not advisory.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import stackelearn as sl
from stackelearn.cli import main as cli_main
from stackelearn.config import default_config
from stackelearn.dynamics import (
    integrate_dynamics,
    logit_residual,
    stationarity_check,
    total_variation,
)
from stackelearn.game import normalized_utility_tensors, stackelberg_oracle, utility_tensor
from stackelearn.harness import build_game, learning_rng, sweep_gamma0
from stackelearn.learning import (
    NONCOOP,
    RLA1,
    RLA2,
    JointEstimate,
    LearnerSettings,
    StackelbergLearning,
    full_expected_utility,
)

ALPHA = 0.1
NUM_STEPS = 5000
NUM_SEEDS = 10


def _report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})")


@pytest.fixture(scope="module")
def cfg():
    return default_config()


@pytest.fixture(scope="module")
def game(cfg):
    prepared = build_game(cfg)
    assert not prepared.unresolved
    return prepared.game


def _terminal_leader_eu(engine):
    return full_expected_utility(engine.u_phys[0], engine.strategies[0])


def _run(game, algo, replicate, belief_factors=None):
    engine = StackelbergLearning(
        game,
        algo,
        [learning_rng(44, algo, replicate=replicate)],
        LearnerSettings(alpha=ALPHA),
        belief_factors=belief_factors,
    )
    engine.run(NUM_STEPS, log_every=NUM_STEPS)
    return engine


# ---------------------------------------------------------------------------
# 1. equilibrium oracle vs an independent re-enumeration, bit for bit


def _independent_equilibrium(game):
    """Self-contained brute force over all joint profiles, written without
    reusing any package enumeration code."""
    h = game.gains
    n = game.num_users
    dims = [len(u.action_set) for u in game.users]

    def my_sinr(i, powers):
        interference = 0.0
        for j in range(n):
            if j != i:
                interference += h[j, i] * powers[j]
        return h[i, i] * powers[i] / (interference + game.noise_power_w)

    def my_utility(i, powers):
        if my_sinr(i, powers) >= game.users[i].sinr_target_lin:
            total = game.users[i].circuit_power_w + powers[i]
            return game.bandwidth_hz * math.log2(1.0 + my_sinr(i, powers)) / total
        return 0.0

    def powers_of(profile):
        return [game.users[i].action_set.levels_w[a] for i, a in enumerate(profile)]

    def follower_nes(p0):
        nes = []
        for fol in itertools.product(*(range(m) for m in dims[1:])):
            profile = (p0,) + fol
            stable = True
            for i in range(1, n):
                here = my_utility(i, powers_of(profile))
                for a in range(dims[i]):
                    if a == profile[i]:
                        continue
                    trial = list(profile)
                    trial[i] = a
                    if my_utility(i, powers_of(trial)) > here:
                        stable = False
                        break
                if not stable:
                    break
            if stable:
                nes.append(fol)
        return nes

    best = None
    for p0 in range(dims[0]):
        nes = follower_nes(p0)
        assert nes, "desk instance must have a pure follower equilibrium everywhere"
        response = max(
            nes,
            key=lambda fol: (my_utility(0, powers_of((p0,) + fol)), tuple(-a for a in fol)),
        )
        u0 = my_utility(0, powers_of((p0,) + response))
        if best is None or u0 > best[0]:
            best = (u0, p0, response)
    _, p0, response = best
    profile = (p0,) + response
    utilities = tuple(my_utility(i, powers_of(profile)) for i in range(n))
    return profile, utilities


def test_criterion_1_oracle_equivalence(game):
    start = time.perf_counter()
    se = stackelberg_oracle(game)
    profile, utilities = _independent_equilibrium(game)
    elapsed = time.perf_counter() - start
    assert game.num_users == 3
    assert (se.leader_action_index,) + se.follower_action_indices == profile
    for a, b in zip(se.utilities, utilities):
        assert a == b  # bit-for-bit
    assert elapsed < 1.0, f"oracle comparison took {elapsed:.3f} s"
    _report(1, f"SE profile {profile}, utilities identical, {elapsed * 1e3:.0f} ms")


# ---------------------------------------------------------------------------
# 2. learning converges to the oracle leader utility


def test_criterion_2_leader_convergence(game):
    start = time.perf_counter()
    se = stackelberg_oracle(game)
    target = se.utilities[0]
    hits = 0
    ratios = []
    for r in range(NUM_SEEDS):
        engine = _run(game, RLA1, r)
        terminal = _terminal_leader_eu(engine)
        ratios.append(terminal / target)
        if abs(terminal - target) <= 0.10 * target:
            hits += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"ten replicates took {elapsed:.1f} s"
    assert hits >= 8, f"only {hits}/10 replicates within 10% (ratios {ratios})"
    _report(2, f"{hits}/10 seeds within 10% of oracle leader utility, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 3. per-user terminal ordering rla2 >= rla1 >= noncoop

# Terminal points of the three schemes coincide on converged replicates, so
# the ordering is checked with a relative tie tolerance: differences below
# this fraction count as equal rather than as violations.
ORDER_TIE_REL = 1e-3


def test_criterion_3_scheme_ordering(game):
    n = game.num_users
    u_phys = [utility_tensor(game, i) for i in range(n)]
    wins = [0] * n
    for r in range(NUM_SEEDS):
        eu = {}
        for algo in (RLA1, RLA2, NONCOOP):
            engine = _run(game, algo, r)
            eu[algo] = [full_expected_utility(u_phys[i], engine.strategies[0]) for i in range(n)]
        for i in range(n):
            scale = max(abs(eu[RLA2][i]), abs(eu[RLA1][i]), abs(eu[NONCOOP][i]), 1e-300)
            ok_21 = eu[RLA2][i] >= eu[RLA1][i] - ORDER_TIE_REL * scale
            ok_1n = eu[RLA1][i] >= eu[NONCOOP][i] - ORDER_TIE_REL * scale
            if ok_21 and ok_1n:
                wins[i] += 1
    for i, w in enumerate(wins):
        assert w >= 8, f"ordering held on only {w}/10 seeds for user {i} ({wins})"
    _report(3, f"ordering rla2 >= rla1 >= noncoop per user on {min(wins)}/10+ seeds {wins}")


# ---------------------------------------------------------------------------
# 4. FU SINR collapses as the leader target grows


def test_criterion_4_target_sweep_trend(cfg):
    grid = cfg.sweep.gamma0_grid_db
    results = sweep_gamma0(cfg, algorithms=(RLA1, RLA2))
    rhos = {}
    for algo in (RLA1, RLA2):
        series = [
            float(np.mean(r.fu_expected_sinr_lin))
            for r in results
            if r.algo == algo
        ]
        assert len(series) == len(grid)
        rho = spearmanr(grid, series).statistic
        rhos[algo] = rho
        assert rho <= -0.8, f"{algo}: Spearman rho {rho:.3f} > -0.8 ({series})"
        assert series[-1] < 0.05 * series[0], (
            f"{algo}: top-of-grid FU SINR {series[-1]:.3g} not < 5% of {series[0]:.3g}"
        )
    _report(4, f"Spearman rho rla1={rhos[RLA1]:.3f}, rla2={rhos[RLA2]:.3f}; top < 5% of bottom")


# ---------------------------------------------------------------------------
# 5. terminal profile is a stationary point of the strategy dynamics


def test_criterion_5_dynamics_stationarity(game):
    engine = StackelbergLearning(game, RLA1, [learning_rng(44, RLA1)], LearnerSettings(alpha=ALPHA))
    records = engine.run(NUM_STEPS, log_every=10)[0]
    tail = records[math.ceil(len(records) * 0.9) - 1 :]
    profile = [
        np.mean([rec.strategies[i] for rec in tail], axis=0) for i in range(game.num_users)
    ]
    profile = [y / y.sum() for y in profile]

    utilities = normalized_utility_tensors(game)
    tau = engine.temperature
    ok, residual = stationarity_check(profile, utilities, ALPHA, tau, tolerance=1e-2)
    assert ok, f"dynamics residual {residual:.3g} >= 1e-2"

    initial = [np.full(m, 1.0 / m) for m in game.action_dims]
    trajectory = integrate_dynamics(
        initial, utilities, ALPHA, tau, step_size=0.01, num_steps=20000
    )
    tv = total_variation(trajectory[-1], profile)
    assert tv < 0.05, f"ODE endpoint is {tv:.3g} away from the learned profile"
    # the endpoint is a logit fixed point, not only a slow spot of the field
    logit = logit_residual(trajectory[-1], utilities, tau)
    assert logit < 1e-6, f"ODE endpoint logit residual {logit:.3g} >= 1e-6"
    _report(5, f"residual {residual:.2e} < 1e-2, ODE total variation {tv:.2e} < 0.05, "
               f"endpoint logit residual {logit:.2e} < 1e-6")


# ---------------------------------------------------------------------------
# 6. the follower utility estimator obeys the law of large numbers


def test_criterion_6_estimator_convergence(game):
    follower = 1
    other = 2
    dims = game.action_dims
    u = utility_tensor(game, follower)
    u_norm = u / max(float(u.max()), 1e-300)
    y_other = np.full(dims[other], 1.0 / dims[other])  # frozen strategy

    rng = np.random.default_rng(12345)
    visits = 20000
    est = JointEstimate(dims[follower], dims[0])
    worst = 0.0
    for a0 in range(dims[0]):
        for a1 in range(dims[follower]):
            for _ in range(visits):
                a2 = int(rng.choice(dims[other], p=y_other))
                est.update(a1, a0, float(u_norm[a0, a1, a2]))
            exact = float(y_other @ u_norm[a0, a1, :])
            got = float(est.u_hat[a1, a0])
            if exact == 0.0:
                assert got == 0.0  # zero-utility cells stay exactly zero
            else:
                rel = abs(got - exact) / abs(exact)
                worst = max(worst, rel)
                assert rel < 0.02, f"cell ({a1},{a0}): rel error {rel:.4f} >= 2%"
            assert est.counts[a1, a0] == visits
    _report(6, f"all estimator cells within 2% after {visits} visits (worst {worst:.4f})")


# ---------------------------------------------------------------------------
# 7. rla2 with zero belief factors reduces exactly to rla1


def test_criterion_7_zero_delta_reduction(game):
    a = StackelbergLearning(game, RLA1, [learning_rng(44, RLA1)], LearnerSettings(alpha=ALPHA))
    b = StackelbergLearning(
        game,
        RLA2,
        [learning_rng(44, RLA1)],
        LearnerSettings(alpha=ALPHA),
        belief_factors=[0.0] * game.num_followers,
    )
    steps = 1000
    for _ in range(steps):
        (ra,), (rb,) = a.step(), b.step()
        assert ra.actions == rb.actions
        assert ra.powers_dbm == rb.powers_dbm
        assert ra.sinr_lin == rb.sinr_lin
        assert ra.utilities == rb.utilities
        assert ra.expected_utilities == rb.expected_utilities
        for ya, yb in zip(ra.strategies, rb.strategies):
            assert np.array_equal(ya, yb)
    for qa, qb in zip(a.q[0], b.q[0]):
        assert np.array_equal(qa, qb)
    for ya, yb in zip(a.strategies[0], b.strategies[0]):
        assert np.array_equal(ya, yb)
    _report(7, f"bit-identical traces and Q-values over {steps} steps")


# ---------------------------------------------------------------------------
# 8. randomized invariant families


def test_criterion_8_invariant_suite():
    import test_properties as props

    families = [
        props.test_simplex_invariants,
        props.test_boltzmann_shift_invariance,
        props.test_dynamics_field_tangent_to_simplex,
        props.test_q_update_geometric_contraction,
        props.test_sinr_monotonicities,
        props.test_gain_scaling_law,
        props.test_leader_expectation_equivalence,
        props.test_equilibrium_oracle_properties,
    ]
    start = time.perf_counter()
    for fam in families:
        fam()
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"invariant suite took {elapsed:.1f} s"
    _report(8, f"{len(families)} invariant families, >= 100 cases each, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 9. CLI byte-for-byte determinism


def test_criterion_9_cli_determinism(tmp_path):
    import json

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "learning": {"num_steps": 200, "trace_decimation": 10},
                "sweep": {"gamma0_grid_db": [0.0, 15.0, 30.0], "replicates": 1},
            }
        )
    )
    compared = 0
    for i, out_a, out_b in [(0, tmp_path / "a", tmp_path / "b")]:
        for argv_tail in (
            ["run", "--config", str(cfg_path)],
            ["sweep", "--config", str(cfg_path), "--replicates", "1"],
            ["dynamics", "--config", str(cfg_path), "--steps", "50"],
        ):
            assert cli_main(argv_tail + ["--out", str(out_a)]) == 0
            assert cli_main(argv_tail + ["--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (
                f"{name} differs between identical invocations"
            )
            compared += 1
    _report(9, f"{compared} output files byte-identical across repeated invocations")
