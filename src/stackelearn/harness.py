"""Experiment orchestration: seeded runs, references, sweeps, CSV output.

Builds one network realization from a config, runs the requested learning
schemes on it with per-(algorithm, replicate) RNG streams derived from the
base seed, and emits plot-ready CSV files.  Also computes the two reference
solutions the learners are compared against: the complete-information
iterated-best-response profile and the brute-force Stackelberg equilibrium.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import Topology, db_to_linear, dbm_to_watt, gain_matrix, generate_topology
from .config import ExperimentConfig
from .game import (
    ActionSet,
    EquilibriumResult,
    FeasibilityOutcome,
    GameInstance,
    UserParams,
    feasibility_adjust,
    iterated_best_response,
    leader_feasible,
    stackelberg_oracle,
    utility_tensor,
)
from .learning import (
    NONCOOP,
    RLA1,
    RLA2,
    StackelbergLearning,
    TraceRecord,
    full_expected_utility,
)

_ALGO_STREAM_INDEX = {RLA1: 0, RLA2: 1, NONCOOP: 2}


@dataclass(frozen=True)
class PreparedGame:
    """A game instance ready for learning, after the protection protocol.

    ``active[k]`` says whether follower k+1 (original numbering) takes part;
    silenced femtocells are removed from ``game`` entirely.  ``user_ids``
    maps reduced user indices back to original ones.
    """

    game: GameInstance
    topology: Topology
    active: tuple[bool, ...]
    user_ids: tuple[int, ...]
    feasibility: FeasibilityOutcome | None
    unresolved: bool


@dataclass(frozen=True)
class CompleteInfoResult:
    """Iterated exact best responses under full knowledge (reference line)."""

    action_indices: tuple[int, ...]
    utilities: tuple[float, ...]
    converged: bool


@dataclass
class ExperimentResult:
    prepared: PreparedGame
    traces: dict[str, list[TraceRecord]]
    terminal_strategies: dict[str, list[np.ndarray]]
    oracle: EquilibriumResult
    complete_info: CompleteInfoResult
    config: ExperimentConfig


@dataclass(frozen=True)
class SweepResult:
    """Replicate-averaged terminal FU SINRs at one sweep point."""

    gamma0_db: float
    algo: str
    fu_expected_sinr_lin: tuple[float, ...]  # per original follower, 0 when silenced
    active: tuple[bool, ...]


def _reduced_game(game: GameInstance, keep: list[int]) -> GameInstance:
    gains = game.gains[np.ix_(keep, keep)].copy()
    return GameInstance(
        gains=gains,
        users=tuple(game.users[i] for i in keep),
        bandwidth_hz=game.bandwidth_hz,
        noise_power_w=game.noise_power_w,
    )


def build_game(config: ExperimentConfig, gamma0_db: float | None = None) -> PreparedGame:
    """Construct the game for one experiment (or one sweep point).

    After the optional FU target-reduction round, femtocells are silenced
    one at a time (strongest interferer at the macro base station first)
    while the leader cannot meet its SINR target even with all remaining
    followers at minimum power.  This realizes the protocol in which the
    macrocell deactivates femtocells when its own QoS becomes infeasible.
    """
    net = config.network
    rng = np.random.default_rng(net.rng_seed)
    topology = generate_topology(net, rng)
    gains = gain_matrix(topology, net.path_loss_exponent, net.shadowing_sigma_db, rng)

    mu_target_db = config.users.mu_sinr_target_db if gamma0_db is None else gamma0_db
    action_set = ActionSet.from_dbm(config.users.action_set_dbm)
    circuit_w = dbm_to_watt(config.users.circuit_power_dbm)
    users = [UserParams(db_to_linear(mu_target_db), circuit_w, action_set)]
    users += [
        UserParams(db_to_linear(config.users.fu_sinr_target_db), circuit_w, action_set)
        for _ in range(net.num_femtocells)
    ]
    game = GameInstance(
        gains=np.array(gains),
        users=tuple(users),
        bandwidth_hz=net.bandwidth_hz,
        noise_power_w=net.noise_power_w,
    )

    feas: FeasibilityOutcome | None = None
    if config.feasibility.enabled:
        feas = feasibility_adjust(
            game, config.feasibility.reduction_factor, config.feasibility.max_rounds
        )
        game = feas.game

    n_fu = game.num_followers
    active = [True] * n_fu
    keep = list(range(game.num_users))
    reduced = game
    while not leader_feasible(reduced, 0) and any(active):
        # silence the active femtocell whose user interferes most at the MBS
        candidates = [k for k in range(n_fu) if active[k]]
        worst = max(candidates, key=lambda k: game.gains[k + 1, 0])
        active[worst] = False
        keep = [0] + [k + 1 for k in range(n_fu) if active[k]]
        reduced = _reduced_game(game, keep)

    unresolved = not leader_feasible(reduced, 0)
    return PreparedGame(
        game=reduced,
        topology=topology,
        active=tuple(active),
        user_ids=tuple(keep),
        feasibility=feas,
        unresolved=unresolved,
    )


def complete_information_reference(game: GameInstance, max_sweeps: int = 1000) -> CompleteInfoResult:
    """Iterated exact best responses with every utility function known.

    Sweeps all users from the all-min profile until a fixed point.  If the
    sweep cycles, the visited profile with the highest total utility is
    returned and ``converged`` is cleared.
    """
    utilities = [utility_tensor(game, i) for i in range(game.num_users)]
    n = game.num_users
    visited, converged = iterated_best_response(utilities, (0,) * n, range(n), max_sweeps)
    if converged:
        key = visited[-1]
    else:
        key = max(visited, key=lambda p: sum(float(u[p]) for u in utilities))
    return CompleteInfoResult(key, tuple(float(u[key]) for u in utilities), converged)


def learning_rng(base_seed: int, algorithm: str, replicate: int = 0) -> np.random.Generator:
    """Independent, order-insensitive RNG stream per (algorithm, replicate)."""
    ss = np.random.SeedSequence(
        entropy=base_seed, spawn_key=(_ALGO_STREAM_INDEX[algorithm], replicate)
    )
    return np.random.default_rng(ss)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every requested scheme on the configured instance and attach the
    oracle and complete-information references."""
    prepared = build_game(config)
    traces: dict[str, list[TraceRecord]] = {}
    terminal: dict[str, list[np.ndarray]] = {}
    for algo in config.learning.algorithms:
        engine = StackelbergLearning(
            prepared.game,
            algo,
            learning_rng(config.seeds.base_seed, algo),
            settings=config.learning,
        )
        traces[algo] = engine.run(
            config.learning.num_steps, log_every=config.learning.trace_decimation
        )
        terminal[algo] = [s.copy() for s in engine.strategies]
    return ExperimentResult(
        prepared=prepared,
        traces=traces,
        terminal_strategies=terminal,
        oracle=stackelberg_oracle(prepared.game),
        complete_info=complete_information_reference(prepared.game),
        config=config,
    )


def sweep_gamma0(config: ExperimentConfig, algorithms=(RLA1, RLA2)) -> list[SweepResult]:
    """Terminal expected FU SINRs versus the leader's SINR target.

    For each point of ``sweep.gamma0_grid_db`` and each replicate the learned
    terminal strategies are evaluated by exact enumeration over joint actions
    and averaged over the replicates actually run: the first
    ``sweep.replicates`` entries of ``seeds.replicate_offsets`` (all of
    ``range(sweep.replicates)`` when unset).  Silenced femtocells contribute
    zero SINR.
    """
    replicates = config.sweep.replicates
    offsets = (config.seeds.replicate_offsets or tuple(range(replicates)))[:replicates]
    results = []
    for gamma0_db in config.sweep.gamma0_grid_db:
        prepared = build_game(config, gamma0_db=gamma0_db)
        n_fu_total = config.network.num_femtocells
        for algo in algorithms:
            # the replicates of one (point, algorithm) advance in lockstep
            engine = StackelbergLearning(
                prepared.game,
                algo,
                [learning_rng(config.seeds.base_seed, algo, replicate=r) for r in offsets],
                settings=config.learning,
            )
            engine.run(config.learning.num_steps, log_every=config.learning.num_steps)
            sums = np.zeros(n_fu_total)
            for strategies in engine.strategies:
                for reduced_idx in range(1, prepared.game.num_users):
                    original = prepared.user_ids[reduced_idx]
                    sums[original - 1] += full_expected_utility(
                        engine.sinr_tensors[reduced_idx], strategies
                    )
            results.append(
                SweepResult(
                    gamma0_db=float(gamma0_db),
                    algo=algo,
                    fu_expected_sinr_lin=tuple(sums / len(offsets)),
                    active=prepared.active,
                )
            )
    return results


# ---------------------------------------------------------------------------
# Summaries and CSV output


def compare_summary(result: ExperimentResult) -> list[dict]:
    """Per-user, per-scheme terminal performance table.

    Terminal expected utility is the mean over the last 10% of logged steps;
    the ratio column compares against the complete-information reference;
    the steps column is the first logged step whose expected utility is
    within 10% of the terminal value (a convergence-speed proxy).
    """
    rows = []
    n = result.prepared.game.num_users
    ref = result.complete_info.utilities
    for algo, records in result.traces.items():
        tail = records[max(1, math.ceil(len(records) * 0.9)) - 1 :]
        for i in range(n):
            terminal = float(np.mean([r.expected_utilities[i] for r in tail]))
            ratio = terminal / ref[i] if ref[i] > 0 else float("nan")
            steps = records[-1].step
            for r in records:
                if abs(r.expected_utilities[i] - terminal) <= 0.1 * abs(terminal):
                    steps = r.step
                    break
            rows.append(
                {
                    "algo": algo,
                    "user": result.prepared.user_ids[i],
                    "terminal_expected_utility": terminal,
                    "reference_utility": ref[i],
                    "ratio_to_reference": ratio,
                    "steps_to_10pct": steps,
                }
            )
    for i in range(n):
        rows.append(
            {
                "algo": "oracle",
                "user": result.prepared.user_ids[i],
                "terminal_expected_utility": result.oracle.utilities[i],
                "reference_utility": ref[i],
                "ratio_to_reference": (
                    result.oracle.utilities[i] / ref[i] if ref[i] > 0 else float("nan")
                ),
                "steps_to_10pct": 0,
            }
        )
    return rows


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def emit_trace_csv(records: list[TraceRecord], algo: str, path: str, user_ids=None) -> None:
    """Trace CSV, step-major / user-minor, one header row, full precision."""
    if records:
        max_actions = max(len(s) for s in records[0].strategies)
    else:
        max_actions = 0
    header = "step,user,algo,action_idx,power_dbm,sinr_lin,utility,expected_utility"
    header += "".join(f",y_{j}" for j in range(max_actions))
    lines = [header]
    for rec in records:
        for i in range(len(rec.actions)):
            uid = user_ids[i] if user_ids is not None else i
            probs = list(rec.strategies[i]) + [None] * (max_actions - len(rec.strategies[i]))
            fields = [
                str(rec.step),
                str(uid),
                algo,
                str(rec.actions[i]),
                _fmt(rec.powers_dbm[i]),
                _fmt(rec.sinr_lin[i]),
                _fmt(rec.utilities[i]),
                _fmt(rec.expected_utilities[i]),
            ] + ["" if p is None else _fmt(float(p)) for p in probs]
            lines.append(",".join(fields))
    _write_lines(path, lines)


def emit_sweep_csv(results: list[SweepResult], path: str) -> None:
    lines = ["gamma0_db,algo,fu_index,expected_sinr_lin,expected_sinr_db,active"]
    for res in results:
        for k, lin in enumerate(res.fu_expected_sinr_lin):
            db = 10.0 * math.log10(lin) if lin > 0 else -math.inf
            lines.append(
                ",".join(
                    [
                        _fmt(res.gamma0_db),
                        res.algo,
                        str(k + 1),
                        _fmt(float(lin)),
                        _fmt(db),
                        str(int(res.active[k])),
                    ]
                )
            )
    _write_lines(path, lines)


def emit_summary_csv(rows: list[dict], path: str) -> None:
    header = [
        "algo",
        "user",
        "terminal_expected_utility",
        "reference_utility",
        "ratio_to_reference",
        "steps_to_10pct",
    ]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(row[k]) for k in header))
    _write_lines(path, lines)


def emit_dynamics_csv(trajectory, step_size: float, path: str, user_ids=None) -> None:
    if trajectory:
        max_actions = max(len(y) for y in trajectory[0])
    else:
        max_actions = 0
    header = "step,time,user" + "".join(f",y_{j}" for j in range(max_actions))
    lines = [header]
    for t, profile in enumerate(trajectory):
        for i, y in enumerate(profile):
            uid = user_ids[i] if user_ids is not None else i
            fields = [str(t), _fmt(t * step_size), str(uid)]
            fields += [_fmt(float(p)) for p in y]
            fields += [""] * (max_actions - len(y))
            lines.append(",".join(fields))
    _write_lines(path, lines)


def _write_lines(path: str, lines: list[str]) -> None:
    try:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
