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
from dataclasses import dataclass, replace

import numpy as np

from .channel import db_to_linear, dbm_to_watt, gain_matrix, generate_topology, sized_by
from .config import ConfigError, ExperimentConfig
from .game import (
    ActionSet,
    EquilibriumResult,
    GameInstance,
    UserParams,
    iterated_best_response,
    leader_feasible,
    sinr_tensor,
    stackelberg_oracle,
    utility_tensor,
)
from .learning import (
    ALGORITHMS,
    RLA1,
    RLA2,
    StackelbergLearning,
    Trace,
    _expected_rows,
    read_trace,
)


@dataclass(frozen=True)
class PreparedGame:
    """A game instance ready for learning, after the leader-protection
    silencing of ``build_game``.

    ``active[k]`` says whether follower k+1 (original numbering) takes part;
    silenced femtocells are removed from ``game`` entirely.  ``user_ids``
    maps reduced user indices back to original ones.
    """

    game: GameInstance
    active: tuple[bool, ...]
    user_ids: tuple[int, ...]
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
    traces: dict[str, Trace]
    oracle: EquilibriumResult
    complete_info: CompleteInfoResult


@dataclass(frozen=True)
class SweepResult:
    """Replicate-averaged terminal FU SINRs at one sweep point.

    ``unresolved`` marks a point whose leader target is infeasible even with
    every femtocell silenced (``PreparedGame.unresolved``)."""

    gamma0_db: float
    algo: str
    fu_expected_sinr_lin: tuple[float, ...]  # per original follower, 0 when silenced
    active: tuple[bool, ...]
    unresolved: bool


def build_game(config: ExperimentConfig, gamma0_db: float | None = None) -> PreparedGame:
    """Construct the game for one experiment (or one sweep point).

    Femtocells are silenced one at a time (strongest interferer at the
    macro base station first) while the leader cannot meet its SINR target
    at max power even with all remaining followers at minimum power: the
    protocol in which the macrocell deactivates femtocells when its own QoS
    becomes infeasible.  A channel gain that is zero or not finite is a
    ``ConfigError`` on ``network.path_loss_exponent``, or on
    ``network.shadowing_sigma_db`` when shadowing is on; so is an SINR or
    utility that can overflow, on the first field whose bound overflows.
    """
    net = config.network
    rng = np.random.default_rng(net.rng_seed)
    topology = generate_topology(net, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        gains = gain_matrix(topology, net.path_loss_exponent, net.shadowing_sigma_db, rng)
    if not (np.isfinite(gains).all() and (gains > 0).all()):
        name = "shadowing_sigma_db" if net.shadowing_sigma_db > 0 else "path_loss_exponent"
        raise ConfigError(
            f"network.{name}: the channel gains of this topology are not all finite and > 0"
            f" (path_loss_exponent {net.path_loss_exponent!r},"
            f" shadowing_sigma_db {net.shadowing_sigma_db!r})"
        )

    mu_target_db = config.users.mu_sinr_target_db if gamma0_db is None else gamma0_db
    circuit_w = dbm_to_watt(config.users.circuit_power_dbm)
    follower = UserParams(db_to_linear(config.users.fu_sinr_target_db), circuit_w)
    users = (UserParams(db_to_linear(mu_target_db), circuit_w),) + (follower,) * net.num_femtocells
    game = GameInstance(
        gains=np.array(gains),
        users=users,
        action_set=ActionSet.from_dbm(config.users.action_set_dbm),
        bandwidth_hz=net.bandwidth_hz,
        noise_power_w=net.noise_power_w,
    )

    # bounds per user and own power level p, with no interference: the
    # received powers at the top level, the SINR, the rate and the utility
    levels = np.array(game.action_set.levels_w)
    with np.errstate(over="ignore"):
        sinr = np.diag(gains)[:, None] * levels / game.noise_power_w
        rate = net.bandwidth_hz * np.log2(1.0 + sinr)
        bounds = {
            "users.action_set_dbm": (gains * levels[-1]).sum(axis=0),
            "network.noise_power_dbm": sinr,
            "network.bandwidth_hz": rate,
            "users.circuit_power_dbm": rate / (circuit_w + levels),
        }
    for name, bound in bounds.items():
        if not np.isfinite(bound).all():
            raise ConfigError(f"{name}: some SINR or utility of this network overflows")

    keep = list(range(game.num_users))
    reduced = game
    while not leader_feasible(reduced) and len(keep) > 1:
        # silence the active femtocell whose user interferes most at the MBS
        # (the lowest index of a tie)
        keep.remove(max(keep[1:], key=lambda j: game.gains[j, 0]))
        reduced = replace(
            game, gains=game.gains[np.ix_(keep, keep)], users=tuple(game.users[i] for i in keep)
        )

    return PreparedGame(
        game=reduced,
        active=tuple(j in keep for j in range(1, game.num_users)),
        user_ids=tuple(keep),
        unresolved=not leader_feasible(reduced),
    )


def complete_information_reference(game: GameInstance) -> CompleteInfoResult:
    """Iterated exact best responses with every utility function known.

    Sweeps all users from the all-min profile until a fixed point.  If the
    sweep cycles, the visited profile with the highest total utility is
    returned and ``converged`` is cleared.
    """
    utilities = utility_tensor(game)
    n = game.num_users
    visited, converged = iterated_best_response(utilities, (0,) * n, range(n))
    if converged:
        key = visited[-1]
    else:
        key = max(visited, key=lambda p: sum(float(u[p]) for u in utilities))
    return CompleteInfoResult(key, tuple(float(u[key]) for u in utilities), converged)


def learning_rng(base_seed: int, algorithm: str, replicate: int = 0) -> np.random.Generator:
    """Independent, order-insensitive RNG stream per (algorithm, replicate)."""
    ss = np.random.SeedSequence(entropy=base_seed, spawn_key=(ALGORITHMS.index(algorithm), replicate))
    return np.random.default_rng(ss)


def run_experiment(config: ExperimentConfig, prepared: PreparedGame) -> ExperimentResult:
    """Run every requested scheme on ``prepared`` (``build_game(config)``)
    and attach the oracle and complete-information references."""
    traces: dict[str, Trace] = {}
    for algo in config.learning.algorithms:
        # no name holds the engine, so it is freed before the next one is built
        (kept,) = StackelbergLearning(
            [prepared.game], algo, [learning_rng(config.seeds.base_seed, algo)], config.learning
        ).run(config.learning.num_steps, log_every=config.learning.trace_decimation)
        traces[algo] = read_trace(prepared.game, *kept)
    return ExperimentResult(
        prepared=prepared,
        traces=traces,
        oracle=stackelberg_oracle(prepared.game),
        complete_info=complete_information_reference(prepared.game),
    )


def sweep_gamma0(config: ExperimentConfig, algorithms=(RLA1, RLA2)) -> list[SweepResult]:
    """Terminal expected FU SINRs versus the leader's SINR target.

    For each point of ``sweep.gamma0_grid_db`` and each of the
    ``sweep.replicates`` replicates the learned terminal strategies are
    evaluated by exact enumeration over joint actions and averaged over the
    replicates.  Silenced femtocells contribute zero SINR; a point that
    stays infeasible with all of them silenced is flagged ``unresolved``.

    Each point's game is built once.  One engine per (point, algorithm)
    runs the point's replicates in lockstep, replicate r drawing from the
    ``learning_rng(base_seed, algo, r)`` stream.  The sweep reads no trace:
    one ``_expected_rows`` readout of the game's SINR stack under the
    engine's terminal ``strategy_batch`` gives every replicate's expected
    SINRs, so a point builds only its SINR and normalized stacks.
    A point where every femtocell is silenced has no FU SINR to learn: it
    runs no engine and reports zeros.  More replicates than one list of
    games can hold are a ``ConfigError`` on ``sweep.replicates``.
    """
    replicates = config.sweep.replicates
    results = []
    for gamma0_db in config.sweep.gamma0_grid_db:
        prepared = build_game(config, gamma0_db=gamma0_db)
        for algo in algorithms:
            sums = np.zeros(config.network.num_femtocells)
            if prepared.game.num_followers:
                with sized_by("sweep.replicates", f"{replicates} replicates"):
                    games = [prepared.game] * replicates
                rngs = [learning_rng(config.seeds.base_seed, algo, r) for r in range(replicates)]
                engine = StackelbergLearning(games, algo, rngs, config.learning)
                engine.run(config.learning.num_steps, log_every=config.learning.num_steps)
                expected = _expected_rows(sinr_tensor(prepared.game), engine.strategy_batch)
                followers = np.array(prepared.user_ids[1:]) - 1
                for row in expected:  # one row at a time: a one-call sum may reorder the adds
                    sums[followers] += row[1:]
            results.append(
                SweepResult(
                    gamma0_db=float(gamma0_db),
                    algo=algo,
                    fu_expected_sinr_lin=tuple(sums / replicates),
                    active=prepared.active,
                    unresolved=prepared.unresolved,
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
    within 10% of the terminal value (a convergence-speed proxy).  The
    oracle's rows follow the schemes', with steps 0.
    """
    # (algo, user index, terminal utility, steps) per row
    cells = []
    for algo, trace in result.traces.items():
        kept = len(trace.steps)
        for i in range(result.prepared.game.num_users):
            column = trace.expected_utilities[:, i]
            terminal = float(np.mean(column[max(1, math.ceil(kept * 0.9)) - 1 :]))
            near = np.flatnonzero(np.abs(column - terminal) <= 0.1 * abs(terminal))
            cells.append((algo, i, terminal, int(trace.steps[near[0] if near.size else -1])))
    cells += [("oracle", i, utility, 0) for i, utility in enumerate(result.oracle.utilities)]
    ref = result.complete_info.utilities
    return [
        {
            "algo": algo,
            "user": result.prepared.user_ids[i],
            "terminal_expected_utility": terminal,
            "reference_utility": ref[i],
            "ratio_to_reference": terminal / ref[i] if ref[i] > 0 else float("nan"),
            "steps_to_10pct": steps,
        }
        for algo, i, terminal, steps in cells
    ]


# Rows formatted and written at a time, so a CSV's text in memory is one
# block's however long the file.
_BLOCK_ROWS = 4096


def emit_trace_csv(trace: Trace, algo: str, path: str, user_ids) -> None:
    """Trace CSV, step-major / user-minor, one header row, full precision:
    each kept step's sampled and expected values, then its strategy."""
    kept, n, num_actions = trace.strategies.shape
    header = "step,user,algo,action_idx,power_dbm,sinr_lin,utility,expected_utility"
    header += "".join(f",y_{j}" for j in range(num_actions))
    columns = [np.repeat(trace.steps, n), np.tile(user_ids[:n], kept), [algo] * (kept * n)]
    columns += [trace.actions, trace.powers_dbm, trace.sinr_lin, trace.utilities]
    columns += [trace.expected_utilities, *np.moveaxis(trace.strategies, 2, 0)]
    _write_csv(path, header, columns)


def emit_sweep_csv(results: list[SweepResult], path: str) -> None:
    """Sweep CSV, one row per (point, scheme, femtocell) in ``results``
    order: a silenced femtocell reads 0 and ``-inf`` dB, and ``unresolved``
    flags a point infeasible with every femtocell silenced."""
    rows = [(res, k) for res in results for k in range(len(res.fu_expected_sinr_lin))]
    lin = [float(res.fu_expected_sinr_lin[k]) for res, k in rows]
    columns = [
        np.array([res.gamma0_db for res, _ in rows], dtype=float),
        [res.algo for res, _ in rows],
        np.array([k + 1 for _, k in rows], dtype=int),
        np.array(lin, dtype=float),
        np.array([10.0 * math.log10(x) if x > 0 else -math.inf for x in lin], dtype=float),
        np.array([res.active[k] for res, k in rows], dtype=int),
        np.array([res.unresolved for res, _ in rows], dtype=int),
    ]
    header = "gamma0_db,algo,fu_index,expected_sinr_lin,expected_sinr_db,active,unresolved"
    _write_csv(path, header, columns)


def emit_summary_csv(rows: list[dict], path: str) -> None:
    """Summary CSV of ``compare_summary`` rows, each cell ``str`` of its value."""
    header = "algo,user,terminal_expected_utility,reference_utility,ratio_to_reference,steps_to_10pct"
    _write_csv(path, header, [[str(row[key]) for row in rows] for key in header.split(",")])


def emit_dynamics_csv(trajectory: np.ndarray, step_size: float, path: str, user_ids) -> None:
    """Dynamics CSV of a (steps+1, n, M) trajectory, step-major / user-minor;
    step t is at time ``t * step_size``."""
    count, n, num_actions = trajectory.shape
    steps = np.arange(count)
    columns = [np.repeat(steps, n), np.repeat(steps * step_size, n), np.tile(user_ids[:n], count)]
    header = "step,time,user" + "".join(f",y_{j}" for j in range(num_actions))
    _write_csv(path, header, columns + list(np.moveaxis(trajectory, 2, 0)))


def _write_csv(path: str, header: str, columns: list) -> None:
    """Write ``header``, then one row per entry of the equal-length columns,
    creating the directory.  A column is an array, read flat in C order, or
    a list of ready-made cells.  Rows go out ``_BLOCK_ROWS`` at a time, and
    an array column's distinct bit patterns are formatted with ``str`` once
    per block, so ``-0.0``, ``nan`` and ``-inf`` keep their text.  An
    ``OSError`` is raised again as ``failed writing <path>``."""
    columns = [np.ravel(c) if isinstance(c, np.ndarray) else c for c in columns]
    try:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(header + "\n")
            for start in range(0, len(columns[0]), _BLOCK_ROWS):
                block = [_cells(c[start : start + _BLOCK_ROWS]) for c in columns]
                fh.writelines(",".join(row) + "\n" for row in zip(*block))
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc


def _cells(column) -> list[str]:
    """A list of cells as it is, or ``str`` of each entry of a flat array."""
    if not isinstance(column, np.ndarray):
        return column
    values, inverse = np.unique(column.view(f"u{column.itemsize}"), return_inverse=True)
    text = list(map(str, values.view(column.dtype).tolist()))
    return [text[i] for i in inverse.tolist()]
