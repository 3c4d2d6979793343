"""Command-line front end.

Subcommands: ``run`` (learning traces + summary), ``sweep`` (leader-target
sweep), ``oracle`` (print the Stackelberg equilibrium), ``dynamics`` (ODE
trajectory export).  ``main`` loads the config and applies ``--out``
before any command runs.  Exit codes: 0 success, 1 config or usage error, 2
unresolved infeasibility, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .channel import sized_by, watt_to_dbm
from .config import ConfigError, load_config
from .dynamics import FieldTensors, integrate_dynamics
from .game import normalized_utility_tensors, stackelberg_oracle
from .harness import (
    build_game,
    compare_summary,
    emit_dynamics_csv,
    emit_summary_csv,
    emit_sweep_csv,
    emit_trace_csv,
    run_experiment,
    sweep_gamma0,
)
from .learning import ALGORITHMS

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are config errors (exit 1, not
    argparse's 2, which would read as an infeasible leader target); the
    subcommand parsers are of the same class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stackelearn")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the learning schemes and emit traces")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None, help="override the base seed")
    run.add_argument("--algo", choices=ALGORITHMS, help="run one scheme, not learning.algorithms")
    run.add_argument("--out", default=None, help="override the output directory")

    sweep = sub.add_parser("sweep", help="sweep the leader SINR target")
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--from", dest="from_db", type=float, default=None)
    sweep.add_argument("--to", dest="to_db", type=float, default=None)
    sweep.add_argument("--points", type=int, default=None)
    sweep.add_argument("--replicates", type=int, default=None)
    sweep.add_argument("--out", default=None)

    oracle = sub.add_parser("oracle", help="print the Stackelberg equilibrium")
    oracle.add_argument("--config", required=True)

    dynamics = sub.add_parser("dynamics", help="integrate the strategy ODE from uniform")
    dynamics.add_argument("--config", required=True)
    dynamics.add_argument("--steps", type=int, default=2000)
    dynamics.add_argument("--step-size", type=float, default=0.01)
    dynamics.add_argument("--out", default=None)
    return parser


def _override(config, section: str, flag: str, **changes):
    """The config with fields of one section replaced, through the section's
    own checks: the CLI's one way to change a setting (the config and its
    sections are frozen)."""
    try:
        return replace(config, **{section: replace(getattr(config, section), **changes)})
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


class _Unresolved(Exception):
    """The leader's SINR target is infeasible even with every femtocell silenced."""


def _resolved_game(config):
    """``build_game(config)``; raises ``_Unresolved`` (exit 2) when the
    protection protocol cannot make the leader feasible."""
    prepared = build_game(config)
    if prepared.unresolved:
        raise _Unresolved
    return prepared


def _cmd_run(args, config) -> int:
    if args.seed is not None:
        config = _override(config, "seeds", "run --seed", base_seed=args.seed)
    if args.algo is not None:
        config = _override(config, "learning", "run --algo", algorithms=(args.algo,))

    prepared = _resolved_game(config)
    result = run_experiment(config, prepared)

    outdir = config.output.directory
    for algo, trace in result.traces.items():
        emit_trace_csv(
            trace, algo, os.path.join(outdir, f"trace_{algo}.csv"), user_ids=result.prepared.user_ids
        )
    rows = compare_summary(result)
    emit_summary_csv(rows, os.path.join(outdir, "summary.csv"))

    silenced = [k + 1 for k, a in enumerate(result.prepared.active) if not a]
    if silenced:
        print(f"silenced femtocells: {silenced}")
    print(f"{'algo':>8} {'user':>4} {'terminal_eu':>14} {'ratio_to_ref':>12} {'steps_to_10pct':>14}")
    for row in rows:
        print(
            f"{row['algo']:>8} {row['user']:>4} {row['terminal_expected_utility']:>14.6g} "
            f"{row['ratio_to_reference']:>12.4g} {row['steps_to_10pct']:>14}"
        )
    return EXIT_OK


def _cmd_sweep(args, config) -> int:
    if args.from_db is not None or args.to_db is not None or args.points is not None:
        if args.from_db is None or args.to_db is None or args.points is None:
            raise ConfigError("sweep: --from, --to and --points must be given together")
        if args.points < 2:
            raise ConfigError("sweep --points: must be >= 2")
        if not (math.isfinite(args.from_db) and math.isfinite(args.to_db)):
            raise ConfigError("sweep --from/--to: must be finite")
        with sized_by("sweep --from/--to/--points", f"{args.points} points"):
            # near 2^63 points ``np.linspace`` raises an IndexError, not a size error
            np.empty((args.points, 0))
            grid = tuple(np.linspace(args.from_db, args.to_db, args.points).tolist())
        config = _override(config, "sweep", "sweep --from/--to/--points", gamma0_grid_db=grid)
    if args.replicates is not None:
        config = _override(config, "sweep", "sweep --replicates", replicates=args.replicates)
    results = sweep_gamma0(config)
    path = os.path.join(config.output.directory, "sweep_gamma0.csv")
    emit_sweep_csv(results, path)
    print(f"wrote {path} ({len(results)} sweep rows)")
    return EXIT_OK


def _cmd_oracle(args, config) -> int:
    prepared = _resolved_game(config)
    se = stackelberg_oracle(prepared.game)
    profile = (se.leader_action_index,) + se.follower_action_indices
    powers_w = prepared.game.powers_from_indices(profile)
    print(f"pure follower NE everywhere: {se.is_pure_se}")
    for reduced, uid in enumerate(prepared.user_ids):
        power_dbm = watt_to_dbm(powers_w[reduced])
        role = "MU" if uid == 0 else f"FU{uid}"
        print(
            f"{role}: action {profile[reduced]} ({power_dbm:.1f} dBm), "
            f"utility {se.utilities[reduced]:.6g} bit/s/W"
        )
    for k, a in enumerate(prepared.active):
        if not a:
            print(f"FU{k + 1}: silenced (leader infeasibility protocol)")
    return EXIT_OK


def _cmd_dynamics(args, config) -> int:
    if not (math.isfinite(args.step_size) and args.step_size > 0):
        raise ConfigError("dynamics --step-size: must be finite and > 0")
    if args.steps < 1:
        raise ConfigError("dynamics --steps: must be >= 1")
    prepared = _resolved_game(config)
    game = prepared.game
    m = len(game.action_set)
    initial = np.full((game.num_users, m), 1.0 / m)
    trajectory = integrate_dynamics(
        initial,
        FieldTensors(normalized_utility_tensors(game)),
        config.learning.alpha,
        config.learning.temperature,
        args.step_size,
        args.steps,
    )
    path = os.path.join(config.output.directory, "dynamics.csv")
    emit_dynamics_csv(trajectory, args.step_size, path, user_ids=prepared.user_ids)
    print(f"wrote {path} ({len(trajectory)} profiles)")
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "oracle": _cmd_oracle,
        "dynamics": _cmd_dynamics,
    }
    try:
        args = _build_parser().parse_args(argv)
        config = load_config(args.config)
        if getattr(args, "out", None) is not None:  # oracle has no --out
            config = _override(config, "output", "--out", directory=args.out)
        return handlers[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _Unresolved:
        print("error: leader SINR target infeasible even with all femtocells silenced", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
