"""Workloads of the benchmark and the inputs each seed generates.

A workload is a config (written as JSON) plus the CLI commands run on it, in
order, in one fresh process.  ``--seed`` sets the learning base seed and picks
the network topology.  The seed's own number is tried as the topology seed
first; if its game does not have the workload's size (a femtocell silenced by
the leader-protection protocol, which makes every step cheaper), derived
topology seeds are tried in turn.  So every seed runs a game of the same size,
and a faster run cannot come from a smaller game.  ``--seed 44`` gives the
package's default network.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 44
MAX_TOPOLOGY_CANDIDATES = 10_000

# ``sweep_gamma0`` runs these two schemes whatever ``learning.algorithms`` says.
SWEEP_ALGORITHMS = ("rla1", "rla2")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    commands: tuple[tuple[str, ...], ...]
    # Active femtocells the game must have: ``game_active`` at the configured
    # leader target (run, oracle, dynamics), ``sweep_active`` at each sweep point.
    game_active: int | None = None
    sweep_active: tuple[int, ...] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-default",
            why="sweep on the default game: 210k learning steps, tiny tensors; "
            "stresses the step loop and replicate handling",
            # The sweep runs rla1 and rla2 today; naming them keeps the work
            # fixed if the sweep starts to follow ``learning.algorithms``.
            config={"learning": {"algorithms": list(SWEEP_ALGORITHMS)}},
            commands=(("sweep",),),
            # The default topology (seed 44) loses femtocells as the leader
            # target rises over the 0..30 dB grid.
            sweep_active=(2, 2, 1, 1, 0, 0, 0),
        ),
        Workload(
            name="session-fulltrace",
            why="run with every step logged, dynamics and oracle on the default game; "
            "stresses trace records, CSV output and per-call field overhead",
            config={"learning": {"trace_decimation": 1}},
            commands=(("run",), ("dynamics", "--steps", "2000"), ("oracle",)),
            game_active=2,
        ),
        Workload(
            name="scale-n5m5",
            why="oracle, short run and dynamics on 5 femtocells x 5 levels (3,125 profiles); "
            "stresses tensor builds, the oracle and tensor contractions",
            config={
                "network": {"num_femtocells": 5},
                "users": {
                    "action_set_dbm": [14.0, 18.0, 22.0, 26.0, 30.0],
                    "mu_sinr_target_db": -20.0,
                },
                "learning": {"num_steps": 200},
            },
            commands=(("oracle",), ("run",), ("dynamics", "--steps", "200")),
            game_active=5,
        ),
        # Not in BENCHMARK.json: a seconds-long run of all four commands for
        # the self-test, so that every layer is exercised.
        Workload(
            name="selftest-tiny",
            why="all four commands on a tiny budget",
            config={
                "learning": {"num_steps": 40, "trace_decimation": 1},
                "sweep": {"gamma0_grid_db": [0.0, 5.0], "replicates": 1},
            },
            commands=(("run",), ("sweep",), ("dynamics", "--steps", "20"), ("oracle",)),
            game_active=2,
            sweep_active=(2, 2),
        ),
    )
}


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


def topology_candidates(seed: int):
    """The seed itself, then topology seeds derived from (seed, k)."""
    yield seed
    for k in range(1, MAX_TOPOLOGY_CANDIDATES):
        yield int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint32)[0])


def _has_workload_size(workload: Workload, raw: dict) -> bool:
    from stackelearn import build_game, parse_config

    config = parse_config(raw)
    if workload.game_active is not None:
        if sum(build_game(config).active) != workload.game_active:
            return False
    if workload.sweep_active is not None:
        sweep_active = tuple(
            sum(build_game(config, gamma0_db=g).active) for g in config.sweep.gamma0_grid_db
        )
        if sweep_active != workload.sweep_active:
            return False
    return True


def make_config(workload: Workload, seed: int, out_dir: str) -> dict:
    """The raw config for ``seed``: the first candidate topology whose game
    has the workload's size."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    for rng_seed in topology_candidates(seed):
        raw = _merge(
            workload.config,
            {
                "network": {"rng_seed": rng_seed},
                "seeds": {"base_seed": seed},
                "output": {"directory": out_dir},
            },
        )
        if _has_workload_size(workload, raw):
            return raw
    raise ValueError(f"no topology of the size {workload.name} needs for seed {seed}")


def expected_steps(workload: Workload, raw: dict) -> int:
    """Learning steps the workload's ``run`` and ``sweep`` commands take."""
    from stackelearn import parse_config

    config = parse_config(raw)
    steps = 0
    for command in workload.commands:
        if command[0] == "run":
            steps += config.learning.num_steps * len(config.learning.algorithms)
        elif command[0] == "sweep":
            steps += (
                config.learning.num_steps
                * len(SWEEP_ALGORITHMS)
                * len(config.sweep.gamma0_grid_db)
                * config.sweep.replicates
            )
    return steps
