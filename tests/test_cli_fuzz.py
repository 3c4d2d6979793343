"""End-to-end CLI fuzz: every command, on drawn configs, ends in a
documented exit code and message, never in a traceback or a warning.

Each example draws a small config (1 to 3 femtocells, 1 to 4 power levels,
1 to 50 learning steps) whose values reach the extremes the config accepts,
and runs ``run``, ``sweep``, ``oracle`` and ``dynamics`` on it through
``cli.main`` into a temporary directory.  For each command it checks that

* no exception escapes ``main`` and no warning is raised;
* the exit code is 0, 1, 2 or 3, and a non-zero code prints its documented
  message on stderr;
* on exit 0, every CSV the command writes has its documented header, and
  every number in it is finite except ``expected_sinr_db`` (``-inf`` where
  ``expected_sinr_lin`` is 0, as for a silenced femtocell) and
  ``ratio_to_reference`` (``nan`` where ``reference_utility`` is 0).

The examples are derandomized, so every run checks the same configs.
"""

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stackelearn.cli import main as cli_main
from stackelearn.learning import ALGORITHMS

# the start of stderr for each non-zero exit code
_MESSAGES = {
    1: "config error: ",
    2: "error: leader SINR target infeasible even with all femtocells silenced\n",
    3: "I/O error: ",
}
_HEADERS = {
    "summary": (
        "algo,user,terminal_expected_utility,reference_utility,ratio_to_reference,steps_to_10pct"
    ),
    "sweep": "gamma0_db,algo,fu_index,expected_sinr_lin,expected_sinr_db,active,unresolved",
    "trace": "step,user,algo,action_idx,power_dbm,sinr_lin,utility,expected_utility",
    "dynamics": "step,time,user",
}

# dB and dBm values from well inside the accepted range to its edges, where
# the linear value is about 1e-300 or 1e299
_DB = st.sampled_from([-3000.0, -300.0, -60.0, 0.0, 60.0, 300.0, 2990.0]) | st.floats(-120, 120)


def _increasing(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(sorted)


_CONFIGS = st.fixed_dictionaries(
    {
        "network": st.fixed_dictionaries(
            {"num_femtocells": st.integers(1, 3)},
            optional={
                "bandwidth_hz": st.sampled_from([1e-300, 1.0, 1e6, 1e300]),
                "noise_power_dbm": _DB,
                "macro_radius_m": st.sampled_from([30.0, 500.0, 1e6, 1e150, 1e300]),
                "femto_radius_m": st.sampled_from([2.0, 20.0]),
                "min_separation_m": st.sampled_from([1e-300, 1e-4, 1.0]),
                "path_loss_exponent": st.sampled_from([1e-300, 0.5, 4.0, 30.0, 300.0]),
                "shadowing_sigma_db": st.sampled_from([0.0, 8.0, 100.0, 1e4]),
                "rng_seed": st.integers(0, 2**64 - 1),
            },
        ),
        "users": st.fixed_dictionaries(
            {},
            optional={
                "mu_sinr_target_db": _DB,
                "fu_sinr_target_db": _DB,
                "circuit_power_dbm": _DB,
                "action_set_dbm": _increasing(_DB, 4),
            },
        ),
        "learning": st.fixed_dictionaries(
            {"num_steps": st.integers(1, 50)},
            optional={
                "alpha": st.sampled_from([0.0, 0.5, 1 - 2**-53]),
                "temperature": st.sampled_from([1e-300, 1e-3, 0.05, 1e300]),
                "temperature_decay": st.sampled_from([1e-3, 0.5, 1.0]),
                "belief_factor": st.sampled_from([0.0, 2.0, 1e300]),
                "algorithms": st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True),
                "trace_decimation": st.integers(1, 60),
            },
        ),
        "sweep": st.fixed_dictionaries(
            {"gamma0_grid_db": _increasing(_DB, 3), "replicates": st.integers(1, 2)}
        ),
    },
    optional={"seeds": st.fixed_dictionaries({"base_seed": st.integers(0, 2**64 - 1)})},
)


def _check_csv(path: Path, header: str) -> None:
    lines = path.read_text().splitlines()
    assert lines[0] == header, path
    names = header.split(",")
    for line in lines[1:]:
        row = dict(zip(names, line.split(",")))
        assert len(row) == len(names), (path, line)
        for name, cell in row.items():
            if name == "algo":
                continue
            value = float(cell)
            if name == "expected_sinr_db" and float(row["expected_sinr_lin"]) == 0:
                assert value == -math.inf, (path, line)
            elif name == "ratio_to_reference" and float(row["reference_utility"]) == 0:
                assert math.isnan(value), (path, line)
            else:
                assert math.isfinite(value), (path, name, line)


def _check_outputs(command: str, out: Path, config: dict) -> None:
    num_levels = len(config.get("users", {}).get("action_set_dbm", [20.0, 25.0, 30.0]))
    levels = "".join(f",y_{j}" for j in range(num_levels))
    if command == "run":
        _check_csv(out / "summary.csv", _HEADERS["summary"])
        for algo in config.get("learning", {}).get("algorithms", ALGORITHMS):
            _check_csv(out / f"trace_{algo}.csv", _HEADERS["trace"] + levels)
    elif command == "sweep":
        _check_csv(out / "sweep_gamma0.csv", _HEADERS["sweep"])
    elif command == "dynamics":
        _check_csv(out / "dynamics.csv", _HEADERS["dynamics"] + levels)


@settings(max_examples=250, deadline=None, database=None, derandomize=True)
@given(config=_CONFIGS, dynamics=st.tuples(st.integers(1, 20), st.sampled_from([1e-300, 0.01, 1.0, 1e3])))
# a femto disc no wider than the minimum separation, a path loss whose
# gains underflow to 0, and the feasibility section, which no longer exists
@example(config={"network": {"femto_radius_m": 1.0}}, dynamics=(3, 0.01))
@example(config={"network": {"path_loss_exponent": 300.0}}, dynamics=(3, 0.01))
@example(
    config={
        "users": {"mu_sinr_target_db": 60.0},
        "feasibility": {"enabled": True, "reduction_factor": 1e-300, "max_rounds": 1000},
    },
    dynamics=(3, 0.01),
)
def test_cli_commands_end_in_a_documented_exit(config, dynamics):
    steps, step_size = dynamics
    argvs = {
        "run": ["run"],
        "sweep": ["sweep"],
        "oracle": ["oracle"],
        "dynamics": ["dynamics", "--steps", str(steps), "--step-size", repr(step_size)],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cfg.json")
        path.write_text(json.dumps(config))
        for command, argv in argvs.items():
            out = Path(tmp, command)
            if command != "oracle":
                argv = argv + ["--out", str(out)]
            err = io.StringIO()
            with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
                warnings.simplefilter("error")
                code = cli_main(argv + ["--config", str(path)])
            assert code in (0, 1, 2, 3), (command, code)
            if code:
                assert err.getvalue().startswith(_MESSAGES[code]), (command, err.getvalue())
                assert err.getvalue().count("\n") == 1, (command, err.getvalue())
            else:
                assert err.getvalue() == "", command
                _check_outputs(command, out, config)
