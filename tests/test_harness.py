import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stackelearn as sl
from stackelearn.cli import main as cli_main
from stackelearn.config import ConfigError, default_config, load_config, parse_config
from stackelearn.harness import (
    build_game,
    compare_summary,
    complete_information_reference,
    emit_sweep_csv,
    emit_trace_csv,
    learning_rng,
    run_experiment,
    sweep_gamma0,
)
from stackelearn.game import best_response, leader_feasible, utility
from stackelearn.learning import AUTO_TEMPERATURE_FRACTION, full_expected_utility


# ---------------------------------------------------------------------------
# config


def test_default_config_values(default_cfg):
    cfg = default_cfg
    assert cfg.network.bandwidth_hz == 1e6
    assert cfg.network.noise_power_w == pytest.approx(1e-14, rel=1e-12)
    assert cfg.network.num_femtocells == 2
    assert cfg.users.mu_sinr_target_db == 3.0
    assert cfg.users.fu_sinr_target_db == 5.0
    assert cfg.users.action_set_dbm == (20.0, 25.0, 30.0)
    assert cfg.learning.alpha == 0.1
    assert cfg.learning.temperature == AUTO_TEMPERATURE_FRACTION
    assert cfg.learning.num_steps == 5000
    assert cfg.sweep.replicates == 3
    assert cfg.feasibility.enabled is False
    users = build_game(cfg).game.users
    assert users[0].sinr_target_lin == pytest.approx(sl.db_to_linear(3.0))
    assert users[1].sinr_target_lin == pytest.approx(sl.db_to_linear(5.0))


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="top level"):
        parse_config({"netwrok": {}})
    with pytest.raises(ConfigError, match="network"):
        parse_config({"network": {"bandwidht_hz": 1e6}})
    with pytest.raises(ConfigError, match="learning"):
        parse_config({"learning": {"alpha": 0.1, "lr": 0.1}})


@pytest.mark.parametrize(
    "section,key,value,match",
    [
        ("learning", "alpha", 1.5, "alpha"),
        ("learning", "temperature", -0.1, "temperature"),
        ("learning", "temperature_decay", 0.0, "temperature_decay"),
        ("learning", "num_steps", 0, "num_steps"),
        ("learning", "algorithms", ["qlearn"], "algorithms"),
        ("learning", "trace_decimation", 0, "trace_decimation"),
        ("sweep", "gamma0_grid_db", [5.0, 5.0], "gamma0_grid_db"),
        ("sweep", "replicates", 0, "replicates"),
        ("users", "action_set_dbm", [30.0, 20.0], "action_set_dbm"),
        ("users", "mu_sinr_target_db", "high", "mu_sinr_target_db"),
        ("feasibility", "reduction_factor", 1.0, "reduction_factor"),
        ("seeds", "base_seed", -1, "base_seed"),
        # once coerced, or escaping as another exception
        ("learning", "num_steps", None, "learning.num_steps"),
        ("network", "num_femtocells", 2.9, "network.num_femtocells"),
        ("feasibility", "enabled", "false", "feasibility.enabled"),
        ("learning", "trace_decimation", True, "learning.trace_decimation"),
        ("sweep", "replicates", True, "sweep.replicates"),
        ("network", "rng_seed", False, "network.rng_seed"),
        ("seeds", "replicate_offsets", [0, -1], "seeds.replicate_offsets"),
        ("seeds", "replicate_offsets", [0.5], "seeds.replicate_offsets"),
        ("output", "emit_trace", 0, "output.emit_trace"),
        ("learning", "belief_factor", True, "learning.belief_factor"),
        ("users", "circuit_power_dbm", "10", "users.circuit_power_dbm"),
        pytest.param("network", "noise_power_dbm", 10**400, "network.noise_power_dbm",
                     id="network-noise_power_dbm-huge-int"),
        ("learning", "algorithms", 3, "learning.algorithms"),
        ("output", "directory", 7, "output.directory"),
        # dB/dBm values without a finite, positive linear value
        *[
            pytest.param("users", key, sign * 1e308, f"users.{key}", id=f"users-{key}-{sign}e308")
            for key in ("mu_sinr_target_db", "fu_sinr_target_db", "circuit_power_dbm")
            for sign in (1, -1)
        ],
        pytest.param("users", "action_set_dbm", [1e308], "users.action_set_dbm",
                     id="users-action_set_dbm-1e308"),
        pytest.param("users", "action_set_dbm", [-1e308], "users.action_set_dbm",
                     id="users-action_set_dbm--1e308"),
        # strictly increasing in dBm, equal in watts
        ("users", "action_set_dbm", [123.456, 123.45600000000002], "users.action_set_dbm"),
        ("sweep", "gamma0_grid_db", [0, 1e308], "sweep.gamma0_grid_db"),
        # the last temperature underflows (the Boltzmann step then writes NaN)
        ("learning", "temperature", 1e-320, "learning.temperature"),
        pytest.param("learning", None, {"temperature_decay": 0.5, "num_steps": 1200},
                     "learning.temperature", id="learning-temperature-decays-to-0"),
    ],
)
def test_parse_config_validates_values(section, key, value, match):
    # key None: value holds several fields of the section
    with pytest.raises(ConfigError, match=match):
        parse_config({section: value if key is None else {key: value}})


_CONFIG_FIELDS = [
    (section, key)
    for section, keys in {
        "network": ["bandwidth_hz", "noise_power_dbm", "num_femtocells", "macro_radius_m",
                    "femto_radius_m", "path_loss_exponent", "rng_seed", "min_separation_m",
                    "shadowing_sigma_db"],
        "users": ["mu_sinr_target_db", "fu_sinr_target_db", "circuit_power_dbm", "action_set_dbm"],
        "learning": ["alpha", "temperature", "temperature_decay", "belief_factor", "num_steps",
                     "algorithms", "trace_decimation"],
        "sweep": ["gamma0_grid_db", "replicates"],
        "seeds": ["base_seed", "replicate_offsets"],
        "feasibility": ["enabled", "reduction_factor", "max_rounds"],
        "output": ["directory", "emit_trace", "emit_summary"],
    }.items()
    for key in keys + [None]
]
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["auto", "rla1", "noncoop"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=400, deadline=None, database=None)
@given(field=st.sampled_from(_CONFIG_FIELDS), value=_JSON_VALUES)
def test_parse_config_any_json_value_is_config_or_config_error(field, value):
    section, key = field  # key None: the value replaces the whole section
    try:
        parse_config({section: value if key is None else {key: value}})
    except ConfigError:
        pass


_DB_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-400, 400)


@settings(max_examples=300, deadline=None, database=None)
@given(
    users=st.fixed_dictionaries(
        {},
        optional={
            "mu_sinr_target_db": _DB_VALUES,
            "fu_sinr_target_db": _DB_VALUES,
            "circuit_power_dbm": _DB_VALUES,
            "action_set_dbm": st.lists(_DB_VALUES, min_size=1, max_size=4),
        },
    ),
    grid=st.lists(_DB_VALUES, min_size=1, max_size=3),
)
def test_accepted_radio_values_build_a_game(users, grid):
    # what parse_config accepts in these sections, build_game can convert
    try:
        cfg = parse_config({"users": users, "sweep": {"gamma0_grid_db": grid}})
    except ConfigError:
        return
    build_game(cfg)
    for gamma0_db in cfg.sweep.gamma0_grid_db:
        build_game(cfg, gamma0_db=gamma0_db)


def test_parse_config_temperature_auto():
    cfg = parse_config({"learning": {"temperature": "auto"}})
    assert cfg.learning.temperature == AUTO_TEMPERATURE_FRACTION
    cfg = parse_config({"learning": {"temperature": 0.2}})
    assert cfg.learning.temperature == 0.2


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seeds": {"base_seed": 99}, "learning": {"num_steps": 42}}))
    cfg = load_config(str(path))
    assert cfg.seeds.base_seed == 99
    assert cfg.learning.num_steps == 42


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(path))


def test_default_config_overrides():
    cfg = default_config(network={"num_femtocells": 3}, learning={"num_steps": 7})
    assert cfg.network.num_femtocells == 3
    assert cfg.learning.num_steps == 7


# ---------------------------------------------------------------------------
# game building / protection protocol


def test_build_game_deterministic(default_cfg, prepared):
    again = build_game(default_cfg)
    assert np.array_equal(again.game.gains, prepared.game.gains)
    assert again.active == prepared.active
    assert again.user_ids == prepared.user_ids


def test_build_game_default_instance(prepared):
    # the default seed produces a fully active, feasible instance
    assert prepared.active == (True, True)
    assert prepared.user_ids == (0, 1, 2)
    assert not prepared.unresolved
    assert prepared.feasibility is None
    assert leader_feasible(prepared.game, 0)


def test_build_game_silences_interferers(default_cfg):
    # a brutal leader target forces the protection protocol to bite
    cfg = default_config(users={"mu_sinr_target_db": 3.0})
    hard = build_game(cfg, gamma0_db=60.0)
    assert hard.active != (True, True) or hard.unresolved
    # silenced users are dropped from the reduced game in order
    expected_ids = (0,) + tuple(k + 1 for k, a in enumerate(hard.active) if a)
    assert hard.user_ids == expected_ids
    assert hard.game.num_users == 1 + sum(hard.active)
    # leader target in the reduced game reflects the sweep override
    assert hard.game.users[0].sinr_target_lin == pytest.approx(sl.db_to_linear(60.0))


def test_build_game_unresolved_flag():
    # leader infeasible even alone -> every femtocell silenced, flag set
    cfg = default_config()
    hard = build_game(cfg, gamma0_db=200.0)
    assert hard.unresolved
    assert hard.active == (False, False)
    assert hard.game.num_users == 1


def test_build_game_feasibility_rounds():
    cfg = default_config(feasibility={"enabled": True, "reduction_factor": 0.5, "max_rounds": 2})
    out = build_game(cfg, gamma0_db=60.0)
    assert out.feasibility is not None
    assert 0 <= out.feasibility.rounds_applied <= 2


# ---------------------------------------------------------------------------
# references and rng streams


def test_complete_information_reference_fixed_point(desk_game):
    ref = complete_information_reference(desk_game)
    if ref.converged:
        for i in range(desk_game.num_users):
            assert best_response(i, ref.action_indices, desk_game) == ref.action_indices[i]
    powers = desk_game.powers_from_indices(ref.action_indices)
    assert ref.utilities == tuple(
        utility(i, powers, desk_game) for i in range(desk_game.num_users)
    )


def test_learning_rng_streams_are_independent():
    a = learning_rng(44, sl.RLA1, replicate=0).random(8)
    b = learning_rng(44, sl.RLA1, replicate=0).random(8)
    assert np.array_equal(a, b)
    c = learning_rng(44, sl.RLA2, replicate=0).random(8)
    d = learning_rng(44, sl.RLA1, replicate=1).random(8)
    e = learning_rng(45, sl.RLA1, replicate=0).random(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


# ---------------------------------------------------------------------------
# experiments, sweeps and CSV output


@pytest.fixture(scope="module")
def small_cfg():
    return default_config(
        learning={"num_steps": 300, "trace_decimation": 10},
        sweep={"gamma0_grid_db": [0.0, 15.0, 30.0], "replicates": 1},
    )


@pytest.fixture(scope="module")
def small_result(small_cfg):
    return run_experiment(small_cfg)


def test_run_experiment_structure(small_result, small_cfg):
    res = small_result
    assert set(res.traces) == set(small_cfg.learning.algorithms)
    for algo, records in res.traces.items():
        assert records[0].step == 0
        assert records[-1].step == small_cfg.learning.num_steps - 1
        assert len(res.terminal_strategies[algo]) == res.prepared.game.num_users
        for y in res.terminal_strategies[algo]:
            assert abs(y.sum() - 1.0) < 1e-9
    assert res.oracle.utilities[0] >= 0


def test_compare_summary_rows(small_result):
    rows = compare_summary(small_result)
    n = small_result.prepared.game.num_users
    algos = set(small_result.traces) | {"oracle"}
    assert len(rows) == len(algos) * n
    for row in rows:
        assert row["algo"] in algos
        assert row["terminal_expected_utility"] >= 0
        assert row["steps_to_10pct"] >= 0


def test_trace_csv_shape(small_result, tmp_path):
    records = small_result.traces[sl.RLA1]
    path = tmp_path / "trace.csv"
    emit_trace_csv(records, sl.RLA1, str(path), user_ids=small_result.prepared.user_ids)
    lines = path.read_text().strip().split("\n")
    n = small_result.prepared.game.num_users
    assert lines[0].startswith("step,user,algo,action_idx,power_dbm,sinr_lin,utility,expected_utility")
    assert lines[0].endswith(",y_0,y_1,y_2")
    assert len(lines) == 1 + len(records) * n
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == sl.RLA1
    # full-precision floats survive a round trip
    assert float(first[4]) in [20.0, 25.0, 30.0]
    y = [float(x) for x in first[-3:]]
    assert sum(y) == pytest.approx(1.0, abs=1e-12)


def test_sweep_results_and_csv(small_cfg, tmp_path):
    results = sweep_gamma0(small_cfg, algorithms=(sl.RLA1,))
    grid = small_cfg.sweep.gamma0_grid_db
    assert len(results) == len(grid)
    assert [r.gamma0_db for r in results] == list(grid)
    for r in results:
        assert len(r.fu_expected_sinr_lin) == small_cfg.network.num_femtocells
        for k, lin in enumerate(r.fu_expected_sinr_lin):
            assert lin >= 0
            if not r.active[k]:
                assert lin == 0.0
    path = tmp_path / "sweep.csv"
    emit_sweep_csv(results, str(path))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "gamma0_db,algo,fu_index,expected_sinr_lin,expected_sinr_db,active"
    assert len(lines) == 1 + len(results) * small_cfg.network.num_femtocells
    # a silenced follower serializes as -inf dB
    for line in lines[1:]:
        fields = line.split(",")
        if fields[5] == "0":
            assert fields[3] == "0.0" and fields[4] == "-inf"


def test_sweep_replicate_offsets():
    cfg = default_config(
        learning={"num_steps": 50},
        sweep={"gamma0_grid_db": [3.0], "replicates": 2},
        seeds={"replicate_offsets": [5, 9]},
    )
    a = sweep_gamma0(cfg, algorithms=(sl.RLA1,))
    b = sweep_gamma0(cfg, algorithms=(sl.RLA1,))
    assert a[0].fu_expected_sinr_lin == b[0].fu_expected_sinr_lin


def test_sweep_averages_over_the_replicates_it_ran():
    # one offset for three requested replicates: the sweep runs one replicate
    # and must report its value, not a third of it
    short = default_config(
        learning={"num_steps": 50},
        sweep={"gamma0_grid_db": [3.0], "replicates": 3},
        seeds={"replicate_offsets": [0]},
    )
    single = default_config(
        learning={"num_steps": 50},
        sweep={"gamma0_grid_db": [3.0], "replicates": 1},
    )
    got = sweep_gamma0(short, algorithms=(sl.RLA1,))[0].fu_expected_sinr_lin
    want = sweep_gamma0(single, algorithms=(sl.RLA1,))[0].fu_expected_sinr_lin
    assert got == want
    assert any(x > 0 for x in got)


def test_sweep_replicates_match_separate_runs():
    cfg = default_config(
        learning={"num_steps": 80},
        sweep={"gamma0_grid_db": [0.0], "replicates": 2},
        seeds={"replicate_offsets": [4, 7]},
    )
    prepared = build_game(cfg, gamma0_db=0.0)
    sums = np.zeros(cfg.network.num_femtocells)
    for r in (4, 7):
        engine = sl.StackelbergLearning(
            prepared.game,
            sl.RLA2,
            [learning_rng(cfg.seeds.base_seed, sl.RLA2, replicate=r)],
            cfg.learning,
        )
        engine.run(80, log_every=80)
        for reduced in range(1, prepared.game.num_users):
            sums[prepared.user_ids[reduced] - 1] += full_expected_utility(
                engine.sinr_tensors[reduced], engine.strategies[0]
            )
    result = sweep_gamma0(cfg, algorithms=(sl.RLA2,))[0]
    assert result.fu_expected_sinr_lin == tuple(sums / 2)


# ---------------------------------------------------------------------------
# CLI


def _write_cfg(tmp_path, name="cfg.json", **raw):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_run(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        learning={"num_steps": 60, "trace_decimation": 10, "algorithms": ["rla1"]},
        output={"directory": str(tmp_path / "out")},
    )
    assert cli_main(["run", "--config", cfg]) == 0
    assert (tmp_path / "out" / "trace_rla1.csv").exists()
    assert (tmp_path / "out" / "summary.csv").exists()
    out = capsys.readouterr().out
    assert "rla1" in out and "oracle" in out


def test_cli_run_algo_filter(tmp_path):
    cfg = _write_cfg(
        tmp_path,
        learning={"num_steps": 30},
        output={"directory": str(tmp_path / "out2")},
    )
    assert cli_main(["run", "--config", cfg, "--algo", "noncoop"]) == 0
    assert (tmp_path / "out2" / "trace_noncoop.csv").exists()
    assert not (tmp_path / "out2" / "trace_rla1.csv").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, learning={"alpha": 2.0})
    assert cli_main(["run", "--config", cfg]) == 1
    assert "config error" in capsys.readouterr().err


def test_cli_missing_config_io_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli_main(["run", "--config", missing]) == 3


def test_cli_infeasible_exit_code(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        users={"mu_sinr_target_db": 200.0},
        learning={"num_steps": 10},
        output={"directory": str(tmp_path / "out3")},
    )
    assert cli_main(["run", "--config", cfg]) == 2
    assert "infeasible" in capsys.readouterr().err


def test_cli_oracle(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert cli_main(["oracle", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "MU" in out and "FU1" in out and "bit/s/W" in out


def test_cli_sweep_custom_grid(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        learning={"num_steps": 40},
        output={"directory": str(tmp_path / "outs")},
    )
    rc = cli_main(
        ["sweep", "--config", cfg, "--from", "0", "--to", "10", "--points", "3",
         "--replicates", "1"]
    )
    assert rc == 0
    lines = (tmp_path / "outs" / "sweep_gamma0.csv").read_text().strip().split("\n")
    gammas = sorted({float(l.split(",")[0]) for l in lines[1:]})
    assert gammas == [0.0, 5.0, 10.0]


def test_cli_sweep_partial_grid_flags_rejected(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert cli_main(["sweep", "--config", cfg, "--from", "0"]) == 1


def test_cli_dynamics(tmp_path):
    cfg = _write_cfg(tmp_path, output={"directory": str(tmp_path / "outd")})
    assert cli_main(["dynamics", "--config", cfg, "--steps", "20"]) == 0
    lines = (tmp_path / "outd" / "dynamics.csv").read_text().strip().split("\n")
    assert lines[0] == "step,time,user,y_0,y_1,y_2"
    assert len(lines) == 1 + 21 * 3


def test_cli_run_negative_seed_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, learning={"num_steps": 10}, output={"directory": str(tmp_path / "o")})
    assert cli_main(["run", "--config", cfg, "--seed", "-1"]) == 1
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("step_size", ["0", "-0.5", "nan"])
def test_cli_dynamics_bad_step_size_is_config_error(tmp_path, capsys, step_size):
    cfg = _write_cfg(tmp_path, output={"directory": str(tmp_path / "o")})
    assert cli_main(["dynamics", "--config", cfg, "--step-size", step_size]) == 1
    assert "--step-size" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_cli_dynamics_bad_steps_is_config_error(tmp_path, capsys, steps):
    cfg = _write_cfg(tmp_path, output={"directory": str(tmp_path / "o")})
    assert cli_main(["dynamics", "--config", cfg, "--steps", steps]) == 1
    assert "--steps" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_sweep_grid_goes_through_config_checks(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, output={"directory": str(tmp_path / "o")})
    assert cli_main(["sweep", "--config", cfg, "--from", "0", "--to", "1e308", "--points", "2"]) == 1
    assert "--to" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_dynamics_divergence_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, learning={"temperature": 1e-305},
                     output={"directory": str(tmp_path / "o")})
    code = cli_main(["dynamics", "--config", cfg, "--steps", "5", "--step-size", "1e6"])
    assert code == 1
    err = capsys.readouterr().err
    # numpy's floating-point warnings stay silent: the message is the only line
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "dynamics --step-size" in err and "step 0" in err
    assert not (tmp_path / "o").exists()


def test_cli_dynamics_overshoot_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, output={"directory": str(tmp_path / "o")})
    assert cli_main(["dynamics", "--config", cfg, "--steps", "3", "--step-size", "1e6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: dynamics --step-size") and "step 0" in err
    assert not (tmp_path / "o").exists()


def test_cli_sweep_zero_replicates_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, output={"directory": str(tmp_path / "o")})
    assert cli_main(["sweep", "--config", cfg, "--replicates", "0"]) == 1
    assert "--replicates" in capsys.readouterr().err
