import dataclasses
import json
import math
import os
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stackelearn as sl
import stackelearn.game as game_mod
from stackelearn import harness
from stackelearn.cli import main as cli_main
from stackelearn.dynamics import FieldTensors, integrate_dynamics
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
from stackelearn.game import leader_feasible, sinr_tensor, utility

from reference import best_response, full_expected_utility


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
    assert cfg.learning.temperature == 0.05
    assert cfg.learning.num_steps == 5000
    assert cfg.sweep.replicates == 3
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
        # larger coordinates overflow when squared
        ("network", "macro_radius_m", 1e300, "macro_radius_m"),
        ("seeds", "base_seed", -1, "base_seed"),
        # once coerced, or escaping as another exception
        ("learning", "num_steps", None, "learning.num_steps"),
        ("network", "num_femtocells", 2.9, "network.num_femtocells"),
        ("output", "directory", True, "output.directory"),
        ("learning", "trace_decimation", True, "learning.trace_decimation"),
        ("sweep", "replicates", True, "sweep.replicates"),
        ("network", "rng_seed", False, "network.rng_seed"),
        # no field is nullable, in a list either
        ("seeds", "base_seed", None, "seeds.base_seed"),
        ("output", "directory", None, "output.directory"),
        ("sweep", "gamma0_grid_db", [0.0, None], "sweep.gamma0_grid_db"),
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
        # each scheme's trace is keyed by its name, so a repeat would replace one
        ("learning", "algorithms", ["rla1", "rla1"], "learning.algorithms: 'rla1' is listed twice"),
        ("learning", "algorithms", ["rla2", "noncoop", "rla2"], "learning.algorithms"),
        # a femto user's offset rounds away against coordinates this large
        ("network", "macro_radius_m", 1e20, "network.macro_radius_m"),
        # os.path.join("", name) would write into the working directory
        ("output", "directory", "", "^output.directory: must not be empty$"),
    ],
)
def test_parse_config_validates_values(section, key, value, match):
    # key None: value holds several fields of the section
    with pytest.raises(ConfigError, match=match):
        parse_config({section: value if key is None else {key: value}})


@pytest.mark.parametrize(
    "section,key,value,match",
    [
        # the sweep runs streams range(sweep.replicates), and run writes every CSV
        ("seeds", "replicate_offsets", [0], r"^seeds: unknown key\(s\) \['replicate_offsets'\]$"),
        ("output", "emit_trace", False, r"^output: unknown key\(s\) \['emit_trace'\]$"),
        ("output", "emit_summary", False, r"^output: unknown key\(s\) \['emit_summary'\]$"),
        # a temperature is a number; leaving it out gives the default
        ("learning", "temperature", "auto", "^learning.temperature: expected float, got 'auto'$"),
        ("learning", "temperature", None, "^learning.temperature: expected float, got None$"),
    ],
)
def test_parse_config_rejects_removed_settings(section, key, value, match):
    with pytest.raises(ConfigError, match=match):
        parse_config({section: {key: value}})


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
        "seeds": ["base_seed"],
        "output": ["directory"],
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
# a 10 dB MU target silences femtocell 1, and 20 dB silences both
@example(users={"mu_sinr_target_db": 10}, grid=[20])
def test_accepted_radio_values_build_a_game(users, grid):
    # what parse_config accepts in these sections, build_game can convert
    try:
        cfg = parse_config({"users": users, "sweep": {"gamma0_grid_db": grid}})
    except ConfigError:
        return
    for gamma0_db in (None,) + cfg.sweep.gamma0_grid_db:
        game = build_game(cfg, gamma0_db=gamma0_db).game
        # silencing leaves every user on the one grid
        assert len(set(game.action_dims)) == 1


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seeds": {"base_seed": 99}, "learning": {"num_steps": 42}}))
    cfg = load_config(str(path))
    assert cfg.seeds.base_seed == 99
    assert cfg.learning.num_steps == 42


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    for data in (b"{not json", b"\xff\xfe{}"):  # the second is not UTF-8
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))


def test_default_config_overrides():
    cfg = default_config(network={"num_femtocells": 3}, learning={"num_steps": 7})
    assert cfg.network.num_femtocells == 3
    assert cfg.learning.num_steps == 7


def test_config_sections_are_frozen():
    cfg = default_config()
    for section in dataclasses.fields(cfg):
        value = getattr(cfg, section.name)
        name = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    # a section changes only through replace, which runs its checks
    with pytest.raises(ValueError, match="temperature"):
        dataclasses.replace(cfg.learning, temperature_decay=0.5)


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
    assert leader_feasible(prepared.game)


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
    return run_experiment(small_cfg, build_game(small_cfg))


def test_run_experiment_structure(small_result, small_cfg):
    res = small_result
    assert set(res.traces) == set(small_cfg.learning.algorithms)
    for algo, trace in res.traces.items():
        assert trace.steps[0] == 0
        assert trace.steps[-1] == small_cfg.learning.num_steps - 1
        assert trace.strategies.shape[1] == res.prepared.game.num_users
        assert np.all(np.abs(trace.strategies.sum(axis=-1) - 1.0) < 1e-9)
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


def _hand_trace(steps, expected_utilities):
    """A trace whose kept steps and expected utilities are given; the other
    columns are zeros, since the summary reads only these two."""
    expected = np.array(expected_utilities, dtype=float).T
    zeros = np.zeros_like(expected)
    return sl.Trace(
        steps=np.array(steps), actions=zeros.astype(int), powers_dbm=zeros, sinr_lin=zeros,
        utilities=zeros, expected_utilities=expected, strategies=zeros[:, :, None],
    )


def test_compare_summary_columns():
    # user ids (0, 2): femtocell 1 silenced; the reference utility of user 2 is 0
    traces = {
        # 10 kept steps: the terminal window is the last ceil(0.9 * 10) - 1 = 8 on
        sl.RLA1: _hand_trace(
            [5 + 10 * k for k in range(10)],
            [[0, 1, 2, 4, 8, 9.5, 11.5, 10, 11, 13], [0, 0, 0, 0, 0, 0, 0, 0, 0, 10]],
        ),
        # 1 kept step: the window is max(1, ceil(0.9)) - 1 = 0 on
        sl.RLA2: _hand_trace([0], [[2.0], [0.0]]),
    }
    result = sl.ExperimentResult(
        prepared=sl.PreparedGame(
            game=SimpleNamespace(num_users=2), active=(False, True), user_ids=(0, 2), unresolved=False
        ),
        traces=traces,
        oracle=sl.EquilibriumResult(2, (1,), (6.0, 7.0), True),
        complete_info=sl.CompleteInfoResult((2, 1), (4.0, 0.0), True),
    )
    nan = math.nan
    expected = [
        # terminal 12: 11.5 at step 65 is the first within 10%, ahead of 10 and 11
        (sl.RLA1, 0, 12.0, 4.0, 3.0, 65),
        # terminal 5: neither 0 nor 10 is within 10%, so the last kept step
        (sl.RLA1, 2, 5.0, 0.0, nan, 95),
        (sl.RLA2, 0, 2.0, 4.0, 0.5, 0),
        (sl.RLA2, 2, 0.0, 0.0, nan, 0),
        ("oracle", 0, 6.0, 4.0, 1.5, 0),
        ("oracle", 2, 7.0, 0.0, nan, 0),
    ]
    keys = (
        "algo", "user", "terminal_expected_utility", "reference_utility", "ratio_to_reference",
        "steps_to_10pct",
    )
    types = (str, int, float, float, float, int)
    rows = compare_summary(result)
    assert [tuple(row) for row in rows] == [keys] * len(expected)
    for row, want in zip(rows, expected):
        got = tuple(row.values())
        assert [type(v) for v in got] == list(types), row
        assert [str(v) for v in got] == [str(v) for v in want], row


def test_trace_csv_shape(small_result, tmp_path):
    trace = small_result.traces[sl.RLA1]
    path = tmp_path / "trace.csv"
    emit_trace_csv(trace, sl.RLA1, str(path), user_ids=small_result.prepared.user_ids)
    lines = path.read_text().strip().split("\n")
    n = small_result.prepared.game.num_users
    assert lines[0].startswith("step,user,algo,action_idx,power_dbm,sinr_lin,utility,expected_utility")
    assert lines[0].endswith(",y_0,y_1,y_2")
    assert len(lines) == 1 + len(trace.steps) * n
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == sl.RLA1
    # full-precision floats survive a round trip
    assert float(first[4]) in [20.0, 25.0, 30.0]
    y = [float(x) for x in first[-3:]]
    assert sum(y) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 7, 4096])
def test_csv_writer_rows_do_not_depend_on_the_block_size(tmp_path, monkeypatch, block_rows):
    # signed zeros, nan and infinities repeat across block edges; a strided
    # 2-D column is read in C order; list columns are written as they are
    monkeypatch.setattr(harness, "_BLOCK_ROWS", block_rows)
    floats = np.array([0.5, -0.0, np.nan, -np.inf, 0.0, -0.0, 1e-300, np.inf, 0.5, np.nan])
    ints = np.arange(20).reshape(5, 4)[:, 1:3]
    cells = list("abcdeabcde")
    path = tmp_path / "block.csv"
    harness._write_csv(str(path), "f,i,c", [floats, ints, cells])
    rows = zip(floats.tolist(), ints.reshape(-1).tolist(), cells)
    assert path.read_text() == "f,i,c\n" + "".join(f"{f},{i},{c}\n" for f, i, c in rows)
    harness._write_csv(str(path), "f,i,c", [floats[:0], ints[:0], []])
    assert path.read_text() == "f,i,c\n"


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
    assert lines[0] == "gamma0_db,algo,fu_index,expected_sinr_lin,expected_sinr_db,active,unresolved"
    assert len(lines) == 1 + len(results) * small_cfg.network.num_femtocells
    # a silenced follower serializes as -inf dB
    for line in lines[1:]:
        fields = line.split(",")
        if fields[5] == "0":
            assert fields[3] == "0.0" and fields[4] == "-inf"


def test_sweep_flags_unresolved_points(tmp_path):
    # at 60 dB the leader misses its target even with every femtocell silenced
    cfg = default_config(learning={"num_steps": 20}, sweep={"gamma0_grid_db": [0.0, 60.0]})
    results = sweep_gamma0(cfg)
    assert [(r.gamma0_db, r.unresolved) for r in results] == [
        (0.0, False), (0.0, False), (60.0, True), (60.0, True)
    ]
    assert not any(results[-1].active)
    path = tmp_path / "sweep.csv"
    emit_sweep_csv(results, str(path))
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    assert [(row[0], row[-1]) for row in rows] == [("0.0", "0")] * 4 + [("60.0", "1")] * 4


@pytest.mark.parametrize("replicates", [2, 17])
def test_sweep_replicates_match_separate_runs(replicates):
    cfg = default_config(
        learning={"num_steps": 80},
        sweep={"gamma0_grid_db": [0.0], "replicates": replicates},
    )
    prepared = build_game(cfg, gamma0_db=0.0)
    sums = np.zeros(cfg.network.num_femtocells)
    # replicate r draws stream r, and the sums add the replicates in order
    # (17 rows summed in another order change the bits); the mean divides
    # by the replicates run
    for r in range(replicates):
        engine = sl.StackelbergLearning(
            [prepared.game],
            sl.RLA2,
            [learning_rng(cfg.seeds.base_seed, sl.RLA2, replicate=r)],
            cfg.learning,
        )
        engine.run(80, log_every=80)
        for reduced in range(1, prepared.game.num_users):
            sums[prepared.user_ids[reduced] - 1] += full_expected_utility(
                sinr_tensor(prepared.game)[reduced], engine.strategies[0]
            )
    result = sweep_gamma0(cfg, algorithms=(sl.RLA2,))[0]
    assert result.fu_expected_sinr_lin == tuple(sums / replicates)


def test_sweep_runs_no_engine_at_leader_only_points(monkeypatch):
    # the default grid keeps 2, 2, 1, 1, 0, 0, 0 femtocells
    cfg = default_config(learning={"num_steps": 20})
    grid = cfg.sweep.gamma0_grid_db
    engines = []
    real = harness.StackelbergLearning

    def counting(games, algorithm, *args, **kwargs):
        engines.append((algorithm, [g.users[0].sinr_target_lin for g in games]))
        return real(games, algorithm, *args, **kwargs)

    monkeypatch.setattr(harness, "StackelbergLearning", counting)
    results = sweep_gamma0(cfg)
    leader_only = [g for g in grid if build_game(cfg, gamma0_db=g).game.num_users == 1]
    assert leader_only == [20.0, 25.0, 30.0]
    # one engine per (point with a follower, algorithm), over the point's replicates
    learned = [g for g in grid if g not in leader_only]
    assert engines == [
        (algo, [sl.db_to_linear(g)] * cfg.sweep.replicates)
        for g in learned
        for algo in (sl.RLA1, sl.RLA2)
    ]
    assert [(r.gamma0_db, r.algo) for r in results] == [
        (g, algo) for g in grid for algo in (sl.RLA1, sl.RLA2)
    ]
    for r in results:
        if r.gamma0_db in leader_only:
            assert r.fu_expected_sinr_lin == (0.0, 0.0)
            assert r.active == (False, False)
        else:
            assert any(x > 0 for x in r.fu_expected_sinr_lin)


def _counting_builds(monkeypatch) -> dict[str, list]:
    """Record the (game, user) of every tensor build, by kind."""
    builds = {"sinr": [], "utility": [], "normalized": []}
    for kind, seen in builds.items():
        real = getattr(game_mod, f"_build_{kind}_tensor")

        def counting(game, i, real=real, seen=seen):
            seen.append((game, i))
            return real(game, i)

        monkeypatch.setattr(game_mod, f"_build_{kind}_tensor", counting)
    return builds


def _users_built_per_game(calls) -> list[list[int]]:
    per_game = defaultdict(list)
    for game, i in calls:
        per_game[id(game)].append(i)
    return sorted(sorted(users) for users in per_game.values())


def test_sweep_builds_each_tensor_once_per_point(monkeypatch):
    builds = _counting_builds(monkeypatch)
    sweep_gamma0(default_config(learning={"num_steps": 20}, sweep={"replicates": 2}))
    # the points keep 2, 2, 1, 1, 0, 0, 0 femtocells; leader-only points build
    # nothing, and the sweep reads no utility stack
    for kind, calls in builds.items():
        expected = [] if kind == "utility" else [[0, 1], [0, 1], [0, 1, 2], [0, 1, 2]]
        assert _users_built_per_game(calls) == expected, kind


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
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert cli_main(["oracle", "--config", str(bad)]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {bad}: invalid JSON")
    twice = _write_cfg(tmp_path, "twice.json", learning={"algorithms": ["rla1", "rla1"]})
    assert cli_main(["run", "--config", twice]) == 1
    assert capsys.readouterr().err.startswith("config error: learning.algorithms")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--config", "{cfg}", "--bogus"], "stackelearn: unrecognized arguments: --bogus"),
        (["dynamics", "--config", "{cfg}", "--steps", "abc"],
         "stackelearn dynamics: argument --steps: invalid int value: 'abc'"),
        (["run", "--config", "{cfg}", "--algo", "foo"],
         "stackelearn run: argument --algo: invalid choice: 'foo'"),
        (["run", "--config", "{cfg}", "--algo", "all"],
         "stackelearn run: argument --algo: invalid choice: 'all'"),
        (["oracle"], "stackelearn oracle: the following arguments are required: --config"),
        ([], "stackelearn: the following arguments are required: command"),
        # main applies --out only where the command has it
        (["oracle", "--config", "{cfg}", "--out", "x"], "stackelearn: unrecognized arguments: --out x"),
    ],
    ids=[
        "unknown-flag", "bad-int", "bad-choice", "algo-all", "missing-config", "missing-command",
        "oracle-out",
    ],
)
def test_cli_usage_error_exit_code(tmp_path, capsys, argv, message):
    # exit 2 would read as an infeasible leader target
    cfg = _write_cfg(tmp_path, output={"directory": str(tmp_path / "o")})
    assert cli_main([arg.format(cfg=cfg) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_cli_help_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "--help"])
    assert exc.value.code == 0
    assert "--algo {rla1,rla2,noncoop}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["run"], ["oracle"], ["dynamics", "--steps", "5"]])
def test_cli_builds_each_tensor_once_per_game(tmp_path, capsys, monkeypatch, argv):
    # the engines, the oracle, the reference and the dynamics share one build,
    # and a command builds only the kinds it reads
    read = {
        "run": {"sinr", "utility", "normalized"},
        "oracle": {"utility"},
        "dynamics": {"normalized"},
    }[argv[0]]
    builds = _counting_builds(monkeypatch)
    cfg = _write_cfg(
        tmp_path, learning={"num_steps": 20}, output={"directory": str(tmp_path / "out")}
    )
    assert cli_main(argv + ["--config", cfg]) == 0
    for kind, calls in builds.items():
        # the prepared 3-user game
        assert _users_built_per_game(calls) == ([[0, 1, 2]] if kind in read else []), kind


@pytest.mark.parametrize(
    "argv", [["run"], ["sweep", "--replicates", "1"], ["dynamics", "--steps", "5"]]
)
def test_cli_empty_output_directory_is_config_error(tmp_path, capsys, monkeypatch, argv):
    # an empty directory would put every CSV into the working directory
    cfg = _write_cfg(tmp_path, learning={"num_steps": 10})
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv + ["--config", cfg, "--out", ""]) == 1
    assert capsys.readouterr().err == "config error: --out: directory: must not be empty\n"
    empty = _write_cfg(tmp_path, "empty.json", output={"directory": ""})
    assert cli_main(argv + ["--config", empty]) == 1
    assert capsys.readouterr().err == "config error: output.directory: must not be empty\n"
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "empty.json"]


def test_cli_missing_config_io_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli_main(["run", "--config", missing]) == 3


@pytest.mark.parametrize(
    "argv, first_csv",
    [
        (["run"], "trace_rla1.csv"),
        (["sweep", "--from", "0", "--to", "10", "--points", "2", "--replicates", "1"],
         "sweep_gamma0.csv"),
        (["dynamics", "--steps", "5"], "dynamics.csv"),
    ],
    ids=["run", "sweep", "dynamics"],
)
def test_cli_unwritable_output_io_exit_code(tmp_path, capsys, argv, first_csv):
    # --out names an existing regular file, so no CSV can be written under it
    blocker = tmp_path / "blocker"
    blocker.write_text("kept")
    cfg = _write_cfg(tmp_path, learning={"num_steps": 10})
    assert cli_main(argv + ["--config", cfg, "--out", str(blocker)]) == 3
    assert capsys.readouterr().err.startswith(
        f"I/O error: failed writing {blocker / first_csv}: "
    )
    assert blocker.read_text() == "kept"


def test_cli_infeasible_exit_code(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        users={"mu_sinr_target_db": 200.0},
        learning={"num_steps": 10},
        output={"directory": str(tmp_path / "out3")},
    )
    for command in ("run", "oracle", "dynamics"):
        assert cli_main([command, "--config", cfg]) == 2, command
        assert capsys.readouterr().err == (
            "error: leader SINR target infeasible even with all femtocells silenced\n"
        )
    assert not os.path.exists(tmp_path / "out3")


def test_cli_run_unresolved_builds_no_engine(tmp_path, capsys, monkeypatch):
    def no_engine(*args, **kwargs):
        raise AssertionError("a learning engine was built for an unresolved instance")

    monkeypatch.setattr(harness, "StackelbergLearning", no_engine)
    cfg = _write_cfg(
        tmp_path,
        users={"mu_sinr_target_db": 60.0},
        output={"directory": str(tmp_path / "out4")},
    )
    assert cli_main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: leader SINR target infeasible even with all femtocells silenced\n"
    )
    assert not (tmp_path / "out4").exists()


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


@pytest.mark.parametrize(("low", "high"), [("0", "1e308"), ("0", "inf"), ("nan", "0")])
def test_cli_sweep_grid_goes_through_config_checks(tmp_path, capsys, low, high):
    cfg = _write_cfg(tmp_path, output={"directory": str(tmp_path / "o")})
    assert cli_main(["sweep", "--config", cfg, "--from", low, "--to", high, "--points", "2"]) == 1
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


# numpy rejects both grids before it allocates anything: 71 users give the
# stack 72 dimensions, more than numpy's 64, and 41 users at 3 levels give
# it more bytes than an array can index
_GRIDS_TOO_LARGE = [
    pytest.param(70, [20.0], "the tensors of 71 users on a 1-level power grid", id="dims"),
    pytest.param(40, [20.0, 25.0, 30.0], "the tensors of 41 users on a 3-level power grid", id="bytes"),
]


@pytest.mark.parametrize(("femtocells", "levels", "message"), _GRIDS_TOO_LARGE)
@pytest.mark.parametrize("command", ["oracle", "run", "dynamics"])
def test_cli_grid_too_large_for_one_array_is_config_error(tmp_path, capsys, command, femtocells, levels, message):
    # targets this low keep every femtocell, so the game holds them all
    cfg = _write_cfg(
        tmp_path,
        network={"num_femtocells": femtocells},
        users={"action_set_dbm": levels, "mu_sinr_target_db": -60.0, "fu_sinr_target_db": -60.0},
        output={"directory": str(tmp_path / "o")},
    )
    assert cli_main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: network.num_femtocells: {message} do not fit in one array: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(("femtocells", "code"), [(32, 0), (60, 0), (61, 0), (62, 1)])
@pytest.mark.parametrize("command", ["oracle", "run", "dynamics"])
def test_cli_many_femtocells_run_or_are_config_errors(tmp_path, capsys, command, femtocells, code):
    # a 1-level grid keeps the tensors one cell each; the learners add one
    # axis to a game's (n, *dims) stack, so up to 62 users fit numpy's 64
    cfg = _write_cfg(
        tmp_path,
        network={"num_femtocells": femtocells},
        users={"action_set_dbm": [20.0], "mu_sinr_target_db": -60.0, "fu_sinr_target_db": -60.0},
        learning={"num_steps": 20},
        output={"directory": str(tmp_path / "o")},
    )
    argv = [command, "--config", cfg] + (["--steps", "5"] if command == "dynamics" else [])
    assert cli_main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(
            f"config error: network.num_femtocells: the tensors of {femtocells + 1} users"
        )
        assert not (tmp_path / "o").exists()
    else:
        assert err == ""


@pytest.mark.parametrize(
    ("network", "field"),
    [
        ({"femto_radius_m": 1.0}, "femto_radius_m"),
        ({"femto_radius_m": 2.0, "min_separation_m": 2.0 - 1e-8}, "min_separation_m"),
        ({"path_loss_exponent": 300.0}, "path_loss_exponent"),
        ({"min_separation_m": 0.001, "femto_radius_m": 0.01, "path_loss_exponent": 300.0},
         "path_loss_exponent"),
        ({"shadowing_sigma_db": 10000.0}, "shadowing_sigma_db"),
        # an underflowing path loss times an overflowing shadowing factor is nan
        ({"path_loss_exponent": 300.0, "shadowing_sigma_db": 10000.0}, "shadowing_sigma_db"),
    ],
    ids=["femto-disc", "placement", "gain-underflow", "gain-overflow", "shadowing", "gain-nan"],
)
@pytest.mark.parametrize("command", ["oracle", "run", "sweep", "dynamics"])
def test_cli_unbuildable_network_is_config_error(tmp_path, capsys, command, network, field):
    # a user no draw can place, or a channel gain that is 0 or not finite
    cfg = _write_cfg(tmp_path, network=network, output={"directory": str(tmp_path / "o")})
    assert cli_main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: network.{field}: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    ("raw", "field"),
    [
        ({"network": {"femto_radius_m": 0.01, "min_separation_m": 1e-300, "path_loss_exponent": 60.0},
          "users": {"action_set_dbm": [2990.0]}}, "users.action_set_dbm"),
        ({"network": {"noise_power_dbm": -3000.0}, "users": {"action_set_dbm": [2990.0]}},
         "network.noise_power_dbm"),
        ({"network": {"bandwidth_hz": 1e308}}, "network.bandwidth_hz"),
        ({"network": {"bandwidth_hz": 1e300, "noise_power_dbm": -3000.0},
          "users": {"mu_sinr_target_db": -3000.0, "fu_sinr_target_db": -3000.0,
                    "circuit_power_dbm": -3000.0, "action_set_dbm": [-3000.0]}},
         "users.circuit_power_dbm"),
    ],
    ids=["received-power", "sinr", "rate", "utility"],
)
@pytest.mark.parametrize("command", ["oracle", "run", "sweep", "dynamics"])
def test_cli_overflowing_network_is_config_error(tmp_path, capsys, command, raw, field):
    # each of these wrote an inf utility or SINR, or printed a RuntimeWarning
    cfg = _write_cfg(tmp_path, **raw, output={"directory": str(tmp_path / "o")})
    assert cli_main([command, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"config error: {field}: some SINR or utility of this network overflows\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "section",
    [
        {},
        {"enabled": True},
        {"reduction_factor": 0.5},
        {"max_rounds": 3},
        # the round scaled the follower targets until they underflowed to 0
        {"enabled": True, "reduction_factor": 1e-300, "max_rounds": 1000},
    ],
    ids=["empty", "enabled", "reduction_factor", "max_rounds", "underflowing-targets"],
)
def test_removed_feasibility_section_is_unknown_key(tmp_path, capsys, section):
    # silencing femtocells is the one leader-protection protocol; lower
    # follower targets are users.fu_sinr_target_db
    message = "top level: unknown key(s) ['feasibility']"
    with pytest.raises(ConfigError) as exc:
        parse_config({"feasibility": section})
    assert str(exc.value) == message
    cfg = _write_cfg(tmp_path, feasibility=section, output={"directory": str(tmp_path / "o")})
    for command in ("oracle", "run", "sweep", "dynamics"):
        assert cli_main([command, "--config", cfg]) == 1, command
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_cli_dynamics_steps_too_many_for_one_array_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, output={"directory": str(tmp_path / "o")})
    assert cli_main(["dynamics", "--config", cfg, "--steps", "1000000000000000000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: dynamics --steps: 1000000000000000000 steps of (3, 3) profiles")
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


# each 10^15 count needs more bytes than a 2^47-byte address space holds,
# so no host can allocate it; each 10^20 count is more than an index holds;
# for a stop just under 2^63, ``np.arange`` returns no steps, not an error
@pytest.mark.parametrize(
    ("argv", "raw", "field"),
    [
        (["run"], {"learning": {"num_steps": 10**15}}, "learning.num_steps"),
        (["sweep", "--from", "0", "--to", "5", "--points", str(10**15)], {},
         "sweep --from/--to/--points"),
        (["sweep", "--replicates", str(10**15)], {}, "sweep.replicates"),
        (["run"], {"learning": {"num_steps": 10**20}}, "learning.num_steps"),
        (["sweep", "--from", "0", "--to", "5", "--points", str(10**20)], {},
         "sweep --from/--to/--points"),
        (["sweep", "--replicates", str(10**20)], {}, "sweep.replicates"),
        (["dynamics", "--steps", str(10**20)], {}, "dynamics --steps"),
        (["run"], {"learning": {"num_steps": 2**63 - 2**8, "trace_decimation": 1}},
         "learning.num_steps"),
        # the sweep keeps 2 steps, but the last step's index is beyond int64
        (["sweep"], {"learning": {"num_steps": 10**20}}, "learning.num_steps"),
    ],
    ids=[
        "num-steps", "sweep-points", "sweep-replicates", "num-steps-1e20", "sweep-points-1e20",
        "sweep-replicates-1e20", "dynamics-steps-1e20", "num-steps-near-2^63", "sweep-num-steps-1e20",
    ],
)
def test_cli_counts_too_large_to_allocate_are_config_errors(tmp_path, capsys, monkeypatch, argv, raw, field):
    def step(self):
        raise AssertionError("a learning step ran")

    monkeypatch.setattr(sl.StackelbergLearning, "step", step)
    cfg = _write_cfg(tmp_path, **raw, output={"directory": str(tmp_path / "o")})
    assert cli_main([*argv, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: ") and err.count("\n") == 1
    # the reason numpy or Python gave, or its exception's type name
    assert " do not fit in one array: " in err and not err.endswith(": \n")
    assert not (tmp_path / "o").exists()


def test_allocation_memory_errors_are_config_errors(monkeypatch):
    # a size numpy accepts but the host cannot back raises MemoryError at
    # the allocation itself; no real allocation is requested here
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate")

    game = build_game(default_config()).game  # a new game, no tensor built
    tensors = FieldTensors(game_mod.normalized_utility_tensors(build_game(default_config()).game))
    engine = sl.StackelbergLearning(
        [build_game(default_config()).game], sl.RLA1, [np.random.default_rng(0)], sl.LearnerSettings()
    )
    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(ConfigError, match="^network.num_femtocells: the tensors of 3 users on a 3-level"):
        game_mod.utility_tensor(game)
    assert game._tensors == {}
    with pytest.raises(ConfigError, match=r"^dynamics --steps: 5 steps of \(3, 3\) profiles"):
        integrate_dynamics(np.full((3, 3), 1 / 3), tensors, 0.1, 0.05, 0.01, 5)
    message = "^learning.num_steps: the kept steps of 5 do not fit in one array: Unable to allocate$"
    with pytest.raises(ConfigError, match=message):
        engine.run(5)
    assert engine.t == 0  # refused before the first step


def test_cli_sweep_zero_replicates_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, output={"directory": str(tmp_path / "o")})
    assert cli_main(["sweep", "--config", cfg, "--replicates", "0"]) == 1
    assert "--replicates" in capsys.readouterr().err
