"""Experiment configuration: JSON schema, defaults, strict validation.

Radio quantities are configured in dB/dBm and converted to linear units at
this boundary.  Unknown keys are rejected with the offending field path so
typos fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .channel import NetworkConfig, dbm_to_watt
from .learning import ALGORITHMS


class ConfigError(ValueError):
    """Invalid configuration; the message carries the field path."""


@dataclass
class UserConfig:
    mu_sinr_target_db: float = 3.0
    fu_sinr_target_db: float = 5.0
    circuit_power_dbm: float = 10.0
    action_set_dbm: tuple[float, ...] = (20.0, 25.0, 30.0)


@dataclass
class LearningConfig:
    alpha: float = 0.1
    temperature: float | None = None  # None = auto-calibrated from the utility scale
    temperature_decay: float = 1.0
    belief_factor: float = 2.0
    num_steps: int = 5000
    algorithms: tuple[str, ...] = ("rla1", "rla2", "noncoop")
    trace_decimation: int = 10


@dataclass
class SweepConfig:
    gamma0_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    replicates: int = 3


@dataclass
class SeedConfig:
    base_seed: int = 44
    replicate_offsets: tuple[int, ...] | None = None


@dataclass
class FeasibilityConfig:
    enabled: bool = False
    reduction_factor: float = 0.5
    max_rounds: int = 3


@dataclass
class OutputConfig:
    directory: str = "out"
    emit_trace: bool = True
    emit_summary: bool = True


@dataclass
class ExperimentConfig:
    network: NetworkConfig
    users: UserConfig = field(default_factory=UserConfig)
    learning: LearningConfig = field(default_factory=LearningConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    seeds: SeedConfig = field(default_factory=SeedConfig)
    feasibility: FeasibilityConfig = field(default_factory=FeasibilityConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


_NETWORK_DEFAULTS = {
    "bandwidth_hz": 1e6,
    "noise_power_dbm": -110.0,
    "num_femtocells": 2,
    "macro_radius_m": 500.0,
    "femto_radius_m": 20.0,
    "path_loss_exponent": 4.0,
    "rng_seed": 44,
    "min_separation_m": 1.0,
    "shadowing_sigma_db": 0.0,
}


def _check_keys(section: dict, allowed, path: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected an object")
    return value


def _finite(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: must be finite") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    return value


def _int(value, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false, got {value!r}")
    return value


def parse_config(raw: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a decoded JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(
        raw,
        ("network", "users", "learning", "sweep", "seeds", "feasibility", "output"),
        "top level",
    )

    net_raw = dict(_NETWORK_DEFAULTS)
    section = _section(raw, "network")
    _check_keys(section, _NETWORK_DEFAULTS, "network")
    net_raw.update(section)
    try:
        network = NetworkConfig(
            bandwidth_hz=_finite(net_raw["bandwidth_hz"], "network.bandwidth_hz"),
            noise_power_w=dbm_to_watt(_finite(net_raw["noise_power_dbm"], "network.noise_power_dbm")),
            num_femtocells=_int(net_raw["num_femtocells"], "network.num_femtocells", 1),
            macro_radius_m=_finite(net_raw["macro_radius_m"], "network.macro_radius_m"),
            femto_radius_m=_finite(net_raw["femto_radius_m"], "network.femto_radius_m"),
            path_loss_exponent=_finite(net_raw["path_loss_exponent"], "network.path_loss_exponent"),
            rng_seed=_int(net_raw["rng_seed"], "network.rng_seed", 0),
            min_separation_m=_finite(net_raw["min_separation_m"], "network.min_separation_m"),
            shadowing_sigma_db=_finite(net_raw["shadowing_sigma_db"], "network.shadowing_sigma_db"),
        )
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"network: {exc}") from None

    users = UserConfig()
    section = _section(raw, "users")
    _check_keys(
        section,
        ("mu_sinr_target_db", "fu_sinr_target_db", "circuit_power_dbm", "action_set_dbm"),
        "users",
    )
    if "mu_sinr_target_db" in section:
        users.mu_sinr_target_db = _finite(section["mu_sinr_target_db"], "users.mu_sinr_target_db")
    if "fu_sinr_target_db" in section:
        users.fu_sinr_target_db = _finite(section["fu_sinr_target_db"], "users.fu_sinr_target_db")
    if "circuit_power_dbm" in section:
        users.circuit_power_dbm = _finite(section["circuit_power_dbm"], "users.circuit_power_dbm")
    if "action_set_dbm" in section:
        levels = section["action_set_dbm"]
        if not isinstance(levels, list) or not levels:
            raise ConfigError("users.action_set_dbm: expected a non-empty list")
        users.action_set_dbm = tuple(
            _finite(x, "users.action_set_dbm") for x in levels
        )
        if any(b <= a for a, b in zip(users.action_set_dbm, users.action_set_dbm[1:])):
            raise ConfigError("users.action_set_dbm: must be strictly increasing")

    learning = LearningConfig()
    section = _section(raw, "learning")
    _check_keys(
        section,
        (
            "alpha",
            "temperature",
            "temperature_decay",
            "belief_factor",
            "num_steps",
            "algorithms",
            "trace_decimation",
        ),
        "learning",
    )
    if "alpha" in section:
        learning.alpha = _finite(section["alpha"], "learning.alpha")
        if not 0 <= learning.alpha < 1:
            raise ConfigError("learning.alpha: must lie in [0, 1)")
    if "temperature" in section:
        tau = section["temperature"]
        if tau in ("auto", None):
            learning.temperature = None
        else:
            learning.temperature = _finite(tau, "learning.temperature")
            if learning.temperature <= 0:
                raise ConfigError("learning.temperature: must be > 0 or 'auto'")
    if "temperature_decay" in section:
        learning.temperature_decay = _finite(section["temperature_decay"], "learning.temperature_decay")
        if not 0 < learning.temperature_decay <= 1:
            raise ConfigError("learning.temperature_decay: must lie in (0, 1]")
    if "belief_factor" in section:
        learning.belief_factor = _finite(section["belief_factor"], "learning.belief_factor")
        if learning.belief_factor < 0:
            raise ConfigError("learning.belief_factor: must be >= 0")
    if "num_steps" in section:
        learning.num_steps = _int(section["num_steps"], "learning.num_steps", 1)
    if "algorithms" in section:
        algos = section["algorithms"]
        if isinstance(algos, str):
            algos = [algos]
        if not isinstance(algos, list):
            raise ConfigError("learning.algorithms: expected a name or a list of names")
        for a in algos:
            if a not in ALGORITHMS:
                raise ConfigError(f"learning.algorithms: unknown algorithm {a!r}")
        learning.algorithms = tuple(algos)
    if "trace_decimation" in section:
        learning.trace_decimation = _int(section["trace_decimation"], "learning.trace_decimation", 1)

    sweep = SweepConfig()
    section = _section(raw, "sweep")
    _check_keys(section, ("gamma0_grid_db", "replicates"), "sweep")
    if "gamma0_grid_db" in section:
        grid = section["gamma0_grid_db"]
        if not isinstance(grid, list) or not grid:
            raise ConfigError("sweep.gamma0_grid_db: expected a non-empty list")
        sweep.gamma0_grid_db = tuple(_finite(x, "sweep.gamma0_grid_db") for x in grid)
        if any(b <= a for a, b in zip(sweep.gamma0_grid_db, sweep.gamma0_grid_db[1:])):
            raise ConfigError("sweep.gamma0_grid_db: must be strictly increasing")
    if "replicates" in section:
        sweep.replicates = _int(section["replicates"], "sweep.replicates", 1)

    seeds = SeedConfig()
    section = _section(raw, "seeds")
    _check_keys(section, ("base_seed", "replicate_offsets"), "seeds")
    if "base_seed" in section:
        seeds.base_seed = _int(section["base_seed"], "seeds.base_seed", 0)
        if seeds.base_seed >= 2**64:
            raise ConfigError("seeds.base_seed: must fit in an unsigned 64-bit integer")
    if "replicate_offsets" in section and section["replicate_offsets"] is not None:
        offsets = section["replicate_offsets"]
        if not isinstance(offsets, list):
            raise ConfigError("seeds.replicate_offsets: expected a list")
        seeds.replicate_offsets = tuple(_int(x, "seeds.replicate_offsets", 0) for x in offsets)

    feasibility = FeasibilityConfig()
    section = _section(raw, "feasibility")
    _check_keys(section, ("enabled", "reduction_factor", "max_rounds"), "feasibility")
    if "enabled" in section:
        feasibility.enabled = _bool(section["enabled"], "feasibility.enabled")
    if "reduction_factor" in section:
        feasibility.reduction_factor = _finite(section["reduction_factor"], "feasibility.reduction_factor")
        if not 0 < feasibility.reduction_factor < 1:
            raise ConfigError("feasibility.reduction_factor: must lie in (0, 1)")
    if "max_rounds" in section:
        feasibility.max_rounds = _int(section["max_rounds"], "feasibility.max_rounds", 1)

    output = OutputConfig()
    section = _section(raw, "output")
    _check_keys(section, ("directory", "emit_trace", "emit_summary"), "output")
    if "directory" in section:
        output.directory = section["directory"]
        if not isinstance(output.directory, str):
            raise ConfigError("output.directory: expected a string")
    if "emit_trace" in section:
        output.emit_trace = _bool(section["emit_trace"], "output.emit_trace")
    if "emit_summary" in section:
        output.emit_summary = _bool(section["emit_summary"], "output.emit_summary")

    return ExperimentConfig(
        network=network,
        users=users,
        learning=learning,
        sweep=sweep,
        seeds=seeds,
        feasibility=feasibility,
        output=output,
    )


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(raw)


def default_config(**overrides) -> ExperimentConfig:
    """The desk-scale defaults; keyword overrides patch the raw JSON tree."""
    raw: dict = {}
    for key, value in overrides.items():
        raw[key] = value
    return parse_config(raw)
