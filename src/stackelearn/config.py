"""Experiment configuration: JSON schema, defaults, strict validation.

Radio quantities are configured in dB/dBm and converted to linear units at
this boundary.  Unknown keys are rejected with the offending field path so
typos fail loudly.

Each section dataclass owns its defaults and range checks; its
``__post_init__`` raises ``ValueError("<field>: ...")``.  ``parse_config``
checks only the keys and the JSON type of each field against the field's
annotation, then builds the sections, so a value is checked the same way
whether it comes from a file or from a ``dataclasses.replace`` override.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field

from .channel import NetworkConfig, db_to_linear, dbm_to_watt
from .game import ActionSet
from .learning import ALGORITHMS, AUTO_TEMPERATURE_FRACTION, LearnerSettings


class ConfigError(ValueError):
    """Invalid configuration; the message carries the field path."""


def _to_linear(convert, value: float, name: str) -> float:
    """``convert(value)`` (a dB or dBm conversion), which must be finite and > 0."""
    try:
        linear = convert(value)
    except (OverflowError, ValueError):
        linear = math.nan
    if not (math.isfinite(linear) and linear > 0):
        raise ValueError(f"{name}: {value!r} has no finite, positive linear value")
    return linear


@dataclass
class UserConfig:
    mu_sinr_target_db: float = 3.0
    fu_sinr_target_db: float = 5.0
    circuit_power_dbm: float = 10.0
    action_set_dbm: tuple[float, ...] = (20.0, 25.0, 30.0)

    def __post_init__(self):
        # the conversions build_game performs, so every accepted value builds
        _to_linear(db_to_linear, self.mu_sinr_target_db, "mu_sinr_target_db")
        _to_linear(db_to_linear, self.fu_sinr_target_db, "fu_sinr_target_db")
        _to_linear(dbm_to_watt, self.circuit_power_dbm, "circuit_power_dbm")
        levels_w = tuple(_to_linear(dbm_to_watt, x, "action_set_dbm") for x in self.action_set_dbm)
        try:
            ActionSet(levels_w)
        except ValueError as exc:
            raise ValueError(f"action_set_dbm: {exc}") from None


@dataclass
class LearningConfig(LearnerSettings):
    num_steps: int = 5000
    algorithms: tuple[str, ...] = ("rla1", "rla2", "noncoop")
    trace_decimation: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.num_steps < 1:
            raise ValueError("num_steps: must be >= 1")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"algorithms: unknown algorithm {name!r}")
        if self.trace_decimation < 1:
            raise ValueError("trace_decimation: must be >= 1")


@dataclass
class SweepConfig:
    gamma0_grid_db: tuple[float, ...] = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    replicates: int = 3

    def __post_init__(self):
        for gamma0_db in self.gamma0_grid_db:
            _to_linear(db_to_linear, gamma0_db, "gamma0_grid_db")
        grid = self.gamma0_grid_db
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("gamma0_grid_db: must be strictly increasing")
        if self.replicates < 1:
            raise ValueError("replicates: must be >= 1")


@dataclass
class SeedConfig:
    base_seed: int = 44
    replicate_offsets: tuple[int, ...] | None = None

    def __post_init__(self):
        if not 0 <= self.base_seed < 2**64:
            raise ValueError("base_seed: must fit in an unsigned 64-bit integer")
        if any(offset < 0 for offset in self.replicate_offsets or ()):
            raise ValueError("replicate_offsets: must be >= 0")


@dataclass
class FeasibilityConfig:
    enabled: bool = False
    reduction_factor: float = 0.5
    max_rounds: int = 3

    def __post_init__(self):
        if not 0 < self.reduction_factor < 1:
            raise ValueError("reduction_factor: must lie in (0, 1)")
        if self.max_rounds < 1:
            raise ValueError("max_rounds: must be >= 1")


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

_SECTIONS = {
    "users": UserConfig,
    "learning": LearningConfig,
    "sweep": SweepConfig,
    "seeds": SeedConfig,
    "feasibility": FeasibilityConfig,
    "output": OutputConfig,
}


def _json_type(hint) -> tuple[type, bool, bool]:
    """(element type, is a list, may be null) of an annotated field type:
    float, int, bool or str, a tuple of one of these, or ``X | None``."""
    args = typing.get_args(hint)
    nullable = type(None) in args
    if nullable:
        (hint,) = (a for a in args if a is not type(None))
        args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return args[0], True, nullable
    return hint, False, nullable


def _field_types(cls) -> dict:
    return {key: _json_type(hint) for key, hint in typing.get_type_hints(cls).items()}


# JSON types per section, resolved once; the network section is configured
# in dBm where NetworkConfig holds watts
_FIELD_TYPES = {name: _field_types(cls) for name, cls in _SECTIONS.items()}
_FIELD_TYPES["network"] = _field_types(NetworkConfig)
_FIELD_TYPES["network"]["noise_power_dbm"] = _FIELD_TYPES["network"].pop("noise_power_w")


def _check_keys(section: dict, allowed, path: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _typed(value, json_type: tuple[type, bool, bool], path: str):
    """``value`` checked against a field's JSON type (see ``_json_type``);
    integers become floats where a float is expected."""
    kind, is_list, nullable = json_type
    if value is None and nullable:
        return None
    if is_list:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty list")
        return tuple(_typed(x, (kind, False, False), path) for x in value)
    if isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")
    if kind is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: must be finite") from None
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite")
    return value


def _fields(raw: dict, name: str) -> dict:
    """The fields given in section ``name`` of ``raw``, type-checked."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected an object")
    types = _FIELD_TYPES[name]
    _check_keys(section, types, name)
    return {key: _typed(value, types[key], f"{name}.{key}") for key, value in section.items()}


def parse_config(raw: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a decoded JSON object."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(raw, ("network", *_SECTIONS), "top level")
    learning = raw.get("learning")
    if isinstance(learning, dict) and learning.get("temperature", 0.0) in ("auto", None):
        raw = {**raw, "learning": {**learning, "temperature": AUTO_TEMPERATURE_FRACTION}}

    sections = {}
    for name in ("network", *_SECTIONS):
        values = _fields(raw, name)
        try:
            if name == "network":
                values = {**_NETWORK_DEFAULTS, **values}
                noise_dbm = values.pop("noise_power_dbm")
                values["noise_power_w"] = _to_linear(dbm_to_watt, noise_dbm, "noise_power_dbm")
                sections[name] = NetworkConfig(**values)
            else:
                sections[name] = _SECTIONS[name](**values)
        except ValueError as exc:
            raise ConfigError(f"{name}.{exc}") from None
    return ExperimentConfig(**sections)


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
    return parse_config(overrides)
