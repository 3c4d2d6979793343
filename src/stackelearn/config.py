"""Experiment configuration: JSON schema, defaults, strict validation.

Radio quantities are configured in dB/dBm and converted to linear units at
this boundary.  Unknown keys are rejected with the offending field path so
typos fail loudly.

Each section is a frozen dataclass that owns its defaults and range
checks; its ``__post_init__`` raises ``ValueError("<field>: ...")``.  The
``network`` and ``learning`` sections live beside the code that reads them
(``channel.NetworkConfig``, ``learning.LearnerSettings``).  ``parse_config``
checks only the keys and the JSON type of each field against the field's
annotation, then builds the sections; a value changes only through
``dataclasses.replace``, which runs the same checks as a file does.
"""

from __future__ import annotations

import json
import math
import typing
from dataclasses import dataclass, field

from .channel import ConfigError, NetworkConfig, _to_linear, db_to_linear, dbm_to_watt
from .game import ActionSet
from .learning import LearnerSettings


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SeedConfig:
    base_seed: int = 44

    def __post_init__(self):
        if not 0 <= self.base_seed < 2**64:
            raise ValueError("base_seed: must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"

    def __post_init__(self):
        if not self.directory:  # os.path.join would write into the working directory
            raise ValueError("directory: must not be empty")


@dataclass(frozen=True)
class ExperimentConfig:
    network: NetworkConfig = field(default_factory=NetworkConfig)
    users: UserConfig = field(default_factory=UserConfig)
    learning: LearnerSettings = field(default_factory=LearnerSettings)
    sweep: SweepConfig = field(default_factory=SweepConfig)
    seeds: SeedConfig = field(default_factory=SeedConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


# section name -> section class, in order, and each section's field
# annotations, resolved once
_SECTIONS = typing.get_type_hints(ExperimentConfig)
_FIELD_TYPES = {name: typing.get_type_hints(cls) for name, cls in _SECTIONS.items()}


def _check_keys(section: dict, allowed, path: str) -> None:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _typed(value, hint, path: str):
    """``value`` checked against a field's annotation ``hint``: float, int
    or str, or a tuple of one of these, which JSON gives as a non-empty
    list.  No field takes a bool, and integers become floats where a float
    is expected."""
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{path}: expected a non-empty list")
        return tuple(_typed(x, typing.get_args(hint)[0], path) for x in value)
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")
    if hint is float and isinstance(value, int):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: must be finite") from None
    if not isinstance(value, hint):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {value!r}")
    if hint is float and not math.isfinite(value):
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
    _check_keys(raw, _SECTIONS, "top level")
    sections = {}
    for name, section in _SECTIONS.items():
        values = _fields(raw, name)
        try:
            sections[name] = section(**values)
        except ValueError as exc:
            raise ConfigError(f"{name}.{exc}") from None
    return ExperimentConfig(**sections)


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(raw)


def default_config(**overrides) -> ExperimentConfig:
    """The desk-scale defaults; keyword overrides patch the raw JSON tree."""
    return parse_config(overrides)
