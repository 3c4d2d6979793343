"""Topology generation and channel gains for a two-tier macro/femto network.

One macro base station (MBS, index 0) with N femto base stations (FBS,
indices 1..N) dropped uniformly in the macro disc.  Each base station serves
a single scheduled user.  Everything downstream of the config boundary works
in linear units (metres, watts); dB/dBm conversions live here.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid configuration; the message carries the field path."""


@contextmanager
def sized_by(field: str, what: str):
    """Run a block that only allocates what the config field or CLI flag
    ``field`` sizes: a size numpy refuses, no index holds or the host
    cannot back is a ``ConfigError`` naming ``field`` and ``what``."""
    try:
        yield
    except (ValueError, OverflowError, MemoryError) as exc:
        detail = str(exc) or type(exc).__name__
        raise ConfigError(f"{field}: {what} do not fit in one array: {detail}") from None


def db_to_linear(x_db: float) -> float:
    """Convert a dB ratio to linear scale."""
    if not math.isfinite(x_db):
        raise ValueError(f"dB value must be finite, got {x_db!r}")
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"linear value must be finite and > 0, got {x!r}")
    return 10.0 * math.log10(x)


def dbm_to_watt(x_dbm: float) -> float:
    """Convert a power from dBm to watts."""
    return db_to_linear(x_dbm - 30.0)


def watt_to_dbm(x_w: float) -> float:
    return linear_to_db(x_w) + 30.0


def _to_linear(convert, value: float, name: str) -> float:
    """``convert(value)`` (a dB or dBm conversion), which must be finite and > 0."""
    try:
        linear = convert(value)
    except (OverflowError, ValueError):
        linear = math.nan
    if not (math.isfinite(linear) and linear > 0):
        raise ValueError(f"{name}: {value!r} has no finite, positive linear value")
    return linear


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of the network layout and radio constants (the
    ``network`` config section)."""

    bandwidth_hz: float = 1e6
    noise_power_dbm: float = -110.0
    num_femtocells: int = 2
    macro_radius_m: float = 500.0
    femto_radius_m: float = 20.0
    path_loss_exponent: float = 4.0
    rng_seed: int = 44
    # Users are resampled until at least this far from every base station,
    # since d^(-n) blows up at zero distance.
    min_separation_m: float = 1.0
    # Optional log-normal shadowing spread; 0 disables it and reproduces the
    # deterministic d^(-n) gain model.
    shadowing_sigma_db: float = 0.0

    def __post_init__(self):
        _to_linear(dbm_to_watt, self.noise_power_dbm, "noise_power_dbm")
        positive = {
            "bandwidth_hz": self.bandwidth_hz,
            "macro_radius_m": self.macro_radius_m,
            "femto_radius_m": self.femto_radius_m,
            "path_loss_exponent": self.path_loss_exponent,
            "min_separation_m": self.min_separation_m,
        }
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name}: must be finite and > 0, got {value!r}")
        if self.num_femtocells < 1:
            raise ValueError(f"num_femtocells: must be >= 1, got {self.num_femtocells}")
        if self.macro_radius_m > 1e150:
            raise ValueError("macro_radius_m: must be <= 1e150 (distances square it)")
        if self.femto_radius_m >= self.macro_radius_m:
            raise ValueError("femto_radius_m: must be smaller than macro_radius_m")
        # a femto offset must exceed the spacing of coordinates near macro_radius_m
        if math.ulp(self.macro_radius_m) >= self.femto_radius_m:
            raise ValueError("macro_radius_m: so large that femto_radius_m offsets round away")
        # a user drawn from a disc no wider than the separation can never be
        # placed that far from the base station at its centre; the macro disc
        # is wider still
        if not self.femto_radius_m > self.min_separation_m:
            raise ValueError("femto_radius_m: must be greater than min_separation_m")
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing_sigma_db: must be >= 0")
        if not 0 <= int(self.rng_seed) < 2**64:
            raise ValueError("rng_seed: must fit in an unsigned 64-bit integer")

    @property
    def noise_power_w(self) -> float:
        return dbm_to_watt(self.noise_power_dbm)


@dataclass(frozen=True)
class Topology:
    """Positions of base stations and their scheduled users.

    ``distances[i, j]`` is the Euclidean distance from user i to base
    station j in metres.  Index 0 is the macrocell.
    """

    bs_positions: np.ndarray
    user_positions: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        for arr in (self.bs_positions, self.user_positions, self.distances):
            arr.setflags(write=False)


def _uniform_disc(rng: np.random.Generator, center: np.ndarray, radius: float) -> np.ndarray:
    # radius * sqrt(u) gives an area-uniform radial coordinate
    r = radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return center + r * np.array([math.cos(theta), math.sin(theta)])


def generate_topology(config: NetworkConfig, rng: np.random.Generator) -> Topology:
    """Drop base stations and users for one network realization.

    The MBS sits at the origin.  FBS positions are i.i.d. uniform over the
    macro disc; each femto user is uniform in the disc of radius
    ``femto_radius_m`` around its FBS, and the macro user is uniform in the
    macro disc.  Users are rejection-resampled until they are at least
    ``min_separation_m`` away from every base station; a user still not
    placed after 10,000 draws is a ``ConfigError`` on
    ``network.min_separation_m``.
    """
    n_cells = config.num_femtocells + 1

    bs = np.zeros((n_cells, 2))
    for i in range(1, n_cells):
        bs[i] = _uniform_disc(rng, bs[0], config.macro_radius_m)

    users = np.zeros((n_cells, 2))
    for i in range(n_cells):
        center = bs[0] if i == 0 else bs[i]
        radius = config.macro_radius_m if i == 0 else config.femto_radius_m
        for _ in range(10000):
            pos = _uniform_disc(rng, center, radius)
            if np.min(np.linalg.norm(bs - pos, axis=1)) >= config.min_separation_m:
                users[i] = pos
                break
        else:
            raise ConfigError(
                f"network.min_separation_m: no position for user {i} at least"
                f" {config.min_separation_m!r} m from every base station in 10000 draws"
            )

    dist = np.linalg.norm(users[:, None, :] - bs[None, :, :], axis=2)
    return Topology(bs_positions=bs, user_positions=users, distances=dist)


def gain_matrix(
    topology: Topology,
    path_loss_exponent: float,
    shadowing_sigma_db: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Channel gains ``h[j, i]`` from user j to base station i.

    Pure distance-based path loss ``d^(-n)``; ``shadowing_sigma_db`` > 0
    adds a log-normal shadowing multiplier drawn from ``rng``.
    """
    d = topology.distances
    if np.any(d <= 0):
        raise ValueError("zero or negative distance: gain d^(-n) is singular")
    h = d ** (-path_loss_exponent)
    if shadowing_sigma_db > 0:
        h = h * 10.0 ** (rng.normal(0.0, shadowing_sigma_db, size=h.shape) / 10.0)
    h.setflags(write=False)
    return h
