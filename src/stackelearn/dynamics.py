"""Mean-field strategy dynamics of the learning process.

In the small-learning-rate limit the Boltzmann Q-learners follow a
replicator-style vector field with an entropy (exploration) term:

    dy_{i,j}/dt = (alpha / tau_i) * y_{i,j} * (
        [U_i(j, Y_-i) - sum_l y_{i,l} U_i(l, Y_-i)]
        - tau_i * sum_l y_{i,l} * ln(y_{i,j} / y_{i,l}) )

with U_i the exact expected utility of action j against the other users'
mixed strategies.  Stationary points of this field are the candidate
equilibria the learners settle on.  Utilities enter on the same normalized
scale the learners use, so residuals are comparable to learner temperatures.
"""

from __future__ import annotations

import numpy as np

from .game import GameInstance, normalized_utility_tensors
from .learning import action_expected_utilities

# Floor applied inside the ln(y_j / y_l) terms to dodge simplex-boundary
# singularities; strategies are renormalized after flooring.
PROB_FLOOR = 1e-12


class DynamicsDivergence(RuntimeError):
    """Raised when integration produces a non-finite strategy entry."""

    def __init__(self, step_index: int):
        super().__init__(f"dynamics diverged at integration step {step_index}")
        self.step_index = step_index


def _as_temperatures(temperatures, n: int) -> list[float]:
    if np.isscalar(temperatures):
        temps = [float(temperatures)] * n
    else:
        temps = [float(t) for t in temperatures]
        if len(temps) != n:
            raise ValueError("one temperature per user is required")
    if any(t <= 0 for t in temps):
        raise ValueError("temperatures must be > 0")
    return temps


def _floor_profile(profile) -> list[np.ndarray]:
    out = []
    for y in profile:
        y = np.clip(np.asarray(y, dtype=float), PROB_FLOOR, None)
        out.append(y / y.sum())
    return out


def strategy_derivative(
    profile,
    game: GameInstance,
    alpha: float,
    temperatures,
    utilities: list[np.ndarray] | None = None,
) -> list[np.ndarray]:
    """Evaluate the strategy vector field at a profile.

    Returns one derivative vector per user; each sums to zero (the field is
    tangent to the product of simplices).
    """
    if utilities is None:
        utilities = normalized_utility_tensors(game)
    n = len(utilities)
    temps = _as_temperatures(temperatures, n)
    ys = _floor_profile(profile)
    derivs = []
    for i in range(n):
        y = ys[i]
        u_actions = action_expected_utilities(utilities[i], ys, i)
        mean_u = float(y @ u_actions)
        log_y = np.log(y)
        entropy_term = log_y - float(y @ log_y)
        d = (alpha / temps[i]) * y * ((u_actions - mean_u) - temps[i] * entropy_term)
        derivs.append(d)
    return derivs


def integrate_dynamics(
    initial,
    game: GameInstance,
    alpha: float,
    temperatures,
    step_size: float = 0.01,
    num_steps: int = 1000,
    utilities: list[np.ndarray] | None = None,
) -> list[list[np.ndarray]]:
    """Fixed-step RK4 integration of the strategy field.

    Each accepted step renormalizes every strategy back onto its simplex.
    Returns the trajectory including the initial profile (``num_steps + 1``
    entries); a non-finite entry aborts with the offending step index.
    """
    if step_size <= 0:
        raise ValueError("step_size must be > 0")
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    if utilities is None:
        utilities = normalized_utility_tensors(game)

    def field(profile):
        return strategy_derivative(profile, game, alpha, temperatures, utilities=utilities)

    def axpy(profile, derivs, scale):
        return [y + scale * d for y, d in zip(profile, derivs)]

    current = _floor_profile(initial)
    trajectory = [current]
    h = step_size
    for step in range(num_steps):
        k1 = field(current)
        k2 = field(axpy(current, k1, h / 2))
        k3 = field(axpy(current, k2, h / 2))
        k4 = field(axpy(current, k3, h))
        nxt = [
            y + (h / 6.0) * (a + 2 * b + 2 * c + d)
            for y, a, b, c, d in zip(current, k1, k2, k3, k4)
        ]
        if any(not np.all(np.isfinite(y)) for y in nxt):
            raise DynamicsDivergence(step)
        current = _floor_profile(nxt)
        trajectory.append(current)
    return trajectory


def stationarity_check(
    profile,
    game: GameInstance,
    alpha: float,
    temperatures,
    tolerance: float,
    utilities: list[np.ndarray] | None = None,
) -> tuple[bool, float]:
    """Max-norm of the field at a profile and whether it is below tolerance."""
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    derivs = strategy_derivative(profile, game, alpha, temperatures, utilities=utilities)
    residual = max(float(np.max(np.abs(d))) for d in derivs)
    return residual < tolerance, residual


def total_variation(profile_a, profile_b) -> float:
    """Max over users of the per-user total-variation distance."""
    return max(
        0.5 * float(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)).sum())
        for a, b in zip(profile_a, profile_b)
    )
