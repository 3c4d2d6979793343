"""Mean-field strategy dynamics of the learning process.

In the small-learning-rate limit the Boltzmann Q-learners follow a
replicator-style vector field with an entropy (exploration) term:

    dy_{i,j}/dt = (alpha / tau) * y_{i,j} * (
        [U_i(j, Y_-i) - sum_l y_{i,l} U_i(l, Y_-i)]
        - tau * sum_l y_{i,l} * ln(y_{i,j} / y_{i,l}) )

with U_i the exact expected utility of action j against the other users'
mixed strategies.  Stationary points of this field are the candidate
equilibria the learners settle on.  Every function takes the per-user
utility tensors on the normalized scale the learners use
(``game.normalized_utility_tensors``), so residuals are comparable to learner
temperatures.
"""

from __future__ import annotations

import numpy as np

from .learning import action_expected_utilities, boltzmann_strategy

# Floor applied inside the ln(y_j / y_l) terms to dodge simplex-boundary
# singularities; strategies are renormalized after flooring.
PROB_FLOOR = 1e-12


class DynamicsDivergence(RuntimeError):
    """Raised when integration produces a non-finite or negative strategy entry."""

    def __init__(self, step_index: int):
        super().__init__(f"dynamics diverged at integration step {step_index}")
        self.step_index = step_index


def _floor_profile(profile) -> np.ndarray:
    y = np.maximum(np.asarray(profile, dtype=float), PROB_FLOOR)
    return y / y.sum(axis=-1, keepdims=True)


def strategy_derivative(
    profile, utilities: list[np.ndarray], alpha: float, temperature: float
) -> np.ndarray:
    """Evaluate the strategy vector field at an (n, M) profile.

    Returns the (n, M) derivative; each user's row sums to zero (the field
    is tangent to the product of simplices).
    """
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    ys = _floor_profile(profile)
    derivs = np.empty_like(ys)
    for i, y in enumerate(ys):
        u_actions = action_expected_utilities(utilities[i], ys, i)
        mean_u = float(y @ u_actions)
        log_y = np.log(y)
        entropy_term = log_y - float(y @ log_y)
        derivs[i] = (alpha / temperature) * y * ((u_actions - mean_u) - temperature * entropy_term)
    return derivs


def integrate_dynamics(
    initial,
    utilities: list[np.ndarray],
    alpha: float,
    temperature: float,
    step_size: float,
    num_steps: int,
) -> np.ndarray:
    """Fixed-step RK4 integration of the strategy field from an (n, M)
    profile.

    Each accepted step renormalizes every strategy back onto its simplex.
    Returns the (num_steps + 1, n, M) trajectory, the initial profile
    first.  A step that leaves a non-finite or negative entry before the
    floor (a divergence, or an overshoot past the simplex boundary) aborts
    with the offending step index; numpy's floating-point warnings on the way
    there are silenced, since the check reports the step.
    """
    if step_size <= 0:
        raise ValueError("step_size must be > 0")
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")

    def field(profile):
        return strategy_derivative(profile, utilities, alpha, temperature)

    current = _floor_profile(initial)
    trajectory = np.empty((num_steps + 1,) + current.shape)
    trajectory[0] = current
    h = step_size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(num_steps):
            k1 = field(current)
            k2 = field(current + (h / 2) * k1)
            k3 = field(current + (h / 2) * k2)
            k4 = field(current + h * k3)
            nxt = current + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            if not (np.all(np.isfinite(nxt)) and nxt.min() >= 0):
                raise DynamicsDivergence(step)
            current = trajectory[step + 1] = _floor_profile(nxt)
    return trajectory


def stationarity_check(
    profile, utilities: list[np.ndarray], alpha: float, temperature: float, tolerance: float
) -> tuple[bool, float]:
    """Max-norm of the field at a profile and whether it is below tolerance."""
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    derivs = strategy_derivative(profile, utilities, alpha, temperature)
    residual = float(np.max(np.abs(derivs)))
    return residual < tolerance, residual


def logit_residual(profile, utilities: list[np.ndarray], temperature: float) -> float:
    """Max over users of ||y_i - softmax(U_i(., y_-i) / temperature)||_1 at
    an (n, M) profile.

    Interior rest points of the field are logit (quantal-response) fixed
    points, where this residual is 0.  Unlike ``stationarity_check``, whose
    max-norm carries a factor y and so reads ~0 at every vertex, it stays
    large at a vertex that is not a smoothed best response.
    """
    ys = np.asarray(profile, dtype=float)
    logits = [
        boltzmann_strategy(action_expected_utilities(u_i, ys, i), temperature)
        for i, u_i in enumerate(utilities)
    ]
    return float(np.abs(ys - logits).sum(axis=-1).max())


def total_variation(profile_a, profile_b) -> float:
    """Max over users of the total-variation distance between two (n, M)
    profiles."""
    diff = np.asarray(profile_a, dtype=float) - np.asarray(profile_b, dtype=float)
    return 0.5 * float(np.abs(diff).sum(axis=-1).max())
