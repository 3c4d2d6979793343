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


def _floor_profile(profile) -> list[np.ndarray]:
    out = []
    for y in profile:
        y = np.maximum(np.asarray(y, dtype=float), PROB_FLOOR)
        out.append(y / y.sum())
    return out


def strategy_derivative(
    profile, utilities: list[np.ndarray], alpha: float, temperature: float
) -> list[np.ndarray]:
    """Evaluate the strategy vector field at a profile.

    Returns one derivative vector per user; each sums to zero (the field is
    tangent to the product of simplices).
    """
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    ys = _floor_profile(profile)
    derivs = []
    for i in range(len(utilities)):
        y = ys[i]
        u_actions = action_expected_utilities(utilities[i], ys, i)
        mean_u = float(y @ u_actions)
        log_y = np.log(y)
        entropy_term = log_y - float(y @ log_y)
        d = (alpha / temperature) * y * ((u_actions - mean_u) - temperature * entropy_term)
        derivs.append(d)
    return derivs


def integrate_dynamics(
    initial,
    utilities: list[np.ndarray],
    alpha: float,
    temperature: float,
    step_size: float,
    num_steps: int,
) -> list[list[np.ndarray]]:
    """Fixed-step RK4 integration of the strategy field.

    Each accepted step renormalizes every strategy back onto its simplex.
    Returns the trajectory including the initial profile (``num_steps + 1``
    entries).  A step that leaves a non-finite or negative entry before the
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

    def axpy(profile, derivs, scale):
        return [y + scale * d for y, d in zip(profile, derivs)]

    current = _floor_profile(initial)
    trajectory = [current]
    h = step_size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(num_steps):
            k1 = field(current)
            k2 = field(axpy(current, k1, h / 2))
            k3 = field(axpy(current, k2, h / 2))
            k4 = field(axpy(current, k3, h))
            nxt = [
                y + (h / 6.0) * (a + 2 * b + 2 * c + d)
                for y, a, b, c, d in zip(current, k1, k2, k3, k4)
            ]
            if any(not (np.all(np.isfinite(y)) and y.min() >= 0) for y in nxt):
                raise DynamicsDivergence(step)
            current = _floor_profile(nxt)
            trajectory.append(current)
    return trajectory


def stationarity_check(
    profile, utilities: list[np.ndarray], alpha: float, temperature: float, tolerance: float
) -> tuple[bool, float]:
    """Max-norm of the field at a profile and whether it is below tolerance."""
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    derivs = strategy_derivative(profile, utilities, alpha, temperature)
    residual = max(float(np.max(np.abs(d))) for d in derivs)
    return residual < tolerance, residual


def logit_residual(profile, utilities: list[np.ndarray], temperature: float) -> float:
    """Max over users of ||y_i - softmax(U_i(., y_-i) / temperature)||_1.

    Interior rest points of the field are logit (quantal-response) fixed
    points, where this residual is 0.  Unlike ``stationarity_check``, whose
    max-norm carries a factor y and so reads ~0 at every vertex, it stays
    large at a vertex that is not a smoothed best response.
    """
    ys = [np.asarray(y, dtype=float) for y in profile]
    residuals = []
    for i, u_i in enumerate(utilities):
        logit = boltzmann_strategy(action_expected_utilities(u_i, ys, i), temperature)
        residuals.append(float(np.abs(ys[i] - logit).sum()))
    return max(residuals)


def total_variation(profile_a, profile_b) -> float:
    """Max over users of the per-user total-variation distance."""
    return max(
        0.5 * float(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)).sum())
        for a, b in zip(profile_a, profile_b)
    )
