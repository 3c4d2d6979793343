"""Strategy dynamics with the learners' rest points.

A replicator-style vector field with an entropy (exploration) term:

    dy_{i,j}/dt = (alpha / tau) * y_{i,j} * (
        [U_i(j, Y_-i) - sum_l y_{i,l} U_i(l, Y_-i)]
        - tau * sum_l y_{i,l} * ln(y_{i,j} / y_{i,l}) )

with U_i the exact expected utility of action j against the other users'
mixed strategies.  This is the form Tuyls, Verbeeck & Lenaerts (AAMAS 2003)
derive for Boltzmann Q-learning that updates every action's Q-value.  Its
rest points, the logit fixed points, are those of the package's learners,
but it is not their mean field: they update only the played action's
Q-value, so their transients differ.  Over noncoop replicates on the
default game at alpha = 0.01, the replicate mean strayed up to 0.32 in
total variation from this field, and 0.055 from the played-action
Q-field.  Every function takes a ``FieldTensors``:
the per-user utility tensors on the normalized scale the learners use, read
in place from the game's shared own-axis-first stack
(``game.normalized_utility_tensors``), so residuals are comparable to learner
temperatures.  U_i comes from ``learning._expect``, the chain the learners'
expected utilities come from, so the field has no contraction of its own.
"""

from __future__ import annotations

import numpy as np

from .channel import ConfigError, sized_by
from .learning import _chain_plan, _expect, _softmax_rows

# Floor applied inside the ln(y_j / y_l) terms to dodge simplex-boundary
# singularities; strategies are renormalized after flooring.
PROB_FLOOR = 1e-12


class FieldTensors:
    """Every user's utility tensor, stacked for the batched field.

    ``FieldTensors(normalized_utility_tensors(game))`` takes the game's
    (n, *dims) stack, row i user i's tensor of shape (M,) * n with its own
    axis first and the other users after it in ascending order, as its
    read-only ``stack``: a view of the game's array, not a copy (a list of
    rows is stacked into a new one).  ``expected_utilities`` contracts
    every user's own-axis-first tensor with the other users' strategies
    through ``learning._expect``, the package's one expected-utility chain.
    """

    def __init__(self, utilities):
        try:
            stack = np.asarray(utilities).view()
        except ValueError:  # rows of different shapes
            stack = np.empty(0)
        n = stack.ndim - 1
        if n < 1 or stack.shape != (n,) + (stack.shape[-1],) * n:
            raise ValueError("utilities: need one tensor of shape (M,) * n for each of n >= 1 users")
        stack.setflags(write=False)
        self.stack, self.num_users, self.num_actions = stack, n, stack.shape[-1]
        # row i: the users other than i, in ascending order
        self._others = np.array([[j for j in range(n) if j != i] for i in range(n)], dtype=np.intp)
        self._plan = _chain_plan((n,), (self.num_actions,), range(n - 1), self.num_actions)

    def expected_utilities(self, profile: np.ndarray) -> np.ndarray:
        """U_i(a, Y_-i) for every user i and action a at an (n, M) profile:
        the (n, M) expected utilities against the other users' strategies,
        a new array."""
        return _expect(self.stack, profile[self._others], self._plan)


def _floor_profile(profile) -> np.ndarray:
    y = np.maximum(np.asarray(profile, dtype=float), PROB_FLOOR)
    return y / y.sum(axis=-1, keepdims=True)


def _row_dot(ys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each row's ``y @ v`` as an (n, 1) column, with the same dot per row."""
    return np.matmul(ys[:, None, :], values[:, :, None])[:, 0]


def strategy_derivative(
    profile, tensors: FieldTensors, alpha: float, temperature: float
) -> np.ndarray:
    """Evaluate the strategy vector field at an (n, M) profile.

    Returns the (n, M) derivative; each user's row sums to zero (the field
    is tangent to the product of simplices).
    """
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    ys = _floor_profile(profile)
    u_actions = tensors.expected_utilities(ys)
    mean_u = _row_dot(ys, u_actions)
    log_y = np.log(ys)
    entropy_term = log_y - _row_dot(ys, log_y)
    return (alpha / temperature) * ys * ((u_actions - mean_u) - temperature * entropy_term)


def integrate_dynamics(
    initial,
    tensors: FieldTensors,
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
    floor (a divergence, or an overshoot past the simplex boundary) is a
    ``ConfigError`` on ``dynamics --step-size`` that names the offending
    step index; numpy's floating-point warnings on the way there are
    silenced, since the error reports the step.  A trajectory numpy cannot
    allocate is a ``ConfigError`` on ``dynamics --steps``.
    """
    if not step_size > 0:
        raise ValueError("step_size must be > 0")
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")

    def field(profile):
        return strategy_derivative(profile, tensors, alpha, temperature)

    current = _floor_profile(initial)
    with sized_by("dynamics --steps", f"{num_steps} steps of {current.shape} profiles"):
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
                raise ConfigError(
                    f"dynamics --step-size: {step_size!r} diverges or overshoots at step {step}"
                )
            current = trajectory[step + 1] = _floor_profile(nxt)
    return trajectory


def logit_residual(profile, tensors: FieldTensors, temperature: float) -> float:
    """Max over users of ||y_i - softmax(U_i(., y_-i) / temperature)||_1 at
    an (n, M) profile.

    Interior rest points of the field are logit (quantal-response) fixed
    points, where this residual is 0.  Unlike the field's max-norm, which
    carries a factor y and so reads ~0 at every vertex, it stays
    large at a vertex that is not a smoothed best response.
    """
    if not temperature > 0:
        raise ValueError("temperature must be > 0")
    ys = np.asarray(profile, dtype=float)
    logits = _softmax_rows(tensors.expected_utilities(ys), temperature)
    return float(np.abs(ys - logits).sum(axis=-1).max())


def total_variation(profile_a, profile_b) -> float:
    """Max over users of the total-variation distance between two (n, M)
    profiles."""
    diff = np.asarray(profile_a, dtype=float) - np.asarray(profile_b, dtype=float)
    return 0.5 * float(np.abs(diff).sum(axis=-1).max())
