import numpy as np
import pytest

import stackelearn as sl


@pytest.fixture(scope="session")
def default_cfg():
    return sl.default_config()


@pytest.fixture(scope="session")
def prepared(default_cfg):
    return sl.build_game(default_cfg)


@pytest.fixture(scope="session")
def desk_game(prepared):
    """The default desk instance: 1 MU + 2 FUs, {20, 25, 30} dBm actions."""
    return prepared.game


def random_game(rng: np.random.Generator, num_users: int = 3, num_actions: int = 3):
    """Small randomized instance for property tests.

    Gains are log-uniform with a strong diagonal so that utilities are
    nonzero often enough to be interesting.
    """
    n = num_users
    gains = 10.0 ** rng.uniform(-12, -9, size=(n, n))
    for i in range(n):
        gains[i, i] = 10.0 ** rng.uniform(-8, -5)
    levels = sl.ActionSet.from_dbm(tuple(np.linspace(20, 30, num_actions)))
    users = tuple(
        sl.UserParams(
            sinr_target_lin=10.0 ** rng.uniform(-0.5, 1.0),
            circuit_power_w=sl.dbm_to_watt(10.0),
            action_set=levels,
        )
        for _ in range(n)
    )
    return sl.GameInstance(
        gains=gains, users=users, bandwidth_hz=1e6, noise_power_w=1e-14
    )


def ragged_game(game):
    """The game with action sets of 4, 2, 3, ... levels, user by user."""
    sizes = [4, 2, 3, 2, 3][: game.num_users]
    users = tuple(
        sl.UserParams(u.sinr_target_lin, u.circuit_power_w,
                      sl.ActionSet.from_dbm(tuple(np.linspace(18.0, 30.0, m))))
        for u, m in zip(game.users, sizes)
    )
    return sl.GameInstance(gains=game.gains, users=users,
                           bandwidth_hz=game.bandwidth_hz, noise_power_w=game.noise_power_w)


def random_simplex(rng: np.random.Generator, m: int) -> np.ndarray:
    x = rng.dirichlet(np.ones(m))
    return x / x.sum()
