import math

import numpy as np
import pytest

import stackelearn as sl
from stackelearn.channel import ConfigError, NetworkConfig, gain_matrix, generate_topology, sized_by


def test_dbm_to_watt_reference_points():
    assert sl.dbm_to_watt(30.0) == 1.0
    assert sl.dbm_to_watt(20.0) == pytest.approx(0.1, rel=1e-12)
    assert sl.dbm_to_watt(-110.0) == pytest.approx(1e-14, rel=1e-12)


def test_db_to_linear_reference_points():
    assert sl.db_to_linear(0.0) == 1.0
    assert sl.db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-12)
    assert sl.db_to_linear(5.0) == pytest.approx(3.1622776601683795, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_conversions_reject_non_finite(bad):
    with pytest.raises(ValueError):
        sl.dbm_to_watt(bad)
    with pytest.raises(ValueError):
        sl.db_to_linear(bad)


def test_dbm_conversions_keep_their_bits():
    # each is the dB conversion shifted by 30 dB, the same expression as before
    for x_dbm in np.linspace(-200.0, 200.0, 4001).tolist():
        assert sl.dbm_to_watt(x_dbm) == 10.0 ** ((x_dbm - 30.0) / 10.0), x_dbm
    for x_w in np.geomspace(1e-20, 1e3, 4001).tolist():
        assert sl.watt_to_dbm(x_w) == 10.0 * math.log10(x_w) + 30.0, x_w


def test_db_round_trip():
    for x in [1e-14, 1e-9, 1e-3, 1.0, 12.5, 1e3]:
        assert sl.db_to_linear(sl.linear_to_db(x)) == pytest.approx(x, rel=1e-12)


def _config(seed=7, **kw):
    base = dict(
        bandwidth_hz=1e6,
        noise_power_dbm=-110.0,
        num_femtocells=2,
        macro_radius_m=500.0,
        femto_radius_m=20.0,
        path_loss_exponent=4.0,
        rng_seed=seed,
    )
    base.update(kw)
    return NetworkConfig(**base)


def _topology(config):
    return generate_topology(config, np.random.default_rng(config.rng_seed))


def test_topology_deterministic_given_seed():
    a = _topology(_config())
    b = _topology(_config())
    assert np.array_equal(a.bs_positions, b.bs_positions)
    assert np.array_equal(a.user_positions, b.user_positions)
    assert np.array_equal(a.distances, b.distances)


def test_topology_geometry_constraints():
    for seed in range(20):
        topo = _topology(_config(seed=seed))
        # all FBS inside the macro disc
        fbs_dist = np.linalg.norm(topo.bs_positions[1:] - topo.bs_positions[0], axis=1)
        assert np.all(fbs_dist <= 500.0)
        # MU inside the macro disc, each FU inside its femtocell
        assert np.linalg.norm(topo.user_positions[0] - topo.bs_positions[0]) <= 500.0
        fu_dist = np.linalg.norm(topo.user_positions[1:] - topo.bs_positions[1:], axis=1)
        assert np.all(fu_dist <= 20.0)
        # minimum user-to-BS separation enforced
        assert topo.distances.min() >= 1.0
        # distance matrix consistent with the positions
        expected = np.linalg.norm(
            topo.user_positions[:, None, :] - topo.bs_positions[None, :, :], axis=2
        )
        assert np.allclose(topo.distances, expected, rtol=1e-9)


def test_gain_matrix_reference_points():
    topo = _topology(_config())
    d = np.array([[10.0, 1.0], [100.0, 50.0]])
    topo_small = sl.Topology(
        bs_positions=np.zeros((2, 2)),
        user_positions=np.zeros((2, 2)),
        distances=d,
    )
    h = gain_matrix(topo_small, 4.0, 0.0, np.random.default_rng(0))
    assert h[0, 0] == pytest.approx(1e-4, rel=1e-12)
    assert h[0, 1] == 1.0
    assert h[1, 0] == pytest.approx(1e-8, rel=1e-12)
    # full matrix matches d^-n elementwise
    h2 = gain_matrix(topo, 4.0, 0.0, np.random.default_rng(0))
    assert np.allclose(h2, topo.distances ** -4.0, rtol=1e-12)


def test_gain_matrix_rejects_zero_distance():
    topo = sl.Topology(
        bs_positions=np.zeros((1, 2)),
        user_positions=np.zeros((1, 2)),
        distances=np.array([[0.0]]),
    )
    with pytest.raises(ValueError):
        gain_matrix(topo, 4.0, 0.0, np.random.default_rng(0))


def test_gain_scaling_law_and_monotonicity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = rng.uniform(1.0, 500.0)
        k = rng.uniform(0.1, 10.0)
        n = rng.uniform(2.0, 5.0)
        assert (k * d) ** -n == pytest.approx(k ** -n * d ** -n, rel=1e-12)
        assert (d * 1.01) ** -n < d ** -n


def test_network_config_validation():
    with pytest.raises(ValueError):
        _config(femto_radius_m=600.0)  # femto must be inside macro
    with pytest.raises(ValueError):
        _config(bandwidth_hz=0.0)
    with pytest.raises(ValueError):
        _config(num_femtocells=0)
    with pytest.raises(ValueError, match="noise_power_dbm"):
        _config(noise_power_dbm=1e308)  # no finite power in watts
    assert _config().noise_power_w == sl.dbm_to_watt(-110.0)


@pytest.mark.parametrize(
    "kw", [{"femto_radius_m": 1.0}, {"min_separation_m": 20.0}, {"min_separation_m": 600.0}]
)
def test_network_config_rejects_separation_as_wide_as_the_femto_disc(kw):
    # no point of the femto disc is that far from its base station
    with pytest.raises(ValueError, match="^femto_radius_m: must be greater than min_separation_m"):
        _config(**kw)


def test_unplaceable_user_is_config_error():
    # a femto disc wider than the separation by a sliver that no draw hits
    config = _config(femto_radius_m=2.0, min_separation_m=2.0 - 1e-8)
    with pytest.raises(sl.ConfigError, match=r"^network\.min_separation_m: no position for user 1 "):
        _topology(config)


@pytest.mark.parametrize(
    ("exc", "detail"),
    [
        (ValueError("Maximum allowed dimension exceeded"), "Maximum allowed dimension exceeded"),
        (OverflowError("cannot fit 'int' into an index-sized integer"),
         "cannot fit 'int' into an index-sized integer"),
        (MemoryError("Unable to allocate 8.00 EiB"), "Unable to allocate 8.00 EiB"),
        # ``[x] * 10**15`` raises a MemoryError without a message
        (MemoryError(), "MemoryError"),
        (OverflowError(), "OverflowError"),
    ],
    ids=["value", "overflow", "memory", "empty-memory", "empty-overflow"],
)
def test_sized_by_reports_an_allocation_error_as_config_error(exc, detail):
    with pytest.raises(ConfigError) as info:
        with sized_by("sweep.replicates", "7 replicates"):
            raise exc
    assert str(info.value) == f"sweep.replicates: 7 replicates do not fit in one array: {detail}"
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_sized_by_passes_other_errors_and_results_through():
    error = TypeError("not a size")
    with pytest.raises(TypeError) as info:
        with sized_by("dynamics --steps", "3 steps"):
            raise error
    assert info.value is error
    with sized_by("dynamics --steps", "3 steps"):
        block = np.empty((3, 2))
    assert block.shape == (3, 2)
