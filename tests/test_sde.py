import numpy as np
import pytest

from abep import (SdeConfig, SystemParams, em_step, ensemble_endpoint,
                  one_point_moment, simulate_trajectory, stationary_estimate)
from abep.errors import NumericalBlowup, ParameterError

RNG = np.random.default_rng(777)


def test_em_step_shape_and_positivity():
    p = SystemParams(3, 0.2, 1.0, 1.0, 2.0)
    x = np.array([0.02, 0.5, 0.01])
    for _ in range(50):
        out = em_step(x, p, 0.01, RNG.standard_normal(4), model="bep")
        assert out.shape == (3,)
        assert np.all(out >= 0.0)


def test_em_step_noise_shape_checked():
    p = SystemParams(2, 0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        em_step(np.ones(2), p, 0.01, np.zeros(2))


def test_em_step_zero_noise_is_euler():
    p = SystemParams(2, 0.0, 2.0, 0.5, 1.5)
    x = np.array([0.4, 0.9])
    out = em_step(x, p, 0.001, np.zeros(3), model="bep")
    # drift at site 1: alpha*Tl - z1 + alpha*(z2 - z1); site 2 mirrored
    d1 = 2.0 * 0.5 - 0.4 + 2.0 * (0.9 - 0.4)
    d2 = 2.0 * 1.5 - 0.9 + 2.0 * (0.4 - 0.9)
    assert out == pytest.approx(x + 0.001 * np.array([d1, d2]), abs=1e-14)


@pytest.mark.parametrize("bad", [
    dict(dt=0.0, t_end=1.0, thinning=0.1),
    dict(dt=0.01, t_end=0.0, thinning=0.1),
    dict(dt=0.1, t_end=1.0, thinning=0.1),
    dict(dt=0.01, t_end=1.0, thinning=2.0),
    dict(dt=0.01, t_end=1.0, thinning=0.1, burn_in=3.0),
    dict(dt=0.01, t_end=1.0, thinning=0.1, burn_in=-0.5),
])
def test_config_validation(bad):
    with pytest.raises(ParameterError):
        SdeConfig(**bad)


def test_trajectory_deterministic_and_seed_sensitive():
    p = SystemParams(2, 0.1, 1.0, 0.5, 1.0)
    cfg = SdeConfig(dt=0.01, t_end=2.0, thinning=0.5, burn_in=0.0, seed=6)
    a = simulate_trajectory([0.1, 0.1], p, cfg, model="abep")
    b = simulate_trajectory([0.1, 0.1], p, cfg, model="abep")
    assert len(a) == len(b) == 4
    for (ta, xa), (tb, xb) in zip(a, b):
        assert ta == tb
        assert np.array_equal(xa, xb)
    other = simulate_trajectory(
        [0.1, 0.1], p,
        SdeConfig(dt=0.01, t_end=2.0, thinning=0.5, burn_in=0.0, seed=7),
        model="abep")
    assert not np.array_equal(a[-1][1], other[-1][1])


def test_trajectory_emission_times():
    p = SystemParams(1, 0.0, 1.0, 1.0, 1.0)
    cfg = SdeConfig(dt=0.1, t_end=1.0, thinning=0.2, burn_in=0.4, seed=0)
    times = [t for t, _ in simulate_trajectory([0.0], p, cfg)]
    assert times == pytest.approx([0.6, 0.8, 1.0])


def test_bep_single_site_stationary_mean():
    # with one site the energy is an autonomous mean-reverting diffusion
    # whose stationary mean is alpha * (t_left + t_right) / 2
    p = SystemParams(1, 0.0, 1.5, 0.5, 1.0)
    cfg = SdeConfig(dt=1e-3, t_end=60.0, thinning=0.05, burn_in=10.0, seed=3)
    mean, se = stationary_estimate(p, cfg, model="bep",
                                   observable=lambda s: np.asarray(s)[..., 0],
                                   n_chains=16)
    assert se < 0.1
    assert abs(mean - 1.5 * 0.75) < 3 * se


def test_asymmetric_single_chain_time_average():
    # long single chain of the asymmetric model against the exact stationary
    # value 0.85; at these temperatures a small fraction of the stationary
    # mass sits outside the reachable domain, so surviving trajectories carry
    # a positive conditioning bias of about +0.01 to +0.04 and the tolerance
    # is wider than the raw standard error
    p = SystemParams(1, 0.1, 1.0, 1.0, 2.0)
    cfg = SdeConfig(dt=1e-3, t_end=80.0, thinning=0.05, burn_in=20.0, seed=10)
    traj = simulate_trajectory(np.zeros(1), p, cfg, model="abep")
    vals = np.exp(-0.1 * np.array([x[0] for _, x in traj]))
    assert abs(vals.mean() - one_point_moment(1, p)) < 0.05


def test_asymmetric_unstable_seed_raises():
    # same system as above; this noise stream escapes toward the domain
    # boundary and the integrator must report it instead of returning junk
    p = SystemParams(1, 0.1, 1.0, 1.0, 2.0)
    cfg = SdeConfig(dt=1e-3, t_end=80.0, thinning=0.05, burn_in=20.0, seed=5)
    with pytest.raises(NumericalBlowup, match="cap"):
        simulate_trajectory(np.zeros(1), p, cfg, model="abep")


def test_small_cap_trips():
    p = SystemParams(2, 0.0, 1.0, 5.0, 5.0)
    cfg = SdeConfig(dt=0.01, t_end=20.0, thinning=1.0, burn_in=0.0, seed=1)
    with pytest.raises(NumericalBlowup):
        simulate_trajectory(np.zeros(2), p, cfg, cap=0.5)


def test_ensemble_endpoint_shape_and_determinism():
    p = SystemParams(3, 0.05, 1.0, 0.5, 1.0)
    a = ensemble_endpoint(np.zeros(3), p, "bep", 0.01, 1.0, 32, seed=9)
    b = ensemble_endpoint(np.zeros(3), p, "bep", 0.01, 1.0, 32, seed=9)
    assert a.shape == (32, 3)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0)
    assert a.std() > 0.0


def test_stationary_estimate_needs_samples():
    p = SystemParams(1, 0.0, 1.0, 1.0, 1.0)
    cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=0.9, burn_in=0.9, seed=0)
    with pytest.raises(ParameterError):
        stationary_estimate(p, cfg, "bep", lambda s: np.asarray(s)[..., 0])


def _tail_observables(p):
    return [lambda s, _m=m: np.exp(-0.05 * s[:, _m - 1:].sum(axis=1))
            for m in range(1, p.n_sites + 1)]


def test_stationary_estimate_list_matches_single_calls():
    p = SystemParams(3, 0.05, 2.0, 0.5, 1.5)
    cfg = SdeConfig(dt=0.01, t_end=6.0, thinning=0.05, burn_in=2.0, seed=8)
    obs = _tail_observables(p)
    together = stationary_estimate(p, cfg, "abep", obs, n_chains=6)
    assert isinstance(together, list) and len(together) == 3
    for f, pair in zip(obs, together):
        alone = stationary_estimate(p, cfg, "abep", f, n_chains=6)
        assert isinstance(alone, tuple)
        # bit for bit, not approximately
        assert pair == alone
        assert pair[1] > 0.0


def test_stationary_estimate_rejects_wrong_shape_observable():
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=0.1, seed=0)
    # indexes the first row instead of the first site: shape (N,), not (M,)
    with pytest.raises(ParameterError, match="observable must map"):
        stationary_estimate(p, cfg, "bep", lambda s: s[0], n_chains=4)
    with pytest.raises(ParameterError, match="observable must map"):
        stationary_estimate(p, cfg, "bep", [lambda s: s[:, 0], lambda s: s.sum()],
                            n_chains=4)


def test_stationary_estimate_observable_errors_propagate():
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=0.1, seed=0)

    def broken(states):
        raise ZeroDivisionError("observable failed")

    with pytest.raises(ZeroDivisionError, match="observable failed"):
        stationary_estimate(p, cfg, "bep", broken, n_chains=4)


@pytest.mark.parametrize("bad", [[], [1.0], "x"])
def test_stationary_estimate_needs_callables(bad):
    p = SystemParams(1, 0.0, 1.0, 1.0, 1.0)
    cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=0.1, seed=0)
    with pytest.raises(ParameterError, match="callable"):
        stationary_estimate(p, cfg, "bep", bad)
