import hashlib
import tracemalloc

import numpy as np
import pytest

from abep import (SdeConfig, SystemParams, ensemble_endpoint,
                  one_point_moment, simulate_trajectory, stationary_estimate)
from abep.errors import NumericalBlowup, ParameterError
from abep.generators import Workspace, model_parts
from abep.sde import _step_batch

RNG = np.random.default_rng(777)


def test_em_step_shape_and_positivity():
    p = SystemParams(3, 0.2, 1.0, 1.0, 2.0)
    x = np.array([[0.02], [0.5], [0.01]])
    for _ in range(50):
        out = _step_batch(x, p, 0.01, RNG.standard_normal((4, 1)), "bep")
        assert out.shape == (3, 1)
        assert np.all(out >= 0.0)


def test_em_step_noise_shape_checked():
    # the kernel reads one noise row per direction: too few rows cannot pass
    p = SystemParams(2, 0.1, 1.0, 1.0, 1.0)
    with pytest.raises(IndexError):
        _step_batch(np.ones((2, 1)), p, 0.01, np.zeros((2, 1)), "bep")


def test_em_step_zero_noise_is_euler():
    p = SystemParams(2, 0.0, 2.0, 0.5, 1.5)
    x = np.array([[0.4], [0.9]])
    out = _step_batch(x, p, 0.001, np.zeros((3, 1)), "bep")
    # drift at site 1: alpha*Tl - z1 + alpha*(z2 - z1); site 2 mirrored
    d1 = 2.0 * 0.5 - 0.4 + 2.0 * (0.9 - 0.4)
    d2 = 2.0 * 1.5 - 0.9 + 2.0 * (0.4 - 0.9)
    assert out[:, 0] == pytest.approx(x[:, 0] + 0.001 * np.array([d1, d2]),
                                      abs=1e-14)


@pytest.mark.parametrize("bad", [
    dict(dt=0.0, t_end=1.0, thinning=0.1),
    dict(dt=0.01, t_end=0.0, thinning=0.1),
    dict(dt=0.1, t_end=1.0, thinning=0.1),
    dict(dt=0.01, t_end=1.0, thinning=2.0),
    dict(dt=0.01, t_end=1.0, thinning=0.1, burn_in=3.0),
    dict(dt=0.01, t_end=1.0, thinning=0.1, burn_in=-0.5),
    # each time must be a whole number of steps: no silent rounding to dt
    dict(dt=0.3, t_end=1.0, thinning=0.6),
    dict(dt=0.1, t_end=1.0, thinning=0.25),
    dict(dt=0.1, t_end=1.0, thinning=0.2, burn_in=0.15),
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
    cases = [
        (0.1, 1.0, 0.2, 0.4, [6, 8, 10]),
        # times within the whole-step tolerance count as their whole steps,
        # so the row at t_end comes out whichever side of it
        # burn_in + j * thinning falls in floating point
        (1.0, 6.0, 2.000000001, 0.0, [2, 4, 6]),
        (1.0, 6.0, 1.999999999, 0.0, [2, 4, 6]),
        (0.1, 0.3999999999, 0.2, 0.0, [2, 4]),
        (0.1, 1.0, 0.2999999999, 0.1, [4, 7, 10]),
    ]
    for dt, t_end, thinning, burn_in, steps in cases:
        cfg = SdeConfig(dt=dt, t_end=t_end, thinning=thinning, burn_in=burn_in, seed=0)
        times = [t for t, _ in simulate_trajectory([0.0], p, cfg)]
        assert times == [k * dt for k in steps], (t_end, thinning)


def test_config_that_emits_nothing_is_rejected():
    # burn_in + thinning > t_end: the run would take its steps and return no row
    with pytest.raises(ParameterError, match=r"burn_in=1\.0, thinning=0\.2, t_end=1\.0"):
        SdeConfig(dt=0.1, t_end=1.0, thinning=0.2, burn_in=1.0)


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


@pytest.mark.parametrize("cap", [float("nan"), -1.0, 0.0, 0.5])
def test_cap_must_exceed_the_start_state(cap):
    # t = 0 takes no step, so the error comes from the check made before it
    p = SystemParams(2, 0.1, 2.0, 0.5, 1.5)
    with pytest.raises(ParameterError, match="cap must be greater"):
        ensemble_endpoint(np.full(2, 0.5), p, "abep", 0.01, 0.0, 4, seed=0, cap=cap)


def test_ensemble_endpoint_shape_and_determinism():
    p = SystemParams(3, 0.05, 1.0, 0.5, 1.0)
    a = ensemble_endpoint(np.zeros(3), p, "bep", 0.01, 1.0, 32, seed=9)
    b = ensemble_endpoint(np.zeros(3), p, "bep", 0.01, 1.0, 32, seed=9)
    assert a.shape == (32, 3)
    assert np.array_equal(a, b)
    assert np.all(a >= 0.0)
    assert a.std() > 0.0


@pytest.mark.parametrize("dt, t", [(1.0, 0.4), (0.3, 0.5), (0.0, 1.0), (0.1, -0.1),
                                   (float("inf"), 1.0)])
def test_ensemble_endpoint_needs_whole_steps(dt, t):
    # dt=1, t=0.4 and dt=inf would take no step and return x0
    p = SystemParams(1, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        ensemble_endpoint(np.zeros(1), p, "bep", dt, t, 4, seed=0)


def test_stationary_estimate_needs_two_batch_means():
    # one chain with one sample gives one batch mean: its se would read 0
    p = SystemParams(1, 0.02, 1.0, 1.0, 1.0)
    cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=1.0, seed=0)
    obs = lambda s: s[:, 0]
    with pytest.raises(ParameterError, match="two batch means"):
        stationary_estimate(p, cfg, "abep", obs, n_chains=1)
    # two chains give two means
    assert stationary_estimate(p, cfg, "abep", obs, n_chains=2)[1] > 0.0


def test_stationary_estimate_needs_samples():
    p = SystemParams(1, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=0.9, burn_in=0.9, seed=0)
        stationary_estimate(p, cfg, "bep", lambda s: np.asarray(s)[..., 0])


def test_stationary_estimate_averages_every_emitted_sample():
    # t_end = 0.3999999999 is step 4, the second emitted step
    p = SystemParams(1, 0.02, 1.0, 1.0, 1.0)
    seen = []

    def first_site(states):
        seen.append(states.copy())
        return states[:, 0]

    cfg = SdeConfig(dt=0.1, t_end=0.3999999999, thinning=0.2, seed=0)
    mean, _ = stationary_estimate(p, cfg, "abep", first_site, n_chains=3)
    assert seen[0].shape == (2 * 3, 1)
    assert mean == seen[0][:, 0].mean()
    same = SdeConfig(dt=0.1, t_end=0.4, thinning=0.2, seed=0)
    assert stationary_estimate(p, same, "abep", first_site, n_chains=3) == \
        stationary_estimate(p, cfg, "abep", first_site, n_chains=3)


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


@pytest.mark.parametrize("model", ["bep", "abep"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_step_batch_equals_single_steps(model, n):
    # a site-major (N, R) step is R independent chain steps, bit for bit;
    # N = 1 has no bonds and a one-row right direction
    p = SystemParams(n, 0.1, 2.0, 0.5, 1.5)
    rng = np.random.default_rng(40 + n)
    r = 37
    x = rng.uniform(0.0, 2.0, (n, r))
    x[:, 0] = 0.0
    gauss = rng.standard_normal((n + 1, r))
    batch = _step_batch(x, p, 1e-2, gauss, model)
    assert batch.shape == (n, r)
    for i in range(r):
        single = _step_batch(x[:, i:i + 1], p, 1e-2, gauss[:, i:i + 1], model)
        assert batch[:, i].tobytes() == single[:, 0].tobytes()


@pytest.mark.parametrize("model", ["bep", "abep"])
def test_step_with_workspace_allocates_no_array(model):
    # the ensemble kernel steps its states in place, in a workspace bound to
    # them; a single row of temporaries at R = 10^4 would be 80 KB
    p = SystemParams(3, 0.1, 2.0, 0.5, 1.5)
    r = 10_000
    x = np.full((3, r), 0.5)
    gauss = np.random.default_rng(3).standard_normal((4, r))
    want = _step_batch(x, p, 1e-3, gauss, model)
    want2 = _step_batch(want, p, 1e-3, gauss, model)
    ws = Workspace(x, model)
    tracemalloc.start()
    try:
        got = _step_batch(x, p, 1e-3, gauss, model, ws)
        peak = tracemalloc.get_traced_memory()[1]
        assert got.tobytes() == want.tobytes()
        # the first step bound the constants; a steady-state step reuses
        # them and allocates no array either
        bound = (ws.alpha, ws.t_right_alpha, ws.dt_c, ws.noise_scale)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        got = _step_batch(x, p, 1e-3, gauss, model, ws)
        peak2 = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert got is x
    assert got.tobytes() == want2.tobytes()
    assert peak < 8 * r and peak2 < 8 * r
    now = (ws.alpha, ws.t_right_alpha, ws.dt_c, ws.noise_scale)
    assert all(a is b for a, b in zip(now, bound))


@pytest.mark.parametrize("model", ["bep", "abep"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_bound_workspace_steps_equal_fresh_workspace_steps(model, n):
    # views built once must follow the state across steps: 50 in-place steps
    # on one bound workspace give the bytes of 50 steps on fresh ones
    p = SystemParams(n, 0.1, 2.0, 0.5, 1.5)
    rng = np.random.default_rng(60 + n)
    x = rng.uniform(0.0, 1.0, (n, 16))
    fresh = x.copy()
    ws = Workspace(x, model)
    for _ in range(50):
        gauss = rng.standard_normal((n + 1, 16))
        assert _step_batch(x, p, 1e-2, gauss, model, ws) is x
        fresh = _step_batch(fresh, p, 1e-2, gauss, model)
        assert x.tobytes() == fresh.tobytes()
    assert np.all(np.isfinite(x)) and x.std() > 0.0


@pytest.mark.parametrize("model", ["bep", "abep"])
def test_bound_constants_follow_params_and_dt(model):
    # a workspace rebinds its constants whenever a step brings other
    # parameters or another dt: each step equals the same step on a fresh
    # workspace, byte for byte
    p1 = SystemParams(3, 0.1, 2.0, 0.5, 1.5)
    p2 = SystemParams(3, 0.3, 0.7, 1.2, 0.4)
    rng = np.random.default_rng(71)
    x = rng.uniform(0.0, 1.0, (3, 8))
    fresh = x.copy()
    ws = Workspace(x, model)
    for p, dt in [(p1, 1e-2), (p2, 1e-2), (p1, 1e-2), (p1, 3e-3), (p2, 3e-3),
                  (p1, 1e-2)]:
        gauss = rng.standard_normal((4, 8))
        assert _step_batch(x, p, dt, gauss, model, ws) is x
        fresh = _step_batch(fresh, p, dt, gauss, model)
        assert x.tobytes() == fresh.tobytes()
        assert ws.p is p and ws.dt == dt


def test_workspace_bound_elsewhere_is_refused():
    p = SystemParams(2, 0.1, 2.0, 0.5, 1.5)
    x = np.full((2, 4), 0.5)
    gauss = np.zeros((3, 4))
    with pytest.raises(ParameterError, match="bound to another"):
        _step_batch(x, p, 1e-2, gauss, "abep", Workspace(x.copy(), "abep"))
    # a workspace holds the views of its own model only
    with pytest.raises(ParameterError, match="bound to another"):
        model_parts(x, p, "abep", Workspace(x, "bep"))
    assert np.all(x == 0.5)


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


# The digests below pin the integrator's output bytes, so a kernel change
# cannot move them silently.  Beyond the kernel, the abep ones depend on the
# rounding of exp and expm1 (the pinned_exp probe); the bep run uses only
# +, *, sqrt.


@pytest.mark.usefixtures("pinned_exp")
def test_pinned_bytes_abep_trajectory():
    p = SystemParams(3, 0.1, 2.0, 0.5, 1.5)
    cfg = SdeConfig(dt=1e-3, t_end=2.0, thinning=0.05, burn_in=0.0, seed=7)
    traj = simulate_trajectory(np.zeros(3), p, cfg, model="abep")
    assert len(traj) == 40
    assert _sha256([[t, *x] for t, x in traj]) == \
        "bb4a5fa5751bd1a389b631ce278d2b885857142c7d3f7905404ee71fa315bd14"


@pytest.mark.usefixtures("pinned_exp")
def test_pinned_bytes_abep_endpoint():
    p = SystemParams(2, 0.1, 2.0, 0.5, 1.0)
    final = ensemble_endpoint(np.full(2, 0.5), p, "abep", 1e-2, 0.5, 10_000, seed=11)
    assert final.shape == (10_000, 2) and final.flags.c_contiguous
    assert _sha256(final) == \
        "a2c1fd0da20708170c15a837541426835b081f597820f6f307edb25e9816da06"


def test_pinned_bytes_bep_endpoint():
    p = SystemParams(2, 0.0, 2.0, 0.5, 1.0)
    final = ensemble_endpoint(np.full(2, 0.5), p, "bep", 1e-2, 0.5, 10_000, seed=11)
    assert final.shape == (10_000, 2) and final.flags.c_contiguous
    assert _sha256(final) == \
        "85468a1d67b1bb17e33476b8333d9bdae7ab85ba4c813697bf635cc0b1ba83be"


@pytest.mark.usefixtures("pinned_exp")
def test_pinned_bytes_abep_moments_estimate():
    # the three tail observables of `abep moments` on one ensemble
    p = SystemParams(3, 0.05, 2.0, 0.5, 1.5)
    cfg = SdeConfig(dt=1e-2, t_end=6.0, thinning=0.05, burn_in=2.0, seed=0)
    obs = [lambda s, _m=m: np.exp(-0.05 * s[:, _m - 1:].sum(axis=1))
           for m in (1, 2, 3)]
    est = stationary_estimate(p, cfg, "abep", obs, n_chains=8)
    assert _sha256(est) == \
        "698266646f6c281494960bf1d944e9d8901c4e6a6f67115ef19b9dd7ab3d1437"


# Three kernel paths the digests above do not reach, recorded before the
# step kernel moved to preallocated buffers: N = 1 abep (no bond rows), a
# single bep chain, and 51 steps at R = 10^4, whose last noise chunk is
# partial.


@pytest.mark.usefixtures("pinned_exp")
def test_pinned_bytes_abep_one_site_endpoint():
    p = SystemParams(1, 0.1, 2.0, 0.5, 1.0)
    final = ensemble_endpoint(np.full(1, 0.5), p, "abep", 1e-2, 0.5, 1000, seed=11)
    assert final.shape == (1000, 1)
    assert _sha256(final) == \
        "f36e890bffa84da46ce4bb0394cd7997e0d43ab815bf63f7d2ab996c714e18d4"


def test_pinned_bytes_bep_trajectory():
    p = SystemParams(3, 0.0, 2.0, 0.5, 1.5)
    cfg = SdeConfig(dt=1e-3, t_end=2.0, thinning=0.05, burn_in=0.0, seed=7)
    traj = simulate_trajectory(np.zeros(3), p, cfg, model="bep")
    assert len(traj) == 40
    assert _sha256([[t, *x] for t, x in traj]) == \
        "0b2c8f20907b0d1351b76d89212d03d6c8ae4f3574180e81e9b9e5cda5c3583a"


def test_pinned_bytes_bep_endpoint_partial_noise_chunk():
    p = SystemParams(2, 0.0, 2.0, 0.5, 1.0)
    # 10^4 chains of 3 noise rows draw 2 steps per chunk: 25 full chunks
    # and a last chunk of one step
    final = ensemble_endpoint(np.full(2, 0.5), p, "bep", 1e-2, 0.51, 10_000, seed=11)
    assert final.shape == (10_000, 2)
    assert _sha256(final) == \
        "06ffbb511579fea3ca37aef543beac0cc049ae75248928787101ca23103180b1"
