import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import abep.sde
from abep import (SdeConfig, SystemParams, ensemble_endpoint,
                  one_point_moment, simulate_trajectory, stationary_estimate)
from abep.errors import NumericalBlowup, ParameterError
from abep.generators import Workspace
from abep.sde import _sign_noise, _step_batch

RNG = np.random.default_rng(777)


def _step_constants(dt):
    """dt and sqrt(2 dt) as the 0-d arrays that _step_batch reads."""
    return np.array(dt, float), np.array(math.sqrt(2.0 * dt))


def _fresh_step(x, p, dt, gauss, model):
    """One step of a copy of x on a workspace of its own; x is unchanged."""
    ws = Workspace(np.array(x, dtype=float), p, model)
    return _step_batch(ws, *_step_constants(dt), gauss)


def test_em_step_shape_and_positivity():
    p = SystemParams(3, 0.2, 1.0, 1.0, 2.0)
    x = np.array([[0.02], [0.5], [0.01]])
    for _ in range(50):
        out = _fresh_step(x, p, 0.01, RNG.standard_normal((4, 1)), "bep")
        assert out.shape == (3, 1)
        assert np.all(out >= 0.0)


def test_em_step_noise_shape_checked():
    # the kernel reads one noise row per direction: too few rows cannot pass
    p = SystemParams(2, 0.1, 1.0, 1.0, 1.0)
    with pytest.raises(IndexError):
        _fresh_step(np.ones((2, 1)), p, 0.01, np.zeros((2, 1)), "bep")


def test_em_step_zero_noise_is_euler():
    p = SystemParams(2, 0.0, 2.0, 0.5, 1.5)
    x = np.array([[0.4], [0.9]])
    out = _fresh_step(x, p, 0.001, np.zeros((3, 1)), "bep")
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
    # nan and inf are no whole number of steps dt
    dict(dt=math.nan, t_end=1.0, thinning=0.1),
    dict(dt=0.01, t_end=math.inf, thinning=0.1),
    dict(dt=0.01, t_end=math.nan, thinning=0.1),
    dict(dt=0.01, t_end=1.0, thinning=math.nan),
    dict(dt=0.01, t_end=1.0, thinning=0.1, burn_in=math.nan),
    dict(dt=0.01, t_end=1.0, thinning=0.1, burn_in=math.inf),
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
    [(mean, se)] = stationary_estimate(p, cfg, model="bep",
                                       observables=[lambda s: np.asarray(s)[..., 0]],
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


CAP_P = SystemParams(2, 0.0, 1.0, 5.0, 5.0)
CAP_CFG = SdeConfig(dt=0.01, t_end=20.0, thinning=1.0, burn_in=0.0, seed=1)
# each route from the zero state, the only start of stationary_estimate
CAP_ROUTES = {
    "trajectory": lambda: simulate_trajectory(np.zeros(2), CAP_P, CAP_CFG),
    "endpoint": lambda: ensemble_endpoint(np.zeros(2), CAP_P, "bep", CAP_CFG.dt,
                                          CAP_CFG.t_end, 4, seed=1),
    "stationary": lambda: stationary_estimate(CAP_P, CAP_CFG, "bep",
                                              [lambda s: s[:, 0]], n_chains=4),
}


def test_small_cap_trips(monkeypatch):
    monkeypatch.setattr(abep.sde, "CAP", 0.5)
    with pytest.raises(NumericalBlowup, match=r"\(cap 0.5\) at t = "):
        CAP_ROUTES["trajectory"]()


@pytest.mark.parametrize("route", ["endpoint", "stationary"])
def test_small_cap_trips_every_ensemble_route(route, monkeypatch):
    monkeypatch.setattr(abep.sde, "CAP", 0.5)
    with pytest.raises(NumericalBlowup, match=r"\(cap 0.5\) at t = "):
        CAP_ROUTES[route]()


@pytest.mark.parametrize("route", CAP_ROUTES)
def test_start_at_the_cap_is_refused_before_any_step(route, monkeypatch):
    # the zero state at a cap of 0; with _step_batch unset, a step taken
    # before the check would raise TypeError instead
    monkeypatch.setattr(abep.sde, "CAP", 0.0)
    monkeypatch.setattr(abep.sde, "_step_batch", None)
    with pytest.raises(ParameterError, match="start state must be below the cap 0,"):
        CAP_ROUTES[route]()


@pytest.mark.parametrize("cap", [0.0, 0.5])
def test_cap_must_exceed_the_start_state(cap, monkeypatch):
    # t = 0 takes no step, so the error comes from the check made before it
    monkeypatch.setattr(abep.sde, "CAP", cap)
    p = SystemParams(2, 0.1, 2.0, 0.5, 1.5)
    with pytest.raises(ParameterError, match="start state must be below the cap"):
        ensemble_endpoint(np.full(2, 0.5), p, "abep", 0.01, 0.0, 4, seed=0)


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


@pytest.mark.parametrize("model, n_chains, match", [
    ("bep", 0, "n_chains"), ("abep", -1, "n_chains"), ("nope", 4, "unknown model"),
    ("bep", 2.5, "n_chains"), ("abep", math.inf, "n_chains"),
    ("bep", math.nan, "n_chains")])
@pytest.mark.parametrize("t", [0.0, 0.1])
def test_ensemble_endpoint_checks_chains_and_model(model, n_chains, match, t):
    # t = 0 takes no step: the checks come before the first one
    p = SystemParams(2, 0.1, 2.0, 0.5, 1.5)
    with pytest.raises(ParameterError, match=match):
        ensemble_endpoint(np.full(2, 0.5), p, model, 0.01, t, n_chains, seed=0)


def test_whole_float_chain_counts_run_as_integers():
    p = SystemParams(2, 0.1, 2.0, 0.5, 1.5)
    x0 = np.full(2, 0.5)
    assert (ensemble_endpoint(x0, p, "abep", 0.01, 0.1, 3.0, seed=0).tobytes()
            == ensemble_endpoint(x0, p, "abep", 0.01, 0.1, 3, seed=0).tobytes())
    cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=0.1, seed=0)
    obs = [lambda s: s[:, 0]]
    assert (stationary_estimate(p, cfg, "abep", obs, n_chains=2.0)
            == stationary_estimate(p, cfg, "abep", obs, n_chains=2))


@pytest.mark.parametrize("n_chains", [-1, 0, 2.5, math.nan])
def test_stationary_estimate_names_a_bad_chain_count(n_chains):
    # checked before the batch means, which a negative count would make
    # negative
    p = SystemParams(2, 0.02, 1.0, 1.0, 1.0)
    cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=0.1, seed=0)
    with pytest.raises(ParameterError, match="n_chains must be a whole number"):
        stationary_estimate(p, cfg, "abep", [lambda s: s[:, 0]], n_chains=n_chains)


def test_stationary_estimate_needs_two_batch_means():
    # one chain with one sample gives one batch mean: its se would read 0
    p = SystemParams(1, 0.02, 1.0, 1.0, 1.0)
    cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=1.0, seed=0)
    obs = [lambda s: s[:, 0]]
    with pytest.raises(ParameterError, match="two batch means"):
        stationary_estimate(p, cfg, "abep", obs, n_chains=1)
    # two chains give two means
    assert stationary_estimate(p, cfg, "abep", obs, n_chains=2)[0][1] > 0.0


def test_stationary_estimate_needs_samples():
    p = SystemParams(1, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=0.9, burn_in=0.9, seed=0)
        stationary_estimate(p, cfg, "bep", [lambda s: np.asarray(s)[..., 0]])


def test_stationary_estimate_averages_every_emitted_sample():
    # t_end = 0.3999999999 is step 4, the second emitted step
    p = SystemParams(1, 0.02, 1.0, 1.0, 1.0)
    seen = []

    def first_site(states):
        seen.append(states.copy())
        return states[:, 0]

    cfg = SdeConfig(dt=0.1, t_end=0.3999999999, thinning=0.2, seed=0)
    [(mean, _)] = stationary_estimate(p, cfg, "abep", [first_site], n_chains=3)
    assert seen[0].shape == (2 * 3, 1)
    assert mean == seen[0][:, 0].mean()
    same = SdeConfig(dt=0.1, t_end=0.4, thinning=0.2, seed=0)
    assert stationary_estimate(p, same, "abep", [first_site], n_chains=3) == \
        stationary_estimate(p, cfg, "abep", [first_site], n_chains=3)


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
        [alone] = stationary_estimate(p, cfg, "abep", [f], n_chains=6)
        # bit for bit, not approximately
        assert pair == alone
        assert pair[1] > 0.0


def test_stationary_estimate_rejects_wrong_shape_observable():
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=0.1, seed=0)
    # indexes the first row instead of the first site: shape (N,), not (M,)
    with pytest.raises(ParameterError, match="observable must map"):
        stationary_estimate(p, cfg, "bep", [lambda s: s[0]], n_chains=4)
    with pytest.raises(ParameterError, match="observable must map"):
        stationary_estimate(p, cfg, "bep", [lambda s: s[:, 0], lambda s: s.sum()],
                            n_chains=4)


def test_stationary_estimate_observable_errors_propagate():
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    cfg = SdeConfig(dt=0.01, t_end=1.0, thinning=0.1, seed=0)

    def broken(states):
        raise ZeroDivisionError("observable failed")

    with pytest.raises(ZeroDivisionError, match="observable failed"):
        stationary_estimate(p, cfg, "bep", [broken], n_chains=4)


# one calling form: a list of observables even for one, so a bare callable
# is refused too
@pytest.mark.parametrize("bad", [[], [1.0], "x", 3.0,
                                 pytest.param(lambda s: s[:, 0], id="bare_callable")])
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
    batch = _fresh_step(x, p, 1e-2, gauss, model)
    assert batch.shape == (n, r)
    for i in range(r):
        single = _fresh_step(x[:, i:i + 1], p, 1e-2, gauss[:, i:i + 1], model)
        assert batch[:, i].tobytes() == single[:, 0].tobytes()


@pytest.mark.parametrize("model", ["bep", "abep"])
def test_step_with_workspace_allocates_no_array(model):
    # the ensemble kernel steps its states in place, in a workspace bound to
    # them; a single row of temporaries at R = 10^4 would be 80 KB
    p = SystemParams(3, 0.1, 2.0, 0.5, 1.5)
    r = 10_000
    x = np.full((3, r), 0.5)
    gauss = np.random.default_rng(3).standard_normal((4, r))
    want = _fresh_step(x, p, 1e-3, gauss, model)
    want2 = _fresh_step(want, p, 1e-3, gauss, model)
    ws = Workspace(x, p, model)
    dt, scale = _step_constants(1e-3)
    tracemalloc.start()
    try:
        got = _step_batch(ws, dt, scale, gauss)
        peak = tracemalloc.get_traced_memory()[1]
        assert got.tobytes() == want.tobytes()
        # a second step allocates no array either
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        got = _step_batch(ws, dt, scale, gauss)
        peak2 = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert got is x
    assert got.tobytes() == want2.tobytes()
    assert peak < 8 * r and peak2 < 8 * r


@pytest.mark.parametrize("model", ["bep", "abep"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_bound_workspace_steps_equal_fresh_workspace_steps(model, n):
    # views built once must follow the state across steps: 50 in-place steps
    # on one bound workspace give the bytes of 50 steps on fresh ones
    p = SystemParams(n, 0.1, 2.0, 0.5, 1.5)
    rng = np.random.default_rng(60 + n)
    x = rng.uniform(0.0, 1.0, (n, 16))
    fresh = x.copy()
    ws = Workspace(x, p, model)
    dt, scale = _step_constants(1e-2)
    for _ in range(50):
        gauss = rng.standard_normal((n + 1, 16))
        assert _step_batch(ws, dt, scale, gauss) is x
        fresh = _fresh_step(fresh, p, 1e-2, gauss, model)
        assert x.tobytes() == fresh.tobytes()
    assert np.all(np.isfinite(x)) and x.std() > 0.0


def _raw_signs(seed, n):
    """The first n signs of the stream: the bits of the generator's raw
    words read little-endian, bit 1 as +1.0 and bit 0 as -1.0."""
    words = np.random.default_rng(seed).bit_generator.random_raw(-(-n // 64))
    bits = np.unpackbits(words.astype("<u8").view(np.uint8), bitorder="little")
    return 2.0 * bits[:n] - 1.0


def test_sign_noise_block_holds_only_signs():
    block = np.full((2, 3, 10_000), np.nan)
    _sign_noise(np.random.default_rng(4))(block)
    assert set(np.unique(block)) == {-1.0, 1.0}
    # fair signs: 60,000 of them sum to O(245)
    assert abs(block.sum()) < 5 * math.sqrt(block.size)


def test_sign_noise_is_the_raw_bit_stream_however_cut():
    # draws that end inside a word carry the rest of it to the next one
    sizes = [(1, 3, 7), (2, 3, 1), (64,), (1, 1, 1), (5, 2, 13)]
    draw = _sign_noise(np.random.default_rng(21))
    got = []
    for shape in sizes:
        out = np.empty(shape)
        draw(out)
        got.append(out.ravel())
    got = np.concatenate(got)
    assert got.tobytes() == _raw_signs(21, len(got)).tobytes()
    # bit b of word w is sign 64 w + b, whatever the host byte order
    words = np.random.default_rng(21).bit_generator.random_raw(3)
    shifts = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    assert np.array_equal(got[:192], 2.0 * shifts.ravel() - 1.0)


def test_partial_chunk_run_equals_steps_from_unpacked_signs():
    # 51 steps at R = 10^4 and N = 2: 25 chunks of two steps and one of one,
    # and every chunk ends half way through a raw word
    p = SystemParams(2, 0.0, 2.0, 0.5, 1.0)
    r, k, n_steps = 10_000, 3, 51
    final = ensemble_endpoint(np.full(2, 0.5), p, "bep", 1e-2, 0.51, r,
                              seed=np.random.default_rng(11))
    signs = _raw_signs(11, n_steps * k * r).reshape(n_steps, k, r)
    x = np.full((2, r), 0.5)
    ws = Workspace(x, p, "bep")
    dt, scale = _step_constants(1e-2)
    for j in range(n_steps):
        _step_batch(ws, dt, scale, signs[j])
    assert final.tobytes() == x.T.copy().tobytes()


def test_sign_noise_mean_follows_the_euler_mean_recursion():
    # the bep drift is affine, b(z) = A z + c, and the noise has mean 0, so
    # the Euler-Maruyama mean obeys m' = m + dt (A m + c) exactly while the
    # clamp is idle.  It is idle here: by AM-GM sqrt(2 z_i z_j dt) <=
    # alpha z_j dt + z_i / (2 alpha) and sqrt(2 T z_i dt) <= alpha T dt +
    # z_i / (2 alpha), so with |eta| = 1 and at most two noise terms per
    # site one step keeps z_i above (1 - 4 dt - 1 / alpha) z_i = 0.46 z_i
    alpha, tl, tr, dt, n_steps, r = 2.0, 0.5, 1.5, 1e-2, 30, 10_000
    p = SystemParams(3, 0.0, alpha, tl, tr)
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    a = -alpha * lap - np.diag([1.0, 0.0, 1.0])
    c = np.array([alpha * tl, 0.0, alpha * tr])
    m = np.ones(3)
    for _ in range(n_steps):
        m = m + dt * (a @ m + c)
    final = ensemble_endpoint(np.ones(3), p, "bep", dt, n_steps * dt, r, seed=2)
    z = (final.mean(axis=0) - m) / (final.std(axis=0, ddof=1) / math.sqrt(r))
    assert np.all(np.abs(z) < 4.0), z


def _sha256(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


# The digests below pin the integrator's output bytes, so a kernel change
# cannot move them silently.  Beyond the kernel, the abep ones depend on the
# rounding of exp and expm1 (the pinned_exp probe); the bep run uses only
# +, *, sqrt.  The trajectory pins fix the Gaussian stream, the endpoint and
# estimate pins the sign stream of the ensemble routes.


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
        "c460bc15be54a682a01a9a9fc5bcad2c1a7c6e6c5a3ada0988d9930a7c7db6e5"


def test_pinned_bytes_bep_endpoint():
    p = SystemParams(2, 0.0, 2.0, 0.5, 1.0)
    final = ensemble_endpoint(np.full(2, 0.5), p, "bep", 1e-2, 0.5, 10_000, seed=11)
    assert final.shape == (10_000, 2) and final.flags.c_contiguous
    assert _sha256(final) == \
        "cbbc4ec49ef66441d1306610738565e2e771457ce94e4e1668dc8974e18be9a9"


@pytest.mark.usefixtures("pinned_exp")
def test_pinned_bytes_abep_moments_estimate():
    # the three tail observables of `abep moments` on one ensemble
    p = SystemParams(3, 0.05, 2.0, 0.5, 1.5)
    cfg = SdeConfig(dt=1e-2, t_end=6.0, thinning=0.05, burn_in=2.0, seed=0)
    obs = [lambda s, _m=m: np.exp(-0.05 * s[:, _m - 1:].sum(axis=1))
           for m in (1, 2, 3)]
    est = stationary_estimate(p, cfg, "abep", obs, n_chains=8)
    assert _sha256(est) == \
        "43067a0408427d184bea09cbc1e1c54c91cd662c824d4ddd81f4bed778fc56d8"


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
        "6219711279a532995d8dc8a86d1dfe19b9af20941bb34a4eef2f1ce20586d339"


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
    # and a last chunk of one step; each chunk's 60,000 signs end half way
    # through a raw word, whose other half starts the next chunk
    final = ensemble_endpoint(np.full(2, 0.5), p, "bep", 1e-2, 0.51, 10_000, seed=11)
    assert final.shape == (10_000, 2)
    assert _sha256(final) == \
        "f16345f3c921ab979da856710cd60581687c06419a8947d446521c6e4ce7a1a8"


# Two more, recorded before the drift became a difference of fluxes: N = 1
# bep, where both reservoir terms land on the one site, and abep at
# sigma = 0, which takes the bep branch.


def test_pinned_bytes_bep_one_site_endpoint():
    p = SystemParams(1, 0.0, 2.0, 0.5, 1.0)
    final = ensemble_endpoint(np.full(1, 0.5), p, "bep", 1e-2, 0.5, 1000, seed=11)
    assert final.shape == (1000, 1)
    assert _sha256(final) == \
        "97b8ef17beac64c1d15ef6e004c939fb516630a11c81002e96e0addaa110c846"


def test_pinned_bytes_abep_sigma_zero_endpoint():
    p = SystemParams(2, 0.0, 2.0, 0.5, 1.0)
    final = ensemble_endpoint(np.full(2, 0.5), p, "abep", 1e-2, 0.5, 1000, seed=11)
    assert final.shape == (1000, 2)
    assert _sha256(final) == \
        "488eb50ccffc6266ca277914c62f872c45a5c07e0e1f10c3d00ee42f26f54629"
