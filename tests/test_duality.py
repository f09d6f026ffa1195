import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from abep import (SystemParams, classical_D, classical_D_sigma,
                  generator_duality_residual, laguerre_d, map_g,
                  orthogonal_D, orthogonal_D_sigma, pochhammer,
                  semigroup_duality_check, sip_generator_apply)
import abep.duality as duality
from abep.cli import run
from abep.errors import NumericalBlowup, ParameterError

RNG = np.random.default_rng(4096)


def test_pochhammer_small_cases():
    assert pochhammer(2.0, 0) == 1.0
    assert pochhammer(2.0, 1) == 2.0
    assert pochhammer(2.0, 3) == 2.0 * 3.0 * 4.0
    assert pochhammer(0.5, 2) == pytest.approx(0.75)


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("alpha", [0.7, 1.0, 2.3])
def test_laguerre_d_matches_scipy(k, alpha):
    t = 1.3
    z = RNG.uniform(0.0, 4.0, 40)
    mine = laguerre_d(z, k, alpha, t)
    ref = ((-t) ** k * math.factorial(k) / pochhammer(alpha, k)
           * eval_genlaguerre(k, alpha - 1, z / t))
    assert mine == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_laguerre_d_rejects_bad_temperature():
    with pytest.raises(ParameterError):
        laguerre_d(np.array([1.0]), 2, 1.0, 0.0)


@pytest.mark.parametrize("k", range(1, 6))
def test_laguerre_d_zero_mean_under_gamma(k):
    """Each polynomial is orthogonal to constants under the matching Gamma."""
    alpha, t = 1.5, 0.7
    samples = RNG.gamma(alpha, t, size=100_000)
    vals = laguerre_d(samples, k, alpha, t)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) < 3 * se


def test_classical_d_single_particle_value():
    p = SystemParams(2, 0.0, 2.0, 1.0, 3.0)
    z = np.array([0.8, 0.4])
    assert classical_D(z, np.array([0, 1, 0, 0]), p) == pytest.approx(0.8 / 2.0)
    assert classical_D(z, np.array([0, 0, 0, 2]), p) == pytest.approx(9.0)
    assert classical_D(z, np.array([1, 0, 0, 0]), p) == pytest.approx(1.0)
    assert classical_D(z, np.array([0, 0, 0, 0]), p) == pytest.approx(1.0)


def test_classical_d_batched():
    p = SystemParams(2, 0.0, 1.0, 1.0, 2.0)
    z = RNG.uniform(0.1, 1.0, size=(7, 2))
    xi = np.array([0, 1, 1, 0])
    vals = classical_D(z, xi, p)
    assert vals.shape == (7,)
    assert vals == pytest.approx(z[:, 0] * z[:, 1])


def test_sigma_composition():
    p = SystemParams(3, 0.3, 1.2, 1.0, 2.0)
    x = RNG.uniform(0.1, 1.5, 3)
    xi = np.array([0, 1, 0, 2, 1])
    a = classical_D_sigma(x, xi, p)
    b = classical_D(map_g(x, p), xi, p)
    assert a == pytest.approx(b)
    c = orthogonal_D_sigma(x, xi, p, 1.1)
    d = orthogonal_D(map_g(x, p), xi, p, 1.1)
    assert c == pytest.approx(d)


def test_orthogonal_reduces_to_centered_product_at_k1():
    p = SystemParams(1, 0.0, 1.0, 1.0, 1.0)
    t = 0.9
    z = np.array([1.7])
    # one particle, alpha = 1: value is z - alpha*t
    val = orthogonal_D(z, np.array([0, 1, 0]), p, t)
    assert val == pytest.approx(1.7 - 0.9)


def test_orthogonal_boundary_factors():
    p = SystemParams(1, 0.0, 1.0, 2.0, 3.0)
    t = 1.25
    z = np.array([0.5])
    val = orthogonal_D(z, np.array([2, 0, 1]), p, t)
    assert val == pytest.approx((2.0 - t) ** 2 * (3.0 - t))


def test_sip_generator_apply_exact():
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    xi = np.array([0, 1, 1, 0])

    def occupied_first(occ):
        return float(occ[1])

    # rate out of site 1: absorb left (1) + join right (2), gain: join left (2)
    val = sip_generator_apply(occupied_first, xi, p)
    assert val == pytest.approx(1.0 * (0 - 1) + 2.0 * (0 - 1) + 2.0 * (2 - 1))


@pytest.mark.parametrize("model", ["bep", "abep"])
@pytest.mark.parametrize("dfun", ["classical", "orthogonal"])
def test_generator_duality_residuals(model, dfun):
    p = SystemParams(2, 0.4, 1.7, 1.0, 2.0)
    configs = [np.array(v) for v in
               [(0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0),
                (0, 2, 0, 0), (0, 1, 2, 0)]]
    for _ in range(5):
        x = RNG.uniform(0.1, 1.5, 2)
        for xi in configs:
            res = generator_duality_residual(x, xi, p, model=model,
                                             dfun=dfun, fd_step=1e-4)
            assert res < 1e-4


def test_semigroup_check_t_zero_is_exact():
    p = SystemParams(2, 0.1, 1.0, 0.5, 1.0)
    chk = semigroup_duality_check(np.array([0.8, 0.5]), np.array([0, 1, 0, 0]),
                                  0.0, p, model="abep", n_runs=50, seed=1)
    assert chk.lhs == chk.rhs
    assert chk.z_score == 0.0


def test_semigroup_check_short_horizon():
    p = SystemParams(2, 0.0, 1.0, 0.5, 1.0)
    chk = semigroup_duality_check(np.array([0.8, 0.5]), np.array([0, 1, 0, 0]),
                                  0.2, p, model="bep", dfun="classical",
                                  n_runs=4000, seed=3, dt=1e-3)
    assert chk.z_score < 4.0
    assert chk.lhs_se > 0.0
    assert chk.rhs_se > 0.0


@pytest.mark.parametrize("t", [0.0, 0.2])
def test_semigroup_check_takes_one_configuration(t):
    # checks share an ensemble through the memo, not through a list of xi0
    p = SystemParams(2, 0.05, 2.0, 0.5, 1.5)
    xis = [np.array([0, 1, 0, 0]), np.array([0, 1, 1, 0])]
    with pytest.raises(ParameterError, match="one-dimensional"):
        semigroup_duality_check(np.array([0.5, 0.5]), xis, t, p, model="abep",
                                n_runs=300, seed=4, dt=5e-3)
    # a ragged list is refused the same way, not by numpy's ValueError
    ragged = [np.array([0, 1, 0, 0]), [0, 1, 0]]
    with pytest.raises(ParameterError, match="rectangular"):
        semigroup_duality_check(np.array([0.5, 0.5]), ragged, t, p, model="abep",
                                n_runs=300, seed=4, dt=5e-3)


@pytest.mark.parametrize("t, dt", [(0.5, 2e-3), (0.2, 1e-3), (0.3, 0.1)])
def test_semigroup_check_accepts_whole_step_horizons(t, dt):
    # t / dt is a whole number up to rounding: 0.3 / 0.1 = 2.9999999999999996
    p = SystemParams(2, 0.0, 1.0, 0.5, 1.0)
    chk = semigroup_duality_check(np.array([0.8, 0.5]), np.array([0, 1, 0, 0]),
                                  t, p, model="bep", n_runs=20, seed=3, dt=dt)
    assert chk.lhs_se > 0.0


MEMO_P = SystemParams(2, 0.05, 2.0, 0.5, 1.5)
MEMO_ARGS = dict(x0=(0.5, 0.5), p=MEMO_P, model="abep", dt=5e-3,
                 t_horizon=0.2, n_runs=200, seed=4, cap=1e6)


@pytest.fixture
def simulations(monkeypatch):
    """Count the diffusion ensembles simulated, starting from an empty memo."""
    calls = []
    simulate = duality.ensemble_endpoint

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(duality, "ensemble_endpoint", counted)
    duality._endpoint_cache.clear()
    yield calls
    duality._endpoint_cache.clear()


def _memo_check(xi0=(0, 1, 0, 0), dfun="classical", **changes):
    kwargs = {**MEMO_ARGS, **changes}
    x0, p, t = np.array(kwargs.pop("x0")), kwargs.pop("p"), kwargs.pop("t_horizon")
    return semigroup_duality_check(x0, np.array(xi0), t, p, dfun=dfun, **kwargs)


@pytest.mark.parametrize("model, sigma", [("bep", 0.0), ("abep", 0.05)])
def test_semigroup_check_memo_hit_equals_cold_call(simulations, model, sigma):
    p = SystemParams(2, sigma, 2.0, 0.5, 1.5)
    calls = [((0, 1, 0, 0), "classical"), ((0, 1, 0, 0), "classical"),
             ((0, 1, 1, 0), "classical"), ((0, 0, 2, 1), "orthogonal")]
    warm = [_memo_check(xi, dfun, p=p, model=model) for xi, dfun in calls]
    assert len(simulations) == 1
    for (xi, dfun), chk in zip(calls, warm):
        duality._endpoint_cache.clear()
        # bit for bit, not approximately
        assert chk == _memo_check(xi, dfun, p=p, model=model)
    assert len(simulations) == 1 + len(calls)


@pytest.mark.parametrize("change", [
    dict(x0=(0.5, 0.6)), dict(p=SystemParams(2, 0.06, 2.0, 0.5, 1.5)),
    dict(model="bep"), dict(dt=1e-2), dict(t_horizon=0.3), dict(n_runs=201),
    dict(seed=5), dict(cap=1e5)])
def test_semigroup_check_memo_key_holds_every_ensemble_argument(simulations, change):
    base = _memo_check()
    _memo_check(**change)
    assert len(simulations) == 2
    # one entry: the first ensemble was dropped, so going back simulates again
    assert len(duality._endpoint_cache) == 1
    assert _memo_check() == base
    assert len(simulations) == 3


def test_semigroup_check_memo_is_read_only(simulations):
    _memo_check()
    (finals,) = duality._endpoint_cache.values()
    assert not finals.flags.writeable
    with pytest.raises(ValueError):
        finals[0, 0] = 1.0


def test_semigroup_check_blowup_stores_nothing(simulations):
    # every chain starts 0.01 below the cap, so the first step that moves
    # one up by more trips; a cap at the start is refused before any step
    for cap, error in [(0.51, NumericalBlowup), (0.5, ParameterError)]:
        with pytest.raises(error):
            _memo_check(cap=cap)
        assert duality._endpoint_cache == {}
    _memo_check()
    (kept,) = duality._endpoint_cache.items()
    with pytest.raises(NumericalBlowup):
        _memo_check(cap=0.51)
    assert list(duality._endpoint_cache.items()) == [kept]


def test_verify_duality_cli_reuse_prints_fresh_bytes(capsys):
    argv = ["verify-duality", "--n", "2", "--model", "abep", "--sigma", "0.05",
            "--tl", "0.5", "--tr", "1.5", "--t", "0.2", "--runs", "300",
            "--dt", "5e-3", "--seed", "4", "--no-header"]
    outputs = []
    for fresh in (False, True):
        duality._endpoint_cache.clear()
        for xi0 in ("1,0", "1,1"):
            if fresh:
                duality._endpoint_cache.clear()
            assert run(argv + ["--xi0", xi0]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 4
