import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from abep import (SystemParams, classical_D, classical_D_sigma,
                  generator_duality_residual, laguerre_d, map_g,
                  orthogonal_D, orthogonal_D_sigma, pochhammer,
                  semigroup_duality_check, sip_generator_apply)
from abep.errors import ParameterError

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
def test_semigroup_check_sequence_matches_single_calls(t):
    p = SystemParams(2, 0.05, 2.0, 0.5, 1.5)
    x0 = np.array([0.5, 0.5])
    xis = [np.array([0, 1, 0, 0]), np.array([0, 1, 1, 0]), [0, 0, 2, 1]]
    kwargs = dict(model="abep", n_runs=300, seed=4, dt=5e-3)
    together = semigroup_duality_check(x0, xis, t, p, **kwargs)
    assert isinstance(together, list) and len(together) == 3
    for xi, chk in zip(xis, together):
        # bit for bit, not approximately
        assert chk == semigroup_duality_check(x0, xi, t, p, **kwargs)
