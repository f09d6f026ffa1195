import numpy as np
import pytest

from abep import (SystemParams, abep_coefficients, apply_generator,
                  bep_coefficients, intertwining_residual, map_g, model_parts)
from abep.errors import ParameterError

RNG = np.random.default_rng(915)


def _coordinate(k):
    def f(v):
        arr = np.atleast_2d(np.asarray(v, dtype=float))
        out = arr[:, k]
        return float(out[0]) if np.asarray(v).ndim == 1 else out
    return f


def test_symmetric_drift_on_interior_coordinate():
    """The generator acts on an interior coordinate as the discrete laplacian."""
    p = SystemParams(3, 0.0, 1.3, 1.0, 2.0)
    z = np.array([0.7, 0.4, 1.1])
    val = apply_generator(bep_coefficients(z, p), _coordinate(1), z, 1e-5)
    assert val == pytest.approx(1.3 * (z[0] - 2 * z[1] + z[2]), abs=1e-8)


def test_symmetric_drift_on_boundary_coordinates():
    p = SystemParams(2, 0.0, 1.5, 0.8, 2.0)
    z = np.array([0.9, 0.3])
    left = apply_generator(bep_coefficients(z, p), _coordinate(0), z, 1e-5)
    right = apply_generator(bep_coefficients(z, p), _coordinate(1), z, 1e-5)
    # reservoir injection alpha*T minus unit leak, plus the bulk exchange
    assert left == pytest.approx(1.5 * 0.8 - z[0] + 1.5 * (z[1] - z[0]), abs=1e-8)
    assert right == pytest.approx(1.5 * 2.0 - z[1] + 1.5 * (z[0] - z[1]), abs=1e-8)


def test_symmetric_carre_du_champ_on_squares():
    # second order part doubles the bond amplitude on (z_i - z_j)^2 terms
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    z = np.array([0.6, 0.2])

    def f(v):
        arr = np.atleast_2d(np.asarray(v, dtype=float))
        out = arr[:, 0] ** 2
        return float(out[0]) if np.asarray(v).ndim == 1 else out

    val = apply_generator(bep_coefficients(z, p), f, z, 1e-4)
    drift = (1.0 * 1.0 - z[0] + (z[1] - z[0])) * 2 * z[0]
    diff = 2.0 * (z[0] * z[1] + 1.0 * z[0])
    assert val == pytest.approx(drift + diff, rel=1e-6)


def test_noise_direction_count_and_layout():
    p = SystemParams(4, 0.0, 1.0, 1.0, 1.0)
    z = RNG.uniform(0.1, 1.0, 4)
    coeffs = bep_coefficients(z, p)
    assert len(coeffs.noise_dirs) == 5
    amp, v = coeffs.noise_dirs[0]
    assert np.count_nonzero(v) == 2
    amp_l, v_l = coeffs.noise_dirs[3]
    assert np.argmax(np.abs(v_l)) == 0
    amp_r, v_r = coeffs.noise_dirs[4]
    assert v_r[-1] != 0.0


def test_asymmetric_reduces_to_symmetric_at_sigma_zero():
    p = SystemParams(3, 0.0, 1.2, 1.0, 2.0)
    x = RNG.uniform(0.1, 1.5, 3)
    ca = abep_coefficients(x, p)
    cb = bep_coefficients(x, p)
    assert np.allclose(ca.drift, cb.drift)
    for (a1, v1), (a2, v2) in zip(ca.noise_dirs, cb.noise_dirs):
        assert a1 == pytest.approx(a2)
        assert np.allclose(v1, v2)


def test_asymmetric_drift_small_sigma_limit():
    x = RNG.uniform(0.2, 1.0, 3)
    p0 = SystemParams(3, 1e-7, 1.1, 0.7, 1.4)
    p1 = SystemParams(3, 0.0, 1.1, 0.7, 1.4)
    ca = abep_coefficients(x, p0)
    cb = bep_coefficients(x, p1)
    assert np.max(np.abs(ca.drift - cb.drift)) < 1e-5


@pytest.mark.parametrize("sigma", [0.1, 0.5])
def test_intertwining_on_polynomials(sigma):
    """Conjugating by the energy transform maps one generator to the other."""
    p = SystemParams(3, sigma, 1.0, 1.0, 2.0)

    def f(v):
        arr = np.atleast_2d(np.asarray(v, dtype=float))
        out = arr[:, 0] ** 2 + 0.5 * arr[:, 1] * arr[:, 2] - arr[:, 2]
        return float(out[0]) if np.asarray(v).ndim == 1 else out

    for _ in range(10):
        x = RNG.uniform(0.0, 2.0, 3)
        assert intertwining_residual(x, p, f, 1e-4) < 1e-4


def test_intertwining_nontrivial_without_transform():
    # evaluating the symmetric generator at x instead of g(x) must not agree,
    # otherwise the previous test is vacuous
    p = SystemParams(2, 0.6, 1.0, 1.0, 2.0)

    def f(v):
        arr = np.atleast_2d(np.asarray(v, dtype=float))
        out = arr[:, 0] ** 2
        return float(out[0]) if np.asarray(v).ndim == 1 else out

    x = np.array([1.3, 0.9])
    lhs = apply_generator(abep_coefficients(x, p),
                          lambda v: f(map_g(np.asarray(v, dtype=float), p)),
                          x, 1e-4)
    wrong = apply_generator(bep_coefficients(x, p), f, x, 1e-4)
    assert abs(lhs - wrong) > 1e-3


def test_model_parts_dispatch():
    # site-major: one row per site, one column per chain (N = 3, R = 5)
    p = SystemParams(3, 0.3, 1.0, 1.0, 1.0)
    x = np.linspace(0.1, 1.5, 15).reshape(3, 5)
    drift, bond, left, right, v = model_parts(x, p, "abep")
    assert drift.shape == v.shape == (3, 5)
    assert bond.shape == (2, 5)
    assert left.shape == right.shape == (5,)
    drift_b, bond_b, left_b, right_b, v_b = model_parts(x, p, "bep")
    assert drift_b.shape == (3, 5) and bond_b.shape == (2, 5)
    assert left_b.shape == right_b.shape == (5,)
    assert v_b is None
    with pytest.raises(ParameterError, match="unknown model"):
        model_parts(x, p, "nope")
    # a chain-major (R, N) batch is refused, not misread
    with pytest.raises(ParameterError, match="site rows"):
        model_parts(x.T, p, "abep")


def test_amplitudes_are_nonnegative_on_domain():
    p = SystemParams(3, 0.4, 1.0, 1.0, 2.0)
    for _ in range(50):
        x = RNG.uniform(0.0, 2.0, 3)
        coeffs = abep_coefficients(x, p)
        for amp, _ in coeffs.noise_dirs:
            assert amp >= 0.0
