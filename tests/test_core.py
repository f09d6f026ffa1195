import numpy as np
import pytest

from abep import (DOMAIN_TOL, DomainError, SystemParams, as_particles, as_state,
                  map_g, map_g_inv, partial_energies)
from abep.core import _z
from abep.errors import ParameterError

RNG = np.random.default_rng(20240817)


def test_partial_energies_suffix_sums():
    x = np.array([1.0, 2.0, 4.0])
    e = partial_energies(x)
    assert e.tolist() == [7.0, 6.0, 4.0, 0.0]


def test_partial_energies_batched():
    x = RNG.uniform(0, 3, size=(6, 4))
    e = partial_energies(x)
    assert e.shape == (6, 5)
    for r in range(6):
        for i in range(4):
            assert e[r, i] == pytest.approx(x[r, i:].sum())
    assert np.all(e[:, -1] == 0.0)


@pytest.mark.parametrize("shape", [(4,), (1,), (50, 1), (50, 3), (0, 3), (3, 5, 4),
                                   (2, 0, 2)])
def test_partial_energies_match_reversed_cumsum(shape):
    # the reversed cumulative sum adds in the same order, so the bytes agree;
    # negative entries, and -0.0 ones: a suffix sum of -0.0 alone is -0.0
    x = RNG.uniform(-1, 3, size=shape)
    x.flat[::3] = -0.0
    if x.size:
        x[..., -1] = -0.0
    expect = np.zeros(shape[:-1] + (shape[-1] + 1,))
    expect[..., :-1] = np.flip(np.cumsum(np.flip(x, -1), -1), -1)
    assert partial_energies(x).tobytes() == expect.tobytes()


@pytest.mark.parametrize("sigma", [0.05, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_map_round_trip(sigma, n):
    p = SystemParams(n, sigma, 1.0, 1.0, 1.0)
    x = RNG.uniform(0.0, 2.0, size=(200, n))
    z = map_g(x, p)
    assert np.max(np.abs(map_g_inv(z, p) - x)) < 1e-12


def test_map_image_bound():
    p = SystemParams(4, 0.7, 1.0, 1.0, 1.0)
    x = RNG.uniform(0.0, 5.0, size=(500, 4))
    z = map_g(x, p)
    assert np.all(p.sigma * partial_energies(z)[..., 0] < 1.0)
    assert np.all(z > 0.0)


def test_map_telescoping_identity():
    # summing the transform from site i rightward reproduces the
    # exponential of the tail energy
    p = SystemParams(5, 0.4, 1.0, 1.0, 1.0)
    x = RNG.uniform(0.0, 2.0, size=(50, 5))
    z = map_g(x, p)
    tail = np.flip(np.cumsum(np.flip(z, -1), -1), -1)
    expect = -np.expm1(-p.sigma * partial_energies(x)[..., :-1]) / p.sigma
    assert np.max(np.abs(tail - expect)) < 1e-14


def test_map_sigma_zero_is_identity():
    p = SystemParams(3, 0.0, 1.0, 1.0, 1.0)
    x = RNG.uniform(0.0, 2.0, size=(10, 3))
    assert np.array_equal(map_g(x, p), x)
    assert np.array_equal(map_g_inv(x, p), x)


def test_map_g_inv_domain_error():
    p = SystemParams(2, 0.5, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        map_g_inv(np.array([1.5, 0.6]), p)
    # just inside the boundary is fine
    z = np.array([1.0, 0.9])
    assert p.sigma * z.sum() < 1.0 - DOMAIN_TOL
    x = map_g_inv(z, p)
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("bad", [
    dict(n_sites=0),
    dict(n_sites=np.inf),
    dict(n_sites=np.nan),
    dict(sigma=-0.1),
    dict(alpha=0.0),
    dict(alpha=-2.0),
    dict(t_left=-1.0),
    dict(t_right=-0.5),
    dict(sigma=np.inf),
    dict(alpha=np.inf),
    dict(t_left=np.inf),
    dict(t_right=np.inf),
])
def test_system_params_validation(bad):
    kw = dict(n_sites=2, sigma=0.1, alpha=1.0, t_left=1.0, t_right=1.0)
    kw.update(bad)
    with pytest.raises(ParameterError):
        SystemParams(**kw)


def test_state_validation():
    p = SystemParams(3, 0.1, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        map_g(np.array([1.0, 2.0]), p)
    with pytest.raises(ParameterError):
        map_g(np.array([1.0, np.inf, 2.0]), p)


def test_ragged_input_is_a_parameter_error():
    # numpy refuses an inhomogeneous nesting with a ValueError of its own
    with pytest.raises(ParameterError, match="rectangular"):
        as_state([[0.1, 0.2], [0.3]], 2)
    with pytest.raises(ParameterError, match="rectangular"):
        as_particles([[0, 1], [0]], 1)


@pytest.mark.parametrize("a, b, se, z", [(1.0, 1.0, 0.0, 0.0),
                                         (1.0, 2.0, 0.0, np.inf),
                                         (1.0, 1.0, np.nan, np.nan)])
def test_z_rule_at_zero_and_nan_standard_error(a, b, se, z):
    # a nan se gives a nan z, which fails every `z < z_max` check
    assert np.array_equal(_z(a, b, se), z, equal_nan=True)
