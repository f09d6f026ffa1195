import numpy as np
import pytest

from abep import (SystemParams, Workspace, apply_generator,
                  generator_duality_residual, intertwining_residual, map_g,
                  model_parts, sip_rates)
from abep import generators
from abep.cli import random_polynomials
from abep.core import as_state
from abep.duality import _select_dfun
from abep.errors import ParameterError

RNG = np.random.default_rng(915)


def _coordinate(k, n):
    """z_k as a polynomial (coeffs, exps) of n variables."""
    return np.array([1.0]), np.eye(n, dtype=int)[k:k + 1]


def _value(poly, z):
    """sum_t c_t z^{e_t} at one point z: the polynomial as a plain function."""
    coeffs, exps = poly
    return float(sum(c * np.prod(np.asarray(z, dtype=float) ** e)
                     for c, e in zip(coeffs, exps)))


# ---- a finite-difference generator, one call of f per stencil point: the
# independent oracle of the exact one

def _per_point_coefficients(x, p, model):
    """Drift and (amplitude, direction) pairs at one state, from model_parts."""
    n = p.n_sites
    drift, amps, v = model_parts(Workspace(as_state(x, n), p, model))
    dirs = []
    for i in range(n - 1):
        d = np.zeros(n)
        d[i] = -1.0
        d[i + 1] = 1.0
        dirs.append((float(amps[i]), d))
    left = np.zeros(n)
    left[0] = 1.0
    dirs.append((float(amps[n - 1]), left))
    if v is None:
        right = np.zeros(n)
        right[-1] = 1.0
    else:
        right = np.array(v, dtype=float)
    dirs.append((float(amps[n]), right))
    return np.array(drift, dtype=float), dirs


def _apply_per_point(x, p, model, f, fd_step):
    """L f at x by central differences, with one call of f per stencil point;
    f takes one state."""
    drift, noise_dirs = _per_point_coefficients(x, p, model)
    x = np.asarray(x, dtype=float)
    h = float(fd_step)
    out = 0.0
    for i, b in enumerate(drift):
        if b == 0.0:
            continue
        step = np.zeros_like(x)
        step[i] = h
        out += b * (f(x + step) - f(x - step)) / (2.0 * h)
    f0 = None
    for amp, v in noise_dirs:
        if amp == 0.0:
            continue
        if f0 is None:
            f0 = f(x)
        out += amp * (f(x + h * v) - 2.0 * f0 + f(x - h * v)) / (h * h)
    return float(out)


def _per_point(x, p, model, poly):
    """The oracle on f o g, g the identity for 'bep', as apply_generator."""
    g = (lambda y: y) if model == "bep" else (lambda y: map_g(y, p))
    return _apply_per_point(x, p, model, lambda y: _value(poly, g(y)), 1e-4)


def _reference_cases():
    for n in (1, 2, 5):
        yield SystemParams(n, 0.3, 1.4, 0.6, 1.7), RNG.uniform(0.0, 2.0, n)
    # zero coefficients: t_left = 0, a zero site, sigma = 0
    yield SystemParams(3, 0.2, 2.0, 0.0, 1.5), RNG.uniform(0.1, 2.0, 3)
    yield SystemParams(3, 0.2, 2.0, 0.5, 1.5), np.array([0.7, 0.0, 1.2])
    yield SystemParams(3, 0.2, 2.0, 0.5, 1.5), np.array([0.0, 0.4, 1.2])
    yield SystemParams(4, 0.0, 0.8, 0.5, 1.5), RNG.uniform(0.0, 2.0, 4)


@pytest.mark.parametrize("model", ["bep", "abep"])
def test_exact_generator_matches_per_point_loop(model):
    # the finite-difference oracle agrees to its truncation, O(h^2) with
    # h = 1e-4 plus round-off over h^2
    for p, x in _reference_cases():
        n = p.n_sites
        polys = random_polynomials(RNG, n, 4, 3)
        for f in polys + [_coordinate(0, n), _coordinate(n - 1, n)]:
            assert apply_generator(x[None], p, model, f)[0] == \
                pytest.approx(_per_point(x, p, model, f), rel=1e-6, abs=1e-6)


def test_batched_intertwining_matches_per_point_loop():
    # one call for every polynomial; both generators exact, so the residual
    # is round-off, and each side is the oracle's to its truncation
    for p, x in _reference_cases():
        polys = random_polynomials(RNG, p.n_sites, 4, 3)
        res = [r.tolist() for r in intertwining_residual(x[None], p, polys)]
        assert res == [intertwining_residual(x[None], p, [f])[0].tolist() for f in polys]
        assert np.max(res) < 1e-13
        z = map_g(x, p)
        for f in polys:
            assert abs(_per_point(x, p, "abep", f) - _per_point(z, p, "bep", f)) < 1e-6


def test_stacked_intertwining_equals_the_single_state_calls():
    cases = list(_reference_cases())
    for p, _ in cases:
        n = p.n_sites
        extra = RNG.uniform(0.0, 2.0, (3, n))
        extra[0, n // 2] = 0.0
        xs = np.vstack([x for q, x in cases if q.n_sites == n] + [extra])
        polys = random_polynomials(RNG, n, 4, 3)
        # bit for bit, one polynomial and a list: row i of the stack is the
        # (1, N) stack xs[i:i+1]
        want = [[float(intertwining_residual(xs[i:i + 1], p, [f])[0][0])
                 for i in range(len(xs))] for f in polys]
        assert intertwining_residual(xs, p, polys[:1])[0].tolist() == want[0]
        assert [r.tolist() for r in intertwining_residual(xs, p, polys)] == want


def test_stacked_intertwining_shows_f_the_single_state_points(monkeypatch):
    # one jet per polynomial, taken at the points z = g(x) the per-state
    # calls take it at, in state order; both sides contract that one jet
    p = SystemParams(3, 0.2, 2.0, 0.5, 1.5)
    xs = np.array([[0.7, 0.0, 1.2], [0.0, 0.4, 1.2], [0.3, 1.1, 0.9]])
    polys = random_polynomials(RNG, 3, 2, 3)
    seen = []
    jet = generators._poly_jet
    monkeypatch.setattr(generators, "_poly_jet",
                        lambda z, *f: seen.append(z.copy()) or jet(z, *f))
    for x in xs:
        intertwining_residual(x[None], p, polys)
    single, seen[:] = seen[:], []
    intertwining_residual(xs, p, polys)
    assert len(seen) == len(polys)
    for k, z in enumerate(seen):
        assert np.array_equal(z, np.vstack(single[k::len(polys)]))
        assert np.array_equal(z, map_g(xs, p))


def test_stack_shapes_are_typed_errors():
    # one calling form: a single state (N,) is refused, x[None] is its stack
    p = SystemParams(2, 0.2, 1.0, 1.0, 2.0)
    for bad in (np.ones((2, 2, 2)), np.ones((3, 3)), np.ones((0, 2)), np.ones(2)):
        with pytest.raises(ParameterError):
            intertwining_residual(bad, p, [_coordinate(0, 2)])
        with pytest.raises(ParameterError):
            apply_generator(bad, p, "abep", _coordinate(0, 2))


@pytest.mark.parametrize("model", ["bep", "abep"])
@pytest.mark.parametrize("dfun", ["classical", "orthogonal"])
def test_batched_duality_residual_matches_per_point_loop(model, dfun):
    # the exact continuous side of D(., xi) as a polynomial agrees with the
    # finite-difference oracle on D itself, and the residual is round-off
    p = SystemParams(2, 0.4, 1.7, 1.0, 2.0)
    dual = _select_dfun(model, dfun, p, None)[0]
    for xi in [(0, 1, 0, 0), (0, 1, 1, 0), (0, 2, 0, 0), (1, 1, 3, 1)]:
        xi = np.array(xi)
        x = RNG.uniform(0.1, 1.5, 2)
        cont = _apply_per_point(x, p, model, lambda y: dual(y, xi), 1e-4)
        disc = sum(rate * (dual(x, c) - dual(x, xi)) for c, rate in sip_rates(xi, p))
        res = generator_duality_residual(x, xi, p, model=model, dfun=dfun)
        assert res < 1e-12 * max(1.0, abs(disc))
        assert abs(cont - disc) == pytest.approx(res, abs=1e-6 * max(1.0, abs(disc)))


def test_wrong_shapes_are_typed_errors():
    p = SystemParams(2, 0.2, 1.0, 1.0, 2.0)
    x = np.array([[0.5, 0.8]])
    good = _coordinate(0, 2)
    for bad in ((np.ones(2), np.ones((1, 2))),          # one coefficient per row
                (np.ones(1), np.ones((1, 3))),          # one exponent per site
                (np.ones(1), np.array([[0.5, 1.0]])),   # whole exponents
                (np.ones(1), np.array([[-1, 1]])),      # exponents >= 0
                (np.ones(1), np.array([[np.inf, 1]])),
                np.ones(3), None):                      # not a (coeffs, exps) pair
        with pytest.raises(ParameterError, match="a polynomial is"):
            apply_generator(x, p, "abep", bad)
        with pytest.raises(ParameterError, match="a polynomial is"):
            intertwining_residual(x, p, [good, bad])
    with pytest.raises(ParameterError, match="at least one"):
        intertwining_residual(x, p, [])


def test_symmetric_drift_on_interior_coordinate():
    """The generator acts on an interior coordinate as the discrete laplacian."""
    p = SystemParams(3, 0.0, 1.3, 1.0, 2.0)
    z = np.array([0.7, 0.4, 1.1])
    [val] = apply_generator(z[None], p, "bep", _coordinate(1, 3))
    assert val == pytest.approx(1.3 * (z[0] - 2 * z[1] + z[2]), abs=1e-14)


def test_symmetric_drift_on_boundary_coordinates():
    p = SystemParams(2, 0.0, 1.5, 0.8, 2.0)
    z = np.array([0.9, 0.3])
    [left] = apply_generator(z[None], p, "bep", _coordinate(0, 2))
    [right] = apply_generator(z[None], p, "bep", _coordinate(1, 2))
    # reservoir injection alpha*T minus unit leak, plus the bulk exchange
    assert left == pytest.approx(1.5 * 0.8 - z[0] + 1.5 * (z[1] - z[0]), abs=1e-14)
    assert right == pytest.approx(1.5 * 2.0 - z[1] + 1.5 * (z[0] - z[1]), abs=1e-14)


def test_symmetric_carre_du_champ_on_squares():
    # second order part doubles the bond amplitude on (z_i - z_j)^2 terms
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    z = np.array([0.6, 0.2])
    [val] = apply_generator(z[None], p, "bep", (np.array([1.0]), np.array([[2, 0]])))
    drift = (1.0 * 1.0 - z[0] + (z[1] - z[0])) * 2 * z[0]
    diff = 2.0 * (z[0] * z[1] + 1.0 * z[0])
    assert val == pytest.approx(drift + diff, rel=1e-14)


def test_noise_direction_count_and_layout():
    n = 4
    p = SystemParams(n, 0.3, 1.0, 1.0, 1.0)
    x = RNG.uniform(0.1, 1.0, (2, n))
    _, amps, v = model_parts(Workspace(x[0], p, "bep"))
    assert amps.size == n + 1 and v is None
    # rows: the N-1 bonds e_{i+1} - e_i, left e_1, right e_N (or v), each
    # carried by J, the identity for 'bep'
    for model in ("bep", "abep"):
        z, drift, amps, dirs = generators._carry(x, p, model)
        assert drift.shape == (2, n) and amps.shape == (2, n + 1)
        assert dirs.shape == (2, n + 1, n)
    z, _, _, dirs = generators._carry(x, p, "bep")
    assert np.array_equal(z, x)
    assert np.array_equal(dirs[0, 0], [-1.0, 1.0, 0.0, 0.0])     # first bond
    assert np.array_equal(dirs[1, n - 1], np.eye(n)[0])           # left reservoir
    assert np.array_equal(dirs[1, n], np.eye(n)[-1])              # right reservoir
    # for 'abep', J d is the derivative of g along d: a central difference
    _, _, dirs = generators._carry(x, p, "abep")[1:]
    _, _, v = model_parts(Workspace(x[0], p, "abep"))
    for k, d in ((0, np.eye(n)[1] - np.eye(n)[0]), (n - 1, np.eye(n)[0]), (n, v)):
        fd = (map_g(x[0] + 1e-6 * d, p) - map_g(x[0] - 1e-6 * d, p)) / 2e-6
        assert dirs[0, k] == pytest.approx(fd, abs=1e-8)


def test_asymmetric_reduces_to_symmetric_at_sigma_zero():
    p = SystemParams(3, 0.0, 1.2, 1.0, 2.0)
    x = RNG.uniform(0.1, 1.5, 3)
    ca = model_parts(Workspace(x, p, "abep"))
    cb = model_parts(Workspace(x, p, "bep"))
    assert np.allclose(ca[0], cb[0])
    assert ca[1] == pytest.approx(cb[1])
    assert ca[2] is None and cb[2] is None


def test_asymmetric_drift_small_sigma_limit():
    x = RNG.uniform(0.2, 1.0, 3)
    p0 = SystemParams(3, 1e-7, 1.1, 0.7, 1.4)
    p1 = SystemParams(3, 0.0, 1.1, 0.7, 1.4)
    drift_a = model_parts(Workspace(x, p0, "abep"))[0]
    drift_b = model_parts(Workspace(x, p1, "bep"))[0]
    assert np.max(np.abs(drift_a - drift_b)) < 1e-5


@pytest.mark.parametrize("sigma", [0.1, 0.5])
def test_intertwining_on_polynomials(sigma):
    """Conjugating by the energy transform maps one generator to the other."""
    p = SystemParams(3, sigma, 1.0, 1.0, 2.0)

    # z_1^2 + z_2 z_3 / 2 - z_3
    f = (np.array([1.0, 0.5, -1.0]), np.array([[2, 0, 0], [0, 1, 1], [0, 0, 1]]))
    x = RNG.uniform(0.0, 2.0, (10, 3))
    assert (intertwining_residual(x, p, [f])[0] < 1e-4).all()


def test_intertwining_nontrivial_without_transform():
    # evaluating the symmetric generator at x instead of g(x) must not agree,
    # otherwise the previous test is vacuous
    p = SystemParams(2, 0.6, 1.0, 1.0, 2.0)

    f = (np.array([1.0]), np.array([[2, 0]]))                 # z_1^2
    x = np.array([[1.3, 0.9]])
    [lhs] = apply_generator(x, p, "abep", f)                  # L_abep (f o g)(x)
    [wrong] = apply_generator(x, p, "bep", f)                 # (L_bep f)(x)
    assert abs(lhs - wrong) > 1e-3


def test_model_parts_dispatch():
    # site-major: one row per site, one column per chain (N = 3, R = 5)
    p = SystemParams(3, 0.3, 1.0, 1.0, 1.0)
    x = np.linspace(0.1, 1.5, 15).reshape(3, 5)
    drift, amps, v = model_parts(Workspace(x, p, "abep"))
    assert drift.shape == v.shape == (3, 5)
    assert amps.shape == (4, 5)      # rows: two bonds, left, right
    drift_b, amps_b, v_b = model_parts(Workspace(x, p, "bep"))
    assert drift_b.shape == (3, 5) and amps_b.shape == (4, 5)
    assert v_b is None
    with pytest.raises(ParameterError, match="unknown model"):
        Workspace(x, p, "nope")
    # a chain-major (R, N) batch is refused, not misread
    with pytest.raises(ParameterError, match="site rows"):
        Workspace(x.T, p, "abep")


def test_amplitudes_are_nonnegative_on_domain():
    p = SystemParams(3, 0.4, 1.0, 1.0, 2.0)
    for _ in range(50):
        x = RNG.uniform(0.0, 2.0, 3)
        _, amps, _ = model_parts(Workspace(x, p, "abep"))
        assert np.all(amps >= 0.0)


@pytest.mark.parametrize("model", ["bep", "abep"])
@pytest.mark.parametrize("sigma", [0.0, 0.02, 0.3, 2.0])
def test_amplitudes_are_nonnegative_with_zero_sites(model, sigma):
    # every amplitude is a product of non-negative factors, so the
    # Euler-Maruyama step takes its square root without a clamp
    p = SystemParams(4, sigma, 1.3, 0.7, 1.6)
    x = RNG.uniform(0.0, 3.0, (4, 200))
    x[RNG.random((4, 200)) < 0.3] = 0.0
    _, amps, _ = model_parts(Workspace(x, p, model))
    assert not (amps < 0.0).any() and np.isfinite(amps).all()


@pytest.mark.parametrize("model", ["bep", "abep"])
def test_model_parts_without_workspace_share_no_memory(model):
    # parts from separate workspaces stay valid side by side (b0 - b
    # patterns); only the workspace a call is given is written
    p = SystemParams(3, 0.3, 1.0, 1.0, 2.0)
    first = model_parts(Workspace(np.array([0.2, 0.5, 0.9]), p, model))
    kept = [None if a is None else a.copy() for a in first]
    second = model_parts(Workspace(np.array([1.1, 0.4, 0.3]), p, model))
    for a in first:
        for b in second:
            if a is not None and b is not None:
                assert not np.shares_memory(a, b)
    for a, k in zip(first, kept):
        assert (a is None and k is None) or np.array_equal(a, k)
