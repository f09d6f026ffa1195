import numpy as np
import pytest

from abep import (SystemParams, Workspace, apply_generator,
                  generator_duality_residual, intertwining_residual, map_g,
                  model_parts, sip_generator_apply)
from abep.cli import random_polynomials
from abep.core import as_state
from abep.duality import _select_dfun
from abep.errors import ParameterError
from abep.generators import _stencil

RNG = np.random.default_rng(915)


def _coordinate(k):
    return lambda v: v[:, k]


# ---- the per-point loop the batched stencil replaced, kept as its reference

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
    """L f at x with one call of f per stencil point; f takes one state."""
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


def _intertwining_per_point(x, p, f, fd_step):
    x = as_state(x, p.n_sites)
    z = map_g(x, p)
    lhs = _apply_per_point(x, p, "abep", lambda y: f(map_g(y, p)), fd_step)
    rhs = _apply_per_point(z, p, "bep", f, fd_step)
    return abs(lhs - rhs)


def _one_point(f):
    """A batch function as the per-point loop called it, on one state."""
    return lambda y: float(f(y[None, :])[0])


def _reference_cases():
    for n in (1, 2, 5):
        yield SystemParams(n, 0.3, 1.4, 0.6, 1.7), RNG.uniform(0.0, 2.0, n)
    # zero coefficients: t_left = 0, a zero site, sigma = 0
    yield SystemParams(3, 0.2, 2.0, 0.0, 1.5), RNG.uniform(0.1, 2.0, 3)
    yield SystemParams(3, 0.2, 2.0, 0.5, 1.5), np.array([0.7, 0.0, 1.2])
    yield SystemParams(3, 0.2, 2.0, 0.5, 1.5), np.array([0.0, 0.4, 1.2])
    yield SystemParams(4, 0.0, 0.8, 0.5, 1.5), RNG.uniform(0.0, 2.0, 4)


@pytest.mark.parametrize("model", ["bep", "abep"])
def test_batched_stencil_matches_per_point_loop(model):
    for p, x in _reference_cases():
        polys = random_polynomials(RNG, p.n_sites, 4, 3)
        for f in polys + [_coordinate(0), _coordinate(p.n_sites - 1)]:
            # bit for bit, not approximately
            assert apply_generator(x, p, model, f, 1e-4) == \
                _apply_per_point(x, p, model, _one_point(f), 1e-4)


def test_batched_intertwining_matches_per_point_loop():
    for p, x in _reference_cases():
        polys = random_polynomials(RNG, p.n_sites, 4, 3)
        want = [_intertwining_per_point(x, p, _one_point(f), 1e-4) for f in polys]
        assert intertwining_residual(x, p, polys, 1e-4) == want
        assert [intertwining_residual(x, p, f, 1e-4) for f in polys] == want


def test_stacked_intertwining_equals_the_single_state_calls():
    cases = list(_reference_cases())
    for p, _ in cases:
        n = p.n_sites
        extra = RNG.uniform(0.0, 2.0, (3, n))
        extra[0, n // 2] = 0.0
        xs = np.vstack([x for q, x in cases if q.n_sites == n] + [extra])
        polys = random_polynomials(RNG, n, 4, 3)
        # bit for bit, one callable and a list
        want = [[intertwining_residual(x, p, f, 1e-4) for x in xs] for f in polys]
        assert intertwining_residual(xs, p, polys[0], 1e-4).tolist() == want[0]
        assert [r.tolist() for r in intertwining_residual(xs, p, polys, 1e-4)] \
            == want
        assert intertwining_residual(xs[:1], p, polys, 1e-4)[0].tolist() == \
            [intertwining_residual(xs[0], p, polys[0], 1e-4)]


def test_stacked_intertwining_shows_f_the_single_state_points():
    # f sees the rows the per-state calls show it, in state order: first
    # the g images of the abep stencils, then the bep stencils at g(x)
    p = SystemParams(3, 0.2, 2.0, 0.5, 1.5)
    xs = np.array([[0.7, 0.0, 1.2], [0.0, 0.4, 1.2], [0.3, 1.1, 0.9]])
    seen = []

    def f(v):
        seen.append(v.copy())
        return v[:, 0] * v[:, 1] - v[:, 2]

    for x in xs:
        intertwining_residual(x, p, f, 1e-4)
    single, seen[:] = seen[:], []
    intertwining_residual(xs, p, f, 1e-4)
    assert len(seen) == 2
    for side in (0, 1):
        assert np.array_equal(seen[side], np.vstack(single[side::2]))


def test_stack_shapes_are_typed_errors():
    p = SystemParams(2, 0.2, 1.0, 1.0, 2.0)
    for bad in (np.ones((2, 2, 2)), np.ones((3, 3)), np.ones((0, 2))):
        with pytest.raises(ParameterError):
            intertwining_residual(bad, p, _coordinate(0), 1e-4)


@pytest.mark.parametrize("model", ["bep", "abep"])
@pytest.mark.parametrize("dfun", ["classical", "orthogonal"])
def test_batched_duality_residual_matches_per_point_loop(model, dfun):
    p = SystemParams(2, 0.4, 1.7, 1.0, 2.0)
    dual = _select_dfun(model, dfun, p, None)
    for xi in [(0, 1, 0, 0), (0, 1, 1, 0), (0, 2, 0, 0), (1, 1, 3, 1)]:
        xi = np.array(xi)
        x = RNG.uniform(0.1, 1.5, 2)
        cont = _apply_per_point(x, p, model, lambda y: dual(y, xi), 1e-4)
        disc = sip_generator_apply(lambda c: dual(x, c), xi, p)
        assert generator_duality_residual(x, xi, p, model=model, dfun=dfun) == \
            abs(cont - disc)


def test_wrong_shapes_are_typed_errors():
    p = SystemParams(2, 0.2, 1.0, 1.0, 2.0)
    x = np.array([0.5, 0.8])
    for bad in (lambda v: 1.0, lambda v: v, lambda v: v[:-1, 0]):
        with pytest.raises(ParameterError, match="observable must map"):
            apply_generator(x, p, "abep", bad, 1e-4)
        with pytest.raises(ParameterError, match="observable must map"):
            intertwining_residual(x, p, [_coordinate(0), bad], 1e-4)
    with pytest.raises(ParameterError, match="callable"):
        intertwining_residual(x, p, [], 1e-4)
    # a batch of states is refused, not read as one state's site rows
    with pytest.raises(ParameterError, match="one state"):
        apply_generator(np.ones((2, 2)), p, "bep", _coordinate(0), 1e-4)


def test_symmetric_drift_on_interior_coordinate():
    """The generator acts on an interior coordinate as the discrete laplacian."""
    p = SystemParams(3, 0.0, 1.3, 1.0, 2.0)
    z = np.array([0.7, 0.4, 1.1])
    val = apply_generator(z, p, "bep", _coordinate(1), 1e-5)
    assert val == pytest.approx(1.3 * (z[0] - 2 * z[1] + z[2]), abs=1e-8)


def test_symmetric_drift_on_boundary_coordinates():
    p = SystemParams(2, 0.0, 1.5, 0.8, 2.0)
    z = np.array([0.9, 0.3])
    left = apply_generator(z, p, "bep", _coordinate(0), 1e-5)
    right = apply_generator(z, p, "bep", _coordinate(1), 1e-5)
    # reservoir injection alpha*T minus unit leak, plus the bulk exchange
    assert left == pytest.approx(1.5 * 0.8 - z[0] + 1.5 * (z[1] - z[0]), abs=1e-8)
    assert right == pytest.approx(1.5 * 2.0 - z[1] + 1.5 * (z[0] - z[1]), abs=1e-8)


def test_symmetric_carre_du_champ_on_squares():
    # second order part doubles the bond amplitude on (z_i - z_j)^2 terms
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    z = np.array([0.6, 0.2])

    def f(v):
        return v[:, 0] ** 2

    val = apply_generator(z, p, "bep", f, 1e-4)
    drift = (1.0 * 1.0 - z[0] + (z[1] - z[0])) * 2 * z[0]
    diff = 2.0 * (z[0] * z[1] + 1.0 * z[0])
    assert val == pytest.approx(drift + diff, rel=1e-6)


def test_noise_direction_count_and_layout():
    p = SystemParams(4, 0.0, 1.0, 1.0, 1.0)
    z = RNG.uniform(0.1, 1.0, 4)
    _, amps, v = model_parts(Workspace(z, p, "bep"))
    assert amps.size == 5
    # every coefficient is nonzero here: rows are z, then z + h d for the
    # 4 drift and 5 noise directions, then z - h d
    pts, rows, weights = _stencil(z[None], p, "bep", 1e-3)
    weights, n_drift = weights[0], np.count_nonzero(rows[0, 1:5])
    assert pts.shape == (19, 4) and weights.size == 9 and n_drift == 4
    steps = pts[1:10] - z
    assert np.count_nonzero(steps[n_drift]) == 2        # first bond
    assert np.argmax(np.abs(steps[7])) == 0              # left reservoir
    assert steps[8][-1] != 0.0                           # right reservoir
    assert v is None


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

    def f(v):
        return v[:, 0] ** 2 + 0.5 * v[:, 1] * v[:, 2] - v[:, 2]

    for _ in range(10):
        x = RNG.uniform(0.0, 2.0, 3)
        assert intertwining_residual(x, p, f, 1e-4) < 1e-4


def test_intertwining_nontrivial_without_transform():
    # evaluating the symmetric generator at x instead of g(x) must not agree,
    # otherwise the previous test is vacuous
    p = SystemParams(2, 0.6, 1.0, 1.0, 2.0)

    def f(v):
        return v[:, 0] ** 2

    x = np.array([1.3, 0.9])
    lhs = apply_generator(x, p, "abep", lambda v: f(map_g(v, p)), 1e-4)
    wrong = apply_generator(x, p, "bep", f, 1e-4)
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
