"""Drift and rank-one diffusion coefficients of the two energy diffusions.

Both generators are kept in the common form

    L f = sum_i b_i d_i f  +  sum_k a_k (v_k . grad)^2 f,

where (v_k . grad)^2 is the pure directional second derivative with the
direction frozen at the evaluation point.  Any first-order piece produced by
state dependence of a direction is folded into the drift b, so the matching
SDE reads dX = b dt + sum_k sqrt(2 a_k) v_k dW_k.

Noise directions are ordered [bond 1, ..., bond N-1, left reservoir, right
reservoir], N+1 in total for both models, which makes the symmetric-limit
comparison componentwise.

Symmetric model on coordinates z (per bond and reservoir):
    bond (i, i+1): amplitude z_i z_{i+1} on e_{i+1} - e_i, first-order
        coefficient alpha (z_i - z_{i+1}) on the same direction;
    left: amplitude T_l z_1 on e_1, drift T_l alpha - z_1 at site 1;
    right: mirror image with T_r at site N.

Asymmetric model on coordinates x, with E_l the partial energies:
    bond (i, i+1): amplitude (1 - e^{-s x_i})(e^{s x_{i+1}} - 1) / s^2 on
        e_{i+1} - e_i, first-order coefficient
        [ (1 - e^{-s x_i})(e^{s x_{i+1}} - 1)
          + alpha (2 - e^{-s x_i} - e^{s x_{i+1}}) ] / s;
    left: amplitude T_l e^{s E_1} (e^{s x_1} - 1) / s on e_1, drift at
        site 1 equal to T_l e^{s E_1} (alpha + e^{s x_1} - 1)
        - (e^{s x_1} - 1) / s;
    right: one rank-one direction v with v_l = e^{s E_l}(1 - e^{-s x_l})
        for l < N and v_N = e^{s E_N}, amplitude T_r g_N(x), and drift
        (alpha T_r - g_N) v + T_r g_N u where
        u_l = s (e^{2 s E_l} - e^{2 s E_{l+1}}) for l < N and
        u_N = s e^{2 s E_N}  (the transport correction of the moving
        direction).

These coefficients make the conjugation by the energy transform exact,
L_abep (f o g) = (L_bep f) o g, which intertwining_residual measures.
Neither generator has a zeroth-order term, so for a polynomial f of
z = g(x) the chain rule applies each one exactly:

    L (f o g)(x) = grad f(z) . (J b + sum_k a_k D^2 g[v_k, v_k])
                   + sum_k a_k (J v_k)' hess f(z) (J v_k),

with J the Jacobian of g, the identity for 'bep' and sigma = 0.  With
u_i = e^{-s E_i(x)}, delta_i = E_i(d) and u_{N+1} = 1, delta_{N+1} = 0,
the 2-jet of g along d is (J d)_i = delta_i u_i - delta_{i+1} u_{i+1} and
D^2 g[d, d]_i = s (delta_{i+1}^2 u_{i+1} - delta_i^2 u_i).
"""
from __future__ import annotations

import numpy as np

from .core import SystemParams, _whole, as_state, map_g, partial_energies
from .errors import ParameterError


class Workspace:
    """Buffers, prebuilt views and bound constants for model_parts and the
    Euler-Maruyama step on one site-major state array.

    Workspace(x, p, model) checks that model is 'bep' or 'abep' and that x
    has p.n_sites rows, (N,) or (N, R), and binds x, p and model for good.
    It builds once every view of x and of its own buffers that model_parts
    reads or writes for the model, and that a step reads (the 'abep' set
    holds the 'bep' one), and binds p's constants as 0-d float64 arrays:
    the same doubles, cheaper ufunc calls.  The drift is a difference of
    fluxes, b_i = F_{i-1} - F_i, read from one zeroed (N+1, ...) buffer:
    row 0 the inflow into site 1, rows 1..N-1 the bonds, row N the outflow
    from site N (0 for 'abep', whose right reservoir moves every site
    along v).
    """

    def __init__(self, x: np.ndarray, p: SystemParams, model: str):
        if model not in ("bep", "abep"):
            raise ParameterError(f"unknown model {model!r}")
        if x.shape[0] != p.n_sites:
            raise ParameterError(
                f"expected {p.n_sites} site rows, got states of shape {x.shape}")
        n, rest = x.shape[0], x.shape[1:]
        self.x, self.p, self.model = x, p, model
        s, a, tl, tr = p.sigma, p.alpha, p.t_left, p.t_right
        (self.sigma, self.sigma2, self.alpha, self.t_left, self.t_right,
         self.t_left_alpha, self.t_right_alpha) = [
            np.array(c, float) for c in (s, s * s, a, tl, tr, tl * a, tr * a)]
        block = np.empty((5, n, *rest))
        self.drift, self.em, self.ep, self.v, self.u = block
        self.amps = amps = np.empty((n + 1, *rest))   # rows: bonds, left, right
        flux = np.zeros((n + 1, *rest))
        self.r1, self.r2 = np.empty((2, 1, *rest))   # one-row scratch
        # named views, built here to keep slicing out of the steps
        self.flux_in, self.flux_out = flux[:-1], flux[1:]
        self.inflow, self.bond_flux, self.outflow = flux[:1], flux[1:-1], flux[-1:]
        self.bonds, self.left, self.right = amps[:-2], amps[-2:-1], amps[-1:]
        self.x_head, self.x_tail = x[:-1], x[1:]
        self.x_first, self.x_last = x[:1], x[-1:]
        if model != "abep":
            return
        self.em_ep = block[1:3]                  # em and ep as one block
        self.u_head = self.u[:-1]
        ee_pad = np.zeros((n + 1, *rest))        # e^{s E_l} over one zero row
        self.ee, self.ee_next = ee_pad[:-1], ee_pad[1:]
        ee_rows = [self.ee[i:i + 1] for i in range(n)]
        # E_l = x_l + E_{l+1}: one (E_{l+1}, x_l, E_l) triple per site, N-1 down
        self.sums = [(ee_rows[i + 1], x[i:i + 1], ee_rows[i])
                     for i in range(n - 2, -1, -1)]
        self.ee_first, self.ee_last = ee_rows[0], ee_rows[-1]
        self.em_head, self.em_last = self.em[:-1], self.em[-1:]
        self.ep_tail, self.ep_first = self.ep[1:], self.ep[:1]
        self.v_last = self.v[-1:]


def model_parts(ws: Workspace):
    """Coefficient parts of ws.model at the site-major states ws.x.

    ws.x holds one site per row: (N,) for one configuration or (N, R) for R
    chains, ideally C-contiguous so every row is a contiguous vector.
    Returns (drift like x, amplitudes (N+1, ...) with one row per noise
    direction, right direction v like x, or None for the static e_N of the
    symmetric model).  With sigma = 0 'abep' is 'bep'.  Every part is
    written into ws, with no allocation: the parts are views of its
    buffers, so the next call on ws overwrites them.
    """
    a = ws.alpha
    drift, amps, r1, r2 = ws.drift, ws.amps, ws.r1, ws.r2
    if ws.model == "bep" or ws.p.sigma == 0:
        c = ws.bond_flux                   # bond coefficient on e_{i+1} - e_i
        np.subtract(ws.x_head, ws.x_tail, c)
        np.multiply(c, a, c)
        np.subtract(ws.t_left_alpha, ws.x_first, ws.inflow)
        np.subtract(ws.x_last, ws.t_right_alpha, ws.outflow)
        np.subtract(ws.flux_in, ws.flux_out, drift)
        np.multiply(ws.x_head, ws.x_tail, ws.bonds)
        np.multiply(ws.x_first, ws.t_left, ws.left)
        np.multiply(ws.x_last, ws.t_right, ws.right)
        return drift, amps, None

    s = ws.sigma
    ee, em, ep, v, u = ws.ee, ws.em, ws.ep, ws.v, ws.u
    # partial energies E_l = x_l + ... + x_N, summed from site N down, then
    # ee[l-1] = e^{s E_l}
    ws.ee_last[...] = ws.x_last
    for below, row, out in ws.sums:
        np.add(below, row, out)
    np.multiply(ee, s, ee)
    np.exp(ee, ee)
    # ep = e^{s x_i} - 1 and em = 1 - e^{-s x_i}, one expm1 for both
    np.multiply(ws.x, s, ep)
    np.negative(ep, em)
    np.expm1(ws.em_ep, ws.em_ep)
    np.negative(em, em)

    # bulk bonds; u is scratch until the right reservoir
    prod, c = ws.u_head, ws.bond_flux
    np.multiply(ws.em_head, ws.ep_tail, prod)
    np.divide(prod, ws.sigma2, ws.bonds)
    np.subtract(ws.em_head, ws.ep_tail, c)
    np.multiply(c, a, c)
    np.add(prod, c, c)
    np.divide(c, s, c)

    # left reservoir (site 1 only): the inflow row starts as T_l e^{s E_1}
    inflow = ws.inflow
    np.multiply(ws.ee_first, ws.t_left, inflow)
    np.multiply(inflow, ws.ep_first, ws.left)
    np.divide(ws.left, s, ws.left)
    np.add(ws.ep_first, a, r2)
    inflow *= r2
    np.divide(ws.ep_first, s, r2)
    inflow -= r2
    np.subtract(ws.flux_in, ws.flux_out, drift)

    # right reservoir: rank-one direction across the whole chain
    np.multiply(ee, em, v)
    ws.v_last[...] = ws.ee_last
    np.divide(ws.em_last, s, r2)            # g_N(x) = (1 - e^{-s x_N}) / s
    np.multiply(r2, ws.t_right, ws.right)
    np.subtract(ws.t_right_alpha, r2, r1)   # alpha T_r - g_N; T_r alpha is the same double
    np.multiply(ee, ee, ee)                 # e^{2 s E_l}
    np.subtract(ee, ws.ee_next, u)
    np.multiply(u, s, u)
    np.multiply(v, r1, em)
    drift += em                             # (alpha T_r - g_N) v
    np.multiply(u, ws.right, u)
    drift += u                              # T_r g_N u
    return drift, amps, v


def _carry(xs: np.ndarray, p: SystemParams, model: str):
    """(z, b~, a, v~) of model at the states xs (S, N): z = g(xs), the drift
    b~ (S, N), amplitudes a (S, N+1) and directions v~ (S, N+1, N) with
    L (f o g)(x) = grad f(z) . b~ + sum_k a_k v~_k' hess f(z) v~_k."""
    s, n = xs.shape
    drift, amps, v = model_parts(Workspace(np.ascontiguousarray(xs.T), p, model))
    dirs = np.zeros((s, n + 1, n))
    dirs[:, :n - 1] = np.eye(n - 1, n, 1) - np.eye(n - 1, n)   # bonds e_{i+1} - e_i
    dirs[:, n - 1, 0] = dirs[:, n, -1] = 1.0                   # left e_1, right e_N
    if v is not None:
        dirs[:, n] = v.T                                       # the abep right direction
    if model == "bep" or p.sigma == 0:
        return xs, drift.T, amps.T, dirs
    # the 2-jet of g along b and every v_k: J d and D^2 g[d, d]
    d = partial_energies(np.concatenate([drift.T[:, None], dirs], axis=1))
    w = d * np.exp(-p.sigma * partial_energies(xs))[:, None]
    jd, curv = -np.diff(w, axis=-1), p.sigma * np.diff(w[:, 1:] * d[:, 1:], axis=-1)
    b = jd[:, 0] + (amps.T[..., None] * curv).sum(axis=1)   # J b + sum_k a_k curv_k
    return map_g(xs, p), b, amps.T, jd[:, 1:]


def _poly(poly, n: int):
    """The polynomial sum_t c_t z^{e_t} as (coeffs (T,) float, exps (T, n)
    int64); ParameterError unless poly is such a pair, exponents whole >= 0."""
    try:
        coeffs, exps = (np.asarray(a) for a in poly)
        if (coeffs.ndim == 1 and exps.shape == (len(coeffs), n) and _whole(exps)
                and ((exps >= 0) & (exps < np.inf)).all()):
            return coeffs.astype(float), exps.astype(np.int64)
    except (TypeError, ValueError):
        pass
    raise ParameterError(f"a polynomial is (coeffs (T,), exps (T, {n})) with "
                         f"whole exponents >= 0, got {poly!r}")


def _poly_jet(z: np.ndarray, coeffs: np.ndarray, exps: np.ndarray):
    """Gradient (S, N) and Hessian (S, N, N) of sum_t c_t z^{e_t} at z (S, N)."""
    eye = np.eye(z.shape[-1], dtype=np.int64)
    e1 = exps[:, None] - eye                 # exponents of d_i z^e, (T, N, N)
    c1 = coeffs[:, None] * exps              # c e_i, (T, N)
    # an exponent below 0 has a zero coefficient: clipped, z_i = 0 stays finite
    m1 = np.prod(z[:, None, None] ** np.maximum(e1, 0), axis=-1)
    m2 = np.prod(z[:, None, None, None] ** np.maximum(e1[:, :, None] - eye, 0), axis=-1)
    return (c1 * m1).sum(axis=1), (c1[..., None] * e1 * m2).sum(axis=1)


def _apply(parts, jet) -> np.ndarray:
    """L (f o g) at each state, (S,), from _carry's parts and f's jet at z."""
    (_, b, a, v), (grad, hess) = parts, jet
    quad = np.einsum("ski,sij,skj->sk", v, hess, v)        # v_k' hess f v_k
    return (grad * b).sum(axis=-1) + (a * quad).sum(axis=-1)


def _stack(x, p: SystemParams) -> np.ndarray:
    """x as states (S, N); ParameterError unless it is a non-empty stack."""
    x = as_state(x, p.n_sites)
    if not (x.ndim == 2 and len(x)):
        raise ParameterError(
            f"expected a non-empty stack of states (S, {p.n_sites}), got {x.shape}")
    return x


def apply_generator(x, p: SystemParams, model: str, poly) -> np.ndarray:
    """L of 'bep' or 'abep' applied exactly to f o g at each state of the
    stack x (S, N), for the polynomial f = poly = (coeffs, exps) of
    z = g(x); g is the identity for 'bep' and sigma = 0.  Returns (S,)."""
    x, poly = _stack(x, p), _poly(poly, p.n_sites)
    parts = _carry(x, p, model)
    return _apply(parts, _poly_jet(parts[0], *poly))


def intertwining_residual(x, p: SystemParams, polys) -> list:
    """|L_abep (f o g)(x) - (L_bep f)(g(x))| for each polynomial f in polys.

    x is a non-empty stack of states (S, N); polys is a non-empty sequence
    of (coeffs, exps), and both sides contract one jet of each f at
    z = g(x).  Returns one (S,) array per polynomial, each bit-identical to
    a call with that polynomial alone, and its row i to a call on x[i:i+1].
    """
    x = _stack(x, p)
    polys = [_poly(f, p.n_sites) for f in polys]
    if not polys:
        raise ParameterError("expected at least one polynomial")
    asym = _carry(x, p, "abep")
    sym = _carry(asym[0], p, "bep")
    jets = [_poly_jet(asym[0], *f) for f in polys]
    return [np.abs(_apply(asym, jet) - _apply(sym, jet)) for jet in jets]
