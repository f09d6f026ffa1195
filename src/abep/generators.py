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

These coefficients make the conjugation by the energy transform exact: the
asymmetric generator applied to f o g equals the symmetric generator of f
evaluated at g(x), which is what intertwining_residual measures.

apply_generator and intertwining_residual apply L by central differences.
intertwining_residual takes one state (N,) or a stack (S, N), and builds
the stencils of the whole stack in one batch: one model_parts per model,
one map_g of every abep stencil point, and one call of each test function
f on every stencil point of the stack with a nonzero weight, in state
order.  f must accept a (K, N) batch of points and return K values.
apply_generator is the same batch at one state.
"""
from __future__ import annotations

import numpy as np

from .core import SystemParams, _eval_observable, _observables, as_state, map_g
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


def _stencil(xs: np.ndarray, p: SystemParams, model: str, h: float):
    """Central-difference stencils of L at a stack of states xs, (S, N).

    Returns (points, rows, weights).  weights (S, M) holds the weights of
    the M = 2N+1 directions d_k: e_i weighted by the drift b_i, then the
    noise directions weighted by a_k.  rows (S, 1 + 2M) marks, per state
    x, x itself, then x + h d_k for every d_k with a nonzero weight, then
    x - h d_k in the same order; points (K, N) holds the marked points,
    state by state, the only points f is evaluated at.
    """
    s, n = xs.shape
    drift, amps, v = model_parts(Workspace(np.ascontiguousarray(xs.T), p, model))
    dirs = np.zeros((s, 2 * n + 1, n))
    dirs[:, :n] = np.eye(n)
    dirs[:, n:2 * n - 1] = np.eye(n - 1, n, 1) - np.eye(n - 1, n)
    dirs[:, 2 * n - 1, 0] = dirs[:, 2 * n, -1] = 1.0    # left e_1, right e_N
    if v is not None:
        dirs[:, 2 * n] = v.T                            # the abep right direction
    weights = np.concatenate([drift, amps]).T
    keep = weights != 0.0
    step = h * dirs
    x = xs[:, None]
    rows = np.concatenate([np.ones((s, 1), bool), keep, keep], axis=1)
    return np.concatenate([x, x + step, x - step], axis=1)[rows], rows, weights


def _step_size(fd_step) -> float:
    """fd_step as a float; ParameterError unless it is positive and finite."""
    h = float(fd_step)
    if not (0.0 < h < np.inf):
        raise ParameterError(
            f"fd_step must be a positive finite number, got {fd_step!r}")
    return h


def _combine(vals: np.ndarray, rows: np.ndarray, weights: np.ndarray,
             h: float) -> np.ndarray:
    """L f at each stencil centre, (S,), from f on the stencil points of
    _stencil (vals) and its rows and weights."""
    m = weights.shape[1]
    n = m // 2                                  # drift directions first
    full = np.zeros(rows.shape)
    full[rows] = vals
    f0, fp, fm = full[:, :1], full[:, 1:m + 1], full[:, m + 1:]
    terms = np.concatenate(
        [weights[:, :n] * (fp[:, :n] - fm[:, :n]) / (2.0 * h),
         weights[:, n:] * (fp[:, n:] - 2.0 * f0 + fm[:, n:]) / (h * h)], axis=1)
    # an unmarked term is +0.0, which the sum from +0.0 adds exactly
    terms = np.where(rows[:, 1:m + 1], terms, 0.0)
    out = np.zeros(len(terms))
    for t in terms.T:           # left to right: np.sum pairs terms up
        out += t
    return out


def apply_generator(x, p: SystemParams, model: str, f, fd_step: float) -> float:
    """Apply L = b . grad + sum_k a_k (v_k . grad)^2 of 'bep' or 'abep' to f
    at one state x, numerically.

    Central finite differences of order fd_step**2; directional second
    derivatives use f(x + h v) - 2 f(x) + f(x - h v).  f is called once,
    on a (K, N) batch holding every stencil point, and must return K values.
    """
    x = as_state(x, p.n_sites)
    h = _step_size(fd_step)
    if x.shape != (p.n_sites,):
        raise ParameterError(
            f"expected one state of shape ({p.n_sites},), got {x.shape}")
    pts, rows, weights = _stencil(x[None], p, model, h)
    return float(_combine(_eval_observable(f, pts), rows, weights, h)[0])


def intertwining_residual(x, p: SystemParams, f, fd_step: float):
    """|L_asym (f o g)(x) - (L_sym f)(g(x))| by finite differences.

    x is one state (N,) or a non-empty stack of states (S, N).  f is one
    callable or a sequence of them, each called once on a (K, N) batch
    holding the stencil points of every state, as in apply_generator.  The
    stencils and their images under g are built once for the whole stack.
    A callable gives a float for one state and an (S,) array for a stack;
    a sequence gives a list with one such entry per callable.  Every
    residual is bit-identical to a call with that state and callable alone.
    """
    single, fs = _observables(f)
    x = as_state(x, p.n_sites)
    h = _step_size(fd_step)
    if not (x.ndim == 1 or x.ndim == 2 and len(x)):
        raise ParameterError(
            f"expected one state (N,) or a non-empty stack (S, N), got {x.shape}")
    xs = x.reshape(-1, p.n_sites)
    # a step that leaves the float range gives an inf or nan residual, and
    # the caller's check reads it, so the warnings add nothing
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        pts_x, rows_x, w_x = _stencil(xs, p, "abep", h)
        g_pts = map_g(pts_x, p)
        pts_z, rows_z, w_z = _stencil(map_g(xs, p), p, "bep", h)
        out = [np.abs(_combine(_eval_observable(fi, g_pts), rows_x, w_x, h)
                      - _combine(_eval_observable(fi, pts_z), rows_z, w_z, h))
               for fi in fs]
    if x.ndim == 1:
        out = [float(r[0]) for r in out]
    return out[0] if single else out
