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

apply_generator and intertwining_residual apply L by central differences
on one stencil per state: a test function f must accept a (K, N) batch of
stencil points and return K values.
"""
from __future__ import annotations

import numpy as np

from .core import SystemParams, _eval_observable, _observables, as_state, map_g
from .errors import ParameterError


class Workspace:
    """Buffers and prebuilt views for model_parts and the Euler-Maruyama
    step on one site-major state array.

    Workspace(x, model) binds x, of shape (N,) or (N, R), and builds once
    every view of x and of its own buffers that model_parts reads or
    writes for 'bep' or 'abep' (model), and that a step reads; the 'abep'
    set holds the 'bep' one.  A model_parts call given the workspace
    writes every part into it and allocates nothing; the parts it returns
    are views of these buffers, so the next call overwrites them.  The
    constants of p are bound at the first call with p and rebound by any
    call with other parameters (bind); the step binds dt the same way.
    """

    def __init__(self, x: np.ndarray, model: str):
        n, rest = x.shape[0], x.shape[1:]
        self.x, self.model = x, model
        self.p = self.dt = None        # parameters and step bound so far
        block = np.empty((6, n, *rest))
        drift, ee, em, ep, v, u = block
        self.drift, self.ee, self.em = drift, ee, em
        self.ep, self.v, self.u = ep, v, u
        self.amps = amps = np.empty((n + 1, *rest))   # rows: bonds, left, right
        self.r1, self.r2 = np.empty((2, 1, *rest))   # one-row scratch
        # named views: a ufunc with out= on one skips the write-back of
        # `drift[:-1] -= c`, and building them here keeps slicing out of
        # the steps
        self.head, self.tail = drift[:-1], drift[1:]
        self.first, self.last = drift[:1], drift[-1:]
        self.bonds, self.left, self.right = amps[:-2], amps[-2:-1], amps[-1:]
        self.x_head, self.x_tail = x[:-1], x[1:]
        self.x_first, self.x_last = x[:1], x[-1:]
        self.u_head = u[:-1]
        if model != "abep":
            return
        self.em_ep = block[2:4]                  # em and ep as one block
        ee_rows = [ee[i:i + 1] for i in range(n)]
        # E_l = x_l + E_{l+1}: one (E_{l+1}, x_l, E_l) triple per site, N-1 down
        self.sums = [(ee_rows[i + 1], x[i:i + 1], ee_rows[i])
                     for i in range(n - 2, -1, -1)]
        self.ee_first, self.ee_last = ee_rows[0], ee_rows[-1]
        self.ee_head, self.ee_tail = ee[:-1], ee[1:]
        self.em_head, self.em_last = em[:-1], em[-1:]
        self.ep_tail, self.ep_first = ep[1:], ep[:1]
        self.v_head, self.v_last, self.u_last = v[:-1], v[-1:], u[-1:]

    def bind(self, p: SystemParams) -> None:
        """Bind p's constants as 0-d float64 arrays: same doubles, cheaper ufunc calls."""
        s, a, tl, tr = p.sigma, p.alpha, p.t_left, p.t_right
        (self.sigma, self.sigma2, self.alpha, self.t_left, self.t_right,
         self.t_left_alpha, self.t_right_alpha) = [
            np.array(c, float) for c in (s, s * s, a, tl, tr, tl * a, tr * a)]
        self.p = p


def model_parts(x: np.ndarray, p: SystemParams, model: str,
                ws: Workspace | None = None):
    """Coefficient parts of 'bep' or 'abep' on site-major states.

    x holds one site per row: (N,) for one configuration or (N, R) for R
    chains, ideally C-contiguous so every row is a contiguous vector.
    Returns (drift like x, amplitudes (N+1, ...) with one row per noise
    direction, right direction v like x, or None for the static e_N of the
    symmetric model).  With sigma = 0 'abep' is 'bep'.  The parts are
    written into ws, a Workspace bound to x for this model, when one is
    given (ParameterError when it is bound to another array or model);
    otherwise each call returns arrays of its own.
    """
    if model not in ("bep", "abep"):
        raise ParameterError(f"unknown model {model!r}")
    if x.shape[0] != p.n_sites:
        raise ParameterError(
            f"expected {p.n_sites} site rows, got states of shape {x.shape}")
    if ws is None:
        ws = Workspace(x, model)
    elif ws.x is not x or ws.model != model:
        raise ParameterError(
            f"the workspace is bound to another state array or model ({ws.model!r})")
    if ws.p is not p:
        ws.bind(p)
    a = ws.alpha
    drift, amps, r1, r2 = ws.drift, ws.amps, ws.r1, ws.r2
    head, tail, first, last = ws.head, ws.tail, ws.first, ws.last
    drift.fill(0.0)
    if model == "bep" or p.sigma == 0:
        c = ws.u_head                      # bond coefficient on e_{i+1} - e_i
        np.subtract(ws.x_head, ws.x_tail, c)
        np.multiply(c, a, c)
        np.subtract(head, c, head)
        np.add(tail, c, tail)
        np.subtract(ws.t_left_alpha, ws.x_first, r1)
        np.add(first, r1, first)
        np.subtract(ws.t_right_alpha, ws.x_last, r1)
        np.add(last, r1, last)
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
    np.multiply(x, s, ep)
    np.negative(ep, em)
    np.expm1(ws.em_ep, ws.em_ep)
    np.negative(em, em)

    # bulk bonds; u and v are scratch until the right reservoir
    prod, c = ws.u_head, ws.v_head
    np.multiply(ws.em_head, ws.ep_tail, prod)
    np.divide(prod, ws.sigma2, ws.bonds)
    np.subtract(ws.em_head, ws.ep_tail, c)
    np.multiply(c, a, c)
    np.add(prod, c, c)
    np.divide(c, s, c)
    np.subtract(head, c, head)
    np.add(tail, c, tail)

    # left reservoir (site 1 only), with r1 = T_l e^{s E_1}
    np.multiply(ws.ee_first, ws.t_left, r1)
    np.multiply(r1, ws.ep_first, ws.left)
    np.divide(ws.left, s, ws.left)
    np.add(ws.ep_first, a, r2)
    r1 *= r2
    np.divide(ws.ep_first, s, r2)
    r1 -= r2
    np.add(first, r1, first)

    # right reservoir: rank-one direction across the whole chain
    np.multiply(ee, em, v)
    ws.v_last[...] = ws.ee_last
    np.divide(ws.em_last, s, r2)            # g_N(x) = (1 - e^{-s x_N}) / s
    np.multiply(r2, ws.t_right, ws.right)
    np.subtract(ws.t_right_alpha, r2, r1)   # alpha T_r - g_N; T_r alpha is the same double
    np.multiply(ee, ee, ee)                 # e^{2 s E_l}
    np.subtract(ws.ee_head, ws.ee_tail, ws.u_head)
    np.multiply(ws.u_head, s, ws.u_head)
    np.multiply(ws.ee_last, s, ws.u_last)
    np.multiply(v, r1, em)
    drift += em                             # (alpha T_r - g_N) v
    np.multiply(u, ws.right, u)
    drift += u                              # T_r g_N u
    return drift, amps, v


def _stencil(x: np.ndarray, p: SystemParams, model: str, h: float):
    """Central-difference stencil of L at one state x of shape (N,).

    Returns (points, weights, n_drift): points stacks x, then x + h d_k for
    every direction d_k with a nonzero weight, then x - h d_k in the same
    order.  The directions are e_i weighted by the drift b_i (n_drift of
    them come first), then the noise directions weighted by a_k.
    """
    n = p.n_sites
    if x.shape != (n,):
        raise ParameterError(f"expected one state of shape ({n},), got {x.shape}")
    drift, amps, v = model_parts(x, p, model)
    dirs = np.zeros((2 * n + 1, n))
    dirs[:n] = np.eye(n)
    dirs[n:2 * n - 1] = np.eye(n - 1, n, 1) - np.eye(n - 1, n)
    dirs[2 * n - 1, 0] = dirs[2 * n, -1] = 1.0    # left e_1, right e_N
    if v is not None:
        dirs[2 * n] = v                             # the abep right direction
    weights = np.concatenate([drift, amps])
    keep = weights != 0.0
    step = h * dirs[keep]
    return (np.concatenate([x[None], x + step, x - step]), weights[keep],
            int(np.count_nonzero(keep[:n])))


def _step_size(fd_step) -> float:
    """fd_step as a float; ParameterError unless it is positive and finite."""
    h = float(fd_step)
    if not (0.0 < h < np.inf):
        raise ParameterError(
            f"fd_step must be a positive finite number, got {fd_step!r}")
    return h


def _combine(vals: np.ndarray, weights: np.ndarray, d: int, h: float) -> float:
    """L f at the stencil centre from f on the stencil points (d drift terms)."""
    m = weights.size
    f0, fp, fm = vals[0], vals[1:m + 1], vals[m + 1:]
    terms = np.concatenate([weights[:d] * (fp[:d] - fm[:d]) / (2.0 * h),
                            weights[d:] * (fp[d:] - 2.0 * f0 + fm[d:]) / (h * h)])
    out = 0.0
    for t in terms.tolist():    # left to right: np.sum pairs terms up
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
    pts, weights, n_drift = _stencil(x, p, model, h)
    return _combine(_eval_observable(f, pts), weights, n_drift, h)


def intertwining_residual(x, p: SystemParams, f, fd_step: float):
    """|L_asym (f o g)(x) - (L_sym f)(g(x))| by finite differences.

    f is one callable or a sequence of them, each called on (K, N) batches
    as in apply_generator.  The stencils and their images under g are built
    once per state; a sequence gives a list with one residual per callable,
    each bit-identical to a call with that callable alone.
    """
    single, fs = _observables(f)
    x = as_state(x, p.n_sites)
    h = _step_size(fd_step)
    pts_x, w_x, d_x = _stencil(x, p, "abep", h)
    g_pts = map_g(pts_x, p)
    pts_z, w_z, d_z = _stencil(map_g(x, p), p, "bep", h)
    out = [abs(_combine(_eval_observable(fi, g_pts), w_x, d_x, h)
               - _combine(_eval_observable(fi, pts_z), w_z, d_z, h))
           for fi in fs]
    return out[0] if single else out
