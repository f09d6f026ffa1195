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


def model_parts(x: np.ndarray, p: SystemParams, model: str):
    """Coefficient parts of 'bep' or 'abep' on site-major states.

    x holds one site per row: (N,) for one configuration or (N, R) for R
    chains, ideally C-contiguous so every row is a contiguous vector.
    Returns (drift like x, bond amplitudes (N-1, ...), left amplitude (...),
    right amplitude (...), right direction v like x, or None for the static
    e_N of the symmetric model).  With sigma = 0 'abep' is 'bep'.
    """
    if model not in ("bep", "abep"):
        raise ParameterError(f"unknown model {model!r}")
    if x.shape[0] != p.n_sites:
        raise ParameterError(
            f"expected {p.n_sites} site rows, got states of shape {x.shape}")
    a = p.alpha
    drift = np.zeros_like(x)
    if model == "bep" or p.sigma == 0:
        c = a * (x[:-1] - x[1:])           # bond coefficient on e_{i+1} - e_i
        drift[:-1] -= c
        drift[1:] += c
        drift[0] += p.t_left * a - x[0]
        drift[-1] += p.t_right * a - x[-1]
        return drift, x[:-1] * x[1:], p.t_left * x[0], p.t_right * x[-1], None

    s = p.sigma
    # partial energies E_l = x_l + ... + x_N, summed from site N down, then
    # ee[l-1] = e^{s E_l}
    ee = np.empty_like(x)
    ee[-1] = x[-1]
    for i in range(x.shape[0] - 2, -1, -1):
        ee[i] = ee[i + 1] + x[i]
    np.exp(s * ee, out=ee)
    em = -np.expm1(-s * x)                  # 1 - e^{-s x_i}
    ep = np.expm1(s * x)                    # e^{s x_i} - 1

    # bulk bonds
    prod = em[:-1] * ep[1:]
    bond_amp = prod / (s * s)
    c = (prod + a * (em[:-1] - ep[1:])) / s
    drift[:-1] -= c
    drift[1:] += c

    # left reservoir (site 1 only)
    left_amp = p.t_left * ee[0] * ep[0] / s
    drift[0] += p.t_left * ee[0] * (a + ep[0]) - ep[0] / s

    # right reservoir: rank-one direction across the whole chain
    v = ee * em
    v[-1] = ee[-1]
    e2 = ee * ee
    u = np.empty_like(v)
    u[:-1] = s * (e2[:-1] - e2[1:])
    u[-1] = s * e2[-1]
    g_n = em[-1] / s                        # g_N(x) = (1 - e^{-s x_N}) / s
    right_amp = p.t_right * g_n
    drift += (a * p.t_right - g_n) * v
    drift += (p.t_right * g_n) * u
    return drift, bond_amp, left_amp, right_amp, v


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
    drift, bond_amp, left_amp, right_amp, v = model_parts(x, p, model)
    dirs = np.zeros((2 * n + 1, n))
    dirs[:n] = np.eye(n)
    dirs[n:2 * n - 1] = np.eye(n - 1, n, 1) - np.eye(n - 1, n)
    dirs[2 * n - 1, 0] = dirs[2 * n, -1] = 1.0    # left e_1, right e_N
    if v is not None:
        dirs[2 * n] = v                             # the abep right direction
    weights = np.concatenate([drift, bond_amp, [left_amp, right_amp]])
    keep = weights != 0.0
    step = h * dirs[keep]
    return (np.concatenate([x[None], x + step, x - step]), weights[keep],
            int(np.count_nonzero(keep[:n])))


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
    h = float(fd_step)
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
    h = float(fd_step)
    pts_x, w_x, d_x = _stencil(x, p, "abep", h)
    g_pts = map_g(pts_x, p)
    pts_z, w_z, d_z = _stencil(map_g(x, p), p, "bep", h)
    out = [abs(_combine(_eval_observable(fi, g_pts), w_x, d_x, h)
               - _combine(_eval_observable(fi, pts_z), w_z, d_z, h))
           for fi in fs]
    return out[0] if single else out
