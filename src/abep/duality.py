"""Duality functions linking the energy diffusions to the particle system.

Four evaluators are provided.  With z the energy configuration, xi the
particle configuration (sites 0..N+1) and T a free positive parameter:

    classical:  T_l^{xi_0} * prod_i z_i^{xi_i} / (alpha)_{xi_i} * T_r^{xi_{N+1}}
    orthogonal: (T_l-T)^{xi_0} * prod_i d(z_i, xi_i) * (T_r-T)^{xi_{N+1}}

where (alpha)_k is the rising factorial and d(zeta, k) is a rescaled
generalized Laguerre polynomial of degree k, evaluated by Horner's rule on
one coefficient table; classical is the same site product at T = 0.  The
asymmetric variants compose with the energy transform: they evaluate the
same products at g(x).

Duality holds at the generator level, L_cont D(., xi)(x) = L_part D(x, .)(xi),
and consequently for the semigroups, E_x D(X_t, xi) = E_xi D(x, Xi_t).  Both
statements are checked here: the generator residual exactly (D(., xi) is a
polynomial in z) against exact rate sums on the discrete side, the
semigroup identity by a two-sided Monte Carlo z-score.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (SystemParams, _count, _mean_se, _positive, _value, _z, as_particles,
                   as_state, map_g)
from .errors import ParameterError
from .generators import apply_generator
from . import sde
from .sde import ensemble_endpoint, whole_steps
from .sip import final_state_counts, sip_rates
from .rng import stream


def pochhammer(a: float, k: int) -> float:
    """Rising factorial a (a+1) ... (a+k-1) for a whole number k >= 0; for
    a > 0 it stops at an overflow, as every later factor keeps it inf."""
    out = 1.0
    for j in range(_count(k, "k", 0)):
        out *= a + j
        if out == math.inf and a > 0:
            break
    return out


def _finite(values, what: str, where: str):
    """values; ParameterError unless all are finite: the one rule for the state-free
    factors of D(., xi), (alpha)_k, the site coefficients and the boundary factor."""
    if not np.isfinite(values).all():
        raise ParameterError(f"{what} leaves the float range at {where}")
    return values


def _site_coeffs(k: int, alpha: float, t: float) -> np.ndarray:
    """c_j = C(k, j) (-t)^{k-j} / (alpha)_j, j = 0..k: the degree-k site factor
    is sum_j c_j zeta^j, at t = 0 the classical zeta^k / (alpha)_k.  (alpha)_j
    is one running product in pochhammer's order, so it has pochhammer's bits."""
    j = np.arange(k + 1)
    rising = np.cumprod(np.r_[1.0, alpha + j[:-1]])
    with np.errstate(over="ignore"):
        c = np.array([math.comb(k, i) for i in j], float) * (-t) ** (k - j) / rising
    return _finite(c, f"a degree-{k} site coefficient", f"alpha = {alpha!r}, t = {t!r}")


def laguerre_d(zeta, k: int, alpha: float, t: float):
    """Single-site orthogonal factor of degree k: sum_j c_j zeta^j by Horner's
    rule, c_j = C(k, j) (-t)^{k-j} / (alpha)_j, a polynomial proportional to a
    generalized Laguerre polynomial, of zero mean under the Gamma(alpha,
    scale t) law for every k >= 1.  Vectorized in zeta.  ParameterError
    unless k is a whole number >= 0, 0 < alpha < inf (the SystemParams
    rule), 0 < t < inf and (alpha)_k and every c_j are finite.
    """
    _positive(alpha, "alpha")
    _positive(t, "orthogonal parameter t")
    k = _count(k, "k", 0)
    _finite(pochhammer(alpha, k), "(alpha)_k", f"alpha = {alpha!r}, site count k = {k}")
    y = np.asarray(zeta, dtype=float)
    acc = np.zeros_like(y)
    for c in _site_coeffs(k, alpha, t)[::-1]:
        acc = acc * y + c
    return acc


def _site_product(z, xi, p: SystemParams, t: float, factor):
    """(T_l - t)^{xi_0} (T_r - t)^{xi_{N+1}}, then val = factor(val, z_i, xi_i) at
    each occupied bulk site i in turn; broadcasts over leading axes of z.
    ParameterError when the boundary factor is not finite, or a bulk count k
    has (alpha)_k = inf."""
    occ = as_particles(xi, p.n_sites)
    arr = as_state(z, p.n_sites, allow_negative=True)
    with np.errstate(over="ignore", invalid="ignore"):
        base = _finite((p.t_left - t) ** occ[0] * (p.t_right - t) ** occ[-1],
                       f"boundary factor (T_l - t)^{occ[0]} (T_r - t)^{occ[-1]}",
                       f"T_l = {p.t_left}, T_r = {p.t_right}, t = {t}")
    # (alpha)_k grows with k >= 1 and (alpha)_0 = 1: the largest count decides
    k = int(occ[1:-1].max())
    _finite(pochhammer(p.alpha, k), "(alpha)_k", f"alpha = {p.alpha!r}, site count k = {k}")
    val = np.full(arr.shape[:-1], base, dtype=float)
    for i in np.flatnonzero(occ[1:-1]):
        val = factor(val, arr[..., i], int(occ[i + 1]))
    return _value(val)


def classical_D(z, xi, p: SystemParams):
    """Product duality function; broadcasts over leading axes of z."""
    return _site_product(z, xi, p, 0.0,
                         lambda val, zi, k: val * zi**k / pochhammer(p.alpha, k))


def orthogonal_D(z, xi, p: SystemParams, t: float):
    """Laguerre-product duality function with free parameter 0 < t < inf,
    checked for every xi."""
    _positive(t, "orthogonal parameter t")
    return _site_product(z, xi, p, t,
                         lambda val, zi, k: val * laguerre_d(zi, k, p.alpha, t))


def classical_D_sigma(x, xi, p: SystemParams):
    """Classical function composed with the energy transform."""
    return classical_D(map_g(x, p), xi, p)


def orthogonal_D_sigma(x, xi, p: SystemParams, t: float):
    """Orthogonal function composed with the energy transform."""
    return orthogonal_D(map_g(x, p), xi, p, t)


def _dual_poly(xi, p: SystemParams, t: float):
    """D(., xi) as (coeffs, exps) in z: the boundary factor times prod_i
    sum_j c_j z_i^j, the c_j of _site_coeffs(xi_i, alpha, t)."""
    occ = as_particles(xi, p.n_sites)
    # the boundary factor: the site product with every site factor 1
    base = _site_product(np.zeros(p.n_sites), occ, p, t, lambda val, zi, k: val)
    coeffs, exps = np.array([base]), np.zeros((1, p.n_sites), np.int64)
    for i in np.flatnonzero(occ[1:-1]):
        k = int(occ[i + 1])
        w = _site_coeffs(k, p.alpha, t)
        coeffs, exps = np.outer(coeffs, w).ravel(), np.repeat(exps, k + 1, axis=0)
        exps[:, i] = np.tile(np.arange(k + 1), len(exps) // (k + 1))
    return coeffs, exps


def _select_dfun(model: str, dfun: str, p: SystemParams, t_orth):
    """(state, xi -> D(state, xi), t), t = 0 for classical; t_orth, orthogonal
    only (default (T_l + T_r) / 2), is checked here, before any evaluation."""
    if model not in ("bep", "abep"):
        raise ParameterError(f"unknown model {model!r}")
    if dfun == "classical":
        if t_orth is not None:
            raise ParameterError(f"t_orth applies only to orthogonal, got {t_orth}")
        fun = classical_D if model == "bep" else classical_D_sigma
        return (lambda state, xi: fun(state, xi, p)), 0.0
    if dfun != "orthogonal":
        raise ParameterError(f"unknown duality function {dfun!r}")
    t = _positive(0.5 * (p.t_left + p.t_right) if t_orth is None else t_orth,
                  "orthogonal parameter t")
    fun = orthogonal_D if model == "bep" else orthogonal_D_sigma
    return (lambda state, xi: fun(state, xi, p, t)), t


def generator_duality_residual(x, xi, p: SystemParams, model: str = "bep",
                               dfun: str = "classical", t_orth=None) -> float:
    """|continuous-side application - discrete-side application| at (x, xi).

    The continuous side applies the model generator exactly to D(., xi),
    a polynomial in z = g(x); the discrete side sums the exact
    rate-weighted differences rate * (D(x, target) - D(x, xi)) over all
    particle jumps xi -> target.
    """
    arr = as_state(x, p.n_sites)
    dual, t = _select_dfun(model, dfun, p, t_orth)
    cont = float(apply_generator(arr[None], p, model, _dual_poly(xi, p, t))[0])
    base = dual(arr, as_particles(xi, p.n_sites))
    disc = sum(rate * (dual(arr, target) - base) for target, rate in sip_rates(xi, p))
    return abs(cont - disc)


@dataclass(frozen=True)
class DualityCheck:
    """Two-sided Monte Carlo comparison of a semigroup duality pair."""

    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    z_score: float


@functools.lru_cache(maxsize=1)
def _finals(x0: bytes, p: SystemParams, model: str, dt: float, t_horizon: float,
            n_runs: int, seed: int, cap: float) -> np.ndarray:
    """Read-only final states of the diffusion side of semigroup_duality_check,
    for the last key only; cap is sde.CAP, part of the key as the run reads it."""
    finals = ensemble_endpoint(np.frombuffer(x0), p, model, dt, t_horizon, n_runs,
                               stream(seed, f"duality-sde-{model}"))
    finals.flags.writeable = False
    return finals


def semigroup_duality_check(x0, xi0, t_horizon: float, p: SystemParams,
                            model: str = "bep", dfun: str = "classical",
                            n_runs: int = 10_000, seed: int = 0,
                            dt: float = 1e-3, t_orth=None) -> DualityCheck:
    """Compare E[D(X_t, xi0)] against E[D(x0, Xi_t)] with n_runs per side.

    The left side propagates diffusion chains from x0 with the
    Euler-Maruyama scheme; the right side runs the particle system from the
    one configuration xi0 to the same horizon.  Returns both means with
    standard errors, one estimator for both sides, and the two-sided
    z-score as a DualityCheck.

    Consecutive calls that differ only in xi0, dfun or t_orth share one
    diffusion ensemble: the last one is kept read-only in an lru cache of
    size one, keyed by x0, p, model, dt, t_horizon, n_runs, seed and
    sde.CAP, and a hit gives the bytes of a fresh simulation.
    ParameterError unless n_runs is a whole number >= 2 (a standard error
    needs two runs), dt > 0 and t_horizon is 0 or a whole number of steps
    dt within 1e-9 relative: the diffusion side takes round(t_horizon / dt).
    A t_orth given with dfun="classical", and an xi0 that D cannot
    evaluate (a boundary power or a bulk (alpha)_k past the float range),
    are ParameterErrors too, raised before either side simulates.
    """
    _count(n_runs, "n_runs", 2)
    whole_steps(t_horizon, dt, "t_horizon")
    arr = as_state(x0, p.n_sites)
    occ0 = as_particles(xi0, p.n_sites)
    dual, _ = _select_dfun(model, dfun, p, t_orth)
    # D(x0, xi0) refuses a bad xi0 before either side simulates
    v = float(dual(arr, occ0))
    if t_horizon == 0:
        return DualityCheck(v, 0.0, v, 0.0, 0.0)

    finals = _finals(arr.tobytes(), p, model, dt, t_horizon, n_runs, seed,
                     sde.CAP)
    lhs, lhs_se = _mean_se(dual(finals, occ0))

    counts = final_state_counts(occ0, p, n_runs, t_horizon, seed=seed)
    runs, vals = zip(*[(c, float(dual(arr, np.array(config, dtype=np.int64))))
                       for config, c in sorted(counts.items())])
    # the lhs estimator on the per-run values: c runs end with value v
    rhs, rhs_se = _mean_se(np.repeat(vals, runs))
    z = _z(lhs, rhs, math.hypot(lhs_se, rhs_se))
    return DualityCheck(lhs, lhs_se, rhs, rhs_se, z)
