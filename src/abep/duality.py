"""Duality functions linking the energy diffusions to the particle system.

Four evaluators are provided.  With z the energy configuration, xi the
particle configuration (sites 0..N+1) and T a free positive parameter:

    classical:  T_l^{xi_0} * prod_i z_i^{xi_i} / (alpha)_{xi_i} * T_r^{xi_{N+1}}
    orthogonal: (T_l-T)^{xi_0} * prod_i d(z_i, xi_i) * (T_r-T)^{xi_{N+1}}

where (alpha)_k is the rising factorial and d(zeta, k) is a rescaled
generalized Laguerre polynomial of degree k, evaluated by its terminating
hypergeometric sum.  The asymmetric variants compose with the energy
transform: they evaluate the same products at g(x).

Duality holds at the generator level, L_cont D(., xi)(x) = L_part D(x, .)(xi),
and consequently for the semigroups, E_x D(X_t, xi) = E_xi D(x, Xi_t).  Both
statements are checked numerically here: the generator residual with finite
differences on the continuous side and exact rate sums on the discrete side,
the semigroup identity by a two-sided Monte Carlo z-score.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SystemParams, as_particles, as_state, map_g
from .errors import ParameterError
from .generators import apply_generator
from .sde import ensemble_endpoint
from .sip import final_state_counts, sip_rates
from .rng import stream


def pochhammer(a: float, k: int) -> float:
    """Rising factorial a (a+1) ... (a+k-1); 1 for k = 0."""
    out = 1.0
    for j in range(int(k)):
        out *= a + j
    return out


def laguerre_d(zeta, k: int, alpha: float, t: float):
    """Single-site orthogonal factor of degree k.

    (-t)^k * sum_{j=0}^{k} (-1)^j C(k, j) (zeta/t)^j / (alpha)_j, a
    polynomial in zeta proportional to a generalized Laguerre polynomial.
    Zero mean under the Gamma(alpha, scale t) law for every k >= 1.
    Vectorized in zeta.
    """
    if t <= 0:
        raise ParameterError(f"orthogonal parameter t must be > 0, got {t}")
    k = int(k)
    y = np.asarray(zeta, dtype=float) / t
    acc = np.zeros_like(y)
    for j in range(k + 1):
        acc = acc + ((-1.0) ** j * math.comb(k, j) / pochhammer(alpha, j)) * y**j
    return (-t) ** k * acc


def classical_D(z, xi, p: SystemParams):
    """Product duality function; broadcasts over leading axes of z."""
    occ = as_particles(xi, p.n_sites)
    arr = as_state(z, p.n_sites, allow_negative=True)
    out = float(p.t_left) ** int(occ[0]) * float(p.t_right) ** int(occ[-1])
    val = np.full(arr.shape[:-1], out, dtype=float)
    for i in range(p.n_sites):
        k = int(occ[i + 1])
        if k:
            val = val * arr[..., i] ** k / pochhammer(p.alpha, k)
    return val if val.ndim else float(val)


def orthogonal_D(z, xi, p: SystemParams, t: float):
    """Laguerre-product duality function with free parameter t > 0."""
    occ = as_particles(xi, p.n_sites)
    arr = as_state(z, p.n_sites, allow_negative=True)
    base = (p.t_left - t) ** int(occ[0]) * (p.t_right - t) ** int(occ[-1])
    val = np.full(arr.shape[:-1], base, dtype=float)
    for i in range(p.n_sites):
        k = int(occ[i + 1])
        if k:
            val = val * laguerre_d(arr[..., i], k, p.alpha, t)
    return val if val.ndim else float(val)


def classical_D_sigma(x, xi, p: SystemParams):
    """Classical function composed with the energy transform."""
    return classical_D(map_g(x, p), xi, p)


def orthogonal_D_sigma(x, xi, p: SystemParams, t: float):
    """Orthogonal function composed with the energy transform."""
    return orthogonal_D(map_g(x, p), xi, p, t)


def sip_generator_apply(fun, xi, p: SystemParams) -> float:
    """Apply the particle-system generator to a function of xi, exactly."""
    base = float(fun(as_particles(xi, p.n_sites)))
    out = 0.0
    for target, rate in sip_rates(xi, p):
        out += rate * (float(fun(target)) - base)
    return out


def _select_dfun(model: str, dfun: str, p: SystemParams, t_orth):
    if t_orth is None:
        t_orth = 0.5 * (p.t_left + p.t_right)
    if model == "bep":
        if dfun == "classical":
            return lambda state, xi: classical_D(state, xi, p)
        if dfun == "orthogonal":
            return lambda state, xi: orthogonal_D(state, xi, p, t_orth)
    elif model == "abep":
        if dfun == "classical":
            return lambda state, xi: classical_D_sigma(state, xi, p)
        if dfun == "orthogonal":
            return lambda state, xi: orthogonal_D_sigma(state, xi, p, t_orth)
    else:
        raise ParameterError(f"unknown model {model!r}")
    raise ParameterError(f"unknown duality function {dfun!r}")


def generator_duality_residual(x, xi, p: SystemParams, model: str = "bep",
                               dfun: str = "classical", fd_step: float = 1e-4,
                               t_orth=None) -> float:
    """|continuous-side application - discrete-side application| at (x, xi).

    The continuous side applies the model generator to state -> D(state, xi)
    by central finite differences; the discrete side sums the exact
    rate-weighted differences over all particle jumps.
    """
    arr = as_state(x, p.n_sites)
    dual = _select_dfun(model, dfun, p, t_orth)
    cont = apply_generator(arr, p, model, lambda y: dual(y, xi), fd_step)
    disc = sip_generator_apply(lambda c: dual(arr, c), xi, p)
    return abs(cont - disc)


@dataclass(frozen=True)
class DualityCheck:
    """Two-sided Monte Carlo comparison of a semigroup duality pair."""

    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    z_score: float


def semigroup_duality_check(x0, xi0, t_horizon: float, p: SystemParams,
                            model: str = "bep", dfun: str = "classical",
                            n_runs: int = 10_000, seed: int = 0,
                            dt: float = 1e-3, t_orth=None,
                            cap: float = 1e6):
    """Compare E[D(X_t, xi0)] against E[D(x0, Xi_t)] with n_runs per side.

    The left side propagates diffusion chains from x0 with the
    Euler-Maruyama scheme; the right side runs the particle system to the
    same horizon.  Returns both means with standard errors and the
    two-sided z-score as a DualityCheck.

    xi0 may also be a sequence of particle configurations: the diffusion
    ensemble is then simulated once and evaluated for each of them, and the
    result is a list with one DualityCheck per configuration, each
    bit-identical to a single-configuration call with the same arguments.
    ParameterError unless n_runs >= 2 (a standard error needs two runs),
    dt > 0, and t_horizon is 0 or a whole number of steps dt (within 1e-9
    relative), since the diffusion side takes round(t_horizon / dt) steps.
    """
    if n_runs < 2 or not dt > 0 or not t_horizon >= 0:
        raise ParameterError(
            f"need n_runs >= 2, dt > 0 and t_horizon >= 0, got n_runs={n_runs}, "
            f"dt={dt}, t_horizon={t_horizon}")
    steps = t_horizon / dt
    # a positive horizon below half a step fails too: it rounds to 0 steps
    if t_horizon > 0 and not (steps < math.inf
                              and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ParameterError(
            f"t_horizon must be a whole number of steps dt, got "
            f"t_horizon / dt = {steps:.12g}")
    arr = as_state(x0, p.n_sites)
    single = len(xi0) == 0 or np.ndim(xi0[0]) == 0
    occs = [as_particles(xi, p.n_sites) for xi in ([xi0] if single else xi0)]
    dual = _select_dfun(model, dfun, p, t_orth)

    if t_horizon == 0:
        vals = [float(dual(arr, occ0)) for occ0 in occs]
        checks = [DualityCheck(v, 0.0, v, 0.0, 0.0) for v in vals]
    else:
        finals = ensemble_endpoint(arr, p, model, dt, t_horizon, n_runs,
                                   stream(seed, f"duality-sde-{model}"), cap)
        checks = [_two_sided(dual, arr, finals, occ0, p, n_runs, t_horizon, seed)
                  for occ0 in occs]
    return checks[0] if single else checks


def _two_sided(dual, arr, finals, occ0, p, n_runs, t_horizon, seed) -> DualityCheck:
    """Diffusion-side mean over finals against a particle run from occ0."""
    lhs_vals = np.asarray(dual(finals, occ0), dtype=float)
    lhs = float(lhs_vals.mean())
    lhs_se = float(lhs_vals.std(ddof=1) / math.sqrt(n_runs))

    counts = final_state_counts(occ0, p, n_runs, t_horizon, seed=seed)
    mean = 0.0
    second = 0.0
    for config, c in sorted(counts.items()):
        w = c / n_runs
        v = float(dual(arr, np.array(config, dtype=np.int64)))
        mean += w * v
        second += w * v * v
    var = max(second - mean * mean, 0.0)
    rhs_se = math.sqrt(var / n_runs)

    denom = math.hypot(lhs_se, rhs_se)
    if denom == 0.0:
        z = 0.0 if lhs == mean else math.inf
    else:
        z = abs(lhs - mean) / denom
    return DualityCheck(lhs, lhs_se, mean, rhs_se, z)
