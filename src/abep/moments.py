"""Stationary moments of exponentiated tail energies, and the reversible law.

In the steady state of the asymmetric energy diffusion, the expectation of
exp(-sigma * E_m(x)) (with E_m the energy at and to the right of site m) is
a polynomial in the reservoir temperatures whose coefficients are exit
probabilities of one or two dual random walkers.  This module evaluates
those moments along independent routes so they can be cross-checked:

    one point:  closed form  /  telescoping sum  /  absorption linear solve
    two point:  assembly from exact two-walker absorption probabilities,
                plus a direct closed-form evaluator kept separate because
                the two do not agree (the difference is reported, never
                hidden; the assembly route is the authority and is the one
                validated against Monte Carlo).

For equal reservoir temperatures the process is reversible and its
stationary density is known explicitly; the density, an exact rejection
sampler for it, and a quadrature CDF (for distribution-level tests in one
dimension) are provided at the bottom.

Boundary-rate bookkeeping for the dual walkers follows the same
"walk"/"unit" switch as :mod:`abep.absorption`; the closed forms belong to
the "walk" convention and the two coincide at alpha = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .absorption import (single_absorption_solve, single_right_closed,
                         two_particle_solve)
from .core import DOMAIN_TOL, SystemParams, as_state, map_g_inv, partial_energies
from .errors import ParameterError, RejectionStall, RouteMismatch
from .rng import as_generator


def _check_site(m: int, n_sites: int) -> None:
    if not 1 <= m <= n_sites:
        raise IndexError(f"site {m} outside 1..{n_sites}")


def one_point_moment(m: int, p: SystemParams, edge: str = "walk") -> float:
    """Stationary expectation of exp(-sigma * E_m(x)).

    Evaluated in closed form and re-derived through the telescoping sum of
    single-walker exit probabilities; RouteMismatch is raised when the two
    differ by more than 1e-12.
    """
    n = p.n_sites
    _check_site(m, n)
    s, a, tl, tr = p.sigma, p.alpha, p.t_left, p.t_right
    tele = 1.0 - s * a * sum(
        tl + (tr - tl) * single_right_closed(i, n, a, edge)
        for i in range(m, n + 1)
    )
    if edge == "walk":
        closed = (1.0 - s * a * tl * (n - m + 1)
                  + s * a * (tr - tl) * (m + n) * (m - n - 1) / (2.0 * (n + 1.0)))
    else:
        closed = 1.0 - s * a * sum(
            tl * (1.0 - pr) + tr * pr
            for i in range(m, n + 1)
            for pr in (single_absorption_solve(i, p, edge=edge)[1],)
        )
    if not abs(closed - tele) <= 1e-12:
        raise RouteMismatch(
            f"one-point moment at site {m}: closed form {closed!r}, "
            f"telescoping sum {tele!r}")
    return closed


def one_point_routes(m: int, p: SystemParams) -> dict:
    """The first moment along three independent routes (walk bookkeeping).

    Returns a dict with keys "closed_form", "telescoping" and "absorption";
    the three values agree to 1e-12 when everything is healthy.
    """
    n = p.n_sites
    _check_site(m, n)
    s, a, tl, tr = p.sigma, p.alpha, p.t_left, p.t_right
    closed = (1.0 - s * a * tl * (n - m + 1)
              + s * a * (tr - tl) * (m + n) * (m - n - 1) / (2.0 * (n + 1.0)))
    tele = 1.0 - s * a * sum(
        tl + (tr - tl) * i / (n + 1.0) for i in range(m, n + 1)
    )
    absorbed = 1.0 - s * a * sum(
        tl * pl + tr * pr
        for i in range(m, n + 1)
        for pl, pr in (single_absorption_solve(i, p, edge="walk"),)
    )
    return {"closed_form": closed, "telescoping": tele, "absorption": absorbed}


def two_point_moment(m: int, n: int, p: SystemParams, edge: str = "walk") -> float:
    """Stationary expectation of exp(-sigma * (E_m(x) + E_n(x))), m <= n.

    Assembled from the one-point values plus a double sum of two-walker
    absorption probabilities solved exactly: a pair started at (i, j) ends
    both-left, both-right or split, and those outcomes carry weights
    T_left^2, T_right^2 and T_left*T_right.  Off-diagonal pairs enter with
    weight (sigma*alpha)^2, coinciding pairs with sigma^2*alpha*(alpha+1).
    """
    nn = p.n_sites
    if not (1 <= m <= n <= nn):
        raise IndexError(f"need 1 <= m <= n <= N, got ({m}, {n}) with N = {nn}")
    s, a, tl, tr = p.sigma, p.alpha, p.t_left, p.t_right
    total = one_point_moment(m, p, edge) + one_point_moment(n, p, edge) - 1.0
    w_off = (s * a) ** 2
    w_diag = s * s * a * (a + 1.0)
    for i in range(m, nn + 1):
        for j in range(n, nn + 1):
            lo, hi = (i, j) if i <= j else (j, i)
            res = two_particle_solve(lo, hi, p, edge=edge)
            w = w_diag if i == j else w_off
            total += w * (tl * tl * res.p_both_left
                          + tr * tr * res.p_both_right
                          + tl * tr * res.p_split)
    return total


def two_point_closed_form(m: int, n: int, p: SystemParams) -> float:
    """Direct closed-form evaluator for the two-point moment, m <= n.

    Kept verbatim as displayed so it can be compared against the assembly
    route; the two disagree (a diagonal prefactor in this form reads
    (2 sigma)^2 alpha where the assembly derivation carries
    sigma^2 alpha (alpha+1)), so this value is reported alongside the
    assembly value, never asserted equal to it.
    """
    nn = p.n_sites
    if not (1 <= m <= n <= nn):
        raise IndexError(f"need 1 <= m <= n <= N, got ({m}, {n}) with N = {nn}")
    s, a, tl, tr = p.sigma, p.alpha, p.t_left, p.t_right
    big = float(nn)
    t = (1.0 - s * a * tl * (2.0 * big - m - n + 2.0)
         + a * s * (tr - tl)
         * (m * m + n * n - 2.0 * big * big - 2.0 * big - m - n)
         / (2.0 * (big + 1.0)))
    pref1 = ((s * a) ** 2 * (1.0 - m + big) * (1.0 - n + big)
             / (2.0 * (big + 1.0) * (1.0 + a * (big + 1.0))))
    t += pref1 * (tl * tl * (big - m + 2.0) * (1.0 + (a / 2.0) * (big - n + 2.0))
                  + tr * tr * (big + n) * (1.0 + (a / 2.0) * (big + m))
                  + tl * tr * (m * (1.0 - a * (n - 1.0)) - n
                               + a * (n + big * (big + 2.0))))
    pref2 = ((2.0 * s) ** 2 * a * (1.0 - n + big)
             / (2.0 * (big + 1.0) * (1.0 + a * (big + 1.0))))
    q = (a / 3.0) * (2.0 * n * n + 2.0 * big * big + 2.0 * n * big - n + big)
    t += pref2 * (tl * tl * (q - (n + big) * (2.0 * a * (big + 1.0) + 1.0)
                             + 2.0 * big + 1.0 + 2.0 * a * (big + 1.0) ** 2)
                  + tr * tr * (q + (n + big) - 1.0)
                  + 2.0 * tl * tr * (-q + (n + big) * (a * (big + 1.0) - 1.0) + 1.0))
    return t


@dataclass(frozen=True)
class TwoPointReport:
    """Assembly-route value, closed-form-display value, and their gap."""

    assembly: float
    closed_form: float
    difference: float


def two_point_report(m: int, n: int, p: SystemParams,
                     edge: str = "walk") -> TwoPointReport:
    """Evaluate both two-point routes and report the discrepancy."""
    assembly = two_point_moment(m, n, p, edge=edge)
    closed = two_point_closed_form(m, n, p)
    return TwoPointReport(assembly, closed, closed - assembly)


def _require_equal_temps(p: SystemParams) -> float:
    if p.t_left != p.t_right:
        raise ParameterError(
            "reversible law needs equal reservoir temperatures, "
            f"got ({p.t_left}, {p.t_right})")
    if p.t_left <= 0.0:
        raise ParameterError("reversible law needs a positive temperature")
    return p.t_left


def reversible_log_density(x, p: SystemParams):
    """Log of the unnormalized reversible density at equal temperatures.

    Accepts a single configuration or a batch with shape (..., N); returns
    a float or an array of matching leading shape.  Requires sigma > 0
    (the symmetric model's reversible law is a plain Gamma product and
    needs no special handling here).
    """
    t = _require_equal_temps(p)
    if p.sigma <= 0.0:
        raise ParameterError("reversible density is defined for sigma > 0")
    arr = as_state(x, p.n_sites)
    s = p.sigma
    e1 = partial_energies(arr)[..., 0]
    out = np.expm1(-s * e1) / (s * t)
    site_exponent = p.alpha * np.arange(p.n_sites) + 1.0
    out = out - s * np.sum(arr * site_exponent, axis=-1)
    if p.alpha != 1.0:
        with np.errstate(divide="ignore"):
            out = out + (p.alpha - 1.0) * np.sum(
                np.log1p(-np.exp(-s * arr)), axis=-1)
    out = out - p.n_sites * (math.lgamma(p.alpha)
                             + (p.alpha - 1.0) * math.log(s)
                             + p.alpha * math.log(t))
    out = np.asarray(out)
    return float(out) if out.ndim == 0 else out


def reversible_density_unnormalized(x, p: SystemParams):
    """Unnormalized reversible density at equal temperatures.

    The total mass is below one (for N = 1, alpha = 1 it integrates to
    1 - exp(-1/(sigma T))), so consumers must normalize or use ratios.
    """
    return np.exp(reversible_log_density(x, p))


def reversible_sampler(p: SystemParams, n_samples: int, seed=0,
                       with_stats: bool = False):
    """Exact samples from the normalized reversible law, by rejection.

    Proposes N independent Gamma(alpha, scale T) coordinates, keeps the
    draw when sigma times its total is below one, and maps it back through
    the inverse energy transform.  Raises RejectionStall when fewer than
    one in 10^6 proposals survives (sigma * T too large for this chain).

    Returns an (n_samples, N) array, plus a stats dict (proposed,
    accepted, acceptance_rate) when with_stats is set.
    """
    t = _require_equal_temps(p)
    if n_samples < 1:
        raise ParameterError("n_samples must be at least 1")
    rng = as_generator(seed, "reversible-sampler")
    n = p.n_sites
    s = p.sigma
    kept = np.empty((n_samples, n))
    got = 0
    proposed = 0
    accepted = 0
    chunk = int(min(200_000, max(2 * n_samples, 1024)))
    while got < n_samples:
        z = rng.gamma(p.alpha, t, size=(chunk, n))
        proposed += chunk
        if s > 0.0:
            z = z[s * z.sum(axis=1) < 1.0 - DOMAIN_TOL]
        accepted += len(z)
        take = min(len(z), n_samples - got)
        if take:
            kept[got:got + take] = z[:take]
            got += take
        if proposed >= 1_000_000 and accepted < 1e-6 * proposed:
            raise RejectionStall(
                f"acceptance rate {accepted / proposed:.3e} after "
                f"{proposed} proposals; sigma*T is too large")
    x = map_g_inv(kept, p) if s > 0.0 else kept
    if with_stats:
        stats = {"proposed": proposed, "accepted": accepted,
                 "acceptance_rate": accepted / proposed}
        return x, stats
    return x


def reversible_cdf_1d(p: SystemParams, x_max: float | None = None,
                      n_grid: int = 100_001):
    """Quadrature CDF of the single-site reversible law.

    Returns a vectorized callable F with F(0) = 0 and F(x_max) = 1, built
    by trapezoid integration of the normalized density on a uniform grid.
    Needs N = 1 and alpha >= 1 (below 1 the density diverges at zero and
    the uniform grid would miss mass).
    """
    t = _require_equal_temps(p)
    if p.n_sites != 1:
        raise ParameterError("quadrature CDF is implemented for N = 1 only")
    if p.alpha < 1.0:
        raise ParameterError("quadrature CDF needs alpha >= 1")
    if p.sigma <= 0.0:
        raise ParameterError("quadrature CDF is defined for sigma > 0")
    del t
    if x_max is None:
        x_max = 30.0 / p.sigma
    grid = np.linspace(0.0, float(x_max), int(n_grid))
    dens = np.zeros_like(grid)
    dens[1:] = np.exp(reversible_log_density(grid[1:, None], p))
    if p.alpha == 1.0:
        dens[0] = np.exp(reversible_log_density(np.zeros((1, 1)), p))[0]
    cum = cumulative_trapezoid(dens, grid, initial=0.0)
    cum /= cum[-1]

    def cdf(values):
        return np.interp(values, grid, cum)

    return cdf
