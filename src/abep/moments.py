"""Stationary moments of exponentiated tail energies, and the reversible law.

In the steady state of the asymmetric energy diffusion, the expectation of
exp(-sigma * E_m(x)) (with E_m the energy at and to the right of site m) is
a polynomial in the reservoir temperatures whose coefficients are exit
probabilities of one or two dual random walkers.  This module evaluates
those moments along independent routes so they can be cross-checked:

    one point:  closed form  /  absorption linear solve
    two point:  one assembly over pair exit probabilities, fed by the
                exact two-walker solve or by the two-walker closed form

For equal reservoir temperatures the process is reversible and its
stationary density is known explicitly; the density, its mass and exact
moments, an exact rejection sampler for it, and the exact N = 1 CDF (for
distribution-level tests in one dimension) are provided at the bottom.

Boundary-rate bookkeeping for the dual walkers follows the same
"unit"/"walk" switch as :mod:`abep.absorption`, with the same default:
"unit", the bookkeeping dual to the simulated diffusion.  The one-point
closed form covers both; the two-point closed form exists only for
"walk", so two_point_closed_form and two_point_report are "walk" moments.

scipy.special is imported inside the reversible-law functions that call
gammainc, so importing this module does not load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .absorption import (_sites, single_absorption_solve, single_right_closed,
                         two_particle_closed_form, two_particle_solve)
from .core import DOMAIN_TOL, SystemParams, as_state, map_g_inv, partial_energies
from .errors import ParameterError, RejectionStall, RouteMismatch
from .rng import as_generator


def _one_point_closed(m: int, p: SystemParams, edge: str) -> float:
    """The one-point moment in closed form.

    The exit probability h(i) is affine in i, so its sum over i = m..N is
    (N - m + 1) h((m + N) / 2).
    """
    n = p.n_sites
    mid = single_right_closed((m + n) / 2.0, n, p.alpha, edge)
    return 1.0 - p.sigma * p.alpha * (n - m + 1) * (
        p.t_left + (p.t_right - p.t_left) * mid)


def one_point_routes(m: int, p: SystemParams, edge: str = "unit") -> dict:
    """The first moment along two independent routes.

    Returns a dict with keys "closed_form" and "absorption" (the sum of the
    solved exit probabilities); the two values agree to 1e-12 when
    everything is healthy.
    """
    n = p.n_sites
    _sites(n, m)
    pl, pr = single_absorption_solve(np.arange(m, n + 1), p, edge=edge)
    absorbed = 1.0 - p.sigma * p.alpha * float(np.sum(p.t_left * pl
                                                      + p.t_right * pr))
    return {"closed_form": _one_point_closed(m, p, edge), "absorption": absorbed}


def one_point_moment(m: int, p: SystemParams, edge: str = "unit") -> float:
    """Stationary expectation of exp(-sigma * E_m(x)).

    Evaluated in closed form and re-derived by the absorption solve of
    one_point_routes; RouteMismatch is raised when the two differ by more
    than 1e-12.
    """
    routes = one_point_routes(m, p, edge)
    closed, absorbed = routes["closed_form"], routes["absorption"]
    if not abs(closed - absorbed) <= 1e-12:
        raise RouteMismatch(
            f"one-point moment at site {m}: closed form {closed!r}, "
            f"absorption {absorbed!r}")
    return closed


def _two_point_assembly(m: int, n: int, p: SystemParams, one_point, pair) -> float:
    """The two-point moment from one-point values and pair exit probabilities.

    one_point(k) gives the one-point moment at site k, and pair(lo, hi) the
    AbsorptionResult of pairs started at arrays of sites lo <= hi.  A pair
    started at (i, j) ends both-left, both-right or split, and those
    outcomes carry weights T_left^2, T_right^2 and T_left*T_right.
    Off-diagonal pairs enter with weight (sigma*alpha)^2, coinciding pairs
    with sigma^2*alpha*(alpha+1).
    """
    nn = p.n_sites
    _sites(nn, m, n)
    s, a, tl, tr = p.sigma, p.alpha, p.t_left, p.t_right
    i, j = np.arange(m, nn + 1)[:, None], np.arange(n, nn + 1)
    res = pair(np.minimum(i, j), np.maximum(i, j))
    w = np.where(i == j, s * s * a * (a + 1.0), (s * a) ** 2)
    return one_point(m) + one_point(n) - 1.0 + float(np.sum(
        w * (tl * tl * res.p_both_left + tr * tr * res.p_both_right
             + tl * tr * res.p_split)))


def two_point_moment(m: int, n: int, p: SystemParams, edge: str = "unit") -> float:
    """Stationary expectation of exp(-sigma * (E_m(x) + E_n(x))), m <= n.

    Assembled from the one-point moments and the exactly solved two-walker
    absorption probabilities.
    """
    return _two_point_assembly(
        m, n, p, lambda k: one_point_moment(k, p, edge),
        lambda lo, hi: two_particle_solve(lo, hi, p, edge=edge))


def two_point_closed_form(m: int, n: int, p: SystemParams) -> float:
    """The two-point moment in closed form (walk bookkeeping), m <= n.

    The assembly of two_point_moment fed by the one-point and two-walker
    closed forms instead of linear solves.
    """
    return _two_point_assembly(
        m, n, p, lambda k: _one_point_closed(k, p, "walk"),
        lambda lo, hi: two_particle_closed_form(lo, hi, p))


@dataclass(frozen=True)
class TwoPointReport:
    """Assembly-route value, closed-form value, and their gap."""

    assembly: float
    closed_form: float
    difference: float


def two_point_report(m: int, n: int, p: SystemParams) -> TwoPointReport:
    """Evaluate both two-point routes (walk bookkeeping) and report the gap."""
    assembly = two_point_moment(m, n, p, edge="walk")
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


def _domain_cut(p: SystemParams) -> float:
    """c = 1/(sigma T): the image of g is {sigma * total of z < 1} = {total/T < c}."""
    t = _require_equal_temps(p)
    return math.inf if p.sigma == 0.0 else 1.0 / (p.sigma * t)


def reversible_mass(p: SystemParams) -> float:
    """Total mass of exp(reversible_log_density), P(N alpha, 1/(sigma T)).

    P is the regularized lower incomplete gamma function: the chance that
    N independent Gamma(alpha, scale T) proposals of reversible_sampler have
    sigma * total below one, which is the sampler's acceptance rate.
    """
    from scipy.special import gammainc

    return float(gammainc(p.n_sites * p.alpha, _domain_cut(p)))


def _divisor_mass(p: SystemParams) -> float:
    """reversible_mass(p) for a caller that divides by it.

    ParameterError when the mass underflows below the smallest normal
    double, where the quotient would be nan or lose its digits.
    """
    mass = reversible_mass(p)
    if not mass >= np.finfo(float).tiny:
        raise ParameterError(
            f"the reversible mass P(N alpha, c) = P({p.n_sites * p.alpha!r}, "
            f"{_domain_cut(p)!r}) underflows to {mass!r}; alpha is too large "
            "against c = 1/(sigma T)")
    return mass


def reversible_moment(m: int, p: SystemParams) -> float:
    """Expectation of exp(-sigma * E_m(x)) under the reversible law.

    That law, mapped by g, is product Gamma(alpha, scale T) conditioned on
    sigma * total < 1: the total is Gamma(N alpha, T) truncated at 1/sigma,
    the shares are Dirichlet(alpha) and independent of it.  So with
    c = 1/(sigma T) the moment is
    1 - sigma alpha T (N - m + 1) P(N alpha + 1, c) / P(N alpha, c),
    which tends to one_point_moment at equal temperatures as c grows.
    ParameterError when P(N alpha, c) underflows.
    """
    from scipy.special import gammainc

    _sites(p.n_sites, m)
    a, c = p.n_sites * p.alpha, _domain_cut(p)
    return 1.0 - p.sigma * p.alpha * p.t_left * (p.n_sites - m + 1) * float(
        gammainc(a + 1.0, c) / _divisor_mass(p))


def reversible_sampler(p: SystemParams, n_samples: int, seed=0,
                       with_stats: bool = False):
    """Exact samples from the normalized reversible law, by rejection.

    Proposes N independent Gamma(alpha, scale T) coordinates, keeps the
    draw when sigma times its total is below one, and maps it back through
    the inverse energy transform.  Raises RejectionStall, before any draw,
    when the predicted acceptance rate reversible_mass(p) is below 1e-6
    (sigma * T too large for this chain).

    Returns an (n_samples, N) array, plus a stats dict (proposed,
    accepted, acceptance_rate) when with_stats is set.
    """
    t = _require_equal_temps(p)
    if n_samples < 1:
        raise ParameterError("n_samples must be at least 1")
    rate = reversible_mass(p)
    if rate < 1e-6:
        raise RejectionStall(f"predicted acceptance rate {rate:.3e}; "
                             "sigma*T is too large")
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
    x = map_g_inv(kept, p) if s > 0.0 else kept
    if with_stats:
        stats = {"proposed": proposed, "accepted": accepted,
                 "acceptance_rate": accepted / proposed}
        return x, stats
    return x


def reversible_cdf_1d(p: SystemParams):
    """Exact CDF of the single-site reversible law.

    With u = 1 - exp(-sigma x), g(x)/T = u c for c = 1/(sigma T), so the
    truncated Gamma(alpha, T) law of g(x) gives
    F(x) = P(alpha, u c) / P(alpha, c), with P the regularized lower
    incomplete gamma function.  Returns F as a vectorized callable: 0 for
    x <= 0 and exactly 1 at +inf.  Needs N = 1 and sigma > 0, and raises
    ParameterError when P(alpha, c) underflows.
    """
    from scipy.special import gammainc

    if p.n_sites != 1:
        raise ParameterError("the exact CDF is implemented for N = 1 only")
    if p.sigma <= 0.0:
        raise ParameterError("the exact CDF is defined for sigma > 0")
    c, mass = _domain_cut(p), _divisor_mass(p)

    def cdf(values):
        u = -np.expm1(-p.sigma * np.maximum(values, 0.0))
        return gammainc(p.alpha, u * c) / mass

    return cdf
