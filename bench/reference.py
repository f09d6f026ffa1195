"""Independent references for the benchmark's output checks.

Each function here is derived from the model definitions in the README and
module docstrings, not from the code under test: the dual particle system
is enumerated from its jump rates, its time-t law comes from a dense matrix
exponential, and absorption probabilities from a dense linear solve.  Sizes
are tiny (a few walkers on a few sites), so clarity wins over speed.
"""
from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.linalg import expm


def occupations(n_sites: int, n_walkers: int):
    """Every placement of n_walkers indistinguishable walkers on 0..N+1."""
    out = []
    for sites in itertools.combinations_with_replacement(range(n_sites + 2), n_walkers):
        occ = [0] * (n_sites + 2)
        for s in sites:
            occ[s] += 1
        out.append(tuple(occ))
    return out


def dual_generator(n_sites: int, n_walkers: int, alpha: float, edge: str = "unit"):
    """Rate matrix of the absorbing inclusion process on all occupations.

    A walker at bulk site i jumps to a bulk neighbour j at rate
    (count at i) * (alpha + count at j); it jumps into a boundary site at
    rate (count at i) for edge="unit" and alpha * (count at i) for
    edge="walk".  Boundary sites 0 and N+1 absorb.
    """
    states = occupations(n_sites, n_walkers)
    index = {s: k for k, s in enumerate(states)}
    q = np.zeros((len(states), len(states)))
    edge_factor = {"unit": 1.0, "walk": alpha}[edge]
    for s in states:
        row = index[s]
        for i in range(1, n_sites + 1):
            if not s[i]:
                continue
            for j in (i - 1, i + 1):
                boundary = j in (0, n_sites + 1)
                rate = s[i] * (edge_factor if boundary else alpha + s[j])
                target = list(s)
                target[i] -= 1
                target[j] += 1
                q[row, index[tuple(target)]] += rate
                q[row, row] -= rate
    return states, q


def energy_transform(x, sigma: float) -> np.ndarray:
    """z_i = exp(-sigma E_{i+1}) (1 - exp(-sigma x_i)) / sigma; identity at 0."""
    x = np.asarray(x, dtype=float)
    if sigma == 0.0:
        return x.copy()
    tail = np.concatenate([np.cumsum(x[::-1])[::-1][1:], [0.0]])   # E_{i+1}
    return np.exp(-sigma * tail) * (-np.expm1(-sigma * x)) / sigma


def classical_duality(z, occ, alpha: float, t_left: float, t_right: float) -> float:
    """T_l^{xi_0} prod_i z_i^{xi_i} / (alpha)_{xi_i} T_r^{xi_{N+1}}."""
    val = t_left ** occ[0] * t_right ** occ[-1]
    for zi, k in zip(z, occ[1:-1]):
        val *= zi ** k / math.prod(alpha + j for j in range(k))
    return float(val)


def dual_expectation(x0, xi0, t: float, n_sites: int, sigma: float, alpha: float,
                     t_left: float, t_right: float) -> float:
    """E[D(x0, Xi_t)] for the classical duality function, exactly.

    sigma = 0 gives the symmetric model's function; sigma > 0 composes it
    with the energy transform.
    """
    states, q = dual_generator(n_sites, int(sum(xi0)), alpha, "unit")
    law = expm(q * t)[states.index(tuple(int(v) for v in xi0))]
    z = energy_transform(x0, sigma)
    values = np.array([classical_duality(z, s, alpha, t_left, t_right) for s in states])
    return float(law @ values)


def absorption_law(xi0, n_sites: int, alpha: float, edge: str = "unit") -> dict:
    """P(final (left count, right count)) for walkers started at xi0."""
    states, q = dual_generator(n_sites, int(sum(xi0)), alpha, edge)
    transient = [k for k, s in enumerate(states) if any(s[1:-1])]
    absorbed = [k for k, s in enumerate(states) if not any(s[1:-1])]
    h = np.linalg.solve(q[np.ix_(transient, transient)],
                        -q[np.ix_(transient, absorbed)])
    row = h[transient.index(states.index(tuple(int(v) for v in xi0)))]
    return {(states[k][0], states[k][-1]): float(pr) for k, pr in zip(absorbed, row)}


def right_exit(i: int, n_sites: int, alpha: float, edge: str) -> float:
    """Right-exit probability of one walker at site i (harmonic in i)."""
    if edge == "walk":
        return i / (n_sites + 1.0)
    return (i + alpha - 1.0) / (n_sites + 2.0 * alpha - 1.0)


def reversible_cdf_n1_alpha1(x, sigma: float, temp: float):
    """Exact CDF of the N = 1, alpha = 1 reversible law.

    There the density of u = 1 - exp(-sigma x) is proportional to
    exp(-u / (sigma T)) on [0, 1): an exponential truncated at 1.
    """
    u = -np.expm1(-sigma * np.asarray(x, dtype=float))
    return np.expm1(-u / (sigma * temp)) / np.expm1(-1.0 / (sigma * temp))
