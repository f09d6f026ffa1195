"""Exact absorption probabilities for one or two dual particles.

The dual particles random-walk on sites 1..N with inclusion attraction and
disappear into the boundary sites 0 and N+1.  For the boundary jumps two
rate bookkeepings are supported:

    edge="unit":  boundary jumps at rate (count at the edge site), exactly
                  the particle system simulated in :mod:`abep.sip`;
    edge="walk":  boundary jumps at rate alpha * (count), which makes a
                  lone particle a uniform nearest-neighbor walk.

The closed-form expressions implemented below solve the "walk" system for
every alpha; the two bookkeepings agree at alpha = 1 (and for N = 1, where
every bond touches a boundary).  The linear solver is the authority, the
closed forms are validators against it.

The solver enumerates every placement of k walkers on sites 0..N+1, takes
the jump rates from the simulator's own rate table (``sip._moves``),
factors the sparse transient block once and solves it for every absorbed
outcome (left count, right count).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .core import SystemParams
from .errors import RouteMismatch, SingularSystem
from .sip import _moves

_exit_cache: dict = {}


@dataclass(frozen=True)
class AbsorptionResult:
    """Outcome probabilities for two dual particles."""

    p_both_left: float
    p_both_right: float
    p_split: float

    def as_tuple(self):
        return (self.p_both_left, self.p_both_right, self.p_split)

    @property
    def total(self) -> float:
        return self.p_both_left + self.p_both_right + self.p_split


def _generator(n: int, k: int, alpha: float, edge: str):
    """States of k walkers on 0..N+1 and the sparse rate matrix between them.

    A state is the sorted tuple of walker sites.  Returns (states, Q) with
    Q[a, b] the jump rate from states[a] to states[b]; Q has no diagonal.
    """
    states = list(itertools.combinations_with_replacement(range(n + 2), k))
    index = {s: r for r, s in enumerate(states)}
    rows, cols, rates = [], [], []
    for r, s in enumerate(states):
        occ = [0] * (n + 2)
        for site in s:
            occ[site] += 1
        for src, dst, rate in _moves(occ, n, alpha, edge):
            t = list(s)
            t[t.index(src)] = dst
            t.sort()
            rows.append(r)
            cols.append(index[tuple(t)])
            rates.append(rate)
    q = sparse.csr_matrix((rates, (rows, cols)), shape=(len(states), len(states)))
    return states, q


def _exit_table(n: int, k: int, alpha: float, edge: str):
    """Absorption law of k walkers from every state with a walker in 1..N.

    Returns (index, outcomes, h): index maps a state to its row of h, and
    h[row, c] is the probability of ending with outcomes[c] =
    (left count, right count).
    """
    key = (n, k, float(alpha), edge)
    if key in _exit_cache:
        return _exit_cache[key]
    states, q = _generator(n, k, alpha, edge)
    live = np.array([any(1 <= site <= n for site in s) for s in states])
    q_live = q[live]
    a = (sparse.diags(np.asarray(q_live.sum(axis=1)).ravel())
         - q_live[:, live]).tocsc()
    b = q_live[:, ~live].toarray()
    try:
        lu = splu(a)
    except RuntimeError as exc:
        raise SingularSystem(
            f"absorption system of {k} walkers on {n} sites is singular") from exc
    h = lu.solve(b)
    # one refinement step: the bare sparse LU leaves errors near 1e-13 at
    # N = 80, the refined solve about 1e-15
    h += lu.solve(b - a @ h)
    index = {s: r for r, s in enumerate(s for s, on in zip(states, live) if on)}
    outcomes = [(s.count(0), k - s.count(0))
                for s, on in zip(states, live) if not on]
    _exit_cache[key] = (index, outcomes, h)
    return _exit_cache[key]


def _exit_law(sites, n: int, alpha: float, edge: str) -> dict:
    """{(left count, right count): probability} for walkers at bulk sites."""
    index, outcomes, h = _exit_table(n, len(sites), alpha, edge)
    row = h[index[tuple(sorted(sites))]]
    return {o: float(v) for o, v in zip(outcomes, row)}


def single_right_closed(i: int, n: int, alpha: float,
                        edge: str = "walk") -> float:
    """Closed-form right-exit probability of a lone dual walker."""
    if edge == "walk":
        return i / (n + 1.0)
    if edge == "unit":
        return (i + alpha - 1.0) / (n + 2.0 * alpha - 1.0)
    raise ValueError(f"edge must be 'unit' or 'walk', got {edge!r}")


def single_absorption_solve(i: int, p: SystemParams, edge: str = "walk"):
    """(p_left, p_right) for one particle at site i, by linear solve."""
    if not 1 <= i <= p.n_sites:
        raise IndexError(f"site {i} outside 1..{p.n_sites}")
    pr = _exit_law((i,), p.n_sites, p.alpha, edge)[(0, 1)]
    return (1.0 - pr, pr)


def single_absorption(i: int, p: SystemParams):
    """(p_left, p_right) for one particle at site i.

    Closed form: p_right = i / (N+1), checked on every call against the
    uniform-walk linear solve.
    """
    n = p.n_sites
    if not 1 <= i <= n:
        raise IndexError(f"site {i} outside 1..{n}")
    pr = i / (n + 1.0)
    solved = single_absorption_solve(i, p, edge="walk")[1]
    if not abs(pr - solved) <= 1e-12:
        raise RouteMismatch(
            f"right exit from site {i}: closed form {pr!r}, solve {solved!r}")
    return (1.0 - pr, pr)


def two_particle_solve(i: int, j: int, p: SystemParams,
                       edge: str = "walk") -> AbsorptionResult:
    """Exact outcome probabilities for two particles started at (i, j)."""
    n = p.n_sites
    if not (1 <= i <= j <= n):
        raise IndexError(f"need 1 <= i <= j <= N, got ({i}, {j}) with N = {n}")
    law = _exit_law((i, j), n, p.alpha, edge)
    return AbsorptionResult(law[(2, 0)], law[(0, 2)], law[(1, 1)])


def two_particle_closed_form(i: int, j: int, p: SystemParams) -> AbsorptionResult:
    """Closed-form outcome probabilities (uniform-walk boundary bookkeeping).

    With K = (N+1)(alpha (N+1) + 1):

        p_both_left  = (N+1-j)(alpha (N+1-i) + 1) / K        - 1/(2K) if i = j
        p_both_right = i (1 + alpha j) / K                   - 1/(2K) if i = j
        p_split      = [(alpha (N+1) - 1) i + (1 + alpha (N+1)) j
                        - 2 alpha i j] / K                   + 1/K   if i = j

    The three values sum to one identically.
    """
    n = p.n_sites
    if not (1 <= i <= j <= n):
        raise IndexError(f"need 1 <= i <= j <= N, got ({i}, {j}) with N = {n}")
    al = p.alpha
    k = (n + 1.0) * (al * (n + 1.0) + 1.0)
    p_ll = (n + 1.0 - j) * (al * (n + 1.0 - i) + 1.0) / k
    p_rr = i * (1.0 + al * j) / k
    p_sp = ((al * (n + 1.0) - 1.0) * i + (1.0 + al * (n + 1.0)) * j
            - 2.0 * al * i * j) / k
    if i == j:
        p_ll -= 0.5 / k
        p_rr -= 0.5 / k
        p_sp += 1.0 / k
    return AbsorptionResult(p_ll, p_rr, p_sp)
