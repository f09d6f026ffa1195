"""Exact absorption probabilities for one or two dual particles.

The dual particles random-walk on sites 1..N with inclusion attraction and
disappear into the boundary sites 0 and N+1.  For the boundary jumps two
rate bookkeepings are supported:

    edge="unit":  boundary jumps at rate (count at the edge site), exactly
                  the particle system simulated in :mod:`abep.sip` and the
                  dual of the energy diffusions; the default;
    edge="walk":  boundary jumps at rate alpha * (count), which makes a
                  lone particle a uniform nearest-neighbor walk; opt-in.

A lone walker's exit probability has one closed form for both
bookkeepings.  Only "walk" has a two-walker closed form
(two_particle_closed_form); for "unit" pairs what is closed is the total
and the mean number absorbed right, h(i) + h(j).  The two bookkeepings
agree at alpha = 1 (and for N = 1, where every bond touches a boundary).
The linear solver is the authority, the closed forms are validators
against it.

The solver enumerates every placement of k walkers on sites 0..N+1, takes
the jump rates from the simulator's own rate table (``sip._rate_table``),
factors the sparse transient block once and solves it for every absorbed
outcome (left count, right count).  The solves and the closed forms take
single sites or arrays of sites.  scipy.sparse is imported at the first
solve, so importing this module (or any route that never solves) does not
load it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import SystemParams
from .errors import SingularSystem, SiteError
from .sip import _edge_rate, _jump, _occupied, _rate_table

_exit_cache: dict = {}
# states per block of _generator: bounds the memory of its (states, 2N)
# rate table, which would otherwise grow as N**3 for pairs
_BLOCK_STATES = 256


@dataclass(frozen=True)
class AbsorptionResult:
    """Outcome probabilities for two dual particles (arrays for arrays of sites)."""

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
    from scipy import sparse

    states = list(itertools.combinations_with_replacement(range(n + 2), k))
    index = {s: r for r, s in enumerate(states)}
    rows, cols, rates = [], [], []
    for first in range(0, len(states), _BLOCK_STATES):
        block = np.array(states[first:first + _BLOCK_STATES])
        occ = np.zeros((len(block), n + 2), dtype=np.int64)
        for site in block.T:
            occ[np.arange(len(block)), site] += 1
        r, c = np.nonzero(_occupied(occ))
        rows.append(first + r)
        rates.append(_rate_table(occ, alpha, edge)[r, c])
        targets = occ[r]
        _jump(targets, np.arange(len(r)), c)
        # every target holds k walkers, so its sites in order fill one row
        hit = np.nonzero(targets)
        sites = np.repeat(hit[1], targets[hit]).reshape(-1, k)
        cols += [index[t] for t in map(tuple, sites.tolist())]
    q = sparse.csr_matrix((np.concatenate(rates), (np.concatenate(rows), cols)),
                          shape=(len(states), len(states)))
    return states, q


def _exit_table(n: int, k: int, alpha: float, edge: str):
    """Absorption law of k walkers from every state with a walker in 1..N.

    Returns (rows, outcomes, h): rows[s] is the row of h for the sorted
    walker sites s, and h[row, c] is the probability of ending with
    outcomes[c] = (left count, right count).
    """
    key = (n, k, float(alpha), edge)
    if key in _exit_cache:
        return _exit_cache[key]
    from scipy import sparse
    from scipy.sparse.linalg import splu

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
    rows = np.full((n + 2,) * k, -1)
    rows[tuple(np.array(states)[live].T)] = np.arange(np.count_nonzero(live))
    outcomes = [(s.count(0), k - s.count(0))
                for s, on in zip(states, live) if not on]
    _exit_cache[key] = (rows, outcomes, h)
    return _exit_cache[key]


def _sites(n: int, *sites):
    """The sites as arrays; SiteError unless 1 <= sites[0] <= ... <= N."""
    sites = tuple(np.asarray(s) for s in sites)
    chain = (1, *sites, n)
    if not all((a <= b).all() for a, b in zip(chain, chain[1:])):
        raise SiteError(f"sites {[s.tolist() for s in sites]} are not "
                        f"ordered within 1..{n}")
    return sites


def _value(x):
    """A Python float for a single value, the array otherwise."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def _exit_probs(sites, p: SystemParams, edge: str, *outcomes):
    """Probabilities of the given outcomes for walkers at sorted bulk sites."""
    rows, cols, h = _exit_table(p.n_sites, len(sites), p.alpha, edge)
    row = rows[sites]
    return [_value(h[row, cols.index(o)]) for o in outcomes]


def single_right_closed(i, n: int, alpha: float, edge: str = "unit"):
    """Closed-form right-exit probability of a lone dual walker at site i.

    h(i) = (c + i - 1) / (2c + N - 1) with c = alpha / (boundary rate):
    c = 1 for edge="walk", where h(i) = i / (N+1), and c = alpha for
    edge="unit".  h is affine in i, so i may be any real or an array.
    """
    c = alpha / _edge_rate(alpha, edge)
    return (c + i - 1.0) / (2.0 * c + n - 1.0)


def single_absorption_solve(i, p: SystemParams, edge: str = "unit"):
    """(p_left, p_right) for one particle at site i, by linear solve.

    i may be an array of sites; each probability then has its shape.
    """
    sites = _sites(p.n_sites, i)
    (pr,) = _exit_probs(sites, p, edge, (0, 1))
    return (1.0 - pr, pr)


def two_particle_solve(i, j, p: SystemParams,
                       edge: str = "unit") -> AbsorptionResult:
    """Exact outcome probabilities for two particles started at (i, j).

    i and j may be arrays of sites that broadcast together.
    """
    sites = _sites(p.n_sites, i, j)
    return AbsorptionResult(*_exit_probs(sites, p, edge, (2, 0), (0, 2), (1, 1)))


def two_particle_closed_form(i, j, p: SystemParams) -> AbsorptionResult:
    """Closed-form outcome probabilities (uniform-walk boundary bookkeeping).

    With K = (N+1)(alpha (N+1) + 1):

        p_both_left  = (N+1-j)(alpha (N+1-i) + 1) / K        - 1/(2K) if i = j
        p_both_right = i (1 + alpha j) / K                   - 1/(2K) if i = j
        p_split      = [(alpha (N+1) - 1) i + (1 + alpha (N+1)) j
                        - 2 alpha i j] / K                   + 1/K   if i = j

    The three values sum to one identically.
    """
    n = p.n_sites
    i, j = _sites(n, i, j)
    al = p.alpha
    k = (n + 1.0) * (al * (n + 1.0) + 1.0)
    p_ll = (n + 1.0 - j) * (al * (n + 1.0 - i) + 1.0) / k
    p_rr = i * (1.0 + al * j) / k
    p_sp = ((al * (n + 1.0) - 1.0) * i + (1.0 + al * (n + 1.0)) * j
            - 2.0 * al * i * j) / k
    tie = np.where(i == j, 1.0 / k, 0.0)
    return AbsorptionResult(*map(_value, (p_ll - 0.5 * tie, p_rr - 0.5 * tie,
                                          p_sp + tie)))
