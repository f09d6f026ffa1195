"""Exact absorption probabilities for one or two dual particles.

The dual particles random-walk on sites 1..N with inclusion attraction and
disappear into the boundary sites 0 and N+1 at rate (count at the edge site)
for edge="unit", the default: the particles simulated in :mod:`abep.sip`,
dual to the energy diffusions; or at alpha * (count) for edge="walk", which
makes a lone particle a uniform nearest-neighbor walk.

A lone walker's exit probability has one closed form for both
bookkeepings.  Only "walk" has a two-walker closed form
(two_particle_closed_form); for "unit" pairs what is closed is the total
and the mean number absorbed right, h(i) + h(j).  The two bookkeepings
agree at alpha = 1 (and for N = 1, where every bond touches a boundary).
The linear solver is the authority, the closed forms are validators.

The solver enumerates every placement of k walkers on sites 0..N+1 as
sorted sites, builds every walker's jumps in whole arrays with rates from
the simulator's own rate law (``sip._hop_rates``), factors the sparse
transient block once and solves it for every absorbed outcome (left
count, right count).  The block diag(total rate) - Q_live is a row
diagonally dominant M-matrix, and a symmetric permutation keeps it one, so
SuperLU factors it in minimum-degree order on A + A^T with the diagonal
entries as pivots and no pivot search (Golub and Van Loan, Matrix
Computations, section 3.4).  One refinement step follows, and a residual
whose largest entry exceeds 1e-8 times the largest right-hand side entry
raises SingularSystem.  The solves and the closed forms take single sites
or arrays of sites.  scipy.sparse is imported at the first solve.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain, combinations_with_replacement

import numpy as np

from .core import SystemParams, _value, _whole
from .errors import SingularSystem, SiteError
from .sip import _edge_rate, _hop_rates


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

    Returns (states, Q): states is the (S, k) array of sorted walker sites,
    one state per row in lexicographic order, and Q[a, b] the jump rate from
    states[a] to states[b]; Q has no diagonal.
    """
    from scipy import sparse

    states = np.fromiter(chain.from_iterable(combinations_with_replacement(
        range(n + 2), k)), np.int64).reshape(-1, k)
    # sites as base N+2 digits give ascending keys: a state's row is its key's rank
    digit = (n + 2) ** np.arange(k - 1, -1, -1)
    keys = states @ digit
    # per walker: the walkers at its site and at the sites left and right
    count, k_left, k_right = (sum(states[:, v, None] == states + d for v in range(k))
                              for d in (0, -1, 1))
    # a left jump moves the first walker at a bulk site, a right jump the
    # last, so the target stays sorted and one digit changes
    moves = np.stack([np.diff(states, axis=1, prepend=-1) != 0,
                      np.diff(states, axis=1, append=n + 2) != 0], axis=2)
    r, w, right = np.nonzero(moves & ((states >= 1) & (states <= n))[:, :, None])
    rates = np.stack([_hop_rates(count, k_left, states == 1, alpha, edge),
                      _hop_rates(count, k_right, states == n, alpha, edge)],
                     axis=2)[r, w, right]
    cols = np.searchsorted(keys, keys[r] + (2 * right - 1) * digit[w])
    return states, sparse.csr_matrix((rates, (r, cols)), shape=(len(states),) * 2)


@functools.cache
def _exit_table(n: int, k: int, alpha: float, edge: str):
    """Absorption law of k walkers from every state with a walker in 1..N.

    Returns (rows, outcomes, h): rows[s] is the row of h for the sorted
    walker sites s, and h[row, c] is the probability of ending with
    outcomes[c] = (left count, right count).  Cached per argument tuple.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    states, q = _generator(n, k, alpha, edge)
    live = ((states >= 1) & (states <= n)).any(axis=1)
    q_live = q[live]
    a = (sparse.diags(np.asarray(q_live.sum(axis=1)).ravel())
         - q_live[:, live]).tocsc()
    b = q_live[:, ~live].toarray()
    singular = f"absorption system of {k} walkers on {n} sites is singular"
    # a is a row-diagonally dominant M-matrix, and so is every symmetric
    # permutation of it: the diagonal pivots need no search
    try:
        lu = splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystem(singular) from exc
    h = lu.solve(b)
    # one refinement step: the bare sparse LU leaves errors near 1e-14 at
    # N = 80, the refined solve a few 1e-15
    h += lu.solve(b - a @ h)
    # the unpivoted solve is checked, not trusted: the worst residual seen
    # over alpha in 1e-6..1e6 is below 1e-9; the inverted comparison also
    # trips on nan
    residual = np.abs(a @ h - b).max() / np.abs(b).max()
    if not residual <= 1e-8:
        raise SingularSystem(f"{singular}: relative residual {residual:.3g}")
    rows = np.full((n + 2,) * k, -1)
    rows[tuple(states[live].T)] = np.arange(np.count_nonzero(live))
    outcomes = [(c, k - c) for c in (states[~live] == 0).sum(axis=1).tolist()]
    return rows, outcomes, h


def _sites(n: int, *sites):
    """The sites as int64 arrays; SiteError unless they are integers (a float
    such as 2.0 counts) with 1 <= sites[0] <= ... <= N."""
    sites = tuple(np.asarray(s) for s in sites)
    if not all(map(_whole, sites)):
        raise SiteError(f"sites {[s.tolist() for s in sites]} must be integers")
    chain = (1, *sites, n)
    if not all((a <= b).all() for a, b in zip(chain, chain[1:])):
        raise SiteError(f"sites {[s.tolist() for s in sites]} are not "
                        f"ordered within 1..{n}")
    return tuple(s.astype(np.int64, copy=False) for s in sites)


def _exit_probs(sites, p: SystemParams, edge: str, *outcomes):
    """Probabilities of the outcomes for walkers at sites ordered within 1..N."""
    sites = _sites(p.n_sites, *sites)
    # a float alpha: 2 and 2.0 share one table, and an int builds no int64 rates
    rows, cols, h = _exit_table(p.n_sites, len(sites), float(p.alpha), edge)
    return [_value(h[rows[sites], cols.index(o)]) for o in outcomes]


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
    (pr,) = _exit_probs((i,), p, edge, (0, 1))
    return (1.0 - pr, pr)


def two_particle_solve(i, j, p: SystemParams,
                       edge: str = "unit") -> AbsorptionResult:
    """Exact outcome probabilities for two particles started at (i, j).

    i and j may be arrays of sites that broadcast together.
    """
    return AbsorptionResult(*_exit_probs((i, j), p, edge, (2, 0), (0, 2), (1, 1)))


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
