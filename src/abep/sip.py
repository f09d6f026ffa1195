"""Exact event-driven simulation of the inclusion particle system.

Particles live on sites 0..N+1.  A particle at bulk site i hops to a bulk
neighbor j at rate (count at i) * (alpha + count at j), so particles attract
each other on top of free diffusion.  Sites 0 and N+1 absorb: the jump
1 -> 0 happens at rate (count at site 1) and N -> N+1 at rate (count at
site N), and absorbed particles never move again.  That is the "unit"
boundary bookkeeping; the rate table also serves the "walk" one (boundary
jumps at alpha * count) for the exact solves in :mod:`abep.absorption`.

All runs of one call advance together by Gillespie's direct method
(Gillespie, J. Phys. Chem. 81, 1977), applied to a batch: each round takes
one event in every run that is still active, with its waiting time and its
move drawn from the run's row of one array rate table.  Runs are occupation
vectors, so any configuration is simulated without enumerating states.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .core import SystemParams, as_particles
from .errors import ParameterError, SimulationCap
# as_generator is unused here but stays importable: bench/tracing.py wraps
# abep.sip.as_generator
from .rng import as_generator, stream  # noqa: F401

DEFAULT_MAX_EVENTS = 1_000_000


def _edge_rate(alpha: float, edge: str) -> float:
    """Per-particle rate of a jump into a boundary site.

    1 for edge="unit", the simulated system, and alpha for edge="walk".
    """
    if edge == "unit":
        return 1.0
    if edge == "walk":
        return alpha
    raise ParameterError(f"edge must be 'unit' or 'walk', got {edge!r}")


def _rate_table(occ, alpha: float, edge: str = "unit") -> np.ndarray:
    """Jump rates of every configuration: (R, 2N) from (R, N+2) occupations.

    Column 2(i-1) is the jump i -> i-1 and column 2i-1 the jump i -> i+1
    from bulk site i.  A jump from an empty site has rate 0.
    """
    k = occ[:, 1:-1]
    rates = np.empty(k.shape + (2,))
    rates[:, :, 0] = k * (alpha + occ[:, :-2])
    rates[:, :, 1] = k * (alpha + occ[:, 2:])
    at_edge = _edge_rate(alpha, edge)
    rates[:, 0, 0] = at_edge * k[:, 0]
    rates[:, -1, 1] = at_edge * k[:, -1]
    return rates.reshape(len(occ), -1)


def _occupied(occ) -> np.ndarray:
    """Mask of the rate table's columns whose source site is occupied."""
    return np.repeat(occ[:, 1:-1] > 0, 2, axis=1)


def _jump(occ, rows, col) -> None:
    """Move one particle in each given row, by rate-table column, in place."""
    src = col // 2 + 1
    occ[rows, src] -= 1
    occ[rows, src + 2 * (col % 2) - 1] += 1


def sip_rates(xi, p: SystemParams):
    """All possible single jumps from xi as (target configuration, rate)."""
    occ = as_particles(xi, p.n_sites)[None]
    cols = np.flatnonzero(_occupied(occ)[0])
    targets = np.repeat(occ, len(cols), axis=0)
    _jump(targets, np.arange(len(cols)), cols)
    return list(zip(targets, _rate_table(occ, p.alpha)[0, cols].tolist()))


def _simulate(occ0, p: SystemParams, n_runs: int, rng: np.random.Generator,
              t_max=None, max_events: int = DEFAULT_MAX_EVENTS):
    """Run n_runs copies of the occupations occ0 together.

    Returns the (n_runs, N+2) final occupations and the (n_runs,) times at
    which the runs stopped: when their bulk empties or, if t_max is given,
    at that horizon.  Each round draws a (2, active) block of uniforms, the
    first row for the waiting times and the second for the moves.
    """
    n = p.n_sites
    occ = np.tile(occ0, (n_runs, 1))
    t = np.zeros(n_runs)
    active = np.flatnonzero(occ[:, 1:n + 1].any(axis=1))
    # every active run takes one event per round, so the round number is
    # the event count of each run still active
    events = 0
    while active.size:
        u = rng.random((2, active.size))
        cum = np.cumsum(_rate_table(occ[active], p.alpha), axis=1)
        total = cum[:, -1]
        wait = -np.log(1.0 - u[0]) / total
        if t_max is not None:
            stop = t[active] + wait > t_max
            t[active[stop]] = t_max
            go = ~stop
            active, u, cum, total, wait = (active[go], u[:, go], cum[go],
                                           total[go], wait[go])
        events += 1
        if events > max_events and active.size:
            raise SimulationCap(
                f"run exceeded {max_events} events without absorbing")
        t[active] += wait
        col = (cum <= (u[1] * total)[:, None]).sum(axis=1)
        # guard against pick == total round-off: take the last possible move
        over = col == 2 * n
        col[over] = (cum[over] < total[over, None]).sum(axis=1)
        _jump(occ, active, col)
        active = active[occ[active, 1:n + 1].any(axis=1)]
    return occ, t


def _count_rows(rows) -> Counter:
    """Counter of the distinct rows of an integer array, keyed by tuples."""
    rows = rows[np.lexsort(rows.T[::-1])]
    first = np.flatnonzero(np.diff(rows, axis=0, prepend=-1).any(axis=1))
    counts = np.diff(first, append=len(rows))
    return Counter(dict(zip(map(tuple, rows[first].tolist()), counts.tolist())))


def mc_absorption(xi0, p: SystemParams, n_runs: int, seed: int = 0,
                  max_events: int = DEFAULT_MAX_EVENTS):
    """Empirical distribution of (left count, right count) at absorption.

    Returns a dict mapping each outcome to (frequency, binomial standard
    error).  All runs draw from the one stream (seed, "absorption-mc").
    """
    occ, _ = _simulate(as_particles(xi0, p.n_sites), p, n_runs,
                       stream(seed, "absorption-mc"), None, max_events)
    out = {}
    for outcome, c in sorted(_count_rows(occ[:, [0, -1]]).items()):
        f = c / n_runs
        out[outcome] = (f, math.sqrt(f * (1.0 - f) / n_runs))
    return out


def final_state_counts(xi0, p: SystemParams, n_runs: int, t_horizon: float,
                       seed: int = 0,
                       max_events: int = DEFAULT_MAX_EVENTS) -> Counter:
    """Counter of full configurations (as tuples) at a fixed horizon.

    All runs draw from the one stream (seed, "horizon-mc").
    """
    occ, _ = _simulate(as_particles(xi0, p.n_sites), p, n_runs,
                       stream(seed, "horizon-mc"), float(t_horizon), max_events)
    return _count_rows(occ)
