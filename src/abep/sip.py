"""Exact event-driven simulation of the inclusion particle system.

Particles live on sites 0..N+1.  A particle at bulk site i hops to a bulk
neighbor j at rate (count at i) * (alpha + count at j), so particles attract
each other on top of free diffusion.  Sites 0 and N+1 absorb: the jump
1 -> 0 happens at rate (count at site 1) and N -> N+1 at rate (count at
site N), and absorbed particles never move again.  That is the "unit"
boundary bookkeeping; the rate law, _hop_rates, serves the "walk" one
(boundary jumps at alpha * count) too, for :mod:`abep.absorption`.

All runs of one call advance together by Gillespie's direct method
(Gillespie, J. Phys. Chem. 81, 1977), applied to a batch: each round takes
one event in every run that is still active, with its waiting time and its
move drawn from the run's column of one rate table.  Runs are occupation
vectors, so any configuration is simulated without enumerating states.
The batch is site-major, one run per column, so rate tables are built in
whole rows; the layout moves no uniform and no output byte.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .core import SystemParams, _count, as_particles
from .errors import ParameterError, SimulationCap
# as_generator is unused here but stays importable: bench/tracing.py wraps
# abep.sip.as_generator
from .rng import as_generator, stream  # noqa: F401

# events any one run may take before SimulationCap
MAX_EVENTS = 1_000_000


def _edge_rate(alpha: float, edge: str) -> float:
    """Per-particle rate of a jump into a boundary site.

    1 for edge="unit", the simulated system, and alpha for edge="walk".
    """
    if edge == "unit":
        return 1.0
    if edge == "walk":
        return alpha
    raise ParameterError(f"edge must be 'unit' or 'walk', got {edge!r}")


def _hop_rates(k, k_target, into_edge, alpha: float, edge: str) -> np.ndarray:
    """The rate law: k (alpha + k_target) for a jump from a site holding k to
    one holding k_target, _edge_rate * k where the index into_edge marks 0 or N+1."""
    rates = k * (alpha + k_target)
    rates[into_edge] = _edge_rate(alpha, edge) * k[into_edge]
    return rates


def _rate_table(occ, alpha: float) -> np.ndarray:
    """Unit-edge jump rates of every configuration: (2N, R) from site-major
    (N+2, R) occupations, one run per column.

    Row 2(i-1) is the jump i -> i-1 and row 2i-1 the jump i -> i+1 from bulk
    site i.  A jump from an empty site has rate 0.
    """
    occ = occ.astype(float)     # the casts the rate law would make, once
    k = occ[1:-1]
    rates = np.empty((len(k), 2, occ.shape[1]))
    rates[:, 0] = _hop_rates(k, occ[:-2], 0, alpha, "unit")
    rates[:, 1] = _hop_rates(k, occ[2:], -1, alpha, "unit")
    return rates.reshape(-1, occ.shape[1])


def _jump(occ, row) -> None:
    """Move one particle in each column of the C-contiguous site-major
    occupations occ, by rate-table row, in place."""
    if not occ.flags.c_contiguous:      # the flat copy would take the jumps
        raise ValueError("occupations must be C-contiguous")
    width = occ.shape[1]
    flat = occ.reshape(-1)
    # row 2(i-1) + d moves a particle from site i to site i - 1 + 2d
    left = (row >> 1) * width + np.arange(width)
    np.subtract.at(flat, left + width, 1)
    np.add.at(flat, left + (row & 1) * (2 * width), 1)


def sip_rates(xi, p: SystemParams):
    """All possible single jumps from xi as (target configuration, rate)."""
    occ = as_particles(xi, p.n_sites)[:, None]
    rows = np.flatnonzero(np.repeat(occ[1:-1, 0] > 0, 2))
    targets = np.repeat(occ, len(rows), axis=1)
    _jump(targets, rows)
    return list(zip(targets.T, _rate_table(occ, p.alpha)[rows, 0].tolist()))


def _simulate(occ0, p: SystemParams, n_runs: int, rng: np.random.Generator,
              t_max=None):
    """Run n_runs copies of the occupations occ0 together.

    Returns the (n_runs, N+2) final occupations and the (n_runs,) times at
    which the runs stopped: when their bulk empties or, if t_max is given,
    at that horizon.  Each round draws a (2, active) block of uniforms, the
    first row for the waiting times and the second for the moves, over the
    active runs in ascending order.  They are one C-contiguous (N+2, active)
    array with their clocks beside it, written out and compacted only in the
    rounds in which runs absorb or pass the horizon.
    ParameterError unless n_runs is a whole number >= 1 and t_max None or >= 0;
    SimulationCap when a run takes its (MAX_EVENTS + 1)-th event.
    """
    n_runs = _count(n_runs, "n_runs")
    if not (t_max is None or t_max >= 0):
        raise ParameterError(f"need a time horizon >= 0, got {t_max}")
    n = p.n_sites
    horizon = math.inf if t_max is None else t_max
    occ = np.tile(occ0, (n_runs, 1))
    t = np.zeros(n_runs)
    runs = np.arange(n_runs if occ0[1:n + 1].any() else 0)
    cur = np.repeat(occ0[:, None], runs.size, axis=1)
    clock = np.zeros(runs.size)
    # every active run takes one event per round, so the round number is
    # the event count of each run still active
    events = 0
    while runs.size:
        u = rng.random((2, runs.size))
        cum = np.cumsum(_rate_table(cur, p.alpha), axis=0)
        total = cum[-1]
        # the wait -log(1 - u) / total, subtracted: the same bits as added.
        # A subnormal total rate overflows it to inf, its rounded value
        with np.errstate(over="ignore"):
            clock -= np.log(1.0 - u[0]) / total
        # a run past the horizon stops before this event, as it stands
        stop = clock > horizon
        if stop.any():
            halt = np.flatnonzero(stop)
            occ[runs[halt]] = cur[:, halt].T
            t[runs[halt]] = t_max
        events += 1
        if events > MAX_EVENTS and not stop.all():
            raise SimulationCap(
                f"run exceeded {MAX_EVENTS} events without absorbing")
        row = (cum <= u[1] * total).sum(axis=0)
        # guard against pick == total round-off: take the last possible move
        over = row == 2 * n
        if over.any():
            row[over] = (cum[:, over] < total[over]).sum(axis=0)
        _jump(cur, row)
        leave = stop | ~cur[1:n + 1].any(axis=0)
        if leave.any():
            done = np.flatnonzero(leave & ~stop)
            occ[runs[done]] = cur[:, done].T
            t[runs[done]] = clock[done]
            keep = np.flatnonzero(~leave)
            runs, clock, cur = runs[keep], clock[keep], cur.take(keep, axis=1)
    return occ, t


def _count_rows(rows) -> Counter:
    """Counter of the distinct rows of an integer array, keyed by tuples."""
    rows = rows[np.lexsort(rows.T[::-1])]
    first = np.flatnonzero(np.diff(rows, axis=0, prepend=-1).any(axis=1))
    counts = np.diff(first, append=len(rows))
    return Counter(dict(zip(map(tuple, rows[first].tolist()), counts.tolist())))


def mc_absorption(xi0, p: SystemParams, n_runs: int, seed: int = 0):
    """Empirical distribution of (left count, right count) at absorption.

    Returns a dict mapping each outcome to (frequency, binomial standard
    error).  All runs draw from the one stream (seed, "absorption-mc").
    """
    occ, _ = _simulate(as_particles(xi0, p.n_sites), p, n_runs,
                       stream(seed, "absorption-mc"))
    out = {}
    for outcome, c in sorted(_count_rows(occ[:, [0, -1]]).items()):
        f = c / n_runs
        out[outcome] = (f, math.sqrt(f * (1.0 - f) / n_runs))
    return out


def final_state_counts(xi0, p: SystemParams, n_runs: int, t_horizon: float,
                       seed: int = 0) -> Counter:
    """Counter of full configurations (as tuples) at a fixed horizon.

    All runs draw from the one stream (seed, "horizon-mc").
    """
    occ, _ = _simulate(as_particles(xi0, p.n_sites), p, n_runs,
                       stream(seed, "horizon-mc"), float(t_horizon))
    return _count_rows(occ)
