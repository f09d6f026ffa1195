"""Exact event-driven simulation of the inclusion particle system.

Particles live on sites 0..N+1.  A particle at bulk site i hops to a bulk
neighbor j at rate (count at i) * (alpha + count at j), so particles attract
each other on top of free diffusion.  Sites 0 and N+1 absorb: the jump
1 -> 0 happens at rate (count at site 1) and N -> N+1 at rate (count at
site N), and absorbed particles never move again.  That is the "unit"
boundary bookkeeping; the rate table also serves the "walk" one (boundary
jumps at alpha * count) for the exact solves in :mod:`abep.absorption`.

The direct (Gillespie) method with full rate recomputation per event is
plenty here: state spaces are a handful of particles on short chains.
"""
from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .core import SystemParams, as_particles
from .errors import ParameterError, SimulationCap
from .rng import as_generator, stream

DEFAULT_MAX_EVENTS = 1_000_000


class _Draws:
    """Buffered uniform variates: block draws from numpy, scalar pops."""

    def __init__(self, rng: np.random.Generator, block: int = 8192):
        self.rng = rng
        self.block = block
        self.buf = []
        self.pos = 0

    def uniform(self) -> float:
        if self.pos == len(self.buf):
            self.buf = self.rng.random(self.block).tolist()
            self.pos = 0
        v = self.buf[self.pos]
        self.pos += 1
        return v


def _edge_rate(alpha: float, edge: str) -> float:
    """Per-particle rate of a jump into a boundary site.

    1 for edge="unit", the simulated system, and alpha for edge="walk".
    """
    if edge == "unit":
        return 1.0
    if edge == "walk":
        return alpha
    raise ParameterError(f"edge must be 'unit' or 'walk', got {edge!r}")


def _moves(occ, n: int, alpha: float, edge: str = "unit"):
    """Enumerate (source, target, rate) for the current occupations.

    Boundary jumps go at rate _edge_rate(alpha, edge) * (count).
    """
    at_edge = _edge_rate(alpha, edge)
    mv = []
    for i in range(1, n + 1):
        k = occ[i]
        if not k:
            continue
        if i == 1:
            mv.append((1, 0, at_edge * k))
        else:
            mv.append((i, i - 1, k * (alpha + occ[i - 1])))
        if i == n:
            mv.append((n, n + 1, at_edge * k))
        else:
            mv.append((i, i + 1, k * (alpha + occ[i + 1])))
    return mv


def sip_rates(xi, p: SystemParams):
    """All possible single jumps from xi as (target configuration, rate)."""
    occ = as_particles(xi, p.n_sites)
    out = []
    for src, dst, rate in _moves(occ.tolist(), p.n_sites, p.alpha):
        tgt = occ.copy()
        tgt[src] -= 1
        tgt[dst] += 1
        out.append((tgt, float(rate)))
    return out


def _run(occ, n: int, alpha: float, draws: _Draws, t_max, max_events: int):
    """Core event loop on a plain list of ints.

    Returns (occupations, elapsed time, absorbed flag).  The loop stops when
    the bulk empties or, if t_max is given, at that horizon.
    """
    bulk = sum(occ[1:n + 1])
    t = 0.0
    events = 0
    while bulk > 0:
        mv = _moves(occ, n, alpha)
        total = 0.0
        for _, _, r in mv:
            total += r
        wait = -math.log(1.0 - draws.uniform()) / total
        if t_max is not None and t + wait > t_max:
            return occ, t_max, False
        t += wait
        events += 1
        if events > max_events:
            raise SimulationCap(
                f"run exceeded {max_events} events without absorbing"
            )
        pick = draws.uniform() * total
        acc = 0.0
        src = dst = None
        for s, d, r in mv:
            acc += r
            if pick < acc:
                src, dst = s, d
                break
        if src is None:            # guard against pick == total round-off
            src, dst = mv[-1][0], mv[-1][1]
        occ[src] -= 1
        occ[dst] += 1
        if dst == 0 or dst == n + 1:
            bulk -= 1
    return occ, t, True


def gillespie_run(xi0, p: SystemParams, seed=0,
                  max_events: int = DEFAULT_MAX_EVENTS):
    """Run one realization until every particle is absorbed.

    Returns (final configuration, absorption time).  seed may be an integer
    or a numpy Generator.
    """
    occ = as_particles(xi0, p.n_sites).tolist()
    draws = _Draws(as_generator(seed, "gillespie"))
    occ, t, _ = _run(occ, p.n_sites, p.alpha, draws, None, max_events)
    return np.array(occ, dtype=np.int64), t


def run_to_time(xi0, p: SystemParams, t_horizon: float, seed=0,
                max_events: int = DEFAULT_MAX_EVENTS):
    """State of one realization at a fixed time (absorbed states persist)."""
    occ = as_particles(xi0, p.n_sites).tolist()
    draws = _Draws(as_generator(seed, "gillespie-horizon"))
    occ, t, _ = _run(occ, p.n_sites, p.alpha, draws, float(t_horizon), max_events)
    return np.array(occ, dtype=np.int64), t


def _batch_sizes(n_runs: int, n_batches: int):
    base, rem = divmod(n_runs, n_batches)
    return [base + (1 if b < rem else 0) for b in range(n_batches)]


def _run_batches(xi0, p: SystemParams, n_runs: int, seed: int, task: str,
                 t_max, max_events: int, key_fn) -> Counter:
    """Run a fixed grid of batches, each on its own stream, and count outcomes.

    Every batch draws from stream (seed, task, batch index), so results
    depend only on (seed, n_runs).
    """
    occ0 = as_particles(xi0, p.n_sites).tolist()
    n = p.n_sites
    n_batches = min(64, n_runs) or 1
    counts = Counter()
    for index, size in enumerate(_batch_sizes(n_runs, n_batches)):
        draws = _Draws(stream(seed, task, index))
        for _ in range(size):
            occ, _, _ = _run(list(occ0), n, p.alpha, draws, t_max, max_events)
            counts[key_fn(occ)] += 1
    return counts


def mc_absorption(xi0, p: SystemParams, n_runs: int, seed: int = 0,
                  max_events: int = DEFAULT_MAX_EVENTS):
    """Empirical distribution of (left count, right count) at absorption.

    Returns a dict mapping each outcome to (frequency, binomial standard
    error).
    """
    n = p.n_sites
    counts = _run_batches(xi0, p, n_runs, seed, "absorption-mc", None,
                          max_events, key_fn=lambda occ: (occ[0], occ[n + 1]))
    out = {}
    for outcome, c in sorted(counts.items()):
        f = c / n_runs
        out[outcome] = (f, math.sqrt(f * (1.0 - f) / n_runs))
    return out


def final_state_counts(xi0, p: SystemParams, n_runs: int, t_horizon: float,
                       seed: int = 0,
                       max_events: int = DEFAULT_MAX_EVENTS) -> Counter:
    """Counter of full configurations (as tuples) at a fixed horizon."""
    return _run_batches(xi0, p, n_runs, seed, "horizon-mc", float(t_horizon),
                        max_events, key_fn=lambda occ: tuple(occ))
