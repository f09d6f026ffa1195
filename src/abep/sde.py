"""Positivity-preserving Euler-Maruyama integration of the energy diffusions.

One step reads

    x' = x + b(x) dt + sum_k sqrt(2 a_k(x) dt) eta_k v_k,

followed by a componentwise clamp at zero, with (b, a_k, v_k) the drift and
rank-one diffusion factors from :mod:`abep.generators` and eta_k independent
increments, one per noise direction (ordered bonds, left, right).
The square root of the amplitudes needs no clamp: every state a step
reads is finite (the cap check stops a run at nan or inf) and >= 0 (the
clamp), so every amplitude is a product of non-negative factors: x_i x_{i+1}
and T x for 'bep'; T, e^{s E}, 1 - e^{-s x} and e^{s x} - 1 over powers of
s for 'abep'.

The increments depend on the route: simulate_trajectory, whose output is
the path, draws standard Gaussians; ensemble_endpoint and
stationary_estimate, whose outputs are expectations, draw fair signs +-1,
the simplified weak Euler scheme (Kloeden and Platen 1992, section 14.1),
which keeps weak order 1 and costs one random bit per increment.

Chains are propagated in vectorized batches held site-major: R chains step
as one (N, R) C-contiguous array, one site per row, so every coefficient is
a whole-row operation.  States enter and leave the kernel chain-major,
(R, N).  All randomness flows through a single generator per call, so
results are reproducible bit for bit given (seed, chain count).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (SystemParams, _count, _eval_observable, _mean_se, _observables,
                   as_state)
from .errors import NumericalBlowup, ParameterError
from .generators import Workspace, model_parts
from .rng import as_generator, stream

CAP = 1e6         # a component past it is a blow-up; read at each call
_ZERO = np.zeros(())                # the clamps' 0.0, bound as in Workspace
# batch means per chain in the standard error of stationary_estimate
N_BATCHES = 20


def whole_steps(t: float, dt: float, name: str = "t") -> int:
    """The number of steps dt that reach time t.

    ParameterError unless dt > 0 and t is 0 or a whole number of steps
    (within 1e-9 relative): rounding t / dt would move t without a word,
    and a positive t below half a step would take none.
    """
    if not (dt > 0 and t >= 0):
        raise ParameterError(f"need dt > 0 and {name} >= 0, got dt={dt}, {name}={t}")
    steps = t / dt
    if t > 0 and not (0.5 <= steps < math.inf
                      and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ParameterError(
            f"{name} must be a whole number of steps dt, got "
            f"{name} / dt = {steps:.12g}")
    return round(steps)


@dataclass(frozen=True)
class SdeConfig:
    """Time stepping and sampling plan for one simulation; ParameterError
    unless dt < thinning and steps(), which takes every time as a whole
    number of steps dt > 0, emits at least one state."""

    dt: float
    t_end: float
    thinning: float
    burn_in: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.dt < self.thinning):
            raise ParameterError(
                f"need dt < thinning, got dt={self.dt}, thinning={self.thinning}")
        if not self.steps()[1]:
            raise ParameterError(
                f"no state to emit: need burn_in + thinning <= t_end, got "
                f"burn_in={self.burn_in}, thinning={self.thinning}, t_end={self.t_end}")

    def steps(self) -> tuple[int, range]:
        """The step count to t_end and the emitted steps: burn_in + j * thinning
        for j >= 1, up to and including t_end, all in whole steps dt."""
        n_steps = whole_steps(self.t_end, self.dt, "t_end")
        every = whole_steps(self.thinning, self.dt, "thinning")
        start = whole_steps(self.burn_in, self.dt, "burn_in") + every
        return n_steps, range(start, n_steps + 1, every)


def _step_batch(ws: Workspace, dt: np.ndarray, noise_scale: np.ndarray,
                gauss: np.ndarray) -> np.ndarray:
    """One EM step of the site-major chains ws.x, (N, R); gauss is (N+1, R).

    dt and noise_scale = sqrt(2 dt) are 0-d float64 arrays.  The step
    overwrites ws.x with the new states and ws with the coefficient parts,
    and allocates nothing: every read of x comes before the first write to
    it.  Returns ws.x.
    """
    x = ws.x
    if len(gauss) != len(x) + 1:
        raise IndexError(f"need {len(x) + 1} noise rows, got {len(gauss)}")
    drift, amps, v = model_parts(ws)
    # amps becomes the noise terms sqrt(2 a_k dt) eta_k, one row per direction
    np.sqrt(amps, amps)
    np.multiply(amps, noise_scale, amps)
    np.multiply(amps, gauss, amps)
    np.multiply(drift, dt, drift)
    np.add(x, drift, x)
    bonds, head, tail = ws.bonds, ws.x_head, ws.x_tail
    first, last = ws.x_first, ws.x_last
    np.add(tail, bonds, tail)
    np.subtract(head, bonds, head)
    np.add(first, ws.left, first)
    if v is None:
        np.add(last, ws.right, last)
    else:
        np.multiply(v, ws.right, v)
        x += v
    # (np.maximum takes out= by keyword: numpy 2.4 deprecates a positional one)
    np.maximum(x, _ZERO, out=x)
    return x


def _sign_noise(rng: np.random.Generator):
    """The signs of the simplified weak Euler scheme as a draw function:
    draw(out) fills out with the next out.size signs of the stream.

    The stream is the bits of rng's raw 64-bit words, each read little-endian
    from bit 0, with bit 1 as +1.0 and bit 0 as -1.0.  The bits a draw leaves
    over start the next one, so the signs depend neither on how the draws
    are cut nor on the host byte order.
    """
    left = np.empty(0, np.uint8)

    def draw(out: np.ndarray):
        nonlocal left
        words = rng.bit_generator.random_raw(-(-(out.size - len(left)) // 64))
        bits = np.concatenate((left, np.unpackbits(
            words.astype("<u8", copy=False).view(np.uint8), bitorder="little")))
        left = bits[out.size:]
        np.multiply(bits[:out.size].reshape(out.shape), 2.0, out=out)
        np.subtract(out, 1.0, out=out)

    return draw


def _run_chains(start: np.ndarray, n_chains: int, p: SystemParams, model: str,
                dt: float, n_steps: int, draw, emit: range = range(0)):
    """Propagate n_chains chains all started at the state start, (N,); the
    batch is stepped site-major.

    draw(out) fills out, a (c, N+1, R) float array, with the noise of the
    next c steps; step j reads out[j] as its (N+1, R) rows.
    Returns the final states, chain-major (R, N), and the snapshots, one
    (len(emit), R, N) array whose row i holds the states after step emit[i].
    ParameterError, before any step, unless n_chains is a whole number >= 1,
    model is 'bep' or 'abep', and every component of start is below CAP;
    NumericalBlowup when any component passes CAP.
    """
    r = _count(n_chains, "n_chains")
    cap = CAP
    if not (start < cap).all():
        raise ParameterError(f"start state must be below the cap {cap:.4g}, "
                             f"got {start.max():.4g}")
    x = np.repeat(start[:, None], r, axis=1)
    # one workspace per ensemble, bound to x, so no step allocates: x is
    # stepped in place, and the noise comes in chunks of whole steps, the
    # same stream however the chunks fall
    ws = Workspace(x, p, model)
    dt_c, noise_scale = np.array(dt, float), np.array(math.sqrt(2.0 * dt))
    k = len(start) + 1                      # noise rows
    snaps = np.empty((len(emit), r, k - 1))
    chunk = max(1, min(4096, 65536 // (r * k)))
    noise = np.empty((chunk, k, r))
    step = 0
    # a diverging chain overflows inside the coefficient evaluation before
    # the cap trips; the guard below turns the resulting inf/nan into a
    # structured error, so the warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            c = min(chunk, n_steps - step)
            draw(noise[:c])
            for j in range(c):
                _step_batch(ws, dt_c, noise_scale, noise[j])
                step += 1
                m = np.maximum.reduce(x, None)
                # the inverted comparison also trips on nan and inf, which a
                # plain m > cap would let through
                if not m <= cap:
                    raise NumericalBlowup(
                        f"component reached {m:.4g} (cap {cap:.4g}) "
                        f"at t = {step * dt:.6g}"
                    )
                if step in emit:
                    snaps[emit.index(step)] = x.T
    return x.T.copy(), snaps


def simulate_trajectory(x0, p: SystemParams, cfg: SdeConfig, model: str = "bep"):
    """Integrate one trajectory with Gaussian increments, emitting thinned
    states after burn-in.

    Returns a list of (time, configuration) pairs, one per step of
    cfg.steps(): burn_in + j * thinning for j >= 1, in whole steps dt, up to
    and including t_end.  Deterministic given the seed in cfg.
    """
    arr = as_state(x0, p.n_sites)
    n_steps, emit = cfg.steps()
    rng = stream(cfg.seed, f"trajectory-{model}")
    # one chain: the (c, N+1, 1) noise block is c steps of N+1 normals
    _, snaps = _run_chains(arr, 1, p, model, cfg.dt, n_steps,
                           lambda out: rng.standard_normal(out.shape, out=out),
                           emit)
    return [(idx * cfg.dt, snap[0]) for idx, snap in zip(emit, snaps)]


def stationary_estimate(p: SystemParams, cfg: SdeConfig, model: str, observables,
                        n_chains: int = 1) -> list:
    """Long-run means of observables with batch-means errors.

    Runs n_chains independent chains from the zero state, stepped with sign
    noise (the simplified weak Euler scheme), and averages the states of
    every chain at the steps simulate_trajectory emits, len(cfg.steps()[1])
    samples per chain.  The standard error comes from the spread of
    per-chain batch means, N_BATCHES per chain or one per sample if fewer,
    so it accounts for autocorrelation on scales below the batch length.  ParameterError unless observables is a non-empty list or
    tuple of callables, n_chains is a whole number >= 1 and there are at
    least two batch means.

    An observable takes a batch: it is called once with an (M, N) array of
    states and must return M values.  Every observable is evaluated on the
    same simulated ensemble, and the result is a list of (mean, se) pairs,
    each bit-identical to a call with that observable alone.
    """
    observables = _observables(observables)
    n_steps, emit = cfg.steps()
    n_means = min(N_BATCHES, len(emit)) * _count(n_chains, "n_chains")
    if n_means < 2:
        # one batch mean has no spread, so its standard error would read 0
        raise ParameterError(
            f"need two batch means for a standard error, got {n_means}: "
            "increase t_end or n_chains, or reduce burn_in or thinning")
    rng = stream(cfg.seed, f"stationary-{model}")
    _, snaps = _run_chains(np.zeros(p.n_sites), n_chains, p, model, cfg.dt, n_steps,
                           _sign_noise(rng), emit)
    m, r, n = snaps.shape
    flat = snaps.reshape(m * r, n)
    groups = np.array_split(np.arange(m), min(N_BATCHES, m))
    out = []
    for f in observables:
        vals = _eval_observable(f, flat).reshape(m, r)
        batch_means = np.concatenate([vals[g].mean(axis=0) for g in groups])
        out.append((float(vals.mean()), _mean_se(batch_means)[1]))
    return out


def ensemble_endpoint(x0, p: SystemParams, model: str, dt: float, t: float,
                      n_chains: int, seed) -> np.ndarray:
    """Final states of n_chains independent chains all started at x0,
    stepped with sign noise (the simplified weak Euler scheme): samples of
    a law whose expectations approximate the diffusion's to weak order 1.

    ParameterError unless t is 0 or a whole number of steps dt, n_chains is
    a whole number >= 1 and model is 'bep' or 'abep', also at t = 0.
    """
    arr = as_state(x0, p.n_sites)
    n_steps = whole_steps(t, dt)
    rng = as_generator(seed, f"endpoint-{model}")
    final, _ = _run_chains(arr, n_chains, p, model, dt, n_steps, _sign_noise(rng))
    return final
