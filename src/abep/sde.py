"""Positivity-preserving Euler-Maruyama integration of the energy diffusions.

One step reads

    x' = x + b(x) dt + sum_k sqrt(2 a_k(x) dt) eta_k v_k,

followed by a componentwise clamp at zero, with (b, a_k, v_k) the drift and
rank-one diffusion factors from :mod:`abep.generators` and eta independent
standard Gaussians (one per noise direction, ordered bonds, left, right).
Amplitudes are clamped at zero before the square root since round-off can
push them slightly negative at the boundary of the state space.

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

from .core import SystemParams, _eval_observable, _observables, as_state
from .errors import NumericalBlowup, ParameterError
from .generators import Workspace, model_parts
from .rng import as_generator, stream

DEFAULT_CAP = 1e6
_ZERO = np.zeros(())                # the clamps' 0.0, bound as in Workspace.bind
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
    """Time stepping and sampling plan for one simulation."""

    dt: float
    t_end: float
    thinning: float
    burn_in: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (self.dt > 0):
            raise ParameterError(f"dt must be > 0, got {self.dt}")
        if not (self.t_end > 0):
            raise ParameterError(f"t_end must be > 0, got {self.t_end}")
        if not (self.dt < self.thinning <= self.t_end):
            raise ParameterError(
                f"need dt < thinning <= t_end, got dt={self.dt}, "
                f"thinning={self.thinning}, t_end={self.t_end}"
            )
        if not (0 <= self.burn_in <= self.t_end):
            raise ParameterError(
                f"burn_in must lie in [0, t_end], got {self.burn_in}"
            )
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


def _step_batch(x: np.ndarray, p: SystemParams, dt: float, gauss: np.ndarray,
                model: str, ws: Workspace | None = None) -> np.ndarray:
    """One EM step of site-major chains: x is (N, R), gauss is (N+1, R).

    Given ws, a Workspace bound to x, the step overwrites x with the new
    states and ws with the coefficient parts, and allocates nothing: every
    read of x comes before the first write to it.  Without ws it steps a
    copy of x.  Returns the stepped array.
    """
    n = p.n_sites
    if len(gauss) != n + 1:
        raise IndexError(f"need {n + 1} noise rows, got {len(gauss)}")
    if ws is None:
        x = np.array(x, dtype=float)
        ws = Workspace(x, model)
    if ws.dt is not dt:             # step constants, bound as in Workspace.bind
        ws.dt, ws.dt_c = dt, np.array(dt, dtype=float)
        ws.noise_scale = np.array(math.sqrt(2.0 * dt))
    drift, amps, v = model_parts(x, p, model, ws)
    # amps becomes the noise terms sqrt(2 a_k dt) eta_k, one row per direction
    # (np.maximum takes out= by keyword: numpy 2.4 deprecates a positional one)
    np.maximum(amps, _ZERO, out=amps)
    np.sqrt(amps, amps)
    np.multiply(amps, ws.noise_scale, amps)
    np.multiply(amps, gauss, amps)
    np.multiply(drift, ws.dt_c, drift)
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
    np.maximum(x, _ZERO, out=x)
    return x


def _run_chains(x0: np.ndarray, p: SystemParams, model: str, dt: float,
                n_steps: int, rng: np.random.Generator, cap: float,
                emit: range = range(0)):
    """Propagate a chain-major (R, N) batch; the batch is stepped site-major.

    Returns the final states, chain-major (R, N), and the snapshots, one
    (len(emit), R, N) array whose row i holds the states after step emit[i].
    ParameterError, before any step, unless cap is greater than every
    component of x0 (a nan cap is not); NumericalBlowup when any component
    passes the cap.
    """
    x = np.array(x0.T, dtype=float, order="C")
    if not (x < cap).all():
        raise ParameterError(
            f"cap must be greater than every component of the start state, got {cap}")
    k, r = x.shape[0] + 1, x.shape[1]
    snaps = np.empty((len(emit), *x0.shape))
    # one workspace per ensemble, bound to x, so no step allocates: x is
    # stepped in place, and the noise comes in chunks, drawn (c, R, N+1)
    # whatever the layout and stepped as (N+1, R) rows; the normal stream is
    # identical for any chunking
    ws = Workspace(x, model)
    chunk = max(1, min(4096, 65536 // max(1, r * k)))
    draws = np.empty((chunk, r, k))
    gauss = np.empty((chunk, k, r))
    step = 0
    # a diverging chain overflows inside the coefficient evaluation before
    # the cap trips; the guard below turns the resulting inf/nan into a
    # structured error, so the warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        while step < n_steps:
            c = min(chunk, n_steps - step)
            rng.standard_normal(size=(c, r, k), out=draws[:c])
            np.copyto(gauss[:c], draws[:c].transpose(0, 2, 1))
            for j in range(c):
                _step_batch(x, p, dt, gauss[j], model, ws)
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


def simulate_trajectory(x0, p: SystemParams, cfg: SdeConfig, model: str = "bep",
                        cap: float = DEFAULT_CAP):
    """Integrate one trajectory, emitting thinned states after burn-in.

    Returns a list of (time, configuration) pairs, one per step of
    cfg.steps(): burn_in + j * thinning for j >= 1, in whole steps dt, up to
    and including t_end.  Deterministic given the seed in cfg.
    """
    arr = as_state(x0, p.n_sites)
    n_steps, emit = cfg.steps()
    rng = stream(cfg.seed, f"trajectory-{model}")
    _, snaps = _run_chains(arr[None, :], p, model, cfg.dt, n_steps, rng, cap, emit)
    return [(idx * cfg.dt, snap[0]) for idx, snap in zip(emit, snaps)]


def stationary_estimate(p: SystemParams, cfg: SdeConfig, model: str, observable,
                        n_chains: int = 1, x0=None, cap: float = DEFAULT_CAP):
    """Long-run mean of one or several observables with batch-means errors.

    Runs n_chains independent chains from x0 (default: the zero state) and
    averages the states of every chain at the steps simulate_trajectory
    emits: len(cfg.steps()[1]) * n_chains samples.  The standard error comes
    from the spread of per-chain batch means, N_BATCHES per chain or one per
    sample if fewer, so it accounts for autocorrelation on scales below the
    batch length.  ParameterError unless there are at least two batch means.

    An observable takes a batch: it is called once with an (M, N) array of
    states and must return M values.  Given one callable the result is one
    (mean, se) pair; given a sequence of callables, every one is evaluated
    on the same simulated ensemble and the result is a list of (mean, se)
    pairs, each bit-identical to a single-observable call with the same
    arguments.
    """
    single, observables = _observables(observable)
    if n_chains < 1:
        raise ParameterError("n_chains must be >= 1")
    start = np.zeros(p.n_sites) if x0 is None else as_state(x0, p.n_sites)
    x_init = np.tile(start, (n_chains, 1))
    n_steps, emit = cfg.steps()
    n_means = min(N_BATCHES, len(emit)) * n_chains
    if n_means < 2:
        # one batch mean has no spread, so its standard error would read 0
        raise ParameterError(
            f"need two batch means for a standard error, got {n_means}: "
            "increase t_end or n_chains, or reduce burn_in or thinning")
    rng = stream(cfg.seed, f"stationary-{model}")
    _, snaps = _run_chains(x_init, p, model, cfg.dt, n_steps, rng, cap, emit)
    m, r, n = snaps.shape
    flat = snaps.reshape(m * r, n)
    groups = np.array_split(np.arange(m), min(N_BATCHES, m))
    out = []
    for f in observables:
        vals = _eval_observable(f, flat).reshape(m, r)
        batch_means = np.concatenate([vals[g].mean(axis=0) for g in groups])
        se = float(np.std(batch_means, ddof=1) / np.sqrt(batch_means.size))
        out.append((float(vals.mean()), se))
    return out[0] if single else out


def ensemble_endpoint(x0, p: SystemParams, model: str, dt: float, t: float,
                      n_chains: int, seed, cap: float = DEFAULT_CAP) -> np.ndarray:
    """Final states of n_chains independent chains all started at x0.

    ParameterError unless t is 0 or a whole number of steps dt.
    """
    arr = as_state(x0, p.n_sites)
    n_steps = whole_steps(t, dt)
    rng = as_generator(seed, f"endpoint-{model}")
    x_init = np.tile(arr, (n_chains, 1))
    final, _ = _run_chains(x_init, p, model, dt, n_steps, rng, cap)
    return final
