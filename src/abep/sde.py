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


def _step_batch(x: np.ndarray, p: SystemParams, dt: float, gauss: np.ndarray,
                model: str, ws: Workspace | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
    """One EM step of site-major chains: x is (N, R), gauss is (N+1, R).

    The new states are written into out and the coefficient parts into ws,
    a Workspace for x.shape; given both, the step allocates nothing.
    """
    n = p.n_sites
    if len(gauss) != n + 1:
        raise IndexError(f"need {n + 1} noise rows, got {len(gauss)}")
    drift, amps, v = model_parts(x, p, model, ws)
    if out is None:
        out = np.empty_like(x)
    # amps becomes the noise terms sqrt(2 a_k dt) eta_k, one row per direction
    np.maximum(amps, 0.0, out=amps)
    np.sqrt(amps, out=amps)
    np.multiply(amps, math.sqrt(2.0 * dt), out=amps)
    np.multiply(amps, gauss, out=amps)
    np.multiply(drift, dt, out=drift)
    np.add(x, drift, out=out)
    # named views, as in model_parts: out= skips the write-back of +=
    bonds, head, tail, first, last = amps[:-2], out[:-1], out[1:], out[:1], out[-1:]
    np.add(tail, bonds, out=tail)
    np.subtract(head, bonds, out=head)
    np.add(first, amps[-2:-1], out=first)
    if v is None:
        np.add(last, amps[-1:], out=last)
    else:
        np.multiply(v, amps[-1:], out=v)
        out += v
    np.maximum(out, 0.0, out=out)
    return out


def _run_chains(x0: np.ndarray, p: SystemParams, model: str, dt: float,
                n_steps: int, rng: np.random.Generator, cap: float,
                record_at=()):
    """Propagate a chain-major (R, N) batch, snapshotting at the given step
    indices; the batch is stepped site-major.

    Returns (final states, list of snapshots), both chain-major (R, N).
    Raises NumericalBlowup when any component passes the cap.
    """
    x = np.array(x0.T, dtype=float, order="C")
    k, r = x.shape[0] + 1, x.shape[1]
    targets = sorted(int(t) for t in record_at)
    ti = 0
    snaps = []
    # one workspace per ensemble, so no step allocates: the states alternate
    # between x and spare, and the noise comes in chunks, drawn (c, R, N+1)
    # whatever the layout and stepped as (N+1, R) rows; the normal stream is
    # identical for any chunking
    spare = np.empty_like(x)
    ws = Workspace(x.shape)
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
                x, spare = _step_batch(x, p, dt, gauss[j], model, ws, spare), x
                step += 1
                m = float(x.max())
                # the inverted comparison also trips on nan and inf, which a
                # plain m > cap would let through
                if not m <= cap:
                    raise NumericalBlowup(
                        f"component reached {m:.4g} (cap {cap:.4g}) "
                        f"at t = {step * dt:.6g}"
                    )
                while ti < len(targets) and targets[ti] == step:
                    snaps.append(x.T.copy())
                    ti += 1
    return x.T.copy(), snaps


def _emit_steps(cfg: SdeConfig):
    """Step indices at which states are emitted: burn_in + j * thinning."""
    n_steps = int(round(cfg.t_end / cfg.dt))
    out = []
    j = 1
    while True:
        t = cfg.burn_in + j * cfg.thinning
        if t > cfg.t_end * (1.0 + 1e-12):
            break
        idx = int(round(t / cfg.dt))
        if idx >= 1:
            out.append(min(idx, n_steps))
        j += 1
    return n_steps, out


def simulate_trajectory(x0, p: SystemParams, cfg: SdeConfig, model: str = "bep",
                        cap: float = DEFAULT_CAP):
    """Integrate one trajectory, emitting thinned states after burn-in.

    Returns a list of (time, configuration) pairs, deterministic given the
    seed in cfg.
    """
    arr = as_state(x0, p.n_sites)
    n_steps, emit = _emit_steps(cfg)
    rng = stream(cfg.seed, f"trajectory-{model}")
    _, snaps = _run_chains(arr[None, :], p, model, cfg.dt, n_steps, rng, cap,
                           record_at=emit)
    return [(idx * cfg.dt, snap[0]) for idx, snap in zip(emit, snaps)]


def stationary_estimate(p: SystemParams, cfg: SdeConfig, model: str, observable,
                        n_chains: int = 1, x0=None, cap: float = DEFAULT_CAP,
                        n_batches: int = 20):
    """Long-run mean of one or several observables with batch-means errors.

    Runs n_chains independent chains from x0 (default: the zero state),
    discards burn_in, thins, and averages.  The standard error comes from
    the spread of per-chain batch means, so it accounts for autocorrelation
    on scales below the batch length.

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
    n_steps, emit = _emit_steps(cfg)
    if not emit:
        raise ParameterError("no samples: increase t_end or reduce burn_in/thinning")
    rng = stream(cfg.seed, f"stationary-{model}")
    _, snaps = _run_chains(x_init, p, model, cfg.dt, n_steps, rng, cap,
                           record_at=emit)
    stacked = np.stack(snaps)                      # (M, R, N)
    m, r, n = stacked.shape
    flat = stacked.reshape(m * r, n)
    groups = np.array_split(np.arange(m), min(n_batches, m))
    out = []
    for f in observables:
        vals = _eval_observable(f, flat).reshape(m, r)
        batch_means = np.concatenate([vals[g].mean(axis=0) for g in groups])
        if batch_means.size > 1:
            se = float(np.std(batch_means, ddof=1) / np.sqrt(batch_means.size))
        else:
            se = 0.0
        out.append((float(vals.mean()), se))
    return out[0] if single else out


def ensemble_endpoint(x0, p: SystemParams, model: str, dt: float, t: float,
                      n_chains: int, seed, cap: float = DEFAULT_CAP) -> np.ndarray:
    """Final states of n_chains independent chains all started at x0."""
    arr = as_state(x0, p.n_sites)
    rng = as_generator(seed, f"endpoint-{model}")
    n_steps = int(round(t / dt))
    x_init = np.tile(arr, (n_chains, 1))
    final, _ = _run_chains(x_init, p, model, dt, n_steps, rng, cap)
    return final
