"""Call-site tracing for the benchmark's traced runs.

Wrappers are installed from here, around the names each caller looks up in
its own module namespace (``abep.sde.model_parts`` is what ``abep.sde``
calls, ``abep.duality.ensemble_endpoint`` what ``abep.duality`` calls), and
removed again afterwards; the package itself is not modified.

Two kinds of wrapper exist.  A *span* records name, start, end, parent and
a few arguments, and is kept in memory until the run writes it out.  A
*leaf* wraps a call made thousands of times per operation (one coefficient
evaluation per Euler-Maruyama step, one block of normal draws): it adds its
count and duration to per-layer totals and to the enclosing span's covered
time, but stores no record, which keeps memory and overhead flat.  A span's
self time is its duration minus the time its child spans and leaves cover.

Spans exist only on the main thread.  Calls on worker threads (the particle
system's batch pool) reach the totals under a lock and nothing else.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

clock = time.perf_counter


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "covered", "attrs")

    def __init__(self, sid, parent, name, start, attrs):
        self.id = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.covered = 0.0
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered

    def as_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end,
                "self_s": self.self_time, "attrs": self.attrs}


class Tracer:
    """Spans and leaf totals for one traced run, grouped into rounds."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.totals = defaultdict(float)
        self.lock = threading.Lock()
        self.main = threading.get_ident()
        self.rounds = 0
        self.round_state: dict = {}

    def start_round(self):
        """Forget per-round state: which solves are cold, which ensembles seen."""
        self.rounds += 1
        self.round_state = {"solve_keys": set(), "ensembles": set()}

    def open(self, name, attrs=None) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), parent, name, clock(), attrs or {})
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span):
        span.end = clock()
        self.stack.pop()
        if self.stack:
            self.stack[-1].covered += span.duration

    def add(self, name, seconds, count):
        with self.lock:
            self.totals[name + "_s"] += seconds
            self.totals[name + "_n"] += count

    def leaf(self, name, seconds, count):
        self.add(name, seconds, count)
        if threading.get_ident() == self.main and self.stack:
            self.stack[-1].covered += seconds

    def on_main(self) -> bool:
        return threading.get_ident() == self.main


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def span_wrapper(tracer: Tracer, name, fn, attrs=None, after=None):
    """Record a span around fn; attrs(arguments) and after(arguments, result)
    return extra fields for the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on_main():
            return fn(*args, **kwargs)
        arguments = _bind(fn, args, kwargs) if (attrs or after) else None
        span = tracer.open(name, attrs(arguments) if attrs else None)
        try:
            result = fn(*args, **kwargs)
            if after:
                span.attrs.update(after(arguments, result))
            return result
        finally:
            tracer.close(span)

    return wrapper


def leaf_wrapper(tracer: Tracer, name, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, clock() - t0, count(*args, **kwargs) if count else 1)

    return wrapper


def _size_count(size=None, *args, **kwargs) -> int:
    if size is None:
        return 1
    return int(np.prod(size))


class TimedGenerator:
    """numpy Generator proxy that times normal and uniform draws."""

    def __init__(self, gen: np.random.Generator, tracer: Tracer):
        self._gen = gen
        self.standard_normal = leaf_wrapper(tracer, "rng.normal", gen.standard_normal,
                                            _size_count)
        self.random = leaf_wrapper(tracer, "rng.uniform", gen.random, _size_count)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _timed_stream(tracer, fn):
    @functools.wraps(fn)
    def wrapper(seed, *args, **kwargs):
        if isinstance(seed, TimedGenerator):
            seed = seed._gen
        return TimedGenerator(fn(seed, *args, **kwargs), tracer)

    return wrapper


def _emit_count(cfg) -> int:
    """Number of snapshots simulate/stationary runs store (burn_in + j thinning)."""
    count = 0
    j = 1
    while cfg.burn_in + j * cfg.thinning <= cfg.t_end * (1.0 + 1e-12):
        count += 1
        j += 1
    return count


def _seed_key(seed):
    if isinstance(seed, TimedGenerator):
        seed = seed._gen
    if isinstance(seed, np.random.Generator):
        return repr(seed.bit_generator.state)
    return repr(seed)


def _sde_attrs(tracer, kind):
    """Chain-steps, stored snapshot bytes and ensemble identity of an sde call."""

    def attrs(a):
        p = a["p"]
        if kind == "endpoint":
            steps = int(round(a["t"] / a["dt"]))
            chains = int(a["n_chains"])
            snaps = 0
            key = (np.asarray(a["x0"], float).tobytes(), p, a["model"], a["dt"],
                   a["t"], chains, _seed_key(a["seed"]))
        else:
            cfg = a["cfg"]
            steps = int(round(cfg.t_end / cfg.dt))
            chains = int(a.get("n_chains", 1))
            snaps = _emit_count(cfg)
            x0 = a.get("x0")
            key = (None if x0 is None else np.asarray(x0, float).tobytes(),
                   p, cfg, a["model"], chains)
        seen = tracer.round_state["ensembles"]
        repeat = key in seen
        seen.add(key)
        return {"chain_steps": steps * chains, "repeat": repeat,
                "snapshot_bytes": snaps * chains * p.n_sites * 8}

    return attrs


def _arg_getter(fn, name):
    """Fast accessor for one argument of fn: by keyword, position or default."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if pos < len(args) else default

    return get


def _solve_count(tracer):
    """Leaf counter for absorption solves that also times cold ones.

    The first solve of a (N, alpha, edge) system in a round is the cold one;
    the package caches the rest.
    """

    def wrap(fn):
        get_p, get_edge = _arg_getter(fn, "p"), _arg_getter(fn, "edge")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            p = get_p(args, kwargs)
            key = (p.n_sites, float(p.alpha), get_edge(args, kwargs))
            cold = key not in tracer.round_state["solve_keys"]
            tracer.round_state["solve_keys"].add(key)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.leaf("absorption.solve", dt, 1)
                if cold:
                    tracer.add("absorption.cold_solve", dt, 1)

        return wrapper

    return wrap


def _sampler_after(arguments, result):
    out = {"samples": int(arguments["n_samples"])}
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[1], dict):
        out.update(proposed=result[1]["proposed"], accepted=result[1]["accepted"])
    return out


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    import abep.cli
    import abep.duality
    import abep.generators
    import abep.moments
    import abep.sde
    import abep.sip

    span = functools.partial(span_wrapper, tracer)
    leaf = functools.partial(leaf_wrapper, tracer)
    solve = _solve_count(tracer)

    def runs(arguments):
        return {"runs": int(arguments["n_runs"])}

    def sde(name, kind):
        return lambda f: span(f"sde.{name}", f, attrs=_sde_attrs(tracer, kind))

    def timed_stream(f):
        return _timed_stream(tracer, f)

    def sampler(f):
        return span("moments.reversible_sampler", f, after=_sampler_after)

    def dual_eval(f):
        return span("duality.dual_eval", f)

    plan = {
        abep.cli: {
            "run": lambda f: span("cli.run", f),
            "simulate_trajectory": sde("simulate_trajectory", "cfg"),
            "stationary_estimate": sde("stationary_estimate", "cfg"),
            "intertwining_residual": lambda f: span("generators.intertwining_residual", f),
            "semigroup_duality_check": lambda f: span("duality.semigroup_duality_check", f),
            "single_absorption_solve": solve,
            "two_particle_solve": solve,
            "two_point_report": lambda f: span("moments.two_point_report", f),
            "one_point_routes": lambda f: span("moments.one_point_routes", f),
            "reversible_sampler": sampler,
        },
        abep.sde: {
            "model_parts": lambda f: leaf("generators.parts", f),
            "stream": timed_stream,
            "as_generator": timed_stream,
        },
        abep.duality: {
            "ensemble_endpoint": sde("ensemble_endpoint", "endpoint"),
            "final_state_counts": lambda f: span("sip.final_state_counts", f, attrs=runs),
            "map_g": lambda f: leaf("core.map_g", f),
            "classical_D": dual_eval,
            "orthogonal_D": dual_eval,
            "classical_D_sigma": dual_eval,
            "orthogonal_D_sigma": dual_eval,
        },
        abep.generators: {"map_g": lambda f: leaf("core.map_g", f)},
        abep.sip: {
            "stream": timed_stream,
            "as_generator": timed_stream,
            "mc_absorption": lambda f: span("sip.mc_absorption", f, attrs=runs),
        },
        abep.moments: {
            "single_absorption_solve": solve,
            "two_particle_solve": solve,
            "reversible_sampler": sampler,
        },
    }
    saved = []
    try:
        for module, names in plan.items():
            for name, make in names.items():
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, make(original))
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def _ratio(num, den) -> float:
    return num / den if den > 0 else 0.0


def layer_self_times(tracer: Tracer) -> dict:
    """Self time per layer (span or leaf name up to the first dot), per round.

    Leaf time counts whole; draws on worker threads overlap the main
    thread's particle-system span, so the layers can sum to more than the
    round.
    """
    out = defaultdict(float)
    for s in tracer.spans:
        out[s.name.split(".")[0]] += s.self_time
    for key, value in tracer.totals.items():
        if key.endswith("_s") and key != "absorption.cold_solve_s":
            out[key.split(".")[0]] += value
    return {k: v / max(tracer.rounds, 1) for k, v in sorted(out.items())}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics, per round, from the recorded spans and leaf totals."""
    rounds = max(tracer.rounds, 1)
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)
    names = {s.id: s.name for s in tracer.spans}
    tot = tracer.totals

    def total(name, field="duration"):
        return sum(getattr(s, field) for s in by_name[name])

    def attr_sum(prefix, key, where=lambda s: True):
        return sum(s.attrs.get(key, 0) for n, spans in by_name.items()
                   if n.startswith(prefix) for s in spans if where(s))

    sde_spans = [s for n, spans in by_name.items() if n.startswith("sde.") for s in spans]
    sde_s = sum(s.duration for s in sde_spans)
    chain_steps = attr_sum("sde.", "chain_steps")
    useful_steps = attr_sum("sde.", "chain_steps", lambda s: not s.attrs.get("repeat"))
    dual_eval_s = sum(s.duration for s in by_name["duality.dual_eval"]
                      if names.get(s.parent) != "duality.dual_eval")
    samplers = by_name["moments.reversible_sampler"]
    residuals = by_name["generators.intertwining_residual"]
    per_round = {
        "cli.self_s": total("cli.run", "self_time"),
        "sde.chain_steps": chain_steps,
        "sde.self_s": sum(s.self_time for s in sde_spans),
        "generators.parts_calls": tot["generators.parts_n"],
        "generators.parts_s": tot["generators.parts_s"],
        "generators.residual_calls": len(residuals),
        "rng.normals": tot["rng.normal_n"],
        "rng.normal_s": tot["rng.normal_s"],
        "rng.uniforms": tot["rng.uniform_n"],
        "rng.uniform_s": tot["rng.uniform_s"],
        "core.map_g_calls": tot["core.map_g_n"],
        "core.map_g_s": tot["core.map_g_s"],
        "duality.self_s": total("duality.semigroup_duality_check", "self_time"),
        "duality.dual_eval_s": dual_eval_s,
        "absorption.solve_calls": tot["absorption.solve_n"],
        "absorption.cold_solve_s": tot["absorption.cold_solve_s"],
        "absorption.solve_s": tot["absorption.solve_s"],
        "moments.two_point_s": total("moments.two_point_report"),
    }
    out = {k: v / rounds for k, v in per_round.items()}
    out.update({
        "sde.ns_per_chain_step": 1e9 * _ratio(sde_s, chain_steps),
        "sde.useful_ratio": _ratio(useful_steps, chain_steps),
        "sde.snapshot_mb": max((s.attrs.get("snapshot_bytes", 0) for s in sde_spans),
                               default=0) / 1e6,
        "generators.parts_share": _ratio(tot["generators.parts_s"], sde_s),
        "generators.us_per_residual": 1e6 * _ratio(sum(s.duration for s in residuals),
                                                   len(residuals)),
        "sip.absorb_runs_per_s": _ratio(attr_sum("sip.mc_absorption", "runs"),
                                        total("sip.mc_absorption")),
        "sip.horizon_runs_per_s": _ratio(attr_sum("sip.final_state_counts", "runs"),
                                         total("sip.final_state_counts")),
        "moments.samples_per_s": _ratio(sum(s.attrs.get("samples", 0) for s in samplers),
                                        sum(s.duration for s in samplers)),
        "moments.acceptance": _ratio(sum(s.attrs.get("accepted", 0) for s in samplers),
                                     sum(s.attrs.get("proposed", 0) for s in samplers)),
    })
    return out
