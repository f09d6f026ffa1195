"""Command-line driver: subcommands, key=value config files, CSV output.

Each subcommand prints one CSV table to stdout (or --out).  Column orders
are fixed and documented in the README.  Floats are printed with 17
significant digits so identical command lines with identical seeds give
identical bytes; the only varying line is a leading timestamp comment,
suppressed by --no-header.

A config file holds one key=value pair per line ('#' starts a comment);
keys mirror the long flag names of the chosen subcommand and explicit
flags win over file values.  With --check the process exits 1 when the
subcommand's consistency test fails, 0 when it passes, 2 on usage or
runtime errors.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .absorption import (single_absorption_solve, single_right_closed,
                         two_particle_closed_form, two_particle_solve)
from .core import SystemParams
from .duality import semigroup_duality_check
from .errors import ConfigError, NumericalBlowup, ToolkitError
from .generators import intertwining_residual
from .moments import (one_point_routes, reversible_mass, reversible_moment,
                      reversible_sampler, two_point_report)
from .rng import stream
from .sde import DEFAULT_CAP, SdeConfig, simulate_trajectory, stationary_estimate


def _common_flags(sub, with_check=True):
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write the CSV here instead of stdout")
    sub.add_argument("--no-header", action="store_true",
                     help="omit the timestamp comment line")
    sub.add_argument("--config", default=None, metavar="PATH",
                     help="key=value file; explicit flags win")
    sub.add_argument("--seed", type=int, default=0)
    if with_check:
        sub.add_argument("--check", action="store_true",
                         help="exit 1 when the consistency test fails")


def _system_flags(sub, sigma_default=0.0):
    sub.add_argument("--n", type=int, required=True, help="number of sites")
    sub.add_argument("--sigma", type=float, default=sigma_default)
    sub.add_argument("--alpha", type=float, default=1.0)
    sub.add_argument("--tl", type=float, default=1.0,
                     help="left reservoir temperature")
    sub.add_argument("--tr", type=float, default=1.0,
                     help="right reservoir temperature")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="abep",
        description="Simulation and verification toolkit for asymmetric "
                    "energy diffusions and their dual particle systems.")
    subs = ap.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("simulate", help="integrate one diffusion path")
    _system_flags(sp)
    sp.add_argument("--model", choices=("bep", "abep"), default="bep")
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--t-end", type=float, default=1.0)
    sp.add_argument("--thinning", type=float, default=None,
                    help="snapshot spacing (default t_end/100)")
    sp.add_argument("--burn-in", type=float, default=0.0)
    sp.add_argument("--x0", default=None,
                    help="comma-separated start state (default zeros)")
    sp.add_argument("--cap", type=float, default=DEFAULT_CAP)
    _common_flags(sp, with_check=False)

    sp = subs.add_parser("verify-duality",
                         help="two-sided Monte Carlo duality estimate")
    _system_flags(sp)
    sp.add_argument("--model", choices=("bep", "abep"), default="bep")
    sp.add_argument("--dual", choices=("classical", "orthogonal"),
                    default="classical")
    sp.add_argument("--t", type=float, default=0.5, help="time horizon")
    sp.add_argument("--runs", type=int, default=10_000)
    sp.add_argument("--dt", type=float, default=1e-3)
    sp.add_argument("--t-orth", type=float, default=None,
                    help="reference temperature for the orthogonal family")
    sp.add_argument("--x0", default=None,
                    help="diffusion start (default all 0.5)")
    sp.add_argument("--xi0", default=None,
                    help="dual occupations (default one particle at site 1)")
    sp.add_argument("--z-max", type=float, default=3.0)
    sp.add_argument("--cap", type=float, default=DEFAULT_CAP)
    _common_flags(sp)

    sp = subs.add_parser("verify-intertwining",
                         help="generator conjugation residuals on random states")
    _system_flags(sp, sigma_default=0.1)
    sp.add_argument("--states", type=int, default=100)
    sp.add_argument("--funcs", type=int, default=5,
                    help="random polynomial test functions per state")
    sp.add_argument("--degree", type=int, default=3)
    sp.add_argument("--fd-step", type=float, default=1e-4)
    sp.add_argument("--tol", type=float, default=1e-4)
    _common_flags(sp)

    sp = subs.add_parser("absorption",
                         help="exact dual-walker exit probabilities")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--edge", choices=("walk", "unit"), default="unit",
                    help="boundary bookkeeping of the dual walkers: unit "
                         "(the simulated model) or walk (the only one with a "
                         "pair closed form)")
    sp.add_argument("--tol", type=float, default=1e-10)
    _common_flags(sp)

    sp = subs.add_parser("moments", help="stationary moment cross-validation")
    _system_flags(sp, sigma_default=0.1)
    sp.add_argument("--two-point", action="store_true",
                    help="emit the two-point assembly/closed-form report "
                         "(walk bookkeeping)")
    sp.add_argument("--no-mc", action="store_true",
                    help="skip the Monte Carlo columns")
    sp.add_argument("--mc-dt", type=float, default=1e-3)
    sp.add_argument("--mc-t-end", type=float, default=40.0)
    sp.add_argument("--mc-burn-in", type=float, default=10.0)
    sp.add_argument("--mc-thinning", type=float, default=0.05)
    sp.add_argument("--mc-chains", type=int, default=8)
    sp.add_argument("--cap", type=float, default=DEFAULT_CAP)
    sp.add_argument("--tol", type=float, default=1e-12)
    _common_flags(sp)

    sp = subs.add_parser("reversible-check",
                         help="equal-temperature sampler vs its truncated law")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--sigma", type=float, default=0.1)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--t", type=float, default=1.0, help="common temperature")
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--z-max", type=float, default=3.0)
    _common_flags(sp)

    # per subcommand: each flag, and whether it takes no value (store_true)
    known = {}
    for name, sub in subs.choices.items():
        known[name] = {s: act.nargs == 0
                       for act in sub._actions for s in act.option_strings}
    return ap, known


def _read_config(path, sub, valid):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(
                f"{path}:{lineno}: empty key or value in {line!r}")
        key = key.replace("_", "-")
        if f"--{key}" not in valid:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} for subcommand {sub!r}")
        if valid[f"--{key}"]:
            low = value.lower()
            if low in ("1", "true", "yes", "on"):
                tokens.append(f"--{key}")
            elif low in ("0", "false", "no", "off"):
                pass
            else:
                raise ConfigError(
                    f"{path}:{lineno}: boolean key {key!r} got {value!r}")
        else:
            tokens.extend([f"--{key}", value])
    return tokens


def _expand_config(argv, known):
    """Inject config-file tokens right after the subcommand, flags last."""
    sub = argv[0]
    rest = []
    path = None
    i = 1
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config needs a file path")
            path = argv[i + 1]
            i += 2
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
        else:
            rest.append(tok)
            i += 1
    if path is None:
        return argv
    if sub not in known:
        raise ConfigError(f"unknown subcommand {sub!r}")
    return [sub] + _read_config(path, sub, known[sub]) + rest


def _parse_vector(text, n, what, dtype=float):
    parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        vals = [dtype(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{what}: could not parse {text!r}") from exc
    if len(vals) != n:
        raise ConfigError(f"{what} needs {n} comma-separated values, "
                          f"got {len(vals)}")
    return np.asarray(vals, dtype=dtype)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(header, rows, args):
    buf = io.StringIO()
    if not args.no_header:
        buf.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _make_poly(coeffs, exps):
    def f(pts):
        arr = np.asarray(pts, dtype=float)
        vals = np.zeros(arr.shape[0])
        for c, e in zip(coeffs, exps):
            vals = vals + c * np.prod(arr ** e, axis=1)
        return vals
    return f


def random_polynomials(rng, n_sites, count, degree):
    """Random multivariate polynomials with integer exponents, degree-capped;
    each maps a (K, n_sites) batch of points to K values."""
    polys = []
    for _ in range(count):
        n_terms = int(rng.integers(1, 4))
        coeffs = rng.uniform(-1.0, 1.0, size=n_terms)
        exps = np.zeros((n_terms, n_sites), dtype=int)
        for k in range(n_terms):
            total = int(rng.integers(0, degree + 1))
            exps[k] = rng.multinomial(total, np.full(n_sites, 1.0 / n_sites))
        polys.append(_make_poly(coeffs, exps))
    return polys


def _cmd_simulate(args):
    p = SystemParams(args.n, args.sigma, args.alpha, args.tl, args.tr)
    x0 = (np.zeros(args.n) if args.x0 is None
          else _parse_vector(args.x0, args.n, "--x0"))
    thinning = args.thinning if args.thinning is not None else args.t_end / 100.0
    cfg = SdeConfig(dt=args.dt, t_end=args.t_end, thinning=thinning,
                    burn_in=args.burn_in, seed=args.seed)
    traj = simulate_trajectory(x0, p, cfg, model=args.model, cap=args.cap)
    header = ["t"] + [f"x{i}" for i in range(1, args.n + 1)]
    rows = [(float(t), *map(float, state)) for t, state in traj]
    return header, rows, False


def _cmd_verify_duality(args):
    p = SystemParams(args.n, args.sigma, args.alpha, args.tl, args.tr)
    x0 = (np.full(args.n, 0.5) if args.x0 is None
          else _parse_vector(args.x0, args.n, "--x0"))
    xi0 = np.zeros(args.n + 2, dtype=int)
    if args.xi0 is None:
        xi0[1] = 1
    else:
        xi0[1:-1] = _parse_vector(args.xi0, args.n, "--xi0", dtype=int)
    res = semigroup_duality_check(
        x0, xi0, args.t, p, model=args.model, dfun=args.dual,
        n_runs=args.runs, seed=args.seed, dt=args.dt, t_orth=args.t_orth,
        cap=args.cap)
    header = ["lhs", "lhs_se", "rhs", "rhs_se", "z_score"]
    rows = [(res.lhs, res.lhs_se, res.rhs, res.rhs_se, res.z_score)]
    failed = not (res.z_score < args.z_max)
    return header, rows, failed


def _cmd_verify_intertwining(args):
    if args.states < 1:
        raise ConfigError("--states must be at least 1")
    if args.degree < 0:
        raise ConfigError("--degree must be at least 0")
    p = SystemParams(args.n, args.sigma, args.alpha, args.tl, args.tr)
    rng = stream(args.seed, "verify-intertwining")
    states = rng.uniform(0.0, 2.0, size=(args.states, args.n))
    polys = random_polynomials(rng, args.n, args.funcs, args.degree)
    header = ["state", "max_residual"]
    rows = []
    failed = False
    for k in range(args.states):
        worst = max(intertwining_residual(states[k], p, polys, args.fd_step))
        rows.append((k, worst))
        failed = failed or not (worst < args.tol)
    return header, rows, failed


def _cmd_absorption(args):
    p = SystemParams(args.n, 0.0, args.alpha, 1.0, 1.0)
    if args.j is None:
        pl_s, pr_s = single_absorption_solve(args.i, p, edge=args.edge)
        pr_c = single_right_closed(args.i, args.n, args.alpha, args.edge)
        diff = max(abs(pl_s - (1.0 - pr_c)), abs(pr_s - pr_c))
        header = ["i", "closed_left", "closed_right",
                  "solve_left", "solve_right", "max_abs_diff"]
        rows = [(args.i, 1.0 - pr_c, pr_c, pl_s, pr_s, diff)]
    else:
        solve = two_particle_solve(args.i, args.j, p, edge=args.edge)
        header = ["i", "j", "solve_both_left", "solve_both_right", "solve_split"]
        if args.edge == "walk":
            header += ["closed_both_left", "closed_both_right", "closed_split"]
            shown = two_particle_closed_form(args.i, args.j, p).as_tuple()
            checked = zip(solve.as_tuple(), shown)
        else:
            # unit walkers have no pair closed form; what is closed is the
            # total, 1, and the mean number absorbed right, h(i) + h(j)
            header += ["solve_total", "solve_mean_right", "closed_mean_right"]
            shown = (solve.total, 2.0 * solve.p_both_right + solve.p_split,
                     single_right_closed(args.i, args.n, args.alpha, args.edge)
                     + single_right_closed(args.j, args.n, args.alpha, args.edge))
            checked = [(shown[0], 1.0), shown[1:]]
        diff = max(abs(a - b) for a, b in checked)
        header.append("max_abs_diff")
        rows = [(args.i, args.j, *solve.as_tuple(), *shown, diff)]
    return header, rows, not diff <= args.tol


def _cmd_moments(args):
    p = SystemParams(args.n, args.sigma, args.alpha, args.tl, args.tr)
    if args.two_point:
        header = ["m", "n", "assembly", "closed_form_display", "difference"]
        rows = []
        for m in range(1, args.n + 1):
            for n2 in range(m, args.n + 1):
                rep = two_point_report(m, n2, p)
                rows.append((m, n2, rep.assembly, rep.closed_form,
                             rep.difference))
        failed = not all(abs(r[4]) <= args.tol for r in rows)
        return header, rows, failed
    header = ["m", "closed_form", "absorption_route", "mc_mean", "mc_se"]
    sites = range(1, args.n + 1)
    routes = [one_point_routes(m, p) for m in sites]
    failed = not all(abs(r["closed_form"] - r["absorption"]) <= args.tol
                     for r in routes)
    mc = [(math.nan, math.nan)] * args.n
    if not args.no_mc:
        # one ensemble serves every site: E_m = x_m + ... + x_N per chain
        cfg = SdeConfig(dt=args.mc_dt, t_end=args.mc_t_end,
                        thinning=args.mc_thinning, burn_in=args.mc_burn_in,
                        seed=args.seed)
        observables = [
            lambda states, _m=m: np.exp(-args.sigma * states[:, _m - 1:].sum(axis=1))
            for m in sites]
        try:
            mc = stationary_estimate(p, cfg, model="abep", observable=observables,
                                     n_chains=args.mc_chains, cap=args.cap)
        except NumericalBlowup as exc:
            print(f"note: Monte Carlo exploded ({exc}); emitting nan for every "
                  "site", file=sys.stderr)
        failed = failed or not all(math.isfinite(mean) and math.isfinite(se)
                                   for mean, se in mc)
    rows = [(m, r["closed_form"], r["absorption"], mean, se)
            for m, r, (mean, se) in zip(sites, routes, mc)]
    return header, rows, failed


def _cmd_reversible_check(args):
    p = SystemParams(args.n, args.sigma, args.alpha, args.t, args.t)
    samples, stats = reversible_sampler(p, args.samples, seed=args.seed,
                                        with_stats=True)
    header = ["name", "expected", "observed", "se", "z_score"]
    rows = []
    failed = False
    for m in range(1, args.n + 1):
        obs = np.exp(-args.sigma * samples[:, m - 1:].sum(axis=1))
        mean = float(obs.mean())
        se = float(obs.std(ddof=1) / math.sqrt(len(obs)))
        closed = reversible_moment(m, p)
        z = abs(mean - closed) / se if se > 0 else (0.0 if mean == closed else math.inf)
        rows.append((f"moment_m{m}", closed, mean, se, z))
        failed = failed or not (z < args.z_max)
    rate, predicted = stats["acceptance_rate"], reversible_mass(p)
    # binomial error at the predicted rate: at the observed one it is zero
    # whenever every proposal was accepted
    rate_se = math.sqrt(max(predicted * (1.0 - predicted), 1e-300) / stats["proposed"])
    z = abs(rate - predicted) / rate_se
    failed = failed or not (z < args.z_max)
    rows.append(("acceptance_rate", predicted, rate, rate_se, z))
    return header, rows, failed


_HANDLERS = {
    "simulate": _cmd_simulate,
    "verify-duality": _cmd_verify_duality,
    "verify-intertwining": _cmd_verify_intertwining,
    "absorption": _cmd_absorption,
    "moments": _cmd_moments,
    "reversible-check": _cmd_reversible_check,
}


def run(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, known = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        argv = _expand_config(argv, known) if not argv[0].startswith("-") else argv
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        header, rows, failed = _HANDLERS[args.command](args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(header, rows, args)
    if getattr(args, "check", False) and failed:
        return 1
    return 0


def main():
    sys.exit(run())
