"""End-to-end verification runs with pinned tolerances and runtime budgets.

Each test exercises one headline guarantee of the toolkit on fixed seeds
and fixed parameters, asserts the numerical agreement it promises, and
checks that the run fits its wall-clock budget.  Monte Carlo seeds were
chosen once from short scans so the z-score margins are comfortable; the
checks themselves do not depend on the seed beyond ordinary sampling
noise.
"""
import functools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from abep import (SdeConfig, SystemParams, generator_duality_residual,
                  intertwining_residual, laguerre_d, map_g, map_g_inv,
                  mc_absorption, one_point_moment, one_point_routes,
                  reversible_cdf_1d, reversible_sampler,
                  semigroup_duality_check, stationary_estimate,
                  two_particle_closed_form, two_particle_solve,
                  two_point_moment, two_point_report)
from abep.cli import random_polynomials


def test_acceptance_intertwining_on_random_polynomials():
    budget = 10.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    states = rng.uniform(0.0, 2.0, size=(100, 3))
    worst = 0.0
    for sigma in (0.1, 0.5):
        p = SystemParams(3, sigma, 1.0, 1.0, 2.0)
        polys = random_polynomials(rng, 3, 5, 3)
        for x in states:
            for f in polys:
                worst = max(worst, intertwining_residual(x, p, f, 1e-4))
    elapsed = time.perf_counter() - t0
    print(f"intertwining: worst residual {worst:.3e} in {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < budget


def test_acceptance_map_round_trip_bulk():
    budget = 1.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    p = SystemParams(5, 0.4, 1.0, 1.0, 1.0)
    x = rng.uniform(0.0, 2.0, size=(10_000, 5))
    z = map_g(x, p)
    back = map_g_inv(z, p)
    err = np.abs(back - x).max()
    image = 0.4 * z.sum(axis=1)
    elapsed = time.perf_counter() - t0
    print(f"round trip: max error {err:.3e} in {elapsed:.2f}s")
    assert err < 1e-12
    assert np.all(image < 1.0)
    assert elapsed < budget


def test_acceptance_generator_level_duality():
    budget = 30.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    p = SystemParams(2, 0.3, 1.0, 0.5, 1.0)
    worst = 0.0
    for _ in range(25):
        x = rng.uniform(0.1, 1.5, 2)
        xi = np.zeros(4, dtype=np.int64)
        for _ in range(int(rng.integers(1, 4))):
            xi[rng.integers(0, 4)] += 1
        for model in ("bep", "abep"):
            for dfun in ("classical", "orthogonal"):
                worst = max(worst, generator_duality_residual(
                    x, xi, p, model=model, dfun=dfun, t_orth=0.7))
    elapsed = time.perf_counter() - t0
    print(f"generator duality: worst residual {worst:.3e} in {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < budget


def test_acceptance_semigroup_duality():
    budget = 300.0
    t0 = time.perf_counter()
    p = SystemParams(2, 0.1, 1.0, 0.5, 1.0)
    z0 = np.array([0.8, 0.5])
    x0 = {"bep": z0, "abep": map_g_inv(z0, p)}
    xi_one = np.array([0, 1, 0, 0])
    xi_two = np.array([0, 1, 1, 0])
    fine = {}
    for model in ("bep", "abep"):
        # one diffusion ensemble per (model, dt) serves both xi0
        checks = {dt: semigroup_duality_check(
                      x0[model], [xi_one, xi_two], 0.5, p, model=model,
                      dfun="classical", n_runs=100_000, seed=12, dt=dt)
                  for dt in (1e-3, 5e-4)}
        for k, xi0 in enumerate((xi_one, xi_two)):
            for dt in (1e-3, 5e-4):
                res = checks[dt][k]
                label = f"{model} particles={int(xi0.sum())} dt={dt}"
                print(f"semigroup duality {label}: z = {res.z_score:.2f}")
                if dt == 5e-4:
                    fine[label] = res.z_score
    elapsed = time.perf_counter() - t0
    print(f"semigroup duality finished in {elapsed:.0f}s")
    for label, z in fine.items():
        assert z < 3.0, label
    assert elapsed < budget


def test_acceptance_absorption_oracle():
    budget = 120.0
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 7):
        for alpha in (0.5, 1.0, 2.0):
            p = SystemParams(n, 0.0, alpha, 1.0, 1.0)
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    solve = two_particle_solve(i, j, p, edge="walk")
                    closed = two_particle_closed_form(i, j, p)
                    worst = max(worst, max(
                        abs(a - b) for a, b in
                        zip(solve.as_tuple(), closed.as_tuple())))
                    assert abs(solve.total - 1.0) < 1e-12
                    assert abs(closed.total - 1.0) < 1e-12
    assert worst < 1e-10

    single = two_particle_solve(1, 1, SystemParams(1, 0.0, 1.0, 1.0, 1.0))
    assert single.p_both_left == 0.25
    assert single.p_both_right == 0.25
    assert single.p_split == 0.5

    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    for xi0, (i, j) in (([0, 1, 1, 0], (1, 2)), ([0, 2, 0, 0], (1, 1))):
        freq = mc_absorption(np.array(xi0), p, 100_000, seed=7)
        want = two_particle_solve(i, j, p)
        for outcome, prob in (((2, 0), want.p_both_left),
                              ((1, 1), want.p_split),
                              ((0, 2), want.p_both_right)):
            f, se = freq[outcome]
            assert abs(f - prob) < 3 * se, (xi0, outcome)
    elapsed = time.perf_counter() - t0
    print(f"absorption oracle: worst closed-vs-solve {worst:.2e} "
          f"in {elapsed:.0f}s")
    assert elapsed < budget


def test_acceptance_one_point_moments():
    budget = 600.0
    t0 = time.perf_counter()
    for n in range(1, 11):
        for alpha in (0.5, 1.0, 2.0):
            p = SystemParams(n, 0.1, alpha, 1.0, 2.0)
            for m in range(1, n + 1):
                routes = one_point_routes(m, p)
                vals = list(routes.values())
                assert max(vals) - min(vals) <= 1e-12, (n, alpha, m)

    for n in (1, 2):
        p = SystemParams(n, 0.1, 1.0, 0.2, 0.4)
        sites = range(1, n + 1)
        obs = [lambda states, _m=m: np.exp(-0.1 * states[:, _m - 1:].sum(axis=1))
               for m in sites]
        # one ensemble per dt serves every site
        estimates = {}
        for dt in (2e-3, 1e-3):
            cfg = SdeConfig(dt=dt, t_end=100.0, thinning=0.1,
                            burn_in=20.0, seed=41)
            estimates[dt] = stationary_estimate(p, cfg, model="abep",
                                                observable=obs, n_chains=48)
        for m in sites:
            closed = one_point_moment(m, p)
            z_by_dt = {}
            for dt in (2e-3, 1e-3):
                mean, se = estimates[dt][m - 1]
                z_by_dt[dt] = abs(mean - closed) / se
            print(f"one-point MC N={n} m={m}: z(coarse) = {z_by_dt[2e-3]:.2f}, "
                  f"z(fine) = {z_by_dt[1e-3]:.2f}")
            assert z_by_dt[1e-3] < 3.0, (n, m)
    elapsed = time.perf_counter() - t0
    print(f"one-point moments finished in {elapsed:.0f}s")
    assert elapsed < budget


def test_acceptance_two_point_moments():
    t0 = time.perf_counter()
    p = SystemParams(2, 0.05, 1.0, 0.5, 1.0)
    cfg = SdeConfig(dt=1e-3, t_end=300.0, thinning=0.1, burn_in=40.0, seed=17)
    pairs = ((1, 1), (1, 2), (2, 2))

    def obs(states, m, n):
        em = states[:, m - 1:].sum(axis=1)
        en = states[:, n - 1:].sum(axis=1)
        return np.exp(-0.05 * (em + en))

    # one ensemble serves all three pairs
    estimates = stationary_estimate(
        p, cfg, model="abep", n_chains=64,
        observable=[functools.partial(obs, m=m, n=n) for m, n in pairs])
    for (m, n), (mean, se) in zip(pairs, estimates):
        assembly = two_point_moment(m, n, p)
        z = abs(mean - assembly) / se
        print(f"two-point MC pair ({m},{n}): z = {z:.2f}")
        assert z < 3.0, (m, n)

        rep = two_point_report(m, n, p)
        print(f"two-point report ({m},{n}): assembly {rep.assembly:.12f}, "
              f"closed form {rep.closed_form:.12f}, "
              f"difference {rep.difference:+.3e}")
        assert abs(rep.difference) < 1e-12
    elapsed = time.perf_counter() - t0
    print(f"two-point moments finished in {elapsed:.0f}s")


def test_acceptance_reversible_measure():
    budget = 120.0
    t0 = time.perf_counter()

    # sampled sigma-exponential moments against the closed forms, in a
    # regime where the mass outside the reachable domain is negligible
    p = SystemParams(3, 0.05, 1.0, 0.5, 0.5)
    xs = reversible_sampler(p, 100_000, seed=4)
    for m in (1, 2, 3):
        obs = np.exp(-0.05 * xs[:, m - 1:].sum(axis=1))
        se = obs.std(ddof=1) / math.sqrt(len(obs))
        z = abs(obs.mean() - one_point_moment(m, p)) / se
        print(f"reversible moment m={m}: z = {z:.2f}")
        assert z < 3.0, m

    # one-site histogram against the quadrature-normalized density
    pk = SystemParams(1, 0.2, 1.5, 1.0, 1.0)
    cdf = reversible_cdf_1d(pk)
    sample = reversible_sampler(pk, 100_000, seed=5)[:, 0]
    ks = stats.kstest(sample, cdf)
    print(f"reversible KS: D = {ks.statistic:.5f}, p = {ks.pvalue:.3f}")
    assert ks.pvalue > 0.01

    # acceptance rate of the rejection sampler against its closed form
    pa = SystemParams(1, 0.75, 1.0, 1.0, 1.0)
    _, st = reversible_sampler(pa, 100_000, seed=3, with_stats=True)
    predicted = -math.expm1(-1.0 / 0.75)
    se = math.sqrt(predicted * (1.0 - predicted) / st["proposed"])
    z = abs(st["acceptance_rate"] - predicted) / se
    print(f"reversible acceptance rate: z = {z:.2f}")
    assert z < 3.0

    elapsed = time.perf_counter() - t0
    print(f"reversible measure finished in {elapsed:.0f}s")
    assert elapsed < budget


def test_acceptance_orthogonal_zero_mean():
    budget = 5.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    z = rng.gamma(1.5, 0.7, 100_000)
    for k in range(1, 6):
        vals = laguerre_d(z, k, 1.5, 0.7)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        zscore = abs(vals.mean()) / se
        print(f"zero mean k={k}: z = {zscore:.2f}")
        assert zscore < 3.0, k
    elapsed = time.perf_counter() - t0
    print(f"orthogonal zero mean finished in {elapsed:.1f}s")
    assert elapsed < budget
