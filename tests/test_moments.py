import hashlib
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

import abep.moments
from abep import (DOMAIN_TOL, SystemParams, Workspace, map_g, map_g_inv,
                  model_parts, one_point_moment, one_point_routes, partial_energies,
                  reversible_cdf_1d, reversible_mass, reversible_moment,
                  reversible_sampler,
                  two_particle_closed_form, two_particle_solve,
                  two_point_closed_form, two_point_moment, two_point_report)
from abep.cli import run
from abep.errors import ParameterError, RouteMismatch

RNG = np.random.default_rng(52)


def test_one_point_telescoping_example():
    p = SystemParams(1, 0.1, 1.0, 1.0, 2.0)
    assert one_point_moment(1, p) == pytest.approx(0.85, abs=1e-15)


def test_one_point_equal_temperatures():
    p = SystemParams(4, 0.2, 1.5, 0.7, 0.7)
    for m in range(1, 5):
        expect = 1.0 - 0.2 * 1.5 * 0.7 * (4 - m + 1)
        assert one_point_moment(m, p) == pytest.approx(expect, abs=1e-14)


def test_one_point_zero_temperatures():
    p = SystemParams(3, 0.4, 2.0, 0.0, 0.0)
    assert one_point_moment(3, p) == 1.0
    assert one_point_moment(1, p) == 1.0


def test_one_point_out_of_range():
    p = SystemParams(3, 0.1, 1.0, 1.0, 1.0)
    with pytest.raises(IndexError):
        one_point_moment(0, p)
    with pytest.raises(IndexError):
        one_point_moment(4, p)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_one_point_route_agreement(n, alpha):
    p = SystemParams(n, 0.1, alpha, 1.0, 2.0)
    for m, edge in itertools.product(range(1, n + 1), ("walk", "unit")):
        routes = one_point_routes(m, p, edge)
        assert set(routes) == {"closed_form", "absorption"}
        assert abs(routes["closed_form"] - routes["absorption"]) < 1e-12


def test_one_point_unit_edge_frozen_values():
    # independent rational-arithmetic evaluation, boundary jumps at the
    # bare occupation rate
    p = SystemParams(2, 0.05, 2.0, 1.0, 2.0)
    assert one_point_moment(1, p, edge="unit") == pytest.approx(0.7, abs=1e-14)
    assert one_point_moment(2, p, edge="unit") == pytest.approx(0.84, abs=1e-14)


def test_one_point_raises_on_route_mismatch(monkeypatch):
    monkeypatch.setattr(abep.moments, "single_absorption_solve",
                        lambda i, p, edge="walk": (0.0, 1.0))
    with pytest.raises(RouteMismatch):
        one_point_moment(1, SystemParams(3, 0.1, 2.0, 1.0, 2.0), edge="unit")


def test_two_point_walk_frozen_values():
    p = SystemParams(2, 0.05, 1.0, 1.0, 2.0)
    cases = {
        (1, 1): Fraction(881, 1200),
        (1, 2): Fraction(629, 800),
        (2, 2): Fraction(4067, 4800),
    }
    for (m, n), frac in cases.items():
        assert two_point_moment(m, n, p, edge="walk") == pytest.approx(
            float(frac), abs=1e-13)


def test_two_point_unit_edge_frozen_values():
    p = SystemParams(2, 0.05, 2.0, 1.0, 2.0)
    cases = {
        (1, 1): Fraction(513, 1000),
        (1, 2): Fraction(601, 1000),
        (2, 2): Fraction(1437, 2000),
    }
    for (m, n), frac in cases.items():
        val = two_point_moment(m, n, p, edge="unit")
        assert val == pytest.approx(float(frac), abs=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_one_point_default_is_the_simulated_stationary_mean(n, alpha, capsys):
    # the bep drift is affine in z, so its zero is the exact stationary
    # mean, and E[exp(-sigma E_m(x))] = 1 - sigma * sum_{i >= m} E[z_i]
    p = SystemParams(n, 0.05, alpha, 0.5, 1.5)
    b0 = model_parts(Workspace(np.zeros(n), p, "bep"))[0]
    a = np.stack([model_parts(Workspace(e, p, "bep"))[0] - b0 for e in np.eye(n)],
                 axis=1)
    z_hat = np.linalg.solve(a, -b0)
    assert run(["moments", "--n", str(n), "--sigma", "0.05", "--alpha",
                repr(alpha), "--tl", "0.5", "--tr", "1.5", "--no-mc",
                "--no-header"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == n
    for m, row in zip(range(1, n + 1), rows):
        want = 1.0 - 0.05 * z_hat[m - 1:].sum()
        assert abs(one_point_moment(m, p) - want) < 1e-14
        assert abs(float(row[1]) - want) < 1e-14


def test_moment_defaults_are_unit():
    p = SystemParams(3, 0.05, 2.0, 0.5, 1.5)
    # at m = 1 every walker counts and both edges give the same moment
    assert one_point_routes(2, p) == one_point_routes(2, p, "unit")
    assert one_point_moment(2, p) == one_point_moment(2, p, edge="unit")
    assert one_point_moment(2, p) != one_point_moment(2, p, edge="walk")
    assert two_point_moment(2, 3, p) == two_point_moment(2, 3, p, edge="unit")
    assert two_point_moment(2, 3, p) != two_point_moment(2, 3, p, edge="walk")
    # the pair closed form and the report are walk moments
    assert two_point_report(2, 3, p).assembly == two_point_moment(2, 3, p, edge="walk")


def test_two_point_zero_temperatures():
    p = SystemParams(3, 0.7, 1.9, 0.0, 0.0)
    assert two_point_moment(2, 2, p) == pytest.approx(1.0)


def test_two_point_first_order_matches_one_point():
    # at tiny asymmetry the pair moment is the sum of the one-point
    # first-order terms, the quadratic assembly terms are negligible
    p = SystemParams(3, 1e-4, 1.0, 1.0, 2.0)
    val = two_point_moment(1, 2, p)
    first_order = one_point_moment(1, p) + one_point_moment(2, p) - 1.0
    assert abs(val - first_order) < 2e-6


def test_two_point_out_of_range():
    p = SystemParams(3, 0.1, 1.0, 1.0, 1.0)
    with pytest.raises(IndexError):
        two_point_moment(2, 1, p)
    with pytest.raises(IndexError):
        two_point_moment(1, 4, p)


def test_two_point_report_flags_display_mismatch():
    """The direct display disagrees with the assembly and the report says so."""
    p = SystemParams(2, 0.05, 1.0, 1.0, 2.0)
    rep = two_point_report(1, 2, p)
    assert rep.assembly == pytest.approx(float(Fraction(629, 800)), abs=1e-13)
    assert rep.closed_form == pytest.approx(two_point_closed_form(1, 2, p))
    assert rep.difference == pytest.approx(rep.closed_form - rep.assembly)
    assert abs(rep.difference) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 20, 40])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_two_point_closed_form_matches_assembly(n, alpha):
    p = SystemParams(n, 0.02, alpha, 0.5, 1.5)
    m, m2 = np.triu_indices(n)
    assert np.abs(two_point_report(m + 1, m2 + 1, p).difference).max() < 1e-12


def _fresh_block_assembly(m, n, p, one_point, pair):
    """The two-point moment at (m, n) from a block built for that pair alone.

    The pair terms of i >= m, j >= n are computed afresh and summed, the
    per-pair reference the whole-grid table must match bit for bit.
    """
    nn, s, a, tl, tr = p.n_sites, p.sigma, p.alpha, p.t_left, p.t_right
    i, j = np.arange(m, nn + 1)[:, None], np.arange(n, nn + 1)
    res = pair(np.minimum(i, j), np.maximum(i, j))
    w = np.where(i == j, s * s * a * (a + 1.0), (s * a) ** 2)
    return one_point(m) + one_point(n) - 1.0 + float(np.sum(
        w * (tl * tl * res.p_both_left + tr * tr * res.p_both_right
             + tl * tr * res.p_split)))


@pytest.mark.parametrize("n", [1, 2, 7, 12])
def test_two_point_table_equals_per_pair_assembly(n):
    p = SystemParams(n, 0.03, 2.0, 0.5, 1.5)
    m, m2 = np.triu_indices(n)
    m, m2 = m + 1, m2 + 1
    pairs = list(zip(m.tolist(), m2.tolist()))
    for edge in ("unit", "walk"):
        table = two_point_moment(m, m2, p, edge=edge)
        assert table.tolist() == [two_point_moment(a, b, p, edge=edge)
                                  for a, b in pairs]
        assert table.tolist() == [_fresh_block_assembly(
            a, b, p, lambda k: one_point_moment(k, p, edge),
            lambda lo, hi: two_particle_solve(lo, hi, p, edge=edge))
            for a, b in pairs]
    table = two_point_closed_form(m, m2, p)
    assert table.tolist() == [two_point_closed_form(a, b, p) for a, b in pairs]
    # the one-point moment is its closed form, checked against the solve
    assert table.tolist() == [_fresh_block_assembly(
        a, b, p, lambda k: one_point_moment(k, p, "walk"),
        lambda lo, hi: two_particle_closed_form(lo, hi, p)) for a, b in pairs]
    rep = two_point_report(m, m2, p)
    assert rep.difference.tolist() == [two_point_report(a, b, p).difference
                                       for a, b in pairs]


def test_two_point_table_keeps_the_sum_order_of_large_blocks():
    # numpy sums a strided block through an 8192-element buffer, in another
    # order than one contiguous pass once the block is larger: at N = 120
    # every pair with m, n <= 20 has such a block
    p = SystemParams(120, 0.002, 2.0, 0.5, 1.5)
    m, m2 = np.add(np.triu_indices(20), 1)
    assert two_point_closed_form(m, m2, p).tolist() == [_fresh_block_assembly(
        a, b, p, lambda k: one_point_moment(k, p, "walk"),
        lambda lo, hi: two_particle_closed_form(lo, hi, p))
        for a, b in zip(m.tolist(), m2.tolist())]


def test_reversible_density_unequal_temperatures_rejected():
    p = SystemParams(2, 0.3, 1.0, 1.0, 2.0)
    with pytest.raises(ParameterError):
        reversible_sampler(p, 10)


@pytest.mark.parametrize("n_samples", [0, 2.5, np.nan])
def test_reversible_sampler_rejects_bad_counts(n_samples):
    p = SystemParams(2, 0.3, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError, match="n_samples must be a whole number"):
        reversible_sampler(p, n_samples)


def test_reversible_sampler_takes_whole_float_counts():
    p = SystemParams(2, 0.3, 1.0, 1.0, 1.0)
    assert reversible_sampler(p, 7.0).tobytes() == reversible_sampler(p, 7).tobytes()


def test_reversible_moment_and_mass_closed_forms():
    # N = 1, alpha = 1: the truncated total is Exp(T) below c = 1/(sigma T)
    p = SystemParams(1, 0.2, 1.0, 1.0, 1.0)
    assert reversible_mass(p) == pytest.approx(-math.expm1(-5.0), rel=1e-14)
    exact = 1.0 - 0.2 * (1.0 - 5.0 * math.exp(-5.0) / -math.expm1(-5.0))
    assert reversible_moment(1, p) == pytest.approx(exact, abs=1e-14)
    # the total of N alpha shape by quadrature of its truncated Gamma law
    p = SystemParams(3, 0.5, 2.0, 0.5, 0.5)
    c = 1.0 / (0.5 * 0.5)
    dens = lambda s: s ** 5 * math.exp(-s) / math.gamma(6.0)
    mass = integrate.quad(dens, 0.0, c)[0]
    mean = integrate.quad(lambda s: s * dens(s), 0.0, c)[0] / mass
    assert reversible_mass(p) == pytest.approx(mass, rel=1e-12)
    for m in (1, 2, 3):
        want = 1.0 - 0.5 * 0.5 * mean * (3 - m + 1) / 3
        assert reversible_moment(m, p) == pytest.approx(want, abs=1e-12)
    # without truncation it is the one-point moment at equal temperatures
    p = SystemParams(3, 0.05, 1.0, 0.5, 0.5)
    for m in (1, 2, 3):
        assert reversible_moment(m, p) == pytest.approx(one_point_moment(m, p),
                                                        abs=1e-14)
    p = SystemParams(2, 0.0, 1.5, 0.5, 0.5)
    assert reversible_mass(p) == 1.0 and reversible_moment(1, p) == 1.0
    with pytest.raises(IndexError):
        reversible_moment(3, p)


def test_underflowed_mass_is_a_parameter_error():
    # P(120, 1/(10 * 100)) is far below the smallest double: the moment and
    # the CDF divide by it, and must raise instead of returning nan
    p = SystemParams(1, 10.0, 120.0, 100.0, 100.0)
    assert reversible_mass(p) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: reversible_moment(1, p),
                     lambda: reversible_cdf_1d(p)):
            with pytest.raises(ParameterError, match=r"P\(N alpha, c\)"):
                call()


# P(240, 1/(10 * 100)) underflows to 0: N alpha is what is too large
# against c = 1/(sigma T), so no message may blame sigma * T alone
TOO_SMALL = ["--n", "2", "--sigma", "10", "--alpha", "120", "--t", "100"]


@pytest.mark.parametrize("use", ["sampler", "moment", "reversible-check"])
def test_too_small_mass_is_refused_by_one_rule(use, capsys):
    p = SystemParams(2, 10.0, 120.0, 100.0, 100.0)
    assert reversible_mass(p) == 0.0
    if use == "reversible-check":
        assert run(["reversible-check", *TOO_SMALL, "--samples", "50"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = captured.err
        assert message.startswith("error: ") and "Traceback" not in message
    else:
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ParameterError) as info:
            if use == "sampler":
                reversible_sampler(p, 50, seed=rng)
            else:
                reversible_moment(1, p)
        assert rng.bit_generator.state == before
        message = str(info.value)
    assert "P(N alpha, c) = P(240.0, 0.001)" in message
    assert "too large" not in message and "sigma*T" not in message


@pytest.mark.parametrize("n,sigma,alpha,t,seed", [
    (3, 0.5, 2.0, 0.5, 0), (2, 0.3, 0.5, 1.0, 1), (1, 0.2, 1.5, 1.0, 2),
    (4, 0.1, 1.0, 1.0, 3)])
def test_sampler_matches_truncated_moments(n, sigma, alpha, t, seed):
    p = SystemParams(n, sigma, alpha, t, t)
    xs, stats = reversible_sampler(p, 100_000, seed=seed, with_stats=True)
    for m in range(1, n + 1):
        obs = np.exp(-sigma * xs[:, m - 1:].sum(axis=1))
        se = obs.std(ddof=1) / math.sqrt(len(obs))
        assert abs(obs.mean() - reversible_moment(m, p)) < 3 * se
    rate = reversible_mass(p)
    se = math.sqrt(rate * (1 - rate) / stats["proposed"])
    assert abs(stats["acceptance_rate"] - rate) < 3 * se


def test_sampler_moments_match_closed_form():
    p = SystemParams(3, 0.05, 1.0, 0.5, 0.5)
    xs = reversible_sampler(p, 40_000, seed=4)
    assert xs.shape == (40_000, 3)
    for m in (1, 3):
        obs = np.exp(-0.05 * xs[:, m - 1:].sum(axis=1))
        se = obs.std(ddof=1) / math.sqrt(len(obs))
        assert abs(obs.mean() - one_point_moment(m, p)) < 3 * se


def test_sampler_small_sigma_recovers_gamma_moments():
    p = SystemParams(2, 1e-4, 2.0, 0.7, 0.7)
    xs = reversible_sampler(p, 60_000, seed=10)
    mean = xs.mean(axis=0)
    se = xs.std(axis=0, ddof=1) / math.sqrt(len(xs))
    for k in range(2):
        assert abs(mean[k] - 2.0 * 0.7) < 4 * se[k]


def test_sampler_stats_and_stall():
    p = SystemParams(1, 0.75, 1.0, 1.0, 1.0)
    xs, stats = reversible_sampler(p, 20_000, seed=8, with_stats=True)
    assert stats["proposed"] >= stats["accepted"] >= 20_000
    predicted = -math.expm1(-1.0 / 0.75)
    se = math.sqrt(predicted * (1 - predicted) / stats["proposed"])
    assert abs(stats["acceptance_rate"] - predicted) < 3 * se

    # predicted acceptance P(1, 1/(sigma T)) = 5e-7, below the 1e-6 floor:
    # the stall is decided before any draw
    stuck = SystemParams(1, 1000.0, 1.0, 2000.0, 2000.0)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(ParameterError, match=r"P\(N alpha, c\) .* below 1e-06"):
        reversible_sampler(stuck, 50, seed=rng)
    assert rng.bit_generator.state == before


@pytest.mark.usefixtures("pinned_exp")
def test_sampler_pinned_bytes():
    # the samples of the benchmark's reversible sampler op; the digest of
    # the samples alone was taken before the proposal blocks were sized
    p = SystemParams(1, 0.5, 1.0, 1.0, 1.0)
    x, stats = reversible_sampler(p, 200_000, seed=0, with_stats=True)
    assert hashlib.sha256(x.tobytes()).hexdigest() == \
        "7708b23ff59474440ce9a02385f129a45683eb69e798f3f54a16a6d3279d049c"
    assert stats == {"proposed": 231_902, "accepted": 200_300,
                     "acceptance_rate": 200_300 / 231_902}


@pytest.mark.usefixtures("pinned_exp")
def test_sampler_pinned_bytes_sigma_zero():
    # sigma = 0 keeps every proposal, and g is the identity
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    x, stats = reversible_sampler(p, 5_000, seed=0, with_stats=True)
    assert hashlib.sha256(x.tobytes()).hexdigest() == \
        "e19d4703f74a0872c70c9ca0be930f71c9128d30eebf3754a844fc6c8538205d"
    assert stats == {"proposed": 5_000, "accepted": 5_000, "acceptance_rate": 1.0}


@pytest.mark.parametrize("n,sigma,alpha,n_samples", [
    (1, 0.5, 1.0, 250_000), (3, 0.05, 2.0, 5_000), (12, 0.01, 0.7, 5_000)])
def test_sampler_keeps_the_first_accepted_rows_of_the_stream(n, sigma, alpha,
                                                             n_samples):
    # the samples do not depend on the block sizes: they are the first
    # n_samples accepted rows of one long draw; at N = 1 the 200,000-row
    # cap splits the run into two blocks
    p = SystemParams(n, sigma, alpha, 1.0, 1.0)
    x = reversible_sampler(p, n_samples, seed=np.random.default_rng(7))
    z = np.random.default_rng(7).gamma(alpha, 1.0, size=(2 * n_samples, n))
    z = z[sigma * z.sum(axis=1) < 1.0 - DOMAIN_TOL]
    assert len(z) >= n_samples
    assert x.tobytes() == map_g_inv(z[:n_samples], p).tobytes()


def test_sampler_proposal_budget():
    # the benchmark op's configuration: acceptance P(1, 2) = 0.865 needs
    # about 231,000 proposals for 200,000 samples
    p = SystemParams(1, 0.5, 1.0, 1.0, 1.0)
    _, stats = reversible_sampler(p, 200_000, seed=0, with_stats=True)
    assert stats["proposed"] < 240_000
    # sigma = 0 accepts every proposal and proposes no more than it needs
    _, stats = reversible_sampler(SystemParams(2, 0.0, 1.0, 1.0, 1.0), 5_000,
                                  seed=0, with_stats=True)
    assert stats["proposed"] == stats["accepted"] == 5_000


def test_sampler_respects_domain():
    p = SystemParams(2, 0.4, 1.0, 0.9, 0.9)
    xs = reversible_sampler(p, 5_000, seed=2)
    z = map_g(xs, p)
    assert np.all(0.4 * z.sum(axis=1) < 1.0)
    assert np.all(xs >= 0.0)


def test_cdf_matches_exact_exponential_case():
    # alpha = 1 admits an elementary antiderivative to compare against
    p = SystemParams(1, 0.2, 1.0, 1.0, 1.0)
    cdf = reversible_cdf_1d(p)
    xv = np.array([0.3, 1.0, 2.5, 8.0, 20.0])
    g = -np.expm1(-0.2 * xv) / 0.2
    exact = -np.expm1(-g) / -math.expm1(-1.0 / 0.2)
    assert cdf(xv) == pytest.approx(exact, abs=1e-15)
    assert cdf(0.0) == 0.0


@pytest.mark.parametrize("sigma,alpha,t", [(0.2, 0.5, 1.0), (0.2, 1.5, 1.0),
                                             (0.3, 3.0, 0.7)])
def test_cdf_matches_density_quadrature(sigma, alpha, t):
    p = SystemParams(1, sigma, alpha, t, t)
    cdf = reversible_cdf_1d(p)
    mass = reversible_mass(p)

    # the density of x is the Gamma(alpha, T) density at z = g(x) times the
    # Jacobian of g, exp(-sigma * sum_i E_i(x)); x = y^2 keeps the integrand
    # bounded at the origin when alpha < 1
    def integrand(y):
        x = np.array([y * y])
        z = float(map_g(x, p)[0])
        log_gamma = ((alpha - 1.0) * math.log(z) - z / t - math.lgamma(alpha)
                     - alpha * math.log(t))
        return 2.0 * y * math.exp(log_gamma - sigma * partial_energies(x)[:-1].sum())

    for x in (0.05, 0.5, 2.0, 6.0, 25.0):
        want = integrate.quad(integrand, 0.0, math.sqrt(x),
                              epsabs=1e-14, epsrel=1e-13)[0] / mass
        assert abs(cdf(x) - want) < 1e-10, x
    assert cdf(0.0) == 0.0 and cdf(-1.0) == 0.0 and cdf(math.inf) == 1.0
    xs = np.concatenate([np.geomspace(1e-9, 1.0, 500),
                         np.linspace(1.0, 20.0 / sigma, 2000)])
    assert np.all(np.diff(cdf(xs)) >= 0.0)
    wide = cdf(np.linspace(-5.0, 500.0, 20_001))
    assert np.all((wide >= 0.0) & (wide <= 1.0))


def test_cdf_guards():
    with pytest.raises(ParameterError):
        reversible_cdf_1d(SystemParams(2, 0.2, 1.0, 1.0, 1.0))
    with pytest.raises(ParameterError):
        reversible_cdf_1d(SystemParams(1, 0.0, 1.0, 1.0, 1.0))
