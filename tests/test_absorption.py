from fractions import Fraction

import numpy as np
import pytest

from abep import (SystemParams, mc_absorption, single_absorption_solve,
                  single_right_closed, sip_rates, two_particle_closed_form,
                  two_particle_solve)
from abep.absorption import _exit_table, _generator
from abep.errors import ParameterError, SingularSystem, ToolkitError


def params(n, alpha):
    return SystemParams(n, 0.0, alpha, 1.0, 1.0)


def test_single_symmetry_center():
    assert single_right_closed(2, 3, 1.0) == 0.5
    assert single_right_closed(1, 1, 1.0) == 0.5
    assert single_absorption_solve(2, params(3, 1.0)) == pytest.approx((0.5, 0.5))
    assert single_absorption_solve(1, params(1, 1.0)) == pytest.approx((0.5, 0.5))


def test_single_linear_profile():
    pl, pr = single_absorption_solve(1, params(4, 1.0))
    assert pl == pytest.approx(0.8)
    assert pr == pytest.approx(0.2)
    for i in range(1, 5):
        _, pr = single_absorption_solve(i, params(4, 2.5), edge="walk")
        assert pr == pytest.approx(i / 5.0)


def test_single_out_of_range():
    with pytest.raises(IndexError):
        single_absorption_solve(0, params(3, 1.0))
    with pytest.raises(IndexError):
        single_absorption_solve(4, params(3, 1.0))
    # a typed error, so the CLI reports it without catching IndexError
    with pytest.raises(ToolkitError):
        single_absorption_solve(4, params(3, 1.0))


@pytest.mark.parametrize("alpha,expected", [
    (0.5, [Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)]),
    (2.0, [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]),
])
def test_single_solve_unit_edge(alpha, expected):
    # with boundary jumps at the bare occupation rate the exit profile
    # shifts away from the uniform-walk line unless alpha = 1
    p = params(3, alpha)
    for i, frac in enumerate(expected, start=1):
        _, pr = single_absorption_solve(i, p, edge="unit")
        assert pr == pytest.approx(float(frac), abs=1e-13)
        assert single_right_closed(i, 3, alpha, "unit") == pytest.approx(float(frac))


def test_single_edge_conventions_match_at_alpha_one():
    p = params(5, 1.0)
    for i in range(1, 6):
        walk = single_absorption_solve(i, p, edge="walk")
        unit = single_absorption_solve(i, p, edge="unit")
        assert walk == pytest.approx(unit)


def test_pair_hand_enumeration():
    res = two_particle_solve(1, 1, params(1, 1.0))
    assert res.p_both_left == pytest.approx(0.25, abs=1e-13)
    assert res.p_both_right == pytest.approx(0.25, abs=1e-13)
    assert res.p_split == pytest.approx(0.5, abs=1e-13)
    closed = two_particle_closed_form(1, 1, params(1, 1.0))
    assert closed.as_tuple() == pytest.approx(res.as_tuple(), abs=1e-13)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_closed_form_matches_solver(n, alpha):
    p = params(n, alpha)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            a = two_particle_solve(i, j, p, edge="walk")
            b = two_particle_closed_form(i, j, p)
            assert max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple())) < 1e-10
            assert a.total == pytest.approx(1.0, abs=1e-12)
            assert b.total == pytest.approx(1.0, abs=1e-12)


def test_closed_form_example_i1_jn():
    n, alpha = 5, 2.0
    res = two_particle_closed_form(1, n, params(n, alpha))
    k = (n + 1) * (alpha * (n + 1) + 1)
    assert res.p_both_left == pytest.approx((alpha * n + 1) / k)


def test_pair_unit_edge_frozen_values():
    """Exact fractions from an independent rational-arithmetic solve."""
    res = two_particle_solve(1, 1, params(1, 2.0), edge="unit")
    assert res.as_tuple() == pytest.approx((0.25, 0.25, 0.5), abs=1e-13)
    res = two_particle_solve(1, 2, params(2, 2.0), edge="unit")
    assert res.as_tuple() == pytest.approx((0.25, 0.25, 0.5), abs=1e-13)
    res = two_particle_solve(1, 3, params(3, 0.5), edge="unit")
    expect = (float(Fraction(13, 84)), float(Fraction(13, 84)),
              float(Fraction(29, 42)))
    assert res.as_tuple() == pytest.approx(expect, abs=1e-13)


def test_pair_monotonicity_in_start_sites():
    p = params(6, 1.3)
    for j in range(1, 7):
        vals = [two_particle_solve(i, j, p).p_both_left for i in range(1, j + 1)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    for i in range(1, 7):
        vals = [two_particle_solve(i, j, p).p_both_left for j in range(i, 7)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_pair_reflection_symmetry():
    n = 5
    p = params(n, 0.8)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            a = two_particle_solve(i, j, p)
            b = two_particle_solve(n + 1 - j, n + 1 - i, p)
            assert a.p_both_left == pytest.approx(b.p_both_right, abs=1e-12)
            assert a.p_split == pytest.approx(b.p_split, abs=1e-12)


def test_pair_out_of_range():
    p = params(4, 1.0)
    with pytest.raises(IndexError):
        two_particle_solve(0, 2, p)
    with pytest.raises(IndexError):
        two_particle_solve(3, 2, p)
    with pytest.raises(IndexError):
        two_particle_closed_form(2, 5, p)


def test_gillespie_agrees_with_exact_pair():
    p = params(2, 1.0)
    exact = two_particle_solve(1, 2, p)
    runs = 20_000
    freq = mc_absorption(np.array([0, 1, 1, 0]), p, n_runs=runs, seed=2)
    table = {
        (2, 0): exact.p_both_left,
        (0, 2): exact.p_both_right,
        (1, 1): exact.p_split,
    }
    for key, prob in table.items():
        est, se = freq[key]
        assert abs(est - prob) < 3 * se


def test_singular_system_error_exists():
    assert issubclass(SingularSystem, Exception)


@pytest.mark.parametrize("k", [1, 2])
def test_singular_system_raised_when_factorisation_fails(k):
    # alpha = 0 leaves an isolated walker with no way out
    with pytest.raises(SingularSystem):
        _exit_table(3, k, 0.0, "walk")


@pytest.mark.parametrize("edge", ["walk", "unit"])
def test_pair_mean_rule_at_large_n(edge):
    # the expected number absorbed right is linear in the walkers (the
    # inclusion terms cancel), so it is the sum of the one-walker values
    n, alpha = 40, 2.0
    p = params(n, alpha)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            res = two_particle_solve(i, j, p, edge=edge)
            want = (single_right_closed(i, n, alpha, edge)
                    + single_right_closed(j, n, alpha, edge))
            assert abs(2 * res.p_both_right + res.p_split - want) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_engine_rates_are_the_simulated_rates(k):
    n = 3
    p = SystemParams(n, 0.0, 0.7, 1.0, 1.0)
    states, q = _generator(n, k, p.alpha, "unit")
    for row, sites in enumerate(states):
        occ = np.bincount(sites, minlength=n + 2)
        want = {}
        for tgt, rate in sip_rates(occ, p):
            want[tuple(tgt)] = want.get(tuple(tgt), 0.0) + rate
        got = {tuple(np.bincount(states[col], minlength=n + 2)): q[row, col]
               for col in q[row].indices}
        assert got == pytest.approx(want, abs=1e-15)


def test_defaults_are_the_simulated_unit_walkers():
    p = params(4, 2.0)
    assert single_right_closed(1, 4, 2.0) == single_right_closed(1, 4, 2.0, "unit")
    assert single_right_closed(1, 4, 2.0) != single_right_closed(1, 4, 2.0, "walk")
    assert single_absorption_solve(1, p) == single_absorption_solve(1, p, edge="unit")
    assert two_particle_solve(1, 3, p) == two_particle_solve(1, 3, p, edge="unit")
    assert two_particle_solve(1, 3, p) != two_particle_solve(1, 3, p, edge="walk")


def test_unknown_edge_is_a_parameter_error():
    with pytest.raises(ParameterError):
        single_right_closed(1, 3, 1.0, edge="wall")
    with pytest.raises(ParameterError):
        two_particle_solve(1, 2, params(3, 1.0), edge="wall")


def test_single_right_closed_walk_is_the_uniform_line():
    for n in range(1, 12):
        for i in range(1, n + 1):
            for alpha in (0.5, 1.0, 2.0):
                assert single_right_closed(i, n, alpha, "walk") == i / (n + 1)


@pytest.mark.parametrize("edge", ["walk", "unit"])
def test_array_sites_equal_scalar_calls(edge):
    n = 6
    p = params(n, 1.7)
    sites = np.arange(1, n + 1)
    pl, pr = single_absorption_solve(sites, p, edge=edge)
    assert list(zip(pl, pr)) == [single_absorption_solve(int(i), p, edge=edge)
                                 for i in sites]
    i, j = np.triu_indices(n)
    i, j = i + 1, j + 1
    routes = [lambda a, b: two_particle_solve(a, b, p, edge=edge)]
    if edge == "walk":
        routes.append(lambda a, b: two_particle_closed_form(a, b, p))
    for route in routes:
        assert list(zip(*route(i, j).as_tuple())) == \
            [route(int(a), int(b)).as_tuple() for a, b in zip(i, j)]
