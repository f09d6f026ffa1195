from collections import Counter

import numpy as np
import pytest

from abep import (SystemParams, final_state_counts, gillespie_run,
                  mc_absorption, run_to_time, sip_rates)
from abep.errors import ParameterError, SimulationCap

RNG = np.random.default_rng(77)


def test_rate_table_two_sites():
    # one particle per site, alpha = 1: interior jumps see the neighbor
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    rates = sip_rates(np.array([0, 1, 1, 0]), p)
    total = sum(r for _, r in rates)
    assert total == pytest.approx(6.0)
    by_target = {tuple(t): r for t, r in rates}
    assert by_target[(1, 0, 1, 0)] == pytest.approx(1.0)   # absorb left
    assert by_target[(0, 0, 2, 0)] == pytest.approx(2.0)   # join right
    assert by_target[(0, 2, 0, 0)] == pytest.approx(2.0)   # join left
    assert by_target[(0, 1, 0, 1)] == pytest.approx(1.0)   # absorb right


def test_rate_table_single_particle():
    p = SystemParams(3, 0.0, 0.7, 1.0, 1.0)
    rates = sip_rates(np.array([0, 0, 1, 0, 0]), p)
    assert len(rates) == 2
    for target, r in rates:
        assert r == pytest.approx(0.7)


def test_rate_table_boundary_is_occupation_rate():
    # absorption happens at the bare occupation rate, independent of alpha
    p = SystemParams(1, 0.0, 3.5, 1.0, 1.0)
    rates = sip_rates(np.array([0, 4, 0]), p)
    total = sum(r for _, r in rates)
    assert total == pytest.approx(8.0)


def test_rates_empty_configuration():
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    assert sip_rates(np.array([3, 0, 0, 2]), p) == []


def test_gillespie_conserves_particles():
    p = SystemParams(4, 0.0, 1.0, 1.0, 1.0)
    xi0 = np.array([0, 2, 0, 1, 3, 0])
    final, t = gillespie_run(xi0, p, seed=3)
    assert final.sum() == xi0.sum()
    assert final[1:-1].sum() == 0
    assert t > 0.0


def test_gillespie_rejects_bad_config():
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        gillespie_run(np.array([0, 1, 1]), p, seed=0)
    with pytest.raises(ParameterError):
        gillespie_run(np.array([0, -1, 2, 0]), p, seed=0)


def test_gillespie_event_cap():
    p = SystemParams(3, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(SimulationCap):
        gillespie_run(np.array([0, 5, 5, 5, 0]), p, seed=0, max_events=10)


def test_run_to_time_stops_early():
    p = SystemParams(3, 0.0, 1.0, 1.0, 1.0)
    xi0 = np.array([0, 1, 1, 1, 0])
    final, t = run_to_time(xi0, p, t_horizon=0.05, seed=9)
    assert t <= 0.05
    assert final.sum() == 3


def test_single_particle_absorption_frequencies():
    """A lone walker from the middle site exits either side evenly."""
    p = SystemParams(3, 0.0, 1.0, 1.0, 1.0)
    freq = mc_absorption(np.array([0, 0, 1, 0, 0]), p, n_runs=20_000, seed=4)
    est, se = freq[(1, 0)]
    assert abs(est - 0.5) < 3 * se
    est, se = freq[(0, 1)]
    assert abs(est - 0.5) < 3 * se


def test_pair_absorption_quarters():
    p = SystemParams(1, 0.0, 1.0, 1.0, 1.0)
    freq = mc_absorption(np.array([0, 2, 0]), p, n_runs=30_000, seed=11)
    for key, prob in (((2, 0), 0.25), ((0, 2), 0.25), ((1, 1), 0.5)):
        est, se = freq[key]
        assert abs(est - prob) < 3 * se


def test_final_state_counts_at_horizon():
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    xi0 = np.array([0, 1, 0, 0])
    counts = final_state_counts(xi0, p, n_runs=2000, t_horizon=0.1, seed=5)
    assert isinstance(counts, Counter)
    assert sum(counts.values()) == 2000
    for config in counts:
        assert sum(config) == 1
    # at a short horizon most walkers have not moved yet
    assert counts[(0, 1, 0, 0)] > 1000


def test_gillespie_two_particles_match_exact_split():
    from abep import two_particle_solve
    p = SystemParams(2, 0.0, 2.0, 1.0, 1.0)
    exact = two_particle_solve(1, 2, p, edge="unit")
    freq = mc_absorption(np.array([0, 1, 1, 0]), p, n_runs=20_000, seed=8)
    est, se = freq[(1, 1)]
    assert abs(est - exact.p_split) < 3 * se
