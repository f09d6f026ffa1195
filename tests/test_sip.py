import hashlib
import itertools
from collections import Counter

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from abep import SystemParams, final_state_counts, mc_absorption, sip_rates
from abep.absorption import _exit_table, _generator
from abep.errors import ParameterError, SimulationCap
from abep.rng import stream
from abep.sip import _edge_rate, _occupied, _rate_table, _simulate

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
    final, t = _simulate(xi0, p, 50, stream(3, "gillespie"))
    assert np.all(final.sum(axis=1) == xi0.sum())
    assert not final[:, 1:-1].any()
    assert np.all(t > 0.0)


def test_gillespie_event_cap():
    p = SystemParams(3, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(SimulationCap):
        _simulate(np.array([0, 5, 5, 5, 0]), p, 1, stream(0, "gillespie"),
                  max_events=10)


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


def _moves_reference(occ, n, alpha, edge):
    """(source, target, rate) of every jump, as a per-site loop in Python."""
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


def _generator_reference(n, k, alpha, edge):
    """The sparse walker generator built state by state from the loop."""
    states = list(itertools.combinations_with_replacement(range(n + 2), k))
    index = {s: r for r, s in enumerate(states)}
    rows, cols, rates = [], [], []
    for r, s in enumerate(states):
        occ = [0] * (n + 2)
        for site in s:
            occ[site] += 1
        for src, dst, rate in _moves_reference(occ, n, alpha, edge):
            t = list(s)
            t[t.index(src)] = dst
            t.sort()
            rows.append(r)
            cols.append(index[tuple(t)])
            rates.append(rate)
    return states, sparse.csr_matrix((rates, (rows, cols)),
                                     shape=(len(states), len(states)))


def _configurations(n, max_walkers):
    for k in range(1, max_walkers + 1):
        for sites in itertools.combinations_with_replacement(range(n + 2), k):
            yield np.bincount(sites, minlength=n + 2)


@pytest.mark.parametrize("edge", ["unit", "walk"])
def test_rate_table_matches_per_site_loop(edge):
    for n in range(1, 5):
        for alpha in (0.5, 1.0, 2.5):
            p = SystemParams(n, 0.0, alpha, 1.0, 1.0)
            for occ in _configurations(n, 3):
                want = _moves_reference(occ.tolist(), n, alpha, edge)
                table = _rate_table(occ[None], alpha, edge)
                cols = np.flatnonzero(_occupied(occ[None])[0])
                src = cols // 2 + 1
                got = list(zip(src.tolist(), (src + 2 * (cols % 2) - 1).tolist(),
                               table[0, cols].tolist()))
                # the same floats in the same order, not approximately
                assert got == want
                assert not table[0, np.setdiff1d(range(2 * n), cols)].any()
                if edge == "unit":
                    rates = sip_rates(occ, p)
                    assert [r for _, r in rates] == [r for _, _, r in want]
                    for (target, _), (s, d, _) in zip(rates, want):
                        step = np.zeros(n + 2, dtype=np.int64)
                        step[s] -= 1
                        step[d] += 1
                        assert target.tolist() == (occ + step).tolist()


@pytest.mark.parametrize("edge", ["unit", "walk"])
def test_generator_matches_per_site_build(edge):
    # alpha = 0 keeps the zero-rate jumps of occupied sites as stored zeros
    for n in range(1, 6):
        for k in (1, 2, 3):
            for alpha in (0.0, 0.5, 1.0, 2.5):
                states, q = _generator(n, k, alpha, edge)
                ref_states, ref = _generator_reference(n, k, alpha, edge)
                assert states == ref_states
                for attr in ("indptr", "indices", "data"):
                    got, want = getattr(q, attr), getattr(ref, attr)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (n, k, alpha, attr)


def _z(freq, prob, runs):
    if prob == 0.0:
        return 0.0 if freq == 0.0 else np.inf
    return (freq - prob) / np.sqrt(prob * (1.0 - prob) / runs)


@pytest.mark.parametrize("sites", [(1,), (1, 2)])
def test_final_state_counts_match_exact_law(sites):
    """The configuration law at t = 0.5 against the row of expm(Q t)."""
    p = SystemParams(2, 0.05, 2.0, 0.5, 1.5)
    runs, t = 20_000, 0.5
    states, q = _generator(2, len(sites), p.alpha, "unit")
    q = q.toarray()
    law = expm((q - np.diag(q.sum(axis=1))) * t)[states.index(sites)]
    xi0 = np.bincount(sites, minlength=4)
    counts = final_state_counts(xi0, p, runs, t, seed=3)
    assert sum(counts.values()) == runs
    seen = {tuple(np.bincount(s, minlength=4).tolist()): pr
            for s, pr in zip(states, law)}
    assert set(counts) <= set(seen)
    for config, prob in seen.items():
        assert abs(_z(counts[config] / runs, prob, runs)) < 4.5, config


@pytest.mark.parametrize("sites", [(2,), (1, 3), (2, 2), (1, 2, 3)])
def test_mc_absorption_matches_exit_table(sites):
    p = SystemParams(3, 0.0, 1.5, 1.0, 1.0)
    runs = 20_000
    rows, outcomes, h = _exit_table(3, len(sites), p.alpha, "unit")
    law = h[rows[sites]]
    freq = mc_absorption(np.bincount(sites, minlength=5), p, runs, seed=6)
    assert set(freq) <= set(outcomes)
    for outcome, prob in zip(outcomes, law):
        f, _ = freq.get(outcome, (0.0, 0.0))
        assert abs(_z(f, prob, runs)) < 4.5, outcome


def test_same_seed_same_counts():
    p = SystemParams(3, 0.0, 1.0, 1.0, 1.0)
    xi0 = np.array([0, 1, 0, 1, 0])
    a = final_state_counts(xi0, p, 3000, 0.4, seed=21)
    assert a == final_state_counts(xi0, p, 3000, 0.4, seed=21)
    assert a != final_state_counts(xi0, p, 3000, 0.4, seed=22)
    assert mc_absorption(xi0, p, 3000, seed=21) == mc_absorption(xi0, p, 3000, seed=21)


def test_event_cap_counts_events_per_run():
    # two walkers on one site: every run absorbs in exactly two events
    p = SystemParams(1, 0.0, 1.0, 1.0, 1.0)
    assert sum(f for f, _ in mc_absorption([0, 2, 0], p, 500, max_events=2).values()) == 1.0
    with pytest.raises(SimulationCap):
        mc_absorption([0, 2, 0], p, 500, max_events=1)
    # one walker next to the left edge: about half the runs need one event,
    # the others at least three, so the batch passes the cap in some runs
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(SimulationCap):
        mc_absorption([0, 1, 0, 0], p, 64, max_events=1)
    with pytest.raises(SimulationCap):
        final_state_counts([0, 1, 0, 0], p, 64, 100.0, max_events=1)


# counts a tolerance would round to integers must still be rejected
@pytest.mark.parametrize("xi0", [[0, 1, 1], [0, -1, 2, 0], [0, 0.5, 1, 0],
                                 [[0, 1, 1, 0]], [0, 1.000001, 0, 0],
                                 [0, 100000.4, 0, 0], [0, np.inf, 0, 0]])
def test_batched_calls_reject_bad_config(xi0):
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        mc_absorption(xi0, p, 10)
    with pytest.raises(ParameterError):
        final_state_counts(xi0, p, 10, 0.5)


def _digest(items) -> str:
    return hashlib.sha256(repr(sorted(items)).encode()).hexdigest()


# The digests pin the particle-side streams at seed 0, so a change to how
# runs draw their uniforms cannot move these results silently.  The
# horizon counts also go through np.log, but only in comparisons against
# the horizon, which a last-bit difference in log would flip with
# negligible probability.
def test_pinned_bytes_final_state_counts():
    # the two-walker particle side of the duality-mc benchmark workload
    p = SystemParams(2, 0.05, 2.0, 0.5, 1.5)
    counts = final_state_counts([0, 1, 1, 0], p, 10_000, 0.5, seed=0)
    assert _digest(counts.items()) == \
        "6e4edcfa885246cedcca54eb5c127f44cef17b94f627423dd6efd0ba50a50833"


def test_pinned_bytes_mc_absorption():
    # the mc_absorption_pair operation of the dual-exact benchmark workload
    p = SystemParams(2, 0.0, 2.0, 1.0, 1.0)
    freq = mc_absorption((0, 1, 1, 0), p, 5_000, seed=0)
    assert _digest(freq.items()) == \
        "a24a3ec8c39ec510e8590a7ad760c88335ba04f30657fc5f8720e55dabf6281b"
