import hashlib
import itertools
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from abep import SystemParams, final_state_counts, mc_absorption, sip_rates
from abep.absorption import _exit_table, _generator
from abep.errors import ParameterError, SimulationCap
from abep.rng import stream
import abep.sip
from abep.sip import _edge_rate, _jump, _rate_table, _simulate

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


def test_gillespie_event_cap(monkeypatch):
    p = SystemParams(3, 0.0, 1.0, 1.0, 1.0)
    monkeypatch.setattr(abep.sip, "MAX_EVENTS", 10)
    with pytest.raises(SimulationCap, match="exceeded 10 events"):
        _simulate(np.array([0, 5, 5, 5, 0]), p, 1, stream(0, "gillespie"))


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


def test_rate_table_matches_per_site_loop():
    # the simulated unit edge; the walk rates are checked through the exit
    # generator in test_generator_matches_per_site_build
    for n in range(1, 5):
        for alpha in (0.5, 1.0, 2.5):
            p = SystemParams(n, 0.0, alpha, 1.0, 1.0)
            for occ in _configurations(n, 3):
                want = _moves_reference(occ.tolist(), n, alpha, "unit")
                table = _rate_table(occ[:, None], alpha)[:, 0]
                rows = np.flatnonzero(np.repeat(occ[1:-1] > 0, 2))
                src = rows // 2 + 1
                got = list(zip(src.tolist(), (src + 2 * (rows % 2) - 1).tolist(),
                               table[rows].tolist()))
                # the same floats in the same order, not approximately
                assert got == want
                assert not table[np.setdiff1d(range(2 * n), rows)].any()
                rates = sip_rates(occ, p)
                assert [r for _, r in rates] == [r for _, _, r in want]
                for (target, _), (s, d, _) in zip(rates, want):
                    step = np.zeros(n + 2, dtype=np.int64)
                    step[s] -= 1
                    step[d] += 1
                    assert target.tolist() == (occ + step).tolist()


@pytest.mark.parametrize("edge", ["unit", "walk"])
def test_generator_matches_per_site_build(edge):
    # alpha = 0 keeps the zero-rate jumps of occupied sites as stored zeros;
    # at N = 1 every walker sits on the one site that is first and last
    cases = [(n, k) for n in range(1, 6) for k in (1, 2, 3)] + [(1, 4), (8, 4), (12, 3)]
    for n, k in cases:
        for alpha in (0.0, 0.5, 1.0, 2.5):
            states, q = _generator(n, k, alpha, edge)
            ref_states, ref = _generator_reference(n, k, alpha, edge)
            assert states.tolist() == [list(s) for s in ref_states]
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
    law = expm((q - np.diag(q.sum(axis=1))) * t)[states.tolist().index(list(sites))]
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


def test_jump_refuses_a_strided_batch():
    # a flat view of a strided batch would be a copy, and the jumps lost
    batch = np.ones((4, 6), dtype=np.int64)[:, ::2]
    with pytest.raises(ValueError, match="C-contiguous"):
        _jump(batch, np.array([0, 1, 2]))
    assert batch.tolist() == [[1] * 3] * 4


class _FixedUniforms:
    """A stand-in generator whose every uniform is u; counts its rounds."""

    def __init__(self, u):
        self.u, self.rounds = u, 0

    def random(self, shape):
        self.rounds += 1
        return np.full(shape, self.u)


def test_round_off_guard_takes_a_move_of_positive_rate():
    # a lone walker at site 2 of N = 3 hops either way at the smallest
    # subnormal rate, so u * total rounds up to total and every cumulative
    # rate lies at or below it: their count, 2N, names no row, and the guard
    # must take the hop 2 -> 3, the last row of positive rate.  The wait
    # overflows to inf, its rounded value, without a RuntimeWarning
    p = SystemParams(3, 0.0, 5e-324, 1.0, 1.0)
    total = 2 * p.alpha
    assert np.nextafter(1.0, 0.0) * total == total == 0.9 * total
    rng = _FixedUniforms(0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        occ, t = _simulate(np.array([0, 0, 1, 0, 0]), p, 1, rng)
    # the second round exits right from site 3 at rate 1
    assert occ.tolist() == [[0, 0, 0, 0, 1]]
    assert t.tolist() == [np.inf]
    assert rng.rounds == 2


def test_event_cap_counts_events_per_run(monkeypatch):
    # two walkers on one site: every run absorbs in exactly two events
    p = SystemParams(1, 0.0, 1.0, 1.0, 1.0)
    monkeypatch.setattr(abep.sip, "MAX_EVENTS", 2)
    assert sum(f for f, _ in mc_absorption([0, 2, 0], p, 500).values()) == 1.0
    monkeypatch.setattr(abep.sip, "MAX_EVENTS", 1)
    with pytest.raises(SimulationCap):
        mc_absorption([0, 2, 0], p, 500)
    # one walker next to the left edge: about half the runs need one event,
    # the others at least three, so the batch passes the cap in some runs
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(SimulationCap):
        mc_absorption([0, 1, 0, 0], p, 64)
    with pytest.raises(SimulationCap):
        final_state_counts([0, 1, 0, 0], p, 64, 100.0)


# counts a tolerance would round to integers must still be rejected
@pytest.mark.parametrize("xi0", [[0, 1, 1], [0, -1, 2, 0], [0, 0.5, 1, 0],
                                 [[0, 1, 1, 0]], [0, 1.000001, 0, 0],
                                 [0, 100000.4, 0, 0], [0, np.inf, 0, 0],
                                 [0, 1e20, 0, 0], [False, True, False, False]])
def test_batched_calls_reject_bad_config(xi0):
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        mc_absorption(xi0, p, 10)
    with pytest.raises(ParameterError):
        final_state_counts(xi0, p, 10, 0.5)


@pytest.mark.parametrize("n_runs, t_horizon", [(0, 0.5), (-3, 0.5), (10, -1.0),
                                              (10, np.nan), (10, -np.inf),
                                              (2.5, 0.5), (np.inf, 0.5),
                                              (np.nan, 0.5), (True, 0.5), ("3", 0.5)])
def test_batched_calls_reject_bad_runs_and_horizon(n_runs, t_horizon):
    # a negative or nan horizon would return the start configuration or run
    # every run to absorption, n_runs below 1 has nothing to count, and a
    # count is a whole number (2.0 is, 2.5, inf, True and "3" are not)
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ParameterError, match="n_runs|horizon"):
        final_state_counts([0, 1, 0, 0], p, n_runs, t_horizon)
    if t_horizon == 0.5:                # the run count is the bad argument
        with pytest.raises(ParameterError, match="n_runs"):
            mc_absorption([0, 1, 0, 0], p, n_runs)


def test_batched_calls_take_whole_float_counts():
    p = SystemParams(2, 0.05, 2.0, 0.5, 1.5)
    xi0 = [0, 1, 1, 0]
    assert mc_absorption(xi0, p, 50.0, seed=1) == mc_absorption(xi0, p, 50, seed=1)
    assert (final_state_counts(xi0, p, 50.0, 0.3, seed=1)
            == final_state_counts(xi0, p, 50, 0.3, seed=1))


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


# (N, alpha, start, n_runs, t_max): runs to absorption and to a horizon at
# N = 1, 2, 5 and 40 with 1 to 6 walkers, a single run, a start with no bulk
# walker and a zero horizon
_RAW_CASES = [
    (1, 1.0, (0, 3, 0), 400, None,
     "976e410ca463489fb487b2bb7125dab673fa0c27dd8c57a2030591b32f6731ba"),
    (1, 0.5, (0, 1, 0), 1, None,
     "3b7b1245c8f02b3167cb36ba645ccfb371a7db720c958a113c99895c598a2357"),
    (2, 2.0, (0, 1, 1, 0), 2000, None,
     "416b090cd968858a5ee40c0689a133d48805a7881484f8b5bf20ab628b9508c2"),
    (2, 2.0, (0, 1, 1, 0), 2000, 0.5,
     "06fc7916d66f5ad191629ca0f7c0fd0af45d1a380d19300177e98d2dce1efff5"),
    (5, 0.5, (0, 2, 0, 1, 0, 3, 0), 300, None,
     "1a65f2759a95cc98b6e78cbc6960e333cf724888f0d99cb194aa56d66d274f0d"),
    (5, 1.5, (1, 0, 4, 0, 0, 2, 0), 300, 0.3,
     "3f5dd85ad8e544bebb53ad6eb7f9e1bc0bbf27e7319879c9b921b85597202c65"),
    (5, 1.0, (0, 0, 1, 0, 0, 0, 0), 1, 2.0,
     "bc3dfe9c7620a72c8a6deb2fdb4f71d4f7e8c39722f5528e338a5177531cb4e7"),
    (40, 1.0, {20: 1}, 20, None,
     "e0797b7e67a409e78d32249e1b02b24c1ff93a86878940ad40982263af88fdf7"),
    (40, 0.7, {5: 1, 6: 1, 30: 2}, 50, 1.0,
     "45b950c4eaef3bc6f0339013be18367b419ba08d6200f2870a75a9ede9694c0b"),
    (3, 1.0, (2, 0, 0, 0, 1), 5, None,
     "7725f04a3cd1d7db01d859b3c719e3b30e5415df6feba6d3205aa594f2354487"),
    (3, 1.0, (0, 1, 0, 2, 0), 7, 0.0,
     "97f17ff8d5a5bf79b26b373e62e77ac84bea8db9a42351dd9030105575a8a429"),
]


@pytest.mark.usefixtures("pinned_log")
@pytest.mark.parametrize("n, alpha, start, runs, t_max, digest", _RAW_CASES)
def test_pinned_bytes_simulate(n, alpha, start, runs, t_max, digest):
    # the raw output: final occupations, stop times, and the next uniform of
    # the stream, so the number of uniforms drawn is pinned too
    if isinstance(start, dict):
        start = [start.get(i, 0) for i in range(n + 2)]
    rng = stream(0, "pin")
    occ, t = _simulate(np.array(start, dtype=np.int64),
                       SystemParams(n, 0.0, alpha, 1.0, 1.0), runs, rng, t_max)
    assert occ.dtype == np.int64 and occ.shape == (runs, n + 2)
    assert t.dtype == np.float64 and t.shape == (runs,)
    raw = occ.tobytes() + t.tobytes() + rng.random(1).tobytes()
    assert hashlib.sha256(raw).hexdigest() == digest
