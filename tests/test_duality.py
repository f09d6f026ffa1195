import itertools
import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from abep import (SystemParams, classical_D, classical_D_sigma,
                  final_state_counts, generator_duality_residual, laguerre_d, map_g,
                  orthogonal_D, orthogonal_D_sigma, pochhammer,
                  semigroup_duality_check, sip_rates)
import abep.duality as duality
import abep.sde as sde
from abep.cli import run
from abep.errors import NumericalBlowup, ParameterError

RNG = np.random.default_rng(4096)


def test_pochhammer_small_cases():
    assert pochhammer(2.0, 0) == 1.0
    assert pochhammer(2.0, 1) == 2.0
    assert pochhammer(2.0, 3) == 2.0 * 3.0 * 4.0
    assert pochhammer(0.5, 2) == pytest.approx(0.75)
    assert pochhammer(2.0, 2.0) == pochhammer(2.0, 2)


@pytest.mark.parametrize("a", [0.5, 2.0, 1e300, -1.5, -3.0])
def test_pochhammer_matches_the_full_product(a):
    # stopping at an overflow returns what the product of all k factors is
    for k in (0, 1, 5, 170, 171, 172, 400):
        full = 1.0
        for j in range(k):
            full *= a + j
        assert repr(pochhammer(a, k)) == repr(full), k


def test_pochhammer_stops_once_the_product_overflows():
    # the product of k = 1e18 factors would take centuries to finish
    t0 = time.perf_counter()
    assert pochhammer(2.0, 10**18) == math.inf
    p = SystemParams(2, 0.0, 2.0, 0.5, 1.5)
    z = np.array([[0.0, 0.3], [0.5, 0.2], [0.999, 0.9]])
    # such a site count has no float (alpha)_k: refused, and just as fast
    with pytest.raises(ParameterError, match=r"\(alpha\)_k leaves the float range"):
        classical_D(z, [0, 3 * 10**18, 0, 0], p)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("k", [2.7, -3, np.nan, np.inf, True])
def test_pochhammer_and_laguerre_reject_bad_degree(k):
    # a degree is a whole number >= 0: 2.7 would truncate to 2, -3 give 1
    with pytest.raises(ParameterError, match="k must be a whole number"):
        pochhammer(2.0, k)
    with pytest.raises(ParameterError, match="k must be a whole number"):
        laguerre_d(np.array([1.0]), k, 1.0, 1.0)


@pytest.mark.parametrize("k", range(6))
@pytest.mark.parametrize("alpha", [0.7, 1.0, 2.3])
def test_laguerre_d_matches_scipy(k, alpha):
    t = 1.3
    z = RNG.uniform(0.0, 4.0, 40)
    mine = laguerre_d(z, k, alpha, t)
    ref = ((-t) ** k * math.factorial(k) / pochhammer(alpha, k)
           * eval_genlaguerre(k, alpha - 1, z / t))
    assert mine == pytest.approx(ref, rel=1e-10, abs=1e-12)


def test_laguerre_d_rejects_bad_temperature():
    for t in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ParameterError):
            laguerre_d(np.array([1.0]), 2, 1.0, t)


@pytest.mark.parametrize("alpha", [0.0, -1.0, -0.5, np.nan, np.inf])
def test_laguerre_d_rejects_bad_alpha(alpha):
    # the SystemParams rule: alpha = 0 used to escape as ZeroDivisionError
    # from (alpha)_j, and a negative, nan or infinite alpha gave a value
    with pytest.raises(ParameterError, match="alpha must be finite and > 0"):
        laguerre_d(1.0, 1, alpha, 1.0)


@pytest.mark.parametrize("xi", [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
@pytest.mark.parametrize("t", [0.0, -1.0, np.nan, np.inf])
def test_orthogonal_d_rejects_bad_temperature_without_bulk_particles(xi, t):
    # no occupied bulk site, so no Laguerre factor: t is still checked
    p = SystemParams(2, 0.1, 1.0, 0.5, 1.5)
    with pytest.raises(ParameterError, match="orthogonal parameter t"):
        orthogonal_D([0.5, 0.5], np.array(xi), p, t)
    with pytest.raises(ParameterError, match="orthogonal parameter t"):
        orthogonal_D_sigma([0.5, 0.5], np.array(xi), p, t)


@pytest.mark.parametrize("k", range(1, 6))
def test_laguerre_d_zero_mean_under_gamma(k):
    """Each polynomial is orthogonal to constants under the matching Gamma."""
    alpha, t = 1.5, 0.7
    samples = RNG.gamma(alpha, t, size=100_000)
    vals = laguerre_d(samples, k, alpha, t)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) < 3 * se


def test_classical_d_single_particle_value():
    p = SystemParams(2, 0.0, 2.0, 1.0, 3.0)
    z = np.array([0.8, 0.4])
    assert classical_D(z, np.array([0, 1, 0, 0]), p) == pytest.approx(0.8 / 2.0)
    assert classical_D(z, np.array([0, 0, 0, 2]), p) == pytest.approx(9.0)
    assert classical_D(z, np.array([1, 0, 0, 0]), p) == pytest.approx(1.0)
    assert classical_D(z, np.array([0, 0, 0, 0]), p) == pytest.approx(1.0)


def test_classical_d_batched():
    p = SystemParams(2, 0.0, 1.0, 1.0, 2.0)
    z = RNG.uniform(0.1, 1.0, size=(7, 2))
    xi = np.array([0, 1, 1, 0])
    vals = classical_D(z, xi, p)
    assert vals.shape == (7,)
    assert vals == pytest.approx(z[:, 0] * z[:, 1])


def test_sigma_composition():
    p = SystemParams(3, 0.3, 1.2, 1.0, 2.0)
    x = RNG.uniform(0.1, 1.5, 3)
    xi = np.array([0, 1, 0, 2, 1])
    a = classical_D_sigma(x, xi, p)
    b = classical_D(map_g(x, p), xi, p)
    assert a == pytest.approx(b)
    c = orthogonal_D_sigma(x, xi, p, 1.1)
    d = orthogonal_D(map_g(x, p), xi, p, 1.1)
    assert c == pytest.approx(d)


def test_orthogonal_reduces_to_centered_product_at_k1():
    p = SystemParams(1, 0.0, 1.0, 1.0, 1.0)
    t = 0.9
    z = np.array([1.7])
    # one particle, alpha = 1: value is z - alpha*t
    val = orthogonal_D(z, np.array([0, 1, 0]), p, t)
    assert val == pytest.approx(1.7 - 0.9)


def test_orthogonal_boundary_factors():
    p = SystemParams(1, 0.0, 1.0, 2.0, 3.0)
    t = 1.25
    z = np.array([0.5])
    val = orthogonal_D(z, np.array([2, 0, 1]), p, t)
    assert val == pytest.approx((2.0 - t) ** 2 * (3.0 - t))


@pytest.mark.parametrize("xi", [[400, 0, 0, 0], [0, 0, 1, 400]])
def test_boundary_factor_out_of_range_is_a_parameter_error(xi):
    # 10^400 and 9.5^400 pass the float range: float ** int raises
    # OverflowError, which is no ToolkitError
    p = SystemParams(2, 0.0, 1.0, 10.0, 10.0)
    z = [0.5, 0.5]
    with pytest.raises(ParameterError, match=r"boundary factor .* float range"):
        classical_D(z, xi, p)
    with pytest.raises(ParameterError, match=r"boundary factor .* float range"):
        orthogonal_D(z, xi, p, 0.5)
    # in range, and down to 0 by underflow, the factor is the plain power
    assert classical_D(z, [300, 0, 0, 0], p) == 10.0 ** 300
    assert orthogonal_D(z, [0, 0, 0, 2000], SystemParams(2, 0.0, 1.0, 1.0, 1.0),
                        0.5) == 0.0


def test_site_count_past_the_rising_factorial_is_a_parameter_error():
    # (1)_1100 is inf: the degree-1100 weights C(1100, j) / (1)_j raised an
    # untyped OverflowError, and the classical factor z^k / (1)_k gave 0 or nan
    p = SystemParams(2, 0.0, 1.0, 0.5, 1.5)
    with pytest.raises(ParameterError, match=r"\(alpha\)_k leaves the float range"):
        laguerre_d(0.5, 1100, 1.0, 1.0)
    for xi in ([0, 1100, 0, 0], [0, 1, 400, 0]):
        for call in (lambda: classical_D([2.0, 2.0], xi, p),
                     lambda: orthogonal_D([2.0, 2.0], xi, p, 1.0),
                     lambda: generator_duality_residual([2.0, 2.0], xi, p)):
            with pytest.raises(ParameterError, match=r"\(alpha\)_k .* k = "):
                call()
    # the largest count with a finite (1)_k still evaluates
    assert pochhammer(1.0, 170) < math.inf
    assert math.isfinite(laguerre_d(0.5, 170, 1.0, 1.0))
    assert classical_D([2.0, 2.0], [0, 170, 0, 0], p) == 2.0 ** 170 / pochhammer(1.0, 170)


@pytest.mark.parametrize("flags", [
    ["--dual", "orthogonal", "--xi0", "1100,0"],
    ["--sigma", "0", "--x0", "2,2", "--xi0", "400,0"],
    ["--sigma", "0", "--x0", "50,50", "--xi0", "400,0"],
    ["--xi0", "3000000000000000000,0"]],
    ids=["orthogonal-overflow", "classical-false-pass", "classical-nan", "3e18"])
def test_verify_duality_count_past_the_rising_factorial_runs_nothing(
        flags, simulations, monkeypatch, capsys):
    # these raised OverflowError (exit 1), passed a check of 0 against 0,
    # printed nan with RuntimeWarnings, and ran 3e18 walkers for 45 s
    particle_runs = []
    monkeypatch.setattr(duality, "final_state_counts",
                        lambda *args, **kwargs: particle_runs.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["verify-duality", "--n", "2", "--t", "0.1", "--dt", "0.01",
                  "--runs", "200", "--check", "--no-header", *flags])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: (alpha)_k leaves the float range")
    assert simulations == [] and particle_runs == []


def _classical_loop(z, occ, p):
    # reference: classical_D as a per-site loop of its own
    val = np.full(z.shape[:-1], float(p.t_left) ** int(occ[0])
                  * float(p.t_right) ** int(occ[-1]))
    for i in range(p.n_sites):
        k = int(occ[i + 1])
        if k:
            val = val * z[..., i] ** k / pochhammer(p.alpha, k)
    return val


def _orthogonal_loop(z, occ, p, t):
    # reference: orthogonal_D as a per-site loop of its own
    val = np.full(z.shape[:-1], (p.t_left - t) ** int(occ[0])
                  * (p.t_right - t) ** int(occ[-1]))
    for i in range(p.n_sites):
        k = int(occ[i + 1])
        if k:
            val = val * laguerre_d(z[..., i], k, p.alpha, t)
    return val


@pytest.mark.parametrize("alpha", [0.7, 2.3])
@pytest.mark.parametrize("t", [0.4, 1.3])
def test_duality_functions_equal_the_per_site_loops_bit_for_bit(alpha, t):
    # every occupation with at most 3 particles per site, the reservoirs
    # included; == on the bits, not approximately
    p = SystemParams(3, 0.0, alpha, 0.5, 1.5)
    z = np.random.default_rng(11).uniform(0.0, 3.0, (7, 3))
    for occ in itertools.product(range(4), repeat=5):
        occ = np.array(occ)
        for zz in (z, z[0]):
            assert (classical_D(zz, occ, p) == _classical_loop(zz, occ, p)).all()
            assert (orthogonal_D(zz, occ, p, t)
                    == _orthogonal_loop(zz, occ, p, t)).all()


def test_sip_generator_apply_exact():
    # the particle generator on f as the rate-weighted sum over sip_rates, the
    # discrete side of generator_duality_residual
    p = SystemParams(2, 0.0, 1.0, 1.0, 1.0)
    xi = np.array([0, 1, 1, 0])

    def occupied_first(occ):
        return float(occ[1])

    # rate out of site 1: absorb left (1) + join right (2), gain: join left (2)
    val = sum(rate * (occupied_first(target) - occupied_first(xi))
              for target, rate in sip_rates(xi, p))
    assert val == pytest.approx(1.0 * (0 - 1) + 2.0 * (0 - 1) + 2.0 * (2 - 1))


@pytest.mark.parametrize("model", ["bep", "abep"])
@pytest.mark.parametrize("dfun", ["classical", "orthogonal"])
def test_generator_duality_residuals(model, dfun):
    p = SystemParams(2, 0.4, 1.7, 1.0, 2.0)
    configs = [np.array(v) for v in
               [(0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0),
                (0, 2, 0, 0), (0, 1, 2, 0)]]
    for _ in range(5):
        x = RNG.uniform(0.1, 1.5, 2)
        for xi in configs:
            res = generator_duality_residual(x, xi, p, model=model, dfun=dfun)
            assert res < 1e-4


def test_semigroup_check_t_zero_is_exact():
    p = SystemParams(2, 0.1, 1.0, 0.5, 1.0)
    chk = semigroup_duality_check(np.array([0.8, 0.5]), np.array([0, 1, 0, 0]),
                                  0.0, p, model="abep", n_runs=50, seed=1)
    assert chk.lhs == chk.rhs
    assert chk.z_score == 0.0


def test_semigroup_check_short_horizon():
    p = SystemParams(2, 0.0, 1.0, 0.5, 1.0)
    chk = semigroup_duality_check(np.array([0.8, 0.5]), np.array([0, 1, 0, 0]),
                                  0.2, p, model="bep", dfun="classical",
                                  n_runs=4000, seed=3, dt=1e-3)
    assert chk.z_score < 4.0
    assert chk.lhs_se > 0.0
    assert chk.rhs_se > 0.0


@pytest.mark.parametrize("n_runs", [2, 3, 7])
def test_semigroup_check_rhs_se_is_the_sample_deviation(n_runs):
    # both sides use one estimator: the two-pass deviation with ddof=1 of
    # the per-run values, over sqrt(n_runs)
    p = SystemParams(2, 0.0, 2.0, 0.5, 1.5)
    x0, xi0, t = np.array([0.8, 0.5]), np.array([0, 1, 1, 0]), 0.5
    chk = semigroup_duality_check(x0, xi0, t, p, n_runs=n_runs, seed=3, dt=0.01)
    configs, runs = zip(*sorted(final_state_counts(xi0, p, n_runs, t, seed=3).items()))
    vals = np.repeat([classical_D(x0, xi, p) for xi in configs], runs)
    assert len(configs) > 1
    assert chk.rhs_se == np.std(vals, ddof=1) / math.sqrt(n_runs)
    assert chk.rhs == vals.mean()


@pytest.mark.parametrize("t", [0.0, 0.2])
@pytest.mark.parametrize("n_runs", [1, 2.5, math.inf])
def test_semigroup_check_rejects_bad_run_counts(n_runs, t):
    p = SystemParams(2, 0.0, 1.0, 0.5, 1.0)
    with pytest.raises(ParameterError, match="n_runs must be a whole number >= 2"):
        semigroup_duality_check(np.array([0.8, 0.5]), np.array([0, 1, 0, 0]), t,
                                p, n_runs=n_runs, dt=0.01)


def test_semigroup_check_takes_whole_float_run_counts():
    p = SystemParams(2, 0.0, 1.0, 0.5, 1.0)
    args = (np.array([0.8, 0.5]), np.array([0, 1, 1, 0]), 0.2, p)
    assert (semigroup_duality_check(*args, n_runs=40.0, seed=2, dt=0.01)
            == semigroup_duality_check(*args, n_runs=40, seed=2, dt=0.01))


@pytest.mark.parametrize("t", [0.0, 0.2])
def test_semigroup_check_takes_one_configuration(t):
    # checks share an ensemble through the memo, not through a list of xi0
    p = SystemParams(2, 0.05, 2.0, 0.5, 1.5)
    xis = [np.array([0, 1, 0, 0]), np.array([0, 1, 1, 0])]
    with pytest.raises(ParameterError, match="one-dimensional"):
        semigroup_duality_check(np.array([0.5, 0.5]), xis, t, p, model="abep",
                                n_runs=300, seed=4, dt=5e-3)
    # a ragged list is refused the same way, not by numpy's ValueError
    ragged = [np.array([0, 1, 0, 0]), [0, 1, 0]]
    with pytest.raises(ParameterError, match="rectangular"):
        semigroup_duality_check(np.array([0.5, 0.5]), ragged, t, p, model="abep",
                                n_runs=300, seed=4, dt=5e-3)


@pytest.mark.parametrize("t, dt", [(0.5, 2e-3), (0.2, 1e-3), (0.3, 0.1)])
def test_semigroup_check_accepts_whole_step_horizons(t, dt):
    # t / dt is a whole number up to rounding: 0.3 / 0.1 = 2.9999999999999996
    p = SystemParams(2, 0.0, 1.0, 0.5, 1.0)
    chk = semigroup_duality_check(np.array([0.8, 0.5]), np.array([0, 1, 0, 0]),
                                  t, p, model="bep", n_runs=20, seed=3, dt=dt)
    assert chk.lhs_se > 0.0


MEMO_P = SystemParams(2, 0.05, 2.0, 0.5, 1.5)
MEMO_ARGS = dict(x0=(0.5, 0.5), p=MEMO_P, model="abep", dt=5e-3,
                 t_horizon=0.2, n_runs=200, seed=4)


@pytest.fixture
def simulations(monkeypatch):
    """Count the diffusion ensembles simulated, starting from an empty memo."""
    calls = []
    simulate = duality.ensemble_endpoint

    def counted(*args, **kwargs):
        calls.append(args)
        return simulate(*args, **kwargs)

    monkeypatch.setattr(duality, "ensemble_endpoint", counted)
    duality._finals.cache_clear()
    yield calls
    duality._finals.cache_clear()


def _memo_check(xi0=(0, 1, 0, 0), dfun="classical", **changes):
    kwargs = {**MEMO_ARGS, **changes}
    x0, p, t = np.array(kwargs.pop("x0")), kwargs.pop("p"), kwargs.pop("t_horizon")
    return semigroup_duality_check(x0, np.array(xi0), t, p, dfun=dfun, **kwargs)


@pytest.mark.parametrize("model, sigma", [("bep", 0.0), ("abep", 0.05)])
def test_semigroup_check_memo_hit_equals_cold_call(simulations, model, sigma):
    p = SystemParams(2, sigma, 2.0, 0.5, 1.5)
    calls = [((0, 1, 0, 0), "classical"), ((0, 1, 0, 0), "classical"),
             ((0, 1, 1, 0), "classical"), ((0, 0, 2, 1), "orthogonal")]
    warm = [_memo_check(xi, dfun, p=p, model=model) for xi, dfun in calls]
    assert len(simulations) == 1
    assert duality._finals.cache_info().hits == len(calls) - 1
    for (xi, dfun), chk in zip(calls, warm):
        duality._finals.cache_clear()
        # bit for bit, not approximately
        assert chk == _memo_check(xi, dfun, p=p, model=model)
    assert len(simulations) == 1 + len(calls)


@pytest.mark.parametrize("change", [
    dict(x0=(0.5, 0.6)), dict(p=SystemParams(2, 0.06, 2.0, 0.5, 1.5)),
    dict(model="bep"), dict(dt=1e-2), dict(t_horizon=0.3), dict(n_runs=201),
    dict(seed=5)])
def test_semigroup_check_memo_key_holds_every_ensemble_argument(simulations, change):
    base = _memo_check()
    _memo_check(**change)
    assert len(simulations) == 2
    # one entry: the first ensemble was dropped, so going back simulates again
    assert duality._finals.cache_info().currsize == 1
    assert _memo_check() == base
    assert len(simulations) == 3


@pytest.mark.parametrize("t_orth", [0.0, -1.0, np.nan, np.inf])
def test_semigroup_check_bad_orthogonal_t_simulates_nothing(simulations, t_orth):
    for xi0 in [(0, 0, 0, 0), (0, 1, 0, 0)]:
        with pytest.raises(ParameterError, match="orthogonal parameter t"):
            _memo_check(xi0, "orthogonal", t_orth=t_orth)
    assert len(simulations) == 0


@pytest.mark.parametrize("t_orth", [0.7, np.nan])
def test_classical_refuses_t_orth_before_any_simulation(simulations, t_orth):
    # t_orth belongs to the orthogonal family: classical would ignore it
    with pytest.raises(ParameterError, match="t_orth applies only to orthogonal"):
        _memo_check(dfun="classical", t_orth=t_orth)
    assert len(simulations) == 0
    with pytest.raises(ParameterError, match="t_orth applies only to orthogonal"):
        generator_duality_residual(np.array([0.5, 0.5]), np.array([0, 1, 0, 0]),
                                   MEMO_P, dfun="classical", t_orth=t_orth)


def test_semigroup_check_memo_is_read_only(simulations):
    _memo_check()
    # the key the check stored: asking for it again is a hit, not a run
    a = MEMO_ARGS
    finals = duality._finals(np.array(a["x0"]).tobytes(), a["p"], a["model"], a["dt"],
                             a["t_horizon"], a["n_runs"], a["seed"], sde.CAP)
    info = duality._finals.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    assert len(simulations) == 1
    assert not finals.flags.writeable
    with pytest.raises(ValueError):
        finals[0, 0] = 1.0


def test_semigroup_check_blowup_stores_nothing(simulations, monkeypatch):
    # every chain starts 0.01 below the cap, so the first step that moves
    # one up by more trips; a cap at the start is refused before any step
    for cap, error in [(0.51, NumericalBlowup), (0.5, ParameterError)]:
        with monkeypatch.context() as m, pytest.raises(error):
            m.setattr(sde, "CAP", cap)
            _memo_check()
        assert duality._finals.cache_info().currsize == 0
    kept = _memo_check()
    # the key holds the cap read at call time: a lower one simulates again
    with monkeypatch.context() as m, pytest.raises(NumericalBlowup):
        m.setattr(sde, "CAP", 0.51)
        _memo_check()
    assert len(simulations) == 4
    # the blow-up stored nothing and left the entry before it in place
    assert duality._finals.cache_info().currsize == 1
    assert _memo_check() == kept
    assert len(simulations) == 4


def test_verify_duality_cli_reuse_prints_fresh_bytes(capsys):
    argv = ["verify-duality", "--n", "2", "--model", "abep", "--sigma", "0.05",
            "--tl", "0.5", "--tr", "1.5", "--t", "0.2", "--runs", "300",
            "--dt", "5e-3", "--seed", "4", "--no-header"]
    outputs = []
    for fresh in (False, True):
        duality._finals.cache_clear()
        for xi0 in ("1,0", "1,1"):
            if fresh:
                duality._finals.cache_clear()
            assert run(argv + ["--xi0", xi0]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 4
