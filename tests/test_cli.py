import hashlib
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import abep.cli
import abep.moments
from abep import (AbsorptionResult, SdeConfig, SystemParams, one_point_moment,
                  reversible_mass, stationary_estimate, two_particle_solve,
                  two_point_report)
from abep.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"

WALK_HEADER_SINGLE = "i,closed_left,closed_right,solve_left,solve_right,max_abs_diff"


def _table(capsys):
    out = capsys.readouterr().out
    return [line.split(",") for line in out.strip().splitlines()]


def test_no_arguments_prints_usage(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 2


def test_bad_flag_value(capsys):
    assert run(["absorption", "--n", "three", "--i", "1"]) == 2


def test_absorption_single_table(capsys):
    rc = run(["absorption", "--n", "3", "--i", "2", "--no-header", "--check"])
    assert rc == 0
    rows = _table(capsys)
    assert rows[0] == WALK_HEADER_SINGLE.split(",")
    assert len(rows) == 2
    vals = rows[1]
    assert vals[0] == "2"
    assert float(vals[2]) == 0.5
    assert float(vals[1]) == 0.5
    assert float(vals[5]) < 1e-12


def test_absorption_seventeen_digit_roundtrip(capsys):
    run(["absorption", "--n", "2", "--i", "1", "--no-header"])
    vals = _table(capsys)[1]
    # closed_right is exactly 1/3; the printed text must reparse to the
    # same double
    assert float(vals[2]) == 1.0 / 3.0
    assert "0.333333333333333" in vals[2]


def test_absorption_pair_check_passes(capsys):
    rc = run(["absorption", "--n", "2", "--i", "1", "--j", "2",
              "--edge", "walk", "--no-header", "--check"])
    assert rc == 0
    rows = _table(capsys)
    assert rows[0] == ["i", "j", "solve_both_left", "solve_both_right",
                       "solve_split", "closed_both_left", "closed_both_right",
                       "closed_split", "max_abs_diff"]
    assert float(rows[1][-1]) < 1e-12


UNIT_PAIR = ["absorption", "--n", "2", "--i", "1", "--j", "2", "--alpha", "2.0",
             "--edge", "unit", "--no-header", "--check"]


def test_absorption_unit_pair_check_passes(capsys):
    # unit walkers have no pair closed form: the row checks the total and
    # the mean rule 2 p_both_right + p_split = h(i) + h(j)
    assert run(UNIT_PAIR) == 0
    header, row = _table(capsys)
    assert header == ["i", "j", "solve_both_left", "solve_both_right",
                      "solve_split", "solve_total", "solve_mean_right",
                      "closed_mean_right", "max_abs_diff"]
    assert float(row[7]) == pytest.approx(1.0, abs=1e-15)   # h(1) + h(2)
    assert float(row[-1]) < 1e-12


def test_absorption_unit_pair_check_fails_on_broken_mean_rule(monkeypatch, capsys):
    def shifted(i, j, p, edge="unit"):
        # same total, but 0.01 more walkers absorbed right on average
        r = two_particle_solve(i, j, p, edge=edge)
        return AbsorptionResult(r.p_both_left, r.p_both_right + 0.01,
                                r.p_split - 0.01)

    monkeypatch.setattr(abep.cli, "two_particle_solve", shifted)
    assert run(UNIT_PAIR) == 1
    assert float(_table(capsys)[1][-1]) == pytest.approx(0.01)


def test_absorption_out_of_range_is_a_usage_error(capsys):
    assert run(["absorption", "--n", "3", "--i", "7", "--no-header"]) == 2
    assert "error:" in capsys.readouterr().err


def test_moments_table_without_mc(capsys):
    rc = run(["moments", "--n", "2", "--sigma", "0.05", "--tl", "1.0",
              "--tr", "2.0", "--no-mc", "--no-header", "--check"])
    assert rc == 0
    rows = _table(capsys)
    assert rows[0] == ["m", "closed_form", "absorption_route", "mc_mean", "mc_se"]
    p = SystemParams(2, 0.05, 1.0, 1.0, 2.0)
    for m, row in zip((1, 2), rows[1:]):
        assert int(row[0]) == m
        assert float(row[1]) == pytest.approx(one_point_moment(m, p), abs=1e-15)
        assert math.isnan(float(row[3]))
        assert math.isnan(float(row[4]))


def test_moments_check_fails_when_monte_carlo_blows_up(capsys):
    # at sigma = 0.1, alpha = 2 every chain at both sites explodes
    rc = run(["moments", "--n", "2", "--sigma", "0.1", "--alpha", "2",
              "--tl", "1", "--tr", "2", "--check", "--no-header"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "exploded" in captured.err
    rows = [line.split(",") for line in captured.out.strip().splitlines()]
    # one ensemble serves every site, so a blow-up empties every MC column
    assert [int(row[0]) for row in rows[1:]] == [1, 2]
    assert all(math.isnan(float(row[3])) and math.isnan(float(row[4]))
               for row in rows[1:])


def test_moments_mc_columns_are_one_library_pass(capsys):
    rc = run(["moments", "--n", "3", "--sigma", "0.02", "--alpha", "2",
              "--tl", "0.5", "--tr", "1.5", "--mc-dt", "0.01", "--mc-t-end", "8",
              "--mc-burn-in", "2", "--mc-thinning", "0.05", "--mc-chains", "4",
              "--seed", "6", "--no-header"])
    assert rc == 0
    rows = _table(capsys)[1:]
    p = SystemParams(3, 0.02, 2.0, 0.5, 1.5)
    cfg = SdeConfig(dt=0.01, t_end=8.0, thinning=0.05, burn_in=2.0, seed=6)
    obs = [lambda s, _m=m: np.exp(-0.02 * s[:, _m - 1:].sum(axis=1))
           for m in (1, 2, 3)]
    want = stationary_estimate(p, cfg, "abep", obs, n_chains=4)
    assert [(float(r[3]), float(r[4])) for r in rows] == want


def test_moments_two_point_table(capsys):
    rc = run(["moments", "--n", "2", "--sigma", "0.05", "--tl", "1.0",
              "--tr", "2.0", "--two-point", "--no-header"])
    assert rc == 0
    rows = _table(capsys)
    assert rows[0] == ["m", "n", "assembly", "closed_form_display", "difference"]
    assert [(r[0], r[1]) for r in rows[1:]] == [("1", "1"), ("1", "2"), ("2", "2")]
    p = SystemParams(2, 0.05, 1.0, 1.0, 2.0)
    rep = two_point_report(1, 2, p)
    assert float(rows[2][2]) == pytest.approx(rep.assembly, abs=1e-15)
    assert abs(float(rows[2][4])) < 1e-12


@pytest.mark.parametrize("disagree", [False, True])
def test_moments_two_point_check_fails_on_a_gap(monkeypatch, capsys, disagree):
    if disagree:
        monkeypatch.setattr(abep.moments, "two_point_closed_form",
                            lambda m, n, p: 0.5)
    rc = run(["moments", "--n", "3", "--sigma", "0.05", "--alpha", "2",
              "--tl", "0.5", "--tr", "1.5", "--two-point", "--no-header",
              "--check"])
    assert rc == (1 if disagree else 0)
    diffs = [abs(float(r[4])) for r in _table(capsys)[1:]]
    assert (max(diffs) > 1e-3) if disagree else (max(diffs) < 1e-12)


def _readme_commands():
    """The abep command lines of the README's first command-line example."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("abep ")]


def test_readme_quick_start_commands_succeed(capsys):
    commands = _readme_commands()
    assert len(commands) >= 7
    for argv in commands:
        assert run(argv) == 0, " ".join(argv)
    capsys.readouterr()


def test_simulate_deterministic_bytes(capsys):
    argv = ["simulate", "--n", "2", "--model", "bep", "--dt", "0.01",
            "--t-end", "0.5", "--thinning", "0.1", "--seed", "4", "--no-header"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().splitlines()
    assert lines[0] == "t,x1,x2"
    assert len(lines) == 6
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])


def test_header_comment_by_default(capsys):
    run(["absorption", "--n", "2", "--i", "1"])
    out = capsys.readouterr().out
    assert out.startswith("# generated ")
    assert out.splitlines()[1] == WALK_HEADER_SINGLE


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    rc = run(["absorption", "--n", "2", "--i", "1", "--no-header",
              "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    text = target.read_text()
    assert text.splitlines()[0] == WALK_HEADER_SINGLE


def test_config_file_supplies_values_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "# absorption job\n"
        "n = 3\n"
        "i = 1\n"
        "no_header = true\n"
        "check = yes\n")
    rc = run(["absorption", "--config", str(cfg), "--i", "2"])
    assert rc == 0
    rows = _table(capsys)
    assert rows[0] == WALK_HEADER_SINGLE.split(",")
    assert rows[1][0] == "2"          # flag overrode the file value
    assert float(rows[1][2]) == 0.5   # n=3 came from the file


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 2\nbogus = 1\n")
    assert run(["absorption", "--config", str(cfg), "--i", "1"]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err and "bogus" in err


def test_config_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("just a line without equals\n")
    assert run(["absorption", "--config", str(cfg), "--n", "2", "--i", "1"]) == 2
    assert "key=value" in capsys.readouterr().err


def test_config_bad_boolean(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("check = maybe\n")
    assert run(["absorption", "--config", str(cfg), "--n", "2", "--i", "1"]) == 2
    assert "boolean" in capsys.readouterr().err


def test_config_missing_file(capsys):
    assert run(["absorption", "--config", "/nonexistent.cfg",
                "--n", "2", "--i", "1"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_config_underscore_keys_match_hyphen_flags(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("t_end = 0.3\nthinning = 0.1\nno_header = on\n")
    rc = run(["simulate", "--config", str(cfg), "--n", "1", "--dt", "0.01",
              "--seed", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4


def test_verify_intertwining_small_run(capsys):
    rc = run(["verify-intertwining", "--n", "2", "--states", "5",
              "--funcs", "2", "--check", "--no-header", "--seed", "0"])
    assert rc == 0
    rows = _table(capsys)
    assert rows[0] == ["state", "max_residual"]
    assert len(rows) == 6
    assert all(float(r[1]) < 1e-4 for r in rows[1:])


def test_verify_intertwining_needs_a_state(capsys):
    # an empty table checks nothing, so --check must not pass on it
    for states in ("0", "-1"):
        assert run(["verify-intertwining", "--n", "2", "--states", states,
                    "--check", "--no-header"]) == 2
    assert "--states" in capsys.readouterr().err


def _assert_usage_error(argv, capsys):
    # exit 2 with a one-line message: not 1, which would read as a failed
    # check, and no traceback
    assert run(argv + ["--check", "--no-header"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flags", [["--runs", "0"], ["--runs", "-5"],
                                   ["--dt", "0"], ["--t", "-1"], ["--runs", "1"],
                                   ["--dt", "0.3", "--t", "0.5"],
                                   ["--dt", "1", "--t", "0.4"]])
def test_verify_duality_bad_arguments_are_usage_errors(flags, capsys):
    _assert_usage_error(["verify-duality", "--n", "2", *flags], capsys)


@pytest.mark.parametrize("flags", [["--degree", "-1"], ["--fd-step", "0"],
                                   ["--fd-step=-1e-4"], ["--fd-step", "nan"]])
def test_verify_intertwining_bad_arguments_are_usage_errors(flags, capsys):
    _assert_usage_error(["verify-intertwining", "--n", "2", *flags], capsys)


def _fresh_python(*args):
    """Run the interpreter in a new process on this source tree; its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(abep.cli.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_out_integrate_and_optimize():
    # scipy loads at the first sparse solve or gamma-function call, not with
    # the package: scipy.sparse and scipy.special cost about 0.5 s per launch
    out = _fresh_python("-c", f"import sys, abep, abep.cli; print({_SCIPY_LOADED})")
    assert out.strip() == "[]"


def test_routes_without_solves_never_load_scipy():
    code = (
        "import contextlib, io, sys\n"
        "from abep.cli import run\n"
        "calls = [\n"
        "    ['simulate', '--n', '2', '--model', 'abep', '--sigma', '0.1',\n"
        "     '--t-end', '0.5', '--dt', '0.001', '--seed', '0'],\n"
        "    ['verify-duality', '--n', '1', '--t', '0.2', '--runs', '400',\n"
        "     '--dt', '0.005', '--check', '--z-max', '5', '--seed', '2'],\n"
        "    ['verify-intertwining', '--n', '2', '--states', '5', '--funcs',\n"
        "     '2', '--check', '--seed', '0'],\n"
        "]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [run(argv) for argv in calls]\n"
        f"print(codes, {_SCIPY_LOADED})\n")
    assert _fresh_python("-c", code).strip() == "[0, 0, 0] []"


def test_solving_routes_import_scipy_from_a_cold_process():
    # check=True: each command must exit 0 in a process that has not yet
    # imported scipy.sparse or scipy.special
    _fresh_python("-m", "abep", "absorption", "--n", "5", "--alpha", "2",
                  "--i", "2", "--j", "4", "--check", "--no-header")
    _fresh_python("-m", "abep", "reversible-check", "--n", "1", "--sigma",
                  "0.05", "--t", "0.5", "--samples", "20000", "--check",
                  "--no-header")


def test_verify_duality_quick_run(capsys):
    rc = run(["verify-duality", "--n", "1", "--model", "bep", "--t", "0.2",
              "--runs", "400", "--dt", "0.005", "--check", "--z-max", "5",
              "--seed", "2", "--no-header"])
    assert rc == 0
    rows = _table(capsys)
    assert rows[0] == ["lhs", "lhs_se", "rhs", "rhs_se", "z_score"]
    assert float(rows[1][4]) < 5.0


def test_reversible_check_run(capsys):
    rc = run(["reversible-check", "--n", "2", "--sigma", "0.05", "--alpha", "1",
              "--t", "0.5", "--samples", "20000", "--check", "--no-header",
              "--seed", "1"])
    assert rc == 0
    rows = _table(capsys)
    assert rows[0] == ["name", "expected", "observed", "se", "z_score"]
    assert rows[1][0] == "moment_m1"
    assert rows[-1][0] == "acceptance_rate"
    # every (N, alpha) has an acceptance prediction, P(N alpha, 1/(sigma T))
    p = SystemParams(2, 0.05, 1.0, 0.5, 0.5)
    assert float(rows[-1][1]) == reversible_mass(p)
    assert float(rows[-1][4]) < 3.0
    # sigma = 0: nothing is truncated, every sampled moment is exactly 1 and
    # every proposal is accepted, which is a pass with z = 0
    assert run(["reversible-check", "--n", "1", "--sigma", "0", "--samples",
                "500", "--check", "--no-header"]) == 0
    assert [float(r[4]) for r in _table(capsys)[1:]] == [0.0, 0.0]


def test_reversible_check_truncation_regime_matches_truncated_law(capsys):
    # at sigma*T = 0.2 the conditioning on the reachable domain shifts the
    # sampled moment by about five standard errors from the untruncated
    # one_point_moment; the check compares with the truncated law and passes
    rc = run(["reversible-check", "--n", "1", "--sigma", "0.2", "--alpha", "1",
              "--t", "1.0", "--samples", "20000", "--check", "--no-header",
              "--seed", "1"])
    assert rc == 0
    row = _table(capsys)[1]
    expected, observed, z = float(row[1]), float(row[2]), float(row[4])
    assert z < 3.0
    exact = 1.0 - 0.2 * (1.0 - 5.0 * math.exp(-5.0) / -math.expm1(-5.0))
    assert expected == pytest.approx(exact, abs=1e-14)
    assert observed == pytest.approx(exact, abs=5 * float(row[3]))
    untruncated = one_point_moment(1, SystemParams(1, 0.2, 1.0, 1.0, 1.0))
    assert abs(observed - untruncated) > 3.0 * float(row[3])


@pytest.mark.usefixtures("pinned_exp")
def test_verify_intertwining_pinned_bytes(capsys):
    rc = run(["verify-intertwining", "--n", "3", "--sigma", "0.1", "--alpha",
              "2.0", "--tl", "0.5", "--tr", "1.5", "--states", "40", "--funcs",
              "5", "--tol", "1e-4", "--seed", "0", "--check", "--no-header"])
    assert rc == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "fcd370a1121c9d708e1f39fa855ab0827e41bd617362d0b2b9db9f07ce578346"
