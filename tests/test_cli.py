import hashlib
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import abep.cli
import abep.generators
import abep.moments
import abep.sde
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


@pytest.mark.parametrize("argv", [["--i", "2"], ["--i", "1", "--j", "2"]])
def test_absorption_check_fails_on_a_later_nan(argv, monkeypatch, capsys):
    # a nan after a close value is the row's worst difference, not skipped
    def single(i, p, edge="unit"):
        return 1.0 - abep.cli.single_right_closed(i, p.n_sites, p.alpha, edge), math.nan

    def pair(i, j, p, edge="unit"):
        r = abep.cli.two_particle_closed_form(i, j, p)
        return AbsorptionResult(r.p_both_left, r.p_both_right, math.nan)

    monkeypatch.setattr(abep.cli, "single_absorption_solve", single)
    monkeypatch.setattr(abep.cli, "two_particle_solve", pair)
    assert run(["absorption", "--n", "3", "--edge", "walk", *argv,
                "--check", "--no-header"]) == 1
    assert _table(capsys)[1][-1] == "nan"


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
        # the table's one call covers every pair, so the closed form
        # returns one value per pair
        monkeypatch.setattr(abep.moments, "two_point_closed_form",
                            lambda m, n, p: np.full(np.broadcast(m, n).shape, 0.5))
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


@pytest.mark.parametrize("flags, steps", [
    (["--dt", "1", "--t-end", "6", "--thinning", "2.000000001"], [2, 4, 6]),
    (["--dt", "1", "--t-end", "6", "--thinning", "1.999999999"], [2, 4, 6]),
    (["--dt", "0.1", "--t-end", "0.3999999999", "--thinning", "0.2"], [2, 4])])
def test_simulate_emits_the_row_at_t_end(flags, steps, capsys):
    # a time within the whole-step tolerance is its whole step, so the last
    # row is the last step whichever way thinning rounds
    assert run(["simulate", "--n", "1", *flags, "--no-header"]) == 0
    times = [float(row[0]) for row in _table(capsys)[1:]]
    assert times == [k * float(flags[1]) for k in steps]


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


@pytest.mark.parametrize("target", ["", "missing/table.csv"],
                         ids=["directory", "missing-parent"])
def test_out_that_cannot_be_written_is_a_usage_error(target, tmp_path, capsys):
    # the open error used to escape with a traceback and exit 1, which reads
    # as a failed check
    out = tmp_path / target
    err = _assert_usage_error(["absorption", "--n", "3", "--i", "2", "--out", str(out)],
                              capsys)
    assert err.startswith(f"error: cannot write {out}")


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


def test_absorption_refuses_a_seed(tmp_path, capsys):
    # the exact solves draw nothing: a seed would be accepted and ignored
    assert run(["absorption", "--n", "3", "--i", "1", "--seed", "7", "--no-header"]) == 2
    captured = capsys.readouterr()
    assert "--seed" in captured.err and captured.out == ""
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("n = 3\ni = 1\nseed = 7\n")
    assert run(["absorption", "--config", str(cfg), "--no-header"]) == 2
    captured = capsys.readouterr()
    assert ":3:" in captured.err and "'seed'" in captured.err and captured.out == ""


def test_config_refuses_a_nested_config(tmp_path, capsys):
    # the file would otherwise be accepted and its config line ignored
    cfg = tmp_path / "outer.cfg"
    cfg.write_text("n = 3\ni = 1\nconfig = /nonexistent.cfg\n")
    assert run(["absorption", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg}:3:" in err and "nested config" in err


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


def test_config_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    # the decode error used to escape with a traceback and exit 1
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"n = 3\xff\n")
    err = _assert_usage_error(["absorption", "--config", str(cfg), "--i", "2"], capsys)
    assert "cannot read config file" in err


def test_config_abbreviation_reads_the_file(tmp_path, capsys):
    # argparse takes --conf for --config, so the file must be read too
    cfg = tmp_path / "a.cfg"
    cfg.write_text("alpha = 3\n")
    base = ["absorption", "--n", "5", "--i", "2", "--no-header"]
    tables = []
    for extra in (["--conf", str(cfg)], ["--alpha", "3"], []):
        assert run(base + extra) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1] != tables[2]
    assert run(base + ["--conf", "/nonexistent.cfg"]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--config", "--conf"])
def test_config_without_a_path_is_a_usage_error(flag, capsys):
    assert run(["absorption", "--n", "5", "--i", "2", "--no-header", flag]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_ambiguous_config_abbreviation_is_refused(tmp_path, capsys):
    # --c could be --config or --check: the file is not silently read
    cfg = tmp_path / "a.cfg"
    cfg.write_text("alpha = 3\n")
    assert run(["absorption", "--n", "5", "--i", "2", "--c", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "ambiguous option" in captured.err and captured.out == ""


def test_simulate_vector_with_an_empty_field_is_a_usage_error(capsys):
    # a dropped empty field would run 1,,2,3 from (1, 2, 3)
    err = _assert_usage_error(["simulate", "--n", "3", "--x0", "1,,2,3", "--dt", "0.01",
                               "--t-end", "0.1"], capsys, check=False)
    assert "could not parse" in err


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


def test_verify_intertwining_nan_residual_fails_its_row(monkeypatch, capsys):
    # a nan coefficient at the second state only: its row is nan, behind a
    # finite first row, and fails the check without a warning
    parts = abep.generators.model_parts

    def nan_parts(ws):
        drift, amps, v = parts(ws)
        if ws.model == "abep":
            drift[0, 1] = np.nan
        return drift, amps, v

    monkeypatch.setattr(abep.generators, "model_parts", nan_parts)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(["verify-intertwining", "--n", "2", "--states", "2",
                  "--funcs", "3", "--degree", "1", "--seed", "0", "--check",
                  "--no-header"])
    assert rc == 1
    out, err = capsys.readouterr()
    first, second = out.splitlines()[1:]
    assert float(first.split(",")[1]) < 1e-10 and second == "1,nan"
    assert err == ""


def _scaled_transport(monkeypatch, factor):
    """Scale the abep transport term T_r g_N u of model_parts by factor."""
    parts = abep.generators.model_parts

    def scaled(ws):
        drift, amps, v = parts(ws)
        if ws.model == "abep" and ws.p.sigma != 0:
            drift += (factor - 1.0) * ws.u      # ws.u holds T_r g_N u here
        return drift, amps, v

    monkeypatch.setattr(abep.generators, "model_parts", scaled)


@pytest.mark.parametrize("n, sigma", [(3, 0.1), (8, 0.3)])
def test_verify_intertwining_sees_a_1e_7_coefficient_error(monkeypatch, n, sigma):
    # a relative error of 1e-7 in one drift term stands far above the
    # round-off default --tol; the exact route passes without it
    argv = ["verify-intertwining", "--n", str(n), "--sigma", str(sigma),
            "--alpha", "2", "--tl", "0.5", "--tr", "1.5", "--states", "40",
            "--check", "--no-header", "--out", os.devnull]
    assert run(argv) == 0
    _scaled_transport(monkeypatch, 1.0 + 1e-7)
    assert run(argv) == 1


def test_verify_intertwining_needs_a_state(capsys):
    # an empty table checks nothing, so --check must not pass on it
    for states in ("0", "-1"):
        assert run(["verify-intertwining", "--n", "2", "--states", states,
                    "--check", "--no-header"]) == 2
    assert "--states" in capsys.readouterr().err


def _assert_usage_error(argv, capsys, check=True):
    # exit 2 with a one-line message: not 1, which would read as a failed
    # check, and no traceback
    assert run(argv + ["--check"] * check + ["--no-header"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize("flags", [["--runs", "0"], ["--runs", "-5"],
                                   ["--dt", "0"], ["--t", "-1"], ["--runs", "1"],
                                   ["--dt", "0.3", "--t", "0.5"],
                                   ["--dt", "1", "--t", "0.4"],
                                   ["--dual", "orthogonal", "--t-orth", "nan"],
                                   ["--dual", "orthogonal", "--t-orth", "inf"],
                                   ["--dual", "orthogonal", "--xi0", "0,0",
                                    "--t-orth", "nan"],
                                   ["--t-orth", "0.7"], ["--t-orth", "nan"],
                                   ["--xi0", "1,,0"],
                                   # past int64: overflowed with a traceback
                                   ["--xi0", "99999999999999999999,0"]])
def test_verify_duality_bad_arguments_are_usage_errors(flags, capsys):
    _assert_usage_error(["verify-duality", "--n", "2", *flags], capsys)


@pytest.mark.parametrize("flags", [
    ["--dt", "0.3", "--t-end", "1.0", "--thinning", "0.5"],
    ["--dt", "0.1", "--t-end", "1.0", "--thinning", "0.2", "--burn-in", "0.15"]])
def test_simulate_times_off_the_step_grid_are_usage_errors(flags, capsys):
    # rows would otherwise come out at t = 0.6 and 0.9, not 0.5 and 1.0
    _assert_usage_error(["simulate", "--n", "1", *flags], capsys, check=False)


def test_simulate_that_emits_nothing_is_a_usage_error(capsys):
    # burn_in + thinning > t_end: the run used to print only the header
    err = _assert_usage_error(
        ["simulate", "--n", "2", "--dt", "0.1", "--t-end", "1", "--thinning", "0.2",
         "--burn-in", "1"], capsys, check=False)
    assert "burn_in=1.0, thinning=0.2, t_end=1.0" in err


def test_moments_one_batch_mean_is_a_usage_error(capsys):
    # one chain with one sample: the se would print 0 and --check would pass
    _assert_usage_error(
        ["moments", "--n", "1", "--sigma", "0.02", "--mc-chains", "1",
         "--mc-t-end", "1", "--mc-thinning", "1", "--mc-burn-in", "0",
         "--mc-dt", "0.01"], capsys)


@pytest.mark.parametrize("argv, check", [
    (["simulate", "--n", "2", "--t-end", "0.1", "--dt", "0.01", "--thinning", "0.05",
      "--x0", "1e6,0"], False),
    (["simulate", "--n", "2", "--t-end", "0.1", "--dt", "0.01", "--thinning", "0.05",
      "--x0", "0,2e6"], False),
    (["verify-duality", "--n", "2", "--model", "abep", "--sigma", "0.05", "--runs", "10",
      "--dt", "0.01", "--t", "0.1", "--x0", "1e6,0"], True)],
    ids=["simulate-at", "simulate-above", "verify-duality-at"])
def test_cap_not_above_the_start_state_is_a_usage_error(argv, check, capsys):
    # refused before the first step, which would otherwise read as a blow-up
    err = _assert_usage_error(argv, capsys, check=check)
    assert "start state must be below the cap 1e+06" in err


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "2", "--tl", "5", "--tr", "5", "--dt", "0.01", "--t-end", "20",
     "--thinning", "1"],
    ["verify-duality", "--n", "2", "--tl", "5", "--tr", "5", "--dt", "0.01", "--t", "2",
     "--runs", "10", "--check"]], ids=["simulate", "verify-duality"])
def test_blowup_is_a_runtime_error(argv, monkeypatch, capsys):
    # every chain starts at 0.5, below a cap of 1, and the T = 5
    # reservoirs push some chain past it
    monkeypatch.setattr(abep.sde, "CAP", 1.0)
    err = _assert_usage_error(argv + ["--x0", "0.5,0.5"], capsys, check=False)
    assert "(cap 1)" in err


@pytest.mark.parametrize("flag", ["--sigma", "--alpha", "--tl", "--tr"])
def test_infinite_parameters_are_usage_errors(flag, capsys):
    # an infinite temperature used to print nan and -inf rows and exit 1,
    # which reads as a failed check
    err = _assert_usage_error(["moments", "--no-mc", "--n", "2", flag, "inf"], capsys)
    assert "must be finite" in err


@pytest.mark.parametrize("argv, flag", [
    (["reversible-check", "--n", "1", "--sigma", "0.05", "--t", "0.5", "--samples", "1"],
     "--samples"),
    (["verify-intertwining", "--n", "2", "--funcs", "0"], "--funcs")])
def test_counts_that_leave_nothing_to_estimate_are_usage_errors(argv, flag, capsys):
    # one sample has no standard error, and no function has no residual
    assert run(argv + ["--check", "--no-header"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {flag}") and captured.out == ""


@pytest.mark.parametrize("flags", [["--degree", "-1"], ["--tol", "0"],
                                   ["--tol=-1e-4"], ["--tol", "nan"],
                                   ["--tol", "inf"], ["--degree", "0"]])
def test_verify_intertwining_bad_arguments_are_usage_errors(flags, capsys):
    # a --tol at or below 0, or nan, fails every row whatever the residuals,
    # and an infinite one passes every row; degree-0 polynomials are
    # constants, which both generators send to exactly 0
    _assert_usage_error(["verify-intertwining", "--n", "2", *flags], capsys)


@pytest.mark.parametrize("tol", ["nan", "-1", "inf", "0"])
@pytest.mark.parametrize("argv", [["absorption", "--n", "5", "--alpha", "2", "--i", "2"],
                                  ["moments", "--n", "2", "--no-mc"]])
def test_tol_that_decides_every_row_is_a_usage_error(argv, tol, capsys):
    # one --tol rule for every command that compares against it: nan or a
    # bound at or below 0 would fail a check whose routes agree (exit 1),
    # and inf would pass one whatever the gap
    err = _assert_usage_error([*argv, f"--tol={tol}"], capsys)
    assert err.startswith("error: --tol must be a positive finite number")


@pytest.mark.parametrize("z_max", ["nan", "0", "-1", "inf"])
@pytest.mark.parametrize("argv", [["verify-duality", "--n", "2", "--runs", "100",
                                   "--dt", "0.01", "--t", "0.1"],
                                  ["reversible-check", "--n", "1", "--sigma", "0.05",
                                   "--t", "0.5", "--samples", "100"]])
def test_z_max_that_decides_every_row_is_a_usage_error(argv, z_max, capsys):
    # the --tol rule: a z-score is compared against --z-max, so nan or a
    # bound at or below 0 fails every row and inf passes every row
    err = _assert_usage_error([*argv, f"--z-max={z_max}"], capsys)
    assert err.startswith("error: --z-max must be a positive finite number")


def test_verify_intertwining_has_no_step_size(capsys):
    # the generators are applied exactly: --fd-step is an unknown flag
    assert run(["verify-intertwining", "--n", "2", "--fd-step", "1e-4"]) == 2
    assert "unrecognized arguments: --fd-step" in capsys.readouterr().err


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


# Re-recorded when both generators came to be applied exactly (worst
# residual 4.4e-15, from 3.9e-7 by central differences); the states and
# polynomials drawn are the same.
@pytest.mark.usefixtures("pinned_exp")
def test_verify_intertwining_pinned_bytes(capsys):
    rc = run(["verify-intertwining", "--n", "3", "--sigma", "0.1", "--alpha",
              "2.0", "--tl", "0.5", "--tr", "1.5", "--states", "40", "--funcs",
              "5", "--tol", "1e-4", "--seed", "0", "--check", "--no-header"])
    assert rc == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "83853743807379b6ad726fb0f02976af4cb2198f739078466960f16fe110737f"


# Recorded with the per-pair two-point assembly and the per-transition
# walker generator; the whole-array routes must print the same bytes.
# Re-recorded when the exit tables moved from the pivoted COLAMD LU to the
# unpivoted minimum-degree LU, which moves the last bits (the tests below).
DUAL_EXACT = {
    "two-point-table": (
        ["moments", "--two-point", "--no-mc", "--n", "20", "--sigma", "0.01",
         "--alpha", "2.0", "--tl", "0.5", "--tr", "1.5", "--check", "--no-header"],
        "ec79a1cfa9d552aeb8e69d2eedf5ce621898281a11f65105809e66e400934c66"),
    "absorption-walk": (
        ["absorption", "--n", "80", "--alpha", "2.0", "--i", "20", "--j", "60",
         "--edge", "walk", "--no-header"],
        "be1ab118ccc9249b27c19294d80e71982cdb35f243bdd7682e4aa45549889213"),
    "absorption-unit": (
        ["absorption", "--n", "80", "--alpha", "2.0", "--i", "20", "--j", "60",
         "--edge", "unit", "--no-header"],
        "beaf8f61a4609d99f2f14ae6d722a37fc493413c94cbaca88d910e2ae6834e80")}


@pytest.mark.parametrize("name", DUAL_EXACT)
def test_dual_exact_pinned_bytes(name, capsys):
    argv, digest = DUAL_EXACT[name]
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _numbers(capsys):
    return np.array(_table(capsys)[1:], float)


# the rows the pivoted COLAMD LU printed; a re-recorded digest may move no
# printed number further than 2e-15 from them
PIVOTED_ROWS = {
    "absorption-walk": "20,60,0.1956373551465575,0.18329167613421182,"
    "0.62107096871923118,0.19563735514655761,0.18329167613421193,"
    "0.62107096871923051,6.6613381477509392e-16",
    "absorption-unit": "20,60,0.19839834962684835,0.18635015685576389,"
    "0.61525149351738717,0.99999999999999944,0.98795180722891496,"
    "0.98795180722891573,7.7715611723760958e-16"}


@pytest.mark.parametrize("name", PIVOTED_ROWS)
def test_dual_exact_pair_rows_stay_at_the_pivoted_values(name, capsys):
    assert run(DUAL_EXACT[name][0]) == 0
    moved = _numbers(capsys)[0] - np.array(PIVOTED_ROWS[name].split(","), float)
    assert np.abs(moved).max() <= 2e-15


def test_dual_exact_two_point_table_stays_at_the_pivoted_values(capsys):
    # the closed-form column takes no solve, and every assembly entry the
    # pivoted LU printed was within 1.2e-16 of it; so 1.8e-15 here keeps
    # each entry within 2e-15 of the pivoted one
    assert run(DUAL_EXACT["two-point-table"][0]) == 0
    table = _numbers(capsys)
    assert len(table) == 210
    assert np.abs(table[:, 2] - table[:, 3]).max() <= 1.8e-15


# Recorded before the snapshots moved into one preallocated array: the
# benchmark's dense trajectory and the Monte Carlo columns of moments --check.
# The moments digest was re-recorded when the ensemble routes moved to sign
# noise; the trajectory keeps its Gaussian bytes.
@pytest.mark.usefixtures("pinned_exp")
@pytest.mark.parametrize("argv, digest", [
    (["simulate", "--model", "abep", "--n", "3", "--sigma", "0.02", "--alpha", "2.0",
      "--tl", "0.5", "--tr", "1.5", "--dt", "0.01", "--t-end", "20.0", "--thinning",
      "0.02", "--seed", "0", "--no-header"],
     "1c2162c580c47f6ac702dcfc1425b849dc1c6f9b0abe5df052dec2cb837a5a04"),
    (["moments", "--n", "2", "--sigma", "0.02", "--alpha", "2", "--tl", "0.5", "--tr",
      "1.5", "--mc-dt", "0.01", "--mc-t-end", "20", "--mc-burn-in", "5", "--mc-chains",
      "8", "--seed", "0", "--check", "--no-header"],
     "7983f0516d6b33f80d1bd2c46bb62c374e718e0ac250a8754211a3e2434038ca")],
    ids=["simulate-dense", "moments-mc"])
def test_diffusion_pinned_bytes(argv, digest, capsys):
    assert run(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_calls_in_one_process_print_the_bytes_of_fresh_processes(
        tmp_path, monkeypatch, capsys):
    # the parser is built at the first call and shared by the later ones;
    # usage messages wrap at COLUMNS, so both sides get the same width
    monkeypatch.setenv("COLUMNS", "80")
    config = tmp_path / "pair.cfg"
    config.write_text("n = 4\ni = 2\nalpha = 2\nno_header = true\n")
    calls = [
        ["absorption", "--n", "3", "--i", "1", "--no-header"],
        ["absorption", "--config", str(config), "--j", "3", "--check"],
        ["absorption", "--n", "three", "--i", "1"],
        ["simulate", "--n", "1", "--dt", "0.1", "--t-end", "1", "--thinning", "0.25"],
        ["absorption", "--config", str(config), "--edge", "walk"],
        ["simulate", "--n", "2", "--dt", "0.01", "--t-end", "0.1", "--thinning",
         "0.05", "--no-header"],
        ["absorption", "--n", "3", "--i", "1", "--no-header"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(abep.cli.__file__).parents[1])}
    abep.cli.build_parser.cache_clear()
    for argv in calls:
        code = run(argv)
        here = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "abep", *argv], env=env,
                               capture_output=True, text=True)
        assert (code, here.out, here.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert abep.cli.build_parser.cache_info().misses == 1
