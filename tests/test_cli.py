"""Command line: exit-code contract, config validation, output formats and
byte determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bbm5
from bbm5 import cli, derivation, evolution, splitting
from bbm5.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from bbm5.evolution import RhsSpec, run_simulation


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def test_coeffs_reference_json(tmp_path, capsys):
    assert main(["coeffs", "--out", str(tmp_path), "--quiet"]) == EXIT_OK
    payload = json.loads((tmp_path / "coeffs.json").read_text())
    assert payload["bbm5"]["gamma"] == pytest.approx(7.0 / 48.0, abs=1e-12)
    assert payload["energy_conserving"] is True
    assert payload["violations"] == []


def test_coeffs_prints_to_stdout(capsys):
    assert main(["coeffs"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["wellposed_regime"] is True


def test_coeffs_theta_out_of_range_exits_2(capsys):
    assert main(["coeffs", "--theta", "2"]) == EXIT_CONFIG
    assert "theta" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--theta", "nan"), ("--lam", "inf"), ("--mu1", "-inf")])
def test_coeffs_a_non_finite_flag_exits_2_naming_its_key(capsys, flag, value):
    # the flags bypass the config's finite check; ModelParameters refused the value
    # with a plain ValueError, which named no key and would now be a traceback
    assert main(["coeffs", f"{flag}={value}"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: coeffs.{flag[2:]} must be finite, got {float(value)}"]


@pytest.mark.parametrize("out", [False, True])
def test_coeffs_refuses_non_finite_derived_coefficients(tmp_path, capsys, out):
    # lam = 1e200 is finite, but delta1 and delta2 overflow to -inf
    argv = ["coeffs", "--lam", "1e200"] + (["--out", str(tmp_path / "out")] if out else [])
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "configuration error: coeffs.lam = 1e+200 makes the derived coefficient delta1 "
        "non-finite (-inf)"]
    assert not (tmp_path / "out").exists()


def test_a_negative_flag_value_in_exponent_form_is_a_value(capsys):
    # argparse took -1e-3 for an option: "argument --mu: expected one argument"
    assert main(["coeffs", "--mu", "-1e-3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["parameters"]["mu"] == -0.001


@pytest.mark.parametrize("argv,want", [
    (["--theta", "-1e+300"], "coeffs.theta must lie in [0, 1], got -1e+300"),
    (["--mu1", "-inf"], "coeffs.mu1 must be finite, got -inf"),
], ids=["exponent", "inf"])
def test_a_negative_flag_value_reaches_the_check_of_its_key(capsys, argv, want):
    assert main(["coeffs", *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"configuration error: {want}"]


@pytest.mark.parametrize("argv,want", [
    (["coeffs", "--theta=abc"], "argument --theta: invalid float value: 'abc'"),
    (["simulate", "--seed", "abc"], "argument --seed: invalid int value: 'abc'"),
    (["coeffs", "--theta"], "argument --theta: expected one argument"),
    (["coeffs", "--rho-auto=1"], "argument --rho-auto: ignored explicit argument '1'"),
    (["simulate", "--theta=0.5"], "unrecognized arguments: --theta=0.5"),
    (["solve"], "argument command: invalid choice: 'solve' (choose from 'coeffs', 'simulate', "
                "'split', 'multiplier-table', 'energy-drift', 'picard', 'derivation-residual', "
                "'norm-scan')"),
    ([], "the following arguments are required: command"),
], ids=["float", "int", "no-value", "flag-value", "flag", "command", "no-command"])
def test_a_command_line_that_does_not_parse_exits_2_in_one_line(capsys, argv, want):
    # argparse printed three or four lines of usage and raised SystemExit(2) out of main
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"configuration error: {want}"]


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: bbm5 coeffs [-h]")


def test_coeffs_rho_auto(tmp_path):
    cfg = _write_config(tmp_path, {"coeffs": {"rho": 0.4}})
    assert main(["coeffs", "--config", cfg, "--rho-auto",
                 "--out", str(tmp_path), "--quiet"]) == EXIT_OK
    payload = json.loads((tmp_path / "coeffs.json").read_text())
    assert payload["energy_conserving"] is True
    assert payload["parameters"]["rho"] == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_unknown_top_level_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"bogus": 1})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_unknown_section_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"grid": {"n": 64, "spacing": 0.1}})
    assert main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert "spacing" in capsys.readouterr().err


def test_missing_config_exits_2(capsys):
    assert main(["simulate", "--config", "/no/such/file.json"]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == EXIT_CONFIG


@pytest.mark.parametrize("text,why", [
    # a UnicodeDecodeError traceback, exit 1
    (b"\xff\xfe{\x00}\x00", "'utf-8' codec can't decode byte 0xff in position 0: invalid "
                            "start byte"),
    # a RecursionError traceback, exit 1
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded while decoding a JSON "
                                      "array from a unicode string"),
], ids=["utf-16", "deep"])
def test_a_config_whose_bytes_do_not_decode_exits_2_in_one_line(tmp_path, capsys, text, why):
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main(["coeffs", "--config", str(path)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"configuration error: config is not valid JSON: {why}"]


def test_wrong_type_exits_2(tmp_path):
    cases = [
        ("simulate", {"grid": {"n": "many"}}),
        ("simulate", {"simulate": {"initial": {"center": "a"}}}),
        ("simulate", {"simulate": {"initial": {"kind": "random", "seed": 1.5}}}),
        ("simulate", {"simulate": {"monitor_s": ["a"]}}),
        ("split", {"split": {"cutoffs": [True]}}),
    ]
    for command, payload in cases:
        cfg = _write_config(tmp_path, payload)
        assert main([command, "--config", cfg]) == EXIT_CONFIG, payload


def test_partial_section_keeps_command_defaults(tmp_path):
    # split's grid.n default (1024) holds when the grid section sets only
    # its length: Nyquist 512 clears 4x the largest cutoff.
    cfg = _write_config(tmp_path, {"grid": {"length": 6.283185307179586},
                                   "stepper": {"dt": 0.01},
                                   "split": {"cutoffs": [4.0, 64.0]}})
    assert main(["split", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK


def test_coeffs_ignores_grid_it_does_not_use(tmp_path):
    cfg = _write_config(tmp_path, {"grid": {"n": 3}})
    assert main(["coeffs", "--config", cfg, "--quiet"]) == EXIT_OK


_DERIVATION = {"epsilons": [0.1, 0.05], "t_final": 0.1, "dt": 0.01, "checkpoints": 1}


@pytest.mark.parametrize("command,section,values", [
    ("simulate", "simulate", {"T": 0.05, "record_every": 0}),
    ("energy-drift", "energy_drift", {"T": 0.05, "record_every": -1}),
    ("simulate", "simulate", {"T": 0.0}),
    ("simulate", "simulate", {"T": -0.05}),
    ("simulate", "simulate", {"T": math.inf}),
    ("picard", "picard", {"T": 0.0}),
    ("derivation-residual", "derivation", {**_DERIVATION, "checkpoints": 0}),
    ("derivation-residual", "derivation", {**_DERIVATION, "dt": 0.0}),
    ("derivation-residual", "derivation", {**_DERIVATION, "t_final": 0.0}),
    ("derivation-residual", "derivation", {**_DERIVATION, "epsilons": [0.0, 0.1]}),
    ("derivation-residual", "derivation", {**_DERIVATION, "epsilons": []}),
    ("derivation-residual", "derivation", {**_DERIVATION, "epsilons": [0.1]}),
    ("derivation-residual", "derivation", {**_DERIVATION, "epsilons": [0.1, 0.1]}),
    ("picard", "stepper", {"dt": 0.01, "cs": 0.0}),
    ("simulate", "stepper", {"dt": 0.01, "cs": 0.0, "scheme": "picard_duhamel"}),
    ("split", "split", {"cutoffs": [4.0, 8.0], "t0_scale": math.inf}),
    ("split", "split", {"cutoffs": [4.0, 8.0], "t0_scale": 0.0}),
])
def test_out_of_range_value_exits_2(tmp_path, capsys, command, section, values):
    cfg = _write_config(tmp_path, {"grid": {"n": 64, "length": 6.0},
                                   "stepper": {"dt": 0.01}, section: values})
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error")


@pytest.mark.parametrize("command,text,key", [
    ("simulate", '{"stepper": {"dt": Infinity}}', "stepper.dt"),
    ("simulate", '{"grid": {"length": NaN}}', "grid.length"),
    ("simulate", '{"simulate": {"T": 1%s}}' % ("0" * 400), "simulate.T"),
    ("derivation-residual", '{"derivation": {"dt": -Infinity}}', "derivation.dt"),
    ("split", '{"split": {"cutoffs": [8.0, NaN]}}', "split.cutoffs[1]"),
    pytest.param("derivation-residual", '{"grid": {"n": 64}, "derivation": {"epsilons": '
                 '[0.1, 0.05], "t_final": 0.1, "dt": 0.01, "checkpoints": 1%s}}' % ("0" * 400),
                 "derivation.checkpoints", id="checkpoints-1e400"),
])
def test_a_non_finite_config_number_exits_2_before_writing(tmp_path, capsys, command, text, key):
    # json reads Infinity and NaN; dt = Infinity ran one step of length T, wrote
    # run.csv and left run_meta.json cut off at "dt": before it exited 2.  An int
    # key beyond a float's range ended in an OverflowError traceback (exit 1) when
    # the sweep's time lattice divided t_final by 10^400 checkpoints
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: config value {key} must")
    assert not out.exists()


@pytest.mark.parametrize("command,section,values", [
    ("simulate", "simulate", {"T": 1e308}),
    ("simulate", "simulate", {"T": 1e300}),
    ("derivation-residual", "derivation", {**_DERIVATION, "t_final": 1e308}),
    ("split", "split", {"cutoffs": [4.0, 8.0], "t0_scale": 1e308}),
])
def test_a_run_of_too_many_steps_exits_2_naming_t_and_dt(tmp_path, capsys, command, section,
                                                          values):
    # T/dt overflowed int(round(...)) with a traceback (exit 1), or sized a record
    # table numpy refused, with a message that named no key
    cfg = _write_config(tmp_path, {"grid": {"n": 64, "length": 6.0},
                                   "stepper": {"dt": 0.01}, section: values})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "Traceback" not in err[0]
    key = {"simulate": "simulate.T", "derivation-residual": "derivation.t_final",
           "split": "the window's T (set by split.t0_scale)"}[command]
    assert err[0].startswith(f"configuration error: {key} = ") and " at dt = " in err[0]


def test_a_sweep_of_too_many_checkpoints_exits_2_before_running(tmp_path, capsys, monkeypatch):
    # the step bound covered one leg only, so 10^12 legs of one step each ran on
    def model(*args, **kwargs):
        raise AssertionError("a scaled model was built")

    monkeypatch.setattr(derivation, "_scaled_engine", model)
    cfg = _write_config(tmp_path, {"grid": {"n": 64},
                                   "derivation": {**_DERIVATION, "checkpoints": 10**12}})
    out = tmp_path / "out"
    assert main(["derivation-residual", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == ["configuration error: derivation.t_final = 0.1 at dt = 0.01 makes 1e+12 steps "
                   "in 1000000000000 checkpoints, over 1e+07"]
    assert not out.exists()


def test_picard_of_too_many_coefficients_exits_2_before_allocating(tmp_path, capsys,
                                                                   monkeypatch):
    # 10^6 + 1 nodes of 33 coefficients: the lattice arrays and the padded stack
    # would have taken gigabytes
    def engine(*args, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(evolution, "SpectralEngine", engine)
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, "stepper": {"dt": 1e-5},
                                   "picard": {"T": 10.0}})
    assert main(["picard", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == ["configuration error: picard.T = 10 makes 1000001 Picard nodes, "
                   "over 1e+07 coefficients"]


def test_write_meta_leaves_no_file_for_a_payload_it_cannot_write(tmp_path):
    with pytest.raises(ValueError, match="Out of range float"):
        cli._write_meta(str(tmp_path), "meta.json", {"dt": math.inf})
    assert not (tmp_path / "meta.json").exists()


def test_split_s_out_of_range_exits_2(tmp_path, capsys):
    # SplitConfig refuses it; initial.s, when set, is the index of the data alone
    for initial in ({}, {"s": 1.5}):
        cfg = _write_config(tmp_path, {"split": {"s": 2.5, "initial": initial}})
        out = tmp_path / "out"
        assert main(["split", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "configuration error: split.s must lie in [1, 2), got 2.5"]
        assert not out.exists()


# ---------------------------------------------------------------------------
# simulate / energy-drift
# ---------------------------------------------------------------------------


SIM_CONFIG = {
    "grid": {"n": 128, "length": 16.0 * math.pi},
    "stepper": {"dt": 0.01},
    "simulate": {"T": 0.1, "initial": {"kind": "sech2", "amplitude": 0.3}},
    "energy_drift": {"T": 0.1, "initial": {"kind": "sech2", "amplitude": 0.3}},
}


def test_simulate_writes_report(tmp_path):
    cfg = _write_config(tmp_path, SIM_CONFIG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0] == "t,E,hs0,hs1,hs2,zero_mode,drift_resid"
    assert len(lines) == 12
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["aborted"] is False
    assert meta["grid"]["n"] == 128


def test_simulate_zero_data_all_zero_report(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"grid": {"n": 64, "length": 6.0},
         "stepper": {"dt": 0.01},
         "simulate": {"T": 0.05, "initial": {"kind": "zero"}}},
    )
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    rows = (tmp_path / "run.csv").read_text().splitlines()[1:]
    for row in rows:
        assert all(float(v) == 0.0 for v in row.split(",")[1:])


def test_simulate_reproduces_the_reference_run(tmp_path):
    # the README's reference run, a sech^2 pulse under the default (energy-conserving)
    # coefficients, at n = 64 and T = 0.02: its run.csv holds the energy, the H^s norms
    # and the zero mode of run_simulation on REFERENCE_COEFFICIENTS
    initial = {"kind": "sech2", "amplitude": 0.5, "width": 1.0}
    cfg = _write_config(tmp_path, {
        "grid": {"n": 64, "length": 16.0 * math.pi}, "stepper": {"dt": 0.01},
        "simulate": {"T": 0.02, "record_every": 10, "initial": initial}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
    header, *rows = (tmp_path / "run.csv").read_text().splitlines()
    got = dict(zip(header.split(","), np.array([row.split(",") for row in rows], float).T))
    grid = bbm5.Grid(n=64, length=16.0 * math.pi)
    report = run_simulation(evolution.sech_squared(grid, 0.5, 1.0),
                            RhsSpec(bbm5.REFERENCE_COEFFICIENTS), bbm5.StepperConfig(dt=0.01),
                            0.02, record_every=10)
    want = {"E": report.energy, "zero_mode": report.zero_mode,
            **{f"hs{s:g}": report.hs_norms[s] for s in (0.0, 1.0, 2.0)}}
    assert len(report.times) == len(rows) == 2
    for name, values in want.items():
        np.testing.assert_allclose(got[name], values, rtol=1e-12, err_msg=name)


def test_norm_scan_prints_and_writes_the_scans_of_the_library(tmp_path, capsys):
    # the scans of the reference coefficients, on the default grid length 2*pi and seed 1
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, "norm_scan": {"trials": 20}})
    assert main(["norm-scan", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    got = json.loads((tmp_path / "norm_scan.json").read_text())
    assert (got.pop("s"), got.pop("trials")) == (1.0, 20)
    grid = bbm5.Grid(n=64, length=2.0 * math.pi)
    for line, name in zip(lines, ("tau_bilinear", "psi_trilinear", "psi_grad_bilinear"),
                          strict=True):
        scan = bbm5.symbols.empirical_operator_norm(name, 1.0, 20, grid,
                                                    bbm5.REFERENCE_COEFFICIENTS, seed=1)
        want = {"max_ratio": scan.max_ratio, "final_decile_growth": scan.final_decile_growth}
        assert got[name] == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert line == (f"{name:18s} max ratio {scan.max_ratio:.6f}  "
                        f"final-decile growth {scan.final_decile_growth * 100.0:.3f}%")


@pytest.mark.parametrize("doc,key", [
    ({"norm_scan": {"trials": 0}}, "norm_scan.trials"),
    ({"norm_scan": {"s": -1}}, "norm_scan.s"),
    ({"grid": {"n": 3}}, "grid.n"),
], ids=["trials", "s", "n"])
def test_norm_scan_refuses_a_bad_key_in_one_line_naming_it(tmp_path, capsys, doc, key):
    # each is refused before any scan, and no --out directory is made
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, doc)
    assert main(["norm-scan", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"configuration error: {key} ")
    assert not out.exists()


@pytest.mark.parametrize("s,shown", [(200, "200.0"), (1e300, "1e+300")])
def test_norm_scan_at_an_s_whose_weights_overflow_exits_2(tmp_path, capsys, s, shown):
    # the weights overflowed and the amplitudes underflowed, so each ratio was
    # 0 * inf = NaN, which the running maximum skips: "max ratio 0.000000", exit 0
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, "norm_scan": {"s": s, "trials": 50}})
    out = tmp_path / "out"
    assert main(["norm-scan", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: norm_scan.s = {shown} makes H^s weights that overflow "
        "on grid.n = 64"]
    assert not out.exists()


def test_energy_drift_predicted_column_zero_when_conserving(tmp_path):
    cfg = _write_config(tmp_path, SIM_CONFIG)
    assert main(["energy-drift", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    lines = (tmp_path / "energy_drift.csv").read_text().splitlines()
    assert lines[0] == "t,E,dEdt_predicted,drift_resid"
    for row in lines[1:]:
        assert float(row.split(",")[2]) == 0.0


# ---------------------------------------------------------------------------
# picard
# ---------------------------------------------------------------------------


def test_picard_zero_data_one_iteration(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"grid": {"n": 64, "length": 6.0},
         "picard": {"T": 1.0, "initial": {"kind": "zero"}}},
    )
    assert main(["picard", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
    assert "1 iterations" in capsys.readouterr().out
    rows = (tmp_path / "picard.csv").read_text().splitlines()
    assert rows[0] == "iteration,diff_hs,ratio"
    assert len(rows) == 2


def test_picard_that_does_not_converge_exits_3_writing_its_iteration_table(tmp_path, capsys):
    cfg = _write_config(tmp_path, {
        "grid": {"n": 64, "length": 6.0},
        "stepper": {"picard_max_iter": 2, "picard_tol": 1e-30},
        "picard": {"T": 0.1, "initial": {"kind": "random", "amplitude": 0.01}}})
    out = tmp_path / "out"
    assert main(["picard", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "Picard iteration did not reach tol 1e-30 within 2 iterations (last diff 1.789e-10)"]
    rows = (out / "picard.csv").read_text().splitlines()
    assert rows[0] == "iteration,diff_hs,ratio"
    assert [row.split(",")[0] for row in rows[1:]] == ["1", "2"]


def test_picard_beyond_existence_time_exits_2(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        {"grid": {"n": 64, "length": 6.0},
         "picard": {"T": 50.0,
                    "initial": {"kind": "cosine", "amplitude": 1.0}}},
    )
    assert main(["picard", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert "T_bar" in capsys.readouterr().err


@pytest.mark.parametrize("config", [
    {"grid": {"n": 64, "length": 6.0},
     "picard": {"T": 10.0, "initial": {"kind": "cosine", "amplitude": 1.0}}},
    {"grid": {"n": 64}, "stepper": {"dt": 1e-5}, "picard": {"T": 10.0}},
])
def test_picard_that_exits_2_leaves_no_out_directory(tmp_path, capsys, config):
    # beyond the existence time, and over the coefficient bound: the directory
    # was made before duhamel_picard checked the config, and was left empty
    out = tmp_path / "out"
    cfg = _write_config(tmp_path, config)
    assert main(["picard", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command,section", [("simulate", "simulate"),
                                             ("energy-drift", "energy_drift")])
def test_picard_scheme_failure_exits_3(tmp_path, capsys, command, section):
    cfg = _write_config(
        tmp_path,
        {"grid": {"n": 64},
         "stepper": {"scheme": "picard_duhamel", "dt": 0.01,
                     "picard_max_iter": 2, "picard_tol": 1e-30},
         section: {"T": 0.1, "initial": {"kind": "cosine", "amplitude": 0.01}}},
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "did not reach tol" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,section", [("simulate", "simulate"),
                                             ("energy-drift", "energy_drift")])
def test_non_finite_run_exits_3_with_one_line(tmp_path, capsys, command, section):
    cfg = _write_config(
        tmp_path,
        {"grid": {"n": 64, "length": 6.0},
         "stepper": {"dt": 0.5},
         section: {"T": 200.0,
                   "initial": {"kind": "sech2", "amplitude": 1e6, "center": 3.0}}},
    )
    assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines() == [
        "run aborted on non-finite state; last-good report written"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("amplitude", [16.0, 1e200])
@pytest.mark.parametrize("command,section,name", [("simulate", "simulate", "run.csv"),
                                                  ("energy-drift", "energy_drift",
                                                   "energy_drift.csv")])
def test_a_run_whose_diagnostics_overflow_writes_finite_rows(tmp_path, capsys, command, section,
                                                            name, amplitude):
    # amplitude 16: the record at t = 0.2 has a finite state but E = inf and
    # a NaN prediction, and both CSVs used to end in that row.  1e200: the
    # initial record's energy overflows; that exited 3 with a CSV of its header
    # alone, and is now a configuration error that writes nothing
    cfg = _write_config(
        tmp_path,
        {"coeffs": {"rho": -0.5}, "grid": {"n": 64}, "stepper": {"dt": 0.1},
         section: {"T": 10.0, "initial": {"kind": "cosine", "amplitude": amplitude}}},
    )
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out)])
    if amplitude == 1e200:
        assert code == EXIT_CONFIG and not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            f"configuration error: {section}.initial.amplitude = 1e+200 makes initial data "
            "whose energy, H^s norms or predicted drift overflow"]
        return
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines() == [
        "run aborted on non-finite state; last-good report written"]
    header, *rows = (out / name).read_text().splitlines()
    assert len(rows) == 2
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


DRIFT_CONFIG = {
    "grid": {"n": 128, "length": 16.0 * math.pi},
    "stepper": {"dt": 0.01},
    "energy_drift": {"T": 0.1, "initial": {"kind": "random", "s": 1.5, "amplitude": 0.2}},
}


def test_energy_drift_csv_does_not_depend_on_the_hs_norms(tmp_path, monkeypatch):
    # energy-drift records no H^s norm, and its CSV is the rows of the same
    # run with the default H^s norms recorded
    calls = []
    norm = evolution.sobolev_norm
    monkeypatch.setattr(evolution, "sobolev_norm", lambda f, s: calls.append(s) or norm(f, s))
    cfg = _write_config(tmp_path, DRIFT_CONFIG)
    assert main(["energy-drift", "--config", cfg, "--out", str(tmp_path), "--seed", "17",
                 "--quiet"]) == EXIT_OK
    assert calls == []
    monkeypatch.undo()
    run = cli._Setup(cli._resolve(DRIFT_CONFIG, cli._SCHEMA, {}), 17, "energy_drift")
    report = run_simulation(run.initial(), RhsSpec(run.coeffs), run.stepper, 0.1)
    assert set(report.hs_norms) == {0.0, 1.0, 2.0}
    rows = zip(report.times, report.energy, report.drift_predicted, report.drift_residual)
    want = "t,E,dEdt_predicted,drift_resid\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    assert (tmp_path / "energy_drift.csv").read_text() == want


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_split_blow_up_exits_3_with_one_line(tmp_path, capsys):
    # it exited 0, printed "h slope nan" and wrote bare NaN into the JSON
    cfg = _write_config(
        tmp_path,
        {"grid": {"n": 256, "length": 6.283185307179586}, "stepper": {"dt": 0.05},
         "split": {"s": 1.5, "cutoffs": [4, 8, 16],
                   "initial": {"kind": "random", "s": 1.5, "amplitude": 1e4}}},
    )
    out = tmp_path / "out"
    assert main(["split", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    # step 2 lies in every window; the first cutoff whose window holds a non-finite row is named
    assert captured.err.splitlines() == [
        "numerical failure: non-finite state at step 2 of 10 (t = 0.1) in the window of N = 4"]
    assert not out.exists()  # nothing is written


@pytest.mark.parametrize("cutoffs", [[8, 8, 8], [8, 8, 16], []])
def test_split_repeated_cutoffs_exit_2_before_running(tmp_path, capsys, monkeypatch, cutoffs):
    # [8, 8, 8] ran the whole sweep before linregress refused it; [8, 8, 16] exited 0;
    # [] failed on "max() arg is an empty sequence", which named no key
    def window(*args, **kwargs):
        raise AssertionError("a window ran")

    monkeypatch.setattr(splitting, "iterate", window)
    cfg = _write_config(tmp_path, {"grid": {"n": 256, "length": 2.0 * math.pi},
                                   "split": {"cutoffs": cutoffs}})
    out = tmp_path / "out"
    assert main(["split", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "configuration error: split.cutoffs must be one or more distinct values, "
        f"got {[float(N) for N in cutoffs]}"]
    assert not out.exists()


def test_derivation_repeated_epsilon_exits_2_before_running(tmp_path, capsys, monkeypatch):
    # it exited 0, ran eps = 0.1 twice and wrote a 0/0 slope_running of nan
    def model(*args, **kwargs):
        raise AssertionError("a scaled model was built")

    monkeypatch.setattr(derivation, "_scaled_engine", model)
    cfg = _write_config(tmp_path, {"grid": {"n": 128, "length": 16.0 * math.pi},
                                   "derivation": {**_DERIVATION, "epsilons": [0.1, 0.1, 0.05]}})
    out = tmp_path / "out"
    assert main(["derivation-residual", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: need n_checkpoints >= 1")
    assert "distinct" in err[0] and err[0].endswith("[0.1, 0.1, 0.05]")
    assert not out.exists()


def _reject(constant):
    raise ValueError(f"{constant} in JSON output")


@pytest.mark.parametrize("command,payload", [
    ("simulate", {"grid": {"n": 64}, "stepper": {"dt": 0.01}, "simulate": {"T": 0.05}}),
    ("split", {"grid": {"n": 128, "length": 2.0 * math.pi}, "stepper": {"dt": 0.01},
               "split": {"cutoffs": [4.0, 8.0, 16.0], "initial": {"kind": "zero"}}}),
    ("derivation-residual", {"grid": {"n": 128, "length": 16.0 * math.pi},
                             "derivation": {"epsilons": [0.1, 0.05], "t_final": 0.1,
                                            "dt": 0.01, "checkpoints": 1}}),
])
def test_json_outputs_are_strict_json(tmp_path, command, payload):
    cfg = _write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
    names = sorted(p.name for p in out.glob("*.json"))
    assert names
    for name in names:
        json.loads((out / name).read_text(), parse_constant=_reject)


# ---------------------------------------------------------------------------
# multiplier-table
# ---------------------------------------------------------------------------


def test_multiplier_table_psi_at_one(tmp_path):
    cfg = _write_config(
        tmp_path, {"multiplier_table": {"xi_min": 1.0, "xi_max": 1.0, "count": 1}}
    )
    assert main(["multiplier-table", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    lines = (tmp_path / "multiplier_table.csv").read_text().splitlines()
    assert lines[0] == "xi,phi,psi,tau,omega,varphi"
    xi, phi, psi, tau, omega, varphi = map(float, lines[1].split(","))
    assert psi == pytest.approx(0.847059, abs=1e-6)
    assert tau == pytest.approx(87.0 / 170.0, abs=1e-12)
    assert omega == 0.5


@pytest.mark.parametrize("count", [-1, 0])
def test_multiplier_table_refuses_a_count_below_one(tmp_path, capsys, count):
    # -1 exited 2 with numpy's message, which named no key; 0 wrote an empty table
    cfg = _write_config(tmp_path, {"multiplier_table": {"count": count}})
    out = tmp_path / "out"
    assert main(["multiplier-table", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: multiplier_table.count must be at least 1, got {count}"]
    assert not out.exists()


def test_multiplier_table_refuses_a_count_over_the_step_bound(tmp_path, capsys):
    # 10^12 rows ended in numpy's allocation traceback ("7.28 TiB") and exit 1
    cfg = _write_config(tmp_path, {"multiplier_table": {"count": 10**12}})
    out = tmp_path / "out"
    assert main(["multiplier-table", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "configuration error: multiplier_table.count must be at most 1e+07, got 1000000000000"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "energy-drift", "split", "picard",
                                     "derivation-residual"])
def test_a_grid_over_the_step_bound_exits_2_naming_grid_n(tmp_path, capsys, command):
    # 10^12 points ended in numpy's allocation traceback ("7.28 TiB") and exit 1
    cfg = _write_config(tmp_path, {"grid": {"n": 10**12}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "configuration error: grid.n must be at most 1e+07, got 1000000000000"]
    assert not out.exists()


@pytest.mark.parametrize("length", [5e-324, 1e-300])
@pytest.mark.parametrize("command", ["simulate", "energy-drift", "split", "picard",
                                     "derivation-residual"])
def test_a_grid_too_short_for_its_symbols_exits_2_naming_grid_length(tmp_path, capsys,
                                                                      command, length):
    # 5e-324 ended in fftfreq's ZeroDivisionError traceback and exit 1 (L/n rounds
    # to 0); at 1e-300 xi^4 overflowed, and simulate exited 3 on NaN tables
    cfg = _write_config(tmp_path, {"grid": {"n": 64, "length": length}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: grid.length = {length!r} is too small for grid.n = 64: "
        "the symbol tables overflow at its largest wavenumber"]
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,section", [("simulate", "simulate"),
                                             ("energy-drift", "energy_drift"),
                                             ("split", "split"), ("picard", "picard")])
def test_random_data_that_overflow_exit_2_naming_initial_s(tmp_path, capsys, command, section):
    # (1 + xi^2)^199.5 overflows at n = 64: the four commands exited 3 on NaN data
    # after 7-9 stderr lines, and picard iterated 50 times on it
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, section: {
        "initial": {"kind": "random", "s": -400.0}, **({"cutoffs": [4.0, 8.0]}
                                                       if section == "split" else {})}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: {section}.initial.s = -400.0 at amplitude 1.0 makes random "
        "data that overflow on grid.n = 64"]
    assert not out.exists()


@pytest.mark.parametrize("command,config,flags,want", [
    ("simulate", {"seed": -1, "simulate": {"initial": {"kind": "random"}}}, [], "seed = -1"),
    ("simulate", {"simulate": {"initial": {"kind": "random", "seed": -3}}}, [],
     "simulate.initial.seed = -3"),
    ("split", {"split": {"cutoffs": [4.0, 8.0]}}, ["--seed", "-1"], "--seed = -1"),
    ("norm-scan", {"norm_scan": {"trials": 5}}, ["--seed", "-1"], "--seed = -1"),
])
def test_a_negative_seed_of_random_data_exits_2_naming_its_key(tmp_path, capsys, command, config,
                                                                 flags, want):
    # numpy's default_rng refused it: "configuration error: expected non-negative
    # integer", which named no key
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, "stepper": {"dt": 0.01}, **config})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: {want} is negative; random data need a seed >= 0"]
    assert not out.exists()


def test_a_negative_seed_is_accepted_where_no_random_data_are_drawn(tmp_path):
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, "stepper": {"dt": 0.01},
                                   "simulate": {"T": 0.02}, "seed": -1})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "-2",
                 "--quiet"]) == EXIT_OK


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_monitored_s_whose_weights_overflow_exits_2(tmp_path, capsys):
    # (1 + xi^2)^400 overflows at n = 64: simulate wrote a run.csv of its header
    # alone and exited 3, "run aborted on non-finite state"
    cfg = _write_config(tmp_path, {"grid": {"n": 64},
                                   "simulate": {"T": 0.01, "monitor_s": [0.0, 400.0]}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "configuration error: simulate.monitor_s holds 400.0, whose H^s weights overflow "
        "on grid.n = 64"]
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["sech2", "gaussian"])
@pytest.mark.parametrize("command,section", [("simulate", "simulate"),
                                             ("energy-drift", "energy_drift"),
                                             ("split", "split"), ("picard", "picard")])
def test_a_width_that_divides_by_zero_exits_2_naming_initial_width(tmp_path, capsys, command,
                                                                    section, kind):
    # two RuntimeWarnings, then "non-finite samples" from Field, which named no
    # key; a gaussian's 2*width^2 is 0 already at 1e-200
    width = 0.0 if kind == "sech2" else 1e-200
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, section: {
        "initial": {"kind": kind, "width": width}}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: {section}.initial.width = {width!r} makes {kind} data divide "
        "by zero"]
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("stepper,initial,want", [
    pytest.param({}, {"amplitude": a}, f"picard.initial.amplitude = {a!r} makes initial data "
                 "whose H^s norm at stepper.sobolev_s = 1.0 overflows", id=f"amplitude={a:g}")
    for a in (1e300, -1e300)
] + [
    pytest.param({"sobolev_s": s}, {}, f"stepper.sobolev_s = {float(s)!r} makes H^s weights "
                 "that overflow on grid.n = 64", id=f"sobolev_s={s:g}")
    for s in (1e300, 2**62)
])
def test_picard_data_whose_hs_norm_overflows_exits_2_naming_the_key(tmp_path, capsys, stepper,
                                                                     initial, want):
    # an overflow RuntimeWarning in the H^s norm, then "requested T = 0.1 exceeds
    # the guaranteed existence time T_bar = 0.0", which named neither key
    cfg = _write_config(tmp_path, {"grid": {"n": 64, "length": 6.0}, "stepper": stepper,
                                   "picard": {"T": 0.1, "initial": {
                                       "kind": "random", "amplitude": 0.01, **initial}}})
    out = tmp_path / "out"
    assert main(["picard", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"configuration error: {want}"]
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command,section", [("simulate", "simulate"),
                                             ("energy-drift", "energy_drift")])
def test_random_data_whose_first_record_overflows_exit_2_naming_the_amplitude(
        tmp_path, capsys, command, section):
    # exited 3, "run aborted on non-finite state", with a CSV of its header alone
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, "stepper": {"dt": 0.01}, section: {
        "T": 0.02, "initial": {"kind": "random", "amplitude": 1e300}}})
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"configuration error: {section}.initial.amplitude = 1e+300 makes initial data whose "
        "energy, H^s norms or predicted drift overflow"]
    assert not out.exists()


@pytest.mark.parametrize("case", ["config directory", "initial.path directory",
                                  "one-column snapshot", "one-row snapshot", "nan snapshot",
                                  "abc snapshot"])
def test_an_input_that_is_not_a_file_of_the_grid_exits_2(tmp_path, capsys, case):
    # the directories ended in IsADirectoryError tracebacks and the one column in
    # an IndexError, exit 1; one row exited 2 saying "snapshot has 2 rows"; a nan
    # cell and an abc cell exited 2 with Field's or numpy's text, naming no key
    snap = tmp_path / "snap.csv"
    snap.write_text({"one-column snapshot": "x\n" + "0.5\n" * 64,
                     "nan snapshot": "x,eta\n" + "0,0.5\n" * 20 + "0,nan\n" + "0,0.5\n" * 43,
                     "abc snapshot": "x,eta\n0,0.5\n0,abc\n" + "0,0.5\n" * 62,
                     }.get(case, "x,eta\n0,0.5\n"))
    path = str(tmp_path) if case == "initial.path directory" else str(snap)
    cfg = str(tmp_path) if case == "config directory" else _write_config(tmp_path, {
        "grid": {"n": 64}, "simulate": {"T": 0.01, "initial": {"kind": "file", "path": path}}})
    want = {
        "config directory": f"config file not found: {tmp_path}",
        "initial.path directory": "simulate.initial.path cannot be read: "
                                  f"[Errno 21] Is a directory: '{tmp_path}'",
        "one-column snapshot": "simulate.initial.path has 64 rows of 1 columns, grid has 64: "
                               "it needs 64 rows of x and finite eta",
        "one-row snapshot": "simulate.initial.path has 1 rows of 2 columns, grid has 64: "
                            "it needs 64 rows of x and finite eta",
        "nan snapshot": "simulate.initial.path has 64 rows of 2 columns, grid has 64: "
                        "it needs 64 rows of x and finite eta",
        "abc snapshot": "simulate.initial.path cannot be read: could not convert string "
                        "'abc' to float64 at row 1, column 2.",
    }[case]
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"configuration error: {want}"]
    assert not out.exists()


def test_a_file_kind_without_a_path_exits_2_in_one_line_naming_initial_path(tmp_path, capsys):
    # numpy's refusal of a path of None is two lines long; the report is one
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, "simulate": {"initial": {"kind": "file"}}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "configuration error: simulate.initial.path cannot be read: ")
    assert not out.exists()


def test_a_snapshot_of_its_header_alone_exits_2_in_one_stderr_line(tmp_path):
    # np.loadtxt's "input contained no data" warning and its source line used to
    # come first, so a fresh interpreter printed three lines
    snap = tmp_path / "snap.csv"
    snap.write_text("x,eta\n")
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, "simulate": {
        "T": 0.01, "initial": {"kind": "file", "path": str(snap)}}})
    src = str(Path(bbm5.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "bbm5.cli", "simulate", "--config", cfg,
                           "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "configuration error: simulate.initial.path has 0 rows of 1 columns, grid has 64: "
        "it needs 64 rows of x and finite eta"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["coeffs", "multiplier-table"])
def test_commands_without_a_grid_accept_any_grid_n(tmp_path, command):
    cfg = _write_config(tmp_path, {"grid": {"n": 10**12}, "multiplier_table": {"count": 5}})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == EXIT_OK


# ---------------------------------------------------------------------------
# split / derivation-residual (small runs)
# ---------------------------------------------------------------------------


SPLIT_CONFIG = {
    "grid": {"n": 128, "length": 2.0 * math.pi},
    "stepper": {"dt": 0.01},
    "split": {"s": 1.5, "cutoffs": [4.0, 8.0],
              "initial": {"kind": "random", "s": 1.5}},
    "seed": 5,
}


def test_split_single_cutoffs_no_slope(tmp_path):
    cfg = _write_config(tmp_path, SPLIT_CONFIG)
    assert main(["split", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    summary = json.loads((tmp_path / "split_summary.json").read_text())
    assert "h_slope" not in summary  # two cutoffs: no regression
    lines = (tmp_path / "split_sweep.csv").read_text().splitlines()
    assert lines[0] == "N,t0,h_H2,u_H2_t0,E_u1_minus_E_ut0,slope_fit_window"
    assert len(lines) == 3


def test_derivation_residual_small_run(tmp_path):
    cfg = _write_config(
        tmp_path,
        {"grid": {"n": 128, "length": 16.0 * math.pi},
         "derivation": {"epsilons": [0.1, 0.05], "t_final": 0.1,
                        "dt": 0.01, "checkpoints": 1}},
    )
    assert main(["derivation-residual", "--config", cfg, "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    lines = (tmp_path / "derivation_residual.csv").read_text().splitlines()
    assert lines[0] == "eps,r1_L2,r2_L2,slope_running"
    assert len(lines) == 3


@pytest.mark.parametrize("rho,got", [
    pytest.param(1.0, "gamma1 must be > 0, got -0.41666666666666663", id="rho=1"),
    pytest.param(1e300, "gamma1 must be > 0, got -5e+299; delta1 must be > 0, got 0.0",
                 id="rho=1e300"),
])
def test_derivation_residual_refuses_ill_posed_coefficients(tmp_path, capsys, rho, got):
    # rho = 1 exited 0 with the residuals of an ill-posed model; 1e300 exited 2
    # on JSON's "Out of range float values" after RuntimeWarnings, leaving --out.
    # The line names the keys gamma1 depends on, coeffs.rho among them
    cfg = _write_config(tmp_path, {"coeffs": {"rho": rho}, "grid": {"n": 64}, "derivation": {
        "epsilons": [0.1, 0.05], "t_final": 0.02, "dt": 0.01, "checkpoints": 1}})
    out = tmp_path / "out"
    assert main(["derivation-residual", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "configuration error: epsilon_sweep requires gamma1 (set by coeffs.theta, coeffs.lam, "
        f"coeffs.mu, coeffs.rho), delta1 > 0: {got}"]
    assert not out.exists()


@pytest.mark.parametrize("coeffs,want", [
    pytest.param({"rho": 1.0}, "gamma1 (set by coeffs.theta, coeffs.lam, coeffs.mu, "
                 "coeffs.rho), delta1 > 0: gamma1 must be > 0, got -0.41666666666666663",
                 id="rho=1"),
    pytest.param({"mu1": 1.0}, "gamma1, delta1 (set by coeffs.theta, coeffs.lam, coeffs.mu, "
                 "coeffs.lam1, coeffs.mu1, coeffs.rho) > 0: delta1 must be > 0, got "
                 "-0.01620370370370371", id="mu1=1"),
])
def test_a_regime_refusal_names_the_keys_of_its_coefficient(tmp_path, capsys, coeffs, want):
    # named the derived coefficient and no config key
    cfg = _write_config(tmp_path, {"coeffs": coeffs, "grid": {"n": 16}, "simulate": {"T": 0.01}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: RhsSpec requires {want}"]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_a_sweep_whose_slopes_are_not_finite_exits_3_writing_nothing(tmp_path, capsys):
    # at grid.length 1e300 the residuals underflow to 0: the CSV writer's running
    # slope raised ZeroDivisionError (exit 1) after the directory was made, and
    # the fit's log(0) warned before the line that explains
    cfg = _write_config(tmp_path, {"grid": {"n": 64, "length": 1e300}, "derivation": {
        "epsilons": [0.1, 0.05], "t_final": 0.02, "dt": 0.01, "checkpoints": 1}})
    out = tmp_path / "out"
    assert main(["derivation-residual", "--config", cfg, "--out", str(out)]) == EXIT_NUMERIC
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: the sweep's residual slopes (nan, nan) are not finite; "
        "nothing written"]
    assert not out.exists()


def test_a_value_error_that_is_no_parameter_error_is_a_defect_not_exit_2(tmp_path,
                                                                          monkeypatch):
    # every ValueError was exit 2, so numpy's own refusals read as configuration errors
    def run(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(cli, "run_simulation", run)
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, "simulate": {"T": 0.01}})
    with pytest.raises(ValueError, match="^injected$"):
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])


# ---------------------------------------------------------------------------
# Environment and determinism
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command,config,code", [
    ("coeffs", {}, EXIT_OK),
    ("simulate", {"grid": {"n": 64}, "simulate": {"initial": {"width": 0}}}, EXIT_CONFIG),
    ("derivation-residual", {"grid": {"n": 64, "length": 1e300}, "derivation": {
        "epsilons": [0.1, 0.05], "t_final": 0.02, "dt": 0.01, "checkpoints": 1}}, EXIT_NUMERIC),
])
def test_main_leaves_numpy_s_error_state_as_it_found_it(tmp_path, capsys, command, config, code):
    cfg = _write_config(tmp_path, config)
    with np.errstate(over="raise", under="warn"):
        before = np.geterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == code
        assert np.geterr() == before


def test_out_dir_env_var(tmp_path, monkeypatch):
    out = tmp_path / "from_env"
    monkeypatch.setenv("BBM5_OUT_DIR", str(out))
    assert main(["multiplier-table", "--quiet"]) == EXIT_OK
    assert (out / "multiplier_table.csv").exists()


def test_out_flag_overrides_env(tmp_path, monkeypatch):
    monkeypatch.setenv("BBM5_OUT_DIR", str(tmp_path / "env"))
    out = tmp_path / "flag"
    assert main(["multiplier-table", "--out", str(out), "--quiet"]) == EXIT_OK
    assert (out / "multiplier_table.csv").exists()
    assert not (tmp_path / "env").exists()


@pytest.mark.parametrize("command", ["coeffs", "simulate", "multiplier-table"])
@pytest.mark.parametrize("under", [False, True])
def test_an_out_that_cannot_be_a_directory_exits_2_naming_out(tmp_path, capsys, command, under):
    # a FileExistsError or NotADirectoryError traceback, exit 1
    cfg = _write_config(tmp_path, {"grid": {"n": 64}, "stepper": {"dt": 0.01},
                                   "simulate": {"T": 0.02}})
    out = os.path.join(cfg, "out") if under else cfg
    assert main([command, "--config", cfg, "--out", out, "--quiet"]) == EXIT_CONFIG
    reason = "Not a directory" if under else "File exists"
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: --out = {out!r} cannot be made a directory: {reason}"]


def test_an_out_under_a_file_exits_2_before_the_run(tmp_path, capsys, monkeypatch):
    # the run went to its end and the write was refused after it
    def no_run(*args, **kwargs):
        raise AssertionError("run_simulation was called")

    monkeypatch.setattr(cli, "run_simulation", no_run)
    path = tmp_path / "file"
    path.write_text("")
    out = str(path / "sub")
    assert main(["simulate", "--out", out, "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: --out = {out!r} cannot be made a directory: Not a directory"]
    assert path.read_text() == ""


def test_an_out_dir_env_var_that_names_a_file_exits_2_naming_it(tmp_path, capsys, monkeypatch):
    path = tmp_path / "file"
    path.write_text("")
    monkeypatch.setenv("BBM5_OUT_DIR", str(path))
    assert main(["multiplier-table", "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: BBM5_OUT_DIR = {str(path)!r} cannot be made a directory: "
        "File exists"]


def test_seeded_runs_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, SPLIT_CONFIG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["split", "--config", cfg, "--out", str(out),
                     "--seed", "11", "--quiet"]) == EXIT_OK
        outs.append((out / "split_sweep.csv").read_bytes())
    assert outs[0] == outs[1]


def test_different_seeds_differ(tmp_path):
    cfg = _write_config(tmp_path, SPLIT_CONFIG)
    outs = []
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["split", "--config", cfg, "--out", str(out),
                     "--seed", seed, "--quiet"]) == EXIT_OK
        outs.append((out / "split_sweep.csv").read_bytes())
    assert outs[0] != outs[1]
