"""Command line interface: subcommands, exit codes, output files."""

import math
import subprocess
import sys
import warnings

import pytest

from phasecomb import (PathlossModel, ScenarioParams, builtin_pattern, carrier_wavelength, cli,
                       experiments, speed_sweep, sum_snr_combined, sum_snr_omega, sum_snr_pl)


def run_cli(args):
    return cli.main(list(args))


# ---------------------------------------------------------------------------
# design-rule
# ---------------------------------------------------------------------------

def test_design_rule_even_packets(capsys):
    assert run_cli(["design-rule", "--packets", "10", "--interval", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "q=5" in out
    assert "90 deg" in out
    assert "satisfied" in out


def test_design_rule_odd_packets_prints_both_choices(capsys):
    assert run_cli(["design-rule", "--packets", "5"]) == 0
    out = capsys.readouterr().out
    assert "q=2" in out and "q=3" in out


def test_design_rule_short_flag_aliases(capsys):
    assert run_cli(["design-rule", "--K", "10", "--T", "0.1"]) == 0
    long_out = capsys.readouterr().out
    assert run_cli(["design-rule", "--packets", "10", "--interval", "0.1"]) == 0
    assert capsys.readouterr().out == long_out


# ---------------------------------------------------------------------------
# CSV-producing subcommands
# ---------------------------------------------------------------------------

def test_loss_curve_writes_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert run_cli(["loss-curve", "--packets", "5", "--step", "0.01",
                    "--out", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out
    text = out.read_text(encoding="utf-8")
    assert text.startswith("# name: loss_curve")
    assert "x_rad,loss,lower_bound,upper_bound" in text


def test_loss_curve_honors_output_dir_env(tmp_path, monkeypatch, capsys):
    # the parser is shared by every run, so the default is read per run
    args = ["loss-curve", "--packets", "4", "--step", "0.05"]
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / name))
        assert run_cli(args) == 0
        assert (tmp_path / name / "loss_curve.csv").is_file()
    monkeypatch.delenv(cli.ENV_OUT_DIR)
    monkeypatch.chdir(tmp_path)
    assert run_cli(args) == 0
    assert (tmp_path / "loss_curve.csv").is_file()
    assert capsys.readouterr().out.splitlines()[-1].startswith("wrote ./loss_curve.csv")


def test_default_a_omega_range_runs_are_byte_identical(tmp_path, monkeypatch, capsys):
    # the second run starts from the defaults the first one parsed
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.setenv(cli.ENV_OUT_DIR, str(tmp_path / name))
        assert run_cli(["a-omega-range"]) == 0
    capsys.readouterr()
    a, b = (tmp_path / name / "a_omega_range.csv" for name in ("a", "b"))
    assert a.read_bytes() == b.read_bytes()
    assert "d_y_values_m: [-4.0, 4.0]" in a.read_text(encoding="utf-8")


def test_parser_is_built_once_per_process(tmp_path, capsys):
    cli.build_parser.cache_clear()
    assert run_cli(["design-rule"]) == 0
    assert run_cli(["pl-losses", "--out", str(tmp_path / "pl.csv")]) == 0
    with pytest.raises(SystemExit):
        run_cli(["loss-curve", "--step", "0"])
    assert run_cli(["design-rule", "--K", "5"]) == 0
    capsys.readouterr()
    assert cli.build_parser.cache_info().misses == 1


def test_import_builds_no_parser():
    proc = subprocess.run([sys.executable, "-c", "import phasecomb.cli as c; "
                           "print(c.build_parser.cache_info().currsize)"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "0"


def test_every_run_shows_its_pathloss_validity_warning(tmp_path, capsys):
    # pytest resets the warning filters per test, so both runs share one test
    args = ["speed-sweep", "--mode", "pl", "--dx", "170", "--dv-min", "-60",
            "--dv-max", "60", "--dv-step", "60"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # Python's: once per code location
        for name in ("a.csv", "b.csv"):
            assert run_cli(args + ["--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    assert ["validity horizon" in str(w.message) for w in caught] == [True, True]
    for name in ("a.csv", "b.csv"):
        assert "pl_validity_exceeded: True" in (tmp_path / name).read_text(encoding="utf-8")


def test_repeat_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["pl-losses", "--packets", "10"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_pl_losses_prints_floors(tmp_path, capsys):
    out = tmp_path / "pl.csv"
    assert run_cli(["pl-losses", "--K", "10", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "q=1: universal floor -1.94 dB" in text
    assert out.is_file()


def test_a_omega_range_reports_thresholds(tmp_path, capsys):
    out = tmp_path / "range.csv"
    assert run_cli(["a-omega-range", "--dx-min", "10", "--dx-max", "40",
                    "--dx-step", "10", "--dv-step", "20",
                    "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "below pi/2 beyond" in text
    assert out.is_file()


def test_speed_sweep_omega(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli(["speed-sweep", "--mode", "omega", "--dv-min", "-20",
                    "--dv-max", "20", "--dv-step", "20", "--slopes", "star",
                    "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "worst dip" in text
    lines = out.read_text(encoding="utf-8").splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",")[0] == "delta_v_kmh"
    assert "q5_exact_db" in header
    assert sum(not l.startswith("#") for l in lines) == 4  # header + 3 speeds


def test_speed_sweep_dy_is_an_alias_of_dy_set(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["speed-sweep", "--dv-min", "-20", "--dv-max", "20", "--dv-step", "20"]
    assert run_cli(args + ["--dy", "3", "--out", str(a)]) == 0
    assert run_cli(args + ["--dy-set", "3", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def first_column(path):
    rows = [l for l in path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    return [float(row.split(",")[0]) for row in rows[1:]]  # rows[0] is the header


def test_sweep_grids_stop_at_their_maximum(tmp_path, capsys):
    # a step that does not divide the range ends at or below the maximum
    out = tmp_path / "sweep.csv"
    assert run_cli(["speed-sweep", "--dv-step", "11", "--slopes", "1", "--out", str(out)]) == 0
    speeds = first_column(out)
    assert speeds[0] == -60.0 and speeds[-1] == 50.0 and len(speeds) == 11
    out = tmp_path / "range.csv"
    assert run_cli(["a-omega-range", "--dx-min", "1", "--dx-max", "10", "--dx-step", "3.5",
                    "--out", str(out)]) == 0
    assert first_column(out) == [1.0, 4.5, 8.0]
    capsys.readouterr()


def test_speed_sweep_paths_both_alias(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli(["speed-sweep", "--dv-min", "0", "--dv-max", "0",
                    "--slopes", "1", "--paths", "both", "--out", str(out)]) == 0
    capsys.readouterr()
    header = next(l for l in out.read_text(encoding="utf-8").splitlines()
                  if not l.startswith("#"))
    assert "q1_exact_db" in header and "q1_affine_db" in header


def metadata_lines(path):
    return [l for l in path.read_text(encoding="utf-8").splitlines() if l.startswith("#")]


def test_speed_sweep_metadata_records_patterns_and_pathloss_model(tmp_path, capsys):
    config = tmp_path / "pathloss.json"
    config.write_text('{"n_e": 3.0}', encoding="utf-8")
    args = ["speed-sweep", "--dv-min", "-20", "--dv-max", "20", "--dv-step", "20"]
    runs = {"phi": ["--mode", "phi"], "phi_cardioid": ["--mode", "phi", "--pattern0", "cardioid"],
            "pl": ["--mode", "pl"], "pl_config": ["--mode", "pl", "--pathloss-config", str(config)],
            "omega": [], "omega_extras": ["--pattern0", "cardioid",
                                          "--pathloss-config", str(config)]}
    out = {name: tmp_path / f"{name}.csv" for name in runs}
    for name, extra in runs.items():
        assert run_cli(args + extra + ["--out", str(out[name])]) == 0
    capsys.readouterr()
    assert metadata_lines(out["phi"]) != metadata_lines(out["phi_cardioid"])
    assert "# pattern0: cardioid" in metadata_lines(out["phi_cardioid"])
    assert "# pattern1: patch_rear" in metadata_lines(out["phi"])
    assert metadata_lines(out["pl"]) != metadata_lines(out["pl_config"])
    assert "'exponent': 3.0" in metadata_lines(out["pl_config"])[-1]
    # omega mode reads neither input and records neither
    assert out["omega"].read_bytes() == out["omega_extras"].read_bytes()
    assert not any("pattern" in l for l in metadata_lines(out["omega"]))


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (["loss-curve", "--step", "0"], "positive"),
    (["speed-sweep", "--dv-step", "0"], "positive"),
    (["a-omega-range", "--dv-step", "-1"], "positive"),
    (["a-omega-range", "--dx-step", "-1"], "positive"),
    (["design-rule", "--T", "0"], "positive"),
    (["pl-losses", "--interval", "nan"], "positive"),
    (["loss-curve", "--packets", "1"], "at least 2"),
    (["a-omega-range", "--K", "0"], "at least 2"),
    (["speed-sweep", "--packets", "-3"], "at least 2"),
    (["pl-losses", "--K", "1"], "at least 2"),
    (["design-rule", "--K", "1"], "at least 2"),
    (["speed-sweep", "--seed", "3"], "unrecognized arguments"),
    (["speed-sweep", "--dv-min", "10", "--dv-max", "0"], "empty speed grid"),
    (["a-omega-range", "--dx-min", "50", "--dx-max", "10"], "empty distance grid"),
    (["a-omega-range", "--dv-max", "-5"], "empty speed grid"),
    (["validate", "--seed", "-1"], "at least 0"),
    (["loss-curve", "--step", "4"], "empty x grid"),
    (["loss-curve", "--step", str(math.pi)], "empty x grid"),
    (["speed-sweep", "--slopes", "0"], "slope index 0 outside 1..9"),
    (["speed-sweep", "--slopes", "junk"], "neither an integer index nor 'star'"),
    (["speed-sweep", "--paths", "bogus"], "unknown evaluation path 'bogus'"),
    (["speed-sweep", "--paths", "exact,exact"], "evaluation path 'exact' named twice"),
    (["speed-sweep", "--paths", ","], "no evaluation paths"),
    (["speed-sweep", "--paths", " , "], "no evaluation paths"),
    (["speed-sweep", "--slopes", ","], "no slopes"),
    (["speed-sweep", "--dy-set"], "expected at least one argument"),
    (["loss-curve", "--T", "0.1"], "unrecognized arguments"),
    (["pl-losses", "--fc-ghz", "5.9"], "unrecognized arguments"),
], ids=["step", "dv-step", "a-omega-dv-step", "dx-step", "T", "interval",
        "loss-curve-packets", "a-omega-K", "speed-sweep-packets", "pl-losses-K",
        "design-rule-K", "speed-sweep-seed", "speed-sweep-empty-dv",
        "a-omega-empty-dx", "a-omega-empty-dv", "validate-seed",
        "loss-curve-empty-x", "loss-curve-step-pi", "slopes-zero", "slopes-junk",
        "paths-bogus", "paths-twice", "paths-comma", "paths-spaced-comma", "slopes-comma",
        "dy-set-empty", "loss-curve-T", "pl-losses-fc-ghz"])
def test_nonpositive_steps_exit_two_with_usage(argv, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    no_out = argv[0] in ("design-rule", "validate")
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ([] if no_out else ["--out", str(out)]))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the subcommand's usage, also for requests the library rejects; only
    # arguments no subcommand takes are the root parser's to report
    prog = "phasecomb" if message == "unrecognized arguments" else f"phasecomb {argv[0]}"
    assert err.startswith(f"usage: {prog} [-h]") and f"\n{prog}: error: " in err
    assert message in err
    assert not out.exists()


def test_no_call_or_flag_sets_the_linearization_instant(tmp_path, capsys):
    # the affine path linearizes at mid-burst only: no sum_snr_* call, sweep or
    # flag takes an instant that the CSV metadata would not record
    lam = carrier_wavelength(5.9e9)
    scen = ScenarioParams(d_x=30.0, d_y=-4.0, delta_v=0.0, delta_a=10.0 * lam, wavelength=lam)
    pair = (builtin_pattern("patch_front"), builtin_pattern("patch_rear"))
    calls = (lambda exact: sum_snr_omega(1.0, scen, use_exact=exact, t0=0.3),
             lambda exact: sum_snr_pl(1.0, scen, PathlossModel(), use_exact=exact, t0=0.3),
             lambda exact: sum_snr_combined(1.0, scen, PathlossModel(), *pair,
                                            use_exact=exact, t0=0.3),
             lambda exact: speed_sweep("omega", {"q1": 1.0}, [0.0], scen,
                                       paths=("exact" if exact else "affine",), t0=0.3))
    for call in calls:
        for exact in (True, False):
            with pytest.raises(TypeError, match="t0"):
                call(exact)
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["speed-sweep", "--t0", "0.2", "--out", str(out)])
    assert exc.value.code == 2
    # an argument that no subcommand takes is the root parser's to report
    err = capsys.readouterr().err
    assert err.startswith("usage: phasecomb [-h]")
    assert "phasecomb: error: unrecognized arguments: --t0 0.2" in err
    assert not out.exists()
    with pytest.raises(SystemExit) as exc:
        run_cli(["speed-sweep", "--help"])
    assert exc.value.code == 0
    assert "--t0" not in capsys.readouterr().out


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_runtime_errors_exit_one(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    missing = str(tmp_path / "missing_pattern.csv")
    assert run_cli(["speed-sweep", "--mode", "phi", "--pattern0", missing,
                    "--dv-min", "0", "--dv-max", "0", "--out", out]) == 1
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"bogus": 1}\n', encoding="utf-8")
    assert run_cli(["pl-losses", "--pathloss-config", str(bad_cfg),
                    "--out", out]) == 1
    # a non-finite scenario fails before any CSV is written
    assert run_cli(["speed-sweep", "--dx", "nan", "--out", out]) == 1
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    # so do non-finite weights and pathloss fields
    nan_cfg = tmp_path / "nan.json"
    nan_cfg.write_text('{"n_e": NaN}\n', encoding="utf-8")
    for argv in (["loss-curve", "--c2", "nan"], ["loss-curve", "--c2", "inf"],
                 ["loss-curve", "--c1", "inf"],
                 ["speed-sweep", "--mode", "pl", "--paths", "exact",
                  "--pathloss-config", str(nan_cfg)]):
        assert run_cli(argv + ["--out", out]) == 1, argv
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
    # a malformed pathloss config is a runtime error, never a traceback
    for i, text in enumerate(('{"a0_log10": 400}', '{"a0_log10": "x"}', '{"n_e": null}',
                              '{"n_e": [1]}', "5", '{"a0_log10": true}')):
        cfg = tmp_path / f"malformed_{i}.json"
        cfg.write_text(text + "\n", encoding="utf-8")
        assert run_cli(["pl-losses", "--pathloss-config", str(cfg), "--out", out]) == 1, text
        err = capsys.readouterr().err
        assert err.startswith("error: pathloss config") and "Traceback" not in err, text
        assert not (tmp_path / "x.csv").exists()


def test_phi_sweep_on_a_zero_gain_pair_exits_one(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rows = {"zero.csv": "0,-inf,0\n180,-inf,0\n", "null.csv": "0,0,0\n90,-inf,0\n180,0,0\n"}
    for name, body in rows.items():
        pattern = tmp_path / name
        pattern.write_text("azimuth_deg,gain_dbi,phase_deg\n" + body, encoding="utf-8")
        assert run_cli(["speed-sweep", "--mode", "phi", "--paths", "exact",
                        "--pattern0", str(pattern), "--pattern1", str(pattern),
                        "--out", str(out)]) == 1, name
        assert "zero gain at the worst-case AOA" in capsys.readouterr().err
        assert not out.exists()


def test_out_of_memory_is_an_error_line(tmp_path, monkeypatch, capsys):
    # a grid too large to allocate, as --dx-max 1e9 --dx-step 1e-3 asks for
    def huge(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(999999999001,) and data type float64")

    monkeypatch.setattr(experiments, "_span", huge)
    out = tmp_path / "x.csv"
    assert run_cli(["a-omega-range", "--dx-max", "1e9", "--dx-step", "1e-3",
                    "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err
    assert not out.exists()


def test_validate_passes(capsys):
    assert run_cli(["validate", "--seed", "42"]) == 0
    out = capsys.readouterr().out
    assert "12/12 checks passed (seed 42)" in out
    assert "FAIL" not in out


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "phasecomb", "design-rule",
                           "--K", "10", "--T", "0.1"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "q=5" in proc.stdout
