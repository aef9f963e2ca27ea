import json

import numpy as np
import pytest

import shapewave as sw
from shapewave.cli import main

from conftest import make_tone, noisy_record


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def ex1_files(tmp_path):
    out = tmp_path / "ex1.csv"
    assert run(["gen", "example1", "--n", 4096, "--sigma", 0, "--out", out]) == 0
    return out, tmp_path / "ex1.phase.csv", tmp_path / "ex1.shape.csv"


class TestGen:
    def test_example1_writes_three_files(self, ex1_files):
        signal_path, phase_path, shape_path = ex1_files
        assert signal_path.exists() and phase_path.exists() and shape_path.exists()
        assert signal_path.read_text().splitlines()[0] == "t,f"
        assert phase_path.read_text().splitlines()[0] == "t,theta"
        assert shape_path.read_text().splitlines()[0] == "tau,s"

    def test_duffing_defaults(self, tmp_path):
        out = tmp_path / "duf.csv"
        assert run(["gen", "duffing", "--out", out]) == 0
        signal = sw.load_signal_csv(out)
        assert signal.n_samples == 8192
        assert np.max(np.abs(signal.values)) < 10.0

    def test_seeded_generation_is_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert run(["gen", "example1", "--sigma", 0.3, "--seed", 7, "--out", out]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHAPEWAVE_SEED", "7")
        out_env = tmp_path / "env.csv"
        assert run(["gen", "example1", "--sigma", 0.3, "--out", out_env]) == 0
        out_flag = tmp_path / "flag.csv"
        assert run(["gen", "example1", "--sigma", 0.3, "--seed", 7, "--out", out_flag]) == 0
        assert out_env.read_bytes() == out_flag.read_bytes()

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.setenv("SHAPEWAVE_SEED", value)
        assert run(["gen", "example1", "--sigma", 0.1, "--out", tmp_path / "y.csv"]) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
        if value == "abc":
            assert "SHAPEWAVE_SEED must be an integer, got 'abc'" in err

    def test_negative_env_seed_names_its_source(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SHAPEWAVE_SEED", "-1")
        assert run(["gen", "example1", "--sigma", 0.1, "--out", tmp_path / "y.csv"]) == 2
        err = capsys.readouterr().err
        assert "SHAPEWAVE_SEED: seed must be >= 0, got -1" in err and "Traceback" not in err
        assert not (tmp_path / "y.csv").exists()

    def test_morph_writes_phase(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["gen", "morph", "--n", 2048, "--l-theta", 16, "--out", out]) == 0
        assert (tmp_path / "m.phase.csv").exists()

    def test_noisy_morph_adds_noise_and_tracks(self, tmp_path, capsys):
        clean, noisy = tmp_path / "c.csv", tmp_path / "m.csv"
        assert run(["gen", "morph", "--out", clean]) == 0
        assert run(["gen", "morph", "--sigma", 0.1, "--seed", 3, "--out", noisy]) == 0
        a, b = sw.load_signal_csv(clean), sw.load_signal_csv(noisy)
        assert np.array_equal(a.times, b.times)
        assert abs(np.std(b.values - a.values) - 0.1) <= 0.01
        assert (tmp_path / "m.phase.csv").read_bytes() == (tmp_path / "c.phase.csv").read_bytes()
        assert run(["extract-local", noisy, "--phase", tmp_path / "m.phase.csv"]) == 0
        assert capsys.readouterr().err == ""

    def test_bad_generator_usage_error(self, tmp_path):
        assert run(["gen", "nosuch", "--out", tmp_path / "x.csv"]) == 2


class TestExtract:
    def test_clean_example1_summary_and_files(self, ex1_files, capsys, tmp_path):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract", signal_path, "--phase", phase_path]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        fields = dict(part.split("=") for part in summary.split())
        assert fields["l_theta"] == "20"
        assert float(fields["rank1"]) >= 0.99
        assert float(fields["resid"]) <= 0.05
        for suffix in (".result.json", ".shape.csv", ".envelope.csv", ".residual.csv"):
            assert (tmp_path / f"ex1{suffix}").exists()

    def test_json_round_trip_reproduces_shape_csv(self, ex1_files, tmp_path):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract", signal_path, "--phase", phase_path]) == 0
        payload = json.loads((tmp_path / "ex1.result.json").read_text())
        coeffs = np.array([re + 1j * im for re, im in payload["coefficients"]])
        shape = sw.ShapeFunction(coeffs=coeffs)
        rows = (tmp_path / "ex1.shape.csv").read_text().splitlines()[1:]
        data = np.array([[float(c) for c in row.split(",")] for row in rows])
        np.testing.assert_allclose(shape(data[:, 0]), data[:, 1], atol=1e-9)

    def test_nyquist_violation_is_pipeline_error(self, ex1_files, capsys):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract", signal_path, "--phase", phase_path, "--K", 500]) == 1
        assert "BandExceedsNyquist" in capsys.readouterr().err

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run(["extract", tmp_path / "nope.csv", "--estimate-phase"]) == 2

    @pytest.mark.parametrize("option", [["--K", 0], ["--n", 1000]])
    def test_bad_option_is_usage_error(self, ex1_files, option, capsys):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract", signal_path, "--phase", phase_path, *option]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_too_small_grid_is_pipeline_error(self, ex1_files, capsys):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract", signal_path, "--phase", phase_path, "--n", 64]) == 1
        assert "GridTooCoarse" in capsys.readouterr().err

    def test_short_phase_file_is_pipeline_error(self, ex1_files, capsys, tmp_path):
        signal_path, phase_path, _ = ex1_files
        short = tmp_path / "short.phase.csv"
        short.write_text("\n".join(phase_path.read_text().splitlines()[:100]) + "\n")
        assert run(["extract", signal_path, "--phase", short]) == 1
        assert "error: MismatchedLengths" in capsys.readouterr().err

    def test_non_utf8_signal_is_pipeline_error(self, ex1_files, capsys, tmp_path):
        signal_path, phase_path, _ = ex1_files
        lines = signal_path.read_bytes().split(b"\n")
        lines[4] = lines[4][:-1] + b"\xff"
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        assert run(["extract", bad, "--phase", phase_path]) == 1
        assert "error: ParseError: invalid UTF-8 at line 5" in capsys.readouterr().err

    def test_estimated_phase_route(self, ex1_files, capsys):
        signal_path, _, _ = ex1_files
        assert run(["extract", signal_path, "--estimate-phase"]) == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        fields = dict(part.split("=") for part in summary.split())
        assert fields["l_theta"] == "20"

    def test_zero_dc_flag(self, ex1_files, tmp_path):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract", signal_path, "--phase", phase_path, "--zero-dc"]) == 0
        payload = json.loads((tmp_path / "ex1.result.json").read_text())
        coeffs = np.array([re + 1j * im for re, im in payload["coefficients"]])
        assert abs(coeffs[0]) <= 1e-10 * np.max(np.abs(coeffs))

    def test_extract_output_is_deterministic(self, ex1_files, tmp_path):
        signal_path, phase_path, _ = ex1_files
        prefix_a = tmp_path / "run_a"
        prefix_b = tmp_path / "run_b"
        for prefix in (prefix_a, prefix_b):
            assert run(["extract", signal_path, "--phase", phase_path,
                        "--out-prefix", prefix]) == 0
        assert (tmp_path / "run_a.result.json").read_bytes() == \
            (tmp_path / "run_b.result.json").read_bytes()
        assert (tmp_path / "run_a.shape.csv").read_bytes() == \
            (tmp_path / "run_b.shape.csv").read_bytes()

    def test_large_amplitude_norms_are_finite(self, ex1_files, tmp_path, capsys):
        # 1e160 squared overflows, but neither norm does
        signal_path, phase_path, _ = ex1_files
        signal = sw.load_signal_csv(signal_path)
        big = tmp_path / "big.csv"
        big.write_text("t,f\n" + "".join(f"{t:.17g},{f * 1e160:.17g}\n"
                                          for t, f in zip(signal.times, signal.values)))
        assert run(["extract", big, "--phase", phase_path]) == 0
        out, err = capsys.readouterr()
        fields = dict(part.split("=") for part in out.strip().splitlines()[-1].split())
        assert np.isfinite(float(fields["resid"]))
        payload = json.loads((tmp_path / "big.result.json").read_text())
        assert np.isfinite(payload["relative_residual"]) and np.isfinite(payload["residual_norm"])
        assert err == ""

    def test_envelope_past_the_float_range_exits_1(self, tmp_path, capsys):
        # a record whose envelope exceeds the float range (see TestPowerOfTwoScale)
        t, theta, values = noisy_record(512, 5, False, 0)
        sw.datasets.write_signal_csv(tmp_path / "big.csv", sw.validate_signal(t, np.ldexp(values, 1017)))
        sw.datasets.write_phase_csv(tmp_path / "big.phase.csv", t, theta)
        assert run(["extract", tmp_path / "big.csv", "--phase", tmp_path / "big.phase.csv"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: NonFiniteValue: envelope exceeds the float range"]
        assert not (tmp_path / "big.result.json").exists()


class TestExtractLocal:
    def test_stationary_track(self, ex1_files, tmp_path, capsys):
        signal_path, phase_path, _ = ex1_files
        centers = ",".join(str(c) for c in np.linspace(700, 3400, 8).astype(int))
        assert run(["extract-local", signal_path, "--phase", phase_path,
                    "--centers", centers]) == 0
        rows = (tmp_path / "ex1.track.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header[:3] == ["center_t", "drift", "error"]
        drifts = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(d <= 0.02 for d in drifts)

    def test_morph_track_accumulates(self, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["gen", "morph", "--n", 4096, "--l-theta", 24, "--out", out]) == 0
        centers = ",".join(str(c) for c in np.linspace(600, 3500, 10).astype(int))
        assert run(["extract-local", out, "--phase", tmp_path / "m.phase.csv",
                    "--centers", centers]) == 0
        rows = (tmp_path / "m.track.csv").read_text().splitlines()
        parsed = [r.split(",") for r in rows[1:]]
        drifts = np.array([float(p[1]) for p in parsed])

        def shape_from_row(parts):
            values = [float(x) for x in parts[3:]]
            coeffs = np.array(values[0::2]) + 1j * np.array(values[1::2])
            return sw.ShapeFunction(coeffs=coeffs)

        total = sw.shape_distance(shape_from_row(parsed[0]), shape_from_row(parsed[-1]))
        assert total > 5.0 * np.median(drifts[1:])

    def test_mu_below_one_usage_error(self, ex1_files):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract-local", signal_path, "--phase", phase_path,
                    "--mu", 0.5]) == 2

    @pytest.mark.parametrize("centers, bad", [("5,999999", "999999"), ("-1,2048", "-1")])
    def test_center_out_of_range_usage_error(self, ex1_files, capsys, centers, bad):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract-local", signal_path, "--phase", phase_path,
                    f"--centers={centers}"]) == 2
        err = capsys.readouterr().err
        assert f"index {bad} out of range for 4096 samples" in err

    def test_non_integer_center_is_usage_error(self, ex1_files, capsys):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract-local", signal_path, "--phase", phase_path, "--centers", "1,x"]) == 2
        assert "--centers must be comma-separated integers, got '1,x'" in capsys.readouterr().err

    def test_band_limit_above_default_is_fitted(self, ex1_files, capsys):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract-local", signal_path, "--phase", phase_path,
                    "--centers", "2048", "--K", 30]) == 0
        assert " K=30 " in capsys.readouterr().out

    def test_no_fitted_window_writes_no_coefficients(self, ex1_files, tmp_path, capsys):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract-local", signal_path, "--phase", phase_path,
                    "--K", 500, "--centers", "700,2048"]) == 0
        assert " K=none " in capsys.readouterr().out
        rows = (tmp_path / "ex1.track.csv").read_text().splitlines()
        assert rows[0] == "center_t,drift,error"
        assert len(rows) == 3 and all("BandExceedsNyquist" in row for row in rows[1:])

    def test_partial_failures_recorded(self, ex1_files, tmp_path):
        signal_path, phase_path, _ = ex1_files
        assert run(["extract-local", signal_path, "--phase", phase_path,
                    "--centers", "2,2048"]) == 0
        rows = (tmp_path / "ex1.track.csv").read_text().splitlines()
        assert "TooFewPeriods" in rows[1]
        assert rows[2].split(",")[2] == ""


@pytest.mark.parametrize("command", ["extract", "extract-local"])
@pytest.mark.parametrize("case, line", [("7t+3", 2), ("nan", 7)])
def test_phase_times_must_be_signal_times(ex1_files, capsys, tmp_path, command, case, line):
    signal_path, phase_path, _ = ex1_files
    times, phases = sw.load_phase_csv(phase_path)
    if case == "nan":
        times[5] = np.nan
    else:
        times = 7.0 * times + 3.0
    moved = tmp_path / "moved.phase.csv"
    sw.datasets.write_phase_csv(moved, times, phases)
    assert run([command, signal_path, "--phase", moved]) == 1
    assert f"error: ParseError: time at line {line} is not the signal's within" in capsys.readouterr().err


@pytest.mark.parametrize("case, message", [("value", "non-numeric value at line 8"),
                                           ("time", "time at line 8 is not the signal's within")],
                         ids=["value", "time"])
def test_phase_file_lines_count_quoted_newlines(ex1_files, capsys, tmp_path, case, message):
    # the first record's quoted time spans lines 2 and 3, so record 7 is on line 8
    signal_path, phase_path, _ = ex1_files
    rows = phase_path.read_text().splitlines()
    assert rows[1].startswith("0,")
    rows[1] = '"0\n"' + rows[1][1:]
    t, theta = rows[6].split(",")
    rows[6] = f"{t},x" if case == "value" else f"{float(t) + 0.5},{theta}"
    quoted = tmp_path / "quoted.phase.csv"
    quoted.write_text("\n".join(rows) + "\n")
    assert run(["extract", signal_path, "--phase", quoted]) == 1
    assert f"error: ParseError: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "extract-local"])
@pytest.mark.parametrize("lam", [0.9, 0.0])
def test_lambda_out_of_range_usage_error(ex1_files, capsys, command, lam):
    signal_path, phase_path, _ = ex1_files
    for source in (["--estimate-phase"], ["--phase", phase_path]):
        assert run([command, signal_path, *source, "--lambda", lam]) == 2
        assert "--lambda" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["gen", "example1", "--n", 100],
    ["gen", "example1", "--n", 0],
    ["gen", "example1", "--n", 2**62],
    ["gen", "duffing", "--n", -5],
    ["gen", "duffing", "--dt", 0],
    ["gen", "duffing", "--dt", "nan"],
    ["gen", "duffing", "--t-span", 5],
    ["gen", "duffing", "--omega-exp", 0],
    ["gen", "example1", "--sigma", -1],
    ["gen", "example1", "--sigma", 0.1, "--seed", -1],
    ["gen", "morph", "--l-theta", 0],
    ["extract", "--estimate-phase", "--fundamental-hint", 1e9],
    ["extract", "--estimate-phase", "--fundamental-hint", "nan"],
    ["extract", "--n", 0],
    ["extract", "--n", -4],
    ["extract", "--n", 2**62],
    ["extract-local", "--K", 0],
    ["extract-local", "--mu", "nan"],
    ["extract-local", "--mu", "inf"],
    ["extract-local", "--n", 1000],
], ids=lambda args: " ".join(map(str, args)))
def test_out_of_range_value_is_usage_error(ex1_files, capsys, tmp_path, args):
    signal_path, phase_path, _ = ex1_files
    command, *options = args
    if command == "gen":
        argv = [command, *options, "--out", tmp_path / "x.csv"]
    else:
        source = [] if "--estimate-phase" in options else ["--phase", phase_path]
        argv = [command, signal_path, *source, *options]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["extract", "extract-local"])
def test_fundamental_hint_with_exact_phase_is_usage_error(ex1_files, capsys, command):
    # the exact phase never reads the hint, so it must not be accepted silently
    signal_path, phase_path, _ = ex1_files
    assert run([command, signal_path, "--phase", phase_path, "--fundamental-hint", 20]) == 2
    assert "--fundamental-hint applies only with --estimate-phase" in capsys.readouterr().err


def test_extreme_time_span_estimated_phase(tmp_path, capsys):
    # non-uniform times spanning 1e110 once ended in a traceback from estimate_phase
    t = np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 2000))
    theta = 2.0 * np.pi * 20 * (t - t[0]) / (t[-1] - t[0])
    path = tmp_path / "big.csv"
    sw.datasets.write_signal_csv(path, sw.validate_signal(t * 1e110, np.cos(theta) + 0.3 * np.cos(2.0 * theta)))
    assert run(["extract", path, "--estimate-phase"]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_time_step_estimated_phase_is_one_error_line(tmp_path, capsys):
    # a time step of 1e-300 once ended in overflow warnings and a raw ValueError
    signal, _ = make_tone(8, 512)
    t = signal.times.copy()
    t[1] = 1e-300
    path = tmp_path / "tiny.csv"
    sw.datasets.write_signal_csv(path, sw.validate_signal(t, signal.values))
    assert run(["extract", path, "--estimate-phase"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["error: NonFiniteValue: spline values exceed the float range"]


def test_memory_error_is_one_error_line(ex1_files, capsys, monkeypatch):
    # a size within every rule can still be more than the machine holds
    def fail(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array with shape (1099511627776,)")

    signal_path, phase_path, _ = ex1_files
    monkeypatch.setattr("shapewave.cli.extract_shape", fail)
    assert run(["extract", signal_path, "--phase", phase_path, "--n", 2**40]) == 1
    err = capsys.readouterr().err
    assert err == "error: MemoryError: Unable to allocate 8.00 TiB for an array with shape (1099511627776,)\n"


@pytest.mark.parametrize("option", [["--dt", 1e-300], ["--t-span", 1e300]])
def test_step_count_past_max_count_is_usage_error(tmp_path, capsys, option):
    # the trajectory's arrays once failed to allocate with a raw ValueError
    assert run(["gen", "duffing", *option, "--out", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert "t_span/dt must be at most" in err and "usage:" in err and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()
