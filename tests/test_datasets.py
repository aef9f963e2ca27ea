import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shapewave as sw
from shapewave.cli import main


class TestGenExample1:
    def test_value_at_zero(self):
        signal, theta, _ = sw.gen_example1(512)
        # theta(0) = 2, a(0) = 1/2, f(0) = 0.5 / (1.1 + cos(2 + cos 4))
        expected = 0.5 / (1.1 + math.cos(2.0 + math.cos(4.0)))
        assert abs(signal.values[0] - expected) < 1e-14
        assert abs(theta[0] - 2.0) < 1e-14

    def test_clean_is_deterministic(self):
        a, _, _ = sw.gen_example1(1024, sw.NoiseSpec(0.0, 1))
        b, _, _ = sw.gen_example1(1024, sw.NoiseSpec(0.0, 99))
        np.testing.assert_array_equal(a.values, b.values)

    def test_noisy_is_seed_deterministic(self):
        a, _, _ = sw.gen_example1(1024, sw.NoiseSpec(0.3, 7))
        b, _, _ = sw.gen_example1(1024, sw.NoiseSpec(0.3, 7))
        np.testing.assert_array_equal(a.values, b.values)
        c, _, _ = sw.gen_example1(1024, sw.NoiseSpec(0.3, 8))
        assert np.any(a.values != c.values)

    def test_model_identity(self):
        signal, theta, shape = sw.gen_example1(2048)
        a = 1.0 / (2.0 + np.sin(2.0 * np.pi * signal.times))
        np.testing.assert_array_equal(signal.values, a * shape(theta))

    def test_minimum_length(self):
        with pytest.raises(ValueError):
            sw.gen_example1(256)


class TestGenDuffing:
    def test_linear_limit_matches_analytic(self):
        params = sw.DuffingParams(epsilon=0.0, gamma=0.0, t_span=50.0, dt=1e-3)
        times, u, _ = sw.integrate_duffing(params)
        exact = np.cos(times) + np.sin(times)
        assert np.max(np.abs(u - exact)) <= 1e-6

    def test_fourth_order_self_convergence(self):
        def deviation(dt):
            coarse = sw.DuffingParams(t_span=40.0, dt=dt)
            fine = sw.DuffingParams(t_span=40.0, dt=dt / 4.0)
            _, u_coarse, _ = sw.integrate_duffing(coarse)
            _, u_fine, _ = sw.integrate_duffing(fine)
            return np.max(np.abs(u_coarse - u_fine[::4]))

        factor = deviation(0.02) / deviation(0.01)
        assert 12.0 <= factor <= 20.0

    def test_default_run_is_bounded(self):
        signal = sw.gen_duffing()
        assert np.all(np.isfinite(signal.values))
        assert np.max(np.abs(signal.values)) < 10.0
        # covers at least 20 response periods
        phase = sw.estimate_phase(signal)
        assert phase.l_theta >= 20

    def test_energy_drift_conservative_case(self):
        params = sw.DuffingParams(epsilon=-1.0, gamma=0.0, u0=0.5, v0=0.0,
                                  t_span=100.0, dt=1e-3)
        _, u, v = sw.integrate_duffing(params)
        hamiltonian = v**2 / 2.0 + u**2 / 2.0 - u**4 / 4.0
        drift = np.max(np.abs(hamiltonian - hamiltonian[0])) / abs(hamiltonian[0])
        assert drift <= 1e-6

    def test_softening_default_state_blows_up(self):
        # the initial energy exceeds the potential barrier: the motion is
        # unbounded and the integrator must detect it
        params = sw.DuffingParams(epsilon=-1.0, t_span=400.0, dt=0.01)
        with pytest.raises(sw.NonFiniteState):
            sw.integrate_duffing(params)

    def test_power_overflow_blows_up(self):
        # |u|**21 exceeds the double range within the first step
        params = sw.DuffingParams(omega_exponent=20.0, u0=1e3, v0=1e5, dt=0.1, t_span=1000.0)
        with pytest.raises(sw.NonFiniteState, match=r"blew up at t = 0\.1$"):
            sw.integrate_duffing(params)

    def test_noise_determinism(self):
        a = sw.gen_duffing(sw.DuffingParams(t_span=20.0, dt=0.01), sw.NoiseSpec(1.0, 3),
                           n_samples=1024)
        b = sw.gen_duffing(sw.DuffingParams(t_span=20.0, dt=0.01), sw.NoiseSpec(1.0, 3),
                           n_samples=1024)
        np.testing.assert_array_equal(a.values, b.values)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            sw.DuffingParams(dt=-0.1)
        with pytest.raises(ValueError):
            sw.DuffingParams(t_span=1.0, dt=0.01)


def _reference_rk4(params):
    """The general RK4 loop, kept apart as the oracle of ``integrate_duffing``'s bodies."""
    eps, gamma, beta, dt = params.epsilon, params.gamma, params.beta, params.dt
    pw = 1.0 + params.omega_exponent
    steps = int(round(params.t_span / dt))
    cos, copysign, isfinite = math.cos, math.copysign, math.isfinite
    half = 0.5 * dt
    sixth = dt / 6.0
    u = np.empty(steps + 1)
    v = np.empty(steps + 1)
    u[0], v[0] = params.u0, params.v0
    uk, vk = float(params.u0), float(params.v0)
    try:
        for k in range(steps):
            t = k * dt
            force_half = gamma * cos(beta * (t + half))
            k1u = vk
            k1v = gamma * cos(beta * t) - uk - eps * copysign(abs(uk) ** pw, uk)
            k2u = vk + half * k1v
            x = uk + half * k1u
            k2v = force_half - x - eps * copysign(abs(x) ** pw, x)
            k3u = vk + half * k2v
            x = uk + half * k2u
            k3v = force_half - x - eps * copysign(abs(x) ** pw, x)
            k4u = vk + dt * k3v
            x = uk + dt * k3u
            k4v = gamma * cos(beta * (t + dt)) - x - eps * copysign(abs(x) ** pw, x)
            uk = uk + sixth * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            vk = vk + sixth * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
            if not (isfinite(uk) and isfinite(vk)) or abs(uk) > sw.datasets.BLOWUP_LIMIT:
                raise sw.NonFiniteState(f"trajectory blew up at t = {(k + 1) * dt:.4g}")
            u[k + 1], v[k + 1] = uk, vk
    except OverflowError:
        raise sw.NonFiniteState(f"trajectory blew up at t = {(k + 1) * dt:.4g}") from None
    return np.arange(steps + 1) * dt, u, v


def _trajectory_or_error(integrate, params):
    try:
        return integrate(params)
    except sw.NonFiniteState as exc:
        return str(exc)


_STATES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0), st.floats(-1e4, 1e4))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(exponent=st.sampled_from([2.0, 4.0, 6.0, 1.0, 3.0, 0.5, 1.7]),
       epsilon=st.sampled_from([1.0, -1.0, 0.3, -0.3]), u0=_STATES, v0=_STATES,
       t_span=st.sampled_from([10.0, 12.5]))
@example(exponent=6.0, epsilon=-1.0, u0=1e20, v0=-0.0, t_span=10.0)  # the power overflows in the first step
@example(exponent=1.7, epsilon=1.0, u0=-0.0, v0=1.0, t_span=10.0)
@example(exponent=3.0, epsilon=1.0, u0=-0.0, v0=-0.0, t_span=10.0)
def test_integrate_duffing_matches_reference_loop(exponent, epsilon, u0, v0, t_span):
    # the odd-power body and the general one against the general loop: bitwise, sign bits and all
    params = sw.DuffingParams(epsilon=epsilon, omega_exponent=exponent, u0=u0, v0=v0, t_span=t_span)
    got = _trajectory_or_error(sw.integrate_duffing, params)
    want = _trajectory_or_error(_reference_rk4, params)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestGenMorphing:
    def test_equal_shapes_is_stationary(self):
        signal = sw.gen_morphing_shape(2048, np.cos, np.cos, 16)
        theta = 2.0 * np.pi * 16 * signal.times
        np.testing.assert_allclose(signal.values, np.cos(theta), atol=1e-12)

    def test_endpoints_are_pure_shapes(self):
        shape_b = lambda tau: np.cos(tau + 0.5 * np.cos(2.0 * tau))  # noqa: E731
        signal = sw.gen_morphing_shape(2048, np.cos, shape_b, 16)
        theta = 2.0 * np.pi * 16 * signal.times
        assert abs(signal.values[0] - np.cos(theta[0])) < 1e-12
        assert abs(signal.values[-1] - shape_b(theta[-1])) < 1e-12


class TestCsv:
    def test_signal_round_trip(self, tmp_path):
        signal, _, _ = sw.gen_example1(512)
        path = tmp_path / "sig.csv"
        sw.datasets.write_signal_csv(path, signal)
        loaded = sw.load_signal_csv(path)
        np.testing.assert_array_equal(loaded.times, signal.times)
        np.testing.assert_array_equal(loaded.values, signal.values)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["t,f"] + [f"{i / 100:.2f},1.0" for i in range(30)]
        rows[16] = "0.16,notanumber"  # line 17 of the file
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(sw.ParseError, match="line 17") as info:
            sw.load_signal_csv(path)
        assert info.value.line == 17

    def test_parse_error_line_counts_quoted_newlines(self, tmp_path):
        # the quoted field spans lines 2 and 3, so the bad value is on line 4
        path = tmp_path / "quoted.csv"
        path.write_text('t,f\n"0\n",1\n0.1,x\n')
        with pytest.raises(sw.ParseError, match="non-numeric value at line 4") as info:
            sw.load_signal_csv(path)
        assert info.value.line == 4

    def test_decreasing_times_rejected(self, tmp_path):
        path = tmp_path / "dec.csv"
        times = np.linspace(0.0, 1.0, 20)
        times[10] = times[9] - 0.01
        rows = ["t,f"] + [f"{t:.6f},1.0" for t in times]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(sw.NonIncreasingTimes):
            sw.load_signal_csv(path)

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("time,value\n0.0,1.0\n")
        with pytest.raises(sw.ParseError, match="line 1"):
            sw.load_signal_csv(path)

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        rows = ["t,f"] + [f"{i / 20:.3f},{i}.0" for i in range(20)]
        path.write_bytes(("\r\n".join(rows) + "\r\n").encode())
        loaded = sw.load_signal_csv(path)
        assert loaded.n_samples == 20

    def test_phase_csv_round_trip(self, tmp_path):
        signal, theta, _ = sw.gen_example1(512)
        path = tmp_path / "ph.csv"
        sw.datasets.write_phase_csv(path, signal.times, theta)
        times, loaded = sw.load_phase_csv(path)
        np.testing.assert_array_equal(times, signal.times)
        np.testing.assert_array_equal(loaded, theta)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_invalid_utf8_reports_line(self, tmp_path, newline):
        path = tmp_path / "bytes.csv"
        rows = ["t,f"] + [f"{i / 20:.3f},1.0" for i in range(20)]
        text = newline.join(rows).encode()
        # a lone continuation byte in the value of line 7
        at = text.index(b"0.250,1") + len(b"0.250,")
        path.write_bytes(text[:at] + b"\x80" + text[at:])
        with pytest.raises(sw.ParseError, match="UTF-8 at line 7") as info:
            sw.load_signal_csv(path)
        assert info.value.line == 7

    def test_oversized_field_reports_line(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("t,f\n0,1\n" + "1" * 200_000 + ",1\n")
        with pytest.raises(sw.ParseError, match="field limit .* at line 3") as info:
            sw.load_signal_csv(path)
        assert info.value.line == 3

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(prefix=st.sampled_from([b"", b"t,f\n", b"t,theta\n", b"t,f\n0,1\n"]), body=st.binary())
    def test_loaders_raise_only_typed_errors(self, prefix, body):
        # arbitrary bytes load or raise a ShapewaveError, never anything else
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "fuzz.csv")
            with open(path, "wb") as handle:
                handle.write(prefix + body)
            for load in (sw.load_signal_csv, sw.load_phase_csv):
                try:
                    load(path)
                except sw.ShapewaveError:
                    pass

    @pytest.mark.parametrize("writer, header", [("write_envelope_csv", b"t,a"),
                                                ("write_residual_csv", b"t,r")])
    def test_written_bytes_pinned(self, tmp_path, writer, header):
        path = tmp_path / "out.csv"
        getattr(sw.datasets, writer)(path, np.array([-0.0, 0.1]),
                                     np.array([1e-300, 1.7976931348623157e308]))
        assert path.read_bytes() == header + b"\n-0,1e-300\n0.10000000000000001,1.7976931348623157e+308\n"

    @pytest.mark.parametrize("col_b", [np.arange(3.0), np.arange(6.0), np.zeros((5, 1)), np.float64(2.0)])
    def test_mismatched_columns_raise_before_writing(self, tmp_path, col_b):
        path = tmp_path / "phase.csv"
        with pytest.raises(sw.MismatchedLengths, match="t and theta must be 1-d and of equal length"):
            sw.datasets.write_phase_csv(path, np.arange(5.0), col_b)
        assert not path.exists()

    def test_bytes_match_per_row_format(self, tmp_path):
        # the one-format writer against the per-row f-string it replaced
        edge = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1e308,
                -1e308, 1.7976931348623157e308, 0.1, 0.2, 0.3, 1.0 / 3.0, -2.5, 1e16, 123456789.125,
                1e-5, 7.0, math.inf, -math.inf, math.nan]
        rng = np.random.default_rng(8)
        col_a = np.array(edge + list(rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)))
        col_b = np.roll(col_a, 7)
        path = tmp_path / "out.csv"
        sw.datasets.write_residual_csv(path, col_a, col_b)
        rows = "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(col_a.tolist(), col_b.tolist()))
        assert path.read_bytes() == ("t,r\n" + rows).encode("utf-8")


#: Lines that are not plain, each for one rule of the one-pass parse or of the row parser.
_ODD_LINES = [b'"0.5\n",1', b'"1",2', b"1_000,2", b" 1,2", b"1 ,2", b"1,2 ", b"inf,1", b"1,nan", b"-inf,-1",
              b"1,\xc3\xa9"]
#: Lines of the plain bytes only, which the one-pass parse must still leave to the row parser.
_NUMBER_LIKE_LINES = [b"1", b"1,2,3", b"", b",1", b"1,", b",", b"1e,2", b"--1,2", b".,1", b"1,2e400-", b"1e400,-0",
                      b"1" * 200_000 + b",1"]
_PLAIN_FIELDS = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: b"%.17g" % x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(header=st.sampled_from([b"t,f", b"t,f", b"t,f", b" t,f", b"t,theta"]),
       rows=st.lists(st.tuples(_PLAIN_FIELDS, _PLAIN_FIELDS), min_size=1, max_size=6),
       odd=st.none() | st.tuples(st.sampled_from(_ODD_LINES) | st.sampled_from(_NUMBER_LIKE_LINES), st.integers(0, 6)),
       ending=st.sampled_from(["lf", "lf", "lf", "crlf", "last crlf"]),
       final_newline=st.sampled_from([True, True, False]))
@example(header=b"t,f", rows=[(b"0", b"1")], odd=(_NUMBER_LIKE_LINES[-1], 2), ending="lf", final_newline=True)
@example(header=b"t,f", rows=[(b"0", b"1")], odd=(b"1", 2), ending="lf", final_newline=False)
def test_one_pass_read_matches_row_parser(header, rows, odd, ending, final_newline):
    lines = [header] + [a + b"," + b for a, b in rows]
    if odd is not None:
        lines.insert(odd[1] % (len(lines) + 1), odd[0])
    raw = b"".join(line + (b"\r\n" if ending == "crlf" else b"\n") for line in lines)
    if ending == "last crlf":
        raw = raw[:-1] + b"\r\n"
    if not final_newline:
        raw = raw.rstrip(b"\r\n")

    def outcome(read):
        try:
            times, values, numbers = read()
        except sw.ParseError as exc:
            return str(exc), exc.line
        return times.tobytes(), values.tobytes(), numbers

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "mixed.csv")
        with open(path, "wb") as handle:
            handle.write(raw)
        got = outcome(lambda: sw.datasets._read_two_columns(path, ("t", "f")))
    assert got == outcome(lambda: sw.datasets._parse_rows(raw, ("t", "f")))


def test_generated_file_takes_the_one_pass_parse(tmp_path, monkeypatch):
    path = tmp_path / "duf.csv"
    assert main(["gen", "duffing", "--sigma", "0.1", "--out", str(path)]) == 0

    def row_parser(*args):
        raise AssertionError("a plain file reached the row parser")

    monkeypatch.setattr(sw.datasets, "_parse_rows", row_parser)
    times, values, lines = sw.datasets._read_two_columns(path, ("t", "f"))
    expected = sw.gen_duffing(noise=sw.NoiseSpec(0.1, 0))
    np.testing.assert_array_equal(times, expected.times)
    np.testing.assert_array_equal(values, expected.values)
    assert lines == list(range(2, expected.n_samples + 2))
