"""Tests of the benchmark harness itself: span arithmetic, hooks, tail rule, inputs.

Run with ``python3 -m pytest benchmarks/tests``.
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
from tracing import ROOT_SPAN, Tracer, layer_metrics, self_times
from workloads import Check, CliDuffing, RecordLong, TrackExample1, exact_shape


def span(name, start, end, parent, call=0, count=0):
    return [name, start, end, parent, call, count]


# Two top-level calls.  Call 0 (10 s) holds x (5 s, with two y children of
# 1 s and 1.5 s) and another x (2 s); call 1 (2 s) holds nothing hooked.
TREE = [
    span(ROOT_SPAN, 0.0, 10.0, -1),
    span("x", 1.0, 6.0, 0),
    span("y", 2.0, 3.0, 1),
    span("y", 4.0, 5.5, 1),
    span("x", 7.0, 9.0, 0),
    span(ROOT_SPAN, 20.0, 22.0, -1, call=1),
]


def test_self_time_subtracts_direct_children_only():
    assert self_times(TREE) == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0, 2.0])


def test_layer_metrics_are_per_call_and_close():
    m = layer_metrics(TREE, ["x", "y"], counters={})
    assert m["x.calls"] == 1.0 and m["y.calls"] == 1.0
    assert m["x.self_ms"] == pytest.approx(1e3 * (2.5 + 2.0) / 2)
    assert m["y.self_ms"] == pytest.approx(1e3 * (1.0 + 1.5) / 2)
    assert m["trace.call_ms"] == pytest.approx(1e3 * 12.0 / 2)
    assert m["trace.unhooked_ms"] == pytest.approx(1e3 * (3.0 + 2.0) / 2)
    hooked = m["x.self_ms"] + m["y.self_ms"]
    assert hooked + m["trace.unhooked_ms"] == pytest.approx(m["trace.call_ms"])


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(values):
        return len(values)

    def outer(values):
        return mod.inner(values) + mod.inner(values)

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_hooks_record_nested_spans_and_counts(fake_module):
    hooks = [("layer.outer", "fake_layer", "outer"), ("layer.inner", "fake_layer", "inner")]
    counters = {"layer.inner": ("items", lambda args, kwargs, result: len(args[0]))}
    tracer = Tracer(hooks, counters)
    original = fake_module.inner
    with tracer.installed():
        fake_module.outer([1, 2, 3])  # outside a top-level call: not recorded
        with tracer.root(7):
            assert fake_module.outer([1, 2, 3]) == 6
    assert fake_module.inner is original
    names = [(s[0], s[3], s[4], s[5]) for s in tracer.spans]
    assert names == [(ROOT_SPAN, -1, 7, 0), ("layer.outer", 0, 7, 0),
                     ("layer.inner", 1, 7, 3), ("layer.inner", 1, 7, 3)]
    m = layer_metrics(tracer.spans, tracer.span_names, counters)
    assert m["layer.inner.calls"] == 2 and m["layer.inner.items"] == 6


def test_missing_targets_report_absent_with_zero_calls(fake_module):
    hooks = [("layer.outer", "fake_layer", "outer"),
             ("layer.gone", "fake_layer", "removed_function"),
             ("layer.lost", "no_such_module_for_tracing", "anything")]
    tracer = Tracer(hooks, {})
    with tracer.installed():
        with tracer.root(0):
            fake_module.outer([1])
    assert tracer.absent_spans() == ["layer.gone", "layer.lost"]
    m = layer_metrics(tracer.spans, tracer.span_names, {})
    assert m["layer.outer.calls"] == 1
    assert m["layer.gone.calls"] == 0 and m["layer.lost.self_ms"] == 0.0


def test_tail_percentile_keeps_ten_calls_beyond():
    assert run.tail_percentile(list(range(1, 101))) == (90, 90)
    assert run.tail_percentile(list(range(20))) is None
    assert run.tail_percentile([]) is None
    for n in range(21, 400):
        p, value = run.tail_percentile(list(range(n)))
        beyond = n - 1 - value
        assert p > 50 and beyond >= run.TAIL_BEYOND
        # one percentile higher would leave fewer than ten beyond it
        assert n - -(-(p + 1) * n // 100) < run.TAIL_BEYOND


@pytest.mark.parametrize("workload", [RecordLong, TrackExample1])
def test_generated_inputs_are_bitwise_reproducible(workload, tmp_path):
    a = workload(None, 5, tmp_path)
    b = workload(None, 5, tmp_path)
    for i in (0, 3):
        assert a.make_input(i).tobytes() == b.make_input(i).tobytes()
    assert a.theta.tobytes() == b.theta.tobytes() and a.times.tobytes() == b.times.tobytes()
    assert not np.array_equal(a.make_input(0), workload(None, 6, tmp_path).make_input(0))
    assert not np.array_equal(a.make_input(0), a.make_input(1))


def test_record_long_input_has_whole_periods(tmp_path):
    wl = RecordLong(None, 0, tmp_path)
    assert (wl.theta[-1] - wl.theta[0]) / (2 * np.pi) == pytest.approx(327)
    assert len(wl.make_input(0)) == 65536


def test_cli_input_is_the_call_seed(tmp_path):
    assert CliDuffing(None, 5, tmp_path).make_input(2) == "7"


def test_track_check_counts_failed_windows_and_drift(tmp_path):
    wl = TrackExample1(None, 0, tmp_path)
    good = types.SimpleNamespace(errors=[None, None], shapes=[exact_shape, exact_shape],
                                 drift=np.array([0.0, 0.001]))
    assert wl.check(good) == Check(True, pytest.approx(0.0, abs=1e-12), None, 2, 2)
    failed = types.SimpleNamespace(errors=[None, "WindowTooShort: x"], shapes=[exact_shape, None],
                                   drift=np.array([0.0, np.nan]))
    assert not wl.check(failed).ok and wl.check(failed).windows_ok == 1
    drifting = types.SimpleNamespace(errors=[None, None], shapes=[exact_shape, exact_shape],
                                     drift=np.array([0.0, 0.5]))
    assert not wl.check(drifting).ok


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", Path(tmp_path))
    with pytest.raises(SystemExit) as exc:
        run.import_shapewave()
    assert exc.value.code != 0
