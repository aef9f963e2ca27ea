"""Outside-in span tracing of the shapewave modules.

Each hooked function is replaced, at the module global where its caller
looks it up, by a wrapper that records a span: name, start, end, parent span
and the id of the top-level call it belongs to.  Spans are only recorded
inside a top-level call opened with :meth:`Tracer.root`, so the benchmark's
own checks never show up as library time.  A layer's self time is its span's
duration minus the time its child spans cover, and the root span's self time
is the part of the call no hook saw; so the self times of one call always add
up to its duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time

import numpy as np

ROOT_SPAN = "bench.call"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _cells(args, kwargs, result):
    return _arg(args, kwargs, 0, "matrix").entries.size


def _terms(args, kwargs, result):
    return np.size(_arg(args, kwargs, 1, "tau")) * (len(_arg(args, kwargs, 0, "coeffs")) - 1)


def _steps(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    return int(round(params.t_span / params.dt))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


#: Span name -> (name of the count it records, how to compute it from the
#: call's arguments and result).  The counts are computed, not measured.
COUNTERS = {
    "extract.rank_one_fit": ("cells", _cells),
    "core.evaluate_shape": ("terms", _terms),
    "datasets.integrate_duffing": ("steps", _steps),
    "datasets.csv_read": ("bytes", _file_bytes),
    "datasets.csv_write": ("bytes", _file_bytes),
}

#: (span name, caller module, attribute): one entry per place a caller looks
#: the function up.  Several sites may feed one span.
HOOKS = [
    ("transform.resample_to_phase", "shapewave.extract", "resample_to_phase"),
    ("transform.extract_demodulated_band", "shapewave.extract", "extract_demodulated_band"),
    ("transform.interp_phase_to_time", "shapewave.extract", "interp_phase_to_time"),
    ("extract.assemble_band_matrix", "shapewave.extract", "assemble_band_matrix"),
    ("extract.rank_one_fit", "shapewave.extract", "rank_one_fit"),
    ("extract.extract_shape", "shapewave.extract", "extract_shape"),
    ("extract.extract_shape", "shapewave.localized", "extract_shape"),
    ("extract.extract_shape", "shapewave.cli", "extract_shape"),
    ("extract.shape_distance", "shapewave.localized", "shape_distance"),
    ("extract.minimize_scalar", "shapewave.extract", "minimize_scalar"),
    ("core.evaluate_shape", "shapewave.core", "evaluate_shape"),
    ("core.evaluate_shape", "shapewave.extract", "evaluate_shape"),
    ("core.normalize_rank1_factors", "shapewave.extract", "normalize_rank1_factors"),
    ("core.validate", "shapewave.core", "validate_signal"),
    ("core.validate", "shapewave.phase", "validate_phase"),
    ("core.validate", "shapewave.localized", "validate_signal"),
    ("core.validate", "shapewave.localized", "validate_phase"),
    ("core.validate", "shapewave.datasets", "validate_signal"),
    ("core.validate", "shapewave.cli", "validate_signal"),
    ("localized.window_segment", "shapewave.localized", "window_segment"),
    ("localized.extract_shape_track", "shapewave.localized", "extract_shape_track"),
    ("localized.extract_shape_track", "shapewave.cli", "extract_shape_track"),
    ("phase.estimate_phase", "shapewave.cli", "estimate_phase"),
    ("datasets.integrate_duffing", "shapewave.datasets", "integrate_duffing"),
    ("datasets.csv_read", "shapewave.datasets", "_read_two_columns"),
    ("datasets.csv_write", "shapewave.datasets", "_write_two_columns"),
    ("datasets.csv_write", "shapewave.cli", "_write_columns"),
    ("cli.main", "shapewave.cli", "main"),
]

# fields of one span record, kept as a plain list for low overhead
NAME, START, END, PARENT, CALL, COUNT = range(6)


class Tracer:
    """Span recorder plus the hooks that feed it."""

    def __init__(self, hooks=HOOKS, counters=COUNTERS):
        self.hooks = hooks
        self.counters = counters
        self.spans: list[list] = []
        self.absent_sites: list[tuple[str, str, str]] = []
        self._stack: list[int] = []

    @property
    def span_names(self) -> list[str]:
        return list(dict.fromkeys(name for name, _, _ in self.hooks))

    def absent_spans(self) -> list[str]:
        """Spans none of whose sites exist: they report 0 calls."""
        return [name for name in self.span_names
                if all(site in self.absent_sites for site in self.hooks if site[0] == name)]

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        counter = self.counters.get(name, (None, None))[1]
        clock = time.perf_counter

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = [name, 0.0, 0.0, parent, spans[parent][CALL], 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNT] = counter(args, kwargs, result)
            return result

        return hooked

    @contextlib.contextmanager
    def installed(self):
        """Install every hook whose target exists; restore all on exit.

        A missing module or attribute is recorded in ``absent_sites`` and
        skipped, so a refactor that removes a call site never breaks the run.
        """
        restore = []
        self.absent_sites = []
        try:
            for name, mod_name, attr in self.hooks:
                try:
                    module = sys.modules.get(mod_name) or importlib.import_module(mod_name)
                except ImportError:
                    module = None
                target = getattr(module, attr, None)
                if not callable(target):
                    self.absent_sites.append((name, mod_name, attr))
                    continue
                restore.append((module, attr, target))
                setattr(module, attr, self._wrap(name, target))
            yield self
        finally:
            for module, attr, target in reversed(restore):
                setattr(module, attr, target)

    @contextlib.contextmanager
    def root(self, call_id: int):
        """Open the top-level span of one benchmark call."""
        span = [ROOT_SPAN, 0.0, 0.0, -1, call_id, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            yield
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest without overlap, so the children's durations
    are exactly the part of the parent's interval they cover.
    """
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_metrics(spans, span_names, counters=COUNTERS) -> dict[str, float]:
    """Per top-level call: calls and self time of every span, plus its count.

    Also returns ``trace.call_ms`` (mean traced call) and
    ``trace.unhooked_ms`` (root self time); the ``self_ms`` values plus
    ``trace.unhooked_ms`` add up to ``trace.call_ms``.
    """
    own = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    n_calls = max(1, len(roots))
    calls = dict.fromkeys(span_names, 0)
    self_s = dict.fromkeys(span_names, 0.0)
    counts = dict.fromkeys(span_names, 0)
    for s, t in zip(spans, own):
        if s[PARENT] >= 0:
            calls[s[NAME]] += 1
            self_s[s[NAME]] += t
            counts[s[NAME]] += s[COUNT]
    out = {}
    for name in span_names:
        out[f"{name}.calls"] = calls[name] / n_calls
        out[f"{name}.self_ms"] = 1e3 * self_s[name] / n_calls
        if name in counters:
            out[f"{name}.{counters[name][0]}"] = counts[name] / n_calls
    out["trace.call_ms"] = 1e3 * sum(spans[i][END] - spans[i][START] for i in roots) / n_calls
    out["trace.unhooked_ms"] = 1e3 * sum(own[i] for i in roots) / n_calls
    return out
