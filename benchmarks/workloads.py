"""The benchmark workloads: seeded inputs, the timed call and its check.

Inputs are made here with NumPy alone, so the library only ever sees the
generated arrays (or, for the CLI workload, the generator's command line).
Set-up builds the noise-free record; call ``i`` adds noise drawn from
``seed + i`` just before the call, outside its timer.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SIGMA = 0.1

#: Grid on which extracted shapes are compared with the exact one.
TAU = 2.0 * np.pi * np.arange(1024) / 1024

#: Correctness bounds: record-long correlation, track drift (criterion 7) and
#: the Duffing second-harmonic ratio (criterion 3).
MIN_CORRELATION = 0.99
MAX_DRIFT = 0.02
MAX_C2_RATIO = 0.05


@dataclass(frozen=True)
class Check:
    """Outcome of one call's correctness check.

    ``quality`` is the workload's accuracy figure (lower is better);
    ``windows``/``windows_ok`` count track windows where there are any.
    """

    ok: bool
    quality: float | None
    reason: str | None = None
    windows: int = 0
    windows_ok: int = 0


def exact_shape(tau):
    return 1.0 / (1.1 + np.cos(tau + np.cos(2.0 * tau)))


def example1_record(n: int, periods: int):
    """Noise-free example1-style record on [0, 1] with ``periods`` whole periods.

    ``theta = 2*pi*periods*t + 2*cos(6*pi*t)``, envelope ``1/(2 + sin 2*pi*t)``.
    Returns (times, exact phase, values).
    """
    t = np.linspace(0.0, 1.0, n)
    theta = 2.0 * np.pi * periods * t + 2.0 * np.cos(6.0 * np.pi * t)
    return t, theta, exact_shape(theta) / (2.0 + np.sin(2.0 * np.pi * t))


def noise(seed: int, n: int) -> np.ndarray:
    return SIGMA * np.random.default_rng(seed).standard_normal(n)


def shape_error(shape) -> float:
    """1 - Pearson correlation of an extracted shape with the exact one."""
    return float(1.0 - np.corrcoef(shape(TAU), exact_shape(TAU))[0, 1])


class RecordLong:
    """``extract_shape`` on one 65 536-sample record with 327 periods, exact phase."""

    name = "record-long"
    n = 65536
    periods = 327

    def __init__(self, sw, seed: int, workdir: Path):
        self.sw = sw
        self.seed = seed
        self.times, self.theta, self.clean = example1_record(self.n, self.periods)

    def make_input(self, i: int):
        return self.clean + noise(self.seed + i, self.n)

    def warm_up(self):
        self.call(self.make_input(0))

    def call(self, values):
        sw = self.sw
        signal = sw.core.validate_signal(self.times, values)
        phase = sw.phase.exact_phase_from_samples(signal, self.theta)
        return sw.extract.extract_shape(signal, phase)

    def check(self, result) -> Check:
        err = shape_error(result.shape)
        ok = 1.0 - err >= MIN_CORRELATION
        return Check(ok, err, None if ok else f"correlation {1.0 - err:.4f} < {MIN_CORRELATION}")


class TrackExample1(RecordLong):
    """``extract_shape_track`` on example1 (4 096 samples), exact phase, mu=3."""

    name = "track-example1"
    n = 4096
    periods = 20
    mu = 3.0

    def warm_up(self):
        # three mid-record windows settle lazy set-up without a whole track
        signal = self.sw.core.validate_signal(self.times, self.make_input(0))
        phase = self.sw.phase.exact_phase_from_samples(signal, self.theta)
        centers = [self.n // 2 + offset for offset in (-25, 0, 25)]
        self.sw.localized.extract_shape_track(signal, phase, centers=centers, mu=self.mu)

    def call(self, values):
        sw = self.sw
        signal = sw.core.validate_signal(self.times, values)
        phase = sw.phase.exact_phase_from_samples(signal, self.theta)
        return sw.localized.extract_shape_track(signal, phase, mu=self.mu)

    def check(self, track) -> Check:
        errors = [e for e in track.errors if e is not None]
        windows = len(track.errors)
        shapes = [s for s in track.shapes if s is not None]
        worst = max((shape_error(s) for s in shapes), default=None)
        drift = float(np.max(track.drift)) if len(track.drift) else 0.0
        reason = None
        if errors:
            reason = f"{len(errors)}/{windows} windows failed, first: {errors[0]}"
        elif not drift <= MAX_DRIFT:
            reason = f"max drift {drift:.4f} > {MAX_DRIFT}"
        return Check(reason is None, worst, reason, windows, windows - len(errors))


class CliDuffing:
    """``shapewave gen duffing`` then ``shapewave extract --estimate-phase``, in process."""

    name = "cli-duffing"
    n = 8192

    def __init__(self, sw, seed: int, workdir: Path):
        self.sw = sw
        self.seed = seed
        self.csv = workdir / "duffing.csv"
        self.result_json = workdir / "duffing.result.json"

    def make_input(self, i: int):
        return str(self.seed + i)

    def warm_up(self):
        self.call(self.make_input(0))

    def call(self, seed_arg: str):
        cli = self.sw.cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            gen = cli.main(["gen", "duffing", "--sigma", str(SIGMA), "--seed", seed_arg,
                            "--n", str(self.n), "--out", str(self.csv)])
            ext = cli.main(["extract", str(self.csv), "--estimate-phase"]) if gen == 0 else None
        return gen, ext, out.getvalue()

    def check(self, outcome) -> Check:
        gen, ext, text = outcome
        if (gen, ext) != (0, 0):
            return Check(False, None, f"exit codes gen={gen} extract={ext}: {text.strip()}")
        coeffs = np.array(json.loads(self.result_json.read_text())["coefficients"])
        mags = np.hypot(coeffs[:, 0], coeffs[:, 1])
        ratio = float(mags[2] / mags.max())
        ok = ratio <= MAX_C2_RATIO
        return Check(ok, ratio, None if ok else f"|c2|/max {ratio:.4f} > {MAX_C2_RATIO}")


WORKLOADS = {w.name: w for w in (RecordLong, TrackExample1, CliDuffing)}
