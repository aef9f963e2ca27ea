"""shapewave benchmark: time whole calls of one workload, or trace its layers.

    python3 benchmarks/run.py --workload record-long --seed 1 --seconds 38 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 38

Each workload runs in its own process as a closed loop: one caller, and the
next call starts when the previous one returns.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced calls with calls that
have every layer hooked, and reports per-layer metrics per top-level call.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Set-ups per run: this process plus fresh child processes; the median is reported.
SETUP_REPEATS = 3

#: Calls made per run even when the time is up (two of each kind when tracing).
MIN_CALLS = 4

#: Calls that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def import_shapewave():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    init = SRC / "shapewave" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no shapewave sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    sw = importlib.import_module("shapewave")
    if Path(sw.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported shapewave from {sw.__file__}, expected {init}")
    for mod in ("core", "errors", "extract", "localized", "phase", "datasets", "cli"):
        importlib.import_module(f"shapewave.{mod}")
    return sw


def tail_percentile(durations):
    """Highest whole percentile with at least ``TAIL_BEYOND`` calls above it.

    Uses the nearest-rank value.  Returns ``(percentile, value)``, or None
    when that percentile would not lie above the median.
    """
    n = len(durations)
    p = 100 * (n - TAIL_BEYOND) // n if n else 0
    if p <= 50:
        return None
    rank = -(-p * n // 100)
    return p, sorted(durations)[rank - 1]


def timed_call(wl, i, scope=None):
    """Make input ``i``, time the call alone, then check its output."""
    inp = wl.make_input(i)
    t0 = time.perf_counter()
    try:
        with scope or contextlib.nullcontext():
            out = wl.call(inp)
        error = None
    except wl.sw.errors.ShapewaveError as exc:
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return elapsed, Check(False, None, error) if error else wl.check(out)


def measure(wl, seconds, tracer=None):
    """Closed loop of calls for ``seconds`` (at least ``MIN_CALLS``).

    With a tracer every second call is traced, with the hooks installed for
    that call only, so traced and untraced calls share the machine's state
    and the overhead estimate does not drift.  Returns the untraced and
    traced call times and every call's check.
    """
    plain, traced, checks = [], [], []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_CALLS or time.perf_counter() < deadline:
        if tracer is not None and i % 2:
            with tracer.installed():
                elapsed, check = timed_call(wl, i, tracer.root(i))
            traced.append(elapsed)
        else:
            elapsed, check = timed_call(wl, i)
            plain.append(elapsed)
        checks.append(check)
        i += 1
    return plain, traced, checks


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"/\S*openblas\S*\.so\S*", maps))):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "shapewave").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                             if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_end_to_end(args, wl, setup_s):
    setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
    durations, _, checks = measure(wl, args.seconds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "samples_per_s": (wl.n * len(durations) / sum(durations), "samples/s"),
        "call_ms_p50": (1e3 * statistics.median(durations), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed = sum(not c.ok for c in checks)
    tail = tail_percentile(durations)
    details = {
        "setup_s_samples": setups,
        "quality_err": checks[0].quality,
        "fail_frac": f"{failed}/{len(checks)} calls",
        "call_ms_tail": (None if tail is None else
                         {"percentile": tail[0], "value_ms": 1e3 * tail[1], "calls": len(durations)}),
    }
    return metrics, checks, details, True


def run_traced(args, wl):
    tracer = Tracer()
    plain, traced, checks = measure(wl, args.seconds, tracer)
    layers = layer_metrics(tracer.spans, tracer.span_names)
    windows = sum(c.windows for c in checks)
    layers["localized.windows_ok_frac"] = (sum(c.windows_ok for c in checks) / windows
                                           if windows else 0.0)
    layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    accounted = layers["trace.unhooked_ms"] + sum(v for k, v in layers.items() if k.endswith(".self_ms"))
    closes = abs(accounted - layers["trace.call_ms"]) <= 1e-9 * max(1.0, layers["trace.call_ms"])

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "call", "count"],
                                      "spans": tracer.spans}))
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    details = {
        "untraced_calls": len(plain),
        "traced_calls": len(traced),
        "windows": windows,
        "absent_spans": tracer.absent_spans(),
        "absent_sites": [f"{mod}.{attr}" for _, mod, attr in tracer.absent_sites],
        "bookkeeping_closes": closes,
        "spans_file": str(spans_file.relative_to(ROOT)),
    }
    return metrics, checks, details, closes


def unit_of(name):
    kind = name.rsplit(".", 1)[1]
    return {"self_ms": "ms", "call_ms": "ms", "unhooked_ms": "ms", "bytes": "B",
            "windows_ok_frac": "ratio", "overhead_frac": "ratio"}.get(kind, "count")


def run_one(args):
    with tempfile.TemporaryDirectory(dir=BENCH_DIR, prefix=".work-") as workdir:
        sw = import_shapewave()
        wl = WORKLOADS[args.workload](sw, args.seed, Path(workdir))
        wl.warm_up()
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, checks, details, sound = run_traced(args, wl)
        else:
            metrics, checks, details, sound = run_end_to_end(args, wl, setup_s)

    failed = [c for c in checks if not c.ok]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(environment(args.seed)))
    print("# details " + json.dumps(details))
    for reason in sorted({c.reason for c in failed})[:5]:
        print(f"# failed: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": sound and not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for repeated set-ups)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
