"""Command-line front end: generate benchmark data, extract shapes, track drift.

Exit codes: 0 on success, 1 on a pipeline/domain error (the error class name
is printed to stderr), 2 on usage errors (bad arguments, out-of-range values,
missing files).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .core import SHAPE_GRID, validate_signal
from .datasets import (
    DuffingParams,
    NoiseSpec,
    _load_phase_file,
    gen_duffing,
    gen_example1,
    gen_morphing_shape,
    load_signal_csv,
    write_envelope_csv,
    write_phase_csv,
    write_residual_csv,
    write_shape_csv,
    write_signal_csv,
)
from .errors import InvalidArgument, ShapewaveError
from .extract import extract_shape
from .localized import extract_shape_track
from .phase import PhaseEstimateConfig, estimate_phase

MORPH_TARGET_WOBBLE = 0.5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapewave",
        description="Extract adaptive periodic shape functions from quasi-periodic signals.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate benchmark signals")
    gen.add_argument("generator", choices=["example1", "duffing", "morph"])
    gen.add_argument("--out", required=True, help="output signal CSV path")
    gen.add_argument("--n", type=int, default=None, help="number of samples")
    gen.add_argument("--sigma", type=float, default=0.0, help="additive noise std dev")
    gen.add_argument("--seed", type=int, default=None,
                     help="noise seed (default: SHAPEWAVE_SEED env var, else 0)")
    gen.add_argument("--l-theta", type=int, default=24, help="morph: whole periods in the record")
    gen.add_argument("--epsilon", type=float, default=DuffingParams.epsilon)
    gen.add_argument("--gamma", type=float, default=DuffingParams.gamma)
    gen.add_argument("--beta", type=float, default=DuffingParams.beta)
    gen.add_argument("--omega-exp", type=float, default=DuffingParams.omega_exponent)
    gen.add_argument("--u0", type=float, default=DuffingParams.u0)
    gen.add_argument("--v0", type=float, default=DuffingParams.v0)
    gen.add_argument("--t-span", type=float, default=DuffingParams.t_span)
    gen.add_argument("--dt", type=float, default=DuffingParams.dt)
    gen.set_defaults(func=cmd_gen)

    def add_phase_opts(p):
        p.add_argument("input", help="input signal CSV")
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--phase", help="exact phase CSV (t,theta)")
        src.add_argument("--estimate-phase", action="store_true",
                         help="estimate the phase from the signal")
        p.add_argument("--K", type=int, default=None, help="number of harmonic bands")
        p.add_argument("--lambda", dest="lam", type=float, default=0.5,
                       help="smoothing cutoff fraction for phase estimation")
        p.add_argument("--fundamental-hint", type=float, default=None,
                       help="fundamental frequency hint, cycles per record")

    ext = sub.add_parser("extract", help="extract one shape function from the whole record")
    add_phase_opts(ext)
    ext.add_argument("--n", type=int, default=None, help="phase grid size (power of two)")
    ext.add_argument("--zero-dc", action="store_true", help="zero out band 0 before fitting")
    ext.add_argument("--out-prefix", default=None,
                     help="prefix for result files (default: input path without extension)")
    ext.set_defaults(func=cmd_extract)

    loc = sub.add_parser("extract-local", help="extract one shape per sliding window center")
    add_phase_opts(loc)
    loc.add_argument("--mu", type=float, default=3.0, help="window half-width in whole periods")
    loc.add_argument("--centers", default=None,
                     help="comma-separated center sample indices (default: auto)")
    loc.add_argument("--out", default=None, help="track CSV path (default: <input>.track.csv)")
    loc.set_defaults(func=cmd_extract_local)
    return parser


#: The parser of every ``main`` call in this process; ``parse_args`` leaves it unchanged.
_parser = functools.cache(build_parser)


def _require_file(parser, path):
    if not os.path.exists(path):
        parser.error(f"input file not found: {path}")


def _load_phase(args, parser, signal):
    # validated with either phase source, so a bad value is never silently ignored
    try:
        config = PhaseEstimateConfig(fundamental_hint=args.fundamental_hint,
                                     smoothing_cutoff=args.lam)
    except InvalidArgument as exc:
        parser.error(f"--lambda: {exc}")
    if args.phase is not None:
        if args.fundamental_hint is not None:
            parser.error("--fundamental-hint applies only with --estimate-phase")
        _require_file(parser, args.phase)
        return _load_phase_file(args.phase, signal)
    return estimate_phase(signal, config)


def cmd_gen(args, parser) -> int:
    seed = args.seed
    if seed is None:
        env_seed = os.environ.get("SHAPEWAVE_SEED", "0")
        try:
            seed = int(env_seed)
        except ValueError:
            parser.error(f"SHAPEWAVE_SEED must be an integer, got {env_seed!r}")
        try:
            NoiseSpec(seed=seed)
        except InvalidArgument as exc:
            parser.error(f"SHAPEWAVE_SEED: {exc}")
    noise = NoiseSpec(sigma=args.sigma, seed=seed)
    n = args.n if args.n is not None else (8192 if args.generator == "duffing" else 4096)
    out = args.out
    base = out.removesuffix(".csv")
    written = [out]
    if args.generator == "example1":
        signal, phases, shape = gen_example1(n, noise)
        write_signal_csv(out, signal)
        write_phase_csv(f"{base}.phase.csv", signal.times, phases)
        tau = 2.0 * np.pi * np.arange(SHAPE_GRID) / SHAPE_GRID
        write_shape_csv(f"{base}.shape.csv", tau, shape(tau))
        written += [f"{base}.phase.csv", f"{base}.shape.csv"]
    elif args.generator == "duffing":
        params = DuffingParams(
            epsilon=args.epsilon, gamma=args.gamma, beta=args.beta,
            omega_exponent=args.omega_exp, u0=args.u0, v0=args.v0,
            t_span=args.t_span, dt=args.dt,
        )
        signal = gen_duffing(params, noise, n_samples=n)
        write_signal_csv(out, signal)
    else:
        shape_a = np.cos
        shape_b = lambda tau: np.cos(tau + MORPH_TARGET_WOBBLE * np.cos(2.0 * tau))  # noqa: E731
        signal = gen_morphing_shape(n, shape_a, shape_b, args.l_theta)
        if noise.sigma > 0.0:
            signal = validate_signal(signal.times, signal.values + noise.draw(n))
        write_signal_csv(out, signal)
        write_phase_csv(f"{base}.phase.csv", signal.times,
                        2.0 * np.pi * args.l_theta * signal.times)
        written.append(f"{base}.phase.csv")
    print(" ".join(written))
    return 0


def cmd_extract(args, parser) -> int:
    _require_file(parser, args.input)
    signal = load_signal_csv(args.input)
    phase = _load_phase(args, parser, signal)
    result = extract_shape(signal, phase, band_limit=args.K, grid_size=args.n,
                           zero_dc=args.zero_dc)

    prefix = args.out_prefix if args.out_prefix is not None else args.input.removesuffix(".csv")
    coeffs = result.shape.coeffs
    # both norms on one power-of-two scale of the record, so that no amplitude overflows a square
    e = np.frexp(np.max(np.abs(signal.values)))[1]
    resid_norm = float(np.linalg.norm(np.ldexp(result.residual, -e)))
    rel_resid = resid_norm / float(np.linalg.norm(np.ldexp(signal.values, -e)))
    resid_norm = float(np.ldexp(resid_norm, e))
    payload = {
        "band_limit": result.shape.band_limit,
        "l_theta": result.l_theta,
        "grid_size": result.grid_size,
        "zero_dc": bool(args.zero_dc),
        "coefficients": [[float(c.real), float(c.imag)] for c in coeffs],
        "singular_values": [float(s) for s in result.fit.singular_values],
        "rank1_energy_fraction": result.fit.rank1_energy_fraction,
        "objective_value": result.fit.objective_value,
        "residual_norm": resid_norm,
        "relative_residual": rel_resid,
        "normalization": result.shape.normalization,
    }
    with open(f"{prefix}.result.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    tau = 2.0 * np.pi * np.arange(SHAPE_GRID) / SHAPE_GRID
    write_shape_csv(f"{prefix}.shape.csv", tau, result.shape(tau))
    write_envelope_csv(f"{prefix}.envelope.csv", signal.times, result.envelope.values_time)
    write_residual_csv(f"{prefix}.residual.csv", signal.times, result.residual)

    print(f"K={result.shape.band_limit} l_theta={result.l_theta} "
          f"rank1={result.fit.rank1_energy_fraction:.6f} resid={rel_resid:.6f} "
          f"n={result.grid_size} lambda={args.lam:g}")
    return 0


def cmd_extract_local(args, parser) -> int:
    _require_file(parser, args.input)
    signal = load_signal_csv(args.input)
    centers = None
    if args.centers is not None:
        try:
            centers = [int(c) for c in args.centers.split(",") if c.strip()]
        except ValueError:
            parser.error(f"--centers must be comma-separated integers, got {args.centers!r}")
        for c in centers:
            if not 0 <= c < signal.n_samples:
                parser.error(f"--centers index {c} out of range for {signal.n_samples} samples")
    phase = _load_phase(args, parser, signal)
    track = extract_shape_track(signal, phase, centers=centers, mu=args.mu,
                                band_limit=args.K)

    out = args.out if args.out is not None else f"{args.input.removesuffix('.csv')}.track.csv"
    k_max = max((s.band_limit for s in track.shapes if s is not None), default=-1)
    header = ["center_t", "drift", "error"]
    for k in range(k_max + 1):
        header += [f"c{k}_re", f"c{k}_im"]
    with open(out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for i in range(len(track.center_indices)):
            row = [f"{track.center_times[i]:.17g}", f"{track.drift[i]:.17g}",
                   track.errors[i] or ""]
            shape = track.shapes[i]
            for k in range(k_max + 1):
                if shape is None or k > shape.band_limit:
                    row += ["", ""]
                else:
                    row += [f"{shape.coeffs[k].real:.17g}", f"{shape.coeffs[k].imag:.17g}"]
            writer.writerow(row)

    ok = sum(1 for e in track.errors if e is None)
    print(f"centers={len(track.center_indices)} ok={ok} mu={args.mu:g} "
          f"K={k_max if k_max >= 0 else 'none'} l_theta={phase.l_theta} lambda={args.lam:g}")
    return 0


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        try:
            return args.func(args, parser)
        except InvalidArgument as exc:
            parser.error(str(exc))
    except SystemExit as exc:
        return int(exc.code or 0)
    except ShapewaveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
