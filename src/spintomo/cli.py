"""Command-line pipeline: simulate -> reconstruct -> analyze -> render.

Subcommands operate on the file formats in :mod:`spintomo.io`; every
random choice is derived from ``--seed``.  Exit codes: 0 success, 2
validation error (bad flags, malformed files, violated preconditions),
3 numerical failure.
"""

import argparse
import math
import sys

import numpy as np

from . import io as stio
from .analysis import power_spectrum, squeezing_scan
from .forward import NoiseModel, sample_measurements
from .reconstruct import ReconstructionConfig, reconstruct
from .states import (
    coherent_state,
    dicke_basis_state,
    maximally_mixed_state,
    oat_squeezed_state,
    wigner_grid,
)

__all__ = ["main"]


class NumericalFailure(RuntimeError):
    """A computation ran but did not produce a usable numerical result."""


def _parse_grid(text):
    try:
        a, _, b = text.lower().partition("x")
        n_theta, n_phi = int(a), int(b)
    except ValueError:
        raise ValueError(f"--grid expects NxM, got {text!r}") from None
    return n_theta, n_phi  # wigner_grid refuses a dimension below 2


def _parse_phase_noise(text):
    if text == "none":
        return "none", 0.0
    kind, _, value = text.partition(":")
    try:
        if kind not in ("constant", "model"):
            raise ValueError
        return kind, float(value)
    except ValueError:
        raise ValueError(f"--phase-noise expects 'none', 'constant:<rad>' or 'model:<rad>', "
                         f"got {text!r}") from None


def _noise_from(args):
    mode, amount = _parse_phase_noise(args.phase_noise)
    return NoiseModel(
        sigma_n=args.sigma_n,
        sigma_omega=args.sigma_omega,
        phase_mode=mode,
        sigma_phi=amount if mode == "constant" else 0.0,
        sigma_ph=amount if mode == "model" else 0.0,
    )


def _config_args(path, command, parsers):
    """The options of a ``key = value`` file as argument tokens for one subcommand.

    A key is an option name with underscores for dashes, matched exactly:
    ``key = value`` becomes ``--key=value``, and a true boolean key sets its
    flag's value as a default, which a typed flag of its group overrides.
    Keys of another subcommand are skipped, so one file can drive every
    step; a key no subcommand defines is an error.
    """
    tokens = []
    for key, value in stio.parse_config(path).items():
        flag = "--" + key.replace("_", "-")
        action = parsers[command]._option_string_actions.get(flag)
        if action is None:
            if not any(flag in p._option_string_actions for p in parsers.values()):
                raise ValueError(f"{path}: unknown key {key!r}")
        elif action.nargs == 0:
            on = value.lower() in ("true", "1", "yes", "on")
            if not on and value.lower() not in ("false", "0", "no", "off"):
                raise ValueError(f"{path}: {key} expects a boolean, got {value!r}")
            if on:
                parsers[command].set_defaults(**{action.dest: action.const})
        else:
            tokens.append(f"{flag}={value}")
    return tokens


def _add_noise_flags(p):
    p.add_argument("--sigma-n", dest="sigma_n", type=float, default=0.0,
                   help="atom-number std dev")
    p.add_argument("--sigma-omega", dest="sigma_omega", type=float, default=0.0,
                   help="axis pointing uncertainty (rad)")
    p.add_argument("--phase-noise", dest="phase_noise", default="none",
                   help="none | constant:<rad> | model:<rad>")


def _simulate_options(p):
    p.add_argument("--state", choices=("coherent", "dicke", "oat", "mixed"), default="coherent")
    p.add_argument("--two-j", dest="two_j", type=int, default=40, help="doubled total spin")
    p.add_argument("--two-m", dest="two_m", type=int, help="doubled projection (dicke)")
    p.add_argument("--chi", type=float, default=0.05, help="one-axis twisting angle (oat)")
    p.add_argument("--theta0", type=float, default=0.0, help="state polar angle (coherent)")
    p.add_argument("--phi0", type=float, default=0.0, help="state azimuth (coherent)")
    p.add_argument("--kmax", type=int, help="state truncation (default 2j)")
    p.add_argument("--axes", type=int, default=24, help="number of quantization axes")
    layout = p.add_mutually_exclusive_group()
    layout.add_argument("--axis-plane", dest="axis_layout", action="store_const", const="plane",
                        default="plane", help="equally spaced axes on the equator (default)")
    layout.add_argument("--axis-sphere", dest="axis_layout", action="store_const",
                        const="sphere", help="Fibonacci-spread axes over the upper hemisphere")
    p.add_argument("--shots", type=int, default=400, help="measurements per axis")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_noise_flags(p)
    p.add_argument("--out", default="measurements.csv", help="output measurement CSV")


def _reconstruct_options(p):
    p.add_argument("measurements", help="input measurement CSV")
    p.add_argument("--mode", choices=("in-plane", "full-sphere"), default="in-plane")
    p.add_argument("--kmax", type=int)
    p.add_argument("--fold-north", dest="fold_north", action="store_true")
    p.add_argument("--two-j-ref", dest="two_j_ref", type=int)
    _add_noise_flags(p)
    p.add_argument("--out", help="output prefix (default: input stem)")


def _analyze_options(p):
    p.add_argument("coefficients", help="input coefficient CSV")
    p.add_argument("--sigma-n", dest="sigma_n", type=float, default=0.0)
    p.add_argument("--j-mean", dest="j_mean", type=float,
                   help="reference spin for the coherent variance (default two_j_ref/2)")
    p.add_argument("--phi-steps", dest="phi_steps", type=int, default=181)
    p.add_argument("--out", help="output squeezing CSV")


def _render_options(p):
    p.add_argument("coefficients", help="input coefficient CSV")
    p.add_argument("--grid", default="64x128", help="grid NxM")
    p.add_argument("--out", help="output prefix (default: input stem)")


def _build_parser(command=None):
    """The argument parser and its subcommand parsers by name, every subcommand
    with its help line but only command's options (all when command is None)."""
    parser = argparse.ArgumentParser(
        prog="spintomo",
        description="Tomography of collective-spin Wigner functions from "
                    "Stern-Gerlach records.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command in (None, name):
            # argparse lists positionals apart, so --config leads each command's options
            p.add_argument("--config", help="key = value defaults file (flags win)")
            options(p)
    return parser, sub.choices


def _simulate_axes(layout, n):
    # n < 1 gives no axes, which sample_measurements refuses
    if layout == "plane":
        return [(math.pi / 2.0, a * math.pi / n) for a in range(n)]
    # Fibonacci spread over the upper hemisphere of orientations
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    axes = []
    for i in range(n):
        z = (i + 0.5) / n
        phi = math.fmod(2.0 * math.pi * i / golden, 2.0 * math.pi)
        axes.append((math.acos(z), phi))
    return axes


def _cmd_simulate(args):
    two_j = args.two_j
    kmax = two_j if args.kmax is None else args.kmax
    if args.state == "coherent":
        state = coherent_state(two_j, args.theta0, args.phi0, 0.0, kmax)
    elif args.state == "dicke":
        if args.two_m is None:
            raise ValueError("--two-m is required for --state dicke")
        state = dicke_basis_state(two_j, args.two_m, kmax)
    elif args.state == "oat":
        state = oat_squeezed_state(two_j, args.chi, kmax)
    else:
        state = maximally_mixed_state(two_j, kmax)

    axes = _simulate_axes(args.axis_layout, args.axes)
    records = sample_measurements(state, axes, args.shots, _noise_from(args), args.seed)
    stio.write_measurements(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _stem(path):
    return path[:-4] if path.endswith(".csv") else path


def _cmd_reconstruct(args):
    records = stio.parse_measurements(args.measurements)
    config = ReconstructionConfig(kmax=args.kmax, mode=args.mode, noise=_noise_from(args),
                                  fold_north=args.fold_north, two_j_ref=args.two_j_ref)
    state = reconstruct(records, config)

    prefix = args.out or _stem(args.measurements)
    stio.write_coefficients(f"{prefix}_coeffs.csv", state)
    stio.write_spectrum(f"{prefix}_spectrum.csv", power_spectrum(state))
    print(f"reconstructed kmax={state.kmax} mode={args.mode} fold_north={args.fold_north} "
          f"two_j_ref={state.two_j_ref}")
    print(f"wrote {prefix}_coeffs.csv, {prefix}_spectrum.csv")
    return 0


def _cmd_analyze(args):
    state = stio.read_coefficients(args.coefficients)
    sigma_n = args.sigma_n
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, args.phi_steps)
    report = squeezing_scan(state, phis, sigma_n, args.j_mean)
    if report.fit_failures == len(report.variance_curve):
        raise NumericalFailure("Gaussian fit failed along every quantization axis")

    out = args.out or (_stem(args.coefficients) + "_squeezing.csv")
    stio.write_squeezing(out, report, sigma_n)

    print(f"minimum-variance axis phi_s = {math.degrees(report.phi_s):.2f} deg")
    print(f"coherent reference V_coh = {report.v_coh:.6g} "
          f"(noise floor sigma_n^2/2 = {sigma_n ** 2 / 2.0:.6g})")
    if report.squeezing_db is None:
        print("noise-subtracted minimum variance is non-positive; "
              "squeezing in dB undefined")
    else:
        print(f"squeezing: {report.squeezing_db:+.3f} dB "
              f"(V_fit = {report.v_min_fit:.6g})")
    if report.fit_failures:
        print(f"warning: Gaussian fit failed for {report.fit_failures} axes")
    print(f"wrote {out}")
    return 0


def _cmd_render(args):
    state = stio.read_coefficients(args.coefficients)
    n_theta, n_phi = _parse_grid(args.grid)
    grid = wigner_grid(state, n_theta, n_phi)
    prefix = args.out or _stem(args.coefficients)
    stio.write_grid(f"{prefix}_grid.csv", grid)
    stio.write_pgm(f"{prefix}.pgm", grid)
    print(f"wrote {prefix}_grid.csv, {prefix}.pgm "
          f"(W range {grid.values.min():.6g} .. {grid.values.max():.6g})")
    return 0


# name: (help line, options, handler)
_COMMANDS = {
    "simulate": ("generate a synthetic measurement CSV", _simulate_options, _cmd_simulate),
    "reconstruct": ("backproject a measurement CSV", _reconstruct_options, _cmd_reconstruct),
    "analyze": ("squeezing analysis of a coefficient CSV", _analyze_options, _cmd_analyze),
    "render": ("sample a coefficient CSV onto grid + PGM", _render_options, _cmd_render),
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # a run reads only its command's options; help, a usage error before the
    # command and a config file's keys need every command's
    parser, _ = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the file's options go before the user's, and argparse keeps the last value
            parser, parsers = _build_parser()
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:at] + _config_args(args.config, args.command, parsers) + argv[at:])
        return _COMMANDS[args.command][2](args)
    except (NumericalFailure, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc} (check the path; 'spintomo simulate' creates a "
              "measurement file to start from)", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
