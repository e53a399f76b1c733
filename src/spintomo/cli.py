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
from .reconstruct import ReconstructionConfig, _axis_ids, reconstruct
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
    if n_theta < 2 or n_phi < 2:
        raise ValueError("grid dimensions must be at least 2")
    return n_theta, n_phi


def _parse_phase_noise(text):
    if text == "none":
        return "none", 0.0
    kind, sep, value = text.partition(":")
    if not sep or kind not in ("constant", "model"):
        raise ValueError(
            f"--phase-noise expects 'none', 'constant:<rad>' or 'model:<rad>', got {text!r}")
    return kind, float(value)


def _noise_from(args):
    mode, amount = _parse_phase_noise(args.phase_noise)
    return NoiseModel(
        sigma_n=args.sigma_n,
        sigma_omega=args.sigma_omega,
        phase_mode=mode,
        sigma_phi=amount if mode == "constant" else 0.0,
        sigma_ph=amount if mode == "model" else 0.0,
        phase_variant=args.phase_variant,
    )


def _config_args(path, command, parsers):
    """The options of a ``key = value`` file as argument tokens for one subcommand.

    A key is an option name with underscores for dashes, matched exactly:
    ``key = value`` becomes ``--key=value``, a true boolean key its bare flag
    and a false one nothing.  Keys of another subcommand are skipped, so one
    file can drive every step; a key no subcommand defines is an error.
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
                tokens.append(flag)
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
    p.add_argument("--phase-variant", dest="phase_variant", default="quadratic",
                   choices=("quadratic", "linear"),
                   help="mapping of the model amplitude to sigma_phi(phi)")


def _build_parser():
    """The argument parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="spintomo",
        description="Tomography of collective-spin Wigner functions from "
                    "Stern-Gerlach records.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic measurement CSV")
    p.add_argument("--config", help="key = value defaults file (flags win)")
    p.add_argument("--state", choices=("coherent", "dicke", "oat", "mixed"), default="coherent")
    p.add_argument("--two-j", dest="two_j", type=int, default=40, help="doubled total spin")
    p.add_argument("--two-m", dest="two_m", type=int, help="doubled projection (dicke)")
    p.add_argument("--chi", type=float, default=0.05, help="one-axis twisting angle (oat)")
    p.add_argument("--theta0", type=float, default=0.0, help="state polar angle (coherent)")
    p.add_argument("--phi0", type=float, default=0.0, help="state azimuth (coherent)")
    p.add_argument("--kmax", type=int, help="state truncation (default 2j)")
    p.add_argument("--axes", type=int, default=24, help="number of quantization axes")
    p.add_argument("--axis-plane", action="store_true",
                   help="equally spaced axes on the equator (default)")
    p.add_argument("--axis-sphere", action="store_true",
                   help="Fibonacci-spread axes over the upper hemisphere")
    p.add_argument("--shots", type=int, default=400, help="measurements per axis")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    _add_noise_flags(p)
    p.add_argument("--out", default="measurements.csv", help="output measurement CSV")

    p = sub.add_parser("reconstruct", help="backproject a measurement CSV")
    p.add_argument("measurements", help="input measurement CSV")
    p.add_argument("--config", help="key = value defaults file (flags win)")
    p.add_argument("--mode", choices=("in-plane", "full-sphere"), default="in-plane")
    p.add_argument("--kmax", type=int)
    p.add_argument("--weights", choices=("uniform", "voronoi"), default="voronoi")
    p.add_argument("--fold-north", dest="fold_north", action="store_true")
    p.add_argument("--two-j-ref", dest="two_j_ref", type=int)
    p.add_argument("--grid", default="64x128", help="render grid NxM for the grid CSV")
    _add_noise_flags(p)
    p.add_argument("--out", help="output prefix (default: input stem)")

    p = sub.add_parser("analyze", help="squeezing analysis of a coefficient CSV")
    p.add_argument("coefficients", help="input coefficient CSV")
    p.add_argument("--config", help="key = value defaults file (flags win)")
    p.add_argument("--sigma-n", dest="sigma_n", type=float, default=0.0)
    p.add_argument("--j-mean", dest="j_mean", type=float,
                   help="reference spin for the coherent variance (default two_j_ref/2)")
    p.add_argument("--phi-steps", dest="phi_steps", type=int, default=181)
    p.add_argument("--out", help="output squeezing CSV")

    p = sub.add_parser("render", help="sample a coefficient CSV onto grid + PGM")
    p.add_argument("coefficients", help="input coefficient CSV")
    p.add_argument("--config", help="key = value defaults file (flags win)")
    p.add_argument("--grid", default="64x128", help="grid NxM")
    p.add_argument("--out", help="output prefix (default: input stem)")

    sub.add_parser("selftest", help="run the built-in oracle battery")
    return parser, sub.choices


def _simulate_axes(layout, n):
    if n < 1:
        raise ValueError("--axes must be positive")
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

    if args.axis_plane and args.axis_sphere:
        raise ValueError("--axis-plane and --axis-sphere are mutually exclusive")
    axes = _simulate_axes("sphere" if args.axis_sphere else "plane", args.axes)
    records = sample_measurements(state, axes, args.shots, _noise_from(args), args.seed)
    stio.write_measurements(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _stem(path):
    return path[:-4] if path.endswith(".csv") else path


def _cmd_reconstruct(args):
    records = stio.parse_measurements(args.measurements)
    noise = _noise_from(args)
    kmax = args.kmax
    if kmax is None:
        kmax = int(records.two_j.min())
        if args.mode == "in-plane":
            _, first, _ = _axis_ids(math.pi / 2.0, records.phi)
            kmax = min(kmax, first.size - 1)
    config = ReconstructionConfig(kmax=kmax, mode=args.mode, noise=noise,
                                  fold_north=args.fold_north, two_j_ref=args.two_j_ref)
    state = reconstruct(records, config, weight_scheme=args.weights)

    prefix = args.out or _stem(args.measurements)
    stio.write_coefficients(f"{prefix}_coeffs.csv", state)
    stio.write_spectrum(f"{prefix}_spectrum.csv", power_spectrum(state))
    n_theta, n_phi = _parse_grid(args.grid)
    stio.write_grid(f"{prefix}_grid.csv", wigner_grid(state, n_theta, n_phi))
    print(f"reconstructed kmax={kmax} mode={args.mode} fold_north={args.fold_north} "
          f"two_j_ref={state.two_j_ref}")
    print(f"wrote {prefix}_coeffs.csv, {prefix}_spectrum.csv, {prefix}_grid.csv")
    return 0


def _cmd_analyze(args):
    state = stio.read_coefficients(args.coefficients)
    sigma_n = args.sigma_n
    j_mean = state.two_j_ref / 2.0 if args.j_mean is None else args.j_mean
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, args.phi_steps)
    report = squeezing_scan(state, phis, sigma_n, j_mean)
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


def _selftest_checks():
    from .angular import _coupling_table, cg_t, cg_tau_table, hemi_overlap, rot_elements_axis
    from .forward import exact_records, projection_probabilities
    from .reconstruct import fbp_inplane
    from .states import DickeState, dicke_to_spherical, spherical_to_dicke

    def check_tau_orthogonality():
        for two_j in range(0, 21):
            t = cg_tau_table(two_j, two_j)
            err = np.abs(t @ t.T - np.eye(two_j + 1)).max()
            if err > 1e-10:
                return f"j = {two_j / 2}: deviation {err:.2e}"
        t = cg_tau_table(400, 400)
        err = np.abs(t @ t.T - np.eye(401)).max()
        return None if err < 1e-8 else f"j = 200: deviation {err:.2e}"

    def check_coupling_vs_racah():
        for two_j in range(1, 11):
            for q in range(-two_j, two_j + 1):
                two_m, table = _coupling_table(two_j, q, two_j)
                for k in range(abs(q), two_j + 1):
                    for tm, a in zip(two_m.tolist(), table[k].tolist()):
                        b = cg_t(two_j, tm, tm - 2 * q, k, q)
                        if abs(a - b) > 1e-9 * max(1e-3, abs(b)):
                            return f"(two_j={two_j}, k={k}, q={q}, two_m={tm}): {a} vs {b}"
        return None

    def check_rotation_unitarity():
        d = rot_elements_axis(300, 1.234, 0.777)
        err = np.abs((np.abs(d) ** 2).sum(axis=1) - 1.0).max()
        return None if err < 1e-10 else f"row-sum deviation {err:.2e}"

    def check_round_trip():
        rng = np.random.default_rng(1)
        two_j = 8
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        d = DickeState(two_j, rho)
        back = spherical_to_dicke(dicke_to_spherical(d, two_j))
        err = np.abs(back.matrix - rho).max()
        return None if err < 1e-12 else f"deviation {err:.2e}"

    def check_inplane_recovery():
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        truth = dicke_to_spherical(DickeState(4, rho), 4)
        axes = [(math.pi / 2.0, i * math.pi / 16) for i in range(16)]
        recs = exact_records(truth, axes)
        rec = fbp_inplane(recs, ReconstructionConfig(kmax=4, mode="in-plane", two_j_ref=4))
        err = max(
            abs(rec.coeff(k, q) - truth.coeff(k, q))
            for k in range(5) for q in range(-k, k + 1) if (k + q) % 2 == 0)
        odd = max(abs(rec.coeff(k, q))
                  for k in range(5) for q in range(-k, k + 1) if (k + q) % 2 == 1)
        if err > 1e-8:
            return f"even-parity deviation {err:.2e}"
        return None if odd == 0.0 else f"odd-parity residue {odd:.2e}"

    def check_probability_trace():
        s = coherent_state(12, 0.4, 1.1, 0.0, 12)
        p = projection_probabilities(s, 1.9, -0.3)
        err = abs(p.sum() - 1.0)
        return None if err < 1e-10 else f"trace deviation {err:.2e}"

    def check_overlap_symmetry():
        for q in range(0, 4):
            for k in range(q, 12):
                for kp in range(q, 12):
                    if abs(hemi_overlap(k, kp, q) - hemi_overlap(kp, k, q)) > 1e-12:
                        return f"asymmetry at (k={k}, k'={kp}, q={q})"
        return None

    return [
        ("tau orthogonality", check_tau_orthogonality),
        ("coupling rows vs Racah sum", check_coupling_vs_racah),
        ("rotation unitarity", check_rotation_unitarity),
        ("Dicke round trip", check_round_trip),
        ("in-plane recovery", check_inplane_recovery),
        ("probability trace", check_probability_trace),
        ("overlap symmetry", check_overlap_symmetry),
    ]


def _cmd_selftest(_args):
    failures = 0
    for name, check in _selftest_checks():
        detail = check()
        if detail is None:
            print(f"PASS  {name}")
        else:
            failures += 1
            print(f"FAIL  {name}: {detail}")
    if failures:
        raise NumericalFailure(f"{failures} selftest check(s) failed")
    return 0


def main(argv=None):
    parser, parsers = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "reconstruct": _cmd_reconstruct,
        "analyze": _cmd_analyze,
        "render": _cmd_render,
        "selftest": _cmd_selftest,
    }
    try:
        if getattr(args, "config", None):
            # the file's options go before the user's, and argparse keeps the last value
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:at] + _config_args(args.config, args.command, parsers) + argv[at:])
        return handlers[args.command](args)
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
