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


def _noise_from(cfg):
    mode, amount = _parse_phase_noise(cfg["phase_noise"])
    return NoiseModel(
        sigma_n=float(cfg["sigma_n"]),
        sigma_omega=float(cfg["sigma_omega"]),
        phase_mode=mode,
        sigma_phi=amount if mode == "constant" else 0.0,
        sigma_ph=amount if mode == "model" else 0.0,
        phase_variant=cfg["phase_variant"],
    )


def _to_bool(value):
    if isinstance(value, bool) or value is None:
        return value
    text = str(value).strip().lower()
    if text in ("true", "1", "yes", "on"):
        return True
    if text in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


_BOOL_KEYS = ("fold_north", "axis_plane", "axis_sphere")


def _resolve(args, defaults):
    """Merge config-file values under explicit flags: flags win, then file, then default."""
    file_cfg = stio.parse_config(args.config) if args.config else {}
    out = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            out[key] = flag
        elif key in file_cfg:
            out[key] = file_cfg[key]
        else:
            out[key] = default
        if key in _BOOL_KEYS:
            out[key] = _to_bool(out[key])
    return out


def _add_noise_flags(p):
    p.add_argument("--sigma-n", dest="sigma_n", type=float, help="atom-number std dev")
    p.add_argument("--sigma-omega", dest="sigma_omega", type=float,
                   help="axis pointing uncertainty (rad)")
    p.add_argument("--phase-noise", dest="phase_noise",
                   help="none | constant:<rad> | model:<rad>")
    p.add_argument("--phase-variant", dest="phase_variant",
                   choices=("quadratic", "linear"),
                   help="mapping of the model amplitude to sigma_phi(phi)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spintomo",
        description="Tomography of collective-spin Wigner functions from "
                    "Stern-Gerlach records.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic measurement CSV")
    p.add_argument("--config", help="key = value defaults file (flags win)")
    p.add_argument("--state", choices=("coherent", "dicke", "oat", "mixed"))
    p.add_argument("--two-j", dest="two_j", type=int, help="doubled total spin")
    p.add_argument("--two-m", dest="two_m", type=int, help="doubled projection (dicke)")
    p.add_argument("--chi", type=float, help="one-axis twisting angle (oat)")
    p.add_argument("--theta0", type=float, help="state polar angle (coherent)")
    p.add_argument("--phi0", type=float, help="state azimuth (coherent)")
    p.add_argument("--kmax", type=int, help="state truncation (default 2j)")
    p.add_argument("--axes", type=int, help="number of quantization axes")
    p.add_argument("--axis-plane", action="store_true", default=None,
                   help="equally spaced axes on the equator (default)")
    p.add_argument("--axis-sphere", action="store_true", default=None,
                   help="Fibonacci-spread axes over the upper hemisphere")
    p.add_argument("--shots", type=int, help="measurements per axis")
    p.add_argument("--seed", type=int, help="RNG seed")
    _add_noise_flags(p)
    p.add_argument("--out", help="output measurement CSV")

    p = sub.add_parser("reconstruct", help="backproject a measurement CSV")
    p.add_argument("measurements", help="input measurement CSV")
    p.add_argument("--config", help="key = value defaults file (flags win)")
    p.add_argument("--mode", choices=("in-plane", "full-sphere"))
    p.add_argument("--kmax", type=int)
    p.add_argument("--weights", choices=("uniform", "voronoi"))
    p.add_argument("--fold-north", dest="fold_north", action="store_true", default=None)
    p.add_argument("--two-j-ref", dest="two_j_ref", type=int)
    p.add_argument("--grid", help="render grid NxM for the grid CSV")
    _add_noise_flags(p)
    p.add_argument("--out", help="output prefix (default: input stem)")

    p = sub.add_parser("analyze", help="squeezing analysis of a coefficient CSV")
    p.add_argument("coefficients", help="input coefficient CSV")
    p.add_argument("--config", help="key = value defaults file (flags win)")
    p.add_argument("--sigma-n", dest="sigma_n", type=float)
    p.add_argument("--j-mean", dest="j_mean", type=float,
                   help="reference spin for the coherent variance (default two_j_ref/2)")
    p.add_argument("--phi-steps", dest="phi_steps", type=int)
    p.add_argument("--out", help="output squeezing CSV")

    p = sub.add_parser("render", help="sample a coefficient CSV onto grid + PGM")
    p.add_argument("coefficients", help="input coefficient CSV")
    p.add_argument("--config", help="key = value defaults file (flags win)")
    p.add_argument("--grid", help="grid NxM")
    p.add_argument("--out", help="output prefix (default: input stem)")

    sub.add_parser("selftest", help="run the built-in oracle battery")
    return parser


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
    cfg = _resolve(args, {
        "state": "coherent", "two_j": 40, "two_m": None, "chi": 0.05,
        "theta0": 0.0, "phi0": 0.0, "kmax": None, "axes": 24, "shots": 400,
        "seed": 0, "sigma_n": 0.0, "sigma_omega": 0.0, "phase_noise": "none",
        "phase_variant": "quadratic", "out": "measurements.csv",
        "axis_plane": None, "axis_sphere": None,
    })
    two_j = int(cfg["two_j"])
    kmax = two_j if cfg["kmax"] is None else int(cfg["kmax"])
    state_kind = cfg["state"]
    if state_kind == "coherent":
        state = coherent_state(two_j, float(cfg["theta0"]), float(cfg["phi0"]),
                               0.0, kmax)
    elif state_kind == "dicke":
        if cfg["two_m"] is None:
            raise ValueError("--two-m is required for --state dicke")
        state = dicke_basis_state(two_j, int(cfg["two_m"]), kmax)
    elif state_kind == "oat":
        state = oat_squeezed_state(two_j, float(cfg["chi"]), kmax)
    elif state_kind == "mixed":
        state = maximally_mixed_state(two_j, kmax)
    else:
        raise ValueError(f"unknown state {state_kind!r}")

    if cfg["axis_plane"] and cfg["axis_sphere"]:
        raise ValueError("--axis-plane and --axis-sphere are mutually exclusive")
    layout = "sphere" if cfg["axis_sphere"] else "plane"
    axes = _simulate_axes(layout, int(cfg["axes"]))
    noise = _noise_from(cfg)
    records = sample_measurements(state, axes, int(cfg["shots"]), noise,
                                  int(cfg["seed"]))
    stio.write_measurements(cfg["out"], records)
    print(f"wrote {len(records)} records to {cfg['out']}")
    return 0


def _stem(path):
    return path[:-4] if path.endswith(".csv") else path


def _cmd_reconstruct(args):
    cfg = _resolve(args, {
        "mode": "in-plane", "kmax": None, "weights": "voronoi",
        "fold_north": None, "two_j_ref": None, "grid": "64x128",
        "sigma_n": 0.0, "sigma_omega": 0.0, "phase_noise": "none",
        "phase_variant": "quadratic", "out": None,
    })
    records = stio.parse_measurements(args.measurements)
    noise = _noise_from(cfg)
    two_j_min = min(r.two_j for r in records)
    if cfg["kmax"] is None:
        kmax = two_j_min
        if cfg["mode"] == "in-plane":
            _, first, _ = _axis_ids(math.pi / 2.0, np.array([r.phi for r in records]))
            kmax = min(kmax, first.size - 1)
    else:
        kmax = int(cfg["kmax"])
    fold = cfg["fold_north"] or False
    two_j_ref = None if cfg["two_j_ref"] is None else int(cfg["two_j_ref"])
    config = ReconstructionConfig(kmax=kmax, mode=cfg["mode"], noise=noise,
                                  fold_north=fold, two_j_ref=two_j_ref)
    state = reconstruct(records, config, weight_scheme=cfg["weights"])

    prefix = cfg["out"] or _stem(args.measurements)
    stio.write_coefficients(f"{prefix}_coeffs.csv", state)
    stio.write_spectrum(f"{prefix}_spectrum.csv", power_spectrum(state))
    n_theta, n_phi = _parse_grid(cfg["grid"])
    stio.write_grid(f"{prefix}_grid.csv", wigner_grid(state, n_theta, n_phi))
    print(f"reconstructed kmax={kmax} mode={cfg['mode']} fold_north={fold} "
          f"two_j_ref={state.two_j_ref}")
    print(f"wrote {prefix}_coeffs.csv, {prefix}_spectrum.csv, {prefix}_grid.csv")
    return 0


def _cmd_analyze(args):
    cfg = _resolve(args, {
        "sigma_n": 0.0, "j_mean": None, "phi_steps": 181, "out": None,
    })
    state = stio.read_coefficients(args.coefficients)
    sigma_n = float(cfg["sigma_n"])
    j_mean = state.two_j_ref / 2.0 if cfg["j_mean"] is None else float(cfg["j_mean"])
    steps = int(cfg["phi_steps"])
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, steps)
    report = squeezing_scan(state, phis, sigma_n, j_mean)
    if report.fit_failures == len(report.variance_curve):
        raise NumericalFailure("Gaussian fit failed along every quantization axis")

    def db(v):
        arg = (v - sigma_n ** 2 / 2.0) / report.v_coh
        return format(10.0 * math.log10(arg), ".17g") if arg > 0 else ""

    out = cfg["out"] or (_stem(args.coefficients) + "_squeezing.csv")
    lines = ["phi,v_direct,v_fit,db_direct,db_fit"]
    for phi, v_d, v_f in report.variance_curve:
        vf = "" if math.isnan(v_f) else format(v_f, ".17g")
        lines.append(f"{format(phi, '.17g')},{format(v_d, '.17g')},{vf},"
                     f"{db(v_d)},{db(v_f) if vf else ''}")
    stio._atomic_write(out, "\n".join(lines) + "\n")

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
    cfg = _resolve(args, {"grid": "64x128", "out": None})
    state = stio.read_coefficients(args.coefficients)
    n_theta, n_phi = _parse_grid(cfg["grid"])
    grid = wigner_grid(state, n_theta, n_phi)
    prefix = cfg["out"] or _stem(args.coefficients)
    stio.write_grid(f"{prefix}_grid.csv", grid)
    stio.write_pgm(f"{prefix}.pgm", grid)
    print(f"wrote {prefix}_grid.csv, {prefix}.pgm "
          f"(W range {grid.values.min():.6g} .. {grid.values.max():.6g})")
    return 0


def _selftest_checks():
    from .angular import cg_general, cg_tau, cg_tau_table, hemi_overlap, rot_elements_axis
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

    def check_tau_vs_racah():
        for two_j in range(1, 11):
            for k in range(two_j + 1):
                for two_m in range(-two_j, two_j + 1, 2):
                    a = cg_tau(two_j, two_m, k)
                    sign = -1.0 if ((two_j - two_m) // 2) % 2 else 1.0
                    b = sign * cg_general(two_j, two_m, two_j, -two_m, 2 * k, 0)
                    if abs(a - b) > 1e-9 * max(1e-3, abs(b)):
                        return f"(two_j={two_j}, two_m={two_m}, k={k}): {a} vs {b}"
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
        ("tau vs Racah sum", check_tau_vs_racah),
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "reconstruct": _cmd_reconstruct,
        "analyze": _cmd_analyze,
        "render": _cmd_render,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except NumericalFailure as exc:
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
