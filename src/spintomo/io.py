"""File formats: measurement CSV, coefficient CSV, spectra, squeezing scans, grids, PGM.

All angles are stored in radians, all spins as doubled integers, and all
floats with 17 significant digits so that write -> parse round trips are
lossless.  Writes are atomic (temp file then rename).
"""

import math
import os
import tempfile
from itertools import chain
from operator import attrgetter

import numpy as np

from .angular import _mirror_negative_q
from .forward import MeasurementRecord
from .states import SphericalState

__all__ = [
    "MEASUREMENT_HEADER",
    "parse_measurements",
    "write_measurements",
    "write_coefficients",
    "read_coefficients",
    "write_spectrum",
    "write_squeezing",
    "write_grid",
    "write_pgm",
    "parse_config",
]

MEASUREMENT_HEADER = "theta,phi,weight,two_j,two_m"
_MAX_REPORTED_ERRORS = 20
_RECORD_FIELDS = attrgetter("theta", "phi", "weight", "two_j", "two_m")


def _fmt(x):
    return format(float(x), ".17g")


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class MeasurementFormatError(ValueError):
    """Raised on malformed measurement files, with per-line diagnostics."""


def parse_measurements(path):
    """Read measurement records from CSV.

    Format: header ``theta,phi,weight,two_j,two_m``; angles in radians;
    weight may be empty (pending); ``#`` starts a comment line.  Every
    row is validated against the record invariants; a malformed file
    raises with line-numbered diagnostics and yields no partial output.
    """
    records = []
    errors = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    saw_header = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not saw_header:
            if line != MEASUREMENT_HEADER:
                raise MeasurementFormatError(
                    f"{path}:{lineno}: expected header {MEASUREMENT_HEADER!r}, got {line!r}")
            saw_header = True
            continue
        parts = line.split(",")
        if len(parts) != 5:
            errors.append(f"line {lineno}: expected 5 fields, got {len(parts)}")
            continue
        try:
            theta = float(parts[0])
            phi = float(parts[1])
            weight = math.nan if parts[2].strip() == "" else float(parts[2])
            two_j = int(parts[3])
            two_m = int(parts[4])
            records.append(MeasurementRecord(theta, phi, weight, two_j, two_m))
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
        if len(errors) >= _MAX_REPORTED_ERRORS:
            break
    if not saw_header:
        raise MeasurementFormatError(f"{path}: no header line found")
    if errors:
        raise MeasurementFormatError(f"{path}: " + "; ".join(errors))
    if not records:
        raise MeasurementFormatError(f"{path}: no measurement rows")
    return records


def write_measurements(path, records):
    """Write records as canonical measurement CSV (17 significant digits)."""
    values = tuple(chain.from_iterable(map(_RECORD_FIELDS, records)))
    text = ("%.17g,%.17g,%.17g,%s,%s\n" * (len(values) // 5)) % values
    # a pending (NaN) weight is an empty field; angles are finite and spins are
    # integers, so ",nan," can only be a weight
    _atomic_write(path, MEASUREMENT_HEADER + "\n" + text.replace(",nan,", ",,"))


def write_coefficients(path, state):
    """Write a partial-wave state as CSV ``k,q,re,im``.

    Only q >= 0 rows are stored; the q < 0 half is implied by the
    reality invariant and restored on read.
    """
    kmax = state.kmax
    k, q = np.tril_indices(kmax + 1)
    rows = "".join(f"{a},{b},%.17g,%.17g\n" for a, b in zip(k.tolist(), q.tolist()))
    values = tuple(state.coeffs[k, kmax + q].view(float).tolist())  # re, im, re, im, ...
    _atomic_write(path, f"# two_j_ref = {state.two_j_ref}\n# kmax = {kmax}\nk,q,re,im\n"
                  + rows % values)


def read_coefficients(path):
    """Read a coefficient CSV back into a SphericalState.

    A malformed file raises ValueError naming ``path:line``.
    """
    header = {}
    rows = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        try:
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                key = key.strip()
                if eq and key in ("two_j_ref", "kmax"):
                    if key in header:
                        raise ValueError(f"repeated {key} header")
                    header[key] = (int(value), lineno)
            elif line and line != "k,q,re,im":
                parts = line.split(",")
                if len(parts) != 4:
                    raise ValueError("expected 4 fields")
                k, q = int(parts[0]), int(parts[1])
                if (k, q) in rows:
                    raise ValueError(f"repeated coefficient ({k}, {q})")
                re, im = float(parts[2]), float(parts[3])
                if not (math.isfinite(re) and math.isfinite(im)):
                    raise ValueError(f"non-finite coefficient ({k}, {q})")
                rows[k, q] = (re + 1j * im, lineno)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(header) < 2:
        raise ValueError(f"{path}: missing two_j_ref / kmax header comments")
    (two_j_ref, _), (kmax, kmax_line) = header["two_j_ref"], header["kmax"]
    if not 0 <= kmax <= two_j_ref:
        raise ValueError(f"{path}:{kmax_line}: kmax = {kmax} outside 0..two_j_ref = {two_j_ref}")
    coeffs = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    for (k, q), (value, lineno) in rows.items():
        if not (0 <= k <= kmax and 0 <= q <= k):
            raise ValueError(f"{path}:{lineno}: coefficient ({k}, {q}) out of range")
        coeffs[k, kmax + q] = value
    _mirror_negative_q(coeffs, kmax)
    return SphericalState(two_j_ref, kmax, coeffs)


def write_spectrum(path, c_k):
    """Write an angular power spectrum as CSV ``k,C_k``."""
    lines = ["k,C_k"]
    for k, v in enumerate(np.asarray(c_k, dtype=float)):
        lines.append(f"{k},{_fmt(v)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_squeezing(path, report, sigma_n):
    """Write a squeezing scan as CSV ``phi,v_direct,v_fit,db_direct,db_fit``.

    The dB columns hold 10 log10((V - sigma_n^2 / 2) / V_coh) and are empty
    where that argument is not positive; both fit columns are empty where
    the Gaussian fit failed (V_fit is NaN).
    """
    def db(v):
        arg = (v - sigma_n ** 2 / 2.0) / report.v_coh
        return _fmt(10.0 * math.log10(arg)) if arg > 0 else ""

    lines = ["phi,v_direct,v_fit,db_direct,db_fit"]
    for phi, v_d, v_f in report.variance_curve:
        fit = ("", "") if math.isnan(v_f) else (_fmt(v_f), db(v_f))
        lines.append(f"{_fmt(phi)},{_fmt(v_d)},{fit[0]},{db(v_d)},{fit[1]}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_grid(path, grid):
    """Write a Wigner grid as CSV ``theta,phi,W`` (row-major over nodes)."""
    # theta and phi are formatted once each; "%.17g" % x is format(x, ".17g")
    cells = [""] + [f",{_fmt(ph)},%.17g\n" for ph in grid.phi.tolist()]
    rows = [_fmt(th).join(cells) % tuple(w)
            for th, w in zip(grid.theta.tolist(), grid.values.tolist())]
    _atomic_write(path, "theta,phi,W\n" + "".join(rows))


def write_pgm(path, grid):
    """Render a Wigner grid as plain-text PGM (P2), 16-bit gray.

    Values are mapped affinely from [min W, max W] to 0..65535; the exact
    extrema are recorded in a comment so the map is invertible.
    """
    lo = float(grid.values.min())
    hi = float(grid.values.max())
    if hi > lo:
        pixels = np.rint((grid.values - lo) / (hi - lo) * 65535.0).astype(int)
    else:
        pixels = np.zeros_like(grid.values, dtype=int)
    lines = [
        "P2",
        f"# wmin={_fmt(lo)} wmax={_fmt(hi)}",
        f"{grid.phi.size} {grid.theta.size}",
        "65535",
    ]
    lines += [" ".join(map(str, row)) for row in pixels.tolist()]
    _atomic_write(path, "\n".join(lines) + "\n")


def parse_config(path):
    """Parse a ``key = value`` config file into a string dict.

    Blank lines and ``#`` comments are ignored; values keep their raw
    string form (the CLI performs typed validation, flags win over file
    values).
    """
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
