"""File formats: measurement CSV, coefficient CSV, spectra, squeezing scans, grids, PGM.

All angles are stored in radians, all spins as doubled integers, and all
floats with 17 significant digits so that write -> parse round trips are
lossless.  Writes are atomic (temp file then rename).
"""

import math
import os
import tempfile

import numpy as np

from .analysis import _squeezing_db
from .angular import _mirror_negative_q
from .forward import Records, _check_row
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


def _fmt(x):
    return format(float(x), ".17g")


def _atomic_write(path, text):
    if not path:
        # abspath("") is the working directory, so the temporary file would land
        # in its parent and the rename fail with a misleading message
        raise ValueError("the output path is empty")
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
    """Read measurement records from CSV as a :class:`~spintomo.forward.Records`.

    Format: header ``theta,phi,weight,two_j,two_m``; angles in radians;
    weight may be empty (pending); ``#`` starts a comment line; a UTF-8
    byte-order mark is skipped.  Every row is validated against the record
    invariants; a malformed file raises with line-numbered diagnostics and
    yields no partial output.
    """
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        raise MeasurementFormatError(f"{path}: no header line found")
    if line != MEASUREMENT_HEADER:
        raise MeasurementFormatError(
            f"{path}:{lineno}: expected header {MEASUREMENT_HEADER!r}, got {line!r}")
    records = _parse_columns(lines[lineno:])
    return records if records is not None else _parse_lines(path, lines, lineno)


def _parse_columns(lines):
    """The records of the data lines in one pass over each field, or None.

    float() and int() read the fields, as in the line-by-line rule; any
    irregularity (a field count, a number, a record invariant) gives None.
    """
    rows = [line for line in map(str.strip, lines) if line and line[0] != "#"]
    # "\n" marks the end of a row: splitlines left none inside a field
    fields = ",\n,".join(rows).split(",")
    if len(fields) != 6 * len(rows) - 1 or fields[5::6].count("\n") != len(rows) - 1:
        return None
    try:
        theta = np.array(list(map(float, fields[0::6])))
        phi = np.array(list(map(float, fields[1::6])))
        weight = np.array([float(w) if w.strip() else math.nan for w in fields[2::6]])
        two_j = np.fromiter(map(int, fields[3::6]), np.int64, len(rows))
        two_m = np.fromiter(map(int, fields[4::6]), np.int64, len(rows))
        return Records(theta, phi, weight, two_j, two_m)
    except (ValueError, OverflowError):
        return None


def _parse_lines(path, lines, header_lineno):
    """The line-by-line rule for the rows after the header line: their
    records, or a MeasurementFormatError naming the first bad lines (at most 20)."""
    records = []
    errors = []
    for lineno, raw in enumerate(lines[header_lineno:], start=header_lineno + 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        try:
            if len(parts) != 5:
                raise ValueError(f"expected 5 fields, got {len(parts)}")
            theta, phi = float(parts[0]), float(parts[1])
            weight = math.nan if parts[2].strip() == "" else float(parts[2])
            row = (theta, phi, weight, int(parts[3]), int(parts[4]))
            _check_row(*row)
            records.append(row)
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            if len(errors) == _MAX_REPORTED_ERRORS:
                break
    if errors:
        raise MeasurementFormatError(f"{path}: " + "; ".join(errors))
    if not records:
        raise MeasurementFormatError(f"{path}: no measurement rows")
    return Records(*zip(*records))


def write_measurements(path, records):
    """Write records as canonical measurement CSV (17 significant digits).

    records is a Records or a list of its rows; an empty one
    raises ValueError before anything is written.
    """
    columns = Records.of(records).columns
    n = columns[0].size
    values = [None] * (5 * n)
    for i, column in enumerate(columns):
        values[i::5] = column.tolist()
    text = ("%.17g,%.17g,%.17g,%s,%s\n" * n) % tuple(values)
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
    with open(path, encoding="utf-8-sig") as fh:
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
    try:
        return SphericalState(two_j_ref, kmax, coeffs)
    except ValueError as exc:
        # the rows are in range and mirrored, so what the state refuses is a
        # complex rho_k0: name the row with the largest imaginary part
        k0 = [(abs(v.imag), lineno) for (_, q), (v, lineno) in rows.items() if q == 0]
        imag, lineno = max(k0, default=(0.0, None))
        raise ValueError(f"{path}:{lineno}: {exc}" if imag > 0.0 else f"{path}: {exc}") from None


def write_spectrum(path, c_k):
    """Write an angular power spectrum as CSV ``k,C_k``."""
    lines = ["k,C_k"]
    for k, v in enumerate(np.asarray(c_k, dtype=float)):
        lines.append(f"{k},{_fmt(v)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def write_squeezing(path, report, sigma_n):
    """Write a squeezing scan as CSV ``phi,v_direct,v_fit,db_direct,db_fit``.

    The dB columns hold the headline's law, 10 log10((V - sigma_n^2 / 2) / V_coh),
    and are empty where it is undefined; both fit columns are empty where
    the Gaussian fit failed (V_fit is NaN).
    """
    def db(v):
        value = _squeezing_db(v, sigma_n, report.v_coh)
        return "" if value is None else _fmt(value)

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
    values).  A repeated key, or a ``config`` key naming another file,
    raises ValueError naming ``path:line``.
    """
    out = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in out:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            if key == "config":
                raise ValueError(f"{path}:{lineno}: a config file cannot name another one")
            out[key] = value.strip()
    return out
