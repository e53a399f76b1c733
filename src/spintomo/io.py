"""File formats: measurement CSV, coefficient CSV, spectra, squeezing scans, grids, PGM.

All angles are stored in radians, all spins as doubled integers, and all
floats with 17 significant digits so that write -> parse round trips are
lossless.  A coefficient file holds a state's q >= 0 half, which the reader
hands to the producers' builder (angular._from_half): every state's round
trip is bitwise, signed zeros included.  Writes are atomic (temp file then rename).
"""

import math
import os
import tempfile

import numpy as np

from .analysis import _squeezing_db
from .angular import _from_half
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
_HEADER_KEYS = ("two_j_ref", "kmax")


def _fmt(x):
    return format(float(x), ".17g")


def _atomic_write(path, text):
    if not path:
        # abspath("") is the working directory, so the temporary file would land
        # in its parent and the rename fail with a misleading message
        raise ValueError("the output path is empty")
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)  # fails when path is a directory, say
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            # the temporary file's name would mislead, and a plain OSError keeps the
            # CLI's hint for a missing input file away
            raise OSError(f"cannot write {path}: {exc.strerror}") from exc
        raise


class MeasurementFormatError(ValueError):
    """Raised on malformed measurement files, with per-line diagnostics."""


def _read_lines(path):
    """The stripped lines of a UTF-8 file, a byte-order mark skipped: line n is [n - 1]."""
    with open(path, encoding="utf-8-sig") as fh:
        return list(map(str.strip, fh.read().splitlines()))


def _columns(rows, n):
    """The n columns of the rows' comma-separated fields, or ValueError for another count."""
    # a "\n" field ends each row (splitlines left none inside a field), and a
    # last "" field follows the last row
    fields = ",\n,".join(rows + [""]).split(",")
    if len(fields) != (n + 1) * len(rows) + 1 or fields[n::n + 1].count("\n") != len(rows):
        raise ValueError("a row has another number of fields")
    return [fields[i:-1:n + 1] for i in range(n)]


def parse_measurements(path):
    """Read measurement records from CSV as a :class:`~spintomo.forward.Records`.

    Format: header ``theta,phi,weight,two_j,two_m``; angles in radians;
    weight may be empty (pending); ``#`` starts a comment line; a UTF-8
    byte-order mark is skipped.  Every row is validated against the record
    invariants; a malformed file raises with line-numbered diagnostics and
    yields no partial output.
    """
    lines = _read_lines(path)
    at = next((i for i, line in enumerate(lines) if line and line[0] != "#"), None)
    if at is None:
        raise MeasurementFormatError(f"{path}: no header line found")
    if lines[at] != MEASUREMENT_HEADER:
        raise MeasurementFormatError(
            f"{path}:{at + 1}: expected header {MEASUREMENT_HEADER!r}, got {lines[at]!r}")
    rows = [line for line in lines[at + 1:] if line and line[0] != "#"]
    try:
        # float() and int() read the fields, as the line-by-line rule does
        theta, phi, weight, two_j, two_m = _columns(rows, 5)
        weight = [float(w) if w.strip() else math.nan for w in weight]
        n = len(rows)
        return Records(*(np.fromiter(map(float, c), float, n) for c in (theta, phi, weight)),
                       *(np.fromiter(map(int, c), np.int64, n) for c in (two_j, two_m)))
    except (ValueError, OverflowError):
        pass
    # the line-by-line rule, only to name the first bad lines (at most 20)
    errors = []
    for lineno, line in enumerate(lines[at + 1:], start=at + 2):
        if not line or line[0] == "#":
            continue
        parts = line.split(",")
        try:
            if len(parts) != 5:
                raise ValueError(f"expected 5 fields, got {len(parts)}")
            _check_row(float(parts[0]), float(parts[1]),
                       math.nan if parts[2].strip() == "" else float(parts[2]),
                       int(parts[3]), int(parts[4]))
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
            if len(errors) == 20:
                break
    raise MeasurementFormatError(f"{path}: " + ("; ".join(errors) or "no measurement rows"))


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

    Only the 0 <= q <= k rows are stored; the q < 0 half is implied by
    the reality invariant and restored on read.
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
    lines = _read_lines(path)
    heads = [(n, key.strip(), value) for n, line in enumerate(lines, start=1)
             if line[:1] == "#" for key, eq, value in [line[1:].partition("=")]
             if eq and key.strip() in _HEADER_KEYS]
    rows = [line for line in lines if line and line[0] != "#" and line != "k,q,re,im"]
    try:
        # int() and float() read the fields, as the line-by-line rule does
        header = {key: (int(value), n) for n, key, value in heads}
        k, q, re, im = _columns(rows, 4)
        try:
            kq = np.fromiter(map(int, k + q), np.int64, 2 * len(rows))
        except OverflowError:  # a label beyond int64: compare Python's ints
            kq = np.array(list(map(int, k + q)), dtype=object)
        k, q = kq.reshape(2, -1)
        re, im = parts = np.fromiter(map(float, re + im), float, 2 * len(rows)).reshape(2, -1)
        if len(header) < len(heads) or not np.isfinite(parts).all():
            raise ValueError("a repeated header or a non-finite value")
        if len(header) < 2:
            raise ValueError(f"{path}: missing two_j_ref / kmax header comments")
        (two_j_ref, _), (kmax, kmax_line) = header["two_j_ref"], header["kmax"]
        if not 0 <= kmax <= two_j_ref:
            raise ValueError(f"{path}:{kmax_line}: kmax = {kmax} outside "
                             f"0..two_j_ref = {two_j_ref}")
        out = np.flatnonzero((q < 0) | (q > k) | (k > kmax))
        if out.size:
            i = out[0]  # lines.index finds a row's line when no two rows are alike
            raise ValueError(f"{path}:{lines.index(rows[i]) + 1}: "
                             f"coefficient ({k[i]}, {q[i]}) out of range")
        at = np.sort(k * (kmax + 1) + q)  # sorted, a repeated (k, q) meets its twin
        if (at[1:] == at[:-1]).any():
            raise ValueError("a repeated row")
        try:
            half = np.zeros((kmax + 1, kmax + 1), dtype=complex)
        except ValueError as exc:  # numpy refuses the size without allocating
            raise ValueError(f"{path}:{kmax_line}: kmax = {kmax} too large: {exc}") from None
    except ValueError as fault:
        # a line bad on its own, a repeated (k, q) row among them, comes first
        raise _bad_coefficient_line(path, lines) or fault from None
    half.real[k, q], half.imag[k, q] = re, im  # keeps signed zeros
    try:
        return SphericalState(two_j_ref, kmax, _from_half(half))
    except ValueError as exc:
        # the rows are in range and mirrored, so what the state refuses is a complex
        # rho_k0: name the row with the largest imaginary part, the later on a tie
        imag, i = max(zip(np.abs(im[q == 0]).tolist(), np.flatnonzero(q == 0).tolist()),
                      default=(0.0, None))
        where = f"{path}:{lines.index(rows[i]) + 1}" if imag > 0.0 else path
        raise ValueError(f"{where}: {exc}") from None


def _bad_coefficient_line(path, lines):
    """The ValueError of the first line bad on its own, worded as line by line, or None."""
    header, rows = set(), set()
    for lineno, line in enumerate(lines, start=1):
        try:
            if line.startswith("#"):
                key, eq, value = line[1:].partition("=")
                key = key.strip()
                if eq and key in _HEADER_KEYS:
                    if key in header:
                        raise ValueError(f"repeated {key} header")
                    int(value)
                    header.add(key)
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
                rows.add((k, q))
        except ValueError as exc:
            return ValueError(f"{path}:{lineno}: {exc}")


def write_spectrum(path, c_k):
    """Write an angular power spectrum as CSV ``k,C_k``."""
    c_k = np.asarray(c_k, dtype=float).tolist()
    _atomic_write(path, "k,C_k\n" + "".join(f"{k},%.17g\n" for k in range(len(c_k))) % tuple(c_k))


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
    for lineno, line in enumerate(_read_lines(path), start=1):
        line = line.split("#", 1)[0].strip()
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
