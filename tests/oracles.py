"""Independent oracle implementations used across the test suite.

Everything here is deliberately brute force: explicit operator algebra in
the Dicke basis, quadrature for integrals, sympy for coupling
coefficients.  None of it shares code with the paths it checks.
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg import expm
from scipy.special import gammaln


def spin_operators(two_j):
    """(Jx, Jy, Jz) matrices in the Dicke basis (m ascending)."""
    dim = two_j + 1
    m = (2.0 * np.arange(dim) - two_j) / 2.0
    j = two_j / 2.0
    jp = np.zeros((dim, dim))
    jp[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(
        j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    jx = 0.5 * (jp + jp.T)
    jy = -0.5j * (jp - jp.T)
    jz = np.diag(m)
    return jx, jy, jz


def axis_rotation(two_j, theta, phi):
    """R = exp(-i phi Jz) exp(-i theta Jy): takes +z to the axis (theta, phi)."""
    _, jy, jz = spin_operators(two_j)
    return expm(-1j * phi * jz) @ expm(-1j * theta * jy)


def rotated_diagonal(rho, two_j, theta, phi):
    """Projection probabilities via explicit rotation of the Dicke matrix."""
    r = axis_rotation(two_j, theta, phi)
    return np.diag(r.conj().T @ rho @ r).real


def coherent_dicke(two_j, theta, phi):
    """Coherent-state density matrix by rotating the stretched state."""
    dim = two_j + 1
    psi = axis_rotation(two_j, theta, phi)[:, dim - 1]
    return np.outer(psi, psi.conj())


def oat_dicke(two_j, chi):
    """One-axis-twisted state as a Dicke matrix: coherent along +x, twisted
    by exp(-i chi Jz^2), mean spin rotated back to +z (explicit exponentials)."""
    _, jy, jz = spin_operators(two_j)
    psi = expm(-0.5j * math.pi * jy)[:, two_j]
    psi = expm(0.5j * math.pi * jy) @ (np.exp(-1j * chi * np.diag(jz) ** 2) * psi)
    return np.outer(psi, psi.conj())


def random_density_matrix(two_j, rng):
    dim = two_j + 1
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_hermitian(two_j, rng):
    dim = two_j + 1
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def sph_harm_y(k, q, theta, phi):
    """Orthonormal spherical harmonic with Condon-Shortley phase (scipy)."""
    from scipy.special import sph_harm_y as _sph

    return _sph(k, q, theta, phi)


def legendre_sph_loop(kmax, x):
    """S_k^q(x) by the plain recurrences, one order or degree per step.

    A loop over the sectoral seeds S_q^q, one over the first step up
    S_{q+1}^q, then the three-term ladder in k (orders q <= k - 2).  Each
    product is formed in the same order as in the library, so the tables
    agree bitwise.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    out = np.zeros((kmax + 1, kmax + 1) + x.shape)
    out[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    if kmax == 0:
        return out
    for q in range(1, kmax + 1):
        out[q, q] = -math.sqrt((2.0 * q + 1.0) / (2.0 * q)) * s * out[q - 1, q - 1]
    for q in range(kmax):
        out[q + 1, q] = math.sqrt(2.0 * q + 3.0) * x * out[q, q]
    col = (1,) * x.ndim
    for k in range(2, kmax + 1):
        q = np.arange(k - 1, dtype=float).reshape((k - 1,) + col)  # orders 0..k-2
        a = np.sqrt((4.0 * k * k - 1.0) / (k * k - q * q))
        b = np.sqrt(((k - 1.0) ** 2 - q * q) / (4.0 * (k - 1.0) ** 2 - 1.0))
        out[k, :k - 1] = a * (x * out[k - 1, :k - 1] - b * out[k - 2, :k - 1])
    return out


def hemi_overlap_quadrature(k, kp, q, n=120):
    """2 * Integral over the upper hemisphere of conj(Y_kq) Y_k'q by quadrature."""
    x, w = leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    theta = np.arccos(x)
    vals = (np.conj(sph_harm_y(k, q, theta, 0.0))
            * sph_harm_y(kp, q, theta, 0.0)).real
    return 4.0 * math.pi * float(w @ vals)


def hemi_overlap_tables_quadrature(kmax, n=80):
    """Quadrature overlaps for all orders at once: dict q -> (kmax+1)^2 matrix."""
    x, w = leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    theta = np.arccos(x)
    ks, qs = [], []
    for k in range(kmax + 1):
        for q in range(k + 1):
            ks.append(k)
            qs.append(q)
    ks = np.array(ks)
    qs = np.array(qs)
    y = sph_harm_y(ks[:, None], qs[:, None], theta[None, :], 0.0).real
    tables = {}
    for q in range(kmax + 1):
        rows = np.where(qs == q)[0]
        yk = y[rows]  # degrees q..kmax at this order
        gram = 4.0 * math.pi * (yk * w[None, :]) @ yk.T
        full = np.zeros((kmax + 1, kmax + 1))
        full[q:, q:] = gram
        tables[q] = full
    return tables


def racah_cg(two_j1, two_m1, two_j2, two_m2, two_j3, two_m3):
    """Clebsch-Gordan coefficient via sympy (slow, exact)."""
    from sympy import Rational
    from sympy.physics.quantum.cg import CG

    val = CG(Rational(two_j1, 2), Rational(two_m1, 2),
             Rational(two_j2, 2), Rational(two_m2, 2),
             Rational(two_j3, 2), Rational(two_m3, 2)).doit()
    return float(val.evalf())


@lru_cache(maxsize=None)
def tau_racah(two_j, two_m, k):
    """tau_k^{j,m} = (-1)^(j-m) <j,m; j,-m | k,0> from sympy."""
    sign = -1.0 if ((two_j - two_m) // 2) % 2 else 1.0
    return sign * racah_cg(two_j, two_m, two_j, -two_m, 2 * k, 0)


def fbp_direct(records, kmax, mode, noise):
    """Filtered backprojection as the plain sum over records, one at a time.

    rho_kq = f_kq sum_n c_n D^k_{q0}(phi_n, theta_n, 0) tau_k^{j_n,m_n} d_kq(n)
    for every |q| <= k (no mirroring), with f = 2k+1 on the full sphere and
    pi (a)_(1/2) (b)_(1/2), a = (k-q+1)/2, b = (k+q+1)/2, on the equator
    (zero for k+q odd).  d multiplies the number damping
    exp(-sigma_N^2 k(k+1) / (2j(2j-1))), the pointing damping
    exp(-sigma_Omega^2 k(k+1) / 4) and, on the equator, the azimuth damping
    exp(-q^2 sigma_phi(phi_n)^2 / 2).  A record adds nothing at k > 2j_n.
    """
    k = np.arange(kmax + 1)[:, None]
    q = np.arange(-kmax, kmax + 1)[None, :]
    valid = np.abs(q) <= k
    qs = np.where(valid, q, 0)
    if mode == "full-sphere":
        filt = np.where(valid, 2.0 * k + 1.0, 0.0)
    else:
        a, b = (k - qs + 1) / 2.0, (k + qs + 1) / 2.0
        poch = np.exp(gammaln(a + 0.5) - gammaln(a) + gammaln(b + 0.5) - gammaln(b))
        filt = np.where(valid & ((k + q) % 2 == 0), math.pi * poch, 0.0)
    kk1 = k * (k + 1.0)
    out = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    for r in records:
        d = np.sqrt(4.0 * math.pi / (2.0 * k + 1.0)) * np.conj(
            sph_harm_y(np.broadcast_to(k, qs.shape), qs, r.theta, r.phi))
        tau = np.array([tau_racah(r.two_j, r.two_m, kk) if kk <= r.two_j else 0.0
                        for kk in range(kmax + 1)])[:, None]
        damp = np.exp(-0.25 * noise.sigma_omega ** 2 * kk1)
        if noise.sigma_n > 0.0:
            damp = damp * np.exp(-noise.sigma_n ** 2 * kk1 / (r.two_j * (r.two_j - 1.0)))
        if mode == "in-plane":
            damp = damp * np.exp(-0.5 * q ** 2 * float(noise.azimuth_sigma(r.phi)) ** 2)
        out += filt * r.weight * d * tau * damp
    return out


def dicke_moments(rho, two_j, theta, phi):
    """(<m>, <m^2>) along an axis, by explicit rotation in the Dicke basis."""
    p = rotated_diagonal(rho, two_j, theta, phi)
    m = (2.0 * np.arange(two_j + 1) - two_j) / 2.0
    return float(p @ m), float(p @ m ** 2)


def min_variance_azimuth(rho, two_j, n_grid=3601):
    """Equatorial axis of minimal projection variance, by dense search."""
    jx, jy, _ = spin_operators(two_j)

    def ev(op):
        return float(np.trace(op @ rho).real)

    vxx = ev(jx @ jx) - ev(jx) ** 2
    vyy = ev(jy @ jy) - ev(jy) ** 2
    cxy = ev(0.5 * (jx @ jy + jy @ jx)) - ev(jx) * ev(jy)
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, n_grid)
    v = (np.cos(phis) ** 2 * vxx + np.sin(phis) ** 2 * vyy
         + 2.0 * np.sin(phis) * np.cos(phis) * cxy)
    i = int(np.argmin(v))
    return float(phis[i]), float(v[i])


def _axis_frame(theta, phi):
    n = np.array([math.sin(theta) * math.cos(phi),
                  math.sin(theta) * math.sin(phi),
                  math.cos(theta)])
    e1 = np.array([math.cos(theta) * math.cos(phi),
                   math.cos(theta) * math.sin(phi),
                   -math.sin(theta)])
    e2 = np.array([-math.sin(phi), math.cos(phi), 0.0])
    return n, e1, e2


def _sanitized_probabilities(p):
    if p.min(initial=0.0) < -1e-8:
        raise ValueError(f"state is unphysical for sampling: min p_m = {p.min():.3g}")
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def sample_per_shot(s, axes, shots_per_axis, noise, seed):
    """The sampler as a plain loop: one probability call and one rng.choice per shot.

    Same per-axis Philox substreams and the same draws in the same order
    (number jitter, phase jitter, pointing tilt, outcome); without axis
    noise all shots of an axis share one probability vector and one
    vectorized choice.
    """
    from spintomo.forward import MeasurementRecord, projection_probabilities

    two_j = s.two_j_ref
    sigma_j = noise.sigma_n / math.sqrt(2.0)
    weight = 1.0 / (len(axes) * shots_per_axis)
    records = []
    for a, (theta_a, phi_a) in enumerate(axes):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=(a,))))
        sigma_phi_a = float(noise.azimuth_sigma(phi_a))
        if not noise.has_axis_noise:
            p = _sanitized_probabilities(projection_probabilities(s, theta_a, phi_a))
            djs = (np.rint(rng.normal(0.0, sigma_j, size=shots_per_axis)).astype(int)
                   if sigma_j > 0.0 else np.zeros(shots_per_axis, dtype=int))
            idx = rng.choice(p.size, size=shots_per_axis, p=p)
            for dj, i in zip(djs, idx):
                two_m = 2 * int(i) - two_j
                two_j_n = max(two_j + 2 * int(dj), abs(two_m))
                records.append(MeasurementRecord(theta_a, phi_a, weight, two_j_n, two_m))
            continue
        for _ in range(shots_per_axis):
            dj = int(np.rint(rng.normal(0.0, sigma_j))) if sigma_j > 0.0 else 0
            th, ph = theta_a, phi_a
            if sigma_phi_a > 0.0:
                ph = ph + rng.normal(0.0, sigma_phi_a)
            if noise.sigma_omega > 0.0:
                n, e1, e2 = _axis_frame(th, ph)
                t1, t2 = rng.normal(0.0, noise.sigma_omega / math.sqrt(2.0), size=2)
                v = n + t1 * e1 + t2 * e2
                v /= np.linalg.norm(v)
                th = math.acos(min(1.0, max(-1.0, v[2])))
                ph = math.atan2(v[1], v[0])
            p = _sanitized_probabilities(projection_probabilities(s, th, ph))
            i = int(rng.choice(p.size, p=p))
            two_m = 2 * i - two_j
            two_j_n = max(two_j + 2 * dj, abs(two_m))
            records.append(MeasurementRecord(theta_a, phi_a, weight, two_j_n, two_m))
    return records


def _gaussian_model(x, m):
    return x[0] * np.exp(-((m - x[1]) ** 2) / (2.0 * x[2] ** 2))


def _gaussian_start(p, m):
    # (A, mu, sigma) from the positive part's moments
    pos = np.clip(p, 0.0, None)
    mu0 = float(pos @ m) / pos.sum()
    var0 = max(float(pos @ (m - mu0) ** 2) / pos.sum(), 0.25)
    return np.array([max(p.max(), 1e-12), mu0, math.sqrt(var0)])


def gaussian_fit_fd(p, m):
    """Gaussian fit by least_squares with a finite-difference Jacobian: (A, mu, V)."""
    from scipy.optimize import least_squares

    res = least_squares(lambda x: _gaussian_model(x, m) - p, _gaussian_start(p, m),
                        method="lm", xtol=1e-9, max_nfev=600)
    assert res.success
    return np.array([res.x[0], res.x[1], res.x[2] ** 2])


def gaussian_fit_tight(p, m):
    """The least-squares Gaussian minimum (A, mu, V): MINPACK's lmdif (finite-
    difference Jacobian) run to ftol = xtol = 1e-15, far past where the
    package's fits stop; None when MINPACK reports no convergence."""
    from scipy.optimize import leastsq

    x, _, _, _, info = leastsq(lambda x: _gaussian_model(x, m) - p, _gaussian_start(p, m),
                               full_output=True, ftol=1e-15, xtol=1e-15, maxfev=20000)
    if info not in (1, 2, 3, 4) or x[2] ** 2 <= 1e-300:
        return None
    return np.array([x[0], x[1], x[2] ** 2])


def axis_groups(theta, phi, tol):
    """Unoriented axes by brute force: the label of each record's axis.

    Two records share an axis when a chain of records links them, each
    link a pair whose directions, or one's direction and the other's
    antipode, lie within the chord 2 sin(tol / 2).  All O(n^2) pairs are
    tested; labels are 0, 1, ... in order of each group's first record.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), phi)
    u = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
                 axis=1)
    chord = 2.0 * math.sin(0.5 * tol)
    n = len(u)
    linked = [[j for j in range(n)
               if min(np.linalg.norm(u[i] - u[j]), np.linalg.norm(u[i] + u[j])) <= chord]
              for i in range(n)]
    label = [-1] * n
    groups = 0
    for start in range(n):
        if label[start] >= 0:
            continue
        label[start] = groups
        stack = [start]
        while stack:
            for j in linked[stack.pop()]:
                if label[j] < 0:
                    label[j] = groups
                    stack.append(j)
        groups += 1
    return np.array(label)


# ---------------------------------------------------------------- file text, one value at a time

def _fmt17(x):
    return format(float(x), ".17g")


def measurements_text(records):
    """Measurement CSV text built record by record (17 significant digits)."""
    lines = ["theta,phi,weight,two_j,two_m"]
    for r in records:
        w = "" if math.isnan(r.weight) else _fmt17(r.weight)
        lines.append(f"{_fmt17(r.theta)},{_fmt17(r.phi)},{w},{r.two_j},{r.two_m}")
    return "\n".join(lines) + "\n"


def coefficients_text(state):
    """Coefficient CSV text built from one ``state.coeff(k, q)`` call per row."""
    lines = [f"# two_j_ref = {state.two_j_ref}", f"# kmax = {state.kmax}", "k,q,re,im"]
    for k in range(state.kmax + 1):
        for q in range(k + 1):
            c = state.coeff(k, q)
            lines.append(f"{k},{q},{_fmt17(c.real)},{_fmt17(c.imag)}")
    return "\n".join(lines) + "\n"


def grid_text(grid):
    """Grid CSV text built node by node."""
    lines = ["theta,phi,W"]
    for i, th in enumerate(grid.theta):
        for l, ph in enumerate(grid.phi):
            lines.append(f"{_fmt17(th)},{_fmt17(ph)},{_fmt17(grid.values[i, l])}")
    return "\n".join(lines) + "\n"


def pgm_text(grid):
    """Plain PGM text built pixel by pixel."""
    lo = float(grid.values.min())
    hi = float(grid.values.max())
    if hi > lo:
        pixels = np.rint((grid.values - lo) / (hi - lo) * 65535.0).astype(int)
    else:
        pixels = np.zeros_like(grid.values, dtype=int)
    lines = ["P2", f"# wmin={_fmt17(lo)} wmax={_fmt17(hi)}",
             f"{grid.phi.size} {grid.theta.size}", "65535"]
    for row in pixels:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def squeezing_text(report, sigma_n):
    """Squeezing-scan CSV text built value by value: V in 17 digits, the dB of
    (V - sigma_n^2 / 2) / V_coh where that is positive, blanks for a failed fit."""
    lines = ["phi,v_direct,v_fit,db_direct,db_fit"]
    for phi, v_d, v_f in report.variance_curve:
        cells = [_fmt17(phi), _fmt17(v_d), "" if math.isnan(v_f) else _fmt17(v_f)]
        for v in (v_d, v_f):
            arg = (v - sigma_n ** 2 / 2.0) / report.v_coh
            cells.append(_fmt17(10.0 * math.log10(arg)) if arg > 0 else "")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def parse_measurements_by_line(path):
    """Measurement CSV read line by line: the records, or MeasurementFormatError.

    One MeasurementRecord per data line, so each row meets the record
    invariants; the error names ``path`` and the first 20 bad lines.
    """
    from spintomo.forward import MeasurementRecord
    from spintomo.io import MEASUREMENT_HEADER, MeasurementFormatError

    records, errors, saw_header = [], [], False
    with open(path, encoding="utf-8-sig") as fh:
        lines = fh.read().splitlines()
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
        try:
            if len(parts) != 5:
                raise ValueError(f"expected 5 fields, got {len(parts)}")
            theta = float(parts[0])
            phi = float(parts[1])
            weight = math.nan if parts[2].strip() == "" else float(parts[2])
            records.append(MeasurementRecord(theta, phi, weight, int(parts[3]), int(parts[4])))
        except ValueError as exc:
            errors.append(f"line {lineno}: {exc}")
        if len(errors) == 20:
            break
    if not saw_header:
        raise MeasurementFormatError(f"{path}: no header line found")
    if errors:
        raise MeasurementFormatError(f"{path}: " + "; ".join(errors))
    if not records:
        raise MeasurementFormatError(f"{path}: no measurement rows")
    return records
