"""Independent oracle implementations used across the test suite.

Everything here is deliberately brute force: explicit operator algebra in
the Dicke basis, quadrature for integrals, and for coupling coefficients
the Racah sum in exact rational arithmetic (``cg_general``, ``cg_t``) or
sympy.  None of it shares code with the paths it checks, except three
helpers that tests read the package through: ``coeff`` (one entry of a
state), ``coupling_table_signed`` (the package's coupling table for
negative orders too, by the mirror identity) and ``axis_weighted_records``
(``exact_records`` with other weights per axis), and ``damped_state`` takes
the package's pointing average g_k (``forward._tilt_average``, itself
checked against ``tilt_average_reference``).  ``gaussian_fits_reference``
and ``wave_sums_ladder_reference`` are no brute force either: each is an
earlier version of a package kernel (the Gaussian fit, the scattered route
of the partial-wave sums), kept verbatim, whose bits the kernel must
reproduce; the ladder's reference takes the package's sectoral seeds,
recurrence coefficients and chunks.  ``sample_per_shot`` is the sampler
as it was when every shot under axis noise drew its own jittered axis
(``tilted_axes_reference``), and ``jittered_axis_probabilities`` averages
p_m over those axes by nodes: the references of ``damped_state``, the
state whose p_m at the nominal axis the sampler draws from now.
``axis_sums_by_spin`` is the backprojection's per-axis sum as it was when
every record spin took its own coupling table (the package's
``cg_tau_table``) and matrix product.
"""

import dataclasses
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermegauss
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


def legendre_table(kmax, x):
    """Legendre polynomials P_0..P_kmax at x by the plain upward recurrence.

    x may be a scalar or array; returns shape (kmax+1,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for k in range(2, kmax + 1):
        out[k] = ((2 * k - 1) * x * out[k - 1] - (k - 1) * out[k - 2]) / k
    return out


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


def wave_sums_table(s, theta, phi, kuse):
    """The partial-wave sums of ``states._wave_sums`` from one full table.

    z[n, k] = sum_{q >= 0} w_q sqrt(4 pi / (2k+1)) S_k^q(cos theta_n)
    (Re rho_kq cos q phi_n - Im rho_kq sin q phi_n), w_0 = 1 and w_q = 2:
    one (k, q, points) table from ``legendre_sph_loop`` for all points at
    once, then one contraction with the state's (k, q >= 0) block.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    theta, phi = theta.ravel(), phi.ravel()
    q = np.arange(kuse + 1)
    norm = np.sqrt(4.0 * math.pi / (2.0 * q + 1.0))[:, None]
    c = norm * np.where(q > 0, 2.0, 1.0) * s.coeffs[: kuse + 1, s.kmax: s.kmax + kuse + 1]
    a, b = c.real[:, None, :], -c.imag[:, None, :]             # (k, 1, q)
    S = legendre_sph_loop(kuse, np.cos(theta))                  # (k, q, points)
    qphi = q[:, None] * phi
    return (a @ (S * np.cos(qphi)) + b @ (S * np.sin(qphi)))[:, 0].T


def _sph_rows_by_degree(x, seeds, out):
    # the Legendre ladder as it handed its caller one row per degree, kept verbatim:
    # row k in out[k % len(out), :k+1], yielded as that view
    from spintomo.angular import _sph_recurrence_coeffs

    kmax = len(seeds) - 1
    column = (1,) * (out.ndim - 2)
    out[0, 0] = seeds[0]
    yield out[0, :1]
    if kmax == 0:
        return
    qs = np.arange(1, kmax + 1, dtype=float).reshape((kmax,) + column)
    edges = np.stack([np.sqrt(2.0 * qs + 1.0) * x * seeds[:-1], seeds[1:]], axis=1)
    a, b = _sph_recurrence_coeffs(kmax)
    a, b = a.reshape(a.shape + column), b.reshape(b.shape + column)
    xs = np.empty(out.shape[1:])
    prev2, prev = out[-1], out[0]
    for k in range(1, kmax + 1):
        row = out[k % len(out)]
        nq = k - 1
        ladder, xp = row[:nq], np.multiply(x, prev[:nq], out=xs[:nq])
        np.multiply(b[k, :nq], prev2[:nq], out=ladder)
        np.subtract(xp, ladder, out=ladder)
        np.multiply(a[k, :nq], ladder, out=ladder)
        row[nq:k + 1] = edges[nq]
        yield row[:k + 1]
        prev2, prev = prev, row


def wave_sums_ladder_reference(s, theta, phi, kuse):
    """The scattered-points route of states._wave_sums as it was, kept verbatim.

    The Legendre ladder handed over one row per degree, and every 8 rows
    were contracted with their coefficients and the points' phases, a chunk
    of states._chunks at a time (so states._CHUNK_BUDGET applies).  The
    package hands the rows over a block at a time around the same
    arithmetic, so it must return these bits exactly, whatever the layout
    of the points.
    """
    from spintomo.angular import _sectoral_seeds
    from spintomo.states import _chunks

    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    theta, phi = theta.ravel(), phi.ravel()
    q = np.arange(kuse + 1)
    norm = np.sqrt(4.0 * math.pi / (2.0 * q + 1.0))[:, None]     # over k
    c = norm * np.where(q > 0, 2.0, 1.0) * s.coeffs[: kuse + 1, s.kmax: s.kmax + kuse + 1]
    out = np.empty((theta.size, kuse + 1))
    c = np.stack([c.real, -c.imag], axis=-1)                       # (k, q, re/im)
    for sl in _chunks(theta.size, 16 * (kuse + 1)):
        x = np.cos(theta[sl])
        phases = np.empty((kuse + 1, x.size), dtype=complex)        # e^(i q phi), a running product
        phases[0], phases[1:] = 1.0, np.exp(1j * phi[sl])
        phases = np.multiply.accumulate(phases, axis=0)
        phases = np.stack([phases.real, phases.imag], axis=1)      # (q, re/im, points)
        rows = np.zeros((8, kuse + 1, x.size))
        z = np.empty((kuse + 1, 2, x.size))
        for k, _ in enumerate(_sph_rows_by_degree(x, _sectoral_seeds(kuse, x), rows)):
            if k % 8 == 7 or k == kuse:
                k0 = k - k % 8
                np.einsum("kqn,qrn,kqr->krn", rows[:k - k0 + 1, :k + 1], phases[:k + 1],
                          c[k0:k + 1, :k + 1], out=z[k0:k + 1])
        out[sl] = (z[:, 0] + z[:, 1]).T
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


def _check_label(two_j, two_m):
    if two_j != int(two_j) or two_m != int(two_m) or two_j < 0 or abs(two_m) > two_j \
            or (two_j - two_m) % 2:
        raise ValueError(f"malformed doubled spin label ({two_j}, {two_m})")


def cg_general(two_j1, two_m1, two_j2, two_m2, two_k, two_q):
    """Clebsch-Gordan coefficient <j1,m1; j2,m2 | k,q> via the Racah sum.

    All six labels are doubled integers.  The alternating Racah series is
    summed in exact rational arithmetic (big integers cannot overflow and
    the heavy cancellation at desk-scale j costs no precision), with a
    single square root at the end; the result is correct to a couple of
    ulps.  Serves as the brute-force oracle for the coupling recursion.
    """
    for tj, tm in ((two_j1, two_m1), (two_j2, two_m2), (two_k, two_q)):
        _check_label(tj, tm)
    if two_q != two_m1 + two_m2:
        return 0.0
    if two_k < abs(two_j1 - two_j2) or two_k > two_j1 + two_j2:
        return 0.0
    if (two_j1 + two_j2 + two_k) % 2 != 0:
        return 0.0

    # halved combinations below are all integers once the checks above pass
    a = (two_j1 + two_j2 - two_k) // 2
    b = (two_j1 - two_j2 + two_k) // 2
    c = (-two_j1 + two_j2 + two_k) // 2
    j1m = (two_j1 - two_m1) // 2
    j1p = (two_j1 + two_m1) // 2
    j2m = (two_j2 - two_m2) // 2
    j2p = (two_j2 + two_m2) // 2
    kp = (two_k + two_q) // 2
    km = (two_k - two_q) // 2
    d1 = (two_k - two_j2 + two_m1) // 2  # k - j2 + m1
    d2 = (two_k - two_j1 - two_m2) // 2  # k - j1 - m2

    t_min = max(0, -d1, -d2)
    t_max = min(a, j1m, j2p)
    if t_min > t_max:
        return 0.0
    f = math.factorial
    s = Fraction(0)
    for t in range(t_min, t_max + 1):
        den = (f(t) * f(a - t) * f(j1m - t) * f(j2p - t) * f(d1 + t) * f(d2 + t))
        s += Fraction(-1 if t % 2 else 1, den)
    if s == 0:
        return 0.0
    pref = Fraction(
        (two_k + 1) * f(a) * f(b) * f(c) * f(kp) * f(km)
        * f(j1m) * f(j1p) * f(j2m) * f(j2p),
        f((two_j1 + two_j2 + two_k) // 2 + 1),
    )
    value = math.sqrt(float(pref * s * s))
    return value if s > 0 else -value


def coupling_table_signed(two_j, q, kmax):
    """The package's coupling table (``angular._coupling_table``) for an order of either sign.

    The package builds q >= 0 only; q < 0 follows from the mirror identity
    t_{k,-q}^{j,m,m+q} = (-1)^k t_kq^{j,-m,-m-q}, so the negative orders can
    be checked against ``cg_t`` as well.
    """
    from spintomo.angular import _coupling_table

    two_m, t = _coupling_table(two_j, abs(q), kmax)
    if q >= 0:
        return two_m, t
    sign_k = np.where(np.arange(kmax + 1) % 2 == 0, 1.0, -1.0)[:, None]
    return -two_m[::-1], sign_k * t[:, ::-1]


def axis_sums_by_spin(axis, flip, weight, two_j, two_m, kmax, noise):
    """``reconstruct._axis_sums`` with one coupling table and one matrix product per spin.

    A[k, a] = sum of c_n tau_k^{j_n,m_n} N_k(j_n) over the records n on axis a,
    records opposite to their axis taken with m -> -m and waves k > 2j_n left
    out.  The tables come from ``cg_tau_table`` without its cache, so a set of
    many large spins leaves the cache as it was.
    """
    from spintomo.angular import cg_tau_table
    from spintomo.states import _damping

    n_axes = int(axis.max()) + 1
    two_m = np.where(flip, -two_m, two_m)
    A = np.zeros((kmax + 1, n_axes))
    order = np.argsort(two_j, kind="stable")
    spins, starts = np.unique(two_j[order], return_index=True)
    for tj, sel in zip(spins.tolist(), np.split(order, starts[1:])):
        kj = min(kmax, tj)
        hist = np.bincount(axis[sel] * (tj + 1) + (two_m[sel] + tj) // 2,
                           weights=weight[sel], minlength=n_axes * (tj + 1))
        tau = cg_tau_table.__wrapped__(tj, kj) * _damping(tj, kj, noise.sigma_n,
                                                          noise.sigma_omega)[:, None]
        A[: kj + 1] += tau @ hist.reshape(n_axes, tj + 1).T
    return A


def cg_t(two_j, two_m, two_mp, k, q):
    """Dicke-to-partial-wave coupling t_kq^{j m m'} = (-1)^(j-m-q) <j,m; j,-m'|k,q>.

    Nonzero only for q = m - m'; malformed labels raise ValueError.
    """
    _check_label(two_j, two_m)
    _check_label(two_j, two_mp)
    _check_label(2 * k, 2 * q)
    if 2 * q != two_m - two_mp:
        return 0.0
    sign = -1.0 if ((two_j - two_m) // 2 + q) % 2 else 1.0
    return sign * cg_general(two_j, two_m, two_j, -two_mp, 2 * k, 2 * q)


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
    exp(-sigma_Omega^2 k(k+1) / 4) and, in both geometries, the azimuth damping
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
        damp = damp * np.exp(-0.5 * q ** 2 * float(noise.azimuth_sigma(r.phi)) ** 2)
        out += filt * r.weight * d * tau * damp
    return out


@lru_cache(maxsize=None)
def _tau_exact(two_j, two_m, kuse):
    """tau_k^{j,m} for k = 0..kuse from the exact-rational Racah sum."""
    return np.array([cg_t(two_j, two_m, two_m, k, 0) for k in range(kuse + 1)])


def xi_sum(records, theta, phi, kmax, noise):
    """W(theta, phi) as the sum of single-measurement contributions, record by record.

    W = sum_n c_n Xi_n(n . n_n) with
    Xi_n(x) = (4 pi)^(-1/2) sum_k (2k+1)^(3/2) tau_k^{j_n,m_n} N_k(j_n) P_k(x)
    over k <= min(kmax, 2j_n), where the damping is
    N_k(j) = exp(-(sigma_Omega^2 / 4 + sigma_N^2 / (2j (2j - 1))) k(k+1)), the
    number term only when sigma_N > 0.  Each record keeps its own axis as
    given (no grouping, no antipode flip); numpy's legval sums the series.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
    out = np.zeros(theta.shape)
    for r in records:
        kuse = min(kmax, r.two_j)
        k = np.arange(kuse + 1, dtype=float)
        alpha = 0.25 * noise.sigma_omega ** 2
        if noise.sigma_n > 0.0:
            alpha += noise.sigma_n ** 2 / (r.two_j * (r.two_j - 1.0))
        coef = ((2.0 * k + 1.0) ** 1.5 / math.sqrt(4.0 * math.pi)
                * _tau_exact(r.two_j, r.two_m, kuse) * np.exp(-alpha * k * (k + 1.0)))
        cos_eta = (np.cos(theta) * math.cos(r.theta)
                   + np.sin(theta) * math.sin(r.theta) * np.cos(phi - r.phi))
        out += r.weight * np.polynomial.legendre.legval(np.clip(cos_eta, -1.0, 1.0), coef)
    return out


def hemisphere_quadrature(n_theta, n_phi):
    """Product quadrature over the upper hemisphere (weights sum to 2 pi).

    Gauss-Legendre in cos(theta) on [0, 1] crossed with uniform azimuths,
    so band-limited integrands are integrated to machine precision; drives
    the backprojection in the infinite-data limit.  Returns (theta, phi, w)
    with theta ascending and w[i, l] the weight of node (theta_i, phi_l).
    """
    x, wx = leggauss(n_theta)
    x = 0.5 * (x + 1.0)
    wx = 0.5 * wx
    order = np.argsort(-x)  # ascending theta
    theta = np.arccos(x[order])
    phi = (np.arange(n_phi) + 0.5) * 2.0 * math.pi / n_phi
    w = np.outer(wx[order], np.full(n_phi, 2.0 * math.pi / n_phi))
    return theta, phi, w


def grid_theta_weights(n_theta):
    """Latitude quadrature weights for the cell-center grid (sum to 2).

    The latitudes theta_i = (i + 1/2) pi / n are Chebyshev points in
    x = cos(theta), so Fejer's first rule applies: the weights integrate
    every polynomial in x up to degree n-1 exactly, which makes sphere
    integrals of band-limited W exact rather than O(1/n^2).
    """
    n = int(n_theta)
    theta = (np.arange(n) + 0.5) * math.pi / n
    m = np.arange(1, n // 2 + 1)
    corr = np.cos(2.0 * np.outer(theta, m)) / (4.0 * m * m - 1.0)[None, :]
    return (2.0 / n) * (1.0 - 2.0 * corr.sum(axis=1))


def sphere_integral(grid):
    """Integral of a gridded function over the full sphere (Fejer rule in theta)."""
    w_theta = grid_theta_weights(grid.theta.size)
    return float(w_theta @ grid.values.sum(axis=1)) * 2.0 * math.pi / grid.phi.size


def spin_expectation_from_grid(grid, two_j):
    """Angular-momentum vector <S> from the Wigner function's center of mass.

    Returns (Sx, Sy, Sz) in units of hbar, using the proportionality of
    <S> to the first moment of W over the sphere.
    """
    _check_label(two_j, two_j % 2)
    j = two_j / 2.0
    pref = math.sqrt(j * (j + 1.0) * (two_j + 1.0) / (4.0 * math.pi))
    w_theta = grid_theta_weights(grid.theta.size)
    dphi = 2.0 * math.pi / grid.phi.size
    sin_t = np.sin(grid.theta)
    cos_t = np.cos(grid.theta)
    row = grid.values * w_theta[:, None] * dphi
    sx = float(np.sum(row * np.outer(sin_t, np.cos(grid.phi))))
    sy = float(np.sum(row * np.outer(sin_t, np.sin(grid.phi))))
    sz = float(np.sum(row * cos_t[:, None]))
    return pref * np.array([sx, sy, sz])


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


def tilted_axes_reference(theta, phi, t1, t2):
    """The sampler's pointing tilt when it drew one axis per shot: (theta, phi).

    The axis n + t1 e1 + t2 e2, renormalized, from three stacked (3, points)
    vectors and np.linalg.norm, with (t1, t2) ~ N(0, sigma_omega^2 / 2) each.
    """
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    n = np.stack([st * cp, st * sp, ct])
    e1 = np.stack([ct * cp, ct * sp, -st])
    e2 = np.stack([-sp, cp, np.zeros_like(sp)])
    v = n + t1 * e1 + t2 * e2
    v /= np.linalg.norm(v, axis=0)
    return np.arccos(np.clip(v[2], -1.0, 1.0)), np.arctan2(v[1], v[0])


def tilt_average_reference(kmax, sigma_omega):
    """g_k = E[P_k(cos eta)], tan^2 eta exponential with mean sigma_omega^2, densely.

    Composite 16-node Gauss-Legendre in the tilt angle eta itself, with the density
    d/d eta (1 - exp(-tan^2 eta / sigma_omega^2)) over [0, atan(10 sigma_omega)], on
    400 + 4 kmax atan(10 sigma_omega) / pi uniform panels joined by the eta
    of 200 uniform steps in tan eta / sigma_omega (the density's own scale); P_k by
    its recurrence in the differences of 1 - cos eta = 2 sin^2(eta / 2).
    """
    top = math.atan(10.0 * sigma_omega)
    edges = np.sort(np.concatenate([
        np.linspace(0.0, top, 400 + int(4 * kmax * top / math.pi)),
        np.arctan(sigma_omega * np.linspace(0.0, 10.0, 201))]))
    x, w = leggauss(16)
    half = 0.5 * np.diff(edges)[:, None]
    eta = (edges[:-1, None] + half * (x + 1.0)).ravel()
    tan = np.tan(eta)
    dens = ((half * w).ravel() * 2.0 * tan * (1.0 + tan * tan) / sigma_omega ** 2
            * np.exp(-(tan / sigma_omega) ** 2))
    u = 2.0 * np.sin(0.5 * eta) ** 2
    g = np.empty(kmax + 1)
    p, d = np.ones_like(u), np.zeros_like(u)
    for k in range(kmax + 1):
        g[k] = p @ dens
        d = (k * d - (2 * k + 1) * u * p) / (k + 1)
        p = p + d
    return g


def jittered_axis_probabilities(s, theta, phi, noise):
    """p_m averaged over the jittered axes of one nominal axis, by nodes.

    The azimuth jitter delta ~ N(0, azimuth_sigma(phi)^2) on 12 Gauss-Hermite nodes,
    then the pointing tilt (t1, t2) on 20 x 20 through tilted_axes_reference, as the
    per-shot sampler applied them; a noise that is off takes one node.  Good to 1e-14
    at 2j <= 100 with sigma_omega <= 0.1 and azimuth sigmas up to 0.05.
    """
    from spintomo.forward import projection_probabilities

    sigma_a = float(noise.azimuth_sigma(phi))
    x, wx = hermegauss(12 if sigma_a > 0.0 else 1)
    y, wy = hermegauss(20 if noise.sigma_omega > 0.0 else 1)
    wx, wy = wx / wx.sum(), wy / wy.sum()
    sigma_t = noise.sigma_omega / math.sqrt(2.0)
    ph, t1, t2 = np.meshgrid(phi + sigma_a * x, sigma_t * y, sigma_t * y, indexing="ij")
    w = wx[:, None, None] * wy[None, :, None] * wy[None, None, :]
    th, ph = tilted_axes_reference(np.full(ph.size, float(theta)), ph.ravel(), t1.ravel(),
                                   t2.ravel())
    return w.ravel() @ projection_probabilities(s, th, ph)


def damped_state(s, sigma_omega, sigma_a):
    """s with rho_kq times g_k exp(-q^2 sigma_a^2 / 2) (g_k of forward._tilt_average); s if
    both are 0.

    By Funk-Hecke, these are the mean of the rho_kq Y_kq that a shot sees along its axis,
    azimuth jittered by N(0, sigma_a^2), then tilted by pointing noise sigma_omega.
    """
    from spintomo.forward import _tilt_average
    from spintomo.states import SphericalState

    if sigma_omega == 0.0 and sigma_a == 0.0:
        return s
    q = np.arange(-s.kmax, s.kmax + 1)
    g = _tilt_average(s.kmax, sigma_omega)[:, None] if sigma_omega > 0.0 else 1.0
    return SphericalState(s.two_j_ref, s.kmax, s.coeffs * g * np.exp(-0.5 * sigma_a ** 2 * q * q))


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
    from spintomo.forward import Records, projection_probabilities

    two_j = s.two_j_ref
    sigma_j = noise.sigma_n / math.sqrt(2.0)
    weight = 1.0 / (len(axes) * shots_per_axis)
    records = []
    for a, (theta_a, phi_a) in enumerate(axes):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=(a,))))
        sigma_phi_a = float(noise.azimuth_sigma(phi_a))
        if not (noise.sigma_omega > 0.0 or noise.sigma_phi > 0.0 or noise.sigma_ph > 0.0):
            p = _sanitized_probabilities(projection_probabilities(s, theta_a, phi_a))
            djs = (np.rint(rng.normal(0.0, sigma_j, size=shots_per_axis)).astype(int)
                   if sigma_j > 0.0 else np.zeros(shots_per_axis, dtype=int))
            idx = rng.choice(p.size, size=shots_per_axis, p=p)
            for dj, i in zip(djs, idx):
                two_m = 2 * int(i) - two_j
                two_j_n = max(two_j + 2 * int(dj), abs(two_m))
                records.append((theta_a, phi_a, weight, two_j_n, two_m))
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
            records.append((theta_a, phi_a, weight, two_j_n, two_m))
    return Records(*zip(*records))


def axis_weighted_records(s, axes, axis_weights):
    """exact_records(s, axes) with the weight c_a p_m on axis a in place of p_m / A."""
    from spintomo.forward import exact_records, projection_probabilities

    theta, phi = np.array(axes, dtype=float).T
    p = np.clip(projection_probabilities(s, theta, phi), 0.0, None)
    a, i = np.nonzero(p > 0.0)
    return dataclasses.replace(exact_records(s, axes),
                               weight=np.asarray(axis_weights, dtype=float)[a] * p[a, i])


def gaussian_model(x, m):
    """A exp(-(m - mu)^2 / (2 sigma^2)) at the points m, for x = (A, mu, sigma)."""
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

    res = least_squares(lambda x: gaussian_model(x, m) - p, _gaussian_start(p, m),
                        method="lm", xtol=1e-9, max_nfev=600)
    assert res.success
    return np.array([res.x[0], res.x[1], res.x[2] ** 2])


def gaussian_fit_tight(p, m):
    """The least-squares Gaussian minimum (A, mu, V): MINPACK's lmdif (finite-
    difference Jacobian) run to ftol = xtol = 1e-15, far past where the
    package's fits stop; None when MINPACK reports no convergence."""
    from scipy.optimize import leastsq

    x, _, _, _, info = leastsq(lambda x: gaussian_model(x, m) - p, _gaussian_start(p, m),
                               full_output=True, ftol=1e-15, xtol=1e-15, maxfev=20000)
    if info not in (1, 2, 3, 4) or x[2] ** 2 <= 1e-300:
        return None
    return np.array([x[0], x[1], x[2] ** 2])


def _gaussian_gram_reference(x, m, P):
    # [J | r]^T [J | r], shape (rows, 4, 4), for the fits A exp(-(m - mu)^2 / (2 sigma^2))
    # to the rows of P at x[n] = (A, mu, sigma): J = d r / d (A, mu, sigma) and the
    # residual r = A g - P are stacked once, so J^T J, J^T r and |r|^2 come from one product
    a, sigma = x[:, :1], x[:, 2:]
    d = (m - x[:, 1:2]) / sigma
    g = np.exp(-0.5 * d * d)
    agd = a * g * d
    JrT = np.stack([g, agd / sigma, agd * d / sigma, a * g - P], axis=1)
    return JrT @ np.swapaxes(JrT, 1, 2)


_REF_FTOL = 1e-8    # relative reduction of the squared residual, actual and predicted
_REF_XTOL = 1e-9    # relative size of the scaled step
_REF_STEPS = 200    # Levenberg-Marquardt steps before a fit gives up


def gaussian_fits_reference(P, m):
    """analysis._gaussian_fits before its steps were made in place, kept verbatim: (x, ok).

    It stacks a new [J | r] in every Gram product and keeps the accepted
    rows with np.where.  The package's fit makes fewer array calls around
    the same arithmetic, so it must return these bits exactly.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    m = np.asarray(m, dtype=float)
    if P.shape[1] < 5:
        raise ValueError("need at least 5 points to fit")
    n = P.shape[0]
    pos = np.clip(P, 0.0, None)
    tot = pos.sum(axis=1)
    active = (tot > 0.0) & np.isfinite(P).all(axis=1)
    done = np.zeros(n, dtype=bool)
    lam = np.full(n, 1e-3)
    scale = np.full((n, 3), np.finfo(float).tiny)

    with np.errstate(all="ignore"):
        mu0 = np.sum(pos * m, axis=1) / tot
        var0 = np.sum(pos * (m - mu0[:, None]) ** 2, axis=1) / tot
        x = np.stack([np.maximum(P.max(axis=1), 1e-12), mu0, np.sqrt(np.maximum(var0, 0.25))],
                     axis=1)
        x[~active] = 0.0
        G = _gaussian_gram_reference(x, m, P)
        for _ in range(_REF_STEPS):
            if not active.any():
                break
            A, grad, f = G[:, :3, :3], G[:, :3, 3], G[:, 3, 3]
            # rows that are not iterating never read their damping again
            scale = D = np.maximum(scale, np.diagonal(A, axis1=1, axis2=2))
            # a non-finite row leaves the fit; the identity keeps it, and every
            # row that is not iterating, out of the solve
            active &= np.isfinite(A).all(axis=(1, 2))
            M = A.copy()
            M.reshape(n, 9)[:, ::4] += lam[:, None] * D                 # J^T J + lambda D
            M[~active] = np.eye(3)
            try:
                h = -np.linalg.solve(M, grad[..., None])[..., 0]
            except np.linalg.LinAlgError:
                # only now look for the rows whose step is singular: each leaves as a failed fit
                for i in np.flatnonzero(active):
                    try:
                        np.linalg.solve(M[i], grad[i])
                    except np.linalg.LinAlgError:
                        active[i] = False
                M[~active] = np.eye(3)
                h = -np.linalg.solve(M, grad[..., None])[..., 0]
            xt = x + h
            Gt = _gaussian_gram_reference(xt, m, P)
            actual = 1.0 - Gt[:, 3, 3] / f
            hDh = np.sum(D * h * h, axis=1)
            # |J h|^2 + 2 lambda h^T D h, as (J^T J + lambda D) h = -grad
            pred = (lam * hDh - np.sum(h * grad, axis=1)) / f
            ratio = actual / pred
            good = ratio > 1e-4
            stop = (((np.abs(actual) <= _REF_FTOL) & (pred <= _REF_FTOL) & (ratio <= 2.0))
                    | (hDh <= _REF_XTOL ** 2 * np.sum(D * x * x, axis=1)))
            step = active & good
            x = np.where(step[:, None], xt, x)
            G = np.where(step[:, None, None], Gt, G)
            lam = lam * np.where(good, 0.1, 10.0)
            done |= active & stop
            active &= ~stop
    x[:, 2] = x[:, 2] ** 2
    ok = done & np.isfinite(x).all(axis=1) & (x[:, 2] > 1e-300) & (x[:, 2] <= np.ptp(m) ** 2)
    return x, ok


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


def coeff(state, k, q):
    """The single coefficient rho_kq of a SphericalState, |q| <= k <= kmax."""
    if not (0 <= k <= state.kmax and abs(q) <= k):
        raise ValueError(f"(k={k}, q={q}) outside the stored range")
    return complex(state.coeffs[k, state.kmax + q])


def coefficients_text(state):
    """Coefficient CSV text built from one ``coeff(state, k, q)`` call per row."""
    lines = [f"# two_j_ref = {state.two_j_ref}", f"# kmax = {state.kmax}", "k,q,re,im"]
    for k in range(state.kmax + 1):
        for q in range(k + 1):
            c = coeff(state, k, q)
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
    """Measurement CSV read line by line: the Records, or MeasurementFormatError.

    Each data line is checked on its own by ``forward._check_row``, so each
    row meets the record invariants; the error names ``path`` and the first
    20 bad lines.
    """
    from spintomo.forward import Records, _check_row
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
            row = (theta, phi, weight, int(parts[3]), int(parts[4]))
            _check_row(*row)
            records.append(row)
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
    return Records(*zip(*records))


def spectrum_text(c_k):
    """Power-spectrum CSV text built value by value (17 significant digits)."""
    lines = ["k,C_k"]
    for k in range(len(c_k)):
        lines.append(f"{k},{_fmt17(c_k[k])}")
    return "\n".join(lines) + "\n"


def read_coefficients_by_line(path):
    """Coefficient CSV read line by line: the SphericalState, or ValueError naming
    ``path:line``.

    Each row's value is ``complex(re, im)`` of its two float fields, set at
    (k, kmax + q) of a zero array; the q < 0 half is the mirror of q > 0.
    """
    from spintomo.angular import _mirror_negative_q
    from spintomo.states import SphericalState

    header, rows = {}, {}
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
                rows[k, q] = (complex(re, im), lineno)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(header) < 2:
        raise ValueError(f"{path}: missing two_j_ref / kmax header comments")
    (two_j_ref, _), (kmax, kmax_line) = header["two_j_ref"], header["kmax"]
    if not 0 <= kmax <= two_j_ref:
        raise ValueError(f"{path}:{kmax_line}: kmax = {kmax} outside 0..two_j_ref = {two_j_ref}")
    for (k, q), (value, lineno) in rows.items():
        if not (0 <= k <= kmax and 0 <= q <= k):
            raise ValueError(f"{path}:{lineno}: coefficient ({k}, {q}) out of range")
    try:
        coeffs = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    except ValueError as exc:
        raise ValueError(f"{path}:{kmax_line}: kmax = {kmax} too large: {exc}") from None
    for (k, q), (value, lineno) in rows.items():
        coeffs[k, kmax + q] = value
    _mirror_negative_q(coeffs, kmax)
    try:
        return SphericalState(two_j_ref, kmax, coeffs)
    except ValueError as exc:
        k0 = [(abs(v.imag), lineno) for (_, q), (v, lineno) in rows.items() if q == 0]
        imag, lineno = max(k0, default=(0.0, None))
        raise ValueError(f"{path}:{lineno}: {exc}" if imag > 0.0 else f"{path}: {exc}") from None
