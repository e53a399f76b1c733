"""Angular-momentum special functions.

Coupling coefficients, normalized associated-Legendre kernels, rotation
elements and hemispherical overlap integrals, all stable far beyond the
point where naive factorial arithmetic overflows (collective spins of
order 10^3 need binomials of order 2^2500).

Conventions used throughout the package:

* Spins and projections are passed as doubled integers (``two_j = 2j``,
  ``two_m = 2m``) so half-integer labels stay exact and comparable.
* Partial-wave indices ``k`` (degree) and ``q`` (order) are plain ints.
* Spherical harmonics carry the Condon-Shortley phase; ``Y_kq`` for
  ``q < 0`` follows ``Y_{k,-q} = (-1)^q conj(Y_kq)``.
* All factorial-like quantities are evaluated as log-Gamma with signs
  tracked separately.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

__all__ = [
    "check_spin_label",
    "check_wave_index",
    "cg_tau",
    "cg_tau_table",
    "cg_general",
    "cg_t",
    "legendre_table",
    "legendre_sph_table",
    "rot_elements_axis",
    "pochhammer_half",
    "hemi_overlap",
    "hemi_overlap_matrix",
]

_LNPI = math.log(math.pi)
SQRT_4PI = math.sqrt(4.0 * math.pi)


def check_spin_label(two_j, two_m):
    """Validate a doubled (j, m) pair: integers, |m| <= j, same parity."""
    if two_j != int(two_j) or two_m != int(two_m):
        raise ValueError(f"spin labels must be doubled integers, got ({two_j}, {two_m})")
    if two_j < 0:
        raise ValueError(f"two_j must be non-negative, got {two_j}")
    if abs(two_m) > two_j:
        raise ValueError(f"|two_m| = {abs(two_m)} exceeds two_j = {two_j}")
    if (two_j - two_m) % 2 != 0:
        raise ValueError(f"two_m = {two_m} and two_j = {two_j} have different parity")


def check_wave_index(k, q, two_j=None):
    """Validate a partial-wave index (k, q), optionally against a spin bound."""
    if k != int(k) or q != int(q):
        raise ValueError(f"wave indices must be integers, got ({k}, {q})")
    if k < 0 or abs(q) > k:
        raise ValueError(f"wave index (k={k}, q={q}) violates 0 <= |q| <= k")
    if two_j is not None and k > two_j:
        raise ValueError(f"k = {k} exceeds 2j = {two_j}")


def _coupling_table(two_j, q, kmax):
    """Couplings t_kq^{j,m,m-q} of one order q, for k = 0..kmax and every m.

    Returns (two_m, T): two_m runs over the projections for which both
    (j, m) and (j, m-q) are valid labels, and T[k, i] is the coupling at
    two_m[i] (rows k < |q| are zero).  With m2 = q - m1, the coefficients
    C(m1) = <j,m1; j,m2|k,q> obey the J^2 three-term relation
        [k(k+1) - 2j(j+1) - 2 m1 m2] C(m1) = a(m1) C(m1-1) + a(m1+1) C(m1+1),
        a(m1)^2 = (j+m1)(j-m1+1)(j-m2)(j+m2+1),
    run here for all k at once.  It is seeded at the stretched edge m1 = j,
    where the Racah sum has the single term
        sqrt((2k+1) (2j)! (2j-q)! (k+q)! / ((2j+k+1)! (2j-k)! q! (k-q)!))
    (in log-Gamma form: it overflows doubles as factorials), and runs
    towards the centre m1 = q/2, the direction in which C grows, so it
    stays stable for j and k in the thousands (full tables are orthogonal
    to 2e-11 at 2j = 2000).  It runs on t = (-1)^(j-m1-q) C itself, whose
    sign alternates with m1; that flips the sign of the diagonal term.  The
    other half follows from t(q-m1) = (-1)^(k+q) t(m1), which also gives the
    exact zeros at the centre, and q < 0 from
    t_{k,-q}^{j,m,m+q} = (-1)^k t_kq^{j,-m,-m-q}.
    """
    sign_k = np.where(np.arange(kmax + 1) % 2 == 0, 1.0, -1.0)[:, None]
    if q < 0:
        two_m, t = _coupling_table(two_j, -q, kmax)
        return -two_m[::-1], sign_k * t[:, ::-1]
    j = two_j / 2.0
    two_m = np.arange(2 * q - two_j, two_j + 1, 2)
    n, mid = two_m.size, two_m.size // 2
    k = np.arange(q, kmax + 1, dtype=float)
    m1 = np.append(two_m[mid:], two_j + 2) / 2.0  # centre to edge, then m1 = j + 1 where C = 0
    m2 = q - m1
    e = 2.0 * j * (j + 1.0) + 2.0 * m1 * m2
    a = np.sqrt((j + m1) * (j - m1 + 1.0) * (j - m2) * (j + m2 + 1.0))
    ln_seed = 0.5 * (
        np.log(2.0 * k + 1.0) + gammaln(two_j + 1.0) + gammaln(two_j - q + 1.0)
        + gammaln(k + q + 1.0) - gammaln(two_j + k + 2.0) - gammaln(two_j - k + 1.0)
        - gammaln(q + 1.0) - gammaln(k - q + 1.0))
    # a seed below e^-700 (k near 2j once 2j > 1000) is raised to it and the
    # row scaled back at the end; |C| <= 1 keeps the raised row finite up to 2j ~ 2000
    shift = np.maximum(0.0, -700.0 - ln_seed)
    c = np.zeros((m1.size, k.size))
    c[-2] = (-1.0) ** q * np.exp(ln_seed + shift)
    # t(m1-1) = diag t(m1) - ratio t(m1+1) at the rows 1..size-2, where a(m1) > 0
    diag = (e[1:-1, None] - k * (k + 1.0)) / a[1:-1, None]
    ratio = (a[2:] / a[1:-1]).tolist()
    for i in range(m1.size - 2, 0, -1):
        c[i - 1] = diag[i - 1] * c[i] - ratio[i - 1] * c[i + 1]
    t = np.zeros((kmax + 1, n))
    t[q:, mid:] = c[:-1].T * np.exp(-shift)[:, None]
    sign = sign_k if q % 2 == 0 else -sign_k
    t[:, :mid] = sign * t[:, n - mid:][:, ::-1]
    if n % 2:
        t[sign[:, 0] < 0.0, mid] = 0.0
    return two_m, t


@lru_cache(maxsize=64)
def cg_tau_table(two_j, kmax):
    """Table of the diagonal coupling coefficients tau_k^{j,m}.

    tau_k^{j,m} = t_k0^{j,m,m} maps a Dicke population at projection m to
    the amplitude of partial wave k; this is the q = 0 case of the coupling
    recursion, so tau_k^{j,-m} = (-1)^k tau_k^{j,m} holds exactly.

    Returns an array of shape (kmax+1, two_j+1); column i holds the values
    for two_m = 2*i - two_j.  The returned array is read-only (cached).
    """
    check_spin_label(two_j, two_j)
    if not 0 <= kmax <= two_j:
        raise ValueError(f"kmax = {kmax} outside 0..two_j = {two_j}")
    tau = _coupling_table(int(two_j), 0, int(kmax))[1]
    tau.flags.writeable = False
    return tau


def cg_tau(two_j, two_m, k):
    """Diagonal coupling coefficient tau_k^{j,m} (recursion path)."""
    check_spin_label(two_j, two_m)
    check_wave_index(k, 0, two_j)
    table = cg_tau_table(two_j, int(k))
    return float(table[int(k), (two_m + two_j) // 2])


def cg_general(two_j1, two_m1, two_j2, two_m2, two_k, two_q):
    """Clebsch-Gordan coefficient <j1,m1; j2,m2 | k,q> via the Racah sum.

    All six labels are doubled integers.  The alternating Racah series is
    summed in exact rational arithmetic (big integers cannot overflow and
    the heavy cancellation at desk-scale j costs no precision), with a
    single square root at the end; the result is correct to a couple of
    ulps.  Serves as the brute-force oracle for the recursion path.
    """
    from fractions import Fraction

    for tj, tm in ((two_j1, two_m1), (two_j2, two_m2), (two_k, two_q)):
        check_spin_label(tj, tm)
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


def cg_t(two_j, two_m, two_mp, k, q):
    """Dicke-to-partial-wave coupling t_kq^{j m m'} = (-1)^(j-m-q) <j,m; j,-m'|k,q>.

    Nonzero only for q = m - m'.
    """
    check_spin_label(two_j, two_m)
    check_spin_label(two_j, two_mp)
    check_wave_index(k, q)
    if 2 * q != two_m - two_mp:
        return 0.0
    sign = -1.0 if ((two_j - two_m) // 2 + q) % 2 else 1.0
    return sign * cg_general(two_j, two_m, two_j, -two_mp, 2 * k, 2 * q)


def legendre_table(kmax, x):
    """Legendre polynomials P_0..P_kmax at x via the upward recurrence.

    x may be a scalar or array; returns shape (kmax+1,) + x.shape.
    """
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise ValueError("legendre argument outside [-1, 1]")
    out = np.zeros((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = x
    for k in range(2, kmax + 1):
        out[k] = ((2 * k - 1) * x * out[k - 1] - (k - 1) * out[k - 2]) / k
    return out


@lru_cache(maxsize=16)
def _sph_recurrence_coeffs(kmax):
    # a[k,q], b[k,q] for the normalized upward recurrence in k (q <= k-2)
    k = np.arange(kmax + 1, dtype=float)[:, None]
    q = np.arange(kmax + 1, dtype=float)[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.sqrt((4.0 * k * k - 1.0) / (k * k - q * q))
        b = np.sqrt(((k - 1.0) ** 2 - q * q) / (4.0 * (k - 1.0) ** 2 - 1.0))
    a[~np.isfinite(a)] = 0.0
    b[~np.isfinite(b)] = 0.0
    a.flags.writeable = False
    b.flags.writeable = False
    return a, b


def legendre_sph_table(kmax, x):
    """Theta-part of the orthonormal spherical harmonics, S_k^q(x).

    Y_kq(theta, phi) = S_k^q(cos theta) e^(i q phi) for q >= 0, with the
    Condon-Shortley phase folded into S.  Fully normalized recurrence
    (plain P_k^q overflows near k ~ 150; this form is good to k of a few
    thousand).  x may be scalar or 1-d; returns (kmax+1, kmax+1) + x.shape
    with entries for q > k left at zero.
    """
    x = np.asarray(x, dtype=float)
    s = np.sqrt(np.clip(1.0 - x * x, 0.0, None))
    out = np.zeros((kmax + 1, kmax + 1) + x.shape)
    out[0, 0] = 1.0 / SQRT_4PI
    if kmax == 0:
        return out
    # sectoral seeds S_q^q, then one step up, then the three-term ladder in k
    for q in range(1, kmax + 1):
        out[q, q] = -math.sqrt((2.0 * q + 1.0) / (2.0 * q)) * s * out[q - 1, q - 1]
    qs = np.arange(kmax, dtype=float)
    shape = (kmax,) + (1,) * x.ndim
    out[np.arange(1, kmax + 1), np.arange(kmax)] = (
        np.sqrt(2.0 * qs + 3.0).reshape(shape) * x * out[np.arange(kmax), np.arange(kmax)]
    )
    a, b = _sph_recurrence_coeffs(kmax)
    for k in range(2, kmax + 1):
        nq = k - 1  # orders 0..k-2
        ak = a[k, :nq].reshape((nq,) + (1,) * x.ndim)
        bk = b[k, :nq].reshape((nq,) + (1,) * x.ndim)
        out[k, :nq] = ak * (x * out[k - 1, :nq] - bk * out[k - 2, :nq])
    return out


def _mirror_negative_q(coeffs, kmax):
    # fill the q < 0 half from the q > 0 half, rho_{k,-q} = (-1)^q conj(rho_kq),
    # so the invariant holds bitwise
    if kmax == 0:
        return
    q = np.arange(1, kmax + 1)
    sign = np.where(q % 2 == 0, 1.0, -1.0)
    coeffs[:, kmax - 1::-1] = sign[None, :] * np.conj(coeffs[:, kmax + 1:])


def rot_elements_axis(kmax, theta, phi):
    """Rotation elements D^k_{q0}(phi, theta, 0) for all k <= kmax, |q| <= k.

    Returns a complex array of shape (kmax+1, 2*kmax+1) with q = column -
    kmax.  D^k_{q0}(phi, theta, 0) = sqrt(4 pi / (2k+1)) conj(Y_kq(theta,
    phi)); the q < 0 half mirrors the q > 0 half exactly, so consumers can
    rely on the conjugation symmetry holding bitwise.
    """
    if not 0.0 <= theta <= math.pi + 1e-12:
        raise ValueError(f"theta = {theta} outside [0, pi]")
    S = legendre_sph_table(kmax, float(np.cos(theta)))
    k = np.arange(kmax + 1, dtype=float)
    scale = np.sqrt(4.0 * math.pi / (2.0 * k + 1.0))
    q = np.arange(kmax + 1)
    out = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    out[:, kmax:] = scale[:, None] * S * np.exp(-1j * q[None, :] * phi)
    _mirror_negative_q(out, kmax)
    return out


def pochhammer_half(a):
    """Half-step Pochhammer symbol (a)_(1/2) = Gamma(a + 1/2) / Gamma(a)."""
    if a <= 0.0:
        raise ValueError(f"pochhammer_half requires a > 0, got {a}")
    return math.exp(math.lgamma(a + 0.5) - math.lgamma(a))


def hemi_overlap(k, k_prime, q):
    """Northern-hemisphere overlap of two spherical harmonics of equal order.

    2 * Integral over the upper hemisphere of conj(Y_kq) Y_k'q; one entry
    of :func:`hemi_overlap_matrix`.
    """
    q = abs(int(q))
    if k < 0 or k_prime < 0 or q > min(k, k_prime):
        raise ValueError(f"invalid overlap index (k={k}, k'={k_prime}, q={q})")
    k, k_prime = int(k), int(k_prime)
    return float(hemi_overlap_matrix(max(k, k_prime), q)[k, k_prime])


def hemi_overlap_matrix(kmax, q):
    """Matrix of hemispherical overlaps for fixed order q, degrees 0..kmax.

    Equal degrees give 1 and degrees of equal parity (relative to q) give
    exactly 0.  For ke - q even and ko - q odd the factorial closed form,
    its odd double factorials written as n!! = (n+1)! / (2^((n+1)/2)
    ((n+1)/2)!), collapses to central binomials c(n) = C(n, n/2) / 2^n:
        s sqrt((2ke+1) c(ke+q) c(ke-q) (2ko+1) (ko+q+1) (ko-q) c(ko+q+1) c(ko-q-1))
          / (|ke-ko| (ke+ko+1)),
    s = (-1)^floor((ke-ko-1)/2) sign(ke-ko).  The whole mixed block comes
    from one log-Gamma vector, ln c(2i) = ln Gamma(i+1/2) - ln Gamma(i+1)
    - ln(pi)/2; the other mixed block is its transpose.  Rows and columns
    below q are zero.
    """
    q = abs(int(q))
    i = np.arange(kmax + 1)
    ln_c = gammaln(i + 0.5) - gammaln(i + 1.0) - 0.5 * _LNPI
    ke = np.arange(q, kmax + 1, 2)
    ko = np.arange(q + 1, kmax + 1, 2)
    ln_row = 0.5 * (np.log(2.0 * ke + 1.0) + ln_c[(ke + q) // 2] + ln_c[(ke - q) // 2])
    ln_col = 0.5 * (np.log((2.0 * ko + 1.0) * (ko + q + 1.0) * (ko - q))
                    + ln_c[(ko + q + 1) // 2] + ln_c[(ko - q - 1) // 2])
    d = ke[:, None] - ko[None, :]
    sign = np.where((d - 1) // 2 % 2 == 1, -1.0, 1.0) * np.sign(d)
    mixed = (sign * np.exp(ln_row[:, None] + ln_col[None, :])
             / (np.abs(d) * (ke[:, None] + ko[None, :] + 1.0)))
    out = np.zeros((kmax + 1, kmax + 1))
    out[q::2, q + 1::2] = mixed
    out[q + 1::2, q::2] = mixed.T
    out[i[q:], i[q:]] = 1.0
    return out
