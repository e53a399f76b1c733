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
    "cg_t_row",
    "legendre_table",
    "legendre_sph_table",
    "rot_elements_axis",
    "pochhammer_half",
    "hemi_overlap",
    "hemi_overlap_matrix",
]

_LN2 = math.log(2.0)
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


def _lnfact(n):
    # log(n!) for integer n >= 0
    return math.lgamma(n + 1.0)


@lru_cache(maxsize=64)
def cg_tau_table(two_j, kmax):
    """Table of the diagonal coupling coefficients tau_k^{j,m}.

    tau_k^{j,m} maps a Dicke population at projection m to the amplitude of
    partial wave k.  Computed by seeding the stretched projection m = j in
    the log-Gamma domain (the binomial in the seed overflows doubles beyond
    j ~ 15) and recursing downward in m with a three-term relation that is
    stable even for j and k in the thousands; negative m follows from the
    reflection tau_k^{j,-m} = (-1)^k tau_k^{j,m}.

    Returns an array of shape (kmax+1, two_j+1); column i holds the values
    for two_m = 2*i - two_j.  The returned array is read-only (cached).
    """
    check_spin_label(two_j, two_j)
    if not 0 <= kmax <= two_j:
        raise ValueError(f"kmax = {kmax} outside 0..two_j = {two_j}")
    two_j = int(two_j)
    kmax = int(kmax)
    j = two_j / 2.0
    k = np.arange(kmax + 1, dtype=float)
    kk1 = k * (k + 1.0)

    tau = np.zeros((kmax + 1, two_j + 1))
    # seed at m = j: pi^(1/4) sqrt(2k+1) / 2^(2j+1/2) * sqrt(C(4j+1, 2j-k) / (2j+1)_(1/2))
    ln_binom = (
        gammaln(2 * two_j + 2)
        - gammaln(two_j - k + 1)
        - gammaln(two_j + k + 2)
    )
    ln_poch = math.lgamma(two_j + 1.5) - math.lgamma(two_j + 1.0)
    ln_seed = (
        0.25 * _LNPI
        + 0.5 * np.log(2.0 * k + 1.0)
        - (two_j + 0.5) * _LN2
        + 0.5 * (ln_binom - ln_poch)
    )
    tau[:, two_j] = np.exp(ln_seed)

    if two_j >= 2:
        tau[:, two_j - 1] = (1.0 - kk1 / two_j) * tau[:, two_j]
    for two_m in range(two_j - 4, -1, -2):
        m = two_m / 2.0
        denom = j * (j + 1.0) - m * (m + 1.0)
        c1 = (2.0 * j * (j + 1.0) - 2.0 * (m + 1.0) ** 2 - kk1) / denom
        c2 = (j * (j + 1.0) - (m + 1.0) * (m + 2.0)) / denom
        i = (two_m + two_j) // 2
        tau[:, i] = c1 * tau[:, i + 1] - c2 * tau[:, i + 2]

    # reflection for m < 0; at m = 0 it forces the exact odd-k zeros
    sign = np.where(np.arange(kmax + 1) % 2 == 0, 1.0, -1.0)
    if two_j % 2 == 0:
        tau[1::2, two_j // 2] = 0.0
    for two_m in range(-two_j, 0, 2):
        i = (two_m + two_j) // 2
        tau[:, i] = sign * tau[:, two_j - i]

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


@lru_cache(maxsize=8)
def _lnfact_array(n):
    out = gammaln(np.arange(n + 1, dtype=float) + 1.0)
    out.flags.writeable = False
    return out


def cg_t_row(two_j, k, q):
    """All t_kq^{j,m,m-q} at once, vectorized over m.

    Returns (two_m, values) where two_m runs over the projections for which
    both (j, m) and (j, m-q) are valid labels.  The Racah sum evaluated in
    the log domain on a (m, t) grid; good to ~1e-11 absolute at desk scale
    (the scalar cg_general is the exact reference).  Used by the
    Dicke <-> partial-wave conversions.
    """
    check_spin_label(two_j, two_j)
    check_wave_index(k, q, two_j)
    two_m = np.arange(max(-two_j, -two_j + 2 * q), min(two_j, two_j + 2 * q) + 1, 2)
    if two_m.size == 0:
        return two_m, np.zeros(0)

    lf = _lnfact_array(2 * two_j + 2)
    a = two_j - k                      # j1 + j2 - K
    j1m = (two_j - two_m) // 2
    j1p = (two_j + two_m) // 2
    j2m = (two_j + two_m) // 2 - q     # j2 - m2 with m2 = q - m
    j2p = (two_j - two_m) // 2 + q
    d1 = (2 * k - two_j + two_m) // 2          # K - j2 + m1
    d2 = (2 * k - two_j - 2 * q + two_m) // 2  # K - j1 - m2

    # triangle part for j1 = j2 = j: (2j-k)! k! k! / (2j+k+1)!
    ln_pref = 0.5 * (
        np.log(2.0 * k + 1.0)
        + lf[a] + 2.0 * lf[k] - lf[two_j + k + 1]
        + lf[k + q] + lf[k - q]
        + lf[j1m] + lf[j1p] + lf[j2m] + lf[j2p]
    )

    t = np.arange(0, max(0, min(a, int(np.max(j1m)), int(np.max(j2p)))) + 1)
    T = t[None, :]
    args = np.stack([
        np.broadcast_to(T, (two_m.size, t.size)),
        a - np.broadcast_to(T, (two_m.size, t.size)),
        j1m[:, None] - T,
        j2p[:, None] - T,
        d1[:, None] + T,
        d2[:, None] + T,
    ])
    valid = np.all(args >= 0, axis=0)
    safe = np.where(valid, args, 0)
    ln_term = -np.sum(lf[safe], axis=0)
    ln_term = np.where(valid, ln_term, -np.inf)
    ln_max = np.max(ln_term, axis=1, keepdims=True)
    ln_max = np.where(np.isfinite(ln_max), ln_max, 0.0)
    signs = np.where(t % 2 == 0, 1.0, -1.0)
    s = np.sum(np.where(valid, signs[None, :] * np.exp(ln_term - ln_max), 0.0), axis=1)
    cg = s * np.exp(ln_pref + ln_max[:, 0])

    phase = np.where(((two_j - two_m) // 2 + q) % 2 == 0, 1.0, -1.0)
    return two_m, phase * cg


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
    if kmax > 0:
        qsign = np.where(q[1:] % 2 == 0, 1.0, -1.0)
        out[:, kmax - 1::-1] = qsign[None, :] * np.conj(out[:, kmax + 1:])
    return out


def pochhammer_half(a):
    """Half-step Pochhammer symbol (a)_(1/2) = Gamma(a + 1/2) / Gamma(a)."""
    if a <= 0.0:
        raise ValueError(f"pochhammer_half requires a > 0, got {a}")
    return math.exp(math.lgamma(a + 0.5) - math.lgamma(a))


def _ln_dfact(n):
    # log(n!!) with the conventions 0!! = (-1)!! = 1
    if n <= 0:
        return 0.0
    if n % 2 == 0:
        h = n // 2
        return h * _LN2 + math.lgamma(h + 1.0)
    h = (n - 1) // 2
    return math.lgamma(n + 1.0) - h * _LN2 - math.lgamma(h + 1.0)


def _hemi_mixed(ke, ko, q):
    # off-diagonal overlap where ke - q is even and ko - q is odd
    n = (ke - ko - 1) // 2
    sign = -1.0 if n % 2 else 1.0
    if ke < ko:
        sign = -sign  # carries the sign of (ke - ko)
    ln_mag = (
        (q - (ke + ko - 1) / 2.0) * _LN2
        + 0.5 * (math.log(2.0 * ke + 1.0) + math.log(2.0 * ko + 1.0))
        - math.log(abs(ke - ko)) - math.log(ke + ko + 1.0)
        + 0.5 * (_lnfact(ke - q) + _lnfact(ko - q) - _lnfact(ke + q) - _lnfact(ko + q))
        + _ln_dfact(ko + q) + _ln_dfact(ke + q - 1)
        - _lnfact((ko - q - 1) // 2) - _lnfact((ke - q) // 2)
    )
    return sign * math.exp(ln_mag)


def hemi_overlap(k, k_prime, q):
    """Northern-hemisphere overlap of two spherical harmonics of equal order.

    2 * Integral over the upper hemisphere of conj(Y_kq) Y_k'q.  Equal
    degrees give 1; degrees of equal parity (relative to q) give exactly 0;
    mixed parity follows the closed form with factorials and double
    factorials evaluated in the log domain.
    """
    q = abs(int(q))
    if k < 0 or k_prime < 0 or q > min(k, k_prime):
        raise ValueError(f"invalid overlap index (k={k}, k'={k_prime}, q={q})")
    k, k_prime = int(k), int(k_prime)
    if k == k_prime:
        return 1.0
    if (k - q) % 2 == (k_prime - q) % 2:
        return 0.0
    if (k - q) % 2 == 0:
        return _hemi_mixed(k, k_prime, q)
    return _hemi_mixed(k_prime, k, q)


def hemi_overlap_matrix(kmax, q):
    """Matrix of hemispherical overlaps for fixed order q, degrees 0..kmax."""
    q = abs(int(q))
    n = kmax + 1
    out = np.zeros((n, n))
    for k in range(q, n):
        out[k, k] = 1.0
        for kp in range(q, k):
            if (k - q) % 2 != (kp - q) % 2:
                v = hemi_overlap(k, kp, q)
                out[k, kp] = v
                out[kp, k] = v
    return out
