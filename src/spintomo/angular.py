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

__all__ = [
    "check_spin_label",
    "cg_tau_table",
    "legendre_sph_table",
    "rot_elements_axis",
    "pochhammer_half",
    "hemi_overlap",
]

_LNPI = math.log(math.pi)
SQRT_4PI = math.sqrt(4.0 * math.pi)
LABEL_BOUND = 2 ** 63  # doubled spin labels are stored as int64


def _lgamma(x):
    # ln Gamma over an array, one math.lgamma per entry (cumulative sums of
    # logs would drift by about 1e-9 at arguments of a few thousand)
    return np.array([math.lgamma(v) for v in np.asarray(x, dtype=float).tolist()])


def _angles_ok(theta, phi):
    """The angle domain of records, axes and kernels, elementwise: theta in [0, pi]
    and phi finite, exact bounds (x = cos(theta) in [-1, 1] for kernels of x)."""
    return (theta >= 0.0) & (theta <= math.pi) & np.isfinite(phi)


def _check_angles(theta, phi):
    """Raise ValueError for the first (theta, phi) pair outside _angles_ok's domain."""
    if not _angles_ok(theta, phi).all():
        theta, phi = np.broadcast_arrays(theta, phi)
        bad = ~_angles_ok(theta, phi)
        t, p = theta[bad][0], phi[bad][0]
        raise ValueError(f"theta = {t} outside [0, pi]" if not 0.0 <= t <= math.pi
                         else f"phi = {p} is non-finite; phi must be finite")


def _check_cos(x):
    """Raise ValueError unless every x = cos(theta) of the array x lies in [-1, 1]."""
    bad = ~((x >= -1.0) & (x <= 1.0))
    if bad.any():
        raise ValueError(f"x = {x[bad][0]} outside [-1, 1]")


def check_spin_label(two_j, two_m):
    """Validate a doubled (j, m) pair: integers within int64, |m| <= j, same parity."""
    if max(abs(two_j), abs(two_m)) >= LABEL_BOUND:
        raise ValueError(f"spin labels must lie within the int64 range, got ({two_j}, {two_m})")
    # NaN passes the range check; int() would raise its own message for it
    if math.isnan(two_j) or math.isnan(two_m) or two_j != int(two_j) or two_m != int(two_m):
        raise ValueError(f"spin labels must be doubled integers, got ({two_j}, {two_m})")
    if two_j < 0:
        raise ValueError(f"two_j must be non-negative, got {two_j}")
    if abs(two_m) > two_j:
        raise ValueError(f"|two_m| = {abs(two_m)} exceeds two_j = {two_j}")
    if (two_j - two_m) % 2 != 0:
        raise ValueError(f"two_m = {two_m} and two_j = {two_j} have different parity")


@lru_cache(maxsize=8)
def _lgamma_ints(n):
    """ln Gamma(1), ..., ln Gamma(n), one math.lgamma each (cached, read-only)."""
    table = np.array([math.lgamma(v) for v in range(1, n + 1)])
    table.flags.writeable = False
    return table


def _coupling_rows(two_j, q, kmax, depth):
    """The coupling recursion of one order q >= 0, run for a batch of spins side by side.

    Rows are counted from the stretched edge: row d is m1 = j - d.  two_j
    holds the spins (doubled) and depth the deepest row that each needs.
    Returns (c, scale): c[d + 1, s, i] is the raised coupling of spin s at
    row d and degree k = q + i for d <= depth[s] and k <= two_j[s], and
    zero beyond either; c[0] = 0 is the row m1 = j + 1; scale[s, i] lowers
    a raised value again.  _coupling_table states the recursion.  Each
    spin's arithmetic is the same whatever the batch, so a batch of one
    gives the table's bits.
    """
    k = np.arange(q, kmax + 1, dtype=float)
    n = int(depth.max(initial=0))
    # allocated before any arithmetic on the labels: the step factors (ratio, diag) of
    # the rows 0..n-1, then the rows -1..n
    steps = np.empty((n, 2, two_j.size, k.size))
    c = np.empty((n + 2, two_j.size, k.size))
    # the seeds' ln Gamma arguments are the integers 1..2j+kmax+2, so one table serves
    # every spin (2j - k + 1, at degrees k > 2j that no spin reads, takes 1)
    lg = _lgamma_ints(int(two_j.max(initial=0)) + kmax + 2)
    i, tj, j = k.astype(int), two_j[:, None], two_j / 2.0
    ln_seed = 0.5 * (np.log(2.0 * k + 1.0) + lg[tj] + lg[tj - q] + lg[i + q] - lg[tj + i + 1]
                     - lg[np.maximum(tj - i, 0)] - lg[q] - lg[i - q])
    # a seed below e^-700 (k near 2j once 2j > 1000) is raised to it and the
    # row scaled back at the end; |C| <= 1 keeps the raised row finite up to 2j ~ 2000
    shift = np.maximum(0.0, -700.0 - ln_seed)
    c[0] = 0.0
    c[1] = (-1.0) ** q * np.exp(ln_seed + shift) * (k <= tj)
    m1 = j - np.arange(-1.0, n)[:, None]  # the rows -1..n-1, m1 = j - d exactly
    m2 = q - m1
    e = 2.0 * j * (j + 1.0) + 2.0 * m1 * m2
    # a(m1) > 0 on the rows that a spin steps through; past its depth a spin divides
    # by inf, so its steps and rows are zero
    a = np.sqrt(np.maximum((j + m1) * (j - m1 + 1.0) * (j - m2) * (j + m2 + 1.0), 0.0))
    a_live = np.where(np.arange(n)[:, None] < depth, a[1:], np.inf)
    # t(m1-1) = diag t(m1) - ratio t(m1+1), diag = (e - k(k+1)) / a(m1), ratio = a(m1+1) / a(m1)
    steps[:, 0] = (a[:-1] / a_live)[:, :, None]
    np.subtract(e[1:, :, None], k * (k + 1.0), out=steps[:, 1])
    np.divide(steps[:, 1], a_live[:, :, None], out=steps[:, 1])
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(n):  # in place: (ratio, diag) * (t(m1+1), t(m1)), then diag - ratio
            step = steps[d]
            np.multiply(step, c[d:d + 2], out=step)
            np.subtract(step[1], step[0], out=c[d + 2])
    return c, np.exp(-shift)


def _tau_at(two_j, two_m, kmax):
    """tau_k^{j_p,m_p}, k = 0..kmax, at the pairs (two_j[p], two_m[p]): T[k, p].

    One run of the coupling recursion serves every spin of the pairs, each
    as deep as its deepest pair (the row of |m|).  Each entry equals
    cg_tau_table's bit for bit: the row of |m| scaled back, times (-1)^k
    for m < 0, +0 at odd k for m = 0, and +0 for k > 2j_p.
    """
    spins, spin = np.unique(two_j, return_inverse=True)
    row = (two_j - np.abs(two_m)) // 2
    depth = np.zeros(spins.size, dtype=row.dtype)
    np.maximum.at(depth, spin, row)
    c, scale = _coupling_rows(spins, 0, kmax, depth)
    t = c[row + 1, spin]                             # (pairs, k)
    if not np.isfinite(t).all():
        bad = two_j[~np.isfinite(t).all(axis=1)][0]
        raise ValueError(f"coupling recursion at two_j = {bad}, q = 0 leaves the double range")
    k = np.arange(kmax + 1)
    # the scale times 1, 1 and (-1)^k for m = 0, m > 0 and m < 0 (np.sign's -1 reads the last)
    t *= (scale[:, None] * [[1.0], [1.0], [-1.0]] ** k)[spin, np.sign(two_m)]
    t[two_m == 0, 1::2] = 0.0
    t[k > two_j[:, None]] = 0.0
    return t.T


def _coupling_table(two_j, q, kmax):
    """Couplings t_kq^{j,m,m-q} of one order q >= 0, for k = 0..kmax and every m.

    Returns (two_m, T): two_m runs over the projections for which both
    (j, m) and (j, m-q) are valid labels, and T[k, i] is the coupling at
    two_m[i] (rows k < q are zero); kmax <= two_j.  With m2 = q - m1, the
    coefficients C(m1) = <j,m1; j,m2|k,q> obey the J^2 three-term relation
        [k(k+1) - 2j(j+1) - 2 m1 m2] C(m1) = a(m1) C(m1-1) + a(m1+1) C(m1+1),
        a(m1)^2 = (j+m1)(j-m1+1)(j-m2)(j+m2+1),
    run for all k at once by _coupling_rows, whose batch of one spin, run
    down to the centre, this table is.  It is seeded at the stretched edge m1 = j,
    where the Racah sum has the single term
        sqrt((2k+1) (2j)! (2j-q)! (k+q)! / ((2j+k+1)! (2j-k)! q! (k-q)!))
    (in log-Gamma form: it overflows doubles as factorials), and runs
    towards the centre m1 = q/2, the direction in which C grows, so it
    stays stable for j and k in the thousands (full tables are orthogonal
    to 2e-11 at 2j = 2000; from about 2j = 2040 a raised row leaves the
    double range, and then it raises ValueError).  It runs on
    t = (-1)^(j-m1-q) C itself, whose sign alternates with m1; that flips
    the sign of the diagonal term.  The other half follows from
    t(q-m1) = (-1)^(k+q) t(m1), which also gives the exact zeros at the
    centre.
    """
    two_m = np.arange(2 * q - two_j, two_j + 1, 2)
    n, mid = two_m.size, two_m.size // 2
    rows, scale = _coupling_rows(np.array([two_j]), q, kmax, np.array([two_j - q - mid]))
    c = rows[:, 0]  # the stretched edge's zero neighbour, then the edge to the centre
    if not np.isfinite(c).all():
        raise ValueError(f"coupling recursion at two_j = {two_j}, q = {q} leaves the double range")
    t = np.zeros((kmax + 1, n))
    t[q:, mid:] = c[:0:-1].T * scale[0][:, None]
    sign = np.where((np.arange(kmax + 1) + q) % 2 == 0, 1.0, -1.0)[:, None]  # (-1)^(k+q)
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
    The cache serves the users of one spin at a time (the sampler, the
    squeezing scan, moments, coherent_state); the backprojection reads tau
    only at its records' (j, m) pairs (_tau_at), one recursion for all
    their spins, and builds no table.
    """
    check_spin_label(two_j, two_j)
    if not 0 <= kmax <= two_j:
        raise ValueError(f"kmax = {kmax} outside 0..two_j = {two_j}")
    tau = _coupling_table(int(two_j), 0, int(kmax))[1]
    tau.flags.writeable = False
    return tau


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


def _sectoral_seeds(kmax, x):
    """Sectoral seeds S_q^q(x), q = 0..kmax, shape (kmax+1,) + x.shape.

    One running product S_q^q = S_{q-1}^{q-1} (-sqrt((2q+1)/(2q)) s),
    s = sqrt(1 - x^2).
    """
    s = np.sqrt(np.maximum(1.0 - x * x, 0.0))  # np.clip(1 - x^2, 0, None)'s ufunc
    qs = np.arange(1, kmax + 1, dtype=float).reshape((kmax,) + (1,) * x.ndim)
    factors = np.empty((kmax + 1,) + x.shape)
    factors[0] = 1.0 / SQRT_4PI
    factors[1:] = -np.sqrt((2.0 * qs + 1.0) / (2.0 * qs)) * s
    return np.multiply.accumulate(factors, axis=0)


def _sph_rows(x, seeds, out):
    """The rows S_k^q(x), q = 0..k, of the normalized recurrence, k = 0..kmax,
    handed over a block of len(out) rows at a time.

    seeds are the sectoral seeds S_q^q(x).  Row k holds the seed S_k^k,
    the step up S_k^(k-1) = sqrt(2k+1) x S_(k-1)^(k-1) and, for the orders
    q <= k-2, the three-term ladder a_kq (x S_(k-1)^q - b_kq S_(k-2)^q).
    It is written to out[k % len(out), :k+1].  Each time out's slots are
    full, and after row kmax, the generator yields the block's degrees
    (k0, k1): rows k0..k1-1 sit in slots 0..k1-k0-1 until the next block
    overwrites them.  out with kmax+1 slots makes one block, a full table;
    fewer slots (at least three) make blocks of that many rows.  out is
    C-contiguous, and x broadcasts against seeds[q].
    """
    kmax, nslot = len(seeds) - 1, len(out)
    column = (1,) * (out.ndim - 2)  # trailing axes that broadcast a per-order factor
    qs = np.arange(1, kmax + 1, dtype=float).reshape((kmax,) + column)
    ups = np.sqrt(2.0 * qs + 1.0) * x * seeds[:-1]  # the steps up S_k^(k-1), k = 1..kmax
    a, b = _sph_recurrence_coeffs(kmax)
    a, b = a.reshape(a.shape + column), b.reshape(b.shape + column)
    xq = np.empty(out.shape[1:])  # x over the orders, so the ladder's x product broadcasts nothing
    xq[...] = x
    xp = np.empty(out.shape[1:])
    # slot i, order q is entry i (kmax+1) + q of the flattened slots, so the block's
    # edge entries (slot k - k0, order k or k-1) lie kmax+2 apart
    flat, step = out.reshape((-1,) + out.shape[2:]), kmax + 2
    for k0 in range(0, kmax + 1, nslot):
        k1 = min(k0 + nslot, kmax + 1)
        flat[k0:k0 + (k1 - k0) * step:step] = seeds[k0:k1]
        lo = max(k0, 1)
        first = (lo - k0) * step + k0 - 1
        flat[first:first + (k1 - lo) * step:step] = ups[lo - 1:k1 - 1]
        for k in range(max(k0, 2), k1):
            nq = k - 1  # orders 0..k-2, formed in place
            # slots -1 and -2 hold the rows k0-1 and k0-2 of the block before
            row, prev, prev2 = out[k - k0], out[k - k0 - 1], out[k - k0 - 2]
            ladder, xpk = row[:nq], xp[:nq]
            np.multiply(xq[:nq], prev[:nq], out=xpk)
            np.multiply(b[k, :nq], prev2[:nq], out=ladder)
            np.subtract(xpk, ladder, out=ladder)
            np.multiply(a[k, :nq], ladder, out=ladder)
        yield k0, k1


def legendre_sph_table(kmax, x):
    """Theta-part of the orthonormal spherical harmonics, S_k^q(x).

    Y_kq(theta, phi) = S_k^q(cos theta) e^(i q phi) for q >= 0, with the
    Condon-Shortley phase folded into S.  Fully normalized recurrence
    (plain P_k^q overflows near k ~ 150; this form is good to k of a few
    thousand).  x may have any shape, within [-1, 1]; returns (kmax+1,
    kmax+1) + x.shape with entries for q > k left at zero.
    """
    x = np.asarray(x, dtype=float)
    _check_cos(x)
    out = np.zeros((kmax + 1, kmax + 1) + x.shape)
    for _ in _sph_rows(x, _sectoral_seeds(kmax, x), out):
        pass  # one block: every row in its own slot of out
    return out


def _mirror_negative_q(coeffs, kmax):
    # fill the q < 0 half from the q > 0 half, rho_{k,-q} = (-1)^q conj(rho_kq),
    # so the invariant holds bitwise
    if kmax == 0:
        return
    q = np.arange(1, kmax + 1)
    sign = np.where(q % 2 == 0, 1.0, -1.0)
    coeffs[:, kmax - 1::-1] = sign[None, :] * np.conj(coeffs[:, kmax + 1:])


def _from_half(half):
    """The (kmax+1, 2*kmax+1) array, q = column - kmax, of a (kmax+1, kmax+1) q >= 0
    half: half[k, q] for 0 <= q <= k, its mirror (-1)^q conj(half[k, q]) at -q, and +0
    elsewhere.  Halves that agree for q <= k thus give the same array bit for bit;
    every state and the rotation elements are built from their q >= 0 half here."""
    kmax = len(half) - 1
    out = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    out[:, kmax:] = np.tril(half)  # q > k set to +0
    _mirror_negative_q(out, kmax)
    return out


def rot_elements_axis(kmax, theta, phi):
    """Rotation elements D^k_{q0}(phi, theta, 0) for all k <= kmax, |q| <= k.

    theta in [0, pi] and phi finite.  Returns a complex array of shape
    (kmax+1, 2*kmax+1) with q = column - kmax.  D^k_{q0}(phi, theta, 0) =
    sqrt(4 pi / (2k+1)) conj(Y_kq(theta, phi)); the q < 0 half mirrors the
    q > 0 half exactly, so consumers can rely on the conjugation symmetry
    holding bitwise.
    """
    _check_angles(theta, phi)
    S = legendre_sph_table(kmax, float(np.cos(theta)))
    k = np.arange(kmax + 1, dtype=float)
    scale = np.sqrt(4.0 * math.pi / (2.0 * k + 1.0))
    q = np.arange(kmax + 1)
    return _from_half(scale[:, None] * S * np.exp(-1j * q[None, :] * phi))


def pochhammer_half(a):
    """Half-step Pochhammer symbol (a)_(1/2) = Gamma(a + 1/2) / Gamma(a), elementwise.

    A float for a scalar a, else an array of a's shape.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a <= 0.0):
        raise ValueError(f"pochhammer_half requires a > 0, got {a[a <= 0.0][0]}")
    out = np.array([math.exp(math.lgamma(v + 0.5) - math.lgamma(v)) for v in a.ravel().tolist()])
    return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)


def hemi_overlap(k, k_prime, q):
    """Northern-hemisphere overlap of two spherical harmonics of equal order.

    2 * Integral over the upper hemisphere of conj(Y_kq) Y_k'q; one entry
    of the fold's builder :func:`_hemi_overlap_orders`.
    """
    q = abs(int(q))
    if k < 0 or k_prime < 0 or q > min(k, k_prime):
        raise ValueError(f"invalid overlap index (k={k}, k'={k_prime}, q={q})")
    k, k_prime = int(k), int(k_prime)
    return float(_hemi_overlap_orders(max(k, k_prime), q, q + 1)[0, k - q, k_prime - q])


def _hemi_overlap_orders(kmax, q0, q1):
    """Hemispherical overlap matrices of the orders q0..q1-1 over the degrees q0..kmax.

    out[i, k - q0, l - q0] is entry (k, l) of the order q0 + i, shape
    (q1 - q0, kmax + 1 - q0, kmax + 1 - q0); entries whose degrees lie
    below their order are zeros.  Equal degrees give 1 and degrees of
    equal parity (relative to q) give exactly 0.  For ke - q even and
    ko - q odd the factorial closed form, its odd double factorials
    written as n!! = (n+1)! / (2^((n+1)/2) ((n+1)/2)!), collapses to
    central binomials c(n) = C(n, n/2) / 2^n:
        s sqrt((2ke+1) c(ke+q) c(ke-q) (2ko+1) (ko+q+1) (ko-q) c(ko+q+1) c(ko-q-1))
          / (|ke-ko| (ke+ko+1)),
    s = (-1)^floor((ke-ko-1)/2) sign(ke-ko).  This is the one place the
    closed form is evaluated: one log-Gamma vector, ln c(2i) =
    ln Gamma(i+1/2) - ln Gamma(i+1) - ln(pi)/2, serves every order of a
    chunk.  Each mixed entry is the product of a row factor and a column
    factor, and its degree of even parity (relative to q) takes the row
    factor, so one half-log per (q, k) serves both mixed blocks.
    """
    i = np.arange(kmax + 1)
    ln_c = _lgamma(i + 0.5) - _lgamma(i + 1.0) - 0.5 * _LNPI    # ln c(2i)
    q = np.arange(q0, q1)[:, None]
    k = np.arange(q0, kmax + 1)[None, :]
    below = k < q
    odd = (k - q) % 2
    # the row factor for k - q even, the column factor for k - q odd
    arg = np.where(odd == 1, (2.0 * k + 1.0) * (k + q + 1.0) * (k - q), 2.0 * k + 1.0)
    a, b = (k + q + odd) // 2, np.where(below, 0, (k - q - odd) // 2)
    half = 0.5 * (np.log(np.where(below, 1.0, arg)) + ln_c[a] + ln_c[b])    # half-logs
    half[below] = -np.inf                                      # exp gives exact zeros
    d = np.abs(k.T - k)                                        # |ke - ko| over (k, l)
    # (-1)^floor((ke-ko-1)/2) sign(ke-ko) depends on |ke - ko| alone; even d is not mixed
    sign = np.where(d % 2 == 0, 0.0, np.where(d % 4 == 1, 1.0, -1.0))
    denom = np.where(d % 2 == 0, 1.0, d * (k.T + k + 1.0))
    out = half[:, :, None] + half[:, None, :]
    np.exp(out, out=out)
    out *= sign
    out /= denom
    out += 0.0                                    # masked entries times -1 are -0.0: make them +0.0
    size = kmax + 1 - q0
    out.reshape(q.size, size * size)[:, :: size + 1] = ~below  # the diagonal from q on
    return out
