"""Spin-state representations and conversions.

A state enters the pipeline either as a Dicke-basis density matrix
(a dense (2j+1)^2 array) or as the complex partial-wave coefficients
rho_kq that define its Wigner function on the Bloch sphere.  This module
holds both containers, the exact conversions between them, generators for
reference states, and Wigner-function evaluation on points and grids.  The
point evaluation runs on the partial-wave kernel (sum over q of Y_kq rho_kq
for each k) that the forward model and the analysis also use.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .angular import (
    _check_angles,
    _coupling_table,
    _from_half,
    _mirror_negative_q,
    _sectoral_seeds,
    _sph_rows,
    cg_tau_table,
    check_spin_label,
    legendre_sph_table,
    rot_elements_axis,
)

__all__ = [
    "SphericalState",
    "DickeState",
    "WignerGrid",
    "dicke_to_spherical",
    "spherical_to_dicke",
    "wigner_eval",
    "wigner_grid",
    "coherent_state",
    "dicke_basis_state",
    "maximally_mixed_state",
    "oat_squeezed_state",
]

DESK_SCALE_LIMIT = 2000  # paths that allocate a (2j+1)^2 matrix: 64 MB at the limit
_CHUNK_BUDGET = 2.0e6  # array elements per chunk of a batched kernel or draw
_ROW_BLOCK = 8  # Legendre rows of scattered points contracted at once


def _tolerance(x):
    """1e-10 * max(1, largest |Re| or |Im| of x); |x| can overflow to inf."""
    return 1e-10 * max(1.0, np.abs(x.real).max(initial=0.0), np.abs(x.imag).max(initial=0.0))


@dataclass(frozen=True)
class SphericalState:
    """Partial-wave coefficients rho_kq of a spin state's Wigner function.

    ``coeffs[k, kmax + q]`` holds rho_kq for 0 <= k <= kmax, |q| <= k;
    entries outside |q| <= k are zero.  ``two_j_ref`` is the reference
    total spin (doubled) used wherever j-dependent prefactors are needed;
    ``kmax`` records the truncation and every consumer must respect it.
    States are immutable and Hermitian by construction: the constructor
    checks the reality invariant rho_{k,-q} = (-1)^q conj(rho_kq), so W is
    real and evaluators read only q >= 0.  Every producer in the package
    builds its array from the q >= 0 half with ``angular._from_half``.
    """

    two_j_ref: int
    kmax: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_spin_label(self.two_j_ref, self.two_j_ref % 2)
        if not 0 <= self.kmax <= self.two_j_ref:
            raise ValueError(f"kmax = {self.kmax} outside 0..two_j_ref = {self.two_j_ref}")
        coeffs = np.array(self.coeffs, dtype=complex)  # a copy, made read-only below
        if coeffs.shape != (self.kmax + 1, 2 * self.kmax + 1):
            raise ValueError(f"coefficient array has shape {coeffs.shape}, "
                             f"expected {(self.kmax + 1, 2 * self.kmax + 1)}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficient array contains non-finite entries")
        # the q < 0 half mirrors the q > 0 half and every rho_k0 is real, within
        # the tolerance; entries outside |q| <= k are zero
        tol = _tolerance(coeffs)
        imag = np.abs(coeffs[:, self.kmax].imag).max()
        if imag > tol:
            raise ValueError(f"rho_k0 is not real: imaginary part {imag:.3g}")
        mirrored = coeffs.copy()
        _mirror_negative_q(mirrored, self.kmax)
        err = np.abs(coeffs - mirrored).max()
        if err > tol:
            raise ValueError(f"reality invariant violated by {err:.3g}")
        k = np.arange(self.kmax + 1)[:, None]
        qq = np.abs(np.arange(-self.kmax, self.kmax + 1))[None, :]
        if np.abs(np.where(qq > k, coeffs, 0.0)).max(initial=0.0) > 0.0:
            raise ValueError("nonzero coefficient outside |q| <= k")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class DickeState:
    """Density matrix rho_mm' in the Dicke basis |j, m>.

    ``matrix[i, i']`` is rho_mm' with two_m = 2*i - two_j (m ascending).
    Hermiticity is required; positivity is deliberately not enforced,
    since backprojection output need not be positive semi-definite.
    """

    two_j: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_spin_label(self.two_j, self.two_j % 2)
        mat = np.asarray(self.matrix, dtype=complex)
        dim = self.two_j + 1
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected {(dim, dim)}")
        if not np.all(np.isfinite(mat)):
            raise ValueError("Dicke matrix contains non-finite entries")
        if np.abs(mat - mat.conj().T).max(initial=0.0) > _tolerance(mat):
            raise ValueError("Dicke matrix is not Hermitian")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class WignerGrid:
    """Sampled W(theta, phi) on a latitude-longitude grid.

    Nodes sit at cell centers of [0, pi] x [0, 2 pi), so the poles are
    never sampled and quadrature weights need no special-casing there.
    """

    theta: np.ndarray
    phi: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if theta.size < 2 or phi.size < 2:
            raise ValueError("grid dimensions must be at least 2")
        if values.shape != (theta.size, phi.size):
            raise ValueError(f"values shape {values.shape} does not match grid "
                             f"{(theta.size, phi.size)}")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid contains non-finite values")
        for name, arr in (("theta", theta), ("phi", phi), ("values", values)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def dicke_to_spherical(d, kmax):
    """Partial-wave coefficients of a Dicke-basis density matrix.

    Exact inverse of :func:`spherical_to_dicke` when kmax = two_j.  One
    coupling table and one matrix product per order q >= 0; the caller holds
    the matrix already, so only the coupling recursion's range bounds two_j.
    """
    two_j = d.two_j
    if not 0 <= kmax <= two_j:
        raise ValueError(f"kmax = {kmax} outside 0..two_j = {two_j}")
    half = np.zeros((kmax + 1, kmax + 1), dtype=complex)
    for q in range(kmax + 1):
        two_m, t = _coupling_table(two_j, q, kmax)
        i = (two_m + two_j) // 2
        half[:, q] = t @ d.matrix[i, i - q]
    half[:, 0] = half[:, 0].real  # the diagonal of a Hermitian matrix
    return SphericalState(two_j, kmax, _from_half(half))


def spherical_to_dicke(s):
    """Dicke-basis density matrix of a partial-wave state.

    One coupling table and one matrix product per order q >= 0 give
    rho_{m,m-q}, and rho_{m-q,m} is its conjugate.  Allocates the matrix,
    so two_j_ref is capped at DESK_SCALE_LIMIT.
    """
    two_j, kmax = s.two_j_ref, s.kmax
    if two_j > DESK_SCALE_LIMIT:
        raise ValueError(f"two_j_ref = {two_j} beyond the Dicke-matrix limit ({DESK_SCALE_LIMIT})")
    mat = np.zeros((two_j + 1, two_j + 1), dtype=complex)
    for q in range(kmax + 1):
        two_m, t = _coupling_table(two_j, q, kmax)
        i = (two_m + two_j) // 2
        row = s.coeffs[:, kmax + q] @ t
        mat[i - q, i] = row.conj()
        mat[i, i - q] = row if q else row.real
    return DickeState(two_j, mat)


def _chunks(n, per_item):
    """Slices over n items, at most _CHUNK_BUDGET // per_item items each (at least one)."""
    step = max(1, int(_CHUNK_BUDGET // per_item))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


@lru_cache(maxsize=16)
def _polar_table(kuse, x):
    """S_k^q(x) of one polar angle, x = cos(theta), for k <= kuse (cached, read-only)."""
    S = legendre_sph_table(kuse, x)
    S.flags.writeable = False
    return S


def _wave_sums(s, theta, phi, kuse, damp=None):
    """z[n, k] = sum_q conj(D^k_q0(phi_n, theta_n, 0)) rho_kq d_nq for k <= kuse.

    theta and phi broadcast to n points, flattened, in the angle domain (theta in [0, pi],
    phi finite); returns a real (n, kuse+1) array.  d_nq is damp, an optional (n, kuse+1)
    array (the azimuth noise), or 1 without it.  Since D^k_q0 = sqrt(4 pi / (2k+1))
    conj(Y_kq), this is the partial-wave sum behind the Wigner function and the projection
    probabilities.  The state is Hermitian, so the q < 0 terms are the conjugates of the
    q > 0 ones and only the q >= 0 half is read:
        z_k = sum_q S_k^q(cos theta) d_q (Re c_kq cos q phi - Im c_kq sin q phi),
    c_kq = sqrt(4 pi / (2k+1)) w_q rho_kq, w_0 = 1 and w_q = 2 for q > 0.

    The points' layout picks the route.  When all points share one polar
    angle (the squeezing scan, equatorial axes, a scalar theta), the (k, q)
    table of that angle comes from a small cache keyed by (kuse, cos
    theta), and each point costs one product of its phases with the (k, q)
    block c S.  Scattered points (wigner_eval, axes over the sphere) run
    one Legendre ladder per chunk, and every _ROW_BLOCK rows, as they are
    made, are contracted with their c_k and the points' phases e^(i q phi)
    (a running product), so no (k, q, points) table exists.  A chunk holds at most
    _CHUNK_BUDGET // (16 (kuse+1)) points, which keeps its arrays near
    _CHUNK_BUDGET numbers.  Each point's sums run in the same order
    whatever the chunking, so the result does not depend on _CHUNK_BUDGET.
    """
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    if theta.ndim != 1 or theta.shape != phi.shape:  # 1-D angles of one shape pass as they are
        theta, phi = (a.ravel() for a in np.broadcast_arrays(theta, phi))
    _check_angles(theta, phi)
    q = np.arange(kuse + 1)
    norm = np.sqrt(4.0 * math.pi / (2.0 * q + 1.0))[:, None]     # over k
    c = norm * np.where(q > 0, 2.0, 1.0) * s.coeffs[: kuse + 1, s.kmax: s.kmax + kuse + 1]
    out = np.empty((theta.size, kuse + 1))
    chunks = _chunks(theta.size, 16 * (kuse + 1))
    if theta.size and np.all(theta == theta[0]):
        cs = c * _polar_table(kuse, float(np.cos(theta[0])))
        w = np.concatenate([cs.real.T, -cs.imag.T])                # (cos q, sin q; k)
        for sl in chunks:
            qphi = phi[sl, None] * q
            phases = np.concatenate([np.cos(qphi), np.sin(qphi)], axis=1)
            if damp is not None:  # the same factor on the cos and the sin of order q
                phases *= np.concatenate([damp[sl], damp[sl]], axis=1)
            # one vector product per point, so the chunking changes no bit
            out[sl] = (phases[:, None, :] @ w)[:, 0]
        return out
    c = np.conj(c).view(float).reshape(c.shape + (2,))               # (k, q, re/im)
    for sl in chunks:
        x = np.cos(theta[sl])
        cis = np.empty((kuse + 1, x.size), dtype=complex)           # e^(i q phi), a running product
        cis[0], cis[1:] = 1.0, np.exp(1j * phi[sl])
        cis = np.multiply.accumulate(cis, axis=0)
        phases = np.empty((kuse + 1, 2, x.size))                   # (q, re/im, points)
        phases[:, 0], phases[:, 1] = cis.real, cis.imag
        if damp is not None:
            phases *= damp[sl].T[:, None]
        rows = np.zeros((_ROW_BLOCK, kuse + 1, x.size))
        z = np.empty((kuse + 1, 2, x.size))
        # rows k0..k1-1, zero past each row's end as c is; numpy's own loop (no
        # BLAS) keeps the sum over q outside, so each point's sums run in q order
        # whatever the chunk
        for k0, k1 in _sph_rows(x, _sectoral_seeds(kuse, x), rows):
            np.einsum("kqn,qrn,kqr->krn", rows[:k1 - k0, :k1], phases[:k1],
                      c[k0:k1, :k1], out=z[k0:k1])
        out[sl] = (z[:, 0] + z[:, 1]).T
    return out


def wigner_eval(s, theta, phi):
    """Wigner function W(theta, phi) of a partial-wave state.

    Accepts scalars or broadcastable arrays; theta must lie in [0, pi] and
    phi must be finite.
    W is the real partial-wave sum over q >= 0 of the Hermitian state.
    """
    shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
    k = np.arange(s.kmax + 1)
    w = (_wave_sums(s, theta, phi, s.kmax) @ np.sqrt((2.0 * k + 1.0) / (4.0 * math.pi))).reshape(shape)
    return float(w) if w.ndim == 0 else w


def wigner_grid(s, n_theta, n_phi):
    """Sample W on an n_theta x n_phi cell-center grid.

    Associated-Legendre tables are shared across each latitude row, so the
    cost is O(n_theta * (kmax^2 + kmax * n_phi)).  Sizes are integers >= 2 (else ValueError).
    """
    if not all(isinstance(n, (int, np.integer)) and n >= 2 for n in (n_theta, n_phi)):
        raise ValueError(f"grid dimensions must be integers >= 2, got {n_theta!r}, {n_phi!r}")
    kmax = s.kmax
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phi = (np.arange(n_phi) + 0.5) * 2.0 * math.pi / n_phi
    q = np.arange(kmax + 1)
    S = legendre_sph_table(kmax, np.cos(theta))               # (K+1, K+1, nt)
    # W = sum_{q >= 0} w_q Re(z_q e^{iq phi}), w_0 = 1 and w_q = 2 for q > 0
    z = np.einsum("kq,kqt->tq", s.coeffs[:, kmax:] * np.where(q > 0, 2.0, 1.0), S)
    qphi = q[:, None] * phi[None, :]
    return WignerGrid(theta, phi, z.real @ np.cos(qphi) - z.imag @ np.sin(qphi))


def _check_noise(name, value):
    """Reject a noise parameter that is not finite and non-negative, with a finite square."""
    # every use squares the parameter, so its square must be a finite double
    if not (value >= 0.0 and math.isfinite(value * value)):
        raise ValueError(
            f"{name} must be finite and non-negative, with a finite square, got {value}")


def _damping_alpha(two_j, sigma_n, sigma_omega):
    """alpha = sigma_omega^2 / 4 + sigma_n^2 / (2j (2j - 1)) of the noise damping.

    Atom-number noise sigma_n and axis pointing noise sigma_omega damp the
    partial wave k of a spin-j record by exp(-alpha k(k+1)).
    """
    _check_noise("sigma_n", sigma_n)
    _check_noise("sigma_omega", sigma_omega)
    alpha = 0.25 * sigma_omega ** 2
    if sigma_n > 0.0:
        if two_j < 2:
            raise ValueError("number-noise damping undefined for two_j < 2")
        alpha += sigma_n ** 2 / (two_j * (two_j - 1.0))
    return alpha


def _damping(two_j, kmax, sigma_n, sigma_omega=0.0):
    """Noise damping exp(-alpha k(k+1)) for k = 0..kmax (alpha from _damping_alpha)."""
    k = np.arange(kmax + 1, dtype=float)
    # k = 0 is never damped, so a record of any spin that reaches k = 0 alone has factor 1
    alpha = _damping_alpha(two_j if kmax else 2, sigma_n, sigma_omega)
    return np.exp(-alpha * k * (k + 1.0))


def coherent_state(two_j, theta0, phi0, sigma_n=0.0, kmax=None):
    """Coherent spin state pointing along (theta0, phi0).

    With sigma_n > 0 the coefficients carry the number-noise damping of an
    imaging-noise-broadened coherent state.  The pole-form coefficients
    tau_k^{j,j} are rotated to the requested axis with the k-order
    rotation elements.
    """
    check_spin_label(two_j, two_j)
    if kmax is None:
        kmax = two_j
    tau = cg_tau_table(two_j, kmax)
    pole = tau[:, two_j] * _damping(two_j, kmax, sigma_n)
    D = rot_elements_axis(kmax, theta0, phi0)
    return SphericalState(two_j, kmax, _from_half(D[:, kmax:] * pole[:, None]))


def dicke_basis_state(two_j, two_m, kmax):
    """Pure Dicke state |j, m><j, m| as partial waves (q = 0 only)."""
    check_spin_label(two_j, two_m)
    tau = cg_tau_table(two_j, kmax)
    half = np.zeros((kmax + 1, kmax + 1))
    half[:, 0] = tau[:, (two_m + two_j) // 2]
    return SphericalState(two_j, kmax, _from_half(half))


def maximally_mixed_state(two_j, kmax=0):
    """Isotropic state: rho_00 = (2j+1)^(-1/2), all higher waves zero."""
    check_spin_label(two_j, two_j % 2)
    half = np.zeros((kmax + 1, kmax + 1))
    half[0, 0] = 1.0 / math.sqrt(two_j + 1.0)
    return SphericalState(two_j, kmax, _from_half(half))


def oat_squeezed_state(two_j, chi, kmax):
    """One-axis-twisted state exp(-i chi Jx^2)|j, j>, mean spin along +z.

    That is the coherent state along +x twisted by exp(-i chi Jz^2) and
    rotated back; chi = 0 gives the coherent state at the pole.  With the
    real Jx = V diag(w) V^T, psi = V (e^{-i chi w^2} * V^T|j, j>).  Holds
    the density matrix, so two_j is capped at DESK_SCALE_LIMIT.
    """
    check_spin_label(two_j, two_j)
    if two_j > DESK_SCALE_LIMIT:
        raise ValueError(f"OAT generator holds a (2j+1)^2 matrix (two_j <= {DESK_SCALE_LIMIT})")
    j = two_j / 2.0
    m = np.arange(two_j) - j
    half_amp = 0.5 * np.sqrt(j * (j + 1.0) - m * (m + 1.0))  # <m+1|Jx|m>, m = -j .. j-1
    w, v = np.linalg.eigh(np.diag(half_amp, 1) + np.diag(half_amp, -1))
    psi = v @ (np.exp(-1j * chi * w * w) * v[two_j])
    rho = np.outer(psi, psi.conj())
    return dicke_to_spherical(DickeState(two_j, rho), kmax)
