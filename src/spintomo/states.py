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

import numpy as np

from .angular import (
    _coupling_table,
    _mirror_negative_q,
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
    "grid_theta_weights",
    "sphere_integral",
    "spin_expectation_from_grid",
]

DESK_SCALE_LIMIT = 2000  # paths that allocate a (2j+1)^2 matrix: 64 MB at the limit
_CHUNK_BUDGET = 2.0e6  # array elements per axis chunk of the partial-wave kernel


@dataclass(frozen=True)
class SphericalState:
    """Partial-wave coefficients rho_kq of a spin state's Wigner function.

    ``coeffs[k, kmax + q]`` holds rho_kq for 0 <= k <= kmax, |q| <= k;
    entries outside |q| <= k are zero.  ``two_j_ref`` is the reference
    total spin (doubled) used wherever j-dependent prefactors are needed;
    ``kmax`` records the truncation and every consumer must respect it.
    States are immutable and Hermitian by construction: the constructor
    runs :meth:`validate`, so W is real and evaluators read only q >= 0.
    """

    two_j_ref: int
    kmax: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        check_spin_label(self.two_j_ref, self.two_j_ref % 2)
        if not 0 <= self.kmax <= self.two_j_ref:
            raise ValueError(f"kmax = {self.kmax} outside 0..two_j_ref = {self.two_j_ref}")
        coeffs = np.asarray(self.coeffs, dtype=complex)
        if coeffs.shape != (self.kmax + 1, 2 * self.kmax + 1):
            raise ValueError(f"coefficient array has shape {coeffs.shape}, "
                             f"expected {(self.kmax + 1, 2 * self.kmax + 1)}")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficient array contains non-finite entries")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        self.validate()

    def coeff(self, k, q):
        """Single coefficient rho_kq."""
        if not (0 <= k <= self.kmax and abs(q) <= k):
            raise ValueError(f"(k={k}, q={q}) outside the stored range")
        return complex(self.coeffs[k, self.kmax + q])

    def validate(self, tol=1e-10):
        """Check the reality invariant rho_{k,-q} = (-1)^q conj(rho_kq).

        That is, the q < 0 half mirrors the q > 0 half and every rho_k0 is
        real, within tol * max(1, max |rho_kq|); entries outside |q| <= k
        must be zero.  Runs on construction with the default tol.
        """
        scale = max(1.0, float(np.abs(self.coeffs).max(initial=0.0)))
        imag = np.abs(self.coeffs[:, self.kmax].imag).max()
        if imag > tol * scale:
            raise ValueError(f"rho_k0 is not real: imaginary part {imag:.3g}")
        mirrored = self.coeffs.copy()
        _mirror_negative_q(mirrored, self.kmax)
        err = np.abs(self.coeffs - mirrored).max()
        if err > tol * scale:
            raise ValueError(f"reality invariant violated by {err:.3g}")
        k = np.arange(self.kmax + 1)[:, None]
        qq = np.abs(np.arange(-self.kmax, self.kmax + 1))[None, :]
        if np.abs(np.where(qq > k, self.coeffs, 0.0)).max(initial=0.0) > 0.0:
            raise ValueError("nonzero coefficient outside |q| <= k")


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
        scale = max(1.0, float(np.abs(mat).max(initial=0.0)))
        if np.abs(mat - mat.conj().T).max(initial=0.0) > 1e-10 * scale:
            raise ValueError("Dicke matrix is not Hermitian")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @property
    def trace(self):
        return float(np.trace(self.matrix).real)

    def m_values(self):
        """Doubled projections for the matrix rows, ascending."""
        return np.arange(-self.two_j, self.two_j + 1, 2)


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
    coeffs = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    for q in range(kmax + 1):
        two_m, t = _coupling_table(two_j, q, kmax)
        i = (two_m + two_j) // 2
        coeffs[:, kmax + q] = t @ d.matrix[i, i - q]
    coeffs[:, kmax] = coeffs[:, kmax].real  # the diagonal of a Hermitian matrix
    _mirror_negative_q(coeffs, kmax)
    return SphericalState(two_j, kmax, coeffs)


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


def _wave_sums(s, theta, phi, kuse):
    """z[n, k] = sum_q conj(D^k_q0(phi_n, theta_n, 0)) rho_kq for k <= kuse.

    theta and phi broadcast to n points, flattened; returns a real
    (n, kuse+1) array.  Since D^k_q0 = sqrt(4 pi / (2k+1)) conj(Y_kq), this
    is the partial-wave sum behind the Wigner function and the projection
    probabilities.  The state is Hermitian, so the q < 0 terms are the
    conjugates of the q > 0 ones and only the q >= 0 half is read.  Per
    chunk of points: one Legendre table over cos(theta) and one contraction
    with the state's (k, q) block.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    theta, phi = theta.ravel(), phi.ravel()
    bad = ~((theta >= 0.0) & (theta <= math.pi + 1e-12))
    if bad.any():
        raise ValueError(f"theta = {theta[bad][0]} outside [0, pi]")
    # z_k = sqrt(4 pi / (2k+1)) sum_{q >= 0} w_q S_kq(cos theta) (Re rho_kq cos(q phi) - Im rho_kq sin(q phi))
    # with w_0 = 1 and w_q = 2 for q > 0
    q = np.arange(kuse + 1)
    norm = np.sqrt(4.0 * math.pi / (2.0 * q + 1.0))[:, None]     # over k
    c = norm * np.where(q > 0, 2.0, 1.0) * s.coeffs[: kuse + 1, s.kmax: s.kmax + kuse + 1]
    a, b = c.real[:, None, :], -c.imag[:, None, :]             # (k, 1, q)
    out = np.empty((theta.size, kuse + 1))
    chunk = max(1, int(_CHUNK_BUDGET / (kuse + 1) ** 2))
    for lo in range(0, theta.size, chunk):
        sl = slice(lo, lo + chunk)
        S = legendre_sph_table(kuse, np.cos(theta[sl]))          # (k, q, points)
        qphi = q[:, None] * phi[sl]
        out[sl] = (a @ (S * np.cos(qphi)) + b @ (S * np.sin(qphi)))[:, 0].T
    return out


def wigner_eval(s, theta, phi):
    """Wigner function W(theta, phi) of a partial-wave state.

    Accepts scalars or broadcastable arrays; theta must lie in [0, pi].
    W is the real partial-wave sum over q >= 0 of the Hermitian state.
    """
    shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
    k = np.arange(s.kmax + 1)
    w = (_wave_sums(s, theta, phi, s.kmax) @ np.sqrt((2.0 * k + 1.0) / (4.0 * math.pi))).reshape(shape)
    return float(w) if w.ndim == 0 else w


def _grid_axes(n_theta, n_phi):
    theta = (np.arange(n_theta) + 0.5) * math.pi / n_theta
    phi = (np.arange(n_phi) + 0.5) * 2.0 * math.pi / n_phi
    return theta, phi


def wigner_grid(s, n_theta, n_phi):
    """Sample W on an n_theta x n_phi cell-center grid.

    Associated-Legendre tables are shared across each latitude row, so the
    cost is O(n_theta * (kmax^2 + kmax * n_phi)).
    """
    if n_theta < 2 or n_phi < 2:
        raise ValueError("grid dimensions must be at least 2")
    kmax = s.kmax
    theta, phi = _grid_axes(n_theta, n_phi)
    q = np.arange(kmax + 1)
    S = legendre_sph_table(kmax, np.cos(theta))               # (K+1, K+1, nt)
    # W = sum_{q >= 0} w_q Re(z_q e^{iq phi}), w_0 = 1 and w_q = 2 for q > 0
    z = np.einsum("kq,kqt->tq", s.coeffs[:, kmax:] * np.where(q > 0, 2.0, 1.0), S)
    qphi = q[:, None] * phi[None, :]
    return WignerGrid(theta, phi, z.real @ np.cos(qphi) - z.imag @ np.sin(qphi))


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
    """Integral of the gridded function over the full sphere."""
    w_theta = grid_theta_weights(grid.theta.size)
    return float(w_theta @ grid.values.sum(axis=1)) * 2.0 * math.pi / grid.phi.size


def spin_expectation_from_grid(grid, two_j):
    """Angular-momentum vector <S> from the Wigner function's center of mass.

    Returns (Sx, Sy, Sz) in units of hbar, using the proportionality of
    <S> to the first moment of W over the sphere.
    """
    check_spin_label(two_j, two_j % 2)
    j = two_j / 2.0
    pref = math.sqrt(j * (j + 1.0) * (two_j + 1.0) / (4.0 * math.pi))
    w_theta = grid_theta_weights(grid.theta.size)
    dphi = 2.0 * math.pi / grid.phi.size
    sin_t = np.sin(grid.theta)
    cos_t = np.cos(grid.theta)
    row = grid.values * (w_theta)[:, None] * dphi
    sx = float(np.sum(row * np.outer(sin_t, np.cos(grid.phi))))
    sy = float(np.sum(row * np.outer(sin_t, np.sin(grid.phi))))
    sz = float(np.sum(row * cos_t[:, None]))
    return pref * np.array([sx, sy, sz])


def _number_damping(two_j, sigma_n, kmax):
    # exp(-sigma_N^2 k(k+1) / (2j(2j-1))) as a per-k vector
    k = np.arange(kmax + 1, dtype=float)
    if sigma_n == 0.0:
        return np.ones(kmax + 1)
    if two_j < 2:
        raise ValueError("number-noise damping undefined for two_j < 2")
    return np.exp(-sigma_n ** 2 * k * (k + 1.0) / (two_j * (two_j - 1.0)))


def coherent_state(two_j, theta0, phi0, sigma_n=0.0, kmax=None):
    """Coherent spin state pointing along (theta0, phi0).

    With sigma_n > 0 the coefficients carry the number-noise damping of an
    imaging-noise-broadened coherent state.  The pole-form coefficients
    tau_k^{j,j} are rotated to the requested axis with the k-order
    rotation elements.
    """
    check_spin_label(two_j, two_j)
    if sigma_n < 0.0:
        raise ValueError("sigma_n must be non-negative")
    if kmax is None:
        kmax = two_j
    tau = cg_tau_table(two_j, kmax)
    pole = tau[:, two_j] * _number_damping(two_j, sigma_n, kmax)
    D = rot_elements_axis(kmax, theta0, phi0)
    coeffs = D * pole[:, None]
    return SphericalState(two_j, kmax, coeffs)


def dicke_basis_state(two_j, two_m, kmax):
    """Pure Dicke state |j, m><j, m| as partial waves (q = 0 only)."""
    check_spin_label(two_j, two_m)
    tau = cg_tau_table(two_j, kmax)
    coeffs = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    coeffs[:, kmax] = tau[:, (two_m + two_j) // 2]
    return SphericalState(two_j, kmax, coeffs)


def maximally_mixed_state(two_j, kmax=0):
    """Isotropic state: rho_00 = (2j+1)^(-1/2), all higher waves zero."""
    check_spin_label(two_j, two_j % 2)
    coeffs = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    coeffs[0, kmax] = 1.0 / math.sqrt(two_j + 1.0)
    return SphericalState(two_j, kmax, coeffs)


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
