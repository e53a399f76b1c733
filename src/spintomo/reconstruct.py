"""Filtered backprojection of partial-wave coefficients from records.

The full-sphere and in-plane (single great circle of quantization axes)
reconstructions run one backprojection core.  It groups the records by
quantization axis, sums each axis's weighted, noise-damped coupling
coefficients into A[k, axis] (one histogram and one matrix product per
distinct spin), contracts A once with the angular kernel of the
geometry, and applies the geometry's filter: (2k+1) on the sphere, the
Pochhammer product on the equator.  Axes are unoriented: a record taken
along the antipode of an axis is the same measurement with m -> -m, and
two directions within ``_AXIS_TOL`` radians are one axis.

The module also homogenizes measurement weights, folds even-parity
reconstructions onto the northern hemisphere for states known to live
there, and gives the single-measurement contribution Xi_{jm}(cos eta).
W itself comes from the coefficients (states.wigner_eval, wigner_grid):
the backprojection is the package's one route from records to W.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .angular import (
    SQRT_4PI,
    _check_cos,
    _from_half,
    _hemi_overlap_orders,
    cg_tau_table,
    check_spin_label,
    legendre_sph_table,
    pochhammer_half,
)
from .forward import NoiseModel, Records, _order_damping
from .states import SphericalState, _chunks, _damping, _damping_alpha, _polar_table

__all__ = [
    "ReconstructionConfig",
    "compute_weights",
    "fbp_full",
    "fbp_inplane",
    "fold_northern",
    "xi_contribution",
    "apply_uniform_damping",
    "uniform_damping_alpha",
    "reconstruct",
]

_MODES = ("full-sphere", "in-plane")
_EQUATOR_TOL = 1e-6
_AXIS_TOL = 1e-9  # radians; far above the rounding error of any angle pair
# projection axis of the _axis_ids sweep: a unit vector off the coordinate planes
_SWEEP_DIRECTION = np.array([2.0, 3.0, 5.0]) / math.sqrt(38.0)


@dataclass(frozen=True)
class ReconstructionConfig:
    """Settings for a backprojection run.

    kmax bounds the reconstructed partial waves (in in-plane mode it must
    stay below the number of distinct axes for the discrete orthogonality
    to hold); None lets the backprojection take the smallest record spin,
    capped in-plane at one below the number of distinct axes.  two_j_ref
    fixes the reference spin of the output state and defaults to the
    rounded mean of the record spins.
    """

    kmax: int | None = None
    mode: str = "in-plane"
    noise: NoiseModel = NoiseModel()
    fold_north: bool = False
    two_j_ref: int | None = None

    def __post_init__(self):
        if not (self.kmax is None or isinstance(self.kmax, (int, np.integer)) and self.kmax >= 0):
            raise ValueError(f"kmax must be a non-negative integer, got {self.kmax!r}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")


def _resolve_two_j_ref(config, two_j):
    if config.two_j_ref is not None:
        return config.two_j_ref
    mean = float(np.mean(two_j))
    parity = int(np.round(np.mean(two_j % 2)))  # majority parity
    ref = int(np.rint((mean - parity) / 2.0)) * 2 + parity
    return max(ref, parity)


def _circle_arc_weights(angles, circumference):
    # Voronoi arcs of points on a circle; angles already folded to the range
    order = np.argsort(angles)
    a = angles[order]
    if a.size == 1:
        return np.ones(1)
    gaps = np.diff(a)
    wrap = circumference - (a[-1] - a[0])
    left = np.concatenate(([wrap], gaps))
    right = np.concatenate((gaps, [wrap]))
    arcs = 0.5 * (left + right)
    out = np.empty_like(arcs)
    out[order] = arcs / circumference
    return out


def _unit_vectors(theta, phi):
    return np.stack([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)], axis=1)


def _axis_ids(theta, phi):
    """Group records by unoriented quantization axis.

    Returns (axis, first, flip): axis[n] is the axis index of record n,
    first[a] the record whose own (theta, phi) stand for axis a, and
    flip[n] marks records that point opposite to their axis.  Directions
    within _AXIS_TOL of each other or of each other's antipode are linked,
    and the axes are the connected groups.  Exact duplicate angles are
    merged first, so the cost follows the number of distinct angles.
    theta may be a scalar (pi / 2 puts every axis on the equator).
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), phi)
    keys, first, inverse = np.unique(theta + 1j * phi, return_index=True,
                                     return_inverse=True)
    u = _unit_vectors(keys.real, keys.imag)
    n = keys.size
    # linked pairs among the directions and their antipodes by a sweep: two
    # directions within the chord project within it onto any unit vector, so
    # sorted by one projection they sit at offsets d whose projection gaps are
    # that small (twice the chord allows for the rounding of the projections)
    doubled = np.vstack([u, -u])
    proj = doubled @ _SWEEP_DIRECTION
    order = np.argsort(proj, kind="stable")
    proj = proj[order]
    chord = 2.0 * math.sin(0.5 * _AXIS_TOL)
    found = [np.empty((0, 2), dtype=int)]
    for d in range(1, 2 * n):
        near = np.flatnonzero(proj[d:] - proj[:-d] <= 2.0 * chord)
        if near.size == 0:
            break
        a, b = order[near], order[near + d]
        close = np.sum((doubled[a] - doubled[b]) ** 2, axis=1) <= chord * chord
        found.append(np.stack([a[close], b[close]], axis=1))
    pairs = np.concatenate(found) % n
    # connected groups by min-label propagation; labels only fall, so it ends
    root = np.arange(n)
    while True:
        low = np.minimum(root[pairs[:, 0]], root[pairs[:, 1]])
        new = root.copy()
        np.minimum.at(new, pairs[:, 0], low)
        np.minimum.at(new, pairs[:, 1], low)
        new = new[new]
        if np.array_equal(new, root):
            break
        root = new
    roots, axis = np.unique(root, return_inverse=True)
    flip = np.einsum("ij,ij->i", u, u[root]) < 0.0
    return axis[inverse], first[roots], flip[inverse]


def _on_equator(theta):
    """pi / 2, the polar angle that groups in-plane axes; raises unless every theta lies
    within _EQUATOR_TOL of it (one check for the weights and the backprojection)."""
    if np.abs(theta - math.pi / 2.0).max() > _EQUATOR_TOL:
        raise ValueError("in-plane reconstruction requires all axes on the equator")
    return math.pi / 2.0


def compute_weights(records, mode):
    """Assign homogenizing Voronoi weights c_n (sum 1) to measurement records.

    Each distinct axis gets the share of orientation space it covers (arc
    length on the half-circle in in-plane mode, antipodally-folded
    spherical cell area otherwise), which depends only on the axis
    layout, never on the outcomes.  Each axis's share is split among its
    records in proportion to their incoming weights, so the p_m / A of
    :func:`exact_records` keep their p_m; when any weight is pending (NaN)
    it is split equally.  Returns the records as a Records with the new
    weight column.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    records = Records.of(records)
    theta, phi, weight = records.theta, records.phi, records.weight
    if mode == "in-plane":
        axis, first, _ = _axis_ids(_on_equator(theta), phi)
        axis_w = _circle_arc_weights(np.mod(phi[first], math.pi), math.pi)
    else:
        axis, first, _ = _axis_ids(theta, phi)
        if first.size == 1:
            raise ValueError("all axes coincide; no area partition exists")
        units = _unit_vectors(theta[first], phi[first])
        _, svals, vt = np.linalg.svd(units, full_matrices=False)
        if svals.size < 3 or svals[-1] < 1e-9:
            # all axes on one great circle (two axes always are): cells are
            # lunes, area follows arc length
            e1, e2 = vt[0], vt[1]
            ang = np.mod(np.arctan2(units @ e2, units @ e1), math.pi)
            axis_w = _circle_arc_weights(ang, math.pi)
        else:
            from scipy.spatial import SphericalVoronoi  # only this branch needs scipy

            doubled = np.vstack([units, -units])
            # _axis_ids alone decides which directions coincide: axes it keeps
            # apart are more than the _AXIS_TOL chord apart, far above this threshold
            sv = SphericalVoronoi(doubled, radius=1.0, threshold=0.1 * _AXIS_TOL)
            areas = sv.calculate_areas()
            m = first.size
            axis_w = (areas[:m] + areas[m:]) / (4.0 * math.pi)

    if np.isnan(weight).any():
        per_record = axis_w[axis] / np.bincount(axis)[axis]
    else:
        axis_total = np.bincount(axis, weights=weight)
        if np.any(axis_total <= 0.0):
            raise ValueError("the records of an axis carry zero total weight")
        per_record = axis_w[axis] * (weight / axis_total[axis])
    return replace(records, weight=per_record / per_record.sum())


def _axis_sums(axis, flip, weight, two_j, two_m, kmax, noise):
    """A[k, a] = sum of c_n tau_k^{j_n,m_n} N_k(j_n) over the records n on axis a.

    N_k(j) is the damping that the number and pointing noise imply for a
    record of spin j (states._damping).  Records pointing opposite to their
    axis enter with m -> -m, which is exact: tau_k^{j,-m} = (-1)^k tau_k^{j,m}
    and Y_kq at the antipode is (-1)^k Y_kq.  Waves k > 2j_n get nothing
    from record n.  One histogram H[a, m] and one matrix product per spin.
    """
    n_axes = int(axis.max()) + 1
    two_m = np.where(flip, -two_m, two_m)
    A = np.zeros((kmax + 1, n_axes))
    order = np.argsort(two_j, kind="stable")
    spins, starts = np.unique(two_j[order], return_index=True)
    for tj, sel in zip(spins.tolist(), np.split(order, starts[1:])):
        kj = min(kmax, tj)
        hist = np.bincount(axis[sel] * (tj + 1) + (two_m[sel] + tj) // 2,
                           weights=weight[sel], minlength=n_axes * (tj + 1))
        tau = cg_tau_table(tj, kj) * _damping(tj, kj, noise.sigma_n, noise.sigma_omega)[:, None]
        A[: kj + 1] += tau @ hist.reshape(n_axes, tj + 1).T
    return A


def _backproject(records, config):
    # rho_kq = f_kq sum_a A[k, a] D^k_{q0}(phi_a, theta_a, 0) exp(-q^2 sigma_a^2 / 2);
    # only f and the kernel depend on the mode
    theta, phi, weight, two_j, two_m = Records.of(records).columns
    if np.any(np.isnan(weight)):
        raise ValueError("records carry pending weights; run compute_weights first")
    inplane = config.mode == "in-plane"
    axis, first, flip = _axis_ids(_on_equator(theta) if inplane else theta, phi)
    n_axes = first.size
    kmax = config.kmax
    if kmax is None:  # the data run out at the smallest record spin, and in-plane at k = A - 1
        kmax = min(int(two_j.min()), n_axes - 1 if inplane else math.inf)
    two_j_ref = _resolve_two_j_ref(config, two_j)
    if kmax > two_j_ref:
        raise ValueError(f"kmax = {kmax} exceeds two_j_ref = {two_j_ref}")
    if inplane and kmax >= n_axes:
        raise ValueError(
            f"kmax = {kmax} not below the {n_axes} distinct axes; the discrete "
            "half-circle orthogonality only holds for k < A")
    short = two_j < kmax
    if np.any(short):
        warnings.warn(
            f"skipped {int(np.sum(kmax - two_j[short]))} partial-wave terms on "
            f"{int(np.sum(short))} records whose total spin is below the requested kmax",
            stacklevel=3)
    A = _axis_sums(axis, flip, weight, two_j, two_m, kmax, config.noise)

    k = np.arange(kmax + 1, dtype=float)
    q = np.arange(kmax + 1)[:, None]
    ph = phi[first]
    # the azimuth noise damps each axis's orders q, as the sampler damps them
    E = np.exp(-1j * q * ph) * _order_damping(config.noise, ph, kmax)    # (q, axes)
    if inplane:
        # every axis at cos(theta) = 0 shares one (k, q) table, so one contraction serves
        # all axes; keyed by cos(pi / 2), as the squeezing scan keys it, so both share it
        half = np.einsum("kq,qa,ka->kq", _polar_table(kmax, math.cos(math.pi / 2.0)), E, A)
        # pi ((k-q+1)/2)_(1/2) ((k+q+1)/2)_(1/2) for q <= k; k + q odd carries no information
        ph_half = pochhammer_half(np.arange(1, 2 * kmax + 2) / 2.0)
        kk, qq = q, q.T  # k down the rows, q along the columns
        filt = np.where((qq <= kk) & ((kk + qq) % 2 == 0),
                        ph_half[np.abs(kk - qq)] * ph_half[kk + qq] * math.pi, 0.0)
    else:
        # each axis has its own (k, q) table of (kmax + 1)^2 numbers: chunks of axes
        # within states._CHUNK_BUDGET, one contraction each
        x = np.cos(theta[first])
        half = np.zeros((kmax + 1, kmax + 1), dtype=complex)
        for sl in _chunks(n_axes, (kmax + 1) ** 2):
            half += np.einsum("kqa,qa,ka->kq", legendre_sph_table(kmax, x[sl]), E[:, sl], A[:, sl])
        filt = (2.0 * k + 1.0)[:, None]

    scale = np.sqrt(4.0 * math.pi / (2.0 * k + 1.0))          # D^k_{q0} = scale conj(Y_kq)
    # + 0.0: the filter's zeros are +0, whatever the sign of the table entry
    half = half * (filt * scale[:, None]) + 0.0
    half[0, 0] = half[0, 0].real
    return SphericalState(two_j_ref, kmax, _from_half(half))


def fbp_full(records, config):
    """Full-sphere filtered backprojection of rho_kq from records.

    rho_kq = (2k+1) sum_n c_n D^k_{q0}(phi_n, theta_n, 0) tau_k^{j_n, m_n}
    with per-record damping.  Records whose spin cannot carry a partial
    wave k contribute nothing to that k (counted and warned about).
    """
    if config.mode != "full-sphere":
        raise ValueError("config.mode must be 'full-sphere'")
    return _backproject(records, config)


def fbp_inplane(records, config):
    """In-plane filtered backprojection (all axes on the equator).

    Reconstructs the even-reflection-parity coefficients exactly; k+q odd
    coefficients carry no information in this geometry and are hard
    zeros.  Requires kmax below the number of distinct axes.
    """
    if config.mode != "in-plane":
        raise ValueError("config.mode must be 'in-plane'")
    return _backproject(records, config)


def fold_northern(s):
    """Fold an even-parity reconstruction onto the northern hemisphere.

    For states known to live at z > 0 the true coefficients follow from
    the even-parity ones through the hemispherical overlap integrals;
    the series is truncated at the input kmax.  The overlap matrices of a
    chunk of orders (sized by states._chunks) are built in one array
    expression over the degrees from the chunk's lowest order, and each
    chunk is contracted with one einsum; the result does not depend on
    the chunking.
    """
    kmax = s.kmax
    half = np.zeros((kmax + 1, kmax + 1), dtype=complex)
    for sl in _chunks(kmax + 1, (kmax + 1) ** 2):
        q0, q1 = sl.start, min(sl.stop, kmax + 1)
        # U[q, k, k'] over the degrees from q0; one chunk's U is alive at a time
        half[q0:, q0:q1] = np.einsum("qkl,lq->kq", _hemi_overlap_orders(kmax, q0, q1),
                                     s.coeffs[q0:, kmax + q0:kmax + q1])
    half[0, 0] = half[0, 0].real
    return SphericalState(s.two_j_ref, kmax, _from_half(half))


def xi_contribution(two_j, two_m, x, kmax):
    """Single-measurement contribution to W as a function of cos(angle).

    Xi_{jm}(x) = (4 pi)^(-1/2) sum_k (2k+1)^(3/2) tau_k^{j,m} P_k(x),
    truncated at kmax, for x in [-1, 1]; the series is summed by
    Clenshaw's recurrence (numpy's legval).
    """
    check_spin_label(two_j, two_m)
    x = np.asarray(x, dtype=float)
    _check_cos(x)
    tau = cg_tau_table(two_j, kmax)[:, (two_m + two_j) // 2]
    coef = (2.0 * np.arange(kmax + 1) + 1.0) ** 1.5 * tau / SQRT_4PI
    # parts of at most 8192 points keep legval's temporaries at 64 KB, below the
    # size from which malloc maps (and page-faults) each new array afresh
    parts = np.array_split(x.ravel(), x.size // 8192 + 1)
    out = np.concatenate([np.polynomial.legendre.legval(p, coef) for p in parts])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def uniform_damping_alpha(noise, two_j):
    """Exponent scale of the uniform-noise smoothing rho_kq -> rho_kq e^(-a k(k+1))."""
    return _damping_alpha(two_j, noise.sigma_n, noise.sigma_omega)


def apply_uniform_damping(s, noise):
    """Globally smooth a state as if every record of spin two_j_ref carried the same noise."""
    factor = _damping(s.two_j_ref, s.kmax, noise.sigma_n, noise.sigma_omega)
    return SphericalState(s.two_j_ref, s.kmax, _from_half(s.coeffs[:, s.kmax:] * factor[:, None]))


def reconstruct(records, config, weight_scheme="voronoi"):
    """Weight ("voronoi", or "keep" the records' own), backproject, and optionally fold."""
    if weight_scheme == "voronoi":
        records = compute_weights(records, config.mode)
    elif weight_scheme != "keep":
        raise ValueError(f"unknown weight scheme {weight_scheme!r}")
    state = (fbp_inplane if config.mode == "in-plane" else fbp_full)(records, config)
    if config.fold_north:
        state = fold_northern(state)
    return state
