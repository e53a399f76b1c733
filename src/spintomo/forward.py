"""Forward model: Stern-Gerlach projection probabilities and synthetic data.

The sampler is the round-trip oracle for the reconstructor: it draws
measurement records from a known state with configurable number noise,
axis pointing noise and azimuthal phase noise, deterministically for a
given seed (counter-based per-axis streams, so the result is independent
of execution order).
"""

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .angular import LABEL_BOUND, _angles_ok, _check_angles, cg_tau_table, check_spin_label
from .states import _check_noise, _chunks, _wave_sums

__all__ = [
    "NoiseModel",
    "Records",
    "projection_probabilities",
    "sample_measurements",
    "exact_records",
]

_PHASE_MODES = ("none", "constant", "model")
_FIELDS = ("theta", "phi", "weight", "two_j", "two_m")
_Row = namedtuple("Row", _FIELDS)


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian uncertainty parameters of the measurement apparatus.

    sigma_n      atom-number standard deviation (atoms); the total spin and
                 projection each inherit variance sigma_n^2 / 2.
    sigma_omega  quantization-axis pointing uncertainty (radians), defined
                 through the mean squared sine of the pointing error angle.
    phase_mode   azimuthal phase noise: "none", "constant" (fixed
                 sigma_phi), or "model" (amplitude sigma_ph, in radians,
                 mapped to sigma_ph^2 |sin phi| / sqrt(2)).

    A phase amount needs its mode: sigma_phi > 0 only with "constant" and
    sigma_ph > 0 only with "model", so at most one of them is non-zero.
    """

    sigma_n: float = 0.0
    sigma_omega: float = 0.0
    phase_mode: str = "none"
    sigma_phi: float = 0.0
    sigma_ph: float = 0.0

    def __post_init__(self):
        for name in ("sigma_n", "sigma_omega", "sigma_phi", "sigma_ph"):
            _check_noise(name, getattr(self, name))
        if self.phase_mode not in _PHASE_MODES:
            raise ValueError(f"phase_mode must be one of {_PHASE_MODES}")
        for name, mode in (("sigma_phi", "constant"), ("sigma_ph", "model")):
            if getattr(self, name) > 0.0 and self.phase_mode != mode:
                raise ValueError(f"{name} = {getattr(self, name)} needs phase_mode "
                                 f"{mode!r}, not {self.phase_mode!r}")

    def azimuth_sigma(self, phi):
        """Azimuth-noise standard deviation at quantization-axis azimuth phi."""
        # the amount of a mode not in use is zero
        # |sin phi| is sin|phi| on [-pi, pi], continued with period 2 pi
        return self.sigma_phi + self.sigma_ph ** 2 * np.abs(
            np.sin(np.asarray(phi, dtype=float))) / math.sqrt(2.0)

    @property
    def has_axis_noise(self):
        return self.sigma_omega > 0.0 or self.sigma_phi > 0.0 or self.sigma_ph > 0.0


def _check_row(theta, phi, weight, two_j, two_m):
    """Raise a bad record's ValueError: spin labels, then angles, then weight (NaN: pending)."""
    check_spin_label(two_j, two_m)
    _check_angles(theta, phi)
    if not math.isnan(weight) and not (math.isfinite(weight) and weight >= 0.0):
        raise ValueError(f"weight must be non-negative or NaN, got {weight}")


def _check_rows(theta, phi, weight, two_j, two_m):
    """Refuse the rows that _check_row refuses, all at once.

    The columns broadcast against each other; the spin columns may hold
    integers or floats.  The first bad row goes through _check_row, so the
    error is the one that a single row raises.
    """
    rows = np.broadcast_arrays(theta, phi, weight, two_j, two_m)
    if any(c.dtype.kind in "uO" for c in rows[3:]):
        # integers beyond int64, where the vector arithmetic would fail or wrap
        for row in zip(*(c.tolist() for c in rows)):
            _check_row(*row)
    with np.errstate(invalid="ignore"):
        ok = (_angles_ok(theta, phi) & ~(weight < 0.0) & (weight != math.inf)
              & (two_j == np.round(two_j)) & (two_j < LABEL_BOUND)
              & (-LABEL_BOUND < two_m) & (two_m < LABEL_BOUND) & (np.abs(two_m) <= two_j)
              & ((two_j - two_m) % 2 == 0))
    if not np.all(ok):
        i = int(np.argmin(np.broadcast_to(ok, rows[0].shape)))
        _check_row(*(c[i].item() for c in rows))


@dataclass(frozen=True, eq=False)
class Records:
    """Stern-Gerlach outcomes as five read-only columns, checked when built.

    theta, phi and weight are float arrays and two_j, two_m int64 arrays,
    all of one length n >= 1.  Building a Records, by any producer or by
    ``dataclasses.replace``, checks every row in one vector pass and raises
    _check_row's error for the first bad row.  A slice is a Records, ``+``
    concatenates two, and ``==`` holds between Records of equal columns, a
    pending (NaN) weight equal to a pending one.  Iteration yields the rows
    as named tuples of the five fields; Records.of takes a list of rows back.
    """

    theta: np.ndarray
    phi: np.ndarray
    weight: np.ndarray
    two_j: np.ndarray
    two_m: np.ndarray

    def __post_init__(self):
        columns = [np.array(getattr(self, f), dtype=float) for f in _FIELDS[:3]]
        columns += [np.array(getattr(self, f)) for f in _FIELDS[3:]]
        n = columns[0].shape
        if any(c.ndim != 1 or c.shape != n for c in columns):
            raise ValueError("record columns must be one-dimensional and of one length")
        if n[0] == 0:
            raise ValueError("no measurement records")
        _check_rows(*columns)
        for name, c, dtype in zip(_FIELDS, columns, (float, float, float, np.int64, np.int64)):
            c = c.astype(dtype, copy=False)
            c.flags.writeable = False
            object.__setattr__(self, name, c)

    @classmethod
    def of(cls, records):
        """records as a Records: itself if it is one, else the columns of a list of
        (theta, phi, weight, two_j, two_m) rows, checked as the constructor checks."""
        if isinstance(records, cls):
            return records
        return cls(*([row[i] for row in records] for i in range(len(_FIELDS))))

    @property
    def columns(self):
        """The tuple (theta, phi, weight, two_j, two_m)."""
        return self.theta, self.phi, self.weight, self.two_j, self.two_m

    def __reduce__(self):
        return Records, self.columns

    def __len__(self):
        return self.theta.size

    def __getitem__(self, rows):
        if not isinstance(rows, slice):
            raise TypeError("Records take a slice; read single rows from the columns")
        return Records(*(c[rows] for c in self.columns))

    def __iter__(self):
        return map(_Row._make, zip(*(c.tolist() for c in self.columns)))

    def __add__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return Records(*map(np.concatenate, zip(self.columns, other.columns)))

    def __eq__(self, other):
        if not isinstance(other, Records):
            return NotImplemented
        return all(np.array_equal(a, b, equal_nan=True)
                   for a, b in zip(self.columns, other.columns))

    def __repr__(self):
        return f"<Records: {len(self)} measurement records>"


def _axis_columns(axes):
    """theta and phi of (theta, phi) axes, checked as the angles of their records."""
    if len(axes) == 0:
        raise ValueError("at least one axis is required")
    theta, phi = np.array(axes, dtype=float).T
    _check_angles(theta, phi)
    return theta, phi


def projection_probabilities(s, theta, phi):
    """Projection-number distribution p_m along the axes (theta, phi).

    theta and phi are scalars or broadcastable arrays, theta in [0, pi] and
    phi finite; the result has their broadcast shape + (2j+1,), m
    ascending.  Entries may be negative when s comes from a noisy
    reconstruction; the sum always equals sqrt(2j+1) rho_00 (the trace).
    """
    shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
    p = _wave_sums(s, theta, phi, s.kmax) @ cg_tau_table(s.two_j_ref, s.kmax)
    return p.reshape(shape + p.shape[1:])


def _tilted_axes(theta, phi, t1, t2):
    # axis n + t1 e1 + t2 e2, renormalized; e1, e2 the polar and azimuthal unit vectors
    st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
    n = np.stack([st * cp, st * sp, ct])
    e1 = np.stack([ct * cp, ct * sp, -st])
    e2 = np.stack([-sp, cp, np.zeros_like(sp)])
    v = n + t1 * e1 + t2 * e2
    v /= np.linalg.norm(v, axis=0)
    return np.arccos(np.clip(v[2], -1.0, 1.0)), np.arctan2(v[1], v[0])


def _physical(p):
    """Probabilities with round-off negatives clipped to zero; raises below -1e-8."""
    if p.min(initial=0.0) < -1e-8:
        raise ValueError(f"state is unphysical: min p_m = {p.min():.3g}")
    return np.clip(p, 0.0, None)


def _draw(p, u):
    """Outcome indices for the uniforms u[i, s] by inverse CDF of row i of p.

    The comparison block runs over chunks of rows, within states._CHUNK_BUDGET
    elements (at least one row).
    """
    p = _physical(p)
    total = p.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("projection probabilities sum to zero")
    cdf = np.cumsum(p / total, axis=1)
    cdf /= cdf[:, -1:]
    return np.concatenate([np.sum(cdf[sl, None, :] <= u[sl, :, None], axis=2)
                           for sl in _chunks(len(u), u.shape[1] * cdf.shape[1])])


def sample_measurements(s, axes, shots_per_axis, noise, seed):
    """Draw synthetic measurement records from a state.

    axes is a sequence of (theta, phi) quantization-axis orientations;
    shots_per_axis single measurements are drawn for each.  Per shot the
    total spin is jittered by the number noise (rounded to the nearest
    parity-consistent value), the axis is jittered per the noise model,
    and the outcome is drawn from the probabilities recomputed for the
    jittered axis.  Weights are set to 1/M (replaced later by the
    weighting step).  Deterministic for fixed inputs and seed: each axis
    owns an independent counter-based substream.  Returns a Records,
    axis by axis in the order of axes.
    """
    if shots_per_axis < 1:
        raise ValueError("shots_per_axis must be at least 1")
    theta, phi = _axis_columns(axes)
    two_j = s.two_j_ref
    if noise.sigma_n > 0.0 and two_j < 2:
        raise ValueError("number noise requires two_j >= 2")
    if noise.sigma_n > two_j:
        # beyond the atom number the clamp max(2j + 2dj, |2m|) decides many shots,
        # and the Gaussian jitter no longer models the number noise
        raise ValueError(f"sigma_n = {noise.sigma_n} exceeds the atom number two_j = {two_j}")

    sigma_j = noise.sigma_n / math.sqrt(2.0)
    sigma_t = noise.sigma_omega / math.sqrt(2.0)
    rngs = [np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=(a,))))
        for a in range(len(axes))]
    # each axis's stream in turn: its number jitters, its points and its uniforms
    # u[point, shot]; without axis noise its shots share the axis as one point,
    # with axis noise each shot is a jittered point of its own
    djs, ths, phs, us = [], [], [], []
    for theta_a, phi_a, rng in zip(theta.tolist(), phi.tolist(), rngs):
        if not noise.has_axis_noise:
            # in stream order: the number jitters, then the outcome uniforms
            djs.append(rng.normal(0.0, sigma_j, size=shots_per_axis) if sigma_j > 0.0
                       else np.zeros(shots_per_axis))
            us.append(rng.random((1, shots_per_axis)))
            ths.append([theta_a])
            phs.append([phi_a])
            continue
        # per shot, in stream order: dj, the phase jitter, (t1, t2), the outcome
        # uniform; normal(0, sigma) draws are sigma * standard_normal() bitwise
        sigma_phi_a = float(noise.azimuth_sigma(phi_a))
        n_z = (sigma_j > 0.0) + (sigma_phi_a > 0.0) + 2 * (noise.sigma_omega > 0.0)
        z = np.empty((shots_per_axis, n_z))
        u = np.empty((shots_per_axis, 1))
        for i in range(shots_per_axis):
            z[i] = rng.standard_normal(n_z)
            u[i] = rng.random()
        cols = iter(z.T)
        djs.append(sigma_j * next(cols) if sigma_j > 0.0 else np.zeros(shots_per_axis))
        th = np.full(shots_per_axis, theta_a)
        ph = (phi_a + sigma_phi_a * next(cols) if sigma_phi_a > 0.0
              else np.full(shots_per_axis, phi_a))
        if noise.sigma_omega > 0.0:
            th, ph = _tilted_axes(th, ph, sigma_t * next(cols), sigma_t * next(cols))
        ths.append(th)
        phs.append(ph)
        us.append(u)
    # p_m and the draw over every point, a chunk of points at a time
    th, ph, u = np.concatenate(ths), np.concatenate(phs), np.concatenate(us)
    idx = np.concatenate([_draw(projection_probabilities(s, th[sl], ph[sl]), u[sl])
                          for sl in _chunks(len(u), two_j + 1)])
    two_m = 2 * idx.ravel() - two_j
    two_j_n = np.maximum(two_j + 2 * np.rint(np.concatenate(djs)).astype(int), np.abs(two_m))
    weight = 1.0 / (len(axes) * shots_per_axis)
    return Records(np.repeat(theta, shots_per_axis), np.repeat(phi, shots_per_axis),
                   np.full(two_m.size, weight), two_j_n, two_m)


def exact_records(s, axes, axis_weights=None):
    """Infinite-data records: one entry per (axis, outcome) weighted by c_a p_m.

    Replaces the sample sum by its expectation; feeding these to the
    backprojection realizes the infinite-data limit on the given axes.
    Returns a Records, axis by axis, outcomes with p_m = 0 left out.
    """
    theta, phi = _axis_columns(axes)
    if axis_weights is None:
        axis_weights = np.full(theta.size, 1.0 / theta.size)
    axis_weights = np.asarray(axis_weights, dtype=float)
    if axis_weights.shape != theta.shape:
        raise ValueError("axis_weights must match the number of axes")
    _check_rows(theta, phi, axis_weights, 0, 0)
    two_j = s.two_j_ref
    p = _physical(projection_probabilities(s, theta, phi))
    # one record per (axis, outcome) with p_m > 0, axis by axis
    a, i = np.nonzero(p > 0.0)
    return Records(theta[a], phi[a], axis_weights[a] * p[a, i], np.full(a.size, two_j),
                   2 * i - two_j)
