"""Forward model: Stern-Gerlach projection probabilities and synthetic data.

The sampler is the round-trip oracle for the reconstructor: it draws
measurement records from a known state with configurable number noise,
axis pointing noise and azimuthal phase noise, deterministically for a
given seed (counter-based per-axis streams, so the result is independent
of execution order).
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import states
from .angular import cg_tau_table, check_spin_label
from .states import _check_noise, _wave_sums

__all__ = [
    "NoiseModel",
    "MeasurementRecord",
    "Records",
    "projection_probabilities",
    "sample_measurements",
    "exact_records",
]

_PHASE_MODES = ("none", "constant", "model")
_PHASE_VARIANTS = ("quadratic", "linear")
_FIELDS = ("theta", "phi", "weight", "two_j", "two_m")


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian uncertainty parameters of the measurement apparatus.

    sigma_n      atom-number standard deviation (atoms); the total spin and
                 projection each inherit variance sigma_n^2 / 2.
    sigma_omega  quantization-axis pointing uncertainty (radians), defined
                 through the mean squared sine of the pointing error angle.
    phase_mode   azimuthal phase noise: "none", "constant" (fixed
                 sigma_phi), or "model" (amplitude sigma_ph mapped to a
                 phi-dependent sigma).
    phase_variant  "quadratic" applies sigma_ph^2 sin|phi| / sqrt(2) with
                 sigma_ph in radians (the verbatim reading); "linear" is
                 the alternative sigma_ph sin|phi| / sqrt(2).
    """

    sigma_n: float = 0.0
    sigma_omega: float = 0.0
    phase_mode: str = "none"
    sigma_phi: float = 0.0
    sigma_ph: float = 0.0
    phase_variant: str = "quadratic"

    def __post_init__(self):
        for name in ("sigma_n", "sigma_omega", "sigma_phi", "sigma_ph"):
            _check_noise(name, getattr(self, name))
        if self.phase_mode not in _PHASE_MODES:
            raise ValueError(f"phase_mode must be one of {_PHASE_MODES}")
        if self.phase_variant not in _PHASE_VARIANTS:
            raise ValueError(f"phase_variant must be one of {_PHASE_VARIANTS}")

    def azimuth_sigma(self, phi):
        """Azimuth-noise standard deviation at quantization-axis azimuth phi."""
        if self.phase_mode == "none":
            return np.zeros_like(np.asarray(phi, dtype=float)) + 0.0
        if self.phase_mode == "constant":
            return np.full_like(np.asarray(phi, dtype=float), self.sigma_phi) + 0.0
        amp = self.sigma_ph ** 2 if self.phase_variant == "quadratic" else self.sigma_ph
        return amp * np.sin(np.abs(np.asarray(phi, dtype=float))) / math.sqrt(2.0)

    @property
    def has_axis_noise(self):
        return self.sigma_omega > 0.0 or (
            self.phase_mode == "constant" and self.sigma_phi > 0.0
        ) or (self.phase_mode == "model" and self.sigma_ph > 0.0)


@dataclass(frozen=True)
class MeasurementRecord:
    """One Stern-Gerlach outcome: axis, weight, total spin, projection.

    weight may be NaN while pending (filled later by the weighting step).
    """

    theta: float
    phi: float
    weight: float
    two_j: int
    two_m: int

    def __post_init__(self):
        check_spin_label(self.two_j, self.two_m)
        if not (0.0 <= self.theta <= math.pi):
            raise ValueError(f"theta = {self.theta} outside [0, pi]")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if not math.isnan(self.weight) and not (math.isfinite(self.weight)
                                                and self.weight >= 0.0):
            raise ValueError(f"weight must be non-negative or NaN, got {self.weight}")


def _angles_ok(theta, phi):
    return (theta >= 0.0) & (theta <= math.pi) & np.isfinite(phi)


def _check_rows(theta, phi, weight, two_j, two_m):
    """Refuse the rows that MeasurementRecord refuses, all at once.

    The columns broadcast against each other; the spin columns may hold
    integers or floats.  The first bad row is built as a MeasurementRecord,
    so the error is the record's own.
    """
    with np.errstate(invalid="ignore"):
        ok = (_angles_ok(theta, phi) & ~(weight < 0.0) & (weight != math.inf)
              & (two_j == np.round(two_j)) & (np.abs(two_m) <= two_j)
              & ((two_j - two_m) % 2 == 0))
    if not np.all(ok):
        rows = np.broadcast_arrays(theta, phi, weight, two_j, two_m)
        i = int(np.argmin(np.broadcast_to(ok, rows[0].shape)))
        MeasurementRecord(*(c[i].item() for c in rows))


def _check_shapes(columns):
    n = columns[0].shape
    if any(c.ndim != 1 or c.shape != n for c in columns):
        raise ValueError("record columns must be one-dimensional and of one length")
    if n[0] == 0:
        raise ValueError("no measurement records")


def _records(columns):
    # MeasurementRecords of checked field lists, without running the check again
    for theta, phi, weight, two_j, two_m in zip(*columns):
        r = object.__new__(MeasurementRecord)
        d = r.__dict__
        d["theta"], d["phi"], d["weight"], d["two_j"], d["two_m"] = theta, phi, weight, two_j, two_m
        yield r


class Records(Sequence):
    """Measurement records as five read-only columns, checked once.

    theta, phi and weight are float arrays and two_j, two_m int64 arrays,
    all of one length n >= 1.  Building a Records checks every row against
    the MeasurementRecord invariants in one vector pass and raises the
    record's own error for the first bad row.  As a Sequence it yields
    MeasurementRecords: len, indexing and iteration work as on a list, a
    non-empty slice is a Records, and ``+`` concatenates.  ``==`` holds
    against a Records or a sequence of MeasurementRecord with the same
    rows, field by field, a pending (NaN) weight equal to a pending one.
    """

    __slots__ = _FIELDS

    def __init__(self, theta, phi, weight, two_j, two_m):
        columns = [np.array(c, dtype=float) for c in (theta, phi, weight)]
        columns += [np.array(c) for c in (two_j, two_m)]
        _check_shapes(columns)
        _check_rows(*columns)
        self._set(columns)

    @classmethod
    def of(cls, records):
        """records as a Records: itself if it is one, else the columns of a
        sequence of MeasurementRecord (checked as the constructor checks)."""
        if isinstance(records, cls):
            return records
        return cls(*([getattr(r, f) for r in records] for f in _FIELDS))

    @classmethod
    def _valid(cls, theta, phi, weight, two_j, two_m):
        # columns that their producer made valid: only the shapes are checked
        self = object.__new__(cls)
        columns = [theta, phi, weight, two_j, two_m]
        _check_shapes(columns)
        self._set(columns)
        return self

    def _set(self, columns):
        for name, c, dtype in zip(_FIELDS, columns, (float, float, float, np.int64, np.int64)):
            c = c.astype(dtype, copy=False)
            c.flags.writeable = False
            object.__setattr__(self, name, c)

    @property
    def columns(self):
        """The tuple (theta, phi, weight, two_j, two_m)."""
        return self.theta, self.phi, self.weight, self.two_j, self.two_m

    def _with_weights(self, weight):
        # the weighting step's output: the same rows with a new weight column
        return Records._valid(self.theta, self.phi, weight, self.two_j, self.two_m)

    def __setattr__(self, name, value):
        raise AttributeError(f"Records is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Records is read-only: cannot delete {name!r}")

    def __reduce__(self):
        return Records, self.columns

    def __len__(self):
        return self.theta.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Records._valid(*(c[i] for c in self.columns))
        return next(_records([c[i].item()] for c in self.columns))

    def __iter__(self):
        return _records(c.tolist() for c in self.columns)

    def __add__(self, other):
        other = Records.of(other)
        return Records._valid(*map(np.concatenate, zip(self.columns, other.columns)))

    def __eq__(self, other):
        if not isinstance(other, Records):
            try:
                other = Records.of(other)
            except (TypeError, ValueError, AttributeError):
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
    if not np.all(_angles_ok(theta, phi)):
        _check_rows(theta, phi, 0.0, 0, 0)  # raises the record's error
    return theta, phi


def _probabilities(s, theta, phi):
    """p_m along many axes at once: an array of shape (n, 2j+1).

    theta and phi broadcast to n axes.
    """
    return _wave_sums(s, theta, phi, s.kmax) @ cg_tau_table(s.two_j_ref, s.kmax)


def projection_probabilities(s, theta, phi):
    """Projection-number distribution p_m along the axis (theta, phi).

    Entries may be negative when s comes from a noisy reconstruction; the
    sum always equals sqrt(2j+1) rho_00 (the trace).
    """
    return _probabilities(s, theta, phi)[0]


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
    rows = max(1, int(states._CHUNK_BUDGET // (u.shape[1] * cdf.shape[1])))
    return np.concatenate([np.sum(cdf[lo:lo + rows, None, :] <= u[lo:lo + rows, :, None], axis=2)
                           for lo in range(0, len(u), rows)])


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
    djs = []
    if not noise.has_axis_noise:
        # every axis's stream first, in stream order: the number jitters, then the
        # outcome uniforms; then p_m of all axes, a chunk of axes per kernel call,
        # and one draw over all shots
        us = []
        for rng in rngs:
            djs.append(np.rint(rng.normal(0.0, sigma_j, size=shots_per_axis))
                       if sigma_j > 0.0 else np.zeros(shots_per_axis))
            us.append(rng.random(shots_per_axis))
        chunk = max(1, int(states._CHUNK_BUDGET // (two_j + 1)))
        p = np.concatenate([_probabilities(s, theta[lo:lo + chunk], phi[lo:lo + chunk])
                            for lo in range(0, len(axes), chunk)])
        idx = _draw(p, np.array(us))
    else:
        idx = []
        for theta_a, phi_a, rng in zip(theta.tolist(), phi.tolist(), rngs):
            # per shot, in stream order: dj, the phase jitter, (t1, t2), the outcome
            # uniform; normal(0, sigma) draws are sigma * standard_normal() bitwise
            sigma_phi_a = float(noise.azimuth_sigma(phi_a))
            n_z = (sigma_j > 0.0) + (sigma_phi_a > 0.0) + 2 * (noise.sigma_omega > 0.0)
            z = np.empty((shots_per_axis, n_z))
            u = np.empty(shots_per_axis)
            for i in range(shots_per_axis):
                z[i] = rng.standard_normal(n_z)
                u[i] = rng.random()
            cols = iter(z.T)
            djs.append(np.rint(sigma_j * next(cols)) if sigma_j > 0.0
                       else np.zeros(shots_per_axis))
            th = np.full(shots_per_axis, theta_a)
            ph = (phi_a + sigma_phi_a * next(cols) if sigma_phi_a > 0.0
                  else np.full(shots_per_axis, phi_a))
            if noise.sigma_omega > 0.0:
                th, ph = _tilted_axes(th, ph, sigma_t * next(cols), sigma_t * next(cols))
            # one kernel call per axis, a jittered axis per shot
            idx.append(_draw(_probabilities(s, th, ph), u[:, None])[:, 0])
    # every shot of an axis repeats its checked angles; the spins are valid by
    # construction (2j_n >= |2m|, both of the parity of 2j)
    two_m = 2 * np.array(idx).ravel() - two_j
    two_j_n = np.maximum(two_j + 2 * np.array(djs).astype(int).ravel(), np.abs(two_m))
    weight = 1.0 / (len(axes) * shots_per_axis)
    return Records._valid(np.repeat(theta, shots_per_axis), np.repeat(phi, shots_per_axis),
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
    p = _physical(_probabilities(s, theta, phi))
    # one record per (axis, outcome) with p_m > 0, axis by axis; c_a p_m is
    # valid where the checked c_a is
    a, i = np.nonzero(p > 0.0)
    return Records._valid(theta[a], phi[a], axis_weights[a] * p[a, i],
                          np.full(a.size, two_j), 2 * i - two_j)
