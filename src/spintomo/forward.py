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
from functools import lru_cache

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

    sigma_n      atom-number standard deviation (atoms).  The damping law
                 assumes that the total spin and the projection each inherit
                 variance sigma_n^2 / 2; the sampler draws m at the state's
                 own spin and records 2j_n = max(2j + 2 rint(dj), |2m|) with
                 dj ~ N(0, sigma_n / sqrt 2).
    sigma_omega  quantization-axis pointing uncertainty (radians): the axis tilts
                 in a uniform direction, tan^2 of the tilt exponential with mean sigma_omega^2.
    phase_mode   azimuthal phase noise: "none", "constant" (fixed
                 sigma_phi), or "model" (amplitude sigma_ph, in radians,
                 mapped to sigma_ph^2 |sin phi| / sqrt(2)).

    A phase amount needs its mode: sigma_phi > 0 only with "constant" and
    sigma_ph > 0 only with "model", so at most one of them is non-zero.  The azimuth
    noise damps every axis's orders q, in the sampler and the backprojection alike.
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


def _check_row(theta, phi, weight, two_j, two_m):
    """Raise a bad record's ValueError: spin labels, then angles, then weight (NaN: pending)."""
    check_spin_label(two_j, two_m)
    _check_angles(theta, phi)
    if not math.isnan(weight) and not (math.isfinite(weight) and weight >= 0.0):
        raise ValueError(f"weight must be non-negative or NaN, got {weight}")


@dataclass(frozen=True, eq=False)
class Records:
    """Stern-Gerlach outcomes as five read-only columns, checked when built.

    theta, phi and weight are float arrays and two_j, two_m int64 arrays,
    all of one length n >= 1.  Building one, by any producer or by
    ``dataclasses.replace``, raises _check_row's error for the first bad
    row (int64 labels in one vector pass, others row by row).  A slice is a
    Records, ``+`` concatenates two, and ``==`` holds between Records of
    equal columns, a pending (NaN) weight equal to a pending one.  Iteration
    yields the rows as named tuples; Records.of takes a list of rows back.
    """

    theta: np.ndarray
    phi: np.ndarray
    weight: np.ndarray
    two_j: np.ndarray
    two_m: np.ndarray

    def __post_init__(self):
        columns = [np.array(getattr(self, f), dtype=float) for f in _FIELDS[:3]]
        columns += [np.array(getattr(self, f)) for f in _FIELDS[3:]]
        if any(c.ndim != 1 or c.shape != columns[0].shape for c in columns):
            raise ValueError("record columns must be one-dimensional and of one length")
        if columns[0].size == 0:
            raise ValueError("no measurement records")
        theta, phi, weight, two_j, two_m = columns
        if two_j.dtype == two_m.dtype == np.int64:
            # integers within int64 by type: one vector pass finds the first bad row
            ok = (_angles_ok(theta, phi) & ~(weight < 0.0) & (weight != math.inf)
                  & (two_m > -LABEL_BOUND) & (np.abs(two_m) <= two_j) & ((two_j - two_m) % 2 == 0))
            rows = [] if ok.all() else zip(*(c[~ok][:1].tolist() for c in columns))
        else:
            # floats, or the uint64, float or object columns numpy makes of labels
            # beyond int64: every row, on the labels as given
            given = (np.array(getattr(self, f), dtype=object).tolist() for f in _FIELDS[3:])
            rows = zip(theta.tolist(), phi.tolist(), weight.tolist(), *given)
        for row in rows:
            _check_row(*row)
        for name, c, dtype in zip(_FIELDS, columns, (float, float, float, np.int64, np.int64)):
            c = c.astype(dtype, copy=False)
            c.flags.writeable = False
            object.__setattr__(self, name, c)

    @classmethod
    def of(cls, records):
        """records as a Records: itself if it is one, else the columns of a list (or an
        iterable) of (theta, phi, weight, two_j, two_m) rows, checked as the constructor checks."""
        if isinstance(records, cls):
            return records
        records = list(records)  # an iterator's rows, taken once
        try:
            columns = list(zip(*records, strict=True)) or [()] * len(_FIELDS)
        except ValueError:  # rows of different lengths
            columns = ()
        if len(columns) != len(_FIELDS):
            i = next(i for i, row in enumerate(records) if len(row) != len(_FIELDS))
            raise ValueError(f"record row {i} has {len(records[i])} fields, "
                             f"not the five of {_FIELDS}")
        return cls(*columns)

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
    shape = np.broadcast(theta, phi).shape
    p = _wave_sums(s, theta, phi, s.kmax) @ cg_tau_table(s.two_j_ref, s.kmax)
    return p.reshape(shape + p.shape[1:])


@lru_cache(maxsize=16)
def _tilt_average(kmax, sigma_omega):
    """g_k = E[P_k(cos eta)], k <= kmax, tan^2 eta exponential of mean sigma_omega^2 (read-only)."""
    # with tan eta = sigma_omega v, a 20-node Gauss-Legendre rule over v in [0, 9] (v^2
    # passes 81 with probability e^-81), on the panels of a uniform mesh in v, which
    # follows the density, and of one in eta, two panels an oscillation of P_kmax
    top = math.atan(9.0 * sigma_omega)
    edges = np.sort(np.r_[np.linspace(0.0, 9.0, 9), np.tan(
        np.linspace(0.0, top, 5 + int(kmax * top / math.pi))[1:-1]) / sigma_omega])
    b = np.arange(1.0, 20.0) / np.sqrt(4.0 * np.arange(1.0, 20.0) ** 2 - 1.0)
    x, vec = np.linalg.eigh(np.diag(b, 1) + np.diag(b, -1))  # the nodes, by Golub-Welsch
    half = 0.5 * np.diff(edges)[:, None]
    v = (edges[:-1, None] + half * (x + 1.0)).ravel()
    dens = (half * vec[0] ** 2).ravel() * v * np.exp(-v * v)  # weights times density, unscaled
    # 1 - cos eta taken whole: from a rounded cosine it would cost P_k up to k(k+1)/2
    # of its rounding (1e-10 at k = 1260)
    u = 2.0 * np.sin(0.5 * np.arctan(sigma_omega * v)) ** 2
    g, p, d = np.empty(kmax + 1), np.ones_like(u), 0.0
    for k in range(kmax + 1):  # P_k(1 - u) by the recurrence in d_k = P_k - P_(k-1)
        g[k] = p @ dens
        d = (k * d - (2 * k + 1) * u * p) / (k + 1)
        p = p + d
    g /= g[0]
    g.flags.writeable = False
    return g


def _order_damping(noise, phi, kmax):
    """The azimuth noise's damping exp(-q^2 sigma_a(phi_n)^2 / 2)[q, n] of the orders q <= kmax."""
    q, sig = np.arange(kmax + 1)[:, None], noise.azimuth_sigma(phi)
    return np.exp(-0.5 * q * q * sig * sig)


def _physical(p):
    """Probabilities with round-off negatives clipped to zero; raises below -1e-8."""
    if np.minimum.reduce(p, axis=None, initial=0.0) < -1e-8:
        raise ValueError(f"state is unphysical: min p_m = {p.min():.3g}")
    return np.maximum(p, 0.0)  # np.clip(p, 0, None)'s ufunc


def _draw(p, u):
    """Outcome indices for the uniforms u[i, s] by inverse CDF of row i of p, from one
    comparison block of u.size * p.shape[1] booleans (the caller sizes it)."""
    p = _physical(p)
    # the ufuncs behind np.sum and np.cumsum, without their wrappers
    total = np.add.reduce(p, axis=1, keepdims=True)
    if (total <= 0.0).any():
        raise ValueError("projection probabilities sum to zero")
    cdf = np.add.accumulate(p / total, axis=1)
    cdf /= cdf[:, -1:]
    return np.add.reduce(cdf[:, None, :] <= u[:, :, None], axis=2)


def sample_measurements(s, axes, shots_per_axis, noise, seed):
    """Draw synthetic measurement records from a state.

    axes is a sequence of (theta, phi) quantization-axis orientations;
    shots_per_axis single measurements are drawn for each.  Per shot the total spin
    is jittered by the number noise (rounded to the nearest parity-consistent value),
    and the outcome is drawn from the p_m at the nominal axis of the state damped by the
    axis noise, rho_kq g_k exp(-q^2 sigma_a^2 / 2): by Funk-Hecke, in distribution those
    of the shot's unrecorded jittered axis.  Weights are 1/M (replaced by the weighting).
    Deterministic for fixed inputs and seed: each axis owns an independent
    counter-based substream, of its number jitters, then its outcome uniforms.
    shots_per_axis and seed are integers (Python or NumPy); anything else raises
    ValueError.  Returns a Records, axis by axis in the order of axes.
    """
    for name, value in (("shots_per_axis", shots_per_axis), ("seed", seed)):
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
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
    # each axis's stream in turn: its number jitters (sigma_j times standard normals
    # is normal(0, sigma_j) bitwise), then its uniforms u[axis, shot]
    dj, u = np.zeros((2, theta.size, shots_per_axis))
    for a, stream in enumerate(np.random.SeedSequence(int(seed)).spawn(theta.size)):
        rng = np.random.Generator(np.random.Philox(stream))  # spawn_key (a,)
        if sigma_j > 0.0:
            rng.standard_normal(out=dj[a])
        rng.random(out=u[a])
    # an axis's shots share it as one point.  The axis noise damps the waves where the
    # backprojection damps them: the tilt's g_k scales the tau rows, the azimuth noise
    # each axis's orders.  One kernel call and one draw per chunk of axes; an axis's
    # comparison block (its uniforms times 2j+1) also bounds its p_m
    tau = cg_tau_table(two_j, s.kmax)
    if noise.sigma_omega > 0.0:
        tau = _tilt_average(s.kmax, noise.sigma_omega)[:, None] * tau
    damp = _order_damping(noise, phi, s.kmax).T
    idx = np.empty(u.shape, dtype=int)
    for a in _chunks(theta.size, shots_per_axis * (two_j + 1)):
        idx[a] = _draw(_wave_sums(s, theta[a], phi[a], s.kmax, damp[a]) @ tau, u[a])
    two_m = 2 * idx.ravel() - two_j
    two_j_n = np.maximum(two_j + 2 * np.rint(sigma_j * dj.ravel()).astype(int), np.abs(two_m))
    return Records(np.repeat(theta, shots_per_axis), np.repeat(phi, shots_per_axis),
                   np.full(two_m.size, 1.0 / two_m.size), two_j_n, two_m)


def exact_records(s, axes):
    """Infinite-data records: one entry per (axis, outcome) weighted by p_m / A.

    Replaces the sample sum by its expectation over the A axes; feeding these
    to the backprojection realizes the infinite-data limit on the given axes.
    Returns a Records, axis by axis, outcomes with p_m = 0 left out.
    """
    theta, phi = _axis_columns(axes)
    two_j = s.two_j_ref
    p = _physical(projection_probabilities(s, theta, phi))
    # one record per (axis, outcome) with p_m > 0, axis by axis
    a, i = np.nonzero(p > 0.0)
    return Records(theta[a], phi[a], (1.0 / theta.size) * p[a, i], np.full(a.size, two_j),
                   2 * i - two_j)
