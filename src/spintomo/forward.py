"""Forward model: Stern-Gerlach projection probabilities and synthetic data.

The sampler is the round-trip oracle for the reconstructor: it draws
measurement records from a known state with configurable number noise,
axis pointing noise and azimuthal phase noise, deterministically for a
given seed (counter-based per-axis streams, so the result is independent
of execution order).
"""

import math
from dataclasses import dataclass

import numpy as np

from .angular import cg_tau_table, check_spin_label
from .states import _check_noise, _wave_sums

__all__ = [
    "NoiseModel",
    "MeasurementRecord",
    "projection_probabilities",
    "sample_measurements",
    "exact_records",
]

_PHASE_MODES = ("none", "constant", "model")
_PHASE_VARIANTS = ("quadratic", "linear")


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
    """Outcome index per uniform u[i] by inverse CDF of row i of p (or its only row)."""
    p = _physical(p)
    total = p.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("projection probabilities sum to zero")
    cdf = np.cumsum(p / total, axis=1)
    cdf /= cdf[:, -1:]
    return np.sum(cdf <= u[:, None], axis=1)


def sample_measurements(s, axes, shots_per_axis, noise, seed):
    """Draw synthetic measurement records from a state.

    axes is a sequence of (theta, phi) quantization-axis orientations;
    shots_per_axis single measurements are drawn for each.  Per shot the
    total spin is jittered by the number noise (rounded to the nearest
    parity-consistent value), the axis is jittered per the noise model,
    and the outcome is drawn from the probabilities recomputed for the
    jittered axis.  Weights are set to 1/M (replaced later by the
    weighting step).  Deterministic for fixed inputs and seed: each axis
    owns an independent counter-based substream.
    """
    if shots_per_axis < 1:
        raise ValueError("shots_per_axis must be at least 1")
    if len(axes) == 0:
        raise ValueError("at least one axis is required")
    two_j = s.two_j_ref
    if noise.sigma_n > 0.0 and two_j < 2:
        raise ValueError("number noise requires two_j >= 2")
    if noise.sigma_n > two_j:
        # beyond the atom number the clamp max(2j + 2dj, |2m|) decides many shots,
        # and the Gaussian jitter no longer models the number noise
        raise ValueError(f"sigma_n = {noise.sigma_n} exceeds the atom number two_j = {two_j}")

    sigma_j = noise.sigma_n / math.sqrt(2.0)
    sigma_t = noise.sigma_omega / math.sqrt(2.0)
    weight = 1.0 / (len(axes) * shots_per_axis)
    records = []
    for a, (theta_a, phi_a) in enumerate(axes):
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=int(seed), spawn_key=(a,)))
        )
        sigma_phi_a = float(noise.azimuth_sigma(phi_a))
        if not noise.has_axis_noise:
            djs = (np.rint(rng.normal(0.0, sigma_j, size=shots_per_axis))
                   if sigma_j > 0.0 else np.zeros(shots_per_axis))
            u = rng.random(shots_per_axis)
            p = _probabilities(s, theta_a, phi_a)
        else:
            # per shot, in stream order: dj, the phase jitter, (t1, t2), the outcome
            # uniform; normal(0, sigma) draws are sigma * standard_normal() bitwise
            n_z = (sigma_j > 0.0) + (sigma_phi_a > 0.0) + 2 * (noise.sigma_omega > 0.0)
            z = np.empty((shots_per_axis, n_z))
            u = np.empty(shots_per_axis)
            for i in range(shots_per_axis):
                z[i] = rng.standard_normal(n_z)
                u[i] = rng.random()
            cols = iter(z.T)
            djs = np.rint(sigma_j * next(cols)) if sigma_j > 0.0 else np.zeros(shots_per_axis)
            th = np.full(shots_per_axis, float(theta_a))
            ph = (phi_a + sigma_phi_a * next(cols) if sigma_phi_a > 0.0
                  else np.full(shots_per_axis, float(phi_a)))
            if noise.sigma_omega > 0.0:
                th, ph = _tilted_axes(th, ph, sigma_t * next(cols), sigma_t * next(cols))
            p = _probabilities(s, th, ph)
        two_m = 2 * _draw(p, u) - two_j
        two_j_n = np.maximum(two_j + 2 * djs.astype(int), np.abs(two_m))
        records.extend(MeasurementRecord(theta_a, phi_a, weight, jn, m)
                       for jn, m in zip(two_j_n.tolist(), two_m.tolist()))
    return records


def exact_records(s, axes, axis_weights=None):
    """Infinite-data records: one entry per (axis, outcome) weighted by c_a p_m.

    Replaces the sample sum by its expectation; feeding these to the
    backprojection realizes the infinite-data limit on the given axes.
    """
    if len(axes) == 0:
        raise ValueError("at least one axis is required")
    if axis_weights is None:
        axis_weights = np.full(len(axes), 1.0 / len(axes))
    axis_weights = np.asarray(axis_weights, dtype=float)
    if axis_weights.shape != (len(axes),):
        raise ValueError("axis_weights must match the number of axes")
    two_j = s.two_j_ref
    p = _physical(_probabilities(s, [a[0] for a in axes], [a[1] for a in axes]))
    w = (axis_weights[:, None] * p).tolist()
    records = []
    for (theta_a, phi_a), pa, wa in zip(axes, p, w):
        records.extend(MeasurementRecord(theta_a, phi_a, wa[i], two_j, 2 * i - two_j)
                       for i in np.flatnonzero(pa > 0.0).tolist())
    return records
