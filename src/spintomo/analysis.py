"""Quantitative extraction from reconstructed states.

Angular power spectra, projection moments along arbitrary axes, the
coherent-state reference variance, Gaussian fits to projection
distributions (robust to the mild non-positivity of backprojected
states), and spin-squeezing scans in dB.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import leastsq

from .angular import cg_tau_table, check_spin_label
from .forward import _probabilities
from .states import _wave_sums

__all__ = [
    "GaussianFit",
    "SqueezingReport",
    "power_spectrum",
    "moments",
    "coherent_reference_variance",
    "gaussian_fit",
    "squeezing_scan",
    "mean_spin_vector",
]


def power_spectrum(s):
    """Angular power spectrum C_k = (2k+1)^(-1) sum_q |rho_kq|^2."""
    k = np.arange(s.kmax + 1, dtype=float)
    return np.sum(np.abs(s.coeffs) ** 2, axis=1) / (2.0 * k + 1.0)


def _moments(s, theta, phi):
    # (<m>, <m^2>) along n axes (theta, phi broadcast), as two (n,) arrays: p.m and p.m^2
    # of the k <= 2 part of p_m, since sum_m m tau_k and sum_m m^2 tau_k vanish for k > 2
    kuse = min(2, s.kmax)
    p = _wave_sums(s, theta, phi, kuse) @ cg_tau_table(s.two_j_ref, kuse)
    m = np.arange(s.two_j_ref + 1) - s.two_j_ref / 2.0
    return p @ m, p @ (m * m)


def moments(s, theta, phi):
    """First two projection moments (<m>, <m^2>) along the axis (theta, phi).

    Uses only the k <= 2 coefficients, which are the most noise-robust
    part of any reconstruction; the coupling table is that of the state's
    reference spin.
    """
    mean, mean2 = _moments(s, theta, phi)
    return float(mean[0]), float(mean2[0])


def coherent_reference_variance(two_j, sigma_n):
    """Perpendicular-axis variance of a coherent state under number noise.

    Exact closed form; reduces to j/2 at sigma_n = 0 and approaches
    (j + sigma_n^2)/2 for large j.
    """
    check_spin_label(two_j, two_j)
    if two_j < 2:
        raise ValueError("two_j must be at least 2")
    if sigma_n < 0.0:
        raise ValueError("sigma_n must be non-negative")
    j = two_j / 2.0
    decay = math.exp(-6.0 * sigma_n ** 2 / (two_j * (two_j - 1.0)))
    return j * (j + 1.0) / 3.0 - j * (two_j - 1.0) / 6.0 * decay


@dataclass(frozen=True)
class GaussianFit:
    amplitude: float
    mean: float
    variance: float


def _gaussian_residual(x, m, p):
    # x = (A, mu, sigma)
    return x[0] * np.exp(-((m - x[1]) ** 2) / (2.0 * x[2] ** 2)) - p


def _gaussian_jacobian(x, m, p):
    # d residual / d (A, mu, sigma), one row per point
    d = (m - x[1]) / x[2]
    g = np.exp(-0.5 * d * d)
    return np.stack([g, x[0] * g * d / x[2], x[0] * g * d * d / x[2]], axis=1)


def gaussian_fit(p, m=None):
    """Least-squares Gaussian fit A exp(-(m - mu)^2 / (2 V)) to a p_m vector.

    Entries may be negative (reconstruction artifacts); the fit does not
    require positivity.  Returns None on non-convergence or a degenerate
    variance, in which case callers fall back to direct moments.
    """
    p = np.asarray(p, dtype=float)
    if p.size < 5:
        raise ValueError("need at least 5 points to fit")
    if m is None:
        m = np.arange(p.size) - (p.size - 1) / 2.0
    m = np.asarray(m, dtype=float)

    pos = np.clip(p, 0.0, None)
    tot = pos.sum()
    if tot <= 0.0 or not np.all(np.isfinite(p)):
        return None
    mu0 = float(pos @ m) / tot
    var0 = max(float(pos @ (m - mu0) ** 2) / tot, 0.25)
    x0 = np.array([max(p.max(), 1e-12), mu0, math.sqrt(var0)])

    # MINPACK's Levenberg-Marquardt (lmder), the routine behind
    # least_squares(method="lm"), with the same tolerances and less overhead per call
    try:
        x, _, _, _, info = leastsq(_gaussian_residual, x0, args=(m, p),
                                   Dfun=_gaussian_jacobian, full_output=True,
                                   ftol=1e-8, xtol=1e-9, gtol=1e-8, maxfev=600)
    except (ValueError, FloatingPointError):
        return None
    variance = float(x[2] ** 2)
    if info not in (1, 2, 3, 4) or not np.all(np.isfinite(x)) or variance <= 1e-300:
        return None
    return GaussianFit(float(x[0]), float(x[1]), variance)


@dataclass(frozen=True)
class SqueezingReport:
    """Outcome of a squeezing scan over equatorial quantization axes.

    variance_curve rows are (phi, V_direct, V_fit); V_fit is NaN where
    the Gaussian fit failed.  squeezing_db is the Gaussian-fit headline
    number, None when the noise-subtracted variance is non-positive
    (flagged instead of taking an invalid log).
    """

    phi_s: float
    variance_curve: list
    v_coh: float
    squeezing_db: float | None
    v_min_fit: float
    fit_failures: int


def squeezing_scan(s, phis, sigma_n, j_mean):
    """Scan projection variance over equatorial azimuths, report squeezing.

    For each phi both the direct second-moment variance and the
    Gaussian-fit variance are computed; the imaging-noise floor
    sigma_n^2/2 is subtracted before normalizing by the coherent-state
    reference j_mean/2.  Negative dB means spin squeezing.
    """
    if s.kmax < 2:
        raise ValueError("squeezing scan needs a state with kmax >= 2")
    if not (math.isfinite(sigma_n) and sigma_n >= 0.0):
        raise ValueError(f"sigma_n must be finite and non-negative, got {sigma_n}")
    if not (math.isfinite(j_mean) and j_mean > 0.0):
        raise ValueError(f"j_mean must be finite and positive, got {j_mean}")
    two_j = s.two_j_ref
    m = (2.0 * np.arange(two_j + 1) - two_j) / 2.0
    phis = np.asarray(phis, dtype=float).ravel()
    if phis.size == 0:
        raise ValueError("squeezing scan needs at least one azimuth")
    means, mean2s = _moments(s, math.pi / 2.0, phis)
    curve = []
    failures = 0
    for phi, mean, mean2, p in zip(phis, means, mean2s,
                                   _probabilities(s, math.pi / 2.0, phis)):
        v_direct = mean2 - mean ** 2
        fit = gaussian_fit(p, m)
        if fit is None:
            failures += 1
            v_fit = math.nan
        else:
            v_fit = fit.variance
        curve.append((float(phi), float(v_direct), float(v_fit)))

    v_coh = j_mean / 2.0
    valid = [(v_fit, abs(phi), phi) for phi, _, v_fit in curve if not math.isnan(v_fit)]
    if valid:
        v_min, _, phi_s = min(valid)
    else:
        v_min, _, phi_s = min((v_d, abs(phi), phi) for phi, v_d, _ in curve)
    arg = (v_min - sigma_n ** 2 / 2.0) / v_coh
    db = 10.0 * math.log10(arg) if arg > 0.0 else None
    return SqueezingReport(phi_s=float(phi_s), variance_curve=curve, v_coh=float(v_coh),
                           squeezing_db=db, v_min_fit=float(v_min), fit_failures=failures)


def mean_spin_vector(s):
    """<S> = (<Sx>, <Sy>, <Sz>) from first moments along the lab axes."""
    return _moments(s, [math.pi / 2.0, math.pi / 2.0, 0.0], [0.0, math.pi / 2.0, 0.0])[0]
