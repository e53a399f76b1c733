"""Quantitative extraction from reconstructed states.

Angular power spectra, projection moments along arbitrary axes, the
coherent-state reference variance, Gaussian fits to projection
distributions (robust to the mild non-positivity of backprojected
states), and spin-squeezing scans in dB.
"""

import math
from dataclasses import dataclass

import numpy as np

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
    # x = (A, mu, sigma) on the last axis; one residual per point
    d = (m - x[..., 1, None]) / x[..., 2, None]
    return x[..., 0, None] * np.exp(-0.5 * d * d) - p


def _gaussian_jacobian(x, m, p):
    # d residual / d (A, mu, sigma): shape x.shape[:-1] + (points, 3)
    a, sigma = x[..., 0, None], x[..., 2, None]
    d = (m - x[..., 1, None]) / sigma
    g = np.exp(-0.5 * d * d)
    return np.stack([g, a * g * d / sigma, a * g * d * d / sigma], axis=-1)


_FIT_FTOL = 1e-8    # relative reduction of the squared residual, actual and predicted
_FIT_XTOL = 1e-9    # relative size of the scaled step
_FIT_STEPS = 200    # Levenberg-Marquardt steps before a fit gives up


def _gaussian_fits(P, m):
    """Least-squares Gaussian fits to every row of P at once.

    Returns (x, ok): x[n] = (A, mu, V) for A exp(-(m - mu)^2 / (2 V)) and
    ok[n] whether row n converged to a finite fit with V > 1e-300.  One
    Levenberg-Marquardt iteration in (A, mu, sigma) runs over all rows.
    Each row has its own damping lambda (Marquardt's: the normal equations
    J^T J + lambda D, D the largest squared column norms of J seen so far;
    lambda / 10 after a step that reduces the squared residual, x 10 after
    one that does not) and stops by MINPACK's rules: the actual and the
    predicted relative reduction both at most _FIT_FTOL, or a scaled step
    at most _FIT_XTOL of the scaled parameters.  A row's arithmetic does
    not depend on the other rows.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    m = np.asarray(m, dtype=float)
    if P.shape[1] < 5:
        raise ValueError("need at least 5 points to fit")
    n = P.shape[0]
    x = np.zeros((n, 3))
    pos = np.clip(P, 0.0, None)
    tot = pos.sum(axis=1)
    active = np.flatnonzero((tot > 0.0) & np.isfinite(P).all(axis=1))
    mu0 = np.sum(pos[active] * m, axis=1) / tot[active]
    var0 = np.sum(pos[active] * (m - mu0[:, None]) ** 2, axis=1) / tot[active]
    x[active] = np.stack([np.maximum(P[active].max(axis=1), 1e-12), mu0,
                          np.sqrt(np.maximum(var0, 0.25))], axis=1)
    done = np.zeros(n, dtype=bool)
    lam = np.full(n, 1e-3)
    scale = np.full((n, 3), np.finfo(float).tiny)
    eye = np.eye(3)
    with np.errstate(all="ignore"):
        for _ in range(_FIT_STEPS):
            if active.size == 0:
                break
            xa, pa, la = x[active], P[active], lam[active]
            J = _gaussian_jacobian(xa, m, pa)
            r = xa[:, :1] * J[..., 0] - pa
            f = np.sum(r * r, axis=1)
            JT = np.swapaxes(J, 1, 2)
            A = JT @ J
            grad = (JT @ r[..., None])[..., 0]
            D = np.maximum(scale[active], np.diagonal(A, axis1=1, axis2=2))
            scale[active] = D
            # a non-finite row leaves the fit; the identity keeps it out of the solve
            finite = np.isfinite(A).all(axis=(1, 2))
            M = np.where(finite[:, None, None], A + la[:, None, None] * (D[..., None] * eye), eye)
            h = -np.linalg.solve(M, grad[..., None])[..., 0]
            xt = xa + h
            rt = _gaussian_residual(xt, m, pa)
            actual = 1.0 - np.sum(rt * rt, axis=1) / f
            hDh = np.sum(D * h * h, axis=1)
            # |J h|^2 + 2 lambda h^T D h, as (J^T J + lambda D) h = -grad
            pred = (la * hDh - np.sum(h * grad, axis=1)) / f
            ratio = actual / pred
            good = ratio > 1e-4
            x[active[good]] = xt[good]
            lam[active] = la * np.where(good, 0.1, 10.0)
            stop = (((np.abs(actual) <= _FIT_FTOL) & (pred <= _FIT_FTOL) & (ratio <= 2.0))
                    | (hDh <= _FIT_XTOL ** 2 * np.sum(D * xa * xa, axis=1)))
            done[active[stop & finite]] = True
            active = active[~stop & finite]
    x[:, 2] = x[:, 2] ** 2
    ok = done & np.isfinite(x).all(axis=1) & (x[:, 2] > 1e-300)
    return x, ok


def gaussian_fit(p, m=None):
    """Least-squares Gaussian fit A exp(-(m - mu)^2 / (2 V)) to a p_m vector.

    Entries may be negative (reconstruction artifacts); the fit does not
    require positivity.  Returns None on non-convergence or a degenerate
    variance, in which case callers fall back to direct moments.
    """
    p = np.asarray(p, dtype=float)
    if m is None:
        m = np.arange(p.size) - (p.size - 1) / 2.0
    x, ok = _gaussian_fits(p[None, :], m)
    if not ok[0]:
        return None
    return GaussianFit(*(float(v) for v in x[0]))


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
    if not (sigma_n >= 0.0 and math.isfinite(sigma_n * sigma_n)):
        raise ValueError(
            f"sigma_n must be finite and non-negative, with a finite square, got {sigma_n}")
    if not (math.isfinite(j_mean) and j_mean > 0.0):
        raise ValueError(f"j_mean must be finite and positive, got {j_mean}")
    two_j = s.two_j_ref
    m = (2.0 * np.arange(two_j + 1) - two_j) / 2.0
    phis = np.asarray(phis, dtype=float).ravel()
    if phis.size == 0:
        raise ValueError("squeezing scan needs at least one azimuth")
    means, mean2s = _moments(s, math.pi / 2.0, phis)
    fits, ok = _gaussian_fits(_probabilities(s, math.pi / 2.0, phis), m)
    v_fits = np.where(ok, fits[:, 2], math.nan)
    curve = list(zip(phis.tolist(), (mean2s - means ** 2).tolist(), v_fits.tolist()))
    failures = int(np.sum(~ok))

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
