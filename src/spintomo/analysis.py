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
from .forward import projection_probabilities
from .states import _check_noise, _damping, _wave_sums

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


def moments(s, theta, phi):
    """First two projection moments (<m>, <m^2>) along the axes (theta, phi).

    Two floats for scalar theta and phi, else two arrays of their broadcast
    shape.  Uses only the k <= 2 coefficients, which are the most
    noise-robust part of any reconstruction; the coupling table is that of
    the state's reference spin.
    """
    # p.m and p.m^2 of the k <= 2 part of p_m: sum_m m tau_k and sum_m m^2 tau_k
    # vanish for k > 2
    shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
    kuse = min(2, s.kmax)
    p = _wave_sums(s, theta, phi, kuse) @ cg_tau_table(s.two_j_ref, kuse)
    m = np.arange(s.two_j_ref + 1) - s.two_j_ref / 2.0
    mean, mean2 = (p @ m).reshape(shape), (p @ (m * m)).reshape(shape)
    return (float(mean), float(mean2)) if not shape else (mean, mean2)


def coherent_reference_variance(two_j, sigma_n):
    """Perpendicular-axis variance of a coherent state under number noise.

    Exact closed form; reduces to j/2 at sigma_n = 0 and approaches
    (j + sigma_n^2)/2 for large j.
    """
    check_spin_label(two_j, two_j)
    if two_j < 2:
        raise ValueError("two_j must be at least 2")
    j = two_j / 2.0
    decay = float(_damping(two_j, 2, sigma_n)[2])
    return j * (j + 1.0) / 3.0 - j * (two_j - 1.0) / 6.0 * decay


@dataclass(frozen=True)
class GaussianFit:
    amplitude: float
    mean: float
    variance: float


def _gaussian_gram(x, m, P, Jr):
    # [J | r]^T [J | r], shape (rows, 4, 4), for the fits A exp(-(m - mu)^2 / (2 sigma^2))
    # to the rows of P at x[n] = (A, mu, sigma): J = d r / d (A, mu, sigma) and the
    # residual r = A g - P are written into Jr, shape (4, rows, points), one
    # contiguous block per column, so J^T J, J^T r and |r|^2 come from one product
    a, sigma = x[:, :1], x[:, 2:]
    g, j_mu, j_sigma, r = Jr
    d = (m - x[:, 1:2]) / sigma
    np.exp(-0.5 * d * d, out=g)
    ag = a * g
    np.multiply(ag, d, out=j_mu)                 # a g d, then / sigma
    np.multiply(j_mu, d, out=j_sigma)            # a g d^2, then / sigma
    Jr[1:3] /= sigma
    np.subtract(ag, P, out=r)
    return np.matmul(Jr.transpose(1, 0, 2), Jr.transpose(1, 2, 0))


_FIT_FTOL = 1e-8    # relative reduction of the squared residual, actual and predicted
_FIT_XTOL = 1e-9    # relative size of the scaled step
_FIT_STEPS = 200    # Levenberg-Marquardt steps before a fit gives up


def _gaussian_fits(P, m):
    """Least-squares Gaussian fits to every row of P at once.

    Returns (x, ok): x[n] = (A, mu, V) for A exp(-(m - mu)^2 / (2 V)) and
    ok[n] whether row n converged to a finite fit with 1e-300 < V <=
    ptp(m)^2, four times the largest variance of any distribution on m (a
    flat or two-peaked row runs off to a huge V, which fits nothing).  One
    Levenberg-Marquardt iteration in (A, mu, sigma) runs over all rows,
    which stay in place: a mask marks the rows still iterating, and the
    other rows keep their x.  J^T J, J^T r and |r|^2 come from one batched
    Gram product of [J | r] (_gaussian_gram, which writes [J | r] into one
    buffer per call); the product at a trial point gives its squared
    residual and, once the step is taken, the next step's normal equations,
    copied into place.  Each row has its own damping lambda (Marquardt's: the
    normal equations J^T J + lambda D, D the largest squared column norms
    of J seen so far; lambda / 10 after a step that reduces the squared
    residual, x 10 after one that does not) and stops by MINPACK's rules:
    the actual and the predicted relative reduction both at most
    _FIT_FTOL, or a scaled step at most _FIT_XTOL of the scaled
    parameters.  A row whose step matrix is singular leaves as a failed
    fit.  A row's arithmetic does not depend on the other rows.
    """
    P, m = np.atleast_2d(np.asarray(P, dtype=float)), np.asarray(m, dtype=float)
    if P.ndim != 2 or P.shape[1] < 5:
        raise ValueError(f"need rows of at least 5 points to fit, got shape {P.shape}")
    n, points = P.shape
    if m.shape != (points,):
        raise ValueError(f"m must be 1-D with one entry per point: ({points},), got {m.shape}")
    pos = np.maximum(P, 0.0)
    tot = np.add.reduce(pos, axis=1)
    active = (tot > 0.0) & np.logical_and.reduce(np.isfinite(P), axis=1)
    done, lam = np.zeros(n, dtype=bool), np.full(n, 1e-3)
    D = np.full((n, 3), np.finfo(float).tiny)
    # the fit, the step matrices and [J | r] (one contiguous block of rows per column)
    x, M, Jr = np.empty((n, 3)), np.empty((n, 3, 3)), np.empty((4, n, points))
    eye, xtol2 = np.eye(3), _FIT_XTOL ** 2

    with np.errstate(all="ignore"):
        # the start: the positive part's height, mean and (at least 1/4) variance
        np.maximum(np.maximum.reduce(P, axis=1), 1e-12, out=x[:, 0])
        mu0 = np.divide(np.add.reduce(pos * m, axis=1), tot, out=x[:, 1])
        var0 = np.add.reduce(pos * (m - mu0[:, None]) ** 2, axis=1) / tot
        np.sqrt(np.maximum(var0, 0.25), out=x[:, 2])
        x[~active] = 0.0
        G = _gaussian_gram(x, m, P, Jr)
        # views of G, which each taken step updates in place
        A, grad, f = G[:, :3, :3], G[:, :3, 3:], G[:, 3, 3]
        A_diag, M_diag = G.reshape(n, 16)[:, :15:5], M.reshape(n, 9)[:, ::4]
        for _ in range(_FIT_STEPS):
            if not active.any():
                break
            # rows that are not iterating never read their damping again
            np.maximum(D, A_diag, out=D)
            # a non-finite row leaves the fit; the identity keeps it, and every
            # row that is not iterating, out of the solve
            active &= np.logical_and.reduce(np.isfinite(A), axis=(1, 2))
            np.copyto(M, A)
            M_diag += lam[:, None] * D                # J^T J + lambda D
            M[~active] = eye
            try:
                h = -np.linalg.solve(M, grad)[..., 0]
            except np.linalg.LinAlgError:
                # only now look for the rows whose step is singular: each leaves as a failed fit
                for i in np.flatnonzero(active):
                    try:
                        np.linalg.solve(M[i], grad[i])
                    except np.linalg.LinAlgError:
                        active[i] = False
                M[~active] = eye
                h = -np.linalg.solve(M, grad)[..., 0]
            xt = x + h
            Gt = _gaussian_gram(xt, m, P, Jr)
            actual = 1.0 - Gt[:, 3, 3] / f
            hDh = np.add.reduce(D * h * h, axis=1)
            # |J h|^2 + 2 lambda h^T D h, as (J^T J + lambda D) h = -grad
            pred = (lam * hDh - np.add.reduce(h * grad[..., 0], axis=1)) / f
            ratio = actual / pred
            good = ratio > 1e-4
            stop = (((np.abs(actual) <= _FIT_FTOL) & (pred <= _FIT_FTOL) & (ratio <= 2.0))
                    | (hDh <= xtol2 * np.add.reduce(D * x * x, axis=1)))
            step = active & good
            np.copyto(x, xt, where=step[:, None])
            np.copyto(G, Gt, where=step[:, None, None])
            lam *= np.where(good, 0.1, 10.0)
            stop &= active
            done |= stop
            active ^= stop
    x[:, 2] **= 2
    ok = (done & np.logical_and.reduce(np.isfinite(x), axis=1) & (x[:, 2] > 1e-300)
          & (x[:, 2] <= (m.max() - m.min()) ** 2))
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


def _squeezing_db(v, sigma_n, v_coh):
    """10 log10((V - sigma_n^2 / 2) / V_coh), or None where that argument is not positive."""
    arg = (v - sigma_n ** 2 / 2.0) / v_coh
    return 10.0 * math.log10(arg) if arg > 0.0 else None


@dataclass(frozen=True)
class SqueezingReport:
    """Outcome of a squeezing scan over equatorial quantization axes.

    variance_curve rows are (phi, V_direct, V_fit); V_fit is NaN where
    the Gaussian fit failed.  squeezing_db is the Gaussian-fit headline
    number, None when the noise-subtracted variance is non-positive
    (flagged instead of taking an invalid log).  When no fit converges
    (fit_failures equals the number of azimuths), phi_s, v_min_fit and the
    headline come from the smallest direct variance instead.
    """

    phi_s: float
    variance_curve: list
    v_coh: float
    squeezing_db: float | None
    v_min_fit: float
    fit_failures: int


def squeezing_scan(s, phis, sigma_n, j_mean=None):
    """Scan projection variance over equatorial azimuths, report squeezing.

    One partial-wave pass gives p_m at every phi.  The direct variance
    comes from its moments p . m and p . m^2 (equal to :func:`moments` up
    to rounding, as sum_m m^n tau_k vanishes for k > n), and the
    Gaussian-fit variance from a fit to the same p_m.  The imaging-noise
    floor sigma_n^2/2 is subtracted before normalizing by the
    coherent-state reference j_mean/2, where j_mean defaults to
    two_j_ref/2.  Negative dB means spin squeezing.
    """
    if s.kmax < 2:
        raise ValueError("squeezing scan needs a state with kmax >= 2")
    if s.two_j_ref < 4:
        raise ValueError("squeezing scan needs two_j_ref >= 4 for the 5 projections a Gaussian "
                         f"fit needs, got two_j_ref = {s.two_j_ref}")
    _check_noise("sigma_n", sigma_n)
    j_mean = s.two_j_ref / 2.0 if j_mean is None else j_mean
    if not (math.isfinite(j_mean) and j_mean > 0.0):
        raise ValueError(f"j_mean must be finite and positive, got {j_mean}")
    m = np.arange(s.two_j_ref + 1) - s.two_j_ref / 2.0
    phis = np.asarray(phis, dtype=float).ravel()
    if phis.size == 0:
        raise ValueError("squeezing scan needs at least one azimuth")
    P = projection_probabilities(s, math.pi / 2.0, phis)
    means, mean2s = P @ m, P @ (m * m)
    fits, ok = _gaussian_fits(P, m)
    v_fits = np.where(ok, fits[:, 2], math.nan)
    curve = list(zip(phis.tolist(), (mean2s - means ** 2).tolist(), v_fits.tolist()))
    failures = ok.size - int(np.count_nonzero(ok))

    v_coh = j_mean / 2.0
    # the smallest fitted variance, nearest phi = 0 on a tie; the direct ones if no fit converged
    valid = [(v_fit, abs(phi), phi) for phi, _, v_fit in curve if not math.isnan(v_fit)]
    v_min, _, phi_s = min(valid or [(v_d, abs(phi), phi) for phi, v_d, _ in curve])
    return SqueezingReport(phi_s=float(phi_s), variance_curve=curve, v_coh=float(v_coh),
                           squeezing_db=_squeezing_db(v_min, sigma_n, v_coh),
                           v_min_fit=float(v_min), fit_failures=failures)


def mean_spin_vector(s):
    """<S> = (<Sx>, <Sy>, <Sz>) from first moments along the lab axes."""
    return moments(s, [math.pi / 2.0, math.pi / 2.0, 0.0], [0.0, math.pi / 2.0, 0.0])[0]
