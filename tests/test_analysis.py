import math
import re
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintomo.analysis import (
    _gaussian_fits,
    _gaussian_gram,
    coherent_reference_variance,
    gaussian_fit,
    mean_spin_vector,
    moments,
    power_spectrum,
    squeezing_scan,
)
from spintomo.forward import (
    NoiseModel,
    projection_probabilities,
    sample_measurements,
)
from spintomo.reconstruct import ReconstructionConfig, reconstruct
from spintomo.states import (
    DickeState,
    SphericalState,
    coherent_state,
    dicke_basis_state,
    dicke_to_spherical,
    maximally_mixed_state,
    oat_squeezed_state,
    spherical_to_dicke,
)

import oracles

rng = np.random.default_rng(31415)


# ---------------------------------------------------------------- power spectrum

def test_spectrum_monopole_of_normalized_state():
    s = maximally_mixed_state(10, kmax=0)
    c = power_spectrum(s)
    assert c[0] == pytest.approx(1.0 / 11.0, rel=1e-12)


def test_spectrum_coherent_halfspin():
    s = coherent_state(1, 0.0, 0.0, 0.0, kmax=1)
    c = power_spectrum(s)
    assert c[1] == pytest.approx(1.0 / 6.0, rel=1e-12)


def test_spectrum_rotation_invariant():
    a = coherent_state(12, 0.9, 0.0, 0.0, kmax=12)
    b = coherent_state(12, 0.9, 2.2, 0.0, kmax=12)
    assert np.allclose(power_spectrum(a), power_spectrum(b), rtol=1e-10)


def test_spectrum_parseval_bookkeeping():
    two_j = 8
    rho = oracles.random_density_matrix(two_j, rng)
    s = dicke_to_spherical(DickeState(two_j, rho), two_j)
    c = power_spectrum(s)
    k = np.arange(two_j + 1)
    assert float((2 * k + 1) @ c) == pytest.approx(float(np.sum(np.abs(s.coeffs) ** 2)),
                                                   rel=1e-12)


# ---------------------------------------------------------------- moments

def test_moments_maximally_mixed():
    two_j = 10
    s = maximally_mixed_state(two_j, kmax=2)
    mean, mean2 = moments(s, 0.7, 1.3)
    j = two_j / 2.0
    assert mean == pytest.approx(0.0, abs=1e-14)
    assert mean2 == pytest.approx(j * (j + 1.0) / 3.0, rel=1e-12)


@pytest.mark.parametrize("theta, phi", [
    (np.array([0.0, 0.4, 1.9, math.pi]), np.array([0.3, -1.0, 2.5, 0.0])),
    (np.array([[0.2], [1.1], [2.7]]), np.array([-0.5, 0.0, 1.4, 3.0])),
    (math.pi / 2.0, np.array([[0.1, 0.2], [0.3, 0.4]])),
])
def test_moments_broadcast_the_angles(theta, phi):
    two_j = 6
    s = dicke_to_spherical(DickeState(two_j, oracles.random_density_matrix(
        two_j, np.random.default_rng(5))), two_j)
    mean, mean2 = moments(s, theta, phi)
    th, ph = np.broadcast_arrays(theta, phi)
    assert mean.shape == mean2.shape == th.shape
    for i in np.ndindex(th.shape):  # equal up to the rounding of a batched product
        want = moments(s, float(th[i]), float(ph[i]))
        assert abs(mean[i] - want[0]) <= 1e-14 and abs(mean2[i] - want[1]) <= 1e-13
    assert all(isinstance(v, float) for v in moments(s, 0.3, 0.4))


def test_moments_halfspin_along_z():
    rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    s = dicke_to_spherical(DickeState(1, rho), 1)
    mean, _ = moments(s, 0.0, 0.0)
    assert mean == pytest.approx(0.5, rel=1e-12)


def test_moments_match_dicke_oracle():
    two_j = 9
    rho = oracles.random_density_matrix(two_j, rng)
    s = dicke_to_spherical(DickeState(two_j, rho), two_j)
    for _ in range(5):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(-math.pi, math.pi))
        got = moments(s, theta, phi)
        want = oracles.dicke_moments(rho, two_j, theta, phi)
        assert got[0] == pytest.approx(want[0], abs=1e-10)
        assert got[1] == pytest.approx(want[1], abs=1e-10)


def test_moments_dicke_state_along_z():
    two_j = 12
    rho = np.zeros((13, 13), dtype=complex)
    rho[9, 9] = 1.0  # two_m = 6
    s = dicke_to_spherical(DickeState(two_j, rho), two_j)
    mean, mean2 = moments(s, 0.0, 0.0)
    assert mean == pytest.approx(3.0, rel=1e-12)
    assert mean2 == pytest.approx(9.0, rel=1e-12)


def test_coherent_perpendicular_variance_from_moments():
    s = coherent_state(40, 0.0, 0.0, 0.0, kmax=2)
    mean, mean2 = moments(s, math.pi / 2.0, 0.3)
    assert mean2 - mean ** 2 == pytest.approx(10.0, rel=1e-10)


# ---------------------------------------------------------------- coherent reference

def test_reference_variance_no_noise_is_half_j():
    for two_j in (2, 40, 1260, 20000):
        assert coherent_reference_variance(two_j, 0.0) == pytest.approx(
            two_j / 4.0, rel=1e-9)


def test_reference_variance_with_noise():
    v = coherent_reference_variance(1260, 11.0)
    assert abs(v - (630.0 + 121.0) / 2.0) < 0.04


def test_reference_variance_asymptotics():
    sigma = 4.0
    for two_j in (2000, 20000):
        v = coherent_reference_variance(two_j, sigma)
        resid = abs(v - two_j / 4.0 - sigma ** 2 / 2.0)
        assert resid < 2.0 * sigma ** 4 / (two_j / 2.0) ** 2


def test_reference_variance_matches_damped_coherent_moments():
    two_j, sigma = 100, 2.5
    s = coherent_state(two_j, 0.0, 0.0, sigma, kmax=4)
    mean, mean2 = moments(s, math.pi / 2.0, 1.0)
    assert mean2 - mean ** 2 == pytest.approx(
        coherent_reference_variance(two_j, sigma), rel=1e-10)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 1e200])
@pytest.mark.parametrize("build", [lambda sigma: coherent_reference_variance(40, sigma),
                                   lambda sigma: coherent_state(40, 0.3, 0.1, sigma)],
                         ids=["coherent_reference_variance", "coherent_state"])
def test_number_noise_checked_as_in_noise_model(build, bad):
    with pytest.raises(ValueError) as want:
        NoiseModel(sigma_n=bad)
    with pytest.raises(ValueError) as got:
        build(bad)
    assert str(got.value) == str(want.value)


def test_reference_variance_domain():
    with pytest.raises(ValueError):
        coherent_reference_variance(1, 0.0)


# ---------------------------------------------------------------- Gaussian fit

def test_gaussian_fit_exact_recovery():
    m = np.arange(-20, 21, dtype=float)
    p = 0.37 * np.exp(-((m - 1.7) ** 2) / (2.0 * 6.3))
    fit = gaussian_fit(p, m)
    assert fit.amplitude == pytest.approx(0.37, abs=1e-6)
    assert fit.mean == pytest.approx(1.7, abs=1e-6)
    assert fit.variance == pytest.approx(6.3, abs=1e-6)


def test_gaussian_fit_binomial_projection():
    s = coherent_state(40, 0.0, 0.0, 0.0, kmax=40)
    p = projection_probabilities(s, math.pi / 2.0, 0.0)
    m = (2.0 * np.arange(41) - 40) / 2.0
    fit = gaussian_fit(p, m)
    assert abs(fit.variance - 10.0) / 10.0 < 0.03


def test_gaussian_fit_tolerates_negative_lobes():
    m = np.arange(-15, 16, dtype=float)
    clean = np.exp(-(m ** 2) / (2.0 * 4.0))
    lobes = clean - 0.04 * np.exp(-((np.abs(m) - 8.0) ** 2) / 2.0)
    a = gaussian_fit(clean, m)
    b = gaussian_fit(lobes, m)
    assert b is not None
    assert abs(b.variance - a.variance) / a.variance < 0.10


def _fit_fixture(name):
    if name == "exact":
        m = np.arange(-20, 21, dtype=float)
        return 0.37 * np.exp(-((m - 1.7) ** 2) / (2.0 * 6.3)), m
    if name == "binomial":
        s = coherent_state(40, 0.0, 0.0, 0.0, kmax=40)
        return (projection_probabilities(s, math.pi / 2.0, 0.0),
                (2.0 * np.arange(41) - 40) / 2.0)
    if name == "squeezed":
        s = oat_squeezed_state(40, 0.05, 40)
        return (projection_probabilities(s, math.pi / 2.0, 0.4),
                (2.0 * np.arange(41) - 40) / 2.0)
    m = np.arange(-15, 16, dtype=float)
    clean = np.exp(-(m ** 2) / (2.0 * 4.0))
    if name == "clean":
        return clean, m
    return clean - 0.04 * np.exp(-((np.abs(m) - 8.0) ** 2) / 2.0), m


def test_gaussian_gram_matches_central_differences():
    m = np.arange(-12, 13, dtype=float)
    p = 0.8 * np.exp(-((m - 0.5) ** 2) / 9.0)
    h = 1e-6
    x = np.array([[0.3, 1.2, 2.5], [1.7, -3.0, 0.8], [0.05, 0.4, 6.0]])
    model = oracles.gaussian_model
    for xi, got in zip(x, _gaussian_gram(x, m, p, np.empty((4, 3, m.size)))):
        # the residual is the model minus p, so p drops out of its differences
        J = np.stack([(model(xi + h * e, m) - model(xi - h * e, m)) / (2.0 * h)
                      for e in np.eye(3)], axis=1)
        Jr = np.column_stack([J, model(xi, m) - p])
        want = Jr.T @ Jr
        assert np.abs(got - want).max() < 1e-8 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("name", ["exact", "binomial", "squeezed", "clean", "lobes"])
def test_gaussian_fit_analytic_jacobian_matches_finite_differences(name):
    p, m = _fit_fixture(name)
    fit = gaussian_fit(p, m)
    want = oracles.gaussian_fit_fd(p, m)
    got = np.array([fit.amplitude, fit.mean, fit.variance])
    # the mean is compared on the scale of the variance (it is 0 for the centred fixtures)
    assert np.all(np.abs(got - want) <= 1e-7 * np.abs(want) + np.array([0.0, 1e-7 * want[2], 0.0]))


_FAILURE_M = np.arange(-5, 6, dtype=float)
_FAILURE_ROWS = [
    np.zeros(11),                                     # nothing to fit
    -np.ones(11),                                     # no positive part
    np.exp(-_FAILURE_M ** 2 / 1e-4),                  # one spike: a singular step
    # flat and two-peaked rows run off to a variance far beyond ptp(m)^2 = 100
    np.ones(11),
    np.exp(-(_FAILURE_M - 4.0) ** 2) + np.exp(-(_FAILURE_M + 4.0) ** 2),
]


def test_gaussian_fit_failure_modes():
    for row in _FAILURE_ROWS:
        assert gaussian_fit(row, _FAILURE_M) is None
    for p in (np.ones(3), np.ones((2, 11))):          # too short, not one row
        with pytest.raises(ValueError, match="need rows of at least 5 points"):
            gaussian_fit(p)


@pytest.mark.parametrize("m", [np.arange(-4, 5.0), np.arange(-6, 7.0), np.zeros((11, 1)),
                               np.zeros((1, 11)), np.array(0.0)])
def test_gaussian_fit_refuses_points_that_do_not_match_the_rows(m):
    p = np.exp(-_FAILURE_M ** 2 / 4.0)
    message = re.escape(f"one entry per point: (11,), got {np.shape(m)}")
    with pytest.raises(ValueError, match=message):
        gaussian_fit(p, m)
    with pytest.raises(ValueError, match=message):
        _gaussian_fits(np.vstack([p, p]), m)


_SCAN_PHIS = np.linspace(-math.pi / 2.0, math.pi / 2.0, 181)


@lru_cache(maxsize=2)
def _workload_state(shape):
    # the folded reconstruction that either benchmark workload scans, seed 1
    if shape == "paper":
        truth, n_axes, shots, kmax = oat_squeezed_state(40, 0.05, 40), 24, 50, 23
        noise = NoiseModel(sigma_n=2.0, sigma_omega=0.05, phase_mode="model", sigma_ph=0.2)
    else:
        truth, n_axes, shots, kmax = coherent_state(40, 0.0, 0.0, 0.0, 40), 30, 40, 29
        noise = NoiseModel(sigma_n=3.0)
    axes = [(math.pi / 2.0, a * math.pi / n_axes) for a in range(n_axes)]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "skipped", UserWarning)  # records with 2j < kmax
        return reconstruct(sample_measurements(truth, axes, shots, noise, 1),
                           ReconstructionConfig(kmax=kmax, noise=noise, fold_north=True,
                                                two_j_ref=40))


def _workload_scan(shape):
    # the squeezing-scan input of either benchmark workload, seed 1: p_m of the
    # folded reconstruction along 181 equatorial azimuths
    P = projection_probabilities(_workload_state(shape), math.pi / 2.0, _SCAN_PHIS)
    return P, np.arange(41) - 20.0


def _with_refused_rows(P, m):
    # rows the fit must refuse (3, 4 and 7: zero, negative, one NaN), between fittable ones
    return np.vstack([P[:3], np.zeros(m.size), -np.abs(P[3]), P[4:6],
                      np.where(m == 0.0, np.nan, P[6]), P[7:]])


@pytest.mark.parametrize("shape", ["paper", "cli"])
def test_batched_fits_reach_the_least_squares_minimum(shape):
    P, m = _workload_scan(shape)
    x, ok = _gaussian_fits(P, m)
    for row, xi, oki in zip(P, x, ok):
        want = oracles.gaussian_fit_tight(row, m)
        assert oki == (want is not None)
        if want is None:
            continue
        # relative to the minimum; the mean on the scale of the variance
        assert np.all(np.abs(xi - want) <= 1e-4 * np.abs(want * [1.0, 0.0, 1.0])
                      + np.array([0.0, 1e-4 * want[2], 0.0]))


@pytest.mark.parametrize("shape", ["paper", "cli"])
def test_batched_fits_equal_fits_row_by_row(shape):
    P, m = _workload_scan(shape)
    P = _with_refused_rows(P, m)
    x, ok = _gaussian_fits(P, m)
    assert list(np.flatnonzero(~ok)) == [3, 4, 7]
    for i, row in enumerate(P):
        xi, oki = _gaussian_fits(row[None, :], m)
        assert oki[0] == ok[i]
        fit = gaussian_fit(row, m)
        assert (fit is None) == (not ok[i])
        if ok[i]:
            assert np.all(np.abs(xi[0] - x[i]) <= 1e-15 * np.abs(x[i]))
            assert (fit.amplitude, fit.mean, fit.variance) == tuple(xi[0])


@pytest.mark.parametrize("shape", ["paper", "cli"])
def test_a_singular_row_leaves_the_other_fits_bitwise(shape):
    P, m = _workload_scan(shape)
    x, ok = _gaussian_fits(P, m)
    spike = np.exp(-m ** 2 / 1e-4)
    xs, oks = _gaussian_fits(np.vstack([P[:90], spike, P[90:]]), m)
    assert not oks[90]
    assert np.array_equal(np.delete(oks, 90), ok)
    assert np.array_equal(np.delete(xs, 90, axis=0), x, equal_nan=True)


def _assert_fits_equal_the_reference(P, m):
    x, ok = _gaussian_fits(P, m)
    want_x, want_ok = oracles.gaussian_fits_reference(P, m)
    assert x.tobytes() == want_x.tobytes()
    assert ok.tobytes() == want_ok.tobytes()


@pytest.mark.parametrize("shape", ["paper", "cli"])
def test_fits_equal_the_reference_bitwise(shape):
    # the 181 rows in one call and in calls of 8, as either workload scans them,
    # and with the refused rows between them
    P, m = _workload_scan(shape)
    for rows in (P, _with_refused_rows(P, m), *(P[i:i + 8] for i in range(0, P.shape[0], 8))):
        _assert_fits_equal_the_reference(rows, m)


def test_failed_fits_equal_the_reference_bitwise():
    _assert_fits_equal_the_reference(np.vstack(_FAILURE_ROWS), _FAILURE_M)
    for row in _FAILURE_ROWS:
        _assert_fits_equal_the_reference(row[None, :], _FAILURE_M)


@settings(max_examples=60, deadline=None)
@given(points=st.integers(5, 61), rows=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_fits_equal_the_reference_on_rows_with_negative_lobes(points, rows, seed):
    # near-Gaussian rows as a noisy reconstruction gives them: negative lobes on
    # either side of the peak, and noise of either sign
    gen = np.random.default_rng(seed)
    m = np.arange(points) - (points - 1) / 2.0
    amp = gen.uniform(0.05, 1.0, (rows, 1))
    mu = gen.uniform(-0.3, 0.3, (rows, 1)) * points
    sigma = gen.uniform(0.4, 0.3 * points, (rows, 1))
    depth, at = gen.uniform(0.0, 0.15, (rows, 1)), gen.uniform(1.5, 3.0, (rows, 1))
    d = (m - mu) / sigma
    P = amp * (np.exp(-0.5 * d * d) - depth * np.exp(-2.0 * (np.abs(d) - at) ** 2))
    P += gen.normal(0.0, 0.02, P.shape) * amp
    _assert_fits_equal_the_reference(P, m)


# ---------------------------------------------------------------- squeezing scan

@pytest.mark.parametrize("shape", ["paper", "cli"])
def test_scan_in_calls_of_eight_azimuths_equals_one_call(shape):
    # the paper-inplane-noisy workload scans 181 azimuths in calls of 8; a call
    # fits its rows alone, so the curve is that of one call, failed fits (NaN) included
    state = _workload_state(shape)
    whole = np.array(squeezing_scan(state, _SCAN_PHIS, 2.0, 20.0).variance_curve)
    parts = np.vstack([squeezing_scan(state, _SCAN_PHIS[i:i + 8], 2.0, 20.0).variance_curve
                       for i in range(0, _SCAN_PHIS.size, 8)])
    assert parts.shape == whole.shape == (181, 3)
    assert parts.tobytes() == whole.tobytes()


@pytest.mark.parametrize("shape", ["paper", "cli"])
def test_scan_direct_variance_equals_moments(shape):
    # the scan's moments of the fitted p_m against the k <= 2 kernel of moments()
    state = _workload_state(shape)
    rep = squeezing_scan(state, _SCAN_PHIS, 2.0, 20.0)
    mean, mean2 = moments(state, math.pi / 2.0, _SCAN_PHIS)
    want = mean2 - mean ** 2
    got = np.array([v_direct for _, v_direct, _ in rep.variance_curve])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def test_scan_default_reference_spin_is_half_two_j_ref():
    # j_mean=None takes two_j_ref / 2, as analyze does without --j-mean
    state = _workload_state("paper")
    got = squeezing_scan(state, _SCAN_PHIS, 2.0)
    assert got == squeezing_scan(state, _SCAN_PHIS, 2.0, state.two_j_ref / 2.0)
    assert got.v_coh == 10.0


def test_scan_coherent_is_zero_db():
    s = coherent_state(40, 0.0, 0.0, 0.0, kmax=40)
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, 25)
    rep = squeezing_scan(s, phis, 0.0, 20.0)
    assert rep.fit_failures == 0
    # the Gaussian fit to a j = 20 binomial carries a ~1% kurtosis bias
    assert abs(rep.squeezing_db) < 0.1
    for _, v_direct, v_fit in rep.variance_curve:
        assert v_direct == pytest.approx(10.0, rel=1e-9)
        assert v_fit == pytest.approx(10.0, rel=0.03)


def test_scan_oat_axes_ninety_degrees_apart():
    s = oat_squeezed_state(40, 0.05, 40)
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, 181)
    rep = squeezing_scan(s, phis, 0.0, 20.0)
    assert rep.squeezing_db < -3.0
    vs = np.array([v for _, v, _ in rep.variance_curve])
    phi_min = rep.variance_curve[int(np.argmin(vs))][0]
    phi_max = rep.variance_curve[int(np.argmax(vs))][0]
    sep = abs(phi_min - phi_max) % math.pi
    assert min(sep, math.pi - sep) == pytest.approx(math.pi / 2.0, abs=0.05)
    # matches the Dicke-basis diagonalization oracle
    d = spherical_to_dicke(s)
    phi_oracle, v_oracle = oracles.min_variance_azimuth(d.matrix, 40)
    dphi = abs(rep.phi_s - phi_oracle) % math.pi
    assert min(dphi, math.pi - dphi) < math.radians(2.0)
    assert rep.v_min_fit == pytest.approx(v_oracle, rel=0.15)


def test_scan_equivariance_under_azimuthal_rotation():
    delta = 0.4
    a = oat_squeezed_state(20, 0.08, 20)
    co = a.coeffs.copy()
    for k in range(21):
        for q in range(-k, k + 1):
            co[k, 20 + q] *= np.exp(-1j * q * delta)
    b_state = a.__class__(a.two_j_ref, a.kmax, co)
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, 361)
    ra = squeezing_scan(a, phis, 0.0, 10.0)
    rb = squeezing_scan(b_state, phis, 0.0, 10.0)
    shift = (rb.phi_s - ra.phi_s - delta) % math.pi
    assert min(shift, math.pi - shift) < 0.02


def test_scan_noise_subtraction_flag():
    s = coherent_state(8, 0.0, 0.0, 0.0, kmax=8)
    rep = squeezing_scan(s, [0.0, 0.5], 10.0, 4.0)  # noise floor above variance
    assert rep.squeezing_db is None


@pytest.mark.parametrize("state, variance", [
    (maximally_mixed_state(40, 2), 20.0 * 21.0 / 3.0),    # j(j+1)/3
    (dicke_basis_state(40, 0, 40), 20.0 * 21.0 / 2.0),    # (j(j+1) - m^2)/2
], ids=["mixed", "dicke-m0"])
def test_scan_without_a_converged_fit_reports_the_direct_variance(state, variance):
    # flat or two-peaked p_m at every azimuth: every fit fails, and the headline,
    # v_min_fit and phi_s come from the smallest direct variance
    phis = np.linspace(0.0, math.pi, 5)
    rep = squeezing_scan(state, phis, 0.0)
    assert rep.fit_failures == phis.size
    assert all(math.isnan(v_fit) for _, _, v_fit in rep.variance_curve)
    v_direct, phi_s = min((v, phi) for phi, v, _ in rep.variance_curve)
    assert (rep.v_min_fit, rep.phi_s) == (v_direct, phi_s)
    assert rep.v_min_fit == pytest.approx(variance)
    assert rep.squeezing_db == pytest.approx(10.0 * math.log10(variance / 10.0))


def test_scan_needs_kmax_two():
    with pytest.raises(ValueError, match="kmax >= 2"):
        squeezing_scan(coherent_state(8, math.pi / 2.0, 0.0, 0.0, kmax=1), [0.0], 0.0)


def test_scan_requires_an_azimuth():
    s = coherent_state(8, 0.0, 0.0, 0.0, kmax=8)
    with pytest.raises(ValueError, match="at least one azimuth"):
        squeezing_scan(s, [], 0.0, 4.0)


@pytest.mark.parametrize("two_j", [2, 3])
def test_scan_refuses_a_spin_with_fewer_than_five_projections(two_j):
    # kmax = 2 passes the kmax check; the Gaussian fit needs 2j + 1 >= 5 points
    s = coherent_state(two_j, math.pi / 2.0, 0.0, 0.0, kmax=2)
    with pytest.raises(ValueError, match=r"two_j_ref >= 4 .* 5 projections"):
        squeezing_scan(s, [0.0, 0.5], 0.0, 1.0)


def test_scan_direct_exceeds_fit_on_noisy_reconstruction():
    # backprojection noise inflates the direct second-moment variance near
    # the squeezing minimum while the Gaussian fit stays close to truth
    from spintomo.forward import NoiseModel, sample_measurements
    from spintomo.reconstruct import ReconstructionConfig, reconstruct

    s = oat_squeezed_state(40, 0.05, 40)
    axes = [(math.pi / 2.0, a * math.pi / 24) for a in range(24)]
    recs = sample_measurements(s, axes, 120, NoiseModel(sigma_n=2.0), seed=20)
    cfg = ReconstructionConfig(kmax=23, mode="in-plane", fold_north=True,
                               noise=NoiseModel(sigma_n=2.0), two_j_ref=40)
    state = reconstruct(recs, cfg)
    phis = np.linspace(-math.pi / 4.0, math.pi / 4.0, 41)
    rep = squeezing_scan(state, phis, 2.0, 20.0)
    i = int(np.argmin([v for _, _, v in rep.variance_curve]))
    _, v_direct, v_fit = rep.variance_curve[i]
    assert v_direct > v_fit


@pytest.mark.parametrize("sigma_n, j_mean", [(-1.0, 4.0), (math.nan, 4.0), (math.inf, 4.0),
                                             (0.0, 0.0), (0.0, -5.0), (0.0, math.nan),
                                             (0.0, math.inf)])
def test_squeezing_scan_rejects_bad_noise_parameters(sigma_n, j_mean):
    s = coherent_state(8, math.pi / 2.0, 0.0, 0.0, kmax=8)
    with pytest.raises(ValueError, match="sigma_n|j_mean"):
        squeezing_scan(s, [0.0, 0.5], sigma_n, j_mean)


def test_moments_check_reality():
    # rho_11 and rho_22 without their q < 0 mirrors: not Hermitian
    coeffs = np.zeros((3, 5), dtype=complex)
    coeffs[0, 2] = 1.0
    coeffs[1, 3] = 1j
    coeffs[2, 4] = 0.3j
    with pytest.raises(ValueError, match="reality invariant"):
        SphericalState(4, 2, coeffs)
    # with the mirrors the state is Hermitian, and its k <= 2 moments are those of p_m
    coeffs[1, 1] = 1j
    coeffs[2, 0] = -0.3j
    s = SphericalState(4, 2, coeffs)
    m = np.arange(-2.0, 3.0)
    p = projection_probabilities(s, 0.3, 0.4)
    mean, mean2 = moments(s, 0.3, 0.4)
    assert mean == pytest.approx(p @ m, abs=1e-12)
    assert mean2 == pytest.approx(p @ m ** 2, abs=1e-12)


# ---------------------------------------------------------------- mean spin

def test_mean_spin_vector_direction():
    theta0, phi0 = 1.2, -0.8
    s = coherent_state(30, theta0, phi0, 0.0, kmax=30)
    v = mean_spin_vector(s)
    want = 15.0 * np.array([math.sin(theta0) * math.cos(phi0),
                            math.sin(theta0) * math.sin(phi0),
                            math.cos(theta0)])
    assert np.allclose(v, want, atol=1e-9)
