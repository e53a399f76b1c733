import math

import numpy as np
import pytest

from spintomo.analysis import moments
from spintomo.forward import projection_probabilities
from spintomo.states import (
    DickeState,
    SphericalState,
    coherent_state,
    dicke_basis_state,
    dicke_to_spherical,
    grid_theta_weights,
    maximally_mixed_state,
    oat_squeezed_state,
    sphere_integral,
    spherical_to_dicke,
    spin_expectation_from_grid,
    wigner_eval,
    wigner_grid,
)

import oracles

rng = np.random.default_rng(1234)


# ---------------------------------------------------------------- containers

def test_spherical_state_is_immutable_and_validated():
    s = maximally_mixed_state(4, kmax=2)
    with pytest.raises(ValueError):
        s.coeffs[0, 2] = 1.0  # read-only array
    s.validate()
    bad = np.zeros((3, 5), dtype=complex)
    bad[1, 3] = 1.0  # rho_11 set without its mirror
    broken = SphericalState(4, 2, bad)
    with pytest.raises(ValueError):
        broken.validate()


def test_spherical_state_shape_checks():
    with pytest.raises(ValueError):
        SphericalState(4, 6, np.zeros((7, 13)))  # kmax > two_j_ref
    with pytest.raises(ValueError):
        SphericalState(4, 2, np.zeros((2, 2)))


def test_dicke_state_requires_hermitian():
    mat = np.zeros((3, 3), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(ValueError):
        DickeState(2, mat)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_states_reject_non_finite_entries(bad):
    # NaN passes every comparison-based check, so it must be rejected explicitly
    coeffs = np.zeros((3, 5), dtype=complex)
    coeffs[0, 2] = 0.5
    coeffs[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        SphericalState(4, 2, coeffs)
    mat = np.eye(3, dtype=complex) / 3.0
    mat[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        DickeState(2, mat)


# ---------------------------------------------------------------- conversions

def test_dicke_to_spherical_halfspin_example():
    rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # |1/2, +1/2>
    s = dicke_to_spherical(DickeState(1, rho), 1)
    assert s.coeff(0, 0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert s.coeff(1, 0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert s.coeff(1, 1) == 0.0
    assert s.coeff(1, -1) == 0.0


def test_maximally_mixed_conversion():
    two_j = 8
    rho = np.eye(two_j + 1, dtype=complex) / (two_j + 1)
    s = dicke_to_spherical(DickeState(two_j, rho), two_j)
    assert s.coeff(0, 0) == pytest.approx(1.0 / math.sqrt(two_j + 1.0))
    higher = s.coeffs.copy()
    higher[0, two_j] = 0.0
    assert np.abs(higher).max() < 1e-14


@pytest.mark.parametrize("two_j", [1, 4, 7, 10])
def test_round_trip_random_hermitian(two_j):
    rho = oracles.random_hermitian(two_j, rng)
    d = DickeState(two_j, rho)
    s = dicke_to_spherical(d, two_j)
    s.validate(tol=1e-12)
    back = spherical_to_dicke(s)
    assert np.abs(back.matrix - rho).max() < 1e-12


def test_spherical_to_dicke_isotropic():
    two_j = 6
    s = maximally_mixed_state(two_j, kmax=0)
    d = spherical_to_dicke(s)
    assert np.allclose(d.matrix, np.eye(7) / 7.0, atol=1e-14)


def test_halfspin_inverse_pair():
    rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    s = dicke_to_spherical(DickeState(1, rho), 1)
    back = spherical_to_dicke(s)
    assert np.abs(back.matrix - rho).max() < 1e-14


def test_desk_scale_guard():
    with pytest.raises(ValueError):
        dicke_to_spherical(DickeState(402, np.eye(403) / 403.0), 2)


# ---------------------------------------------------------------- Wigner evaluation

def test_wigner_eval_mixed_state_constant():
    two_j = 10
    s = maximally_mixed_state(two_j, kmax=0)
    want = 1.0 / math.sqrt(4.0 * math.pi * (two_j + 1.0))
    for theta, phi in [(0.0, 0.0), (1.0, 2.0), (3.0, -1.0)]:
        assert wigner_eval(s, theta, phi) == pytest.approx(want, rel=1e-12)


def test_wigner_eval_halfspin_pole():
    rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    s = dicke_to_spherical(DickeState(1, rho), 1)
    want = (1.0 + math.sqrt(3.0)) / math.sqrt(8.0 * math.pi)
    assert wigner_eval(s, 0.0, 0.0) == pytest.approx(want, rel=1e-10)


def test_wigner_eval_rejects_theta_outside_range():
    s = coherent_state(8, 0.4, 0.5, 0.0, kmax=8)
    for theta in (4.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="outside"):
            wigner_eval(s, theta, 0.5)
    with pytest.raises(ValueError, match="outside"):
        wigner_eval(s, np.array([0.5, 4.0]), 0.5)


def test_wigner_eval_rejects_invariant_violation():
    bad = np.zeros((3, 5), dtype=complex)
    bad[0, 2] = 1.0
    bad[2, 4] = 1.0j  # no mirrored partner
    s = SphericalState(4, 2, bad)
    with pytest.raises(ValueError):
        wigner_eval(s, np.linspace(0.1, 3.0, 7), 1.0)


def test_sphere_integral_equals_monopole():
    two_j = 12
    rho = oracles.random_density_matrix(two_j, rng)
    s = dicke_to_spherical(DickeState(two_j, rho), two_j)
    g = wigner_grid(s, 48, 96)
    want = math.sqrt(4.0 * math.pi) * s.coeff(0, 0).real
    assert sphere_integral(g) == pytest.approx(want, abs=1e-10)
    assert want == pytest.approx(math.sqrt(4.0 * math.pi / (two_j + 1.0)), rel=1e-12)


def test_grid_matches_pointwise_eval():
    s = coherent_state(10, 0.8, 0.3, 0.0, kmax=10)
    g = wigner_grid(s, 8, 12)
    th, ph = np.meshgrid(g.theta, g.phi, indexing="ij")
    assert np.allclose(g.values, wigner_eval(s, th, ph), atol=1e-12)


def test_grid_requires_min_size():
    s = maximally_mixed_state(2)
    with pytest.raises(ValueError):
        wigner_grid(s, 1, 8)


# ---------------------------------------------------------------- grid quadrature

def test_theta_weights_integrate_polynomials():
    from scipy.special import eval_legendre

    w = grid_theta_weights(64)
    theta = (np.arange(64) + 0.5) * math.pi / 64.0
    x = np.cos(theta)
    assert w.sum() == pytest.approx(2.0, rel=1e-13)
    for deg in range(1, 60):
        assert w @ eval_legendre(deg, x) == pytest.approx(0.0, abs=1e-12)


def test_grid_center_of_mass_matches_moments():
    two_j = 20
    for _ in range(3):
        rho = oracles.random_density_matrix(two_j, rng)
        s = dicke_to_spherical(DickeState(two_j, rho), two_j)
        g = wigner_grid(s, 64, 128)
        vec = spin_expectation_from_grid(g, two_j)
        mz = moments(s, 0.0, 0.0)[0]
        mx = moments(s, math.pi / 2.0, 0.0)[0]
        my = moments(s, math.pi / 2.0, math.pi / 2.0)[0]
        assert vec == pytest.approx(np.array([mx, my, mz]), abs=1e-6)


def test_grid_refinement_stability():
    s = coherent_state(80, 1.1, 0.4, 0.0, kmax=40)
    coarse = spin_expectation_from_grid(wigner_grid(s, 64, 128), 80)
    fine = spin_expectation_from_grid(wigner_grid(s, 128, 256), 80)
    assert np.abs(coarse - fine).max() < 1e-6


# ---------------------------------------------------------------- generators

def test_coherent_state_pole_is_tau_column():
    from spintomo.angular import cg_tau_table

    s = coherent_state(14, 0.0, 0.0, 0.0, kmax=14)
    tau = cg_tau_table(14, 14)
    assert np.allclose(s.coeffs[:, 14], tau[:, 14], atol=1e-13)
    off = s.coeffs.copy()
    off[:, 14] = 0.0
    assert np.abs(off).max() < 1e-13


def test_coherent_state_points_along_axis():
    theta0, phi0 = 1.05, -2.4
    s = coherent_state(40, theta0, phi0, 0.0, kmax=40)
    g = wigner_grid(s, 96, 192)
    vec = spin_expectation_from_grid(g, 40)
    norm = np.linalg.norm(vec)
    want = np.array([math.sin(theta0) * math.cos(phi0),
                     math.sin(theta0) * math.sin(phi0),
                     math.cos(theta0)])
    angle = math.degrees(math.acos(np.clip(vec @ want / norm, -1.0, 1.0)))
    assert angle < 0.1
    assert norm == pytest.approx(20.0, rel=1e-9)


def test_coherent_state_matches_dicke_oracle():
    two_j = 9
    theta0, phi0 = 0.7, 1.9
    s = coherent_state(two_j, theta0, phi0, 0.0, kmax=two_j)
    rho = oracles.coherent_dicke(two_j, theta0, phi0)
    s2 = dicke_to_spherical(DickeState(two_j, rho), two_j)
    assert np.abs(s.coeffs - s2.coeffs).max() < 1e-12


def test_coherent_perpendicular_variance():
    two_j = 40
    s = coherent_state(two_j, 0.0, 0.0, 0.0, kmax=4)
    mean, mean2 = moments(s, math.pi / 2.0, 0.77)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert mean2 - mean ** 2 == pytest.approx(two_j / 4.0, rel=1e-10)


def test_coherent_number_noise_needs_enough_spin():
    with pytest.raises(ValueError):
        coherent_state(1, 0.0, 0.0, 2.0, kmax=1)


def test_dicke_basis_state_properties():
    from spintomo.forward import projection_probabilities

    s = dicke_basis_state(10, 4, 10)
    p = projection_probabilities(s, 0.0, 0.0)
    want = np.zeros(11)
    want[(4 + 10) // 2] = 1.0
    assert np.allclose(p, want, atol=1e-12)
    # m = j reduces to the coherent state at the pole
    a = dicke_basis_state(12, 12, 12)
    b = coherent_state(12, 0.0, 0.0, 0.0, kmax=12)
    assert np.abs(a.coeffs - b.coeffs).max() < 1e-13


def test_oat_chi_zero_is_coherent():
    a = oat_squeezed_state(16, 0.0, 16)
    b = coherent_state(16, 0.0, 0.0, 0.0, kmax=16)
    assert np.abs(a.coeffs - b.coeffs).max() < 1e-10


def test_oat_preserves_trace_and_squeezes():
    two_j = 40
    s = oat_squeezed_state(two_j, 0.05, two_j)
    s.validate()
    assert s.coeff(0, 0).real == pytest.approx(1.0 / math.sqrt(two_j + 1.0), rel=1e-10)
    # squeezing present below the coherent j/2 reference; variance curve
    # along equatorial axes matches the Dicke-basis oracle pointwise
    d = spherical_to_dicke(s)
    _, vmin = oracles.min_variance_azimuth(d.matrix, two_j)
    assert vmin < two_j / 4.0
    phis = np.linspace(-math.pi / 2.0, math.pi / 2.0, 61)
    for phi in phis:
        m1, m2 = moments(s, math.pi / 2.0, phi)
        want = oracles.dicke_moments(d.matrix, two_j, math.pi / 2.0, phi)
        assert m1 == pytest.approx(want[0], abs=1e-9)
        assert m2 == pytest.approx(want[1], rel=1e-9)
    direct = [moments(s, math.pi / 2.0, p) for p in phis]
    vs = [m2 - m1 ** 2 for m1, m2 in direct]
    assert min(vs) < two_j / 4.0
    assert min(vs) >= vmin - 1e-9


@pytest.mark.parametrize("two_j", [160, 400])
def test_oat_round_trip_at_large_j(two_j):
    rho = oracles.oat_dicke(two_j, 0.05)
    back = spherical_to_dicke(dicke_to_spherical(DickeState(two_j, rho), two_j))
    assert np.abs(back.matrix - rho).max() < 1e-10


def test_oat_probabilities_match_dicke_diagonal():
    two_j = 160
    p = projection_probabilities(oat_squeezed_state(two_j, 0.05, two_j), 0.0, 0.0)
    assert np.abs(p - np.diag(oracles.oat_dicke(two_j, 0.05)).real).max() < 1e-10


def test_oat_size_guard():
    with pytest.raises(ValueError):
        oat_squeezed_state(402, 0.01, 10)
