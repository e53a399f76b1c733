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
    with pytest.raises(ValueError, match="reality invariant"):
        SphericalState(4, 2, bad)


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
        spherical_to_dicke(maximally_mixed_state(2002, 0))


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
    bad[2, 4] = 1.0j  # no mirrored partner: the state cannot be built, so never evaluated
    with pytest.raises(ValueError, match="reality invariant"):
        SphericalState(4, 2, bad)


def test_spherical_state_rejects_imaginary_rho_k0():
    coeffs = np.zeros((3, 5), dtype=complex)
    coeffs[0, 2] = 0.5
    coeffs[1, 2] = 0.2j  # Im rho_10: P_1 vanishes on the equator, so it must be caught here
    with pytest.raises(ValueError, match="rho_k0 is not real"):
        SphericalState(4, 2, coeffs)
    coeffs[1, 2] = 1e-12j  # round-off stays within the tolerance
    SphericalState(4, 2, coeffs)
    coeffs[1, 2] = 0.0
    coeffs[1, 4] = coeffs[1, 0] = 0.1  # (k, q) = (1, +-2) mirror, but lie outside |q| <= k
    with pytest.raises(ValueError, match="outside"):
        SphericalState(4, 2, coeffs)


@pytest.mark.parametrize("two_j, kmax", [(1, 1), (4, 4), (17, 12), (30, 30), (61, 30)])
def test_evaluators_match_direct_harmonic_sum(two_j, kmax):
    # random Hermitian states against sum_kq rho_kq Y_kq over both signs of q, and
    # the moments against explicit rotation of the Dicke matrix
    rho = oracles.random_hermitian(two_j, rng)
    s = dicke_to_spherical(DickeState(two_j, rho), kmax)

    def direct(theta, phi):
        return sum(s.coeff(k, q) * oracles.sph_harm_y(k, q, theta, phi)
                   for k in range(kmax + 1) for q in range(-k, k + 1))

    theta = rng.uniform(0.0, math.pi, 40)
    phi = rng.uniform(-math.pi, 2.0 * math.pi, 40)
    want = direct(theta, phi)
    scale = max(1.0, float(np.abs(want).max()))
    assert np.abs(want.imag).max() < 1e-12 * scale
    assert np.abs(wigner_eval(s, theta, phi) - want.real).max() < 1e-12 * scale
    g = wigner_grid(s, 7, 9)
    want = direct(g.theta[:, None], g.phi[None, :])
    assert np.abs(g.values - want.real).max() < 1e-12 * max(1.0, float(np.abs(want).max()))
    for t, f in zip(theta[:5], phi[:5]):
        got = np.array(moments(s, t, f))
        ref = np.array(oracles.dicke_moments(rho, two_j, t, f))
        assert np.abs(got - ref).max() < 1e-12 * max(1.0, float(np.abs(ref).max()))


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
        oat_squeezed_state(2002, 0.01, 10)


@pytest.mark.parametrize("chi", [0.0, 0.05, 0.3, math.pi / 2.0, 2.0])
@pytest.mark.parametrize("two_j", [1, 2, 3, 15, 16, 41])
def test_oat_matches_exponential_oracle(two_j, chi):
    d = spherical_to_dicke(oat_squeezed_state(two_j, chi, two_j))
    assert np.abs(d.matrix - oracles.oat_dicke(two_j, chi)).max() < 1e-12


@pytest.mark.parametrize("chi", [0.004, 0.02])
def test_oat_min_variance_matches_kitagawa_ueda(chi):
    # Kitagawa & Ueda, PRA 47, 5138 (1993), with mu = 2 chi for exp(-i chi Jz^2)
    two_j = 1260
    j = two_j / 2.0
    s = oat_squeezed_state(two_j, chi, 2)
    var = []
    for phi in (0.0, math.pi / 4.0, math.pi / 2.0):
        m1, m2 = moments(s, math.pi / 2.0, phi)
        var.append(m2 - m1 ** 2)
    cxx, cyy = var[0], var[2]
    cxy = var[1] - 0.5 * (cxx + cyy)
    vmin = 0.5 * (cxx + cyy) - math.hypot(0.5 * (cxx - cyy), cxy)
    a = 1.0 - math.cos(2.0 * chi) ** (two_j - 2)
    b = 4.0 * math.sin(chi) * math.cos(chi) ** (two_j - 2)
    want = 0.5 * j * (1.0 + (two_j - 1.0) / 4.0 * (a - math.hypot(a, b)))
    assert vmin == pytest.approx(want, rel=1e-7)
