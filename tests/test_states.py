import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintomo import states
from spintomo.analysis import moments
from spintomo.forward import exact_records, projection_probabilities
from spintomo.states import (
    DickeState,
    SphericalState,
    coherent_state,
    dicke_basis_state,
    dicke_to_spherical,
    maximally_mixed_state,
    oat_squeezed_state,
    spherical_to_dicke,
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


def test_states_check_entries_near_the_double_limit():
    # |big| overflows to inf, so a tolerance scaled by max |entry| let any error through
    big = 1.7976931348623155e308 + 3.280811678258314e300j
    mat = np.zeros((2, 2), dtype=complex)
    mat[0, 1], mat[1, 0] = big, 1.0
    with pytest.raises(ValueError, match="not Hermitian"):
        DickeState(1, mat)
    mat[1, 0] = big.conjugate()
    assert DickeState(1, mat).matrix[1, 0] == big.conjugate()
    coeffs = np.zeros((2, 3), dtype=complex)
    coeffs[0, 1] = 1e300j
    coeffs[1, 2], coeffs[1, 0] = big, -big.conjugate()
    with pytest.raises(ValueError, match="rho_k0 is not real: imaginary part 1e\\+300"):
        SphericalState(2, 1, coeffs)


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


@pytest.mark.parametrize("build, message", [
    (lambda: DickeState(2, np.eye(2)), r"shape \(2, 2\), expected \(3, 3\)"),
    (lambda: states.WignerGrid([0.1, 0.2], [0.0, 1.0, 2.0], np.zeros((2, 2))),
     r"values shape \(2, 2\) does not match grid \(2, 3\)"),
    (lambda: states.WignerGrid([0.1, 0.2], [0.0, 1.0], [[0.0, math.inf], [0.0, 0.0]]),
     "grid contains non-finite values"),
    (lambda: dicke_to_spherical(spherical_to_dicke(dicke_basis_state(4, 0, 4)), 5),
     r"kmax = 5 outside 0\.\.two_j = 4"),
    (lambda: dicke_to_spherical(spherical_to_dicke(dicke_basis_state(4, 0, 4)), -1),
     r"kmax = -1 outside 0\.\.two_j = 4"),
], ids=["dicke_shape", "grid_shape", "grid_non_finite", "dicke_to_spherical_kmax_high",
        "dicke_to_spherical_kmax_low"])
def test_containers_and_conversions_refuse_bad_input(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# ---------------------------------------------------------------- conversions

def test_dicke_to_spherical_halfspin_example():
    rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)  # |1/2, +1/2>
    s = dicke_to_spherical(DickeState(1, rho), 1)
    assert oracles.coeff(s, 0, 0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert oracles.coeff(s, 1, 0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert oracles.coeff(s, 1, 1) == 0.0
    assert oracles.coeff(s, 1, -1) == 0.0


def test_maximally_mixed_conversion():
    two_j = 8
    rho = np.eye(two_j + 1, dtype=complex) / (two_j + 1)
    s = dicke_to_spherical(DickeState(two_j, rho), two_j)
    assert oracles.coeff(s, 0, 0) == pytest.approx(1.0 / math.sqrt(two_j + 1.0))
    higher = s.coeffs.copy()
    higher[0, two_j] = 0.0
    assert np.abs(higher).max() < 1e-14


@pytest.mark.parametrize("two_j", [1, 4, 7, 10])
def test_round_trip_random_hermitian(two_j):
    rho = oracles.random_hermitian(two_j, rng)
    d = DickeState(two_j, rho)
    s = dicke_to_spherical(d, two_j)
    # the producer mirrors the q < 0 half and takes the real part of rho_k0,
    # so the invariant rho_{k,-q} = (-1)^q conj(rho_kq) holds bitwise
    q = np.arange(-two_j, two_j + 1)
    assert np.array_equal(s.coeffs[:, ::-1], np.where(q % 2, -1.0, 1.0) * s.coeffs.conj())
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


_PAST_PI = float(np.nextafter(math.pi, 4.0))


@pytest.mark.parametrize("theta, phi", [
    (_PAST_PI, 0.5), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
    (np.array([0.5, 1.0]), np.array([0.2, math.nan])),
])
@pytest.mark.parametrize("evaluate", [wigner_eval, projection_probabilities, moments])
def test_partial_wave_kernel_refuses_angles_outside_the_domain(evaluate, theta, phi):
    # theta in [0, pi] exactly and phi finite, as for records
    s = coherent_state(8, 0.4, 0.5, 0.0, kmax=8)
    with pytest.raises(ValueError, match=r"outside \[0, pi\]|phi must be finite"):
        evaluate(s, theta, phi)


def test_angle_domain_ends_are_accepted():
    s = coherent_state(8, 0.0, 0.0, 0.0, kmax=8)  # spin up along +z, j = 4
    assert moments(s, 0.0, 1.0)[0] == pytest.approx(4.0, rel=1e-12)
    assert moments(s, math.pi, 1.0)[0] == pytest.approx(-4.0, rel=1e-12)
    p = projection_probabilities(s, np.array([0.0, math.pi]), 0.0)
    assert p[0, -1] == pytest.approx(1.0, rel=1e-12) and p[1, 0] == pytest.approx(1.0, rel=1e-12)
    assert wigner_eval(s, 0.0, 0.0) > wigner_eval(s, math.pi, 0.0)
    records = exact_records(s, [(0.0, 0.0), (math.pi, 0.3)])
    assert set(records.theta.tolist()) == {0.0, math.pi}
    assert np.isfinite(coherent_state(8, math.pi, 0.0, 0.0, kmax=8).coeffs).all()


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
        return sum(oracles.coeff(s, k, q) * oracles.sph_harm_y(k, q, theta, phi)
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


# ---------------------------------------------------------------- partial-wave kernel

_POLAR = {"north pole": 0.0, "equator": math.pi / 2.0, "south pole": math.pi}


def _assert_matches_table_oracle(s, theta, phi, kuse):
    got = states._wave_sums(s, theta, phi, kuse)
    want = oracles.wave_sums_table(s, theta, phi, kuse)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), two_j=st.integers(0, 40), data=st.data(),
       layout=st.sampled_from(sorted(_POLAR) + ["random polar angle", "scattered"]))
def test_wave_sums_match_table_oracle(seed, two_j, data, layout):
    # both routes: one polar angle shared by every point (cached table), and
    # scattered polar angles, both poles among them (the streaming ladder)
    r = np.random.default_rng(seed)
    kmax = data.draw(st.integers(0, two_j), label="kmax")
    kuse = data.draw(st.integers(0, kmax), label="kuse")
    s = dicke_to_spherical(DickeState(two_j, oracles.random_hermitian(two_j, r)), kmax)
    n = data.draw(st.integers(1, 12), label="points")
    if layout == "scattered":
        theta = r.permutation(np.concatenate([[0.0, math.pi], r.uniform(0.0, math.pi, n)]))
        n += 2
    else:
        theta = _POLAR.get(layout, r.uniform(0.0, math.pi))
        if data.draw(st.booleans(), label="theta as an array"):
            theta = np.full(n, theta)
    _assert_matches_table_oracle(s, theta, r.uniform(-2.0 * math.pi, 4.0 * math.pi, n), kuse)


@pytest.mark.parametrize("layout", ["one polar angle", "scattered"])
def test_wave_sums_do_not_depend_on_the_chunking(layout, monkeypatch):
    s = dicke_to_spherical(DickeState(16, oracles.random_hermitian(16, rng)), 16)
    theta = (math.pi / 2.0 if layout == "one polar angle"
             else np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, 23)]))
    phi = rng.uniform(0.0, 2.0 * math.pi, 25)
    monkeypatch.setattr(states, "_CHUNK_BUDGET", 1e12)  # all points in one chunk
    whole = states._wave_sums(s, theta, phi, 16)
    monkeypatch.setattr(states, "_CHUNK_BUDGET", 1)  # one point per chunk
    assert np.array_equal(states._wave_sums(s, theta, phi, 16), whole)


@pytest.mark.parametrize("layout", ["one polar angle", "scattered"])
def test_wave_sums_order_factor_reads_each_point_of_its_damped_state(layout, monkeypatch):
    # damp[n, q] scales point n's order q: each point's sums are those of the state with
    # rho_kq exp(-q^2 sigma_n^2 / 2) (oracles.damped_state); a factor of ones changes
    # no bit, and neither does the chunking
    s = dicke_to_spherical(DickeState(16, oracles.random_hermitian(16, rng)), 16)
    theta = (math.pi / 2.0 if layout == "one polar angle"
             else np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, 23)]))
    phi, sigma = rng.uniform(0.0, 2.0 * math.pi, 25), rng.uniform(0.0, 0.5, 25)
    damp = np.exp(-0.5 * np.outer(sigma ** 2, np.arange(17) ** 2))
    got = states._wave_sums(s, theta, phi, 16, damp)
    want = np.concatenate([states._wave_sums(oracles.damped_state(s, 0.0, sigma[n]), t, phi[n], 16)
                           for n, t in enumerate(np.broadcast_to(theta, phi.shape))])
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(got - states._wave_sums(s, theta, phi, 16)).max() > 1e-3 * np.abs(want).max()
    assert np.array_equal(states._wave_sums(s, theta, phi, 16, np.ones((25, 17))),
                          states._wave_sums(s, theta, phi, 16))
    monkeypatch.setattr(states, "_CHUNK_BUDGET", 1)  # one point per chunk
    assert np.array_equal(states._wave_sums(s, theta, phi, 16, damp), got)


@pytest.mark.parametrize("budget", ["default", 1])
@pytest.mark.parametrize("kuse", [0, 1, 7, 8, 9, 23, 40])
def test_scattered_wave_sums_equal_the_row_by_row_ladder_bitwise(kuse, budget, monkeypatch):
    # the ladder hands its rows over a block at a time around the arithmetic of the
    # row-by-row route it replaced; block ends at kuse 7, 8 and 9, both poles among the points
    r = np.random.default_rng(kuse)
    s = oat_squeezed_state(40, 0.05, 40) if kuse > 9 else dicke_to_spherical(
        DickeState(kuse, oracles.random_hermitian(kuse, r)), kuse)
    theta = r.permutation(np.concatenate([[0.0, math.pi], r.uniform(0.0, math.pi, 48)]))
    phi = r.uniform(-2.0 * math.pi, 4.0 * math.pi, 50)
    if budget == 1:
        monkeypatch.setattr(states, "_CHUNK_BUDGET", 1)  # one point per chunk
    got = states._wave_sums(s, theta, phi, kuse)
    assert np.array_equal(got, oracles.wave_sums_ladder_reference(s, theta, phi, kuse))


def test_polar_table_cache_keeps_each_angle_apart():
    # theta1, theta2, theta1 again: the third call reads the first call's table
    s = dicke_to_spherical(DickeState(10, oracles.random_hermitian(10, rng)), 10)
    phi = rng.uniform(0.0, 2.0 * math.pi, 7)
    states._polar_table.cache_clear()
    for theta in (0.4, 1.1, 0.4):
        _assert_matches_table_oracle(s, theta, phi, 10)
    info = states._polar_table.cache_info()
    assert (info.hits, info.misses) == (1, 2)
    table = states._polar_table(10, float(np.cos(0.4)))
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


def test_sphere_integral_equals_monopole():
    two_j = 12
    rho = oracles.random_density_matrix(two_j, rng)
    s = dicke_to_spherical(DickeState(two_j, rho), two_j)
    g = wigner_grid(s, 48, 96)
    want = math.sqrt(4.0 * math.pi) * oracles.coeff(s, 0, 0).real
    assert oracles.sphere_integral(g) == pytest.approx(want, abs=1e-10)
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
    # a non-integer size is refused, not rounded into a node on the pole or at 2 pi;
    # NumPy integers are integers
    for n_theta, n_phi in ((2.5, 4), (3, 4.5), (3.0, 4)):
        with pytest.raises(ValueError, match="must be integers"):
            wigner_grid(s, n_theta, n_phi)
    assert np.array_equal(wigner_grid(s, np.int64(3), np.int32(4)).values,
                          wigner_grid(s, 3, 4).values)


# ---------------------------------------------------------------- grid quadrature

def test_theta_weights_integrate_polynomials():
    from scipy.special import eval_legendre

    w = oracles.grid_theta_weights(64)
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
        vec = oracles.spin_expectation_from_grid(g, two_j)
        mz = moments(s, 0.0, 0.0)[0]
        mx = moments(s, math.pi / 2.0, 0.0)[0]
        my = moments(s, math.pi / 2.0, math.pi / 2.0)[0]
        assert vec == pytest.approx(np.array([mx, my, mz]), abs=1e-6)


def test_grid_refinement_stability():
    s = coherent_state(80, 1.1, 0.4, 0.0, kmax=40)
    coarse = oracles.spin_expectation_from_grid(wigner_grid(s, 64, 128), 80)
    fine = oracles.spin_expectation_from_grid(wigner_grid(s, 128, 256), 80)
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
    vec = oracles.spin_expectation_from_grid(g, 40)
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
    from spintomo.forward import exact_records, projection_probabilities

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
    assert oracles.coeff(s, 0, 0).real == pytest.approx(1.0 / math.sqrt(two_j + 1.0), rel=1e-10)
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
