import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintomo.angular import (
    _coupling_table,
    _hemi_overlap_orders,
    _tau_at,
    cg_tau_table,
    hemi_overlap,
    legendre_sph_table,
    pochhammer_half,
    rot_elements_axis,
)
from spintomo.reconstruct import xi_contribution

import oracles

rng = np.random.default_rng(20260810)


# ---------------------------------------------------------------- tau

def _tau(two_j, two_m, k):
    return cg_tau_table(two_j, k)[k, (two_m + two_j) // 2]


def test_tau_normalization_examples():
    assert _tau(1, 1, 0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert _tau(40, 32, 0) == pytest.approx(1.0 / math.sqrt(41.0), rel=1e-12)


def test_tau_racah_example():
    # frozen from the log-factorial Racah oracle for <1,0;1,0|2,0> with sign (-1)^(j-m)
    assert _tau(2, 0, 2) == pytest.approx(-math.sqrt(2.0 / 3.0), rel=1e-12)


@pytest.mark.parametrize("two_j", [1, 2, 3, 7, 12, 41, 100])
def test_tau_k0_is_normalization(two_j):
    tab = cg_tau_table(two_j, two_j)
    assert np.allclose(tab[0], 1.0 / math.sqrt(two_j + 1.0), rtol=1e-12)


@pytest.mark.parametrize("two_j", list(range(0, 61)))
def test_tau_orthogonality_small(two_j):
    tab = cg_tau_table(two_j, two_j)
    gram = tab @ tab.T
    assert np.abs(gram - np.eye(two_j + 1)).max() < 1e-10


def test_tau_orthogonality_large():
    tab = cg_tau_table(400, 400)
    gram = tab @ tab.T
    assert np.abs(gram - np.eye(401)).max() < 1e-8


def test_tau_reflection_exact():
    for two_j in (5, 8, 13):
        tab = cg_tau_table(two_j, two_j)
        for k in range(two_j + 1):
            sign = (-1.0) ** k
            for two_m in range(-two_j, two_j + 1, 2):
                i = (two_m + two_j) // 2
                assert tab[k, i] == sign * tab[k, two_j - i]


def test_tau_agrees_with_racah():
    for two_j in range(1, 21):
        tab = cg_tau_table(two_j, two_j)
        for k in range(two_j + 1):
            for i, two_m in enumerate(range(-two_j, two_j + 1, 2)):
                want = oracles.cg_t(two_j, two_m, two_m, k, 0)
                assert tab[k, i] == pytest.approx(want, rel=1e-9, abs=1e-13)


def test_tau_domain_errors():
    with pytest.raises(ValueError):
        cg_tau_table(4, 5)  # k > 2j


# ---------------------------------------------------------------- general CG

def test_cg_textbook_values():
    assert oracles.cg_general(1, 1, 1, -1, 0, 0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert oracles.cg_general(2, 2, 2, -2, 2, 0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert oracles.cg_general(2, 0, 2, 0, 2, 0) == 0.0


def test_cg_selection_rules():
    assert oracles.cg_general(2, 2, 2, 0, 2, 0) == 0.0  # q != m1 + m2
    assert oracles.cg_general(2, 0, 2, 0, 10, 0) == 0.0  # triangle violated
    with pytest.raises(ValueError):
        oracles.cg_general(1, 1, 2, 0, 2, 1)  # (k, q) parity makes the label malformed


def test_cg_against_sympy():
    labels = []
    for _ in range(40):
        two_j1 = int(rng.integers(0, 7))
        two_j2 = int(rng.integers(0, 7))
        lo, hi = abs(two_j1 - two_j2), two_j1 + two_j2
        two_k = int(rng.choice(np.arange(lo, hi + 1, 2))) if hi >= lo else 0
        two_m1 = int(rng.choice(np.arange(-two_j1, two_j1 + 1, 2)))
        two_m2 = int(rng.choice(np.arange(-two_j2, two_j2 + 1, 2)))
        labels.append((two_j1, two_m1, two_j2, two_m2, two_k, two_m1 + two_m2))
    for lab in labels:
        if abs(lab[5]) > lab[4]:
            continue
        want = oracles.racah_cg(*lab)
        got = oracles.cg_general(*lab)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-12), lab


def test_cg_orthogonality_fixed_j1j2():
    # sum over (m1, m2) of CG(j1 m1 j2 m2 | K Q) CG(j1 m1 j2 m2 | K' Q') = delta
    two_j1 = two_j2 = 3
    for two_k, two_kp in [(2, 2), (2, 4), (6, 6), (0, 4)]:
        for two_q in range(-two_k, two_k + 1, 2):
            acc = 0.0
            for two_m1 in range(-two_j1, two_j1 + 1, 2):
                two_m2 = two_q - two_m1
                if abs(two_m2) > two_j2:
                    continue
                acc += (oracles.cg_general(two_j1, two_m1, two_j2, two_m2, two_k, two_q)
                        * oracles.cg_general(two_j1, two_m1, two_j2, two_m2, two_kp, two_q))
            want = 1.0 if (two_k == two_kp) else 0.0
            assert acc == pytest.approx(want, abs=1e-12)


def test_coupling_table_matches_scalar():
    for two_j in range(1, 11):
        for k in range(two_j + 1):
            for q in range(-k, k + 1):
                two_m, table = oracles.coupling_table_signed(two_j, q, two_j)
                for tm, v in zip(two_m, table[k]):
                    want = oracles.cg_t(two_j, int(tm), int(tm) - 2 * q, k, q)
                    assert v == pytest.approx(want, rel=1e-11, abs=1e-13)


# (two_j, k, q): the rows where a Racah sum in floating point loses most,
# then a random sample over all orders, both signs of q included
_LARGE_J_ROWS = [(100, 30, 10), (200, 60, 20), (400, 40, 10), (400, 400, 0), (400, 400, 400)]
_rows_rng = np.random.default_rng(7)
for _two_j in (100, 200, 400):
    for _ in range(6):
        _k = int(_rows_rng.integers(0, _two_j + 1))
        _LARGE_J_ROWS.append((_two_j, _k, int(_rows_rng.integers(-_k, _k + 1))))


@pytest.mark.parametrize("two_j,k,q", _LARGE_J_ROWS)
def test_coupling_table_matches_exact_at_large_j(two_j, k, q):
    two_m, table = oracles.coupling_table_signed(two_j, q, k)
    row = table[k]
    picks = np.unique(np.linspace(0, two_m.size - 1, 7).astype(int))
    picks = np.union1d(picks, [int(np.argmax(np.abs(row)))])
    want = np.array([oracles.cg_t(two_j, int(tm), int(tm) - 2 * q, k, q) for tm in two_m[picks]])
    assert np.abs(row[picks] - want).max() < 1e-11 * np.abs(row).max()


@pytest.mark.parametrize("two_j", [40, 400, 1260, 2000])
def test_tau_low_wave_sums_stay_accurate_at_paper_scale(two_j):
    # sum_m tau_0 = sqrt(2j+1), |sum_m m tau_1| = sqrt(j(j+1)(2j+1)/3) and
    # sum_m m^2 tau_0 = j(j+1) sqrt(2j+1) / 3, the sums behind the trace and the
    # moments; the worst relative error is 9.8e-13 (m tau_1 at 2j = 2000)
    tau = cg_tau_table(two_j, 1)
    j = two_j / 2.0
    m = np.arange(two_j + 1) - j
    got = [tau[0].sum(), abs(m @ tau[1]), (m * m) @ tau[0]]
    want = [math.sqrt(two_j + 1.0), math.sqrt(j * (j + 1.0) * (two_j + 1.0) / 3.0),
            j * (j + 1.0) * math.sqrt(two_j + 1.0) / 3.0]
    assert np.abs(np.array(got) / want - 1.0).max() <= 2e-12


def test_tau_table_full_at_paper_scale():
    # rows near k = 2j start from a stretched-edge seed below the double range
    tab = cg_tau_table(1260, 1260)
    assert np.abs(tab @ tab.T - np.eye(1261)).max() < 1e-10


@pytest.mark.parametrize("q", [0, 1, 10, 50, 150])
def test_coupling_table_orthogonal_at_paper_scale(q):
    # sum_m t_kq t_k'q = delta_kk' for q <= k, k' <= 200 at N = 1260 atoms
    _, table = _coupling_table(1260, q, 200)
    gram = table @ table.T
    want = np.diag((np.arange(201) >= q).astype(float))
    assert np.abs(gram - want).max() < 1e-11


def test_coupling_recursion_raises_beyond_double_range():
    # rows near k = 2j would overflow once raised above e^-700; 2038 is the last finite table
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="double range"):
            cg_tau_table(2040, 2040)
        with pytest.raises(ValueError, match="double range"):
            _coupling_table(2100, 5, 2100)
        _, table = _coupling_table(2038, 0, 2038)  # cg_tau_table(2038, 2038), not cached
    assert np.isfinite(table).all()


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), spins=st.lists(st.integers(0, 300), min_size=1, max_size=4))
def test_tau_at_pairs_equals_the_tables_bit_for_bit(data, spins):
    # mixed spins, both signs of m and m = 0 (even 2j), kmax up to the largest spin;
    # a pair of spin 2j < kmax reads +0 at k > 2j
    kmax = data.draw(st.integers(0, max(spins)), label="kmax")
    two_j, two_m = [], []
    for tj in spins:
        for i in data.draw(st.lists(st.integers(0, tj), min_size=1, max_size=5), label="m"):
            two_j.append(tj)
            two_m.append(2 * i - tj)
        if tj % 2 == 0:
            two_j.append(tj)
            two_m.append(0)
    two_j, two_m = np.array(two_j), np.array(two_m)
    got = _tau_at(two_j, two_m, kmax)
    assert got.shape == (kmax + 1, two_j.size)
    for p, (tj, tm) in enumerate(zip(two_j.tolist(), two_m.tolist())):
        want = np.zeros(kmax + 1)
        kj = min(kmax, tj)
        want[: kj + 1] = cg_tau_table.__wrapped__(tj, kj)[:, (tm + tj) // 2]
        assert np.array_equal(_bits(got[:, p]), _bits(want))


def test_tau_at_pairs_at_paper_scale_equal_the_tables_bit_for_bit():
    for two_j in (1259, 1260, 1261):
        table = cg_tau_table.__wrapped__(two_j, 159)
        two_m = 2 * np.array([0, 600, 629, 630, 640, two_j]) - two_j
        got = _tau_at(np.full(two_m.size, two_j), two_m, 159)
        assert np.array_equal(_bits(got), _bits(table[:, (two_m + two_j) // 2]))


def test_tau_at_raises_beyond_double_range():
    # the centre of 2j = 2040 at k = 2040, as cg_tau_table(2040, 2040) would read it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="two_j = 2040, q = 0 leaves the double range"):
            _tau_at(np.array([4, 2040]), np.array([0, 0]), 2040)


# ---------------------------------------------------------------- Legendre

# Xi_{jm}(x) = (4 pi)^(-1/2) sum_k (2k+1)^(3/2) tau_k^{j,m} P_k(x), xi_contribution's series

def _xi_coefficients(two_j, two_m, kmax):
    k = np.arange(kmax + 1, dtype=float)
    return (2.0 * k + 1.0) ** 1.5 * cg_tau_table(two_j, kmax)[:, (two_m + two_j) // 2] \
        / math.sqrt(4.0 * math.pi)


def test_legendre_examples():
    # spin 1/2 up: tau_0 = tau_1 = 1/sqrt(2), so Xi(x) = (1 + 3 sqrt(3) x) / sqrt(8 pi)
    for x in (-1.0, -0.25, 0.0, 0.5, 1.0):
        want = (1.0 + 3.0 * math.sqrt(3.0) * x) / math.sqrt(8.0 * math.pi)
        assert xi_contribution(1, 1, x, 1) == pytest.approx(want, rel=1e-14, abs=1e-15)
    # P_k(+-1) = (+-1)^k
    c = _xi_coefficients(40, 32, 40)
    ends = xi_contribution(40, 32, np.array([1.0, -1.0]), 40)
    sign = np.where(np.arange(41) % 2 == 0, 1.0, -1.0)
    assert ends == pytest.approx([c.sum(), sign @ c], rel=1e-13)
    # within 1e-13 max|Xi| of the sum over the plain recurrence's table
    x = np.linspace(-1.0, 1.0, 2001)
    want = c @ oracles.legendre_table(40, x)
    assert np.abs(xi_contribution(40, 32, x, 40) - want).max() <= 1e-13 * np.abs(want).max()


def test_xi_contribution_is_the_series_of_the_table_column():
    # xi_contribution reads its coefficients from one pair; they are the table's bits
    x = np.linspace(-1.0, 1.0, 101)
    for two_j, two_m, kmax in ((1, -1, 1), (40, 0, 40), (40, -32, 23), (41, 7, 30)):
        want = np.polynomial.legendre.legval(x, _xi_coefficients(two_j, two_m, kmax))
        assert np.array_equal(_bits(xi_contribution(two_j, two_m, x, kmax)), _bits(want))
    with pytest.raises(ValueError, match="kmax = 41 outside 0..two_j = 40"):
        xi_contribution(40, 0, 0.5, 41)


def test_legendre_against_scipy():
    from scipy.special import eval_legendre

    x = rng.uniform(-1.0, 1.0, size=50)
    for two_j, two_m, kmax in ((30, 30, 30), (30, -4, 30), (40, 32, 20)):
        c = _xi_coefficients(two_j, two_m, kmax)
        terms = c[:, None] * np.array([eval_legendre(k, x) for k in range(kmax + 1)])
        want = terms.sum(axis=0)
        # the atol floor, far below the rtol, serves a sum that cancels to near zero
        assert np.allclose(xi_contribution(two_j, two_m, x, kmax), want, rtol=1e-12,
                           atol=1e-14 * np.abs(terms).sum(axis=0).max())


def test_legendre_domain_error():
    for x in (1.5, -1.5, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), math.nan,
              np.array([0.5, 1.5])):
        with pytest.raises(ValueError, match="outside"):
            xi_contribution(4, 0, x, 4)


# ---------------------------------------------------------------- angle domain

@pytest.mark.parametrize("theta, phi", [
    (-0.1, 0.5), (float(np.nextafter(math.pi, 4.0)), 0.5), (math.nan, 0.5),
    (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
])
def test_rot_elements_refuse_angles_outside_the_domain(theta, phi):
    with pytest.raises(ValueError, match=r"outside \[0, pi\]|phi must be finite"):
        rot_elements_axis(3, theta, phi)


@pytest.mark.parametrize("x", [2.0, -2.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0),
                               math.nan, np.array([0.5, 2.0])])
def test_legendre_sph_table_refuses_x_outside_the_unit_interval(x):
    with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
        legendre_sph_table(3, x)


def test_angle_domain_ends_are_accepted_by_the_kernels():
    # D^k_00 at the poles is P_k(+-1) = (+-1)^k
    for theta, sign in ((0.0, 1.0), (math.pi, -1.0)):
        d = rot_elements_axis(4, theta, 0.0)
        assert d[:, 4].real == pytest.approx(sign ** np.arange(5), rel=1e-12)
    assert np.isfinite(legendre_sph_table(4, np.array([-1.0, 1.0]))).all()
    assert np.isfinite(xi_contribution(4, 0, np.array([-1.0, 1.0]), 4)).all()


# ---------------------------------------------------------------- rotation elements

def test_rot_element_trivial_cases():
    # column kmax + q holds D^k_{q0}
    assert rot_elements_axis(2, math.pi / 2.0, 1.234)[2, 2] == pytest.approx(-0.5)
    pole = rot_elements_axis(3, 0.0, 0.0)
    assert pole[3, 3] == pytest.approx(1.0)
    assert pole[3, 3 + 2] == 0.0
    # explicit Y_11 = -sqrt(3/8pi) sin(theta) e^(i phi)
    assert rot_elements_axis(1, math.pi / 2.0, 0.0)[1, 2] == pytest.approx(-1.0 / math.sqrt(2.0))


def test_rot_elements_match_scipy_harmonics():
    kmax = 12
    for theta, phi in [(0.3, 0.0), (1.1, 2.5), (2.7, -1.2)]:
        d = rot_elements_axis(kmax, theta, phi)
        for k in range(kmax + 1):
            for q in range(-k, k + 1):
                want = (math.sqrt(4.0 * math.pi / (2.0 * k + 1.0))
                        * np.conj(oracles.sph_harm_y(k, q, theta, phi)))
                assert d[k, kmax + q] == pytest.approx(want, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("k", [1, 10, 100, 500])
def test_rotation_row_unitarity(k):
    for theta, phi in [(0.1, 0.4), (1.3, 2.0), (2.9, -0.7), (1.5707, 3.0)]:
        d = rot_elements_axis(k, theta, phi)
        row = (np.abs(d[k]) ** 2).sum()
        assert row == pytest.approx(1.0, abs=1e-10)


def test_rotation_stable_at_high_degree():
    d = rot_elements_axis(2000, 1.0, 0.5)
    assert np.all(np.isfinite(d.view(float)))
    assert (np.abs(d[2000]) ** 2).sum() == pytest.approx(1.0, abs=1e-9)


def test_rot_element_conjugation_symmetry():
    d = rot_elements_axis(9, 0.8, 1.9)
    for k in range(10):
        for q in range(1, k + 1):
            assert d[k, 9 - q] == (-1.0) ** q * np.conj(d[k, 9 + q])


# ---------------------------------------------------------------- Pochhammer

def test_pochhammer_half_values():
    assert pochhammer_half(1.0) == pytest.approx(math.sqrt(math.pi) / 2.0)
    assert pochhammer_half(0.5) == pytest.approx(1.0 / math.sqrt(math.pi))
    # exact log-Gamma value; the sqrt(a) - 1/(8 sqrt(a)) shorthand is only approximate
    assert pochhammer_half(10.0) == pytest.approx(3.1230114334, rel=1e-9)
    approx = math.sqrt(10.0) - 1.0 / (8.0 * math.sqrt(10.0))
    assert abs(pochhammer_half(10.0) - approx) / approx < 1e-3
    # elementwise over an array: the scalar values, in the array's shape
    a = np.array([[1.0, 0.5, 10.0], [2.5, 130.5, 0.25]])
    got = pochhammer_half(a)
    assert got.shape == a.shape
    assert isinstance(pochhammer_half(1.0), float)
    assert all(got[i] == pochhammer_half(float(a[i])) for i in np.ndindex(a.shape))


def test_pochhammer_half_domain():
    with pytest.raises(ValueError):
        pochhammer_half(0.0)
    with pytest.raises(ValueError):
        pochhammer_half(-2.0)


# ---------------------------------------------------------------- hemispherical overlaps

def test_hemi_overlap_special_cases():
    assert hemi_overlap(7, 7, 3) == 1.0
    assert hemi_overlap(0, 1, 0) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-12)
    assert hemi_overlap(0, 2, 0) == 0.0


def test_hemi_overlap_against_quadrature():
    for q in range(0, 6):
        for k in range(q, 18):
            for kp in range(q, 18):
                want = oracles.hemi_overlap_quadrature(k, kp, q)
                assert hemi_overlap(k, kp, q) == pytest.approx(want, abs=1e-10)


def _overlap_matrix(kmax, q):
    # the builder's matrix of order q over the degrees 0..kmax, zero below q
    out = np.zeros((kmax + 1, kmax + 1))
    out[q:, q:] = _hemi_overlap_orders(kmax, q, q + 1)[0]
    return out


def test_hemi_overlap_symmetry_and_matrix():
    for q in range(6):
        mat = _overlap_matrix(25, q)
        assert np.allclose(mat, mat.T, atol=0.0)
        for k in range(q, 26):
            for kp in range(q, 26):
                assert mat[k, kp] == hemi_overlap(k, kp, q)


def test_hemi_overlap_invalid_q():
    with pytest.raises(ValueError):
        hemi_overlap(2, 5, 3)


def test_hemi_overlap_matrix_large_kmax_against_quadrature():
    # 128 Gauss-Legendre nodes integrate the degree <= 240 products exactly
    kmax = 120
    tables = oracles.hemi_overlap_tables_quadrature(kmax, n=128)
    for q in range(kmax + 1):
        mat = _overlap_matrix(kmax, q)
        assert np.array_equal(mat, mat.T), q
        assert np.all(np.diag(mat)[q:] == 1.0), q
        assert np.abs(mat - tables[q]).max() < 1e-11, q


@pytest.mark.parametrize("kmax", [23, 29, 60])
def test_hemi_overlap_chunk_builder_equals_matrix_bitwise(kmax):
    # every chunking of the orders gives the matrices of the one-order chunks
    # bit for bit, zeros below the order included
    for size in (1, 3, 7, kmax + 1):
        for q0 in range(0, kmax + 1, size):
            q1 = min(q0 + size, kmax + 1)
            block = _hemi_overlap_orders(kmax, q0, q1)
            assert block.shape == (q1 - q0, kmax + 1 - q0, kmax + 1 - q0)
            for i, q in enumerate(range(q0, q1)):
                got = np.zeros((kmax + 1, kmax + 1))
                got[q0:, q0:] = block[i]
                assert got.tobytes() == _overlap_matrix(kmax, q).tobytes(), (size, q)


# ---------------------------------------------------------------- legendre_sph internals

def test_legendre_sph_matches_harmonic_theta_part():
    x = rng.uniform(-1.0, 1.0, size=8)
    theta = np.arccos(x)
    table = legendre_sph_table(10, x)
    for k in range(11):
        for q in range(k + 1):
            want = oracles.sph_harm_y(k, q, theta, 0.0).real
            assert np.allclose(table[k, q], want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("x", [0.3, np.array([-1.0, -0.5, 0.0, 1e-300, 0.7, 1.0]),
                               np.random.default_rng(5).uniform(-1.0, 1.0, (3, 4))],
                         ids=["scalar", "1-d", "2-d"])
def test_legendre_sph_equals_per_order_loop_bitwise(x):
    # the sectoral seeds as one running product take the loop's products in its order
    for kmax in range(261):
        table = legendre_sph_table(kmax, x)
        want = oracles.legendre_sph_loop(kmax, x)
        assert table.shape == (kmax + 1, kmax + 1) + np.shape(x)
        assert np.array_equal(table, want), kmax
