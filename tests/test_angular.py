import math
import warnings

import numpy as np
import pytest

from spintomo.angular import (
    _coupling_table,
    cg_general,
    cg_t,
    cg_tau,
    cg_tau_table,
    hemi_overlap,
    hemi_overlap_matrix,
    legendre_sph_table,
    legendre_table,
    pochhammer_half,
    rot_elements_axis,
)

import oracles

rng = np.random.default_rng(20260810)


# ---------------------------------------------------------------- tau

def test_tau_normalization_examples():
    assert cg_tau(1, 1, 0) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
    assert cg_tau(40, 32, 0) == pytest.approx(1.0 / math.sqrt(41.0), rel=1e-12)


def test_tau_racah_example():
    # frozen from the log-factorial Racah oracle for <1,0;1,0|2,0> with sign (-1)^(j-m)
    assert cg_tau(2, 0, 2) == pytest.approx(-math.sqrt(2.0 / 3.0), rel=1e-12)


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
        for k in range(two_j + 1):
            for two_m in range(-two_j, two_j + 1, 2):
                got = cg_tau(two_j, two_m, k)
                want = cg_t(two_j, two_m, two_m, k, 0)
                assert got == pytest.approx(want, rel=1e-9, abs=1e-13)


def test_tau_domain_errors():
    with pytest.raises(ValueError):
        cg_tau(4, 6, 0)  # |m| > j
    with pytest.raises(ValueError):
        cg_tau(4, 1, 0)  # parity mismatch
    with pytest.raises(ValueError):
        cg_tau(4, 2, 5)  # k > 2j


# ---------------------------------------------------------------- general CG

def test_cg_textbook_values():
    assert cg_general(1, 1, 1, -1, 0, 0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert cg_general(2, 2, 2, -2, 2, 0) == pytest.approx(1.0 / math.sqrt(2.0))
    assert cg_general(2, 0, 2, 0, 2, 0) == 0.0


def test_cg_selection_rules():
    assert cg_general(2, 2, 2, 0, 2, 0) == 0.0  # q != m1 + m2
    assert cg_general(2, 0, 2, 0, 10, 0) == 0.0  # triangle violated
    with pytest.raises(ValueError):
        cg_general(1, 1, 2, 0, 2, 1)  # (k, q) parity makes the label malformed


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
        got = cg_general(*lab)
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
                acc += (cg_general(two_j1, two_m1, two_j2, two_m2, two_k, two_q)
                        * cg_general(two_j1, two_m1, two_j2, two_m2, two_kp, two_q))
            want = 1.0 if (two_k == two_kp) else 0.0
            assert acc == pytest.approx(want, abs=1e-12)


def test_coupling_table_matches_scalar():
    for two_j in (3, 6):
        for k in range(two_j + 1):
            for q in range(-k, k + 1):
                two_m, table = _coupling_table(two_j, q, two_j)
                for tm, v in zip(two_m, table[k]):
                    want = cg_t(two_j, int(tm), int(tm) - 2 * q, k, q)
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
    two_m, table = _coupling_table(two_j, q, k)
    row = table[k]
    picks = np.unique(np.linspace(0, two_m.size - 1, 7).astype(int))
    picks = np.union1d(picks, [int(np.argmax(np.abs(row)))])
    want = np.array([cg_t(two_j, int(two_m[i]), int(two_m[i]) - 2 * q, k, q) for i in picks])
    assert np.abs(row[picks] - want).max() < 1e-11 * np.abs(row).max()


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


# ---------------------------------------------------------------- Legendre

def test_legendre_examples():
    assert legendre_table(3, 0.5)[3] == -0.4375
    assert legendre_table(2, 0.0)[2] == -0.5
    ends = legendre_table(40, np.array([1.0, -1.0]))
    for k in (0, 1, 5, 40):
        assert ends[k, 0] == 1.0
        assert ends[k, 1] == (-1.0) ** k


def test_legendre_against_scipy():
    from scipy.special import eval_legendre

    x = rng.uniform(-1.0, 1.0, size=50)
    table = legendre_table(30, x)
    for k in range(31):
        assert np.allclose(table[k], eval_legendre(k, x), rtol=1e-12, atol=1e-13)


def test_legendre_domain_error():
    with pytest.raises(ValueError):
        legendre_table(3, 1.5)


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


def test_hemi_overlap_symmetry_and_matrix():
    for q in (0, 2, 5):
        mat = hemi_overlap_matrix(25, q)
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
        mat = hemi_overlap_matrix(kmax, q)
        assert np.array_equal(mat, mat.T), q
        assert np.all(np.diag(mat)[q:] == 1.0), q
        assert np.abs(mat - tables[q]).max() < 1e-11, q


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
