"""Acceptance suite: every criterion at its stated tolerance and runtime.

Each test prints one PASS line (run with ``pytest -s`` to see them all);
a failed assertion marks the criterion FAIL with full detail.
"""

import math
import time

import numpy as np

from spintomo.analysis import (
    coherent_reference_variance,
    power_spectrum,
    squeezing_scan,
)
from spintomo.angular import cg_tau_table
from spintomo.forward import NoiseModel, Records, projection_probabilities, sample_measurements
from spintomo.reconstruct import (
    ReconstructionConfig,
    apply_uniform_damping,
    compute_weights,
    fbp_full,
    fbp_inplane,
    fold_northern,
    reconstruct,
    uniform_damping_alpha,
    xi_contribution,
)
from spintomo.states import (
    DickeState,
    SphericalState,
    coherent_state,
    dicke_to_spherical,
    oat_squeezed_state,
    spherical_to_dicke,
    wigner_eval,
    wigner_grid,
)

import oracles


def _report(number, description, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {number} exceeded {budget} s ({elapsed:.2f} s)"
    print(f"ACCEPTANCE {number:2d} PASS  {description}  ({elapsed:.2f} s)")


def test_criterion_01_xi_peak_height():
    t0 = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 200_001)
    peak = float(xi_contribution(40, 32, x, 40).max())
    assert abs(peak - 163.0) <= 1.0, peak
    _report(1, f"Xi_(20,16) peak {peak:.2f} within 163 +/- 1", t0, 1.0)


def test_criterion_02_coherent_variance_identity():
    t0 = time.perf_counter()
    for two_j in (2, 40, 1260, 20_000):
        v = coherent_reference_variance(two_j, 0.0)
        assert abs(v - two_j / 4.0) <= 1e-9 * (two_j / 4.0), two_j
    _report(2, "coherent variance j/2 at sigma_N = 0, rel 1e-9", t0, 1.0)


def test_criterion_03_cg_orthogonality():
    t0 = time.perf_counter()
    tab = cg_tau_table(400, 400)
    gram = tab @ tab.T
    rng = np.random.default_rng(0)
    pairs = rng.integers(0, 401, size=(1000, 2))
    for k, kp in pairs:
        want = 1.0 if k == kp else 0.0
        assert abs(gram[k, kp] - want) < 1e-8
    worst = 0.0
    for two_j in range(0, 101):
        t = cg_tau_table(two_j, two_j)
        worst = max(worst, float(np.abs(t @ t.T - np.eye(two_j + 1)).max()))
    assert worst < 1e-10, worst
    _report(3, f"orthogonality: j = 200 sampled < 1e-8, j <= 50 worst {worst:.1e}",
            t0, 30.0)


def test_criterion_04_tau_vs_racah_exhaustive():
    # relative 1e-9, with a 1e-12 absolute floor at exact selection-rule
    # zeros where the recursion leaves ~1e-16 residue and relative error is
    # ill-posed
    t0 = time.perf_counter()
    worst = 0.0
    for two_j in range(0, 51):
        tab = cg_tau_table(two_j, two_j)
        for k in range(two_j + 1):
            for two_m in range(-two_j, two_j + 1, 2):
                racah = oracles.cg_t(two_j, two_m, two_m, k, 0)
                diff = abs(tab[k, (two_m + two_j) // 2] - racah)
                assert diff <= max(1e-9 * abs(racah), 1e-12), (two_j, k, two_m)
                if abs(racah) > 1e-6:
                    worst = max(worst, diff / abs(racah))
    _report(4, f"tau recursion vs Racah sum exhaustive j <= 25, worst rel {worst:.1e}",
            t0, 60.0)


def _random_j2_state(seed):
    rng = np.random.default_rng(seed)
    rho = oracles.random_density_matrix(4, rng)
    return dicke_to_spherical(DickeState(4, rho), 4)


def test_criterion_05_inplane_infinite_data():
    t0 = time.perf_counter()
    truth = _random_j2_state(101)
    n_axes = 32
    axes = [(math.pi / 2.0, a * math.pi / n_axes) for a in range(n_axes)]
    records = []
    for th, ph in axes:
        p = np.clip(projection_probabilities(truth, th, ph), 0.0, None)
        for i, pm in enumerate(p):
            if pm > 0.0:
                records.append((th, ph, pm / n_axes, 4, 2 * i - 4))
    out = fbp_inplane(Records.of(records),
                      ReconstructionConfig(kmax=4, mode="in-plane", two_j_ref=4))
    for k in range(5):
        for q in range(-k, k + 1):
            if (k + q) % 2 == 0:
                assert abs(oracles.coeff(out, k, q) - oracles.coeff(truth, k, q)) < 1e-8
            else:
                assert oracles.coeff(out, k, q) == 0.0
    _report(5, "in-plane infinite-data: even waves < 1e-8, odd exactly 0", t0, 1.0)


def test_criterion_06_full_sphere_infinite_data():
    t0 = time.perf_counter()
    truth = _random_j2_state(202)
    theta_q, phi_q, w = oracles.hemisphere_quadrature(64, 128)
    records = []
    for i, th in enumerate(theta_q):
        for l, ph in enumerate(phi_q):
            p = np.clip(projection_probabilities(truth, th, ph), 0.0, None)
            c = w[i, l] / (2.0 * math.pi)
            for mi, pm in enumerate(p):
                if pm > 0.0:
                    records.append((th, ph, c * pm, 4, 2 * mi - 4))
    out = fbp_full(Records.of(records),
                   ReconstructionConfig(kmax=4, mode="full-sphere", two_j_ref=4))
    err = float(np.abs(out.coeffs - truth.coeffs).max())
    assert err < 1e-6, err
    _report(6, f"full-sphere infinite-data (64x128): worst {err:.1e} < 1e-6", t0, 10.0)


def test_criterion_07_xi_assembly_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    state = coherent_state(40, 0.4, 1.1, 0.0, kmax=40)
    axes = [(float(t), float(p)) for t, p in
            zip(np.arccos(rng.uniform(0.0, 1.0, 20)),
                rng.uniform(0.0, 2.0 * math.pi, 20))]
    recs = sample_measurements(state, axes, 50, NoiseModel(), seed=70)
    recs = compute_weights(recs, "full-sphere")
    rec_state = fbp_full(recs, ReconstructionConfig(kmax=40, mode="full-sphere",
                                                    two_j_ref=40))
    theta = rng.uniform(0.0, math.pi, 1000)
    phi = rng.uniform(0.0, 2.0 * math.pi, 1000)
    err = float(np.abs(oracles.xi_sum(recs, theta, phi, 40, NoiseModel())
                       - wigner_eval(rec_state, theta, phi)).max())
    assert err < 1e-8, err
    _report(7, f"FBP + wigner_eval equals the brute-force Xi sum, worst {err:.1e} < 1e-8",
            t0, 10.0)


def test_criterion_08_statistical_round_trip():
    t0 = time.perf_counter()
    truth = coherent_state(40, 0.0, 0.0, 0.0, kmax=40)
    axes = [(math.pi / 2.0, a * math.pi / 24) for a in range(24)]
    recs = sample_measurements(truth, axes, 400, NoiseModel(), seed=7)
    cfg = ReconstructionConfig(kmax=23, mode="in-plane", fold_north=True, two_j_ref=40)
    state = reconstruct(recs, cfg)

    from spintomo.analysis import mean_spin_vector, moments

    v = mean_spin_vector(state)
    angle = math.degrees(math.acos(np.clip(v[2] / np.linalg.norm(v), -1.0, 1.0)))
    assert angle < 2.0, angle

    for phi in (0.0, 0.6, 1.2, -0.9):
        mean, mean2 = moments(state, math.pi / 2.0, phi)
        var = mean2 - mean ** 2
        assert abs(var - 10.0) <= 1.5, (phi, var)

    rep = squeezing_scan(state, np.linspace(-math.pi / 2.0, math.pi / 2.0, 91),
                         0.0, 20.0)
    assert rep.squeezing_db is not None
    assert abs(rep.squeezing_db) <= 0.7, rep.squeezing_db
    _report(8, f"round trip: {angle:.2f} deg, V perp ok, "
               f"{rep.squeezing_db:+.2f} dB within +/- 0.7", t0, 30.0)


def test_criterion_09_squeezed_state_detection():
    t0 = time.perf_counter()
    truth = oat_squeezed_state(40, 0.05, 40)
    axes = [(math.pi / 2.0, a * math.pi / 24) for a in range(24)]
    recs = sample_measurements(truth, axes, 400, NoiseModel(), seed=9)
    cfg = ReconstructionConfig(kmax=23, mode="in-plane", fold_north=True, two_j_ref=40)
    state = reconstruct(recs, cfg)
    rep = squeezing_scan(state, np.linspace(-math.pi / 2.0, math.pi / 2.0, 181),
                         0.0, 20.0)
    assert rep.squeezing_db is not None and rep.squeezing_db < 0.0

    d = spherical_to_dicke(truth)
    phi_oracle, _ = oracles.min_variance_azimuth(d.matrix, 40)
    dphi = abs(rep.phi_s - phi_oracle) % math.pi
    dphi = min(dphi, math.pi - dphi)
    assert math.degrees(dphi) < 10.0, (rep.phi_s, phi_oracle)
    _report(9, f"OAT fixture: {rep.squeezing_db:+.2f} dB, phi_s off by "
               f"{math.degrees(dphi):.2f} deg < 10", t0, 60.0)


def test_criterion_10_damping_sanity():
    t0 = time.perf_counter()
    kmax = 100
    rng = np.random.default_rng(10)
    co = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    for k in range(kmax + 1):
        co[k, kmax] = rng.normal()
        for q in range(1, k + 1):
            z = rng.normal() + 1j * rng.normal()
            co[k, kmax + q] = z
            co[k, kmax - q] = (-1.0) ** q * np.conj(z)
    s = SphericalState(1260, kmax, co)
    noise = NoiseModel(sigma_n=11.0)
    ratio = power_spectrum(apply_uniform_damping(s, noise)) / power_spectrum(s)
    exponent = uniform_damping_alpha(noise, 1260) * 70.0 * 71.0
    assert abs(exponent - 0.3791) < 1e-4  # quoted rounded exponent
    want = math.exp(-2.0 * exponent)
    assert abs(float(ratio[70]) - want) < 1e-6
    _report(10, f"C_70 damping ratio {float(ratio[70]):.6f} = exp(-2 x {exponent:.4f})",
            t0, 1.0)


def test_criterion_11_hemispherical_folding():
    t0 = time.perf_counter()
    from spintomo.angular import _hemi_overlap_orders

    tables = oracles.hemi_overlap_tables_quadrature(30, n=80)
    worst = 0.0
    for q in range(0, 31):
        got = np.zeros((31, 31))
        got[q:, q:] = _hemi_overlap_orders(30, q, q + 1)[0]
        worst = max(worst, float(np.abs(got - tables[q]).max()))
    assert worst < 1e-10, worst

    s = coherent_state(40, 0.0, 0.0, 0.0, kmax=40)
    even = s.coeffs.copy()
    even[1::2, 40] = 0.0
    folded = fold_northern(SphericalState(40, 40, even))
    g = wigner_grid(folded, 128, 32)
    w = oracles.grid_theta_weights(128) * 2.0 * math.pi / 32.0
    south = abs(float(w[64:] @ g.values[64:].sum(axis=1)))
    total = abs(float(w @ g.values.sum(axis=1)))
    assert south < 0.05 * total, (south, total)
    _report(11, f"overlaps vs quadrature worst {worst:.1e} < 1e-10; "
                f"south weight {south / total:.1e} < 5%", t0, 10.0)


def test_criterion_12_large_j_smoke():
    t0 = time.perf_counter()
    tab = cg_tau_table(1260, 200)
    assert tab.shape == (201, 1261)
    assert np.all(np.isfinite(tab))
    gram = tab @ tab.T
    err = float(np.abs(gram - np.eye(201)).max())
    assert err < 1e-6, err
    _report(12, f"j = 630 table (k <= 200, all m) finite, orthogonality {err:.1e} < 1e-6",
            t0, 60.0)
