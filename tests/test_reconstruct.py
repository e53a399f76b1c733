import dataclasses
import math
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import spintomo.states as states
from spintomo.angular import cg_tau_table
from spintomo.forward import (
    NoiseModel,
    Records,
    exact_records,
    sample_measurements,
)
from spintomo.reconstruct import (
    _AXIS_TOL,
    ReconstructionConfig,
    _axis_ids,
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
    _damping,
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

rng = np.random.default_rng(4242)


def _plane_axes(n):
    return [(math.pi / 2.0, a * math.pi / n) for a in range(n)]


def _random_state(two_j, seed):
    r = np.random.default_rng(seed)
    rho = oracles.random_density_matrix(two_j, r)
    return dicke_to_spherical(DickeState(two_j, rho), two_j), rho


def _quadrature_records(state, n_theta=32, n_phi=64):
    theta_q, phi_q, w = oracles.hemisphere_quadrature(n_theta, n_phi)
    records = []
    from spintomo.forward import projection_probabilities

    for i, th in enumerate(theta_q):
        for l, ph in enumerate(phi_q):
            p = np.clip(projection_probabilities(state, th, ph), 0.0, None)
            c = w[i, l] / (2.0 * math.pi)
            for mi, pm in enumerate(p):
                if pm > 0.0:
                    records.append((th, ph, c * pm, state.two_j_ref, 2 * mi - state.two_j_ref))
    return Records.of(records)


def _split_probe_records():
    # 12 equatorial axes x 10 records; axis 5 sits on a 12-decimal rounding
    # boundary, one of its records 1e-15 above it and nine 1e-15 below
    split = round(5.0 * math.pi / 12.0, 12) + 0.5e-12
    phis = []
    for a in range(12):
        phis += [split + 1e-15] + [split - 1e-15] * 9 if a == 5 else [a * math.pi / 12.0] * 10
    return Records.of([(math.pi / 2.0, ph, math.nan, 12, 2 * (n % 7) - 6)
                       for n, ph in enumerate(phis)])


def _antipodes(recs, flip=True):
    # the records where flip holds taken along the opposite direction of their axes
    return Records(np.where(flip, math.pi - recs.theta, recs.theta),
                   np.where(flip, recs.phi + math.pi, recs.phi), recs.weight, recs.two_j,
                   np.where(flip, -recs.two_m, recs.two_m))


def _mixed_records(rng, mode, n_axes=7, shots=6):
    # random axes, spins mixed across parities and partly below kmax = 6
    if mode == "in-plane":
        theta = np.full(n_axes, math.pi / 2.0)
    else:
        theta = np.arccos(rng.uniform(-1.0, 1.0, n_axes))
    phi = rng.uniform(-math.pi, math.pi, n_axes)
    recs = []
    for th, ph in zip(theta, phi):
        for _ in range(shots):
            two_j = int(rng.choice([4, 5, 8, 10]))
            two_m = 2 * int(rng.integers(0, two_j + 1)) - two_j
            recs.append((float(th), float(ph), float(rng.uniform(0.5, 1.5)), two_j, two_m))
    return Records.of(recs)


# ---------------------------------------------------------------- weights

def test_weights_equal_axes_uniform():
    s = maximally_mixed_state(4, kmax=0)
    recs = sample_measurements(s, _plane_axes(8), 10, NoiseModel(), seed=0)
    out = compute_weights(recs, "in-plane")
    assert np.allclose(out.weight, 1.0 / 80.0, rtol=1e-12, atol=0.0)
    assert out.weight.sum() == pytest.approx(1.0, rel=1e-12)


def test_weights_oversampled_axis_halved():
    axes = _plane_axes(8)
    recs = []
    for th, ph in axes:
        n = 20 if ph == 0.0 else 10
        recs += [(th, ph, math.nan, 4, 0)] * n
    out = compute_weights(Records.of(recs), "in-plane")
    w0, w1 = out.weight[out.phi == 0.0], out.weight[out.phi != 0.0]
    assert np.allclose(w0, w1[0] / 2.0, rtol=1e-12, atol=0.0)
    assert out.weight.sum() == pytest.approx(1.0, rel=1e-12)


def test_weights_uneven_axes_follow_arcs():
    # three axes at 0, pi/2, 3pi/4: half-circle Voronoi arcs 3/8, 5/16 + wrap
    recs = Records.of([(math.pi / 2.0, ph, math.nan, 2, 0)
                       for ph in (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0)])
    out = compute_weights(recs, "in-plane")
    arcs = np.array([(math.pi / 4.0 + math.pi / 8.0),
                     (math.pi / 4.0 + math.pi / 8.0),
                     (math.pi / 8.0 + math.pi / 8.0)]) / math.pi
    assert np.allclose(out.weight, arcs, rtol=1e-12)


def test_weights_of_listed_rows_equal_those_of_their_records():
    # rows = []; rows += records, axis by axis, as an experiment appends them: the
    # rows carry the five named fields and weigh bit for bit as the joined Records
    s = oat_squeezed_state(20, 0.05, 20)
    noise = NoiseModel(sigma_n=2.0, sigma_omega=0.05, phase_mode="model", sigma_ph=0.2)
    rows, parts = [], []
    for a, axis in enumerate(_plane_axes(6)):
        parts.append(sample_measurements(s, [axis], 8, noise, seed=a))
        rows += parts[-1]
    assert len(rows) == 48
    assert all(r._fields == ("theta", "phi", "weight", "two_j", "two_m") for r in rows)
    joined = parts[0]
    for part in parts[1:]:
        joined = joined + part
    got, want = compute_weights(rows, "in-plane"), compute_weights(joined, "in-plane")
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got.columns, want.columns))


def test_weights_keep_the_probabilities_of_exact_records():
    # the Voronoi share of each axis is split in proportion to c_a p_m, so the
    # default scheme reproduces the weights exact_records set
    s = coherent_state(10, 0.0, 0.0, 0.0, kmax=10)
    recs = exact_records(s, _plane_axes(24))
    cfg = ReconstructionConfig(kmax=10, mode="in-plane", two_j_ref=10)
    kept = reconstruct(recs, cfg, weight_scheme="keep").coeffs
    assert np.abs(reconstruct(recs, cfg).coeffs - kept).max() <= 1e-14
    out = compute_weights(recs, "in-plane")
    assert np.abs(out.weight - recs.weight).max() <= 1e-16


@pytest.mark.filterwarnings("ignore:skipped")
def test_weights_of_sampled_records_split_equally():
    # equal incoming weights split as the pending ones do, up to rounding
    s = coherent_state(20, 0.4, 0.9, 0.0, kmax=20)
    recs = sample_measurements(s, _plane_axes(12) + _plane_axes(5), 30,
                               NoiseModel(sigma_n=2.0), seed=6)
    pending = dataclasses.replace(recs, weight=np.full(len(recs), math.nan))
    cfg = ReconstructionConfig(kmax=11, mode="in-plane", fold_north=True, two_j_ref=20)
    got = reconstruct(recs, cfg).coeffs
    want = reconstruct(pending, cfg).coeffs
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_weights_pending_or_zero():
    # one pending weight splits every axis equally; an axis of zero total weight raises
    recs = Records([math.pi / 2.0] * 4, [0.0, 0.0, 1.0, 2.0], [0.2, 0.6, math.nan, 0.3],
                   [2] * 4, [0] * 4)
    side = 0.5 * (1.0 + (math.pi - 2.0)) / math.pi  # arcs of the axes 0 and 2; axis 1 has 1/pi
    assert compute_weights(recs, "in-plane").weight.tolist() == pytest.approx(
        [side / 2.0, side / 2.0, 1.0 / math.pi, side], rel=1e-12)
    zero = Records([math.pi / 2.0] * 2, [0.0, 1.0], [0.0, 0.5], [2, 2], [0, 0])
    with pytest.raises(ValueError, match="zero total weight"):
        compute_weights(zero, "in-plane")


def test_weights_uniform_scheme():
    recs = Records.of([(math.pi / 2.0, 0.1 * i, math.nan, 2, 0) for i in range(5)])
    out = compute_weights(recs, "in-plane", scheme="uniform")
    assert out.weight.tolist() == pytest.approx([0.2] * 5)


def test_weights_full_sphere_symmetric_axes():
    # orthogonal triad: each axis covers a third of orientation space
    axes = [(0.0, 0.0), (math.pi / 2.0, 0.0), (math.pi / 2.0, math.pi / 2.0)]
    recs = Records.of([(th, ph, math.nan, 2, 0) for th, ph in axes])
    out = compute_weights(recs, "full-sphere")
    assert np.allclose(out.weight, 1.0 / 3.0, rtol=1e-9)


def test_weights_full_sphere_antipodal_axes_merge():
    # an axis and its antipode are the same measurement direction
    axes = [(0.0, 0.0), (math.pi, 0.0), (math.pi / 2.0, 0.0), (math.pi / 2.0, math.pi / 2.0)]
    recs = Records.of([(th, ph, math.nan, 2, 0) for th, ph in axes])
    w = compute_weights(recs, "full-sphere").weight
    assert w[0] == pytest.approx(w[1], rel=1e-9)
    assert w[0] + w[1] == pytest.approx(w[2], rel=1e-9)
    assert sum(w) == pytest.approx(1.0, rel=1e-12)


def test_weights_full_sphere_coplanar_falls_back_to_arcs():
    recs = Records.of([(math.pi / 2.0, a * math.pi / 6.0, math.nan, 2, 0) for a in range(6)])
    out = compute_weights(recs, "full-sphere")
    assert np.allclose(out.weight, 1.0 / 6.0, rtol=1e-9)


def test_weights_check_mode_before_scheme():
    recs = Records.of([(math.pi / 2.0, 0.1 * i, math.nan, 2, 0) for i in range(5)])
    for scheme in ("uniform", "voronoi"):
        with pytest.raises(ValueError, match="mode must be one of"):
            compute_weights(recs, "bogus", scheme=scheme)


def test_weights_degenerate_axes_error():
    recs = Records.of([(0.3, 0.4, math.nan, 2, 0)] * 4)
    with pytest.raises(ValueError):
        compute_weights(recs, "full-sphere")


def test_weights_axis_split_probe():
    # phi values 2e-15 apart straddling a 12-decimal rounding boundary are one axis
    recs = _split_probe_records()
    out = compute_weights(recs, "in-plane")
    assert np.allclose(out.weight, 1.0 / 120.0, rtol=1e-9)
    with pytest.raises(ValueError, match="not below the 12 distinct axes"):
        fbp_inplane(out, ReconstructionConfig(kmax=12, two_j_ref=12))


def test_weights_full_sphere_pole_is_one_axis():
    # (0, 0), (0, 2), (1e-13, 0.5) and the antipode (pi, 1) share the z axis
    axes = [(0.0, 0.0), (0.0, 2.0), (1e-13, 0.5), (math.pi, 1.0),
            (math.pi / 2.0, 0.0), (math.pi / 2.0, math.pi / 2.0)]
    recs = Records.of([(th, ph, math.nan, 2, 0) for th, ph in axes])
    w = compute_weights(recs, "full-sphere").weight
    assert np.allclose(w, [1.0 / 12.0] * 4 + [1.0 / 3.0] * 2, rtol=1e-9)


def test_weights_full_sphere_close_axes_are_distinct():
    # 1e-8 rad apart: two axes by _AXIS_TOL, and the Voronoi step must agree
    r = np.random.default_rng(21)
    v = r.normal(size=(20, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    axes = list(zip(np.arccos(v[:, 2]), np.arctan2(v[:, 1], v[:, 0])))
    close = (axes[0][0] + 1e-8, axes[0][1])
    recs = Records.of([(th, ph, math.nan, 2, 0) for th, ph in axes + [close]])
    w = compute_weights(recs, "full-sphere").weight
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert w[0] != w[-1]
    merged = compute_weights(recs[:-1] + recs[:1], "full-sphere").weight
    assert merged[0] == merged[-1]
    assert abs((w[0] + w[-1]) - (merged[0] + merged[-1])) < 1e-8


@st.composite
def _axis_layouts(draw):
    # random axes, then near-duplicates of them at 0.9 and 1.1 times the axis
    # tolerance (along a meridian or a parallel), antipodes, poles and repeats
    inplane = draw(st.booleans())
    n = draw(st.integers(1, 4))
    phi = [draw(st.floats(-math.pi, math.pi)) for _ in range(n)]
    theta = ([math.pi / 2.0] * n if inplane
             else [math.acos(draw(st.floats(-1.0, 1.0))) for _ in range(n)])
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["near", "antipode", "pole", "repeat"]))
        # offsets of base axes only, so that no two offsets add up to the tolerance itself
        i = draw(st.integers(0, n - 1))
        th, ph = theta[i], phi[i]
        if kind == "near":
            step = draw(st.sampled_from([0.9, 1.1])) * _AXIS_TOL
            if inplane or (math.sin(th) > 0.1 and draw(st.booleans())):
                ph += step / math.sin(th)
            else:
                th = th + step if th + step <= math.pi else th - step
        elif kind == "antipode":
            th, ph = math.pi - th, ph + math.pi
        elif kind == "pole" and not inplane:
            th, ph = draw(st.sampled_from([0.0, math.pi])), draw(st.floats(-math.pi, math.pi))
        theta.append(th)
        phi.append(ph)
    return inplane, np.array(theta), np.array(phi)


@settings(max_examples=200, deadline=None)
@given(layout=_axis_layouts())
def test_axis_ids_match_brute_force_grouping(layout):
    inplane, theta, phi = layout
    want = oracles.axis_groups(theta, phi, _AXIS_TOL)
    u = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1)
    for th in ([math.pi / 2.0, theta] if inplane else [theta]):
        axis, first, flip = _axis_ids(th, phi)
        assert first.size == want.max() + 1
        assert np.array_equal(axis[:, None] == axis[None, :], want[:, None] == want[None, :])
        assert np.array_equal(want[first[axis]], want)
        assert np.array_equal(flip, np.einsum("ij,ij->i", u, u[first[axis]]) < 0.0)


# ---------------------------------------------------------------- damping

def _record_damping(noise, two_j, kmax):
    # the number and pointing factor per k, as applied to every record inside the sum
    return _damping(two_j, kmax, noise.sigma_n, noise.sigma_omega)


def test_damping_no_noise_is_one():
    assert _record_damping(NoiseModel(), 40, 10)[10] == 1.0


def test_damping_number_noise_reference_value():
    # sigma_N = 11 atoms at j = 630, k = 70
    noise = NoiseModel(sigma_n=11.0)
    got = _record_damping(noise, 1260, 70)[70]
    want = math.exp(-121.0 * 70.0 * 71.0 / (1260.0 * 1259.0))
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(0.6845, abs=2e-4)


def test_damping_monotone_in_k():
    noise = NoiseModel(sigma_n=3.0, sigma_omega=0.05)
    vals = list(_record_damping(noise, 100, 49))
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_damping_phase_noise_only_in_plane():
    # the azimuth noise damps rho_kq by exp(-q^2 sigma_phi^2 / 2) in-plane only
    noise = NoiseModel(phase_mode="constant", sigma_phi=0.2)
    assert _record_damping(noise, 40, 6)[6] == 1.0
    assert float(noise.azimuth_sigma(1.0)) == 0.2
    recs = Records.of([(math.pi / 2.0, 1.0 + 0.3 * a, 0.125, 40, 8) for a in range(8)])

    def ratio(fbp, mode):
        plain = fbp(recs, ReconstructionConfig(kmax=6, mode=mode, two_j_ref=40))
        damped = fbp(recs, ReconstructionConfig(kmax=6, mode=mode, noise=noise, two_j_ref=40))
        return oracles.coeff(damped, 6, 4) / oracles.coeff(plain, 6, 4)

    full = ratio(fbp_full, "full-sphere")
    plane = ratio(fbp_inplane, "in-plane")
    assert full == 1.0
    assert plane == pytest.approx(math.exp(-0.5 * 16 * 0.04), rel=1e-12)


@settings(max_examples=300, deadline=None)
@given(two_j=st.integers(2, 400), frac=st.floats(0.0, 1.0),
       sigma_n=st.floats(0.0, 10.0), sigma_omega=st.floats(0.0, 0.08))
def test_damping_is_the_product_of_number_and_pointing_factors(two_j, frac, sigma_n, sigma_omega):
    # the ranges keep the exponent below about 560, so every factor is a normal double
    k = int(frac * two_j)
    number = sigma_n ** 2 * k * (k + 1.0) / (two_j * (two_j - 1.0))
    pointing = 0.25 * sigma_omega ** 2 * k * (k + 1.0)
    want = math.exp(-number) * math.exp(-pointing)
    # exp turns the few-ulp rounding of its argument x into a relative error of about x ulp
    tol = 1e-15 * max(1.0, number + pointing)
    assert _damping(two_j, k, sigma_n, sigma_omega)[k] == pytest.approx(want, rel=tol, abs=0.0)


def test_damping_spares_k0_of_every_spin():
    for two_j in (0, 1):
        assert _damping(two_j, 0, 3.0, 0.1).tolist() == [1.0]
    with pytest.raises(ValueError, match="two_j < 2"):
        _damping(1, 1, 3.0)
    recs = Records.of([(math.pi / 2.0, a * math.pi / 4.0, 0.25, 1, 1) for a in range(4)])
    with pytest.raises(ValueError, match="two_j < 2"):
        fbp_inplane(recs, ReconstructionConfig(kmax=1, noise=NoiseModel(sigma_n=0.5),
                                               two_j_ref=1))


def test_noisy_reconstruction_takes_records_of_zero_spin():
    noise = NoiseModel(sigma_n=3.0)
    recs = sample_measurements(coherent_state(4, 0.0, 0.0, 0.0, 4), _plane_axes(8), 50,
                               noise, seed=1)
    assert np.sum(recs.two_j == 0) == 28
    with pytest.warns(UserWarning, match="below the requested kmax"):
        noisy = reconstruct(recs, ReconstructionConfig(kmax=4, noise=noise, two_j_ref=4))
    with pytest.warns(UserWarning, match="below the requested kmax"):
        plain = reconstruct(recs, ReconstructionConfig(kmax=4, two_j_ref=4))
    assert oracles.coeff(noisy, 0, 0) == oracles.coeff(plain, 0, 0)  # no record is damped at k = 0


def test_damp_inside_equals_post_smoothing():
    # with uniform noise, per-record damping equals global smoothing (linearity)
    truth, _ = _random_state(4, seed=9)
    recs = exact_records(truth, _plane_axes(16))
    noise = NoiseModel(sigma_n=0.8, sigma_omega=0.03)
    damped = fbp_inplane(recs, ReconstructionConfig(kmax=4, noise=noise, two_j_ref=4))
    plain = fbp_inplane(recs, ReconstructionConfig(kmax=4, two_j_ref=4))
    smoothed = apply_uniform_damping(plain, noise)
    assert np.abs(damped.coeffs - smoothed.coeffs).max() < 1e-12


def test_uniform_damping_spectrum_ratio():
    from spintomo.analysis import power_spectrum

    kmax = 100
    co = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    r = np.random.default_rng(5)
    for k in range(kmax + 1):
        co[k, kmax] = r.normal()
        for q in range(1, k + 1):
            z = r.normal() + 1j * r.normal()
            co[k, kmax + q] = z
            co[k, kmax - q] = (-1.0) ** q * np.conj(z)
    s = SphericalState(1260, kmax, co)
    noise = NoiseModel(sigma_n=11.0)
    ratio = power_spectrum(apply_uniform_damping(s, noise)) / power_spectrum(s)
    alpha = uniform_damping_alpha(noise, 1260)
    k = 70
    assert ratio[k] == pytest.approx(math.exp(-2.0 * alpha * k * (k + 1)), abs=1e-10)


# ---------------------------------------------------------------- full-sphere fbp

def test_fbp_full_single_pole_record():
    two_j = 10
    recs = Records([0.0], [0.0], [1.0], [two_j], [two_j])
    out = fbp_full(recs, ReconstructionConfig(kmax=two_j, mode="full-sphere",
                                              two_j_ref=two_j))
    tau = cg_tau_table(two_j, two_j)
    for k in range(two_j + 1):
        assert oracles.coeff(out, k, 0) == pytest.approx((2 * k + 1) * tau[k, two_j], rel=1e-12)
        for q in range(1, k + 1):
            assert oracles.coeff(out, k, q) == 0.0


def test_fbp_full_monopole_is_trace():
    s = coherent_state(12, 0.7, 0.2, 0.0, kmax=12)
    recs = sample_measurements(s, [(0.3, 0.1), (1.2, 2.0), (2.0, -1.0)], 50,
                               NoiseModel(), seed=8)
    recs = compute_weights(recs, "full-sphere")
    out = fbp_full(recs, ReconstructionConfig(kmax=12, mode="full-sphere", two_j_ref=12))
    assert oracles.coeff(out, 0, 0).real == pytest.approx(1.0 / math.sqrt(13.0), rel=1e-12)


def test_fbp_full_infinite_data_recovery():
    truth, _ = _random_state(4, seed=11)
    recs = _quadrature_records(truth)
    out = fbp_full(recs, ReconstructionConfig(kmax=4, mode="full-sphere", two_j_ref=4))
    assert np.abs(out.coeffs - truth.coeffs).max() < 1e-8


def test_fbp_full_skips_out_of_range_waves():
    recs = Records([0.0, 1.0], [0.0, 0.0], [0.5, 0.5], [2, 8], [2, 0])
    cfg = ReconstructionConfig(kmax=6, mode="full-sphere", two_j_ref=8)
    with pytest.warns(UserWarning, match="skipped"):
        out = fbp_full(recs, cfg)
    assert out.kmax == 6


def test_fbp_requires_weights():
    recs = Records([0.0], [0.0], [math.nan], [2], [2])
    with pytest.raises(ValueError, match="pending"):
        fbp_full(recs, ReconstructionConfig(kmax=2, mode="full-sphere", two_j_ref=2))


# ---------------------------------------------------------------- in-plane fbp

def test_fbp_inplane_rejects_off_plane_axes():
    recs = Records([1.0], [0.0], [1.0], [2], [0])
    with pytest.raises(ValueError, match="equator"):
        fbp_inplane(recs, ReconstructionConfig(kmax=0, two_j_ref=2))


def test_fbp_inplane_kmax_validity_bound():
    truth, _ = _random_state(4, seed=1)
    recs = exact_records(truth, _plane_axes(4))
    with pytest.raises(ValueError, match="distinct axes"):
        fbp_inplane(recs, ReconstructionConfig(kmax=4, two_j_ref=4))


def test_fbp_inplane_monopole_single_record():
    two_j = 6
    recs = Records([math.pi / 2.0], [0.3], [1.0], [two_j], [2])
    out = fbp_inplane(recs, ReconstructionConfig(kmax=0, two_j_ref=two_j))
    assert oracles.coeff(out, 0, 0).real == pytest.approx(1.0 / math.sqrt(two_j + 1.0), rel=1e-12)


def test_fbp_inplane_infinite_data_parity_split():
    truth, _ = _random_state(4, seed=3)
    recs = exact_records(truth, _plane_axes(32))
    out = fbp_inplane(recs, ReconstructionConfig(kmax=4, two_j_ref=4))
    for k in range(5):
        for q in range(-k, k + 1):
            if (k + q) % 2 == 0:
                want = oracles.coeff(truth, k, q)
                assert oracles.coeff(out, k, q) == pytest.approx(want, abs=1e-8)
            else:
                assert oracles.coeff(out, k, q) == 0.0


def test_fbp_inplane_dicke_state_pattern():
    two_j = 10
    truth = dicke_basis_state(two_j, 4, two_j)
    recs = exact_records(truth, _plane_axes(16))
    out = fbp_inplane(recs, ReconstructionConfig(kmax=10, two_j_ref=two_j))
    tau = cg_tau_table(two_j, two_j)
    for k in range(11):
        want = tau[k, 7] if k % 2 == 0 else 0.0
        assert oracles.coeff(out, k, 0) == pytest.approx(want, abs=1e-8)
        for q in range(1, k + 1):
            assert abs(oracles.coeff(out, k, q)) < 1e-8


def test_fbp_inplane_mirror_symmetry_before_folding():
    truth, _ = _random_state(6, seed=21)
    recs = exact_records(truth, _plane_axes(24))
    out = fbp_inplane(recs, ReconstructionConfig(kmax=6, two_j_ref=6))
    theta = rng.uniform(0.0, math.pi, 40)
    phi = rng.uniform(0.0, 2.0 * math.pi, 40)
    assert np.allclose(wigner_eval(out, theta, phi),
                       wigner_eval(out, math.pi - theta, phi), atol=1e-12)


def test_fbp_inplane_azimuth_equivariance():
    truth, _ = _random_state(4, seed=5)
    delta = 0.37
    base = exact_records(truth, _plane_axes(32))
    shifted = dataclasses.replace(base, phi=base.phi + delta)
    a = fbp_inplane(base, ReconstructionConfig(kmax=4, two_j_ref=4))
    b = fbp_inplane(shifted, ReconstructionConfig(kmax=4, two_j_ref=4))
    for k in range(5):
        for q in range(-k, k + 1):
            want = oracles.coeff(a, k, q) * np.exp(-1j * q * delta)
            assert oracles.coeff(b, k, q) == pytest.approx(want, abs=1e-12)


def test_fbp_linearity_of_blends():
    s1, _ = _random_state(4, seed=31)
    s2, _ = _random_state(4, seed=32)
    alpha = 0.3
    r1 = exact_records(s1, _plane_axes(16), np.full(16, alpha / 16.0))
    r2 = exact_records(s2, _plane_axes(16), np.full(16, (1.0 - alpha) / 16.0))
    cfg = ReconstructionConfig(kmax=4, two_j_ref=4)
    blended = fbp_inplane(r1 + r2, cfg)
    a = fbp_inplane(exact_records(s1, _plane_axes(16)), cfg)
    b = fbp_inplane(exact_records(s2, _plane_axes(16)), cfg)
    want = alpha * a.coeffs + (1.0 - alpha) * b.coeffs
    assert np.abs(blended.coeffs - want).max() < 1e-12


# ---------------------------------------------------------------- one core, both geometries

_CORE_NOISE = NoiseModel(sigma_n=1.5, sigma_omega=0.1, phase_mode="model", sigma_ph=0.4)
_FBP = {"full-sphere": fbp_full, "in-plane": fbp_inplane}


@pytest.mark.parametrize("mode", ["full-sphere", "in-plane"])
def test_fbp_matches_per_record_oracle(mode):
    # mixed spins, 2j < kmax records, antipodal records, and all three noises at once
    r = np.random.default_rng(17)
    recs = _mixed_records(r, mode)
    recs += _antipodes(recs[::3])
    cfg = ReconstructionConfig(kmax=6, mode=mode, noise=_CORE_NOISE, two_j_ref=8)
    with pytest.warns(UserWarning, match="skipped"):
        out = _FBP[mode](recs, cfg)
    want = oracles.fbp_direct(recs, 6, mode, _CORE_NOISE)
    assert np.abs(out.coeffs - want).max() < 1e-12


@pytest.mark.filterwarnings("ignore:skipped")
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(["full-sphere", "in-plane"]))
def test_fbp_invariant_to_record_order_and_antipodes(seed, mode):
    r = np.random.default_rng(seed)
    recs = _mixed_records(r, mode, n_axes=int(r.integers(7, 12)), shots=int(r.integers(1, 5)))
    cfg = ReconstructionConfig(kmax=6, mode=mode, noise=_CORE_NOISE, two_j_ref=8)
    base = reconstruct(recs, cfg).coeffs
    order = r.permutation(len(recs))
    shuffled = Records(*(c[order] for c in recs.columns))
    assert np.abs(reconstruct(shuffled, cfg).coeffs - base).max() < 1e-12
    flipped = _antipodes(recs, r.random(len(recs)) < 0.5)
    assert np.abs(reconstruct(flipped, cfg).coeffs - base).max() < 1e-12


def _unit_weight_records(r, mode):
    recs = _mixed_records(r, mode, n_axes=int(r.integers(7, 12)), shots=int(r.integers(1, 5)))
    return dataclasses.replace(recs, weight=recs.weight / recs.weight.sum())


@pytest.mark.filterwarnings("ignore:skipped")
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_fbp_inplane_odd_waves_are_exact_zeros(seed):
    # before the fold, k + q odd carries no information on the equator
    recs = _unit_weight_records(np.random.default_rng(seed), "in-plane")
    out = fbp_inplane(recs, ReconstructionConfig(kmax=6, noise=_CORE_NOISE, two_j_ref=8))
    k = np.arange(7)[:, None]
    q = np.arange(-6, 7)[None, :]
    assert np.all(out.coeffs[(k + q) % 2 == 1] == 0.0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), two_j=st.integers(0, 10), extra=st.integers(0, 4))
def test_fbp_recovers_exact_records_to_machine_precision(seed, two_j, extra):
    # infinite data on the fewest nodes that integrate kmax = 2j exactly, or more:
    # A > kmax equally spaced equatorial axes give every k + q even coefficient,
    # Gauss-Legendre in cos(theta) times 2 kmax + 1 azimuths give them all
    r = np.random.default_rng(seed)
    truth, _ = _random_state(two_j, seed)
    n_axes = two_j + 1 + extra
    phi0 = r.uniform(0.0, math.pi / n_axes)
    inplane = fbp_inplane(exact_records(truth, [(t, p + phi0) for t, p in _plane_axes(n_axes)]),
                          ReconstructionConfig(kmax=two_j, two_j_ref=two_j))
    k = np.arange(two_j + 1)[:, None]
    even = (k + np.arange(-two_j, two_j + 1)[None, :]) % 2 == 0
    assert np.abs(inplane.coeffs - truth.coeffs)[even].max() <= 1e-14
    assert np.all(inplane.coeffs[~even] == 0.0)
    theta, phi, w = oracles.hemisphere_quadrature(two_j + 1 + extra, 2 * two_j + 1 + extra)
    axes = [(t, p) for t in theta for p in phi]
    full = fbp_full(exact_records(truth, axes, w.ravel() / (2.0 * math.pi)),
                    ReconstructionConfig(kmax=two_j, mode="full-sphere", two_j_ref=two_j))
    assert np.abs(full.coeffs - truth.coeffs).max() <= 1e-14


# the phase noise is constant: the model form depends on the azimuth itself
_ROTATION_NOISE = NoiseModel(sigma_n=1.5, sigma_omega=0.1, phase_mode="constant", sigma_phi=0.2)


@pytest.mark.filterwarnings("ignore:skipped")
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(["full-sphere", "in-plane"]),
       alpha=st.floats(-2.0 * math.pi, 2.0 * math.pi))
def test_fbp_azimuthal_rotation_multiplies_by_the_order_phase(seed, mode, alpha):
    # phi -> phi + alpha on every record takes rho_kq to rho_kq e^(-i q alpha)
    recs = _unit_weight_records(np.random.default_rng(seed), mode)
    turned = dataclasses.replace(recs, phi=recs.phi + alpha)
    cfg = ReconstructionConfig(kmax=6, mode=mode, noise=_ROTATION_NOISE, two_j_ref=8)
    base = _FBP[mode](recs, cfg).coeffs
    q = np.arange(-6, 7)[None, :]
    assert np.abs(_FBP[mode](turned, cfg).coeffs - base * np.exp(-1j * q * alpha)).max() <= 1e-12


def _rotation(two_j, alpha, beta, gamma):
    # U = exp(-i alpha Jz) exp(-i beta Jy) exp(-i gamma Jz) and its rotation of R^3
    _, jy, jz = oracles.spin_operators(two_j)
    u = expm(-1j * alpha * jz) @ expm(-1j * beta * jy) @ expm(-1j * gamma * jz)
    ca, sa, cb, sb, cg, sg = (math.cos(alpha), math.sin(alpha), math.cos(beta),
                              math.sin(beta), math.cos(gamma), math.sin(gamma))
    rz_a = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry_b = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rz_g = np.array([[cg, -sg, 0.0], [sg, cg, 0.0], [0.0, 0.0, 1.0]])
    return u, rz_a @ ry_b @ rz_g


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), two_j=st.integers(1, 10), data=st.data(),
       alpha=st.floats(-math.pi, math.pi), beta=st.floats(0.0, math.pi),
       gamma=st.floats(-math.pi, math.pi))
def test_fbp_full_sphere_is_rotation_equivariant(seed, two_j, data, alpha, beta, gamma):
    # the state U s U^dagger seen along the axes R n reconstructs to U rho U^dagger,
    # rho the reconstruction of s along n: the backprojection commutes with rotations
    kmax = data.draw(st.integers(0, two_j), label="kmax")
    r = np.random.default_rng(seed)
    rho = oracles.random_density_matrix(two_j, r)
    u, rot = _rotation(two_j, alpha, beta, gamma)
    n = int(r.integers(1, 12))
    theta, phi = np.arccos(r.uniform(-1.0, 1.0, n)), r.uniform(-math.pi, math.pi, n)
    v = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
                 axis=1) @ rot.T
    turned = np.stack([np.arctan2(np.hypot(v[:, 0], v[:, 1]), v[:, 2]),
                       np.arctan2(v[:, 1], v[:, 0])], axis=1)
    cfg = ReconstructionConfig(kmax=kmax, mode="full-sphere", two_j_ref=two_j)

    def fbp(matrix, axes):
        s = dicke_to_spherical(DickeState(two_j, matrix), two_j)
        return reconstruct(exact_records(s, axes), cfg, weight_scheme="keep")

    base = spherical_to_dicke(fbp(rho, np.stack([theta, phi], axis=1))).matrix
    want = dicke_to_spherical(DickeState(two_j, u @ base @ u.conj().T), kmax).coeffs
    got = fbp(u @ rho @ u.conj().T, turned).coeffs
    assert np.abs(got - want).max() <= 1e-13


def _chunked_outputs():
    # sampler records, exact records and both backprojections on one small case
    two_j = 8
    r = np.random.default_rng(3)
    s = dicke_to_spherical(DickeState(two_j, oracles.random_density_matrix(two_j, r)), two_j)
    sphere = [(float(t), float(f)) for t, f in zip(r.uniform(0.0, math.pi, 12),
                                                   r.uniform(-math.pi, math.pi, 12))]
    sampled = sample_measurements(s, _plane_axes(10), 20, _CORE_NOISE, seed=4)
    exact = exact_records(s, sphere)
    inplane = fbp_inplane(compute_weights(sampled, "in-plane"),
                          ReconstructionConfig(kmax=8, mode="in-plane", noise=_CORE_NOISE))
    full = fbp_full(compute_weights(exact, "full-sphere"),
                    ReconstructionConfig(kmax=8, mode="full-sphere", noise=_CORE_NOISE))
    return sampled, exact, inplane.coeffs, full.coeffs


_default_chunked_outputs = lru_cache(maxsize=1)(_chunked_outputs)


@pytest.mark.filterwarnings("ignore:skipped")
@settings(max_examples=15, deadline=None)
@given(budget=st.integers(1, 2000))
def test_outputs_invariant_to_chunk_budgets(budget):
    # down to one axis per chunk; only the order of floating-point sums may change
    base = _default_chunked_outputs()
    with mock.patch.object(states, "_CHUNK_BUDGET", budget):
        sampled, exact, inplane, full = _chunked_outputs()
    assert sampled == base[0]
    assert all(np.array_equal(getattr(exact, f), getattr(base[1], f))
               for f in ("theta", "phi", "two_j", "two_m"))
    assert np.abs(exact.weight - base[1].weight).max() <= 1e-15
    assert np.abs(inplane - base[2]).max() <= 1e-14
    assert np.abs(full - base[3]).max() <= 1e-14


@pytest.mark.filterwarnings("ignore:skipped")
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), mode=st.sampled_from(["full-sphere", "in-plane"]),
       alpha=st.just(0.0) | st.floats(1e-6, 3.0), beta=st.just(0.0) | st.floats(1e-6, 3.0))
def test_fbp_is_linear_in_the_weights(seed, mode, alpha, beta):
    # rho(alpha w1 + beta w2) = alpha rho(w1) + beta rho(w2) on the same rows
    r = np.random.default_rng(seed)
    rows = _mixed_records(r, mode, n_axes=int(r.integers(7, 12)))
    w1, w2 = r.uniform(0.0, 1.0, (2, len(rows))) * r.uniform(0.0, 2.0, (2, 1))
    cfg = ReconstructionConfig(kmax=6, mode=mode, noise=_CORE_NOISE, two_j_ref=8)

    def rho(w):
        recs = Records(rows.theta, rows.phi, w, rows.two_j, rows.two_m)
        return reconstruct(recs, cfg, weight_scheme="keep").coeffs

    want = alpha * rho(w1) + beta * rho(w2)
    got = rho(alpha * w1 + beta * w2)
    assert np.abs(got - want).max() <= 1e-12 * max(np.abs(got).max(), np.abs(want).max())


# ---------------------------------------------------------------- folding

def test_fold_monopole_creates_dipole():
    s = maximally_mixed_state(8, kmax=2)
    out = fold_northern(s)
    rho00 = oracles.coeff(s, 0, 0).real
    assert oracles.coeff(out, 0, 0).real == pytest.approx(rho00, rel=1e-12)
    assert oracles.coeff(out, 1, 0).real == pytest.approx(math.sqrt(3.0) / 2.0 * rho00, rel=1e-12)


def test_fold_does_not_depend_on_the_order_chunks(monkeypatch):
    # the default budget takes all 30 orders in one chunk; a budget of
    # 4 (kmax+1)^2 elements takes 4 orders a chunk, so 8 chunks
    kmax = 29
    truth, _ = _random_state(kmax, seed=7)
    want = fold_northern(truth).coeffs
    monkeypatch.setattr(states, "_CHUNK_BUDGET", 4 * (kmax + 1) ** 2)
    assert len(states._chunks(kmax + 1, (kmax + 1) ** 2)) >= 3
    assert fold_northern(truth).coeffs.tobytes() == want.tobytes()


def test_fold_preserves_northern_integral():
    # sphere integral of the folded state = 2 x northern integral of the input
    truth, _ = _random_state(6, seed=41)
    recs = exact_records(truth, _plane_axes(24))
    even = fbp_inplane(recs, ReconstructionConfig(kmax=6, two_j_ref=6))
    folded = fold_northern(even)
    n_theta, n_phi = 128, 64
    g_even = wigner_grid(even, n_theta, n_phi)
    g_fold = wigner_grid(folded, n_theta, n_phi)
    w = oracles.grid_theta_weights(n_theta) * 2.0 * math.pi / n_phi
    north = slice(0, n_theta // 2)
    total_fold = float(w @ g_fold.values.sum(axis=1))
    north_even = float(w[north] @ g_even.values[north].sum(axis=1))
    assert total_fold == pytest.approx(2.0 * north_even, abs=1e-8)


def test_fold_localizes_coherent_state():
    s = coherent_state(40, 0.0, 0.0, 0.0, kmax=40)
    even = s.coeffs.copy()
    for k in range(41):
        if k % 2 == 1:
            even[k, 40] = 0.0
    folded = fold_northern(SphericalState(40, 40, even))
    g = wigner_grid(folded, 128, 32)
    w = oracles.grid_theta_weights(128) * 2.0 * math.pi / 32
    south = float(np.abs(w[64:] @ g.values[64:].sum(axis=1)))
    total = float(w @ g.values.sum(axis=1))
    assert south < 0.05 * abs(total)


# ---------------------------------------------------------------- Xi route

def test_xi_sphere_integral_identity():
    two_j, two_m = 40, 32
    x, w = np.polynomial.legendre.leggauss(60)
    vals = xi_contribution(two_j, two_m, x, 40)
    got = 2.0 * math.pi * float(w @ vals)
    assert got == pytest.approx(math.sqrt(4.0 * math.pi / 41.0), rel=1e-10)


@pytest.mark.parametrize("two_m", [5, -6, 3])
def test_xi_contribution_rejects_bad_spin_label(two_m):
    # out of range or of the wrong parity for two_j = 4
    with pytest.raises(ValueError):
        xi_contribution(4, two_m, np.linspace(-1.0, 1.0, 5), 4)


def test_xi_peak_height():
    x = np.linspace(-1.0, 1.0, 40001)
    peak = xi_contribution(40, 32, x, 40).max()
    assert abs(peak - 163.0) <= 1.0


def test_xi_assembly_equals_coefficient_route():
    s = coherent_state(40, 0.4, 1.1, 0.0, kmax=40)
    axes = [(float(t), float(p)) for t, p in
            zip(np.arccos(rng.uniform(0.0, 1.0, 16)), rng.uniform(0.0, 2 * math.pi, 16))]
    recs = sample_measurements(s, axes, 40, NoiseModel(), seed=6)
    recs = compute_weights(recs, "full-sphere")
    state = fbp_full(recs, ReconstructionConfig(kmax=40, mode="full-sphere", two_j_ref=40))
    theta = rng.uniform(0.0, math.pi, 250)
    phi = rng.uniform(0.0, 2.0 * math.pi, 250)
    direct = oracles.xi_sum(recs, theta, phi, 40, NoiseModel())
    via_coeffs = wigner_eval(state, theta, phi)
    assert np.abs(direct - via_coeffs).max() < 1e-8


def test_xi_assembly_with_damping_matches_damped_coefficients():
    noise = NoiseModel(sigma_n=1.2, sigma_omega=0.04)
    recs = Records([0.9, 1.7], [0.3, 2.0], [0.5, 0.5], [20, 20], [16, 12])
    state = fbp_full(recs, ReconstructionConfig(kmax=20, mode="full-sphere",
                                                noise=noise, two_j_ref=20))
    theta = rng.uniform(0.0, math.pi, 50)
    phi = rng.uniform(0.0, 2.0 * math.pi, 50)
    assert np.allclose(oracles.xi_sum(recs, theta, phi, 20, noise),
                       wigner_eval(state, theta, phi), atol=1e-10)


# ---------------------------------------------------------------- quadrature helper

def test_hemisphere_quadrature_weights():
    theta, phi, w = oracles.hemisphere_quadrature(32, 64)
    assert w.sum() == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert theta.min() > 0.0 and theta.max() < math.pi / 2.0
    # discrete orthogonality of rotation elements over the hemisphere
    from spintomo.angular import rot_elements_axis

    kmax = 6
    acc = np.zeros((2 * kmax + 1, 2 * kmax + 1), dtype=complex)
    for i, th in enumerate(theta):
        for l, ph in enumerate(phi):
            d = rot_elements_axis(kmax, th, ph)[kmax]
            acc += w[i, l] * np.outer(np.conj(d), d)
    want = 2.0 * math.pi / (2.0 * kmax + 1.0) * np.eye(2 * kmax + 1)
    assert np.abs(acc - want).max() < 1e-12


# ---------------------------------------------------------------- pipeline

def test_reconstruct_convenience_round_trip():
    s = coherent_state(40, 0.0, 0.0, 0.0, kmax=40)
    recs = sample_measurements(s, _plane_axes(24), 200, NoiseModel(), seed=12)
    cfg = ReconstructionConfig(kmax=23, mode="in-plane", fold_north=True, two_j_ref=40)
    out = reconstruct(recs, cfg)
    out.validate()
    assert out.two_j_ref == 40
    assert out.kmax == 23


def test_config_validation():
    with pytest.raises(ValueError):
        ReconstructionConfig(kmax=-1)
    with pytest.raises(ValueError):
        ReconstructionConfig(kmax=2, mode="diagonal")
