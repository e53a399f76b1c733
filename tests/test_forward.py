import collections.abc
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

import spintomo.forward as forward
import spintomo.states as states
from spintomo.forward import (
    NoiseModel,
    Records,
    exact_records,
    projection_probabilities,
    sample_measurements,
)
from spintomo.states import (
    DickeState,
    SphericalState,
    coherent_state,
    dicke_to_spherical,
    maximally_mixed_state,
)

import oracles

rng = np.random.default_rng(777)


# ---------------------------------------------------------------- noise model

def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma_n=-1.0)
    with pytest.raises(ValueError):
        NoiseModel(phase_mode="sometimes")
    for name in ("sigma_n", "sigma_omega", "sigma_phi", "sigma_ph"):
        with pytest.raises(ValueError, match=f"{name} .* with a finite square"):
            NoiseModel(**{name: 1e200})  # finite, but its square overflows


def test_noise_model_phase_mapping():
    nm = NoiseModel(phase_mode="model", sigma_ph=math.radians(8.2))
    # verbatim quadratic reading: sigma_ph^2 |sin phi| / sqrt(2)
    phi = 0.6
    want = math.radians(8.2) ** 2 * math.sin(phi) / math.sqrt(2.0)
    assert float(nm.azimuth_sigma(phi)) == pytest.approx(want, rel=1e-12)
    assert float(nm.azimuth_sigma(-phi)) == pytest.approx(want, rel=1e-12)
    const = NoiseModel(phase_mode="constant", sigma_phi=0.05)
    assert float(const.azimuth_sigma(2.0)) == 0.05
    assert float(NoiseModel().azimuth_sigma(2.0)) == 0.0


def test_noise_model_phase_law_has_period_two_pi():
    # a spread must be non-negative and 2 pi-periodic; sin|phi| is neither past pi
    nm = NoiseModel(phase_mode="model", sigma_ph=0.4)
    phi = np.linspace(-2.0 * math.pi, 4.0 * math.pi, 601)
    got, shifted = nm.azimuth_sigma(phi), nm.azimuth_sigma(phi - 2.0 * math.pi)
    assert np.all(got >= 0.0)
    assert np.abs(got - shifted).max() <= 1e-15
    assert float(nm.azimuth_sigma(4.0)) == pytest.approx(0.16 * abs(math.sin(4.0)) / math.sqrt(2.0),
                                                         rel=1e-15)


def test_phase_noise_same_records_one_turn_apart():
    # an axis at phi in (pi, 2 pi) and the same axis at phi - 2 pi draw the same outcomes
    s = coherent_state(20, math.pi / 2.0, 4.0, 0.0, kmax=20)
    noise = NoiseModel(phase_mode="model", sigma_ph=0.6)
    here = sample_measurements(s, [(math.pi / 2.0, 4.0)], 200, noise, seed=5)
    there = sample_measurements(s, [(math.pi / 2.0, 4.0 - 2.0 * math.pi)], 200, noise, seed=5)
    assert np.array_equal(here.two_m, there.two_m)
    assert np.array_equal(here.two_j, there.two_j)
    quiet = sample_measurements(s, [(math.pi / 2.0, 4.0)], 200, NoiseModel(), seed=5)
    assert not np.array_equal(here.two_m, quiet.two_m)


@pytest.mark.parametrize("kwargs", [
    {"sigma_phi": 0.3},
    {"phase_mode": "model", "sigma_phi": 0.3},
    {"sigma_ph": 0.3},
    {"phase_mode": "constant", "sigma_ph": 0.3},
    {"phase_mode": "constant", "sigma_phi": 0.1, "sigma_ph": 0.3},
])
def test_noise_model_rejects_a_phase_amount_its_mode_ignores(kwargs):
    # such an amount would leave the records and the damping silently noise-free
    with pytest.raises(ValueError, match="needs phase_mode"):
        NoiseModel(**kwargs)


def test_record_invariants():
    # a one-row Records raises the message of the row's own check
    for row, message in [
            ((0.1, 0.0, 1.0, 4, 3), "two_m = 3 and two_j = 4 have different parity"),
            ((0.1, 0.0, 1.0, 4, 6), "|two_m| = 6 exceeds two_j = 4"),
            ((0.1, 0.0, -0.5, 4, 2), "weight must be non-negative or NaN, got -0.5"),
            ((4.0, 0.0, 1.0, 4, 2), "theta = 4.0 outside [0, pi]")]:
        for check in (lambda: Records(*zip(row)), lambda: forward._check_row(*row)):
            with pytest.raises(ValueError) as got:
                check()
            assert str(got.value) == message
    recs = Records([0.1], [0.0], [math.nan], [4], [2])  # pending weight is fine
    assert math.isnan(recs.weight[0])


# ---------------------------------------------------------------- record columns

_EDGE_FLOATS = st.sampled_from([0.0, -0.0, math.pi, 3.1415926535897936, -1e-300, 1.0, 4.0,
                                math.inf, -math.inf, math.nan])
_VALID_SPINS = st.integers(0, 6).flatmap(
    lambda j: st.tuples(st.just(j), st.integers(0, j).map(lambda k: 2 * k - j)))
_INT_SPINS = _VALID_SPINS | st.tuples(st.integers(-2, 6), st.integers(-8, 8))
# a spin column holds one type, so its rows print as the record's fields do
_FLOAT_SPINS = _INT_SPINS.map(lambda s: (float(s[0]), float(s[1]))) | st.sampled_from(
    [(4.5, 0.5), (4.0, 2.5), (4.0, 2.0)])


def _rows(spins):
    return st.lists(st.tuples(st.floats(0.0, math.pi) | _EDGE_FLOATS | st.floats(-1.0, 4.0),
                              st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS,
                              st.floats(0.0, 1e300) | _EDGE_FLOATS,
                              spins).map(lambda r: r[:3] + r[3]), min_size=1, max_size=6)


def _record_error(row):
    try:
        forward._check_row(*row)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(rows=_rows(_INT_SPINS) | _rows(_FLOAT_SPINS))
@example(rows=[(0.5, 0.0, 1.0, 4, 2), (0.5, 0.0, math.inf, 4, 2)])
@example(rows=[(0.5, 0.0, -math.inf, 4, 2)])
@example(rows=[(math.nan, 0.0, 1.0, 4, 2)])
@example(rows=[(0.5, math.nan, 1.0, 4, 2)])
@example(rows=[(0.5, 0.0, 1.0, 4.5, 0.5)])
@example(rows=[(0.5, 0.0, 1.0, 4, 3)])
@example(rows=[(0.5, 0.0, 1.0, -2, 0)])
@example(rows=[(0.5, 0.0, 1.0, 4, 2), (1.5, 0.2, 1.0, 10 ** 20, 0)])
@example(rows=[(0.5, 0.0, 1.0, 2 ** 63, 0)])
@example(rows=[(0.5, 0.0, 1.0, 0, -2 ** 63)])
@example(rows=[(0.5, 0.0, 1.0, 1e20, 0.0)])
@example(rows=[(0.5, 0.0, 1.0, 2 ** 63 - 1, 1 - 2 ** 63)])
def test_records_refuse_what_the_record_refuses(rows):
    # one vector check, with the single row's message for the first bad row
    errors = [e for e in map(_record_error, rows) if e is not None]
    if errors:
        with pytest.raises(ValueError) as got:
            Records(*zip(*rows))
        assert str(got.value) == errors[0]
    else:
        recs = Records(*zip(*rows))
        assert all(np.array_equal(column, np.array(values, dtype=column.dtype), equal_nan=True)
                   for column, values in zip(recs.columns, zip(*rows)))


def test_records_slice_concatenate_and_compare_by_columns():
    recs = Records([0.5] * 5, [0.1 * i for i in range(5)], [0.25, 0.25, math.nan, 0.25, 0.25],
                   [4] * 5, [2 * i - 4 for i in range(5)])
    assert Records.of(recs) is recs and len(recs) == 5
    assert not isinstance(recs, collections.abc.Sequence)
    assert isinstance(recs[1:3], Records) and recs[1:3].phi.tolist() == [0.1, 0.2]
    assert recs[1:3] == Records([0.5] * 2, [0.1, 0.2], [0.25, math.nan], [4, 4], [-2, 0])
    assert recs[:2] + recs[2:] == recs and len(recs + recs) == 10
    assert recs != recs[::-1] and recs != recs[:4] and recs != 5
    assert pickle.loads(pickle.dumps(recs)) == recs
    # neither a row by position nor the rows of a list: the columns are the records
    with pytest.raises(TypeError):
        recs[0]
    with pytest.raises(TypeError):
        recs + list(recs)
    assert recs != list(recs) and list(recs) != recs


def test_records_iterate_as_named_rows_that_records_of_takes_back():
    # the row surface the benchmark uses: list += Records, then Records.of(list)
    recs = Records([0.5, 0.7], [0.0, 0.1], [math.nan, 0.5], [2, 4], [0, -2])
    rows = []
    rows += recs
    assert [r._fields for r in rows] == [("theta", "phi", "weight", "two_j", "two_m")] * 2
    assert rows[1] == (0.7, 0.1, 0.5, 4, -2) and math.isnan(rows[0].weight)
    assert type(rows[1].two_j) is int and type(rows[1].theta) is float
    assert Records.of(rows) == recs


def test_records_are_read_only_and_never_empty():
    recs = Records([0.5], [0.0], [1.0], [2], [0])
    with pytest.raises(AttributeError):
        recs.weight = np.zeros(1)
    with pytest.raises(ValueError):
        recs.weight[0] = 0.0
    assert recs.two_j.dtype == np.int64 and recs.columns[0] is recs.theta
    with pytest.raises(ValueError, match="no measurement records"):
        Records.of([])
    with pytest.raises(ValueError, match="one length"):
        Records([0.5, 0.5], [0.0], [1.0], [2], [0])


def test_every_records_is_checked_when_built():
    recs = Records([0.5, 0.7], [0.0, 0.1], [0.5, 0.5], [2, 2], [0, 2])
    with pytest.raises(ValueError, match=r"^weight must be non-negative or NaN, got -1.0$"):
        dataclasses.replace(recs, weight=[-1.0, 0.5])
    with pytest.raises(ValueError, match="one length"):
        dataclasses.replace(recs, two_m=[0])
    assert dataclasses.replace(recs, weight=[math.nan, 1.0]) == Records(
        [0.5, 0.7], [0.0, 0.1], [math.nan, 1.0], [2, 2], [0, 2])


def test_unpickled_records_stay_read_only():
    recs = pickle.loads(pickle.dumps(Records([0.5, 0.7], [0.0, 0.1], [0.5, 0.5], [2, 2], [0, 2])))
    assert recs == Records([0.5, 0.7], [0.0, 0.1], [0.5, 0.5], [2, 2], [0, 2])
    for name, column in zip(("theta", "phi", "weight", "two_j", "two_m"), recs.columns):
        assert not column.flags.writeable, name
    with pytest.raises(AttributeError):
        recs.theta = np.zeros(2)


def test_producers_return_record_columns():
    s = coherent_state(6, 0.4, 0.2, 0.0, 6)
    for recs in (sample_measurements(s, [(0.3, 0.1), (1.2, 2.0)], 5, NoiseModel(), seed=1),
                 sample_measurements(s, [(0.3, 0.1)], 5, NoiseModel(sigma_omega=0.1), seed=1),
                 exact_records(s, [(0.3, 0.1), (1.2, 2.0)])):
        assert isinstance(recs, Records)
        assert recs == Records(*recs.columns)  # the producers' columns pass the check


@pytest.mark.parametrize("axes, message", [
    ([(0.3, 0.1), (3.5, 0.0)], r"theta = 3.5 outside \[0, pi\]"),
    ([(0.3, math.inf)], "phi must be finite"),
    ([(math.nan, 0.0)], "theta = nan outside"),
])
def test_producers_refuse_bad_axes_as_records_do(axes, message):
    s = coherent_state(6, 0.4, 0.2, 0.0, 6)
    with pytest.raises(ValueError, match=message):
        sample_measurements(s, axes, 3, NoiseModel(), seed=1)
    with pytest.raises(ValueError, match=message):
        sample_measurements(s, axes, 3, NoiseModel(sigma_omega=0.1), seed=1)
    with pytest.raises(ValueError, match=message):
        exact_records(s, axes)
    with pytest.raises(ValueError, match="weight must be non-negative or NaN, got -0.5"):
        exact_records(s, [(0.3, 0.1), (1.2, 2.0)], [0.5, -0.5])


# ---------------------------------------------------------------- probabilities

def test_probabilities_maximally_mixed():
    s = maximally_mixed_state(8, kmax=0)
    for theta, phi in [(0.0, 0.0), (1.2, 2.2), (math.pi / 2.0, -0.4)]:
        p = projection_probabilities(s, theta, phi)
        assert np.allclose(p, 1.0 / 9.0, atol=1e-13)


def test_probabilities_coherent_along_own_axis():
    s = coherent_state(40, 0.0, 0.0, 0.0, kmax=40)
    p = projection_probabilities(s, 0.0, 0.0)
    assert p[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.abs(p[:-1]).max() < 1e-10


def test_probabilities_halfspin_equator():
    s = coherent_state(1, 0.0, 0.0, 0.0, kmax=1)
    p = projection_probabilities(s, math.pi / 2.0, 1.3)
    assert np.allclose(p, [0.5, 0.5], atol=1e-13)


@pytest.mark.parametrize("two_j", [2, 5, 10])
def test_probabilities_match_rotation_oracle(two_j):
    rho = oracles.random_density_matrix(two_j, rng)
    s = dicke_to_spherical(DickeState(two_j, rho), two_j)
    for _ in range(4):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(-math.pi, math.pi))
        got = projection_probabilities(s, theta, phi)
        want = oracles.rotated_diagonal(rho, two_j, theta, phi)
        assert np.abs(got - want).max() < 1e-10


@pytest.mark.parametrize("two_j", [7, 8])
def test_batched_probabilities_match_rotation_oracle(two_j):
    r = np.random.default_rng(two_j)
    rho = oracles.random_density_matrix(two_j, r)
    s = dicke_to_spherical(DickeState(two_j, rho), two_j)
    theta = np.concatenate([[0.0, math.pi], r.uniform(0.0, math.pi, 48)])
    phi = r.uniform(-math.pi, math.pi, 50)
    got = projection_probabilities(s, theta, phi)
    want = np.array([oracles.rotated_diagonal(rho, two_j, t, f) for t, f in zip(theta, phi)])
    assert got.shape == (50, two_j + 1)
    assert np.abs(got - want).max() < 1e-10


def test_batched_probabilities_check_reality_per_axis():
    # rho_11 without its rho_1,-1 mirror (its residual would vanish at the pole only)
    # cannot be built; with the mirror the state is Hermitian and evaluated per axis
    coeffs = np.zeros((2, 3), dtype=complex)
    coeffs[0, 1] = 1.0 / math.sqrt(3.0)
    coeffs[1, 2] = 0.1
    with pytest.raises(ValueError, match="reality invariant"):
        SphericalState(2, 1, coeffs)
    coeffs[1, 0] = -0.1
    s = SphericalState(2, 1, coeffs)
    assert projection_probabilities(s, 0.0, 0.0).shape == (3,)
    assert projection_probabilities(s, [0.0, math.pi / 2.0], [0.0, 1.0]).shape == (2, 3)
    with pytest.raises(ValueError, match="outside"):
        projection_probabilities(s, [0.5, 3.5], [0.0, 0.0])


@pytest.mark.parametrize("theta, phi", [
    (np.array([0.0, 0.4, 1.9, math.pi]), np.array([0.3, -1.0, 2.5, 0.0])),
    (np.array([[0.2], [1.1], [2.7]]), np.array([-0.5, 0.0, 1.4, 3.0])),
    (0.8, np.array([[0.1, 0.2], [0.3, 0.4]])),
])
def test_probabilities_broadcast_the_angles(theta, phi):
    two_j = 6
    s = dicke_to_spherical(DickeState(two_j, oracles.random_density_matrix(
        two_j, np.random.default_rng(4))), two_j)
    got = projection_probabilities(s, theta, phi)
    th, ph = np.broadcast_arrays(theta, phi)
    assert got.shape == th.shape + (two_j + 1,)
    for i in np.ndindex(th.shape):  # equal up to the rounding of a batched product
        want = projection_probabilities(s, float(th[i]), float(ph[i]))
        assert np.abs(got[i] - want).max() <= 1e-15


def test_probabilities_sum_is_trace():
    two_j = 12
    rho = oracles.random_density_matrix(two_j, rng)
    s = dicke_to_spherical(DickeState(two_j, rho), two_j)
    for _ in range(5):
        theta = float(rng.uniform(0.0, math.pi))
        phi = float(rng.uniform(-math.pi, math.pi))
        p = projection_probabilities(s, theta, phi)
        assert p.sum() == pytest.approx(math.sqrt(two_j + 1.0) * oracles.coeff(s, 0, 0).real,
                                        abs=1e-10)


def test_probabilities_truncated_state_can_go_negative():
    # heavy truncation of a localized state produces ringing, not an error
    s = coherent_state(40, 0.0, 0.0, 0.0, kmax=6)
    p = projection_probabilities(s, 0.0, 0.0)
    assert p.min() < 0.0
    assert p.sum() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------- sampler

def test_sampler_deterministic():
    s = coherent_state(20, 0.4, 0.9, 0.0, kmax=20)
    axes = [(math.pi / 2.0, a * math.pi / 8) for a in range(8)]
    noise = NoiseModel(sigma_n=1.5, sigma_omega=0.02,
                       phase_mode="model", sigma_ph=0.1)
    a = sample_measurements(s, axes, 25, noise, seed=123)
    b = sample_measurements(s, axes, 25, noise, seed=123)
    assert a == b
    c = sample_measurements(s, axes, 25, noise, seed=124)
    assert a != c


def test_sampler_coherent_pole_all_stretched():
    s = coherent_state(40, 0.0, 0.0, 0.0, kmax=40)
    recs = sample_measurements(s, [(0.0, 0.0)], 500, NoiseModel(), seed=5)
    assert np.all(recs.two_m == 40) and np.all(recs.two_j == 40)
    assert recs.weight.sum() == pytest.approx(1.0, rel=1e-12)


def test_sampler_mixed_state_chi_square():
    s = maximally_mixed_state(4, kmax=0)
    recs = sample_measurements(s, [(1.0, 2.0)], 100_000, NoiseModel(), seed=99)
    counts = np.bincount((recs.two_m + 4) // 2, minlength=5)
    res = chisquare(counts)
    assert res.pvalue > 0.001


def test_sampler_number_noise_statistics():
    s = coherent_state(80, 0.0, 0.0, 0.0, kmax=80)
    noise = NoiseModel(sigma_n=6.0)
    recs = sample_measurements(s, [(0.9, 0.0)], 20_000, NoiseModel(sigma_n=6.0), seed=17)
    js = recs.two_j / 2.0
    # variance of j should approach sigma_n^2 / 2 (rounding adds 1/12 per unit step)
    assert js.mean() == pytest.approx(40.0, abs=0.2)
    assert js.var() == pytest.approx(noise.sigma_n ** 2 / 2.0 + 1.0 / 12.0, rel=0.1)
    assert np.all(recs.two_j % 2 == 0) and np.all(np.abs(recs.two_m) <= recs.two_j)


def test_sampler_bounds_number_noise_by_the_atom_number():
    s = coherent_state(20, 0.0, 0.0, 0.0, kmax=20)
    with pytest.raises(ValueError, match="exceeds the atom number two_j = 20"):
        sample_measurements(s, [(0.9, 0.0)], 3, NoiseModel(sigma_n=20.5), seed=1)
    assert len(sample_measurements(s, [(0.9, 0.0)], 3, NoiseModel(sigma_n=20.0), seed=1)) == 3


def test_sampler_empirical_moments_converge():
    two_j = 20
    s = coherent_state(two_j, 0.0, 0.0, 0.0, kmax=two_j)
    theta, phi = math.pi / 2.0, 0.3
    recs = sample_measurements(s, [(theta, phi)], 40_000, NoiseModel(), seed=3)
    ms = recs.two_m / 2.0
    p = projection_probabilities(s, theta, phi)
    m_grid = (2.0 * np.arange(two_j + 1) - two_j) / 2.0
    want_mean = p @ m_grid
    want_var = p @ m_grid ** 2 - want_mean ** 2
    # O(1/sqrt(shots)) statistical tolerance
    assert ms.mean() == pytest.approx(want_mean, abs=4.0 * math.sqrt(want_var / 40_000))
    assert ms.var() == pytest.approx(want_var, rel=0.05)


def test_sampler_rejects_unphysical_state():
    s = coherent_state(40, 0.0, 0.0, 0.0, kmax=6)  # ringing makes p_m < 0
    with pytest.raises(ValueError):
        sample_measurements(s, [(0.0, 0.0)], 10, NoiseModel(), seed=1)


def test_exact_records_reject_unphysical_state():
    s = coherent_state(40, 0.0, 0.0, 0.0, kmax=6)
    with pytest.raises(ValueError, match=r"unphysical: min p_m = -"):
        exact_records(s, [(0.0, 0.0)])


def test_exact_records_require_an_axis():
    s = coherent_state(4, 0.0, 0.0, 0.0, kmax=4)
    with pytest.raises(ValueError, match="at least one axis"):
        exact_records(s, [])


_SAMPLER_NOISE = {
    "none": NoiseModel(),
    "number": NoiseModel(sigma_n=1.5),
    "axis": NoiseModel(sigma_omega=0.08),
    "phase-constant": NoiseModel(phase_mode="constant", sigma_phi=0.07),
    "phase-model": NoiseModel(phase_mode="model", sigma_ph=0.4),
    "all": NoiseModel(sigma_n=1.5, sigma_omega=0.08, phase_mode="model", sigma_ph=0.4),
}
# poles included; the model phase noise vanishes on the phi = 0 axis
_SAMPLER_AXES = [(0.0, 0.0), (0.7, 1.1), (math.pi / 2.0, -2.0), (2.2, 2.9), (math.pi, 0.3)]


# two_j -> coherent state (theta0, phi0, kmax) and shots per axis.  At N = 1260
# atoms the pole state is truncated at kmax 220, where min p_m along every axis
# is -1e-9, inside _draw's -1e-8 bound (at kmax 200 it is -3.4e-8 along the pole).
_SAMPLER_STATES = {7: ((0.9, 0.4, 7), 30), 10: ((0.9, 0.4, 10), 30),
                   1260: ((0.0, 0.0, 220), 20)}


@pytest.mark.parametrize("two_j", sorted(_SAMPLER_STATES))
@pytest.mark.parametrize("case", sorted(_SAMPLER_NOISE))
def test_sampler_matches_per_shot_oracle(case, two_j):
    (theta0, phi0, kmax), shots = _SAMPLER_STATES[two_j]
    s = coherent_state(two_j, theta0, phi0, 0.0, kmax=kmax)
    noise = _SAMPLER_NOISE[case]
    got = sample_measurements(s, _SAMPLER_AXES, shots, noise, seed=31)
    assert got == oracles.sample_per_shot(s, _SAMPLER_AXES, shots, noise, seed=31)


@pytest.mark.parametrize("two_j", [7, 10])
def test_sampler_matches_per_shot_oracle_truncated_state(two_j):
    rho = oracles.random_density_matrix(two_j, np.random.default_rng(11))
    s = dicke_to_spherical(DickeState(two_j, rho), 4)  # kmax < two_j
    noise = _SAMPLER_NOISE["all"]
    got = sample_measurements(s, _SAMPLER_AXES, 30, noise, seed=5)
    assert got == oracles.sample_per_shot(s, _SAMPLER_AXES, 30, noise, seed=5)


def test_sampler_matches_per_shot_oracle_across_kernel_chunks(monkeypatch):
    s = coherent_state(10, 0.9, 0.4, 0.0, kmax=10)
    monkeypatch.setattr(states, "_CHUNK_BUDGET", 3 * 11 ** 2)  # 2 points per kernel chunk
    noise = _SAMPLER_NOISE["all"]
    got = sample_measurements(s, _SAMPLER_AXES, 30, noise, seed=8)
    assert got == oracles.sample_per_shot(s, _SAMPLER_AXES, 30, noise, seed=8)


def test_sampler_matches_per_shot_oracle_across_probability_chunks(monkeypatch):
    # without axis noise all axes share the kernel calls: two axes per call here,
    # one point per kernel chunk and one axis per comparison block of the draw
    s = coherent_state(10, 0.9, 0.4, 0.0, kmax=10)
    monkeypatch.setattr(states, "_CHUNK_BUDGET", 2 * 11)
    for case in ("none", "number"):
        noise = _SAMPLER_NOISE[case]
        got = sample_measurements(s, _SAMPLER_AXES, 30, noise, seed=8)
        assert got == oracles.sample_per_shot(s, _SAMPLER_AXES, 30, noise, seed=8), case


@pytest.mark.parametrize("case", ["none", "number", "all"])
def test_sampler_probability_calls_stay_within_the_budget(case, monkeypatch):
    # one path for every noise model: p_m of at most _CHUNK_BUDGET // (2j+1) points a call
    s = coherent_state(10, 0.9, 0.4, 0.0, kmax=10)
    noise = _SAMPLER_NOISE[case]
    want = oracles.sample_per_shot(s, _SAMPLER_AXES, 30, noise, seed=8)
    seen = []

    def spy(s, theta, phi):
        seen.append(np.size(theta))
        return projection_probabilities(s, theta, phi)

    monkeypatch.setattr(states, "_CHUNK_BUDGET", 3 * 11)
    monkeypatch.setattr(forward, "projection_probabilities", spy)
    assert sample_measurements(s, _SAMPLER_AXES, 30, noise, seed=8) == want
    assert max(seen) <= 3
    points = len(_SAMPLER_AXES) * (30 if noise.has_axis_noise else 1)
    assert sum(seen) == points


def test_sampler_argument_validation():
    s = maximally_mixed_state(2)
    with pytest.raises(ValueError):
        sample_measurements(s, [], 10, NoiseModel(), seed=1)
    with pytest.raises(ValueError):
        sample_measurements(s, [(0.0, 0.0)], 0, NoiseModel(), seed=1)


def test_axis_jitter_broadens_outcomes():
    s = coherent_state(200, 0.0, 0.0, 0.0, kmax=200)
    clean = sample_measurements(s, [(0.0, 0.0)], 400, NoiseModel(), seed=2)
    noisy = sample_measurements(s, [(0.0, 0.0)], 400,
                                NoiseModel(sigma_omega=0.15), seed=2)
    var_clean = np.var(clean.two_m / 2.0)
    var_noisy = np.var(noisy.two_m / 2.0)
    # tilt by eta spreads m ~ j cos(eta); for sigma = 0.15, j = 100 that is O(1)
    assert var_clean == 0.0
    assert var_noisy > 1.0


# ---------------------------------------------------------------- exact records

def test_exact_records_weights_sum_to_trace():
    two_j = 4
    rho = oracles.random_density_matrix(two_j, rng)
    s = dicke_to_spherical(DickeState(two_j, rho), two_j)
    axes = [(math.pi / 2.0, a * math.pi / 8) for a in range(8)]
    recs = exact_records(s, axes)
    assert recs.weight.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(recs.two_j == two_j)


def test_exact_records_match_per_axis_build():
    two_j = 9
    r = np.random.default_rng(9)
    s = dicke_to_spherical(DickeState(two_j, oracles.random_density_matrix(two_j, r)), two_j)
    axes = [(0.0, 0.0), (math.pi, 1.0)] + [
        (float(t), float(f)) for t, f in zip(r.uniform(0.0, math.pi, 10),
                                             r.uniform(-math.pi, math.pi, 10))]
    c = r.uniform(0.5, 1.5, len(axes))
    recs = exact_records(s, axes, c)
    want = []
    for (th, ph), ca in zip(axes, c):
        p = np.clip(projection_probabilities(s, th, ph), 0.0, None)
        want += [(th, ph, ca * pm, two_j, 2 * i - two_j) for i, pm in enumerate(p) if pm > 0.0]
    want = Records.of(want)
    assert all(np.array_equal(getattr(recs, f), getattr(want, f))
               for f in ("theta", "phi", "two_j", "two_m"))
    assert np.abs(recs.weight - want.weight).max() <= 1e-15
