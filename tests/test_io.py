import math

import numpy as np
import pytest

from spintomo import io as stio
from spintomo.analysis import power_spectrum
from spintomo.forward import NoiseModel, sample_measurements
from spintomo.states import coherent_state, maximally_mixed_state, wigner_grid

import oracles


# ---------------------------------------------------------------- measurements

def test_measurement_row_parse(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("theta,phi,weight,two_j,two_m\n"
                    "1.5707963,0.0,,40,32\n"
                    "# a comment\n"
                    "0.5,2.0,0.25,40,-40\n")
    recs = stio.parse_measurements(path)
    assert len(recs) == 2
    assert recs[0].theta == pytest.approx(math.pi / 2.0, abs=1e-6)
    assert math.isnan(recs[0].weight)
    assert recs[0].two_j == 40 and recs[0].two_m == 32
    assert recs[1].weight == 0.25


def test_measurement_parity_violation_reports_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("theta,phi,weight,two_j,two_m\n"
                    "0.1,0.0,1.0,40,31\n")
    with pytest.raises(stio.MeasurementFormatError, match="line 2.*parity"):
        stio.parse_measurements(path)


def test_measurement_malformed_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("theta,phi,weight,two_j,two_m\n"
                    "0.1,0.0,1.0,40\n"
                    "0.1,0.0,abc,40,30\n")
    with pytest.raises(stio.MeasurementFormatError) as err:
        stio.parse_measurements(path)
    assert "line 2" in str(err.value)
    assert "line 3" in str(err.value)


def test_measurement_requires_header_and_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0.1,0.0,1.0,4,2\n")
    with pytest.raises(stio.MeasurementFormatError, match="header"):
        stio.parse_measurements(path)
    empty = tmp_path / "e.csv"
    empty.write_text("theta,phi,weight,two_j,two_m\n")
    with pytest.raises(stio.MeasurementFormatError, match="no measurement rows"):
        stio.parse_measurements(empty)


def test_measurement_round_trip_byte_stable(tmp_path):
    s = coherent_state(20, 0.3, 1.0, 0.0, kmax=20)
    recs = sample_measurements(s, [(math.pi / 2.0, 0.1), (math.pi / 2.0, 1.0)], 30,
                               NoiseModel(), seed=4)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    stio.write_measurements(p1, recs)
    back = stio.parse_measurements(p1)
    stio.write_measurements(p2, back)
    assert p1.read_bytes() == p2.read_bytes()
    assert back == recs


# ---------------------------------------------------------------- coefficients

def test_coefficients_round_trip_lossless(tmp_path):
    rng = np.random.default_rng(8)
    from spintomo.states import DickeState, dicke_to_spherical

    rho = oracles.random_density_matrix(7, rng)
    s = dicke_to_spherical(DickeState(7, rho), 7)
    path = tmp_path / "c.csv"
    stio.write_coefficients(path, s)
    back = stio.read_coefficients(path)
    assert back.two_j_ref == 7
    assert back.kmax == 7
    assert np.array_equal(back.coeffs, s.coeffs)


def test_coefficients_missing_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("k,q,re,im\n0,0,1.0,0.0\n")
    with pytest.raises(ValueError, match="two_j_ref"):
        stio.read_coefficients(path)


def test_coefficients_non_finite_rejected(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("# two_j_ref = 2\n# kmax = 1\nk,q,re,im\n0,0,0.5,0.0\n1,1,nan,0.0\n")
    with pytest.raises(ValueError, match="non-finite"):
        stio.read_coefficients(path)


# ---------------------------------------------------------------- spectrum / grid / pgm

def test_spectrum_file_contains_sixth(tmp_path):
    s = coherent_state(1, 0.0, 0.0, 0.0, kmax=1)
    path = tmp_path / "s.csv"
    stio.write_spectrum(path, power_spectrum(s))
    lines = path.read_text().splitlines()
    assert lines[0] == "k,C_k"
    k, val = lines[2].split(",")
    assert k == "1"
    assert val.startswith("0.166666666666")


def test_grid_csv_layout(tmp_path):
    s = maximally_mixed_state(4, kmax=0)
    g = wigner_grid(s, 4, 6)
    path = tmp_path / "g.csv"
    stio.write_grid(path, g)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,phi,W"
    assert len(lines) == 1 + 4 * 6


def test_pgm_constant_grid(tmp_path):
    s = maximally_mixed_state(4, kmax=0)
    g = wigner_grid(s, 4, 8)
    path = tmp_path / "flat.pgm"
    stio.write_pgm(path, g)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("# wmin=")
    assert lines[2] == "8 4"
    assert lines[3] == "65535"
    pixels = {int(v) for row in lines[4:] for v in row.split()}
    assert pixels == {0}


def test_pgm_header_inverts_affine_map(tmp_path):
    s = coherent_state(10, 0.7, 0.5, 0.0, kmax=10)
    g = wigner_grid(s, 12, 16)
    path = tmp_path / "w.pgm"
    stio.write_pgm(path, g)
    lines = path.read_text().splitlines()
    head = dict(part.split("=") for part in lines[1][2:].split())
    lo, hi = float(head["wmin"]), float(head["wmax"])
    assert lo == g.values.min() and hi == g.values.max()
    pixels = np.array([[int(v) for v in row.split()] for row in lines[4:]])
    recovered = lo + pixels / 65535.0 * (hi - lo)
    assert np.abs(recovered - g.values).max() <= (hi - lo) / 65535.0


# ---------------------------------------------------------------- config

def test_config_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("mode = in-plane\n"
                    "kmax = 23   # capped by the axis count\n"
                    "\n"
                    "fold_north = true\n")
    cfg = stio.parse_config(path)
    assert cfg == {"mode": "in-plane", "kmax": "23", "fold_north": "true"}


def test_config_rejects_garbage(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("this is not a key value line\n")
    with pytest.raises(ValueError, match="key = value"):
        stio.parse_config(path)
