import math
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spintomo import io as stio
from spintomo.analysis import SqueezingReport, power_spectrum, squeezing_scan
from spintomo.forward import NoiseModel, Records, sample_measurements
from spintomo.reconstruct import ReconstructionConfig, reconstruct
from spintomo.states import WignerGrid, coherent_state, maximally_mixed_state, wigner_grid

import oracles


# ---------------------------------------------------------------- measurements

def test_measurement_row_parse(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("theta,phi,weight,two_j,two_m\n"
                    "1.5707963,0.0,,40,32\n"
                    "# a comment\n"
                    "0.5,2.0,0.25,40,-40\n")
    recs = stio.parse_measurements(path)
    assert recs == Records([1.5707963, 0.5], [0.0, 2.0], [math.nan, 0.25], [40, 40], [32, -40])


def test_measurement_parity_violation_reports_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("theta,phi,weight,two_j,two_m\n"
                    "0.1,0.0,1.0,40,31\n")
    with pytest.raises(stio.MeasurementFormatError, match="line 2.*parity"):
        stio.parse_measurements(path)


@pytest.mark.parametrize("spins", ["100000000000000000000,0", "4,-9223372036854775808",
                                   "9223372036854775808,0"])
def test_measurement_spin_beyond_int64_reports_line(tmp_path, spins):
    path = tmp_path / "m.csv"
    path.write_text("theta,phi,weight,two_j,two_m\n"
                    "0.5,0.1,0.2,4,2\n"
                    f"1.5,0.2,1,{spins}\n")
    with pytest.raises(stio.MeasurementFormatError, match="line 3: .*int64 range"):
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


_BOM = "\ufeff"
_FILE_EXAMPLES = settings(max_examples=60, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_measurement_file_with_byte_order_mark(tmp_path):
    # as spreadsheets export CSV: the mark is not part of the header
    path = tmp_path / "bom.csv"
    path.write_text(_BOM + "theta,phi,weight,two_j,two_m\n1.5,0.2,,4,2\n", encoding="utf-8")
    recs = stio.parse_measurements(path)
    assert recs == Records([1.5], [0.2], [math.nan], [4], [2])


def test_coefficient_file_with_byte_order_mark(tmp_path):
    path = tmp_path / "c.csv"
    stio.write_coefficients(path, maximally_mixed_state(4, kmax=2))
    bom = tmp_path / "bom.csv"
    bom.write_text(_BOM + path.read_text(encoding="utf-8"), encoding="utf-8")
    assert np.array_equal(stio.read_coefficients(bom).coeffs, stio.read_coefficients(path).coeffs)


def test_config_file_with_byte_order_mark(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(_BOM + "sigma_n = 2\n", encoding="utf-8")
    assert stio.parse_config(path) == {"sigma_n": "2"}


@pytest.mark.parametrize("records", [[], ()])
def test_writing_no_records_fails_before_any_write(tmp_path, records):
    # the parser refuses a header-only file, so the writer does not make one
    path = tmp_path / "m.csv"
    with pytest.raises(ValueError, match="no measurement records"):
        stio.write_measurements(path, records)
    assert not path.exists()


def test_float_spins_are_written_as_integers(tmp_path):
    # Records takes 4.0 for 4; the file must hold what the parser reads
    path = tmp_path / "m.csv"
    stio.write_measurements(path, Records([0.5], [0.0], [1.0], [4.0], [2.0]))
    assert path.read_text().splitlines()[1] == "0.5,0,1,4,2"
    assert stio.parse_measurements(path) == Records([0.5], [0.0], [1.0], [4], [2])


@st.composite
def _record_columns(draw, max_rows=12):
    """Valid record columns: any finite phi, theta in [0, pi], weights
    non-negative or pending, spins up to 4000."""
    n = draw(st.integers(1, max_rows))
    theta = draw(st.lists(st.floats(0.0, math.pi) | st.just(-0.0), min_size=n, max_size=n))
    phi = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                        min_size=n, max_size=n))
    weight = draw(st.lists(st.floats(0.0, allow_infinity=False) | st.just(-0.0)
                           | st.just(math.nan), min_size=n, max_size=n))
    two_j = draw(st.lists(st.integers(0, 4000), min_size=n, max_size=n))
    two_m = [2 * draw(st.integers(0, j)) - j for j in two_j]
    return Records(theta, phi, weight, two_j, two_m)


def _sprinkle(draw, text):
    # comment and blank lines at random places, before the header too
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        extra = draw(st.sampled_from(["", "   ", "# a comment", "  # 1,2,3,4,5", "\t"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return "\n".join(lines) + "\n"


def _bits(records):
    return [c.view(np.int64).tolist() for c in records.columns]


@_FILE_EXAMPLES
@given(records=_record_columns(), data=st.data())
def test_measurement_csv_round_trip_is_lossless(tmp_path, records, data):
    path = tmp_path / "m.csv"
    stio.write_measurements(path, records)
    path.write_text(_sprinkle(data.draw, path.read_text()))
    back = stio.parse_measurements(path)
    assert _bits(back) == _bits(records)


_FAULTS = {
    "not a number": lambda row, d: row[:2] + ["1.2.3"] + row[3:],
    "four fields": lambda row, d: row[:4],
    "six fields": lambda row, d: row + ["0"],
    "theta above pi": lambda row, d: ["3.1415926535897936"] + row[1:],
    "theta nan": lambda row, d: ["nan"] + row[1:],
    "phi inf": lambda row, d: row[:1] + ["inf"] + row[2:],
    "negative weight": lambda row, d: row[:2] + ["-1e-300"] + row[3:],
    "infinite weight": lambda row, d: row[:2] + ["inf"] + row[3:],
    "odd parity": lambda row, d: row[:4] + [str(int(row[4]) + 1)],
    "m above j": lambda row, d: row[:4] + [str(int(row[3]) + 2)],
    "spin as float": lambda row, d: row[:3] + [row[3] + ".0"] + row[4:],
    "j beyond int64": lambda row, d: row[:3] + [str(2 ** 64)] + row[4:],
    "m beyond int64": lambda row, d: row[:4] + [str(-2 ** 63)],
}


@_FILE_EXAMPLES
@given(records=_record_columns(), fault=st.sampled_from(sorted(_FAULTS)), data=st.data())
def test_measurement_parser_agrees_with_the_line_by_line_rule(tmp_path, records, fault, data):
    # one corrupted row of a well-formed file: the same error text as the oracle
    path = tmp_path / "m.csv"
    stio.write_measurements(path, records)
    lines = path.read_text().splitlines()
    at = data.draw(st.integers(1, len(lines) - 1))
    lines[at] = ",".join(_FAULTS[fault](lines[at].split(","), data.draw))
    path.write_text(_sprinkle(data.draw, "\n".join(lines)))
    with pytest.raises(stio.MeasurementFormatError) as want:
        oracles.parse_measurements_by_line(path)
    with pytest.raises(stio.MeasurementFormatError) as got:
        stio.parse_measurements(path)
    assert str(got.value) == str(want.value)


@_FILE_EXAMPLES
@given(records=_record_columns(), data=st.data())
def test_measurement_parser_reads_what_the_line_by_line_rule_reads(tmp_path, records, data):
    path = tmp_path / "m.csv"
    stio.write_measurements(path, records)
    path.write_text(_sprinkle(data.draw, path.read_text()))
    assert stio.parse_measurements(path) == oracles.parse_measurements_by_line(path)


@pytest.mark.parametrize("good_between", [0, 1])
@pytest.mark.parametrize("bad_row", ["0.5,0.1,0.2,4", "0.5,0.1,0.2,4,3", "x,0.1,0.2,4,2"])
def test_measurement_errors_stop_at_twenty(tmp_path, bad_row, good_between):
    # 25 bad rows, back to back or among good ones: the first 20 are named,
    # whatever their fault
    rows = (["0.5,0.1,0.2,4,2"] * good_between + [bad_row]) * 25
    path = tmp_path / "m.csv"
    path.write_text("theta,phi,weight,two_j,two_m\n" + "\n".join(rows) + "\n")
    with pytest.raises(stio.MeasurementFormatError) as got:
        stio.parse_measurements(path)
    named = [part.split(":")[0] for part in str(got.value).split(": ", 1)[1].split("; ")]
    assert named == [f"line {2 + (good_between + 1) * i + good_between}" for i in range(20)]
    with pytest.raises(stio.MeasurementFormatError) as want:
        oracles.parse_measurements_by_line(path)
    assert str(got.value) == str(want.value)


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


@pytest.mark.parametrize("text, message", [
    ("# two_j_ref = 2\n# kmax = 1\nk,q,re,im\n0,0,0.5,0.0\n1,0,0.1,0.0\n0,0,0.4,0.0\n",
     r"c.csv:6: repeated coefficient \(0, 0\)"),
    ("# two_j_ref = 2\n# kmax = 1\n# kmax = 0\nk,q,re,im\n0,0,0.5,0.0\n",
     "c.csv:3: repeated kmax header"),
    ("# two_j_ref = 2\n# kmax = 0\n# two_j_ref = 4\nk,q,re,im\n0,0,0.5,0.0\n",
     "c.csv:3: repeated two_j_ref header"),
], ids=["row", "kmax", "two_j_ref"])
def test_coefficients_repeated_entries_rejected(tmp_path, text, message):
    path = tmp_path / "c.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        stio.read_coefficients(path)


_HEAD = "# two_j_ref = 2\n# kmax = 1\nk,q,re,im\n"


@pytest.mark.parametrize("text, message", [
    (_HEAD + "x,1,0.1,0.0\n", "c.csv:4: invalid literal for int"),
    (_HEAD + "0,0,abc,0.0\n", "c.csv:4: could not convert"),
    (_HEAD + "0,0,0.5,0.0\n5,1,0.1,0.0\n", r"c.csv:5: coefficient \(5, 1\) out of range"),
    (_HEAD + "0,0,0.5,0.0\n1,1,nan,0.0\n", r"c.csv:5: non-finite coefficient \(1, 1\)"),
    ("# two_j_ref = 2\n# kmax = x\nk,q,re,im\n0,0,0.5,0.0\n", "c.csv:2: invalid literal"),
    ("# two_j_ref = 2\n# kmax = 3\nk,q,re,im\n0,0,0.5,0.0\n",
     r"c.csv:2: kmax = 3 outside 0\.\.two_j_ref = 2"),
    (_HEAD + "1,1,0.1,0.2\n0,0,0.5,0.7\n", "c.csv:5: rho_k0 is not real: imaginary part 0.7"),
], ids=["row_int", "row_float", "out_of_range", "non_finite", "header_int", "header_kmax",
        "complex_k0"])
def test_coefficient_errors_name_file_and_line(tmp_path, text, message):
    path = tmp_path / "c.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
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


# ---------------------------------------------------------------- writers against per-value text

@pytest.fixture(scope="module")
def written():
    """Objects to write, by case name: the CLI workload's shape plus edge values."""
    s = coherent_state(40, math.pi / 2.0, 0.3, 0.0, kmax=40)
    axes = [(math.pi / 2.0, a * math.pi / 30.0) for a in range(30)]
    records = sample_measurements(s, axes, 40, NoiseModel(), seed=5)
    recon = reconstruct(records, ReconstructionConfig(kmax=29, fold_north=True, two_j_ref=40))
    grid = wigner_grid(recon, 64, 128)
    edge = WignerGrid([0.1, math.pi / 3.0], [0.0, 1.0, 2.0, 2.0 * math.pi - 1e-9],
                      [[-0.0, 5e-324, 1e300, -1e300], [1.0 / 3.0, -1.0 / 3.0, 0.0, 1e-300]])
    pending = Records([math.pi / 2.0] * 16, [0.1 * a for a in range(16)],
                      [math.nan if a % 2 else 1.0 / 7.0 for a in range(16)],
                      [7] * 16, [2 * (a % 8) - 7 for a in range(16)])
    pending += Records([0.0, math.pi], [-2.5, 0.0], [math.nan, 0.0], [1, 0], [-1, 0])
    scan = squeezing_scan(recon, np.linspace(-math.pi / 2.0, math.pi / 2.0, 61), 1.5, 20.0)
    # a failed fit, a variance under the noise floor sigma_n^2 / 2 = 1.125, -0.0
    odd = SqueezingReport(phi_s=0.0, v_coh=10.0, squeezing_db=None, v_min_fit=1.0,
                          fit_failures=2, variance_curve=[
                              (-0.0, 3.0, math.nan), (0.1, 1.0, 1.125),
                              (1.0 / 3.0, 1e-300, 2.5), (1.5, 0.5, math.nan)])
    write_squeezing = partial(stio.write_squeezing, sigma_n=1.5)
    squeezing_text = partial(oracles.squeezing_text, sigma_n=1.5)
    return {
        "squeezing": (write_squeezing, scan, squeezing_text),
        "squeezing_edge_values": (write_squeezing, odd, squeezing_text),
        "grid": (stio.write_grid, grid, oracles.grid_text),
        "grid_edge_values": (stio.write_grid, edge, oracles.grid_text),
        "pgm": (stio.write_pgm, grid, oracles.pgm_text),
        "pgm_flat": (stio.write_pgm, wigner_grid(maximally_mixed_state(4, kmax=0), 4, 8),
                     oracles.pgm_text),
        "pgm_edge_values": (stio.write_pgm, edge, oracles.pgm_text),
        "coefficients_kmax0": (stio.write_coefficients, maximally_mixed_state(4, kmax=0),
                               oracles.coefficients_text),
        "coefficients_kmax29": (stio.write_coefficients, recon, oracles.coefficients_text),
        "measurements_sampled": (stio.write_measurements, records, oracles.measurements_text),
        "measurements_pending": (stio.write_measurements, pending, oracles.measurements_text),
    }


@pytest.mark.parametrize("case", [
    "grid", "grid_edge_values", "pgm", "pgm_flat", "pgm_edge_values", "coefficients_kmax0",
    "coefficients_kmax29", "measurements_sampled", "measurements_pending", "squeezing",
    "squeezing_edge_values"])
def test_writers_match_per_value_text(tmp_path, written, case):
    write, obj, text = written[case]
    path = tmp_path / case
    write(path, obj)
    assert path.read_bytes() == text(obj).encode("utf-8")


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
