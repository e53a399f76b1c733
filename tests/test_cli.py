import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spintomo
from spintomo import cli
from spintomo import io as stio
from spintomo.cli import main
from spintomo.forward import NoiseModel, Records, sample_measurements
from spintomo.reconstruct import ReconstructionConfig, reconstruct
from spintomo.states import (
    coherent_state,
    dicke_basis_state,
    maximally_mixed_state,
    wigner_grid,
)

import oracles


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_full_pipeline_coherent(workdir, capsys):
    assert run("simulate", "--state", "coherent", "--two-j", "40", "--axis-plane",
               "--axes", "24", "--shots", "200", "--seed", "7",
               "--out", "meas.csv") == 0
    assert run("reconstruct", "meas.csv", "--mode", "in-plane", "--fold-north",
               "--out", "run") == 0
    assert run("analyze", "run_coeffs.csv") == 0
    out = capsys.readouterr().out
    assert "squeezing:" in out
    db = float(out.split("squeezing:")[1].split("dB")[0])
    assert abs(db) < 2.0  # coherent input at modest statistics; plumbing check
    assert run("render", "run_coeffs.csv", "--grid", "16x32", "--out", "img") == 0
    for name in ("run_coeffs.csv", "run_spectrum.csv",
                 "run_coeffs_squeezing.csv", "img_grid.csv", "img.pgm"):
        assert os.path.exists(name), name


def test_pipeline_oat_detects_squeezing(workdir, capsys):
    assert run("simulate", "--state", "oat", "--two-j", "40", "--chi", "0.05",
               "--axes", "24", "--shots", "200", "--seed", "5",
               "--out", "oat.csv") == 0
    assert run("reconstruct", "oat.csv", "--mode", "in-plane", "--fold-north",
               "--out", "oat") == 0
    assert run("analyze", "oat_coeffs.csv") == 0
    out = capsys.readouterr().out
    db = float(out.split("squeezing:")[1].split("dB")[0])
    assert db < -2.0


def test_pipeline_determinism(workdir):
    for tag in ("a", "b"):
        assert run("simulate", "--state", "coherent", "--two-j", "20", "--axes", "8",
                   "--shots", "40", "--seed", "123", "--out", f"{tag}.csv") == 0
        assert run("reconstruct", f"{tag}.csv", "--mode", "in-plane",
                   "--out", tag) == 0
        assert run("analyze", f"{tag}_coeffs.csv", "--out", f"{tag}_sq.csv") == 0
        assert run("render", f"{tag}_coeffs.csv", "--out", f"{tag}_img") == 0
    for suffix in (".csv", "_coeffs.csv", "_spectrum.csv", "_sq.csv",
                   "_img_grid.csv", "_img.pgm"):
        a = Path(f"a{suffix}").read_bytes()
        b = Path(f"b{suffix}").read_bytes()
        assert a == b, suffix


def test_seed_changes_output(workdir):
    run("simulate", "--two-j", "20", "--axes", "4", "--shots", "10", "--seed", "1",
        "--out", "s1.csv")
    run("simulate", "--two-j", "20", "--axes", "4", "--shots", "10", "--seed", "2",
        "--out", "s2.csv")
    assert Path("s1.csv").read_bytes() != Path("s2.csv").read_bytes()


def test_reconstruct_empty_csv_exits_2(workdir, capsys):
    with open("empty.csv", "w") as fh:
        fh.write("theta,phi,weight,two_j,two_m\n")
    assert run("reconstruct", "empty.csv") == 2
    assert "no measurement rows" in capsys.readouterr().err


def test_reconstruct_invalid_rows_exit_2(workdir, capsys):
    with open("bad.csv", "w") as fh:
        fh.write("theta,phi,weight,two_j,two_m\n0.1,0.0,1.0,40,31\n")
    assert run("reconstruct", "bad.csv") == 2
    assert "parity" in capsys.readouterr().err


def test_reconstruct_spin_beyond_int64_exits_2(workdir, capsys):
    with open("big.csv", "w") as fh:
        fh.write("theta,phi,weight,two_j,two_m\n1.5,0.2,1,100000000000000000000,0\n")
    assert run("reconstruct", "big.csv") == 2
    assert "big.csv: line 2: spin labels must lie within the int64 range" in (
        capsys.readouterr().err)


def test_reconstruct_default_kmax_counts_near_duplicate_azimuths_once(workdir, capsys):
    # 12 axes, one of them written as azimuths 2e-15 apart across a 12-decimal
    # rounding boundary: the default kmax is min(2j, axes - 1) = 11
    split = round(5.0 * math.pi / 12.0, 12) + 0.5e-12
    phis = []
    for a in range(12):
        phis += [split + 1e-15] + [split - 1e-15] * 9 if a == 5 else [a * math.pi / 12.0] * 10
    n = len(phis)
    recs = Records([math.pi / 2.0] * n, phis, [math.nan] * n, [12] * n,
                   [2 * (i % 7) - 6 for i in range(n)])
    stio.write_measurements("probe.csv", recs)
    assert run("reconstruct", "probe.csv", "--out", "probe") == 0
    assert "reconstructed kmax=11 " in capsys.readouterr().out


def test_reconstruct_default_kmax_of_a_spin_zero_record_is_zero(workdir, capsys):
    # number noise draws a record with 2j = 0, so the smallest spin gives kmax 0,
    # and the CLI's run is the library's with that kmax written out
    assert run("simulate", "--two-j", "4", "--sigma-n", "4", "--axes", "3", "--shots", "20",
               "--seed", "2") == 0
    assert run("reconstruct", "measurements.csv", "--out", "r") == 0
    assert "reconstructed kmax=0 " in capsys.readouterr().out
    records = stio.parse_measurements("measurements.csv")
    assert records.two_j.min() == 0
    stio.write_coefficients("want.csv", reconstruct(records, ReconstructionConfig(kmax=0)))
    assert Path("r_coeffs.csv").read_bytes() == Path("want.csv").read_bytes()


def test_weights_are_not_a_reconstruct_setting(workdir, capsys):
    # Voronoi is the only weighting: neither the flag nor the config key exists
    assert run("simulate", "--two-j", "8", "--axes", "4", "--shots", "5") == 0
    with pytest.raises(SystemExit) as exc:
        run("reconstruct", "measurements.csv", "--weights", "voronoi")
    assert exc.value.code == 2
    assert "unrecognized arguments: --weights voronoi" in capsys.readouterr().err
    with open("r.cfg", "w") as fh:
        fh.write("weights = voronoi\n")
    assert run("reconstruct", "measurements.csv", "--config", "r.cfg") == 2
    assert "error: r.cfg: unknown key 'weights'\n" == capsys.readouterr().err
    assert sorted(os.listdir()) == ["measurements.csv", "r.cfg"]


def test_reconstruct_writes_coefficients_and_spectrum_only(workdir, capsys):
    assert run("simulate", "--two-j", "20", "--axes", "8", "--shots", "20", "--seed", "2",
               "--out", "m.csv") == 0
    assert run("reconstruct", "m.csv", "--out", "r") == 0
    assert sorted(os.listdir()) == ["m.csv", "r_coeffs.csv", "r_spectrum.csv"]
    assert "wrote r_coeffs.csv, r_spectrum.csv\n" in capsys.readouterr().out
    # the grid file is render's alone
    with pytest.raises(SystemExit) as exc:
        run("reconstruct", "m.csv", "--grid", "8x16", "--out", "g")
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid" in capsys.readouterr().err


def test_render_grid_is_the_library_grid(workdir):
    assert run("simulate", "--state", "oat", "--two-j", "20", "--chi", "0.05", "--axes", "8",
               "--shots", "30", "--seed", "6", "--sigma-n", "1.5", "--out", "m.csv") == 0
    assert run("reconstruct", "m.csv", "--fold-north", "--kmax", "7", "--sigma-n", "1.5",
               "--out", "r") == 0
    assert run("render", "r_coeffs.csv", "--out", "w") == 0
    config = ReconstructionConfig(kmax=7, noise=NoiseModel(sigma_n=1.5), fold_north=True)
    state = reconstruct(stio.parse_measurements("m.csv"), config)
    stio.write_grid("library_grid.csv", wigner_grid(state, 64, 128))
    assert Path("w_grid.csv").read_bytes() == Path("library_grid.csv").read_bytes()


@pytest.mark.parametrize("flags", [("--state", "oat", "--chi", "nan"), ("--phi0", "nan")])
def test_simulate_non_finite_state_exits_2(workdir, capsys, flags):
    assert run("simulate", *flags, "--out", "meas.csv") == 2
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists("meas.csv")


@pytest.mark.parametrize("flags, state", [
    (("--state", "dicke", "--two-m", "-2"), dicke_basis_state(8, -2, 8)),
    (("--state", "mixed"), maximally_mixed_state(8, 8)),
], ids=["dicke", "mixed"])
def test_simulate_draws_from_the_named_state(workdir, flags, state):
    assert run("simulate", *flags, "--two-j", 8, "--axes", 5, "--shots", 20, "--seed", 4,
               "--out", "m.csv") == 0
    axes = [(math.pi / 2.0, a * math.pi / 5) for a in range(5)]
    assert stio.parse_measurements("m.csv") == sample_measurements(state, axes, 20,
                                                                   NoiseModel(), 4)


def test_simulate_dicke_needs_two_m(workdir, capsys):
    assert run("simulate", "--state", "dicke", "--out", "m.csv") == 2
    assert "--two-m is required for --state dicke" in capsys.readouterr().err
    assert not os.path.exists("m.csv")


@pytest.mark.parametrize("via", ["flag", "config"])
def test_empty_output_path_exits_2(tmp_path, monkeypatch, capsys, via):
    # rejected before any write: nothing lands here or in the parent directory
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    (tmp_path / "e.cfg").write_text("out =\n")
    out = ("--out", "") if via == "flag" else ("--config", tmp_path / "e.cfg")
    assert run("simulate", "--axes", "3", "--shots", "2", *out) == 2
    err = capsys.readouterr().err
    assert "the output path is empty" in err
    assert "check the path" not in err
    assert os.listdir(work) == []
    assert sorted(os.listdir(tmp_path)) == ["e.cfg", "work"]


def test_analyze_without_azimuths_exits_2(workdir, capsys):
    stio.write_coefficients("c.csv", coherent_state(8, 0.0, 0.0, 0.0, kmax=8))
    assert run("analyze", "c.csv", "--phi-steps", "0") == 2
    assert "at least one azimuth" in capsys.readouterr().err
    assert not os.path.exists("c_squeezing.csv")


def test_analyze_spin_too_small_to_fit_exits_2(workdir, capsys):
    assert run("simulate", "--two-j", "3", "--axes", "6", "--shots", "20", "--seed", "1",
               "--out", "m.csv") == 0
    assert run("reconstruct", "m.csv", "--out", "r") == 0
    capsys.readouterr()
    assert run("analyze", "r_coeffs.csv") == 2
    assert "needs two_j_ref >= 4 for the 5 projections" in capsys.readouterr().err
    assert not os.path.exists("r_squeezing.csv")


def test_analyze_of_an_exact_coherent_state_reports_failed_fits(workdir, capsys):
    # along the state's own axis p_m is one spike, where a fit step is singular
    stio.write_coefficients("c.csv", coherent_state(8, math.pi / 2.0, 0.0, 0.0, kmax=8))
    assert run("analyze", "c.csv") == 0
    assert "warning: Gaussian fit failed for 29 axes" in capsys.readouterr().out
    assert os.path.exists("c_squeezing.csv")


@pytest.mark.parametrize("state", [("--state", "dicke", "--two-m", "0"), ("--state", "mixed")],
                         ids=["dicke", "mixed"])
def test_analyze_exits_3_when_every_fit_fails(workdir, capsys, state):
    # p_m is two-peaked (Dicke m = 0 on the equator) or flat (mixed) along every axis
    assert run("simulate", *state, "--two-j", 8, "--axes", 12, "--shots", 50,
               "--out", "m.csv") == 0
    assert run("reconstruct", "m.csv", "--out", "r") == 0
    capsys.readouterr()
    assert run("analyze", "r_coeffs.csv") == 3
    assert capsys.readouterr().err == (
        "numerical failure: Gaussian fit failed along every quantization axis\n")
    assert not os.path.exists("r_squeezing.csv")


def test_analyze_noise_floor_above_the_variance_prints_undefined_db(workdir, capsys):
    stio.write_coefficients("c.csv", coherent_state(8, math.pi / 2.0, 0.0, 0.0, kmax=8))
    assert run("analyze", "c.csv", "--sigma-n", 10) == 0
    out = capsys.readouterr().out
    assert "noise-subtracted minimum variance is non-positive; squeezing in dB undefined" in out
    assert " dB (V_fit" not in out
    assert os.path.exists("c_squeezing.csv")


@pytest.mark.parametrize("command", ["render", "analyze"])
def test_imaginary_rho_k0_exits_2(workdir, capsys, command):
    # Im rho_10 leaves p_m unchanged on the equator, so analyze must reject it on read
    with open("im.csv", "w") as fh:
        fh.write("# two_j_ref = 2\n# kmax = 2\nk,q,re,im\n0,0,0.5,0.0\n1,0,0,0.2\n")
    assert run(command, "im.csv") == 2
    assert "rho_k0 is not real" in capsys.readouterr().err
    assert not os.path.exists("im_squeezing.csv")


@pytest.mark.parametrize("flags, message", [
    (("--j-mean", "0"), "j_mean must be finite and positive"),
    (("--j-mean", "-5"), "j_mean must be finite and positive"),
    (("--j-mean", "nan"), "j_mean must be finite and positive"),
    (("--sigma-n", "-1"), "sigma_n must be finite and non-negative"),
    (("--sigma-n", "inf"), "sigma_n must be finite and non-negative"),
    (("--sigma-n", "1e200"), "sigma_n must be finite and non-negative, with a finite square"),
])
def test_analyze_bad_noise_parameters_exit_2(workdir, capsys, flags, message):
    stio.write_coefficients("c.csv", coherent_state(8, math.pi / 2.0, 0.0, 0.0, kmax=8))
    assert run("analyze", "c.csv", *flags) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists("c_squeezing.csv")


@pytest.mark.parametrize("argv, message", [
    (("reconstruct", "m.csv", "--sigma-n", "1e200"), "sigma_n"),
    (("reconstruct", "m.csv", "--sigma-omega", "1e200"), "sigma_omega"),
    (("simulate", "--phase-noise", "model:1e200"), "sigma_ph"),
    (("simulate", "--sigma-n", "1e200"), "sigma_n"),
])
def test_noise_with_an_overflowing_square_exits_2(workdir, capsys, argv, message):
    stio.write_measurements("m.csv", Records([math.pi / 2.0] * 12, [0.1 * a for a in range(12)],
                                             [math.nan] * 12, [8] * 12, [0] * 12))
    assert run(*argv, "--out", "out") == 2
    assert f"{message} must be finite and non-negative, with a finite square" in (
        capsys.readouterr().err)
    assert sorted(os.listdir()) == ["m.csv"]


@pytest.mark.parametrize("sigma_n", ["21", "1e17", "1e100"])
def test_simulate_number_noise_beyond_the_atom_number_exits_2(workdir, capsys, sigma_n):
    assert run("simulate", "--two-j", "20", "--axes", "2", "--shots", "3",
               "--sigma-n", sigma_n, "--out", "m.csv") == 2
    assert "exceeds the atom number two_j = 20" in capsys.readouterr().err
    assert not os.path.exists("m.csv")


def test_reconstruct_out_of_memory_exits_3(workdir, capsys):
    # a hand-written file can carry a spin whose tables no machine can hold
    with open("huge.csv", "w") as fh:
        fh.write("theta,phi,weight,two_j,two_m\n1.5707963267948966,0,,64702997220605172,-4\n"
                 "1.5707963267948966,1,,4,0\n1.5707963267948966,2,,4,0\n")
    assert run("reconstruct", "huge.csv", "--out", "h") == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Unable to allocate") and err.count("\n") == 1
    assert sorted(os.listdir()) == ["huge.csv"]


@pytest.mark.parametrize("command", ["render", "analyze"])
def test_repeated_coefficient_row_exits_2(workdir, capsys, command):
    with open("dup.csv", "w") as fh:
        fh.write("# two_j_ref = 2\n# kmax = 1\nk,q,re,im\n"
                 "0,0,0.5,0.0\n1,0,0.1,0.0\n1,1,0.0,0.0\n0,0,0.4,0.0\n")
    assert run(command, "dup.csv") == 2
    assert "dup.csv:7: repeated coefficient (0, 0)" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["render", "analyze"])
def test_malformed_coefficient_row_exits_2_with_line(workdir, capsys, command):
    with open("bad.csv", "w") as fh:
        fh.write("# two_j_ref = 2\n# kmax = 1\nk,q,re,im\nx,1,0.1,0.0\n")
    assert run(command, "bad.csv") == 2
    assert "bad.csv:4: invalid literal for int()" in capsys.readouterr().err


def test_render_bad_grid_exits_2(workdir, capsys):
    stio.write_coefficients("c.csv", coherent_state(8, 0.0, 0.0, 0.0, kmax=8))
    assert run("render", "c.csv", "--grid", "abc") == 2
    assert "--grid expects NxM, got 'abc'" in capsys.readouterr().err
    assert sorted(os.listdir()) == ["c.csv"]


def test_missing_input_exits_2(workdir, capsys):
    assert run("reconstruct", "nope.csv") == 2
    capsys.readouterr()


def test_output_in_a_missing_directory_exits_2_naming_it(workdir, capsys):
    assert run("simulate", "--axes", "3", "--shots", "2", "--out", "missing/dir/m.csv") == 2
    err = capsys.readouterr().err
    assert err == "error: cannot write missing/dir/m.csv: No such file or directory\n"
    assert os.listdir() == []


def test_output_onto_a_directory_exits_2_naming_it(workdir, capsys):
    # the rename onto the directory fails; the message names the output path, not
    # the temporary file, and the temporary file is gone
    os.mkdir("adir")
    assert run("simulate", "--axes", "3", "--shots", "2", "--out", "adir") == 2
    assert capsys.readouterr().err == "error: cannot write adir: Is a directory\n"
    assert os.listdir() == ["adir"] and os.listdir("adir") == []


def test_unknown_flag_rejected(workdir):
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--frobnicate")
    assert exc.value.code == 2


def test_no_selftest_subcommand(workdir, capsys):
    # the oracle checks live in the test suite, not in the package
    with pytest.raises(SystemExit) as exc:
        run("selftest")
    assert exc.value.code == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


def _parser_text(parse, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", [
    ["-h"], ["simulate", "-h"], ["reconstruct", "-h"], ["analyze", "-h"], ["render", "-h"],
    ["selftest"], ["simulate", "--frobnicate"], ["render", "c.csv", "--fold-north"],
    ["reconstruct"], ["analyze", "--sigma-n", "1"]],
    ids=["help", "simulate_help", "reconstruct_help", "analyze_help", "render_help",
         "unknown_command", "unknown_option", "other_command_option", "missing_input",
         "missing_input_after_option"])
def test_parser_text_is_that_of_the_full_parser(workdir, capsys, argv):
    # main fills in only the run command's options; what it prints and its exit
    # code are those of a parser with every command's options
    got = _parser_text(main, argv, capsys)
    want = _parser_text(lambda a: cli._build_parser()[0].parse_args(a), argv, capsys)
    assert got == want
    assert got[0] == (0 if "-h" in argv else 2)


def test_a_command_builds_only_its_own_options():
    _, parsers = cli._build_parser("render")
    assert list(parsers) == ["simulate", "reconstruct", "analyze", "render"]
    assert [a.dest for a in parsers["render"]._actions] == ["help", "config", "coefficients",
                                                            "grid", "out"]
    assert all([a.dest for a in parsers[name]._actions] == ["help"]
               for name in ("simulate", "reconstruct", "analyze"))


def test_config_file_with_flag_override(workdir):
    with open("sim.cfg", "w") as fh:
        fh.write("two_j = 20\naxes = 6\nshots = 20\nseed = 9\nout = from_cfg.csv\n")
    assert run("simulate", "--config", "sim.cfg") == 0
    assert os.path.exists("from_cfg.csv")
    recs = stio.parse_measurements("from_cfg.csv")
    assert len(recs) == 120
    # flags beat the file
    assert run("simulate", "--config", "sim.cfg", "--shots", "5",
               "--out", "override.csv") == 0
    assert len(stio.parse_measurements("override.csv")) == 30


def test_config_boolean_values(workdir, capsys):
    run("simulate", "--two-j", "20", "--axes", "6", "--shots", "10", "--seed", "1",
        "--out", "m.csv")
    with open("r.cfg", "w") as fh:
        fh.write("fold_north = false\n")
    assert run("reconstruct", "m.csv", "--config", "r.cfg", "--out", "r") == 0
    assert "fold_north=False" in capsys.readouterr().out
    # a flag still beats the file, for a boolean key too
    assert run("reconstruct", "m.csv", "--config", "r.cfg", "--fold-north", "--out", "r") == 0
    assert "fold_north=True" in capsys.readouterr().out
    with open("bad.cfg", "w") as fh:
        fh.write("fold_north = maybe\n")
    assert run("reconstruct", "m.csv", "--config", "bad.cfg", "--out", "r2") == 2


@pytest.mark.parametrize("key", ["sigma_N = 3", "twoj = 10", "sh = 3", "measurements = m.csv"])
def test_config_key_of_no_subcommand_exits_2(workdir, capsys, key):
    # keys match option names exactly: no case folding, no prefix of --shots
    with open("sim.cfg", "w") as fh:
        fh.write(f"axes = 2\n{key}\n")
    assert run("simulate", "--config", "sim.cfg", "--shots", "2") == 2
    assert f"sim.cfg: unknown key {key.split()[0]!r}" in capsys.readouterr().err
    assert sorted(os.listdir()) == ["sim.cfg"]


@pytest.mark.parametrize("key, message", [
    ("sigma_n = 2", "sim.cfg:3: repeated key 'sigma_n'"),
    ("config = other.cfg", "sim.cfg:3: a config file cannot name another one")])
def test_config_key_that_would_be_ignored_exits_2(workdir, capsys, key, message):
    # a second value of a key, or a file named by a file, would go unread
    with open("sim.cfg", "w") as fh:
        fh.write(f"axes = 2\nsigma_n = 1\n{key}\n")
    with open("other.cfg", "w") as fh:
        fh.write("shots = 3\n")
    assert run("simulate", "--config", "sim.cfg", "--shots", "2") == 2
    assert f"error: {message}\n" == capsys.readouterr().err
    assert sorted(os.listdir()) == ["other.cfg", "sim.cfg"]


@pytest.mark.parametrize("argv, line", [(("reconstruct", "m.csv"), "kmax = abc"),
                                        (("simulate",), "state = bogus")])
def test_config_values_get_the_flag_checks(workdir, capsys, argv, line):
    with open("bad.cfg", "w") as fh:
        fh.write(line + "\n")
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--config", "bad.cfg")
    assert exc.value.code == 2
    assert f"argument --{line.split()[0]}: invalid" in capsys.readouterr().err
    assert sorted(os.listdir()) == ["bad.cfg"]


def test_one_config_file_drives_the_chain_like_flags(workdir, capsys):
    shared = {"seed": "4", "sigma_n": "2.5", "fold_north": "true", "mode": "in-plane",
              "phi_steps": "31"}
    chain = [["simulate", "--two-j", "20", "--axes", "8", "--shots", "30"],
             ["reconstruct", "measurements.csv", "--out", "r"],
             ["analyze", "r_coeffs.csv"],
             ["render", "r_coeffs.csv", "--grid", "8x16"]]
    flags = {"simulate": ["--seed", "4", "--sigma-n", "2.5"],
             "reconstruct": ["--sigma-n", "2.5", "--fold-north", "--mode", "in-plane"],
             "analyze": ["--sigma-n", "2.5", "--phi-steps", "31"],
             "render": []}
    outputs = {}
    for tag in ("flags", "config"):
        os.mkdir(tag)
        os.chdir(tag)
        with open("chain.cfg", "w") as fh:
            fh.write("".join(f"{k} = {v}\n" for k, v in shared.items()))
        for argv in chain:
            extra = flags[argv[0]] if tag == "flags" else ["--config", "chain.cfg"]
            assert run(*argv, *extra) == 0, argv
        outputs[tag] = capsys.readouterr().out, {
            name: Path(name).read_bytes() for name in os.listdir() if name != "chain.cfg"}
        os.chdir("..")
    assert "fold_north=True" in outputs["config"][0]
    assert outputs["config"] == outputs["flags"]


def test_simulate_sphere_layout_and_full_sphere_reconstruction(workdir):
    assert run("simulate", "--state", "coherent", "--two-j", "20", "--theta0", "0.5",
               "--axis-sphere", "--axes", "40", "--shots", "30", "--seed", "3",
               "--out", "sph.csv") == 0
    assert run("reconstruct", "sph.csv", "--mode", "full-sphere", "--kmax", "8",
               "--out", "sph") == 0
    state = stio.read_coefficients("sph_coeffs.csv")
    assert state.kmax == 8
    assert oracles.coeff(state, 0, 0).real == pytest.approx(1.0 / math.sqrt(21.0), rel=1e-9)


def test_two_full_sphere_axes_reconstruct(workdir, capsys):
    # two axes share a great circle, so their weights come from arcs
    assert run("simulate", "--two-j", "4", "--axis-sphere", "--axes", "2", "--shots", "20",
               "--out", "two.csv") == 0
    assert run("reconstruct", "two.csv", "--mode", "full-sphere", "--out", "two") == 0
    assert "reconstructed kmax=4 mode=full-sphere" in capsys.readouterr().out


def test_simulate_axis_layout_flags_exclude_each_other(workdir, capsys):
    common = ("simulate", "--two-j", "4", "--axes", "5", "--shots", "2", "--seed", "1")
    with pytest.raises(SystemExit) as exc:
        run(*common, "--axis-plane", "--axis-sphere", "--out", "both.csv")
    assert exc.value.code == 2
    assert "--axis-sphere: not allowed with argument --axis-plane" in capsys.readouterr().err
    # the flag alone, the default and a config key each pick their layout
    assert run(*common, "--axis-plane", "--out", "plane.csv") == 0
    assert run(*common, "--out", "default.csv") == 0
    with open("sphere.cfg", "w") as fh:
        fh.write("axis_sphere = true\n")
    assert run(*common, "--config", "sphere.cfg", "--out", "cfg.csv") == 0
    assert run(*common, "--axis-sphere", "--out", "sphere.csv") == 0
    # the command line beats the file's layout, as it beats every other key
    assert run(*common, "--config", "sphere.cfg", "--axis-plane", "--out", "cfg_plane.csv") == 0
    theta = {name: set(stio.parse_measurements(name + ".csv").theta.tolist())
             for name in ("plane", "default", "cfg", "sphere", "cfg_plane")}
    assert theta["plane"] == theta["default"] == theta["cfg_plane"] == {math.pi / 2.0}
    assert theta["cfg"] == theta["sphere"] and len(theta["cfg"]) == 5
    assert not os.path.exists("both.csv")


@pytest.mark.parametrize("value", ["junk", "model", "model:", "model:abc", "constant:1rad"])
def test_simulate_bad_phase_noise_exits_2(workdir, capsys, value):
    assert run("simulate", "--phase-noise", value, "--out", "x.csv") == 2
    assert (f"--phase-noise expects 'none', 'constant:<rad>' or 'model:<rad>', got {value!r}"
            in capsys.readouterr().err)
    assert not os.path.exists("x.csv")


def test_simulate_phase_noise_flag(workdir):
    assert run("simulate", "--two-j", "20", "--axes", "6", "--shots", "10",
               "--seed", "1", "--phase-noise", "model:0.14", "--out", "pn.csv") == 0
    # the model law is always sigma_ph^2 |sin phi| / sqrt(2): no variant to choose
    with pytest.raises(SystemExit) as exc:
        run("simulate", "--two-j", "20", "--axes", "6", "--shots", "10", "--seed", "1",
            "--phase-noise", "model:0.14", "--phase-variant", "quadratic", "--out", "pv.csv")
    assert exc.value.code == 2
    with open("pv.cfg", "w") as fh:
        fh.write("phase_variant = linear\n")
    assert run("simulate", "--config", "pv.cfg", "--out", "pv.csv") == 2
    assert not os.path.exists("pv.csv")


_NO_SCIPY_CHAIN = """
import sys
import spintomo
from spintomo.cli import main

steps = [["simulate", "--state", "oat", "--two-j", "20", "--chi", "0.05", "--axis-plane",
          "--axes", "12", "--shots", "40", "--seed", "3", "--sigma-n", "1", "--out", "m.csv"],
         ["reconstruct", "m.csv", "--fold-north", "--sigma-n", "1", "--out", "r"],
         ["analyze", "r_coeffs.csv", "--sigma-n", "1", "--phi-steps", "31"],
         ["render", "r_coeffs.csv", "--grid", "8x16", "--out", "w"]]
for argv in steps:
    assert main(argv) == 0, argv
# a cold pass pays for every lazy import: neither scipy nor numpy.ma (which
# np.unique loads on first use) is on the in-plane chain's path
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
                or m == "numpy.ma" or m.startswith("numpy.ma."))
assert not loaded, loaded

# the full-sphere Voronoi weights still load it on demand
from spintomo.forward import Records
from spintomo.reconstruct import compute_weights
recs = Records([0.3, 1.2, 2.0, 1.0, 2.7], [0.1, 2.0, -1.0, 4.0, 0.5], [float("nan")] * 5,
               [2] * 5, [0] * 5)
w = compute_weights(recs, "full-sphere").weight
assert abs(sum(w) - 1.0) < 1e-12 and min(w) > 0.0, w
assert "scipy.spatial" in sys.modules
"""


def test_inplane_chain_runs_without_scipy(workdir):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spintomo.__file__)))
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHAIN], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
