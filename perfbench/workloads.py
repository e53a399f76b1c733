"""The benchmark's two workloads: seeded inputs, one pass, a correctness check.

Each workload builds its inputs from the seed in ``setup`` (the exact
state and the axis set), runs the whole pipeline once per ``run_pass``,
and judges a pass's outputs in ``check`` against the exact state.  The
program sees only the generated inputs.  Passes call spintomo through
module attributes looked up at call time, so the wrappers that
``tracing.instrument`` installs see every call.

A pass is a sequence of timed steps (``Steps``), each one call into the
program or a few.  Where a call takes a list (axes, azimuths) and would
run for more than about 50 ms, the pass makes one call per chunk of the
list instead: on a shared host the time of a step of tens of
milliseconds reaches its uncontended value many times a minute, and that
of a step of a second rarely does (see ``run.py``).

Sizes are chosen so that a warm pass takes 0.2-1 s on one core; the
``smoke`` sizes run every workload in seconds.  The tolerances of the
statistical checks come from ``calibrate.py``: it runs one pass per seed
(96 seeds at full size and 12 at smoke size), and each
tolerance is the seed-to-seed mean plus six standard deviations of the
checked error, rounded up.
"""

import contextlib
import importlib
import io as _io
import math
import os
import shutil
import tempfile
import time

import numpy as np


def _mod(name):
    # importlib, not attribute access: the package re-exports a function
    # named ``reconstruct`` that shadows the submodule attribute
    return importlib.import_module("spintomo." + name)


PHIS = np.linspace(-math.pi / 2.0, math.pi / 2.0, 181)
SCAN_CHUNK = 8      # azimuths per squeezing_scan call
GRID = (64, 128)
LOW_K = 2


class Steps:
    """Wall time of each named step of one pass.

    ``answer=True`` marks the steps from records in hand to the final
    outputs; the others produce the records.  A ``probe`` (a function
    returning seconds) runs before every step, outside its time, and its
    results go to ``probes``.
    """

    def __init__(self, probe=None):
        self.times = {}
        self.answer = set()
        self.probe = probe
        self.probes = []

    @contextlib.contextmanager
    def __call__(self, name, answer=False):
        if answer:
            self.answer.add(name)
        if self.probe is not None:
            self.probes.append(self.probe())
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[name] = self.times.get(name, 0.0) + time.perf_counter() - t0


def chunks(seq, size):
    """(index, slice) of consecutive chunks of ``seq``."""
    return enumerate(seq[lo:lo + size] for lo in range(0, len(seq), size))


def pass_seed(seed, index):
    """Sampler seed of pass ``index``: a fixed function of the run seed."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def equatorial_axes(n):
    return [(math.pi / 2.0, a * math.pi / n) for a in range(n)]


def _spin_ops(two_j):
    dim = two_j + 1
    m = (2.0 * np.arange(dim) - two_j) / 2.0
    j = two_j / 2.0
    jp = np.zeros((dim, dim))
    jp[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(j * (j + 1.0) - m[:-1] * (m[:-1] + 1.0))
    return 0.5 * (jp + jp.T), (jp - jp.T) / 2.0j


def exact_squeezing_db(state):
    """Equatorial squeezing of the exact state, from its Dicke matrix.

    Minimum over the scan azimuths of Var(cos(phi) Jx + sin(phi) Jy),
    relative to the coherent value j/2.  Independent of the analysis
    module, which the check judges.
    """
    rho = _mod("states").spherical_to_dicke(state).matrix
    jx, jy = _spin_ops(state.two_j_ref)

    def ev(op):
        return float(np.trace(op @ rho).real)

    vxx = ev(jx @ jx) - ev(jx) ** 2
    vyy = ev(jy @ jy) - ev(jy) ** 2
    cxy = ev(0.5 * (jx @ jy + jy @ jx)) - ev(jx) * ev(jy)
    v = (np.cos(PHIS) ** 2 * vxx + np.sin(PHIS) ** 2 * vyy
         + 2.0 * np.sin(PHIS) * np.cos(PHIS) * cxy)
    return 10.0 * math.log10(float(v.min()) / (state.two_j_ref / 4.0))


def coeff_error(rho, kmax, exact, kmax_check):
    """max |rho_kq - rho_kq^exact| over k <= kmax_check, |q| <= k."""
    worst = 0.0
    for k in range(kmax_check + 1):
        a = rho[k, kmax - k: kmax + k + 1]
        b = exact.coeffs[k, exact.kmax - k: exact.kmax + k + 1]
        worst = max(worst, float(np.abs(a - b).max()))
    return worst


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name = ""
    roadmap = ""

    def __init__(self, smoke=False):
        self.smoke = smoke

    def size(self):
        raise NotImplementedError

    def setup(self, seed, rec):
        raise NotImplementedError

    def run_pass(self, inputs, seed, rec, steps):
        """One pass, timed step by step into ``steps``; returns its outputs."""
        raise NotImplementedError

    def collect(self, outputs):
        """Outputs in the form ``check`` reads; runs outside the timed pass."""
        return outputs

    def check(self, inputs, outputs):
        """(ok, detail) for one pass's outputs."""
        raise NotImplementedError

    def accuracy(self, inputs):
        """max |rho_kq - rho_kq^exact| of this pipeline on infinite data."""
        raise NotImplementedError

    def close(self, inputs):
        pass


class _InplaneChecks(Workload):
    """Sampled in-plane data: statistical checks per pass, accuracy on exact data.

    A pass passes when its low-k coefficients and its squeezing in dB lie
    within the seed-spread tolerances of the exact state.  ``accuracy``
    runs the same reconstruction (weights, damped in-plane FBP, fold) on
    infinite data from the same axes, which is deterministic.
    """

    tolerances = {}   # smoke -> (low-k coefficient error, |delta dB|)

    def check(self, inputs, outputs):
        if any(outputs.get("exit_codes", ())):
            return False, f"CLI exit codes {outputs['exit_codes']}"
        if "exact_db" not in inputs:  # built on first use, after the timed pass
            inputs["exact_db"] = exact_squeezing_db(inputs["state"])
        err = coeff_error(outputs["rho"], outputs["kmax"], inputs["state"], LOW_K)
        tol_rho, tol_db = self.tolerances[self.smoke]
        db, exact_db = outputs["db"], inputs["exact_db"]
        if not err <= tol_rho:
            return False, f"low-k coefficient error {err:.4g} > {tol_rho}"
        if db is None or not abs(db - exact_db) <= tol_db:
            return False, f"squeezing {db} dB vs exact {exact_db:.4f} dB (tol {tol_db})"
        return True, ""

    def accuracy(self, inputs):
        fw, rc = _mod("forward"), _mod("reconstruct")
        state = inputs["state"]
        records = fw.exact_records(state, inputs["axes"])
        config = rc.ReconstructionConfig(kmax=self.exact_kmax, mode="in-plane",
                                         noise=self.noise, fold_north=True,
                                         two_j_ref=self.two_j)
        rec = rc.reconstruct(records, config, weight_scheme="keep")
        return coeff_error(np.array(rec.coeffs), rec.kmax, state, rec.kmax)


class PaperInplaneNoisy(_InplaneChecks):
    """S1 + S4: OAT state, equatorial axes, number + axis + phase noise, in memory."""

    name = "paper-inplane-noisy"
    roadmap = "S1+S4"
    why = ("S1+S4 paper setting: OAT two_j=40, kmax=23, 24 equatorial axes x 50 shots "
           "= 1200 records, number+axis+phase noise; the per-shot axis-noise sampler "
           "dominates, answer is weights->FBP->fold->scan->grid")
    two_j = 40
    chi = 0.05
    n_axes = 24
    kmax = exact_kmax = 23
    tolerances = {False: (0.023, 5.5), True: (0.06, 4.5)}

    @property
    def shots(self):
        return 8 if self.smoke else 50

    @property
    def noise(self):
        return _mod("forward").NoiseModel(sigma_n=2.0, sigma_omega=0.05,
                                          phase_mode="model", sigma_ph=0.2)

    def size(self):
        n = self.n_axes * self.shots
        return {"records": n, "axes": self.n_axes, "shots_per_axis": self.shots,
                "two_j": self.two_j, "kmax": self.kmax}

    def setup(self, seed, rec):
        with rec.span("states.build"):
            state = _mod("states").oat_squeezed_state(self.two_j, self.chi, self.two_j)
        return {"state": state, "axes": equatorial_axes(self.n_axes), "noise": self.noise}

    def run_pass(self, inputs, seed, rec, steps):
        fw, rc, an, st = _mod("forward"), _mod("reconstruct"), _mod("analysis"), _mod("states")
        noise = inputs["noise"]
        records = []
        for a, axis in enumerate(inputs["axes"]):
            # one call per axis, as an experiment that records axis after axis
            with steps(f"sample.{a:02d}"):
                records += fw.sample_measurements(inputs["state"], [axis], self.shots,
                                                  noise, pass_seed(seed, a))
        with steps("weights", answer=True):
            weighted = rc.compute_weights(records, "in-plane")
        config = rc.ReconstructionConfig(kmax=self.kmax, mode="in-plane", noise=noise,
                                         two_j_ref=self.two_j)
        with steps("fbp", answer=True):
            state = rc.fbp_inplane(weighted, config)
        with steps("fold", answer=True):
            state = rc.fold_northern(state)
        dbs = []
        for c, phis in chunks(PHIS, SCAN_CHUNK):
            with steps(f"scan.{c:02d}", answer=True):
                report = an.squeezing_scan(state, phis, noise.sigma_n, self.two_j / 2.0)
            dbs.append(report.squeezing_db)
        with steps("grid", answer=True):
            st.wigner_grid(state, *GRID)
        return {"rho": np.array(state.coeffs), "kmax": state.kmax,
                "db": min((db for db in dbs if db is not None), default=None)}


class VolumeCliCsv(_InplaneChecks):
    """S2 + S5: the documented CLI chain through CSV files, number noise only."""

    name = "volume-cli-csv"
    roadmap = "S2+S5"
    why = ("S2+S5 CLI simulate->reconstruct --fold-north->analyze->render via CSV: "
           "coherent two_j=40, 30 equatorial axes x 40 shots = 1200 records, kmax 29, "
           "61 azimuths, number noise; CSV I/O, per-record work")
    tolerances = {False: (0.019, 3.7), True: (0.03, 11.0)}

    @property
    def noise(self):
        return _mod("forward").NoiseModel(sigma_n=3.0)

    phi_steps = 61

    @property
    def two_j(self):
        return 40

    @property
    def n_axes(self):
        return 24 if self.smoke else 30

    @property
    def shots(self):
        return 10 if self.smoke else 40

    @property
    def exact_kmax(self):
        # the CLI's default, min(2j_min, axes - 1), on data without number noise
        return min(self.two_j, self.n_axes - 1)

    def size(self):
        n = self.n_axes * self.shots
        return {"records": n, "axes": self.n_axes, "shots_per_axis": self.shots,
                "two_j": self.two_j, "kmax": "min(2j_min, axes-1)",
                "azimuths": self.phi_steps}

    def setup(self, seed, rec):
        with rec.span("states.build"):
            state = _mod("states").coherent_state(self.two_j, 0.0, 0.0, 0.0, self.two_j)
        workdir = os.path.abspath(os.path.join(".bench_out", f"work-{os.getpid()}"))
        os.makedirs(workdir, exist_ok=True)
        return {"state": state, "axes": equatorial_axes(self.n_axes), "dir": workdir}

    def _cli(self, argv, rec, steps, name, answer):
        cli = _mod("cli")
        with (steps(name, answer), rec.span("cli." + name),
              contextlib.redirect_stdout(_io.StringIO())):
            return cli.main(argv)

    def run_pass(self, inputs, seed, rec, steps):
        # a fresh directory per pass, as for new data: on ext4, renaming a file
        # over an existing one forces its blocks to disk, which a first run
        # never pays and which made back-to-back passes slow and erratic
        d = tempfile.mkdtemp(dir=inputs["dir"])
        meas = os.path.join(d, "meas.csv")
        prefix = os.path.join(d, "recon")
        sig = str(self.noise.sigma_n)
        codes = [self._cli(
            ["simulate", "--state", "coherent", "--two-j", str(self.two_j),
             "--theta0", "0", "--phi0", "0", "--axis-plane", "--axes", str(self.n_axes),
             "--shots", str(self.shots), "--seed", str(seed), "--sigma-n", sig,
             "--out", meas], rec, steps, "simulate", False)]
        codes.append(self._cli(["reconstruct", meas, "--fold-north", "--two-j-ref",
                                str(self.two_j), "--sigma-n", sig, "--out", prefix],
                               rec, steps, "reconstruct", True))
        codes.append(self._cli(["analyze", prefix + "_coeffs.csv", "--sigma-n", sig,
                                "--phi-steps", str(self.phi_steps),
                                "--out", prefix + "_squeezing.csv"],
                               rec, steps, "analyze", True))
        codes.append(self._cli(["render", prefix + "_coeffs.csv", "--out", prefix],
                               rec, steps, "render", True))
        return {"exit_codes": codes, "prefix": prefix}

    def collect(self, outputs):
        if any(outputs["exit_codes"]):
            return outputs
        prefix = outputs["prefix"]
        rho, kmax = read_coefficient_csv(prefix + "_coeffs.csv")
        return dict(outputs, rho=rho, kmax=kmax, db=min_squeezing_db(prefix + "_squeezing.csv"))

    def close(self, inputs):
        shutil.rmtree(inputs["dir"], ignore_errors=True)


def read_coefficient_csv(path):
    """The CLI's ``k,q,re,im`` coefficient file as a full (k, q) array."""
    kmax = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# kmax ="):
                kmax = int(line.split("=")[1])
            elif line and not line.startswith("#") and line != "k,q,re,im":
                k, q, re, im = line.split(",")
                rows.append((int(k), int(q), complex(float(re), float(im))))
    rho = np.zeros((kmax + 1, 2 * kmax + 1), dtype=complex)
    for k, q, c in rows:
        rho[k, kmax + q] = c
        rho[k, kmax - q] = (-1) ** q * c.conjugate()
    return rho, kmax


def min_squeezing_db(path):
    """Headline squeezing of the analyze CSV: the smallest Gaussian-fit dB."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        values = [float(row.rstrip("\n").split(",")[4]) for row in fh
                  if row.rstrip("\n").split(",")[4]]
    return min(values) if values else None


WORKLOADS = {w.name: w for w in (PaperInplaneNoisy, VolumeCliCsv)}
