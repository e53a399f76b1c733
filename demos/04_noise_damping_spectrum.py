#!/usr/bin/env python3
"""How experimental uncertainty tames high-frequency reconstruction noise.

With limited data the angular power spectrum of a backprojected state is
dominated by noise at large k.  Instead of a hard cutoff, the known
measurement uncertainties (atom-number spread, axis pointing and phase
noise) damp each partial wave by exp-of-k(k+1) factors inside the sum,
suppressing exactly the waves the data cannot support.
"""

import math
import os

import spintomo as st

OUT = "demo_output"
os.makedirs(OUT, exist_ok=True)

two_j = 100  # j = 50 keeps the dense OAT generator quick; damping physics is the same
truth = st.oat_squeezed_state(two_j, 0.02, two_j)
axes = [(math.pi / 2.0, a * math.pi / 48.0) for a in range(48)]
noise = st.NoiseModel(sigma_n=3.0, phase_mode="model", sigma_ph=math.radians(8.2))
records = st.sample_measurements(truth, axes, shots_per_axis=60, noise=noise, seed=1)
print(f"sampled {len(records)} noisy records from a j = {two_j / 2:.0f} squeezed state")

plain_cfg = st.ReconstructionConfig(kmax=47, mode="in-plane", two_j_ref=two_j)
damped_cfg = st.ReconstructionConfig(kmax=47, mode="in-plane", noise=noise,
                                     two_j_ref=two_j)
plain = st.reconstruct(records, plain_cfg)
damped = st.reconstruct(records, damped_cfg)

c_plain = st.power_spectrum(plain)
c_damped = st.power_spectrum(damped)
c_true = st.power_spectrum(truth)[:48]

print("\n  k   C_k true      C_k raw       C_k damped")
for k in (2, 10, 20, 30, 40, 46):
    print(f" {k:3d}  {c_true[k]:.3e}    {c_plain[k]:.3e}    {c_damped[k]:.3e}")
high = slice(30, 48)
print(f"\nhigh-k power (k = 30..47): raw {c_plain[high].sum():.3e}, "
      f"damped {c_damped[high].sum():.3e}, true {c_true[high].sum():.3e}")

# the same damping, written as a single smoothing exponent
alpha = st.uniform_damping_alpha(st.NoiseModel(sigma_n=11.0), 1260)
print(f"\nat the j = 630 scale with sigma_N = 11 atoms the equivalent smoothing "
      f"is exp(-{alpha:.3g} k(k+1)), i.e. {math.exp(-alpha * 70 * 71):.3f} at k = 70")

with open(f"{OUT}/damping_spectrum.csv", "w") as fh:
    fh.write("k,c_true,c_raw,c_damped\n")
    for k in range(48):
        fh.write(f"{k},{c_true[k]:.9g},{c_plain[k]:.9g},{c_damped[k]:.9g}\n")
print(f"wrote {OUT}/damping_spectrum.csv")
