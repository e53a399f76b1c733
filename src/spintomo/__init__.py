"""Tomography of collective-spin Wigner functions on the Bloch sphere.

Reconstructs the spherical Wigner function of a large-spin system from
Stern-Gerlach measurement records by filtered backprojection, with a
synthetic-data forward model, noise-driven spectral damping, and
spin-squeezing analysis.
"""

from .angular import (
    cg_tau_table,
    hemi_overlap,
    pochhammer_half,
)
from .states import (
    DickeState,
    SphericalState,
    WignerGrid,
    coherent_state,
    dicke_basis_state,
    dicke_to_spherical,
    maximally_mixed_state,
    oat_squeezed_state,
    spherical_to_dicke,
    wigner_eval,
    wigner_grid,
)
from .forward import (
    MeasurementRecord,
    NoiseModel,
    Records,
    exact_records,
    projection_probabilities,
    sample_measurements,
)
from .reconstruct import (
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
from .analysis import (
    GaussianFit,
    SqueezingReport,
    coherent_reference_variance,
    gaussian_fit,
    mean_spin_vector,
    moments,
    power_spectrum,
    squeezing_scan,
)

__version__ = "0.1.0"
