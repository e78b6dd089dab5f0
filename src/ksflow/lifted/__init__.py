"""Doubled-variable (R^6) calculus: densities, frames, operators, functionals."""

from .gaussians import (
    Gaussian6,
    Mixture6,
    MixtureError,
    isotropic_gaussian,
    random_symmetric_mixture,
    symmetrize,
    tensor_product,
)
from .frames import (
    FrameError,
    flow,
    frame_identities,
    vf_divergence,
    vf_eval,
    vf_jacobian,
)
from .operators import (
    apply_L0,
    apply_L0L0,
    apply_QKS,
    apply_QL,
    beta1,
    beta2,
    first_variation_density,
)
from .functionals import (
    McEstimate,
    estimate_many,
    fisher_functional,
)
from .suites import SUITES
