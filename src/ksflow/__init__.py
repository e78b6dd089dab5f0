"""ksflow: a desk-scale laboratory for the isotropic Landau (Krieger-Strain) flow."""

import importlib

from .grids import (
    CartesianField3,
    CartesianGrid3,
    FieldError,
    RadialField,
    RadialGrid,
    Trajectory,
    gaussian_field,
    gaussian_field3,
    integrate_radial,
    radial_laplacian,
    read_checkpoint,
    weighted_lp_norm,
    write_checkpoint,
)
from .kernels import (
    RATIO_WINDOW,
    KernelError,
    PowerLaw,
    RatioWindow,
    SoftenedPowerLaw,
    cartesian_convolve,
    coeff_a,
    coeff_h,
    gamma_ratio,
    nondivergence_rhs,
    radial_convolve,
)
from .diagnostics import (
    entropy,
    fisher_information,
    ellipticity_check,
    h_bound_check,
)
from .probes import ProbeError, RatioStats, probe_inequality

# The solver imports scipy.linalg for its banded diffusion solve, and config
# and harness import the solver.  Their names load on first access (PEP 562),
# so that a command that never steps the radial solver starts without scipy.
_LAZY = {
    **dict.fromkeys(("SolverConfig", "SolverError", "StepReport", "flux_form_rhs",
                     "run", "run_cartesian", "run_semilinear", "step"), "solver"),
    **dict.fromkeys(("ConfigError", "RunConfig", "load_config", "parse_config_text"),
                    "config"),
    **dict.fromkeys(("compare_blowup", "simulate"), "harness"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
