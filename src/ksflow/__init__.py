"""ksflow: a desk-scale laboratory for the isotropic Landau (Krieger-Strain) flow."""

import importlib

from .grids import (
    FieldError,
    RadialField,
    RadialGrid,
    Trajectory,
    gaussian_field,
    integrate_radial,
    radial_laplacian,
    weighted_lp_norm,
    write_checkpoint,
)
from .kernels import (
    RATIO_WINDOW,
    KernelError,
    PowerLaw,
    RatioWindow,
    SoftenedPowerLaw,
    h_values,
    nondivergence_rhs,
    radial_convolve,
)
from .diagnostics import (
    entropy,
    fisher_information,
    ellipticity_check,
    h_bound_check,
)
# The solver, config, harness and probes names load on first access (PEP 562):
# the first three modules add about 20 ms to an import of ksflow, which the
# commands that never step the radial solver (verify-lifted, probe, plot) need
# not pay, and the commands other than probe need not hold the probes module.
_LAZY = {
    **dict.fromkeys(("SolverConfig", "SolverError", "Stencil", "StepReport", "run",
                     "run_semilinear", "step"), "solver"),
    **dict.fromkeys(("ConfigError", "RunConfig", "load_config", "parse_config_text"),
                    "config"),
    **dict.fromkeys(("compare_blowup", "simulate"), "harness"),
    **dict.fromkeys(("ProbeError", "RatioStats", "probe_inequality"), "probes"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
