"""ksflow: a desk-scale laboratory for the isotropic Landau (Krieger-Strain) flow."""

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
    radial_convolve,
)
from .solver import (
    SolverConfig,
    SolverError,
    StepReport,
    flux_form_rhs,
    nondivergence_rhs,
    run,
    run_cartesian,
    run_semilinear,
    step,
)
from .diagnostics import (
    entropy,
    fisher_information,
    ellipticity_check,
    h_bound_check,
)
from .probes import ProbeError, RatioStats, probe_inequality
from .config import ConfigError, RunConfig, load_config, parse_config_text
from .harness import compare_blowup, simulate

__version__ = "0.1.0"
