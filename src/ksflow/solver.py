"""Time integration of the isotropic Landau (Krieger-Strain) flow.

The radial scheme is a conservative finite-volume discretization of the
divergence form

    d_t f = div( a[f] grad f - f grad a[f] ),

with face fluxes

    F_{i+1/2} = a_{i+1/2} (f_{i+1} - f_i)/dr - f_{i+1/2} (a_{i+1} - a_i)/dr

on r^2-weighted cells.  Interior fluxes telescope, so the discrete mass is
conserved exactly; the outer boundary is zero-flux with the suppressed flux
logged as a truncation budget.  The default `semi-implicit-fv` scheme freezes
a[f], h[f] at the current time, advances the diffusion flux implicitly (one
tridiagonal solve per step) and the drift flux explicitly.  A reaction guard
halves dt whenever dt * max(-(2+gamma) h[f]) > 0.5.

The semilinear comparison dynamics d_t u = Laplacian(u) + u^2 shares the same
machinery (unit diffusion coefficient, reaction u^2) and is used by the
blow-up contrast experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .grids import (
    CartesianField3,
    FieldError,
    RadialField,
    RadialGrid,
    Trajectory,
    radial_laplacian,
    write_checkpoint,
)
from .kernels import PowerLaw, cartesian_convolve, coeff_a, coeff_h

_SCHEMES = ("semi-implicit-fv", "explicit-fv")
_POSITIVITY = ("assert", "clip-and-log")

#: negatives above this (relative) depth are treated as roundoff and floored
#: silently; anything deeper triggers the configured positivity policy.
_ROUNDOFF_FLOOR = 1e-13

#: the reaction guard may halve dt this often in one step (2^16 sub-steps);
#: a state that needs more is an error rather than a near-endless loop
_MAX_HALVINGS = 16

#: `run_semilinear` detects blow-up when max u reaches this value
BLOWUP_THRESHOLD = 1e6


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    gamma: float = -3.0
    n_cells: int = 512
    r_max: float = 12.0
    dt: float = 1e-4
    t_end: float = 0.5
    scheme: str = "semi-implicit-fv"
    output_stride: int = 50
    positivity: str = "assert"

    def __post_init__(self):
        if not (self.dt > 0):
            raise SolverError(f"dt must be positive, got {self.dt}")
        if not (self.t_end > 0):
            raise SolverError(f"t_end must be positive, got {self.t_end}")
        if self.scheme not in _SCHEMES:
            raise SolverError(f"unknown scheme {self.scheme!r}; choose from {_SCHEMES}")
        if self.positivity not in _POSITIVITY:
            raise SolverError(
                f"unknown positivity policy {self.positivity!r}; choose from {_POSITIVITY}"
            )
        if not (-3.0 <= self.gamma <= -2.0):
            raise SolverError(
                f"evolution runs require gamma in [-3, -2], got {self.gamma}"
            )
        if self.output_stride < 1:
            raise SolverError("output_stride must be >= 1")

    @property
    def potential(self) -> PowerLaw:
        return PowerLaw(self.gamma)

    def grid(self) -> RadialGrid:
        return RadialGrid(self.n_cells, self.r_max)


@dataclass
class StepReport:
    dt_used: float
    mass_drift: float
    clips: int = 0
    halvings: int = 0


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _drift_flux(f: np.ndarray, a: np.ndarray, dr: float) -> np.ndarray:
    """Interior face drift flux (length n-1), -f grad a."""
    return -(0.5 * (f[1:] + f[:-1])) * (a[1:] - a[:-1]) / dr


def flux_form_rhs(f: RadialField, pot, a: RadialField | None = None) -> RadialField:
    """Finite-volume divergence of the conservative fluxes (signed field).

    Zero flux is imposed at r = 0 (zero face area) and at r_max, so the
    discrete integral of the output telescopes to 0 exactly.
    """
    if a is None:
        a = coeff_a(f, pot)
    grid = f.grid
    vals, avals = f.values, a.values
    diff = 0.5 * (avals[1:] + avals[:-1]) * (vals[1:] - vals[:-1]) / grid.dr
    flux = np.zeros(grid.n_cells + 1)
    flux[1:-1] = (diff + _drift_flux(vals, avals, grid.dr)) * grid.face_areas[1:-1]
    rhs = (flux[1:] - flux[:-1]) / grid.cell_volumes
    return RadialField(grid, rhs, signed=True)


def boundary_flux_estimate(f: RadialField, a: RadialField) -> float:
    """Magnitude of the flux the profile would push through r_max.

    One-sided extrapolation of the conservative flux at the outer face; the
    zero-flux boundary suppresses exactly this much per unit time.
    """
    grid = f.grid
    dr = grid.dr
    fa, aa = f.values, a.values
    diff = aa[-1] * (0.0 - fa[-1]) / dr
    drift = -0.5 * fa[-1] * (aa[-1] - aa[-2]) / dr
    area = 4.0 * np.pi * grid.r_max**2
    return abs(area * (diff + drift))


def nondivergence_rhs(f: RadialField, pot) -> RadialField:
    """Pointwise a[f] Laplacian(f) - (2+gamma) h[f] f (signed field).

    Analytically identical to flux_form_rhs and never used for stepping: it is
    the 3D operator the marginal suite compares pi(Q(f (x) f)) against, and a
    cross-check of the discretization.
    """
    if not isinstance(pot, PowerLaw):
        raise SolverError("nondivergence form requires a power-law potential")
    a = coeff_a(f, pot)
    lap = radial_laplacian(f)
    gamma = pot.gamma
    if 2.0 + gamma == 0.0:
        reaction = np.zeros_like(f.values)
    else:
        h = coeff_h(f, pot)
        reaction = (2.0 + gamma) * h.values * f.values
    return RadialField(f.grid, a.values * lap.values - reaction, signed=True)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _implicit_diffusion_solve(f_star, a_vals, grid, dt):
    """Solve (I - dt * D_a) f' = f_star, D_a the conservative diffusion stencil."""
    n = grid.n_cells
    vols = grid.cell_volumes
    a_face = np.zeros(n + 1)
    a_face[1:-1] = 0.5 * (a_vals[1:] + a_vals[:-1])
    k = dt * grid.face_areas * a_face / grid.dr  # k[0] = 0, k[n] = 0 (zero-flux)
    k[-1] = 0.0
    lower = -k[1:-1] / vols[1:]
    upper = -k[1:-1] / vols[:-1]
    diag = 1.0 + (k[1:] + k[:-1]) / vols
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    try:
        return solve_banded((1, 1), ab, f_star)
    except Exception as exc:  # degenerate coefficient
        raise SolverError(f"tridiagonal diffusion solve failed: {exc}") from exc


def _apply_positivity(values, policy, floor_scale):
    """Returns (values, clips) after applying the positivity policy."""
    lowest = values.min()
    if lowest >= 0.0:
        return values, 0
    floor = -_ROUNDOFF_FLOOR * max(floor_scale, 1e-300)
    if lowest >= floor:
        return np.maximum(values, 0.0), 0
    if policy == "assert":
        raise SolverError(
            f"positivity violated: min value {lowest:.3e} below roundoff floor"
        )
    clips = int(np.sum(values < 0.0))
    return np.maximum(values, 0.0), clips


def _reaction_substeps(dt, rate):
    """Number of halvings k so that (dt / 2^k) * rate <= 0.5.

    Raises SolverError when k would exceed _MAX_HALVINGS.
    """
    halvings = 0
    while dt * rate > 0.5:
        if halvings == _MAX_HALVINGS:
            raise SolverError(
                f"reaction guard needs more than {_MAX_HALVINGS} halvings of "
                f"dt (rate {rate:.3e})"
            )
        dt *= 0.5
        halvings += 1
    return halvings


def _coefficients(f: RadialField, config: SolverConfig):
    """a[f] and h[f]; h is None where the reaction coefficient 2+gamma vanishes."""
    pot = config.potential
    return coeff_a(f, pot), None if 2.0 + config.gamma == 0.0 else coeff_h(f, pot)


def step(f: RadialField, a: RadialField, h: RadialField | None,
         config: SolverConfig, mass0: float | None = None
         ) -> tuple[RadialField, StepReport]:
    """Advance f one dt with the configured radial scheme under the frozen
    coefficients a = a[f] and h = h[f] (None when 2 + gamma = 0).

    The result is a validated RadialField: non-finite values raise FieldError.
    """
    pot = config.potential
    rate = 0.0 if h is None else float(-(2.0 + config.gamma) * h.values.max())
    halvings = _reaction_substeps(config.dt, rate)
    sub_dt = config.dt / (1 << halvings)
    vols = f.grid.cell_volumes
    if mass0 is None:
        mass0 = float(np.dot(vols, f.values))

    vals = f.values
    clips = 0
    for _ in range(1 << halvings):
        if config.scheme == "semi-implicit-fv":
            dflux = np.zeros(f.grid.n_cells + 1)
            dflux[1:-1] = _drift_flux(vals, a.values, f.grid.dr) * f.grid.face_areas[1:-1]
            f_star = vals + sub_dt * (dflux[1:] - dflux[:-1]) / vols
            vals = _implicit_diffusion_solve(f_star, a.values, f.grid, sub_dt)
        else:  # explicit-fv
            rhs = flux_form_rhs(RadialField(f.grid, vals, signed=True), pot, a=a)
            vals = vals + sub_dt * rhs.values
        vals, c = _apply_positivity(vals, config.positivity, vals.max())
        clips += c
    out = RadialField(f.grid, vals)
    mass = float(np.dot(vols, vals))
    report = StepReport(
        dt_used=sub_dt,
        mass_drift=(mass - mass0) / mass0 if mass0 else 0.0,
        clips=clips,
        halvings=halvings,
    )
    return out, report


def run(config: SolverConfig, f_in: RadialField, checkpoint_path=None) -> Trajectory:
    """Advance f_in to t_end, recording diagnostics every output_stride steps.

    The coefficients are evaluated once per step, for the step and the row.
    On non-finite values the run aborts with the last good state checkpointed
    (when a checkpoint path is given).
    """
    from . import diagnostics  # deferred: diagnostics consumes solver types

    if f_in.grid != config.grid():
        raise SolverError("initial field grid does not match the configuration")
    pot = config.potential
    n_steps = int(round(config.t_end / config.dt))
    if abs(n_steps * config.dt - config.t_end) > 1e-9 * config.t_end:
        raise SolverError("t_end must be an integer number of steps")

    mass0 = float(np.dot(f_in.grid.cell_volumes, f_in.values))
    traj = Trajectory()
    f = f_in
    boundary_budget = 0.0
    zero_field = mass0 == 0.0

    a, h = _coefficients(f, config)
    traj.append(0.0, f, diagnostics.snapshot_row(0.0, f, pot, a=a, h=h,
                                                 mass_drift=0.0,
                                                 boundary_budget=0.0))
    for k in range(1, n_steps + 1):
        if not zero_field:
            boundary_budget += boundary_flux_estimate(f, a) * config.dt
        try:
            f, rep = step(f, a, h, config, mass0=mass0)
        except (FieldError, SolverError) as exc:
            # non-finite values or a degenerate solve: f is the last good state
            if checkpoint_path is not None:
                write_checkpoint(checkpoint_path, f, gamma=config.gamma,
                                 time=(k - 1) * config.dt)
            raise SolverError(
                f"step {k} aborted ({exc}); last good state retained"
            ) from exc
        a, h = _coefficients(f, config)
        if k % config.output_stride == 0 or k == n_steps:
            t = k * config.dt
            traj.append(t, f, diagnostics.snapshot_row(
                t, f, pot, a=a, h=h, mass_drift=rep.mass_drift,
                boundary_budget=boundary_budget, clips=rep.clips))
    diagnostics.finalize_rows(traj, config.gamma)
    if checkpoint_path is not None:
        write_checkpoint(checkpoint_path, f, gamma=config.gamma, time=config.t_end)
    return traj


def run_semilinear(config: SolverConfig,
                   u_in: RadialField) -> tuple[Trajectory, float | None]:
    """Integrate d_t u = Laplacian(u) + u^2 until t_end or the detector fires
    at max u >= BLOWUP_THRESHOLD.

    Diffusion is implicit (unit coefficient), the quadratic reaction explicit
    with the same dt-halving guard keyed to max(u).  Returns the trajectory of
    (t, max u) rows and the detector time (None if it never fires).
    """
    grid = u_in.grid
    n_steps = int(round(config.t_end / config.dt))
    ones = np.ones(grid.n_cells)
    traj = Trajectory()
    traj.append(0.0, u_in, {"t": 0.0, "max": float(u_in.values.max())})
    vals = u_in.values.copy()
    detector = None
    for k in range(1, n_steps + 1):
        rate = float(vals.max())
        halvings = _reaction_substeps(config.dt, rate)
        sub_dt = config.dt / (1 << halvings)
        for _ in range(1 << halvings):
            f_star = vals + sub_dt * vals**2
            vals = _implicit_diffusion_solve(f_star, ones, grid, sub_dt)
            vals = np.maximum(vals, 0.0)
            if vals.max() >= BLOWUP_THRESHOLD:
                detector = k * config.dt
                break
        t = k * config.dt
        if k % config.output_stride == 0 or k == n_steps or detector is not None:
            traj.append(t, RadialField(grid, np.minimum(vals, 1e300)),
                        {"t": t, "max": float(vals.max())})
        if detector is not None:
            break
    return traj, detector


# ---------------------------------------------------------------------------
# explicit 3D evolution (short horizons, non-radial experiments)
# ---------------------------------------------------------------------------

def cartesian_rhs(f3: CartesianField3, a3: CartesianField3) -> CartesianField3:
    """Conservative flux-form RHS on the box under the diffusion coefficient
    a3 = a[f3]; zero flux at the box faces."""
    h = f3.grid.h
    f = f3.values
    a = a3.values
    rhs = np.zeros_like(f)
    for axis in range(3):
        fp = np.moveaxis(f, axis, 0)
        ap = np.moveaxis(a, axis, 0)
        a_face = 0.5 * (ap[1:] + ap[:-1])
        f_face = 0.5 * (fp[1:] + fp[:-1])
        flux = a_face * (fp[1:] - fp[:-1]) / h - f_face * (ap[1:] - ap[:-1]) / h
        div = np.zeros_like(fp)
        div[:-1] += flux / h
        div[1:] -= flux / h
        rhs += np.moveaxis(div, 0, axis)
    return CartesianField3(f3.grid, rhs, signed=True)


def run_cartesian(config: SolverConfig, f_in: CartesianField3) -> Trajectory:
    """Explicit conservative evolution of a 3D field on its own box.

    Reads gamma, dt, t_end, output_stride and positivity from the config; its
    radial settings (n_cells, r_max, scheme) do not apply.  The box is limited
    to n <= 64 points per axis and dt to the explicit diffusion limit.
    """
    from . import diagnostics

    if not isinstance(f_in, CartesianField3):
        raise SolverError("run_cartesian requires a CartesianField3")
    grid = f_in.grid
    if grid.n > 64:
        raise SolverError(f"cartesian evolution is restricted to n <= 64, got {grid.n}")
    n_steps = int(round(config.t_end / config.dt))
    f = f_in
    a3 = cartesian_convolve(f, 2.0 + config.gamma)
    cfl = grid.h**2 / (6.0 * max(a3.values.max(), 1e-300))
    if config.dt > cfl:
        raise SolverError(
            f"explicit 3D diffusion needs dt <= {cfl:.3e}, got {config.dt:.3e}"
        )
    traj = Trajectory()
    traj.append(0.0, f, diagnostics.snapshot_row3(0.0, f, mass_drift=0.0))
    mass0 = f.mass()
    for k in range(1, n_steps + 1):
        rhs = cartesian_rhs(f, a3)
        vals = f.values + config.dt * rhs.values
        vals, _ = _apply_positivity(vals, config.positivity, vals.max())
        f = CartesianField3(grid, vals)
        a3 = cartesian_convolve(f, 2.0 + config.gamma)
        if k % config.output_stride == 0 or k == n_steps:
            drift = (f.mass() - mass0) / mass0 if mass0 else 0.0
            traj.append(k * config.dt, f,
                        diagnostics.snapshot_row3(k * config.dt, f, mass_drift=drift))
    return traj
