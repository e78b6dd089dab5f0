"""Time integration of the isotropic Landau (Krieger-Strain) flow.

The radial scheme is a conservative finite-volume discretization of the
divergence form

    d_t f = div( a[f] grad f - f grad a[f] ),

with face fluxes

    F_{i+1/2} = a_{i+1/2} (f_{i+1} - f_i)/dr - f_{i+1/2} (a_{i+1} - a_i)/dr

on r^2-weighted cells.  Interior fluxes telescope, so the discrete mass is
conserved exactly; the outer boundary is zero-flux with the suppressed flux
logged as a truncation budget.  The one scheme, `semi-implicit-fv`, freezes
a[f], h[f] at the current time, advances the diffusion flux implicitly (one
tridiagonal solve per step) and the drift flux explicitly.  A reaction guard
halves dt whenever dt * max(-(2+gamma) h[f]) > 0.5.  A new state with a
negative value deeper than roundoff aborts the step (positivity `assert`).

The state and its coefficients are bare arrays from the step to the row:
`step(stencil, values, a, h_max, config, mass0)` returns
`(values, StepReport)` under a = a[f], `kernels.radial_convolve(grid,
values, 2+gamma)`, with a `Stencil` holding the per-run constants and the
band buffer of the diffusion system.  The guard reads h[f] only as the float
h_max.  `run` forms h[f] (`kernels.h_values`) at every output row, for every
gamma, and hands a[f] and h[f] to `diagnostics.snapshot_row`; between rows,
where the bound `kernels._h_sup_bound` on max h[f] (exact at gamma = -3)
clears the guard with a 2x margin, h_max is that bound and h[f] is not
convolved.  `RadialField`s are built only for the state at the rows, for
`diagnostics.snapshot_row` and the checkpoints, and none is kept: the
`Trajectory` holds the rows only, so a run's memory is O(n_cells + rows).
Every step checks its new state for finite values (FieldError) and calls
`solve_banded`, as bound here, for each diffusion solve; every convolution
goes through `kernels.radial_convolve`.
The benchmark tracer's per-layer timings rely on these names.

`solve_banded` is one direct call of LAPACK `dgtsv` (`ksflow._lapack`).  It
keeps the name of the banded solver it replaced because the benchmark tracer
times the diffusion solve as `solver.solve_banded`; it is bound here, not
defined here, because the tracer would otherwise wrap it twice, as a foreign
function and as a public function of the solver layer.

The semilinear comparison dynamics d_t u = Laplacian(u) + u^2 shares the same
machinery (unit diffusion coefficient, reaction u^2, the same stencil, band
buffer and positivity check) and is used by the blow-up contrast experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack, diagnostics
from ._lapack import solve_banded
from .grids import FieldError, RadialField, RadialGrid, Trajectory, write_checkpoint
from .kernels import _h_sup_bound, h_values, radial_convolve

#: the one value of each of SolverConfig's `scheme` and `positivity` keys,
#: which stay so that configs and their report echoes name the scheme
_SCHEME = "semi-implicit-fv"
_POSITIVITY = "assert"

#: negatives above this (relative) depth are treated as roundoff and floored
#: silently; anything deeper aborts the step.
_ROUNDOFF_FLOOR = 1e-13

#: the reaction guard may halve dt this often in one step (2^16 sub-steps);
#: a state that needs more is an error rather than a near-endless loop
_MAX_HALVINGS = 16

#: `run_semilinear` detects blow-up when max u reaches this value
BLOWUP_THRESHOLD = 1e6

#: the most steps one SolverConfig may ask for (t_end / dt), and the most
#: one compare_blowup call may take summed over its runs
STEP_BUDGET = 200_000


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
        if not (0 < self.dt < math.inf):
            raise SolverError(f"dt must be finite and positive, got {self.dt}")
        if not (0 < self.t_end < math.inf):
            raise SolverError(f"t_end must be finite and positive, got {self.t_end}")
        steps = self.t_end / self.dt
        # the rounded step count, tested before rounding so that inf fails too
        if not steps < STEP_BUDGET + 0.5:
            raise SolverError(f"t_end / dt = {steps:.6g} steps exceed the budget of "
                              f"{STEP_BUDGET}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise SolverError("t_end must be an integer number of steps")
        if self.scheme != _SCHEME:
            raise SolverError(f"unknown scheme {self.scheme!r}; the one scheme is "
                              f"{_SCHEME!r}")
        if self.positivity != _POSITIVITY:
            raise SolverError(f"unknown positivity policy {self.positivity!r}; the one "
                              f"policy is {_POSITIVITY!r}")
        if not (-3.0 <= self.gamma <= -2.0):
            raise SolverError(
                f"evolution runs require gamma in [-3, -2], got {self.gamma}"
            )
        if self.output_stride < 1:
            raise SolverError("output_stride must be >= 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def grid(self) -> RadialGrid:
        return RadialGrid(self.n_cells, self.r_max)


@dataclass
class StepReport:
    mass_drift: float
    clips: int = 0  # always 0: a negative deeper than roundoff aborts the step
    halvings: int = 0
    sup: float = 0.0   # max of the new values
    mass: float = 0.0  # finite-volume mass of the new values


# ---------------------------------------------------------------------------
# per-run constants
# ---------------------------------------------------------------------------

class Stencil:
    """Per-run constants of the radial finite-volume scheme on one grid.

    Holds the geometry a step reads (dr, cell volumes, interior face areas),
    dt times those areas for each substep size met, and the buffers every
    step refills in place: face fluxes and diffusion weights (length n+1,
    zero at both ends for zero flux at r = 0 and r_max) and the (3, n) band
    of the diffusion system.  Raises SolverError when the LAPACK routine of
    the diffusion solve is unavailable.
    """

    def __init__(self, grid: RadialGrid):
        if _lapack.UNRESOLVED is not None:
            raise SolverError(f"tridiagonal diffusion solve unavailable: "
                              f"{_lapack.UNRESOLVED}")
        n = grid.n_cells
        self.grid = grid
        self.dr = grid.dr
        self.volumes = grid.cell_volumes
        # dividing by -V is negating the quotient by V, bit for bit
        self.neg_volumes = -grid.cell_volumes
        self.inner_areas = grid.face_areas[1:-1]
        self.flux = np.zeros(n + 1)
        self.k = np.zeros(n + 1)
        self.band = np.zeros((3, n))
        self._dt_areas = {}

    def dt_areas(self, dt: float) -> np.ndarray:
        """dt * inner_areas, computed once per substep size."""
        areas = self._dt_areas.get(dt)
        if areas is None:
            areas = self._dt_areas[dt] = dt * self.inner_areas
        return areas


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def _drift_flux(f: np.ndarray, a: np.ndarray, dr: float, out: np.ndarray) -> np.ndarray:
    """Interior face drift flux -f grad a (length n-1), written into out."""
    np.add(f[1:], f[:-1], out=out)
    out *= -0.5
    out *= a[1:] - a[:-1]
    out /= dr
    return out


def boundary_flux_estimate(grid: RadialGrid, values: np.ndarray, a: np.ndarray) -> float:
    """Magnitude of the flux the profile would push through r_max.

    One-sided extrapolation of the conservative flux at the outer face; the
    zero-flux boundary suppresses exactly this much per unit time.
    """
    dr = grid.dr
    diff = a[-1] * (0.0 - values[-1]) / dr
    drift = -0.5 * values[-1] * (a[-1] - a[-2]) / dr
    return abs(grid.face_areas[-1] * (diff + drift))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _fill_band(stencil: Stencil, a: np.ndarray, dt: float) -> None:
    """Write I - dt * D_a into the band buffer, D_a the conservative diffusion
    stencil under the cell coefficients a."""
    k, vols, neg_vols = stencil.k, stencil.volumes, stencil.neg_volumes
    band = stencil.band
    # k[0] = k[n] = 0 (zero flux); the interior is dt * area * a_face / dr
    inner = k[1:-1]
    np.add(a[1:], a[:-1], out=inner)
    inner *= 0.5
    inner *= stencil.dt_areas(dt)
    inner /= stencil.dr
    np.divide(inner, neg_vols[:-1], out=band[0, 1:])   # upper: -k / V_i
    np.add(k[1:], k[:-1], out=band[1])                  # diagonal
    band[1] /= vols
    band[1] += 1.0
    np.divide(inner, neg_vols[1:], out=band[2, :-1])   # lower: -k / V_{i+1}


def _solve_band(stencil: Stencil, rhs: np.ndarray) -> np.ndarray:
    """Solve the system in the band buffer for rhs; both are overwritten.

    No finite check here: every caller checks the new state, which carries
    any NaN or infinity of the system or rhs.
    """
    try:
        return solve_banded(stencil.band, rhs)
    except np.linalg.LinAlgError as exc:  # degenerate coefficient
        raise SolverError(f"tridiagonal diffusion solve failed: {exc}") from exc


def _apply_positivity(values, floor_scale):
    """Returns values with roundoff-depth negatives floored at 0; a deeper
    negative raises SolverError.

    floor_scale is values.max().  NaN propagates through min and max and an
    infinity shows in one of them, so the two reductions are also the state's
    finite check: FieldError, as a RadialField of the values would raise.
    """
    lowest = values.min()
    if not (math.isfinite(lowest) and math.isfinite(floor_scale)):
        raise FieldError("field values must be finite")
    if lowest >= 0.0:
        return values
    if lowest < -_ROUNDOFF_FLOOR * max(floor_scale, 1e-300):
        raise SolverError(
            f"positivity violated: min value {lowest:.3e} below roundoff floor"
        )
    return np.maximum(values, 0.0)


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


def _guard_h(grid: RadialGrid, values: np.ndarray, config: SolverConfig,
             report: StepReport) -> float:
    """max h[f] of `values` for the next reaction guard: the bound on it from
    the max and mass in `report` where that clears the guard twice over (the
    margin covers the FFT rounding of h[f]; NaN fails <=), else exact."""
    gamma = config.gamma
    bound = _h_sup_bound(report.mass, report.sup, gamma)
    if gamma == -3.0 or config.dt * -(2.0 + gamma) * bound <= 0.25:
        return bound
    return h_values(grid, values, gamma).max()


def step(stencil: Stencil, values: np.ndarray, a: np.ndarray, h_max: float,
         config: SolverConfig, mass0: float) -> tuple[np.ndarray, StepReport]:
    """Advance the profile `values` on stencil.grid one dt under the frozen
    coefficient array a = a[f]: the drift explicitly, then one implicit
    diffusion solve, per reaction-guard substep.  The guard reads h[f] only
    as h_max, its max or a bound on it that the guard clears without
    halving.  mass0 is the initial mass the reported drift is relative to.

    Returns the new values, finite and nonnegative; non-finite values raise
    FieldError.  `values` is never written to.
    """
    rate = float(-(2.0 + config.gamma) * h_max)
    halvings = _reaction_substeps(config.dt, rate)
    sub_dt = config.dt / (1 << halvings)
    vols = stencil.volumes

    vals = values
    flux = stencil.flux
    for _ in range(1 << halvings):
        _drift_flux(vals, a, stencil.dr, flux[1:-1])
        flux[1:-1] *= stencil.inner_areas
        f_star = vals + sub_dt * (flux[1:] - flux[:-1]) / vols
        _fill_band(stencil, a, sub_dt)
        vals = _solve_band(stencil, f_star)
        top = vals.max()
        vals = _apply_positivity(vals, top)
    mass = float(np.dot(vols, vals))
    report = StepReport(
        mass_drift=(mass - mass0) / mass0 if mass0 else 0.0,
        halvings=halvings,
        sup=max(float(top), 0.0),  # the max after flooring negatives at 0
        mass=mass,
    )
    return vals, report


def run(config: SolverConfig, f_in: RadialField, checkpoint_path=None) -> Trajectory:
    """Advance f_in to t_end, recording diagnostics every output_stride steps.

    The state and its coefficients are bare arrays throughout; a[f] is
    evaluated once per step, h[f] at output times and otherwise only as the
    guard needs it (_guard_h).  Each row's `_halvings` counts the halvings
    since the previous row.  The trajectory holds the rows only; the state
    at t_end goes to the checkpoint.
    On non-finite values the run aborts with the last good state checkpointed
    (when a checkpoint path is given).
    """
    grid = config.grid()
    if f_in.grid != grid:
        raise SolverError("initial field grid does not match the configuration")
    gamma = config.gamma
    n_steps = config.n_steps

    stencil = Stencil(grid)
    f = f_in
    vals = f.values
    mass0 = float(np.dot(stencil.volumes, vals))
    traj = Trajectory()
    boundary_budget = 0.0
    zero_field = mass0 == 0.0
    halvings = 0

    a = radial_convolve(grid, vals, 2.0 + gamma)
    h = h_values(grid, vals, gamma)
    traj.append(diagnostics.snapshot_row(0.0, f, gamma, a, h))
    h_max = h.max()
    for k in range(1, n_steps + 1):
        if not zero_field:
            boundary_budget += boundary_flux_estimate(grid, vals, a) * config.dt
        try:
            vals, rep = step(stencil, vals, a, h_max, config, mass0)
        except (FieldError, SolverError) as exc:
            # non-finite values, a negative state or a degenerate solve: vals
            # is the last good state
            if checkpoint_path is not None:
                write_checkpoint(checkpoint_path, RadialField(grid, vals),
                                 gamma=gamma, time=(k - 1) * config.dt)
            raise SolverError(
                f"step {k} aborted ({exc}); last good state retained"
            ) from exc
        halvings += rep.halvings
        a = radial_convolve(grid, vals, 2.0 + gamma)
        if k % config.output_stride == 0 or k == n_steps:
            h = h_values(grid, vals, gamma)
            t = k * config.dt
            f = RadialField(grid, vals)
            traj.append(diagnostics.snapshot_row(
                t, f, gamma, a, h, mass_drift=rep.mass_drift,
                boundary_budget=boundary_budget, halvings=halvings))
            halvings = 0
            h_max = h.max()
        else:
            h_max = _guard_h(grid, vals, config, rep)
    diagnostics.finalize_rows(traj, gamma)
    if checkpoint_path is not None:
        write_checkpoint(checkpoint_path, f, gamma=gamma, time=config.t_end)
    return traj


def run_semilinear(config: SolverConfig,
                   u_in: RadialField) -> tuple[Trajectory, float | None]:
    """Integrate d_t u = Laplacian(u) + u^2 until t_end or the detector fires
    at max u >= BLOWUP_THRESHOLD.

    Diffusion is implicit (unit coefficient), the quadratic reaction explicit
    with the same dt-halving guard keyed to max(u) and the same positivity
    check as `step` (a negative deeper than roundoff raises SolverError, a
    non-finite value FieldError).  The unit-coefficient system is built once
    per substep size and copied into the band buffer before each solve.
    Returns the trajectory of (t, max u) rows and the detector time (None if
    it never fires).
    """
    grid = u_in.grid
    stencil = Stencil(grid)
    ones = np.ones(grid.n_cells)
    bands = {}  # substep size -> unit-coefficient system
    n_steps = config.n_steps
    traj = Trajectory()
    traj.append({"t": 0.0, "max": float(u_in.values.max())})
    vals = u_in.values.copy()
    detector = None
    for k in range(1, n_steps + 1):
        rate = float(vals.max())
        halvings = _reaction_substeps(config.dt, rate)
        sub_dt = config.dt / (1 << halvings)
        band = bands.get(sub_dt)
        if band is None:
            _fill_band(stencil, ones, sub_dt)
            band = bands[sub_dt] = stencil.band.copy()
        for _ in range(1 << halvings):
            f_star = vals + sub_dt * vals**2
            np.copyto(stencil.band, band)
            vals = _solve_band(stencil, f_star)
            top = vals.max()
            vals = _apply_positivity(vals, top)
            if top >= BLOWUP_THRESHOLD:
                detector = k * config.dt
                break
        t = k * config.dt
        if k % config.output_stride == 0 or k == n_steps or detector is not None:
            traj.append({"t": t, "max": float(vals.max())})
        if detector is not None:
            break
    return traj, detector
