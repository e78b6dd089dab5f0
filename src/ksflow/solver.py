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
values, 2+gamma)`.  The guard reads h[f] only as the float h_max.

A `Stencil` is the per-run workspace: the per-run constants and every buffer
the radial step writes, with the slice views of them it reads, all built
once, so that `step`, `run` and `run_semilinear` allocate no array per step.
It owns two state buffers, the a[f] buffer (`radial_convolve` writes into it
with `out=`), a work buffer for the differences and the convolution's
scratch, the face flux and face weight buffers and the (3, n) band of the
diffusion system.  A step never writes its `values`; it writes the new state
into the other state buffer, so the array `step` returns stays valid through
the next step on the same stencil and is overwritten by the one after it.
`run` therefore hands each output row's `RadialField` a copy of the state.

`run` forms h[f] (`kernels.h_values`) at every output row, for every gamma,
and hands a[f] and h[f] to `diagnostics.snapshot_row`; between rows, where
the bound `kernels._h_sup_bound` on max h[f] (exact at gamma = -3) clears
the guard with a 2x margin, h_max is that bound and h[f] is not convolved.
`RadialField`s are built only for the state at the rows, for
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
buffer and positivity check, its state in place in one state buffer) and is
used by the blow-up contrast experiment.
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

#: max and min without the Python layer of ndarray.max and ndarray.min
_max, _min = np.maximum.reduce, np.minimum.reduce

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
# the per-run workspace
# ---------------------------------------------------------------------------

class Stencil:
    """Per-run workspace of the radial finite-volume scheme on one grid.

    Holds the geometry a step reads (dr, cell volumes, interior face areas),
    dt and dt times those areas for each substep size met, and every buffer
    a step writes:

      states  two state buffers; a step from one of them writes the other,
              a step from any other array writes states[0]
      a       the a[f] buffer `run` convolves into
      work    the difference temporary, and radial_convolve's scratch
      flux    face fluxes (length n+1, zero at both ends: zero flux at r = 0
              and r_max)
      k       face diffusion weights (length n+1, zero at both ends)
      band    the (3, n) band of the diffusion system

    The slice views a step reads (f[1:], f[:-1], band[0, 1:], ...) are built
    here, once, and so are its scalar operands, as 0-d arrays.  Raises
    SolverError when the LAPACK routine of the diffusion solve is
    unavailable.
    """

    def __init__(self, grid: RadialGrid):
        if _lapack.UNRESOLVED is not None:
            raise SolverError(f"tridiagonal diffusion solve unavailable: "
                              f"{_lapack.UNRESOLVED}")
        n = grid.n_cells
        self.grid = grid
        self.volumes = grid.cell_volumes
        # dividing by -V is negating the quotient by V, bit for bit
        neg_volumes = -grid.cell_volumes
        self.neg_volumes_lower, self.neg_volumes_upper = neg_volumes[:-1], neg_volumes[1:]
        self.inner_areas = grid.face_areas[1:-1]
        # scalar operands as 0-d arrays: a ufunc converts a Python float
        # operand on every call
        self.dr = np.array(grid.dr)
        self.half, self.neg_half, self.one = np.array(0.5), np.array(-0.5), np.array(1.0)
        self.states = (np.empty(n), np.empty(n))
        self.a = np.empty(n)
        self.work = np.empty(n)
        self.a_diff = self.work[:-1]
        flux, k = np.zeros(n + 1), np.zeros(n + 1)
        self.flux_inner, self.flux_upper, self.flux_lower = flux[1:-1], flux[1:], flux[:-1]
        self.k_inner, self.k_upper, self.k_lower = k[1:-1], k[1:], k[:-1]
        self.band = np.zeros((3, n))
        self.band_upper, self.band_diag, self.band_lower = (
            self.band[0, 1:], self.band[1], self.band[2, :-1])
        # id -> (x[1:], x[:-1]) of the buffers a step takes as arguments; the
        # stencil holds them, so no other live array shares their ids
        self.views = {id(x): (x[1:], x[:-1]) for x in (*self.states, self.a)}
        self._substeps = {}

    def substep(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(dt as a 0-d array, dt * inner_areas), built once per substep size."""
        entry = self._substeps.get(dt)
        if entry is None:
            entry = self._substeps[dt] = (np.array(dt), dt * self.inner_areas)
        return entry


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def boundary_flux_estimate(grid: RadialGrid, values: np.ndarray, a: np.ndarray) -> float:
    """Magnitude of the flux the profile would push through r_max.

    One-sided extrapolation of the conservative flux at the outer face; the
    zero-flux boundary suppresses exactly this much per unit time.  Python
    floats throughout: the same roundings as numpy's, without its scalars.
    """
    dr = grid.dr
    f_n, a_n = values.item(-1), a.item(-1)
    diff = a_n * (0.0 - f_n) / dr
    drift = -0.5 * f_n * (a_n - a.item(-2)) / dr
    return abs(grid.face_areas.item(-1) * (diff + drift))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _fill_band(stencil: Stencil, a_upper: np.ndarray, a_lower: np.ndarray,
               dt_areas: np.ndarray) -> None:
    """Write I - dt * D_a into the band buffer, D_a the conservative diffusion
    stencil under the cell coefficients a, given as (a[1:], a[:-1]), and
    dt_areas = dt * the interior face areas."""
    s = stencil
    k, diag = s.k_inner, s.band_diag
    # k[0] = k[n] = 0 (zero flux); the interior is dt * area * a_face / dr
    np.add(a_upper, a_lower, out=k)
    np.multiply(k, s.half, out=k)
    np.multiply(k, dt_areas, out=k)
    np.divide(k, s.dr, out=k)
    np.divide(k, s.neg_volumes_lower, out=s.band_upper)   # -k / V_i
    np.add(s.k_upper, s.k_lower, out=diag)
    np.divide(diag, s.volumes, out=diag)
    np.add(diag, s.one, out=diag)
    np.divide(k, s.neg_volumes_upper, out=s.band_lower)   # -k / V_{i+1}


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
    """Floors roundoff-depth negatives of values at 0, in place, and returns
    values; a deeper negative raises SolverError.

    floor_scale is values.max().  NaN propagates through min and max and an
    infinity shows in one of them, so the two reductions are also the state's
    finite check: FieldError, as a RadialField of the values would raise.
    """
    lowest = _min(values)
    if not (math.isfinite(lowest) and math.isfinite(floor_scale)):
        raise FieldError("field values must be finite")
    if lowest >= 0.0:
        return values
    if lowest < -_ROUNDOFF_FLOOR * max(floor_scale, 1e-300):
        raise SolverError(
            f"positivity violated: min value {lowest:.3e} below roundoff floor"
        )
    return np.maximum(values, 0.0, out=values)


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

    Returns the new values, finite and nonnegative, in the one of
    stencil.states that `values` is not; non-finite values raise FieldError.
    `values` is never written to, so it stays the last good state when a
    substep fails; every substep after the first works in place.
    """
    rate = float(-(2.0 + config.gamma) * h_max)
    halvings = _reaction_substeps(config.dt, rate)
    s = stencil
    sub_dt, dt_areas = s.substep(config.dt / (1 << halvings))
    flux, work, vols, views = s.flux_inner, s.work, s.volumes, s.views
    a_upper, a_lower = views.get(id(a)) or (a[1:], a[:-1])
    new = s.states[1] if values is s.states[0] else s.states[0]

    vals = values
    for _ in range(1 << halvings):
        upper, lower = views.get(id(vals)) or (vals[1:], vals[:-1])
        # interior face drift flux -f grad a, times the face areas
        np.add(upper, lower, out=flux)
        np.multiply(flux, s.neg_half, out=flux)
        np.multiply(flux, np.subtract(a_upper, a_lower, out=s.a_diff), out=flux)
        np.divide(flux, s.dr, out=flux)
        np.multiply(flux, s.inner_areas, out=flux)
        # the explicit drift update, into the new state
        np.subtract(s.flux_upper, s.flux_lower, out=work)
        np.multiply(work, sub_dt, out=work)
        np.divide(work, vols, out=work)
        np.add(vals, work, out=new)
        _fill_band(s, a_upper, a_lower, dt_areas)
        vals = _solve_band(s, new)
        top = _max(vals)
        vals = _apply_positivity(vals, top)
    mass = float(vols.dot(vals))
    report = StepReport(
        mass_drift=(mass - mass0) / mass0 if mass0 else 0.0,
        halvings=halvings,
        sup=max(float(top), 0.0),  # the max after flooring negatives at 0
        mass=mass,
    )
    return vals, report


def run(config: SolverConfig, f_in: RadialField, checkpoint_path=None) -> Trajectory:
    """Advance f_in to t_end, recording diagnostics every output_stride steps.

    The state and its coefficients are bare arrays throughout, in the buffers
    of one Stencil; a[f] is evaluated into its a buffer once per step, h[f]
    at output times and otherwise only as the guard needs it (_guard_h).
    Each row's field holds a copy of the state.  Each row's `_halvings`
    counts the halvings since the previous row.  The trajectory holds the
    rows only; the state at t_end goes to the checkpoint.
    On non-finite values the run aborts with the last good state checkpointed
    (when a checkpoint path is given).
    """
    grid = config.grid()
    if f_in.grid != grid:
        raise SolverError("initial field grid does not match the configuration")
    gamma = config.gamma
    mu = 2.0 + gamma
    n_steps = config.n_steps

    stencil = Stencil(grid)
    f = f_in
    vals = f.values
    mass0 = float(np.dot(stencil.volumes, vals))
    traj = Trajectory()
    boundary_budget = 0.0
    halvings = 0

    a = radial_convolve(grid, vals, mu, out=stencil.a, work=stencil.work)
    h = h_values(grid, vals, gamma)
    traj.append(diagnostics.snapshot_row(0.0, f, gamma, a, h))
    h_max = h.max()
    for k in range(1, n_steps + 1):
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
        a = radial_convolve(grid, vals, mu, out=stencil.a, work=stencil.work)
        if k % config.output_stride == 0 or k == n_steps:
            h = h_values(grid, vals, gamma)
            t = k * config.dt
            f = RadialField(grid, vals.copy())
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
    non-finite value FieldError).  The state lives in stencil.states[0] and
    every substep works in place.  The unit-coefficient system, from a = 1 in
    the a buffer, is built again whenever the substep size changes and
    copied into the band buffer before each solve.  Returns the trajectory
    of (t, max u) rows and the detector time (None if it never fires).
    """
    grid = u_in.grid
    stencil = Stencil(grid)
    work = stencil.work
    vals = stencil.states[0]
    np.copyto(vals, u_in.values)
    stencil.a.fill(1.0)
    ones_upper, ones_lower = stencil.views[id(stencil.a)]
    unit_band, unit_dt = np.empty_like(stencil.band), None
    n_steps = config.n_steps
    traj = Trajectory()
    traj.append({"t": 0.0, "max": float(u_in.values.max())})
    detector = None
    for k in range(1, n_steps + 1):
        rate = float(vals.max())
        halvings = _reaction_substeps(config.dt, rate)
        sub_dt = config.dt / (1 << halvings)
        if sub_dt != unit_dt:
            _fill_band(stencil, ones_upper, ones_lower, stencil.substep(sub_dt)[1])
            np.copyto(unit_band, stencil.band)
            unit_dt = sub_dt
        for _ in range(1 << halvings):
            # u + dt u^2
            np.square(vals, out=work)
            np.multiply(work, sub_dt, out=work)
            np.add(vals, work, out=vals)
            np.copyto(stencil.band, unit_band)
            vals = _solve_band(stencil, vals)
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
