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

Between output times the state and its coefficients are bare arrays:
`step(stencil, values, a, h, config)` returns `(values, StepReport)`, with a
`Stencil` holding the per-run constants and the band buffer of the diffusion
system.  `run` builds `RadialField`s only for the rows, the trajectory and
the checkpoints.  Every step checks its new state for finite values
(FieldError) and calls `kernels.radial_convolve` for each coefficient
convolution and `solve_banded`, as bound here, for each diffusion solve;
the per-layer timings of the benchmark tracer rely on these names.

`solve_banded` is one direct call of LAPACK `dgtsv` (`ksflow._lapack`).  It
keeps the name of the banded solver it replaced because the benchmark tracer
times the diffusion solve as `solver.solve_banded`; it is bound here, not
defined here, because the tracer would otherwise wrap it twice, as a foreign
function and as a public function of the solver layer.

The semilinear comparison dynamics d_t u = Laplacian(u) + u^2 shares the same
machinery (unit diffusion coefficient, reaction u^2, the same stencil and
band buffer) and is used by the blow-up contrast experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lapack, diagnostics
from ._lapack import solve_banded
from .grids import FieldError, RadialField, RadialGrid, Trajectory, write_checkpoint
from .kernels import PowerLaw, _h_values, radial_convolve

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
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

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


def flux_form_rhs(grid: RadialGrid, values: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Finite-volume divergence of the conservative fluxes of the profile
    `values` under the diffusion coefficient a = a[f] (bare arrays).

    Zero flux is imposed at r = 0 (zero face area) and at r_max, so the
    discrete integral of the output telescopes to 0 exactly.
    """
    dr = grid.dr
    flux = np.zeros(grid.n_cells + 1)
    inner = _drift_flux(values, a, dr, flux[1:-1])
    inner += 0.5 * (a[1:] + a[:-1]) * (values[1:] - values[:-1]) / dr
    inner *= grid.face_areas[1:-1]
    return (flux[1:] - flux[:-1]) / grid.cell_volumes


def boundary_flux_estimate(grid: RadialGrid, values: np.ndarray, a: np.ndarray) -> float:
    """Magnitude of the flux the profile would push through r_max.

    One-sided extrapolation of the conservative flux at the outer face; the
    zero-flux boundary suppresses exactly this much per unit time.
    """
    dr = grid.dr
    diff = a[-1] * (0.0 - values[-1]) / dr
    drift = -0.5 * values[-1] * (a[-1] - a[-2]) / dr
    area = 4.0 * np.pi * grid.r_max**2
    return abs(area * (diff + drift))


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


def _apply_positivity(values, policy, floor_scale):
    """Returns (values, clips) after applying the positivity policy.

    floor_scale is values.max().  NaN propagates through min and max and an
    infinity shows in one of them, so the two reductions are also the state's
    finite check: FieldError, as a RadialField of the values would raise.
    """
    lowest = values.min()
    if not (math.isfinite(lowest) and math.isfinite(floor_scale)):
        raise FieldError("field values must be finite")
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


def _coefficients(grid: RadialGrid, values: np.ndarray, gamma: float):
    """a[f] and h[f] values; h is None where the reaction coefficient 2+gamma
    vanishes."""
    a = radial_convolve(grid, values, 2.0 + gamma)
    return a, None if 2.0 + gamma == 0.0 else _h_values(grid, values, gamma)


def step(stencil: Stencil, values: np.ndarray, a: np.ndarray, h: np.ndarray | None,
         config: SolverConfig, mass0: float | None = None
         ) -> tuple[np.ndarray, StepReport]:
    """Advance the profile `values` on stencil.grid one dt with the configured
    radial scheme under the frozen coefficients a = a[f] and h = h[f] (None
    when 2 + gamma = 0), all bare arrays.

    Returns the new values, finite and nonnegative; non-finite values raise
    FieldError.  `values` is never written to.
    """
    rate = 0.0 if h is None else float(-(2.0 + config.gamma) * h.max())
    halvings = _reaction_substeps(config.dt, rate)
    sub_dt = config.dt / (1 << halvings)
    vols = stencil.volumes
    if mass0 is None:
        mass0 = float(np.dot(vols, values))

    vals = values
    clips = 0
    for _ in range(1 << halvings):
        if config.scheme == "semi-implicit-fv":
            flux = stencil.flux
            _drift_flux(vals, a, stencil.dr, flux[1:-1])
            flux[1:-1] *= stencil.inner_areas
            f_star = vals + sub_dt * (flux[1:] - flux[:-1]) / vols
            _fill_band(stencil, a, sub_dt)
            vals = _solve_band(stencil, f_star)
        else:  # explicit-fv
            vals = vals + sub_dt * flux_form_rhs(stencil.grid, vals, a)
        vals, c = _apply_positivity(vals, config.positivity, vals.max())
        clips += c
    mass = float(np.dot(vols, vals))
    report = StepReport(
        dt_used=sub_dt,
        mass_drift=(mass - mass0) / mass0 if mass0 else 0.0,
        clips=clips,
        halvings=halvings,
    )
    return vals, report


def run(config: SolverConfig, f_in: RadialField, checkpoint_path=None) -> Trajectory:
    """Advance f_in to t_end, recording diagnostics every output_stride steps.

    The state and its coefficients are bare arrays between output times; the
    coefficients are evaluated once per step, for the step and the row.  Each
    row's `_clips` and `_halvings` count the steps since the previous row.
    On non-finite values the run aborts with the last good state checkpointed
    (when a checkpoint path is given).
    """
    grid = config.grid()
    if f_in.grid != grid:
        raise SolverError("initial field grid does not match the configuration")
    pot = config.potential
    n_steps = config.n_steps

    stencil = Stencil(grid)
    f = f_in
    vals = f.values
    mass0 = float(np.dot(stencil.volumes, vals))
    traj = Trajectory()
    boundary_budget = 0.0
    zero_field = mass0 == 0.0
    clips = halvings = 0

    def row(t, f, a, h, **bookkeeping):
        return diagnostics.snapshot_row(
            t, f, pot, a=RadialField(grid, a),
            h=None if h is None else RadialField(grid, h), **bookkeeping)

    a, h = _coefficients(grid, vals, config.gamma)
    traj.append(0.0, f, row(0.0, f, a, h, mass_drift=0.0, boundary_budget=0.0))
    for k in range(1, n_steps + 1):
        if not zero_field:
            boundary_budget += boundary_flux_estimate(grid, vals, a) * config.dt
        try:
            vals, rep = step(stencil, vals, a, h, config, mass0=mass0)
        except (FieldError, SolverError) as exc:
            # non-finite values or a degenerate solve: vals is the last good state
            if checkpoint_path is not None:
                write_checkpoint(checkpoint_path, RadialField(grid, vals),
                                 gamma=config.gamma, time=(k - 1) * config.dt)
            raise SolverError(
                f"step {k} aborted ({exc}); last good state retained"
            ) from exc
        clips += rep.clips
        halvings += rep.halvings
        a, h = _coefficients(grid, vals, config.gamma)
        if k % config.output_stride == 0 or k == n_steps:
            t = k * config.dt
            f = RadialField(grid, vals)
            traj.append(t, f, row(t, f, a, h, mass_drift=rep.mass_drift,
                                     boundary_budget=boundary_budget,
                                     clips=clips, halvings=halvings))
            clips = halvings = 0
    diagnostics.finalize_rows(traj, config.gamma)
    if checkpoint_path is not None:
        write_checkpoint(checkpoint_path, f, gamma=config.gamma, time=config.t_end)
    return traj


def run_semilinear(config: SolverConfig,
                   u_in: RadialField) -> tuple[Trajectory, float | None]:
    """Integrate d_t u = Laplacian(u) + u^2 until t_end or the detector fires
    at max u >= BLOWUP_THRESHOLD.

    Diffusion is implicit (unit coefficient), the quadratic reaction explicit
    with the same dt-halving guard keyed to max(u).  The unit-coefficient
    system is built once per substep size and copied into the band buffer
    before each solve.  Returns the trajectory of (t, max u) rows and the
    detector time (None if it never fires).
    """
    grid = u_in.grid
    stencil = Stencil(grid)
    ones = np.ones(grid.n_cells)
    bands = {}  # substep size -> unit-coefficient system
    n_steps = config.n_steps
    traj = Trajectory()
    traj.append(0.0, u_in, {"t": 0.0, "max": float(u_in.values.max())})
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
            vals = np.maximum(_solve_band(stencil, f_star), 0.0)
            top = vals.max()
            if not math.isfinite(top):  # NaN and +inf survive the floor at 0
                raise FieldError("field values must be finite")
            if top >= BLOWUP_THRESHOLD:
                detector = k * config.dt
                break
        t = k * config.dt
        if k % config.output_stride == 0 or k == n_steps or detector is not None:
            traj.append(t, RadialField(grid, np.minimum(vals, 1e300)),
                        {"t": t, "max": float(vals.max())})
        if detector is not None:
            break
    return traj, detector
