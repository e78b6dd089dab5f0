"""Bit-identity gate for the array-level radial stepper.

`solver.run` steps bare arrays through one `Stencil` per run and builds
fields only at output times.  The oracle below is the field-per-step
arithmetic it replaced, kept verbatim: fresh arrays every step, a validated
`RadialField` for each state and coefficient, a freshly built band matrix and
a checked `solve_banded` per solve.  Only the positivity floor and the
reaction guard, which neither path changed, are the solver's own.  Both must
give the same state at every output row (recorded from the solver by
`recorded_run.run_with_states`) and the same rows bit for bit, and an aborted
run must leave the same checkpoint.

`_flux_form_rhs` is the explicit finite-volume divergence of the scheme's
fluxes, the one test-side copy that `test_solver.py` checks the
discretization and the step against.
"""

import numpy as np
import pytest
from scipy.linalg import solve_banded

import ksflow.solver as solver
from ksflow import diagnostics
from ksflow.grids import (
    FieldError,
    RadialField,
    Trajectory,
    gaussian_field,
    write_checkpoint,
)
from ksflow.kernels import h_values, radial_convolve
from ksflow.solver import (
    SolverConfig,
    SolverError,
    _apply_positivity,
    _reaction_substeps,
    run,
)

from checkpoint_reader import read_checkpoint
from recorded_run import run_with_states


def a_field(f, gamma):
    """a[f] = f * |.|^{2+gamma} as a field."""
    return RadialField(f.grid, radial_convolve(f.grid, f.values, 2.0 + gamma))


def h_field(f, gamma):
    """h[f] as a field."""
    return RadialField(f.grid, h_values(f.grid, f.values, gamma))


def _drift_flux(f, a, dr):
    return -(0.5 * (f[1:] + f[:-1])) * (a[1:] - a[:-1]) / dr


def _flux_form_rhs(f, a):
    """Finite-volume divergence of the conservative fluxes of the field f
    under the diffusion coefficient field a = a[f] (a signed field).

    Zero flux is imposed at r = 0 (zero face area) and at r_max, so the
    discrete integral of the output telescopes to 0 exactly.
    """
    grid = f.grid
    vals, avals = f.values, a.values
    diff = 0.5 * (avals[1:] + avals[:-1]) * (vals[1:] - vals[:-1]) / grid.dr
    flux = np.zeros(grid.n_cells + 1)
    flux[1:-1] = (diff + _drift_flux(vals, avals, grid.dr)) * grid.face_areas[1:-1]
    return RadialField(grid, (flux[1:] - flux[:-1]) / grid.cell_volumes, signed=True)


def _boundary_flux_estimate(f, a):
    grid = f.grid
    dr = grid.dr
    fa, aa = f.values, a.values
    diff = aa[-1] * (0.0 - fa[-1]) / dr
    drift = -0.5 * fa[-1] * (aa[-1] - aa[-2]) / dr
    return abs(grid.face_areas[-1] * (diff + drift))


def _implicit_diffusion_solve(f_star, a_vals, grid, dt):
    n = grid.n_cells
    vols = grid.cell_volumes
    a_face = np.zeros(n + 1)
    a_face[1:-1] = 0.5 * (a_vals[1:] + a_vals[:-1])
    k = dt * grid.face_areas * a_face / grid.dr
    k[-1] = 0.0
    ab = np.zeros((3, n))
    ab[0, 1:] = -k[1:-1] / vols[:-1]
    ab[1, :] = 1.0 + (k[1:] + k[:-1]) / vols
    ab[2, :-1] = -k[1:-1] / vols[1:]
    try:
        return solve_banded((1, 1), ab, f_star)
    except Exception as exc:
        raise SolverError(f"tridiagonal diffusion solve failed: {exc}") from exc


def _step(f, a, h, config, mass0):
    rate = float(-(2.0 + config.gamma) * h.values.max())
    halvings = _reaction_substeps(config.dt, rate)
    sub_dt = config.dt / (1 << halvings)
    grid = f.grid
    vols = grid.cell_volumes
    vals = f.values
    for _ in range(1 << halvings):
        dflux = np.zeros(grid.n_cells + 1)
        dflux[1:-1] = _drift_flux(vals, a.values, grid.dr) * grid.face_areas[1:-1]
        f_star = vals + sub_dt * (dflux[1:] - dflux[:-1]) / vols
        vals = _implicit_diffusion_solve(f_star, a.values, grid, sub_dt)
        vals = _apply_positivity(vals, vals.max())
    mass = float(np.dot(vols, vals))
    drift = (mass - mass0) / mass0 if mass0 else 0.0
    return RadialField(grid, vals), drift, halvings


def oracle_run(config, f_in, checkpoint_path=None):
    """(trajectory, [the field of each row]), as `run_with_states` returns."""
    gamma = config.gamma

    def coefficients(f):
        return a_field(f, gamma), h_field(f, gamma)

    n_steps = int(round(config.t_end / config.dt))
    mass0 = float(np.dot(f_in.grid.cell_volumes, f_in.values))
    traj = Trajectory()
    states = [f_in]
    f = f_in
    budget = 0.0
    halvings = 0
    a, h = coefficients(f)
    traj.append(diagnostics.snapshot_row(0.0, f, gamma, a.values, h.values))
    for k in range(1, n_steps + 1):
        if mass0 != 0.0:
            budget += _boundary_flux_estimate(f, a) * config.dt
        try:
            f, drift, hv = _step(f, a, h, config, mass0)
        except (FieldError, SolverError) as exc:
            if checkpoint_path is not None:
                write_checkpoint(checkpoint_path, f, gamma=config.gamma,
                                 time=(k - 1) * config.dt)
            raise SolverError(f"step {k} aborted ({exc}); last good state retained") from exc
        halvings += hv
        a, h = coefficients(f)
        if k % config.output_stride == 0 or k == n_steps:
            t = k * config.dt
            traj.append(diagnostics.snapshot_row(
                t, f, gamma, a.values, h.values, mass_drift=drift,
                boundary_budget=budget, halvings=halvings))
            states.append(f)
            halvings = 0
    diagnostics.finalize_rows(traj, config.gamma)
    if checkpoint_path is not None:
        write_checkpoint(checkpoint_path, f, gamma=config.gamma, time=config.t_end)
    return traj, states


# (config, initial data, total halvings > 0)
CASES = {
    "gamma-3": (
        SolverConfig(gamma=-3.0, n_cells=512, dt=1e-4, t_end=0.02, output_stride=50),
        lambda g: gaussian_field(g, sigma=1.0, mass=1.0), False),
    "halvings": (
        SolverConfig(gamma=-2.5, n_cells=512, dt=1e-4, t_end=0.02, output_stride=50),
        lambda g: gaussian_field(g, sigma=1.0, amplitude=3e4), True),
    # the bound on max h[f] after step 1 would halve dt where the exact h[f]
    # does not, so the guard must convolve h[f] there
    "guard-after-step-1": (
        SolverConfig(gamma=-2.5, n_cells=128, dt=1e-4, t_end=0.002, output_stride=10),
        lambda g: gaussian_field(g, sigma=1.0, amplitude=4e4), True),
}


@pytest.mark.parametrize("case", CASES)
def test_stored_fields_rows_and_checkpoint_are_bit_identical(case, tmp_path):
    cfg, initial, halvings = CASES[case]
    f0 = initial(cfg.grid())
    got, got_states = run_with_states(cfg, f0, checkpoint_path=tmp_path / "got.ckpt")
    want, want_states = oracle_run(cfg, f0, checkpoint_path=tmp_path / "want.ckpt")
    assert got.column("t").tolist() == want.column("t").tolist()
    assert len(got_states) == len(want_states) == len(got.rows)
    for g, w in zip(got_states, want_states):
        assert np.array_equal(g.values, w.values)
    assert got.rows == want.rows
    assert (tmp_path / "got.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()
    # the case exercises what it is named for
    assert (sum(r["_halvings"] for r in got.rows) > 0) == halvings


def nan_at_call(solve, k):
    """solve, returning NaN in place of its k-th solution (k from 1)."""
    calls = 0

    def patched(*args, **kwargs):
        nonlocal calls
        calls += 1
        x = solve(*args, **kwargs)
        return np.full_like(x, np.nan) if calls == k else x
    return patched


#: the step whose diffusion solve returns NaN in the abort tests
NAN_STEP = 7


def test_abort_leaves_the_same_last_good_checkpoint(tmp_path, monkeypatch):
    # the gamma-3 case takes no halvings, so its k-th solve is step k's
    cfg, initial, _ = CASES["gamma-3"]
    f0 = initial(cfg.grid())
    monkeypatch.setattr(solver, "solve_banded", nan_at_call(solver.solve_banded, NAN_STEP))
    monkeypatch.setitem(globals(), "solve_banded", nan_at_call(solve_banded, NAN_STEP))
    errors = []
    for name, runner in (("got", run), ("want", oracle_run)):
        with pytest.raises(SolverError, match=f"step {NAN_STEP} aborted .*finite.* "
                                              "last good state retained") as info:
            runner(cfg, f0, checkpoint_path=tmp_path / f"{name}.ckpt")
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert (tmp_path / "got.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()
    _, _, t_saved = read_checkpoint(tmp_path / "got.ckpt")
    assert t_saved == (NAN_STEP - 1) * cfg.dt
