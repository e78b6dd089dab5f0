"""Experiment orchestration: simulate runs, monitor wiring, and the blow-up
comparison between the isotropic Landau flow and its semilinear-heat twin."""

from __future__ import annotations

import os

import numpy as np

from . import diagnostics as dg
from .config import RunConfig
from .grids import RadialField, RadialGrid, gaussian_field
from .report import all_passed, write_csv, write_run_report
from .solver import STEP_BUDGET, SolverConfig, SolverError, run, run_semilinear

def initial_field(cfg: RunConfig) -> RadialField:
    grid = cfg.solver.grid()
    if cfg.initial_kind == "zero":
        return RadialField(grid, np.zeros(grid.n_cells))
    if cfg.amplitude is not None:
        return gaussian_field(grid, sigma=cfg.sigma, amplitude=cfg.amplitude)
    return gaussian_field(grid, sigma=cfg.sigma, mass=cfg.mass)


def simulate(cfg: RunConfig, out_dir) -> tuple[bool, list]:
    """Run the configured scenario; write diagnostics CSV, checkpoint and the
    run report.  Returns (all_passed, verdicts)."""
    os.makedirs(out_dir, exist_ok=True)
    f0 = initial_field(cfg)
    ckpt = os.path.join(out_dir, f"{cfg.scenario}.ckpt")
    traj = run(cfg.solver, f0, checkpoint_path=ckpt)
    csv_path = os.path.join(out_dir, f"{cfg.scenario}-diagnostics.csv")
    write_csv(csv_path, dg.ROW_COLUMNS, traj.rows)
    verdicts = [dg.MONITORS[name](traj, cfg.solver.gamma) for name in cfg.monitors]
    report_path = os.path.join(out_dir, f"{cfg.scenario}-report.txt")
    write_run_report(report_path, cfg.echo_lines(), verdicts,
                     [csv_path, ckpt, report_path])
    return all_passed(verdicts), verdicts


#: the grid of both twins of `compare_blowup`, and its default time steps
BLOWUP_GRID = RadialGrid(512, 12.0)
BLOWUP_DTS = (1e-4, 1e-5)


def compare_blowup(amplitude: float, sigma: float = 1.0, horizon: float = 0.1,
                   dt_list=BLOWUP_DTS) -> dict:
    """Twin experiment: d_t u = Lap u + u^2 versus the gamma = -3 flow from
    identical peak-height data, on BLOWUP_GRID (512 cells of (0, 12]).

    Blow-up of the semilinear twin is detected at max u >=
    solver.BLOWUP_THRESHOLD; the detector time's dt-convergence and the
    Landau twin's max-value bound over the horizon are reported.
    Both-blow-up or neither-blow-up outcomes are reported, never raised.
    More than solver.STEP_BUDGET solver steps in total (horizon/dt for each
    dt of the semilinear twin plus horizon/dt_list[0] for the Landau run; the
    default dt_list at horizon 0.1 takes 12 000) raises SolverError before
    any step is taken.
    """
    if amplitude < 0:
        raise ValueError("amplitude must be nonnegative")
    steps = horizon / dt_list[0] + sum(horizon / dt for dt in dt_list)
    if not steps <= STEP_BUDGET:
        raise SolverError(f"{steps:.3g} solver steps exceed the budget of "
                          f"{STEP_BUDGET} (horizon / dt summed over the runs)")
    configs = [SolverConfig(gamma=-3.0, n_cells=BLOWUP_GRID.n_cells,
                            r_max=BLOWUP_GRID.r_max, dt=dt, t_end=horizon,
                            output_stride=max(1, int(round(0.005 / dt))))
               for dt in dt_list]
    u0 = gaussian_field(configs[0].grid(), sigma=sigma, amplitude=amplitude)

    detector_times = []
    heat_curves = []
    for cfg in configs:
        traj, t_det = run_semilinear(cfg, u0)
        detector_times.append(t_det)
        heat_curves.append([(row["t"], row["max"]) for row in traj.rows])

    ks_traj = run(configs[0], u0)
    ks_max = float(ks_traj.column("linf_norm").max())
    ks_initial = float(u0.values.max())
    ks_mass_drift = max(abs(r["_mass_drift"]) for r in ks_traj.rows)

    fired = [t for t in detector_times if t is not None]
    if len(fired) == len(detector_times) and fired:
        spread = max(fired) - min(fired)
        detector_converged = spread <= 0.1 * min(fired)
    else:
        detector_converged = None  # not applicable unless every dt fires
    return {
        "detector_times": detector_times,
        "detector_converged": detector_converged,
        "semilinear_blew_up": bool(fired),
        "ks_initial_max": ks_initial,
        "ks_max": ks_max,
        "ks_max_ratio": ks_max / ks_initial if ks_initial > 0 else 0.0,
        "ks_bounded": ks_max <= 2.0 * ks_initial if ks_initial > 0 else True,
        "ks_mass_drift": ks_mass_drift,
        "heat_curves": heat_curves,
        "ks_curve": [(row["t"], row["linf_norm"]) for row in ks_traj.rows],
    }


def blowup_verdicts(result: dict) -> list:
    """Monitor-style rows for the report writer."""
    return [
        {
            "monitor": "semilinear_detector",
            "passed": result["semilinear_blew_up"],
            "detector_times": str(result["detector_times"]),
        },
        {
            "monitor": "detector_dt_convergence",
            "passed": bool(result["detector_converged"]),
            "skipped": result["detector_converged"] is None,
        },
        {
            "monitor": "landau_twin_bounded",
            "passed": result["ks_bounded"],
            "max_ratio": result["ks_max_ratio"],
        },
        {
            "monitor": "landau_twin_mass",
            "passed": result["ks_mass_drift"] <= 1e-10,
            "drift": result["ks_mass_drift"],
        },
    ]
