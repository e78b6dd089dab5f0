"""Functionals of the solution and monitors for the structure theory.

Per output time a row records: mass M, energy E_2, entropy H, Fisher
information i, L^3 and L^inf norms, fourth and sixth moments, the ellipticity
ratio min_r a[f]/<r>^{2+gamma}, the reaction-bound ratio
sup h[f] / (M^{1+gamma/3} ||f||_inf^{-gamma/3}), the energy-identity residual,
the Fisher step increment and the smoothing-envelope value
sup f * min(t,1)^{3/4}.

Monitors never abort a run: each check returns a verdict dict; a failed bound
is itself the experimental result of interest.  Every monitor takes
(trajectory, gamma), whether or not its check depends on gamma, so that one
table, MONITORS, names them all and the harness calls them alike.

The energy identity used here is dE_2/dt = 2 (5+gamma) int a[f] f dv.  The
constant was pinned against the exact heat-flow oracle (gamma = -2, unit mass:
a[f] = 1, E_2 = 3 sigma^2 with sigma^2 = 1 + 2t, so dE_2/dt = 6 = 2*(5-2)*1)
and confirmed by two independent integrations by parts.
"""

from __future__ import annotations

import numpy as np

from .grids import (
    VACUUM_THRESHOLD,
    RadialField,
    Trajectory,
    integrate_radial,
    radial_laplacian,
    weighted_lp_norm,
)
from .kernels import _h_sup_constant

#: canonical diagnostics column order for CSV emission
ROW_COLUMNS = (
    "t",
    "mass",
    "energy",
    "entropy",
    "fisher",
    "l3_norm",
    "linf_norm",
    "e4",
    "e6",
    "ellipticity_ratio",
    "h_bound_ratio",
    "energy_residual",
    "fisher_increment",
    "linf_envelope",
)

ENERGY_RATE_FACTOR = 2.0  # dE_2/dt = ENERGY_RATE_FACTOR * (5+gamma) * int a[f] f

#: the monitors' tolerances: the Fisher and entropy increments relative to
#: the value, the max-point Laplacian and growth relative to max f over the
#: run, the moment rate relative to its bound, the mass drift, and the floor
#: of the ellipticity ratio
MONOTONE_TOL_REL = 1e-8
MAXPOINT_TOL = 1e-8
MOMENT_TOL_REL = 1e-6
MASS_TOL = 1e-10
ELLIPTICITY_FLOOR = 0.1


# ---------------------------------------------------------------------------
# pointwise functionals
# ---------------------------------------------------------------------------

def entropy(f: RadialField) -> float:
    """H(f) = int f log f, with x log x -> 0 on vacuum cells."""
    vals = f.values
    live = vals > VACUUM_THRESHOLD
    contrib = np.zeros_like(vals)
    contrib[live] = vals[live] * np.log(vals[live])
    return float(np.sum(f.grid.weights * contrib))


def _sqrt_gradient_radial(f: RadialField) -> np.ndarray:
    g = np.sqrt(np.maximum(f.values, 0.0))
    dr = f.grid.dr
    dg = np.empty_like(g)
    dg[1:-1] = (g[2:] - g[:-2]) / (2.0 * dr)
    dg[0] = (g[1] - g[0]) / (2.0 * dr)  # even reflection through the origin
    dg[-1] = (g[-1] - g[-2]) / dr
    return dg


def fisher_information(f: RadialField) -> float:
    """i(f) = 4 int |grad sqrt(f)|^2, central differences on sqrt(f).

    The root form is the only one finite and stable where f touches zero;
    vacuum cells contribute nothing.
    """
    dg = _sqrt_gradient_radial(f)
    dg[f.values <= VACUUM_THRESHOLD] = 0.0
    return float(4.0 * np.sum(f.grid.weights * dg**2))


def ellipticity_check(f: RadialField, gamma: float, a: np.ndarray) -> tuple[float, float]:
    """(min, max) over the grid of a[f](r) / <r>^{2+gamma}, a = a[f] as an array."""
    w = (1.0 + f.grid.centers**2) ** (0.5 * (2.0 + gamma))
    ratio = a / w
    return float(ratio.min()), float(ratio.max())


def h_bound_check(f: RadialField, gamma: float, h: np.ndarray) -> float:
    """sup h[f] / ( M^{1+gamma/3} ||f||_inf^{-gamma/3} ), h = h[f] as an array;
    exactly 4 pi at gamma=-3.

    M is the finite-volume mass sum_j V_j f_j, the mass the convolution
    integrates, so the ratio is at most C(gamma) (kernels._h_sup_constant)
    up to the rounding of h[f].
    """
    linf = float(f.values.max())
    if linf <= 0.0:
        raise ValueError("h_bound_check skipped for the zero field")
    mass = float(np.dot(f.grid.cell_volumes, f.values))
    denom = mass ** (1.0 + gamma / 3.0) * linf ** (-gamma / 3.0)
    return float(h.max() / denom)


# ---------------------------------------------------------------------------
# trajectory row assembly
# ---------------------------------------------------------------------------

def snapshot_row(t, f: RadialField, gamma: float, a: np.ndarray, h: np.ndarray,
                 mass_drift=0.0, boundary_budget=0.0, halvings=0) -> dict:
    """The diagnostics row of f at time t from its coefficients a = a[f] and
    h = h[f], both arrays; the series columns are 0 until finalize_rows."""
    linf = float(f.values.max())
    # the max-point monitor's inputs: Laplacian and h[f] at the argmax of f,
    # unless the argmax sits in the last two cells (boundary-affected)
    idx = int(np.argmax(f.values))
    boundary = idx >= f.grid.n_cells - 2
    lap_at_max = 0.0 if boundary else float(radial_laplacian(f).values[idx])
    row = {
        "t": float(t),
        # the finite-volume mass (exact shell volumes) is the quantity the
        # flux-form scheme conserves, so its drift is the conservation budget
        "mass": float(np.dot(f.grid.cell_volumes, f.values)),
        "energy": integrate_radial(f, 2.0),
        "entropy": entropy(f),
        "fisher": fisher_information(f),
        "l3_norm": weighted_lp_norm(f, 3.0, 0.0),
        "linf_norm": weighted_lp_norm(f, np.inf, 0.0),
        "e4": integrate_radial(f, 4.0),
        "e6": integrate_radial(f, 6.0),
        "ellipticity_ratio": ellipticity_check(f, gamma, a)[0],
        "h_bound_ratio": 0.0,
        "energy_residual": 0.0,
        "fisher_increment": 0.0,
        "linf_envelope": linf * min(float(t), 1.0) ** 0.75,
        # private bookkeeping, not emitted to CSV
        "_aff": float(np.sum(f.grid.weights * a * f.values)),
        "_mass_drift": float(mass_drift),
        "_boundary_budget": float(boundary_budget),
        "_halvings": int(halvings),
        "_sup_a": float(a.max()),
        "_argmax_boundary": boundary,
        "_lap_at_argmax": lap_at_max,
        "_h_at_argmax": float(h[idx]),
    }
    if linf > 0.0:
        # h[f] is defined for all gamma in [-3, -2] even where the reaction
        # coefficient (2+gamma) vanishes, so the bound ratio is always recorded
        row["h_bound_ratio"] = 4.0 * np.pi if gamma == -3.0 else h_bound_check(f, gamma, h)
    return row


def _rates(t: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The difference quotients of the column y against t: one-sided over
    each step (t_{k-1}, t_k], k >= 1, and centred over (t_{k-1}, t_{k+1}) at
    each interior row."""
    return np.diff(y) / np.diff(t), (y[2:] - y[:-2]) / (t[2:] - t[:-2])


def finalize_rows(traj: Trajectory, gamma: float):
    """Fill the series-dependent columns (energy residual, Fisher increment);
    the energy rate is one-sided at the end rows, and a residual stays 0
    where its rate target vanishes."""
    step, centred = _rates(traj.column("t"), traj.column("energy"))
    rate = np.concatenate([step[:1], centred, step[-1:]])
    target = ENERGY_RATE_FACTOR * (5.0 + gamma) * traj.column("_aff")
    residual = np.divide(np.abs(rate - target), target, out=np.zeros_like(target),
                         where=target > 0.0)
    fisher = traj.column("fisher")
    increment = np.diff(fisher, prepend=fisher[:1])
    for row, res, inc in zip(traj.rows, residual.tolist(), increment.tolist()):
        row["energy_residual"] = res
        row["fisher_increment"] = inc


# ---------------------------------------------------------------------------
# trajectory monitors
# ---------------------------------------------------------------------------

def _zero_run(traj: Trajectory) -> bool:
    """The zero-field rule: a run whose first row has mass 0.0 holds f = 0
    throughout, and the energy, ellipticity, h-bound, max-point and moment
    monitors have nothing to check on it."""
    return traj.rows[0]["mass"] == 0.0


def _skip(name: str) -> dict:
    """The verdict of monitor `name` when it has nothing to check."""
    return {"monitor": name, "passed": True, "skipped": True}


def _monotonicity_report(name, values):
    increments = np.diff(values)
    # relative to the previous value; from a value of 0, the increment itself
    previous = np.abs(values[:-1])
    excess = increments / np.where(previous > 0.0, previous, 1.0)
    violations = int(np.sum(excess > MONOTONE_TOL_REL))
    return {
        "monitor": name,
        "worst_relative_increment": float(excess.max()),
        "violations": violations,
        "tol": MONOTONE_TOL_REL,
        "passed": violations == 0,
    }


def fisher_monotonicity_check(traj: Trajectory, gamma: float) -> dict:
    """Flags any per-step Fisher increment above MONOTONE_TOL_REL * i(t_k)."""
    return _monotonicity_report("fisher_monotone", traj.column("fisher"))


def entropy_monotonicity_check(traj: Trajectory, gamma: float) -> dict:
    """Flags any per-step entropy increment above MONOTONE_TOL_REL * |H(t_k)|."""
    return _monotonicity_report("entropy_monotone", traj.column("entropy"))


def energy_identity_residual(traj: Trajectory, gamma: float) -> dict:
    """Worst |centered dE_2/dt - 2(5+gamma) int a f| / (2(5+gamma) int a f).

    Interior output times only (centered differences), so a run of two rows
    is skipped, as is a zero run.  Reads the residuals finalize_rows stored.
    """
    if _zero_run(traj):
        return _skip("energy_identity")
    residuals = traj.column("energy_residual")[1:-1]
    worst = float(residuals.max(initial=0.0))
    return {
        "monitor": "energy_identity",
        "worst_residual": worst,
        "count": len(residuals),
        "passed": worst <= 1e-2,
        "skipped": len(residuals) == 0,
    }


def maxpoint_growth_check(traj: Trajectory, gamma: float) -> dict:
    """At each output time: the discrete Laplacian at the argmax is <= 0 and
    the observed growth of max f is <= the reaction term there, both up to
    MAXPOINT_TOL times the run's max f.

    Boundary argmax locations are flagged and skipped.  Reads the snapshot rows.
    """
    if _zero_run(traj):
        return _skip("maxpoint_growth")
    maxima = traj.column("linf_norm")
    tol = MAXPOINT_TOL * max(maxima.max(), 1e-300)
    interior = ~traj.column("_argmax_boundary")
    lap_ok = not np.any(traj.column("_lap_at_argmax")[interior] > tol)
    rate = _rates(traj.column("t"), maxima)[0]
    h = traj.column("_h_at_argmax")[1:]
    reaction = 0.0 if 2.0 + gamma == 0.0 else -(2.0 + gamma) * h * maxima[1:]
    growth_ok = not np.any((rate > reaction + tol + 1e-12)[interior[1:]])
    return {
        "monitor": "maxpoint_growth",
        "laplacian_nonpositive_at_argmax": lap_ok,
        "growth_bounded_by_reaction": growth_ok,
        "boundary_skips": int(np.sum(~interior)),
        "passed": lap_ok and growth_ok,
    }


def moment_growth_check(traj: Trajectory, gamma: float) -> dict:
    """dE_4/dt <= 20 sup a[f] E_2 (1 + MOMENT_TOL_REL) along the run, plus
    the envelope-shape fit E_4(t) <= C (E_4(0) t + t^2) over t > 0.

    At gamma = -2, a[f] is the constant mass M and the bound is the identity
    dE_4/dt = 20 M E_2 of the heat flow; the discrete rate sits above it by
    O(dt, dr^2), so it is checked to 1e-2 relative, the criterion of the
    energy identity, on both sides, and `worst_margin` is the least
    1e-2 bound - |rate - bound| (elsewhere the least bound - rate).
    """
    if _zero_run(traj):
        return _skip("moment_growth_k4")
    t = traj.column("t")
    e4 = traj.column("e4")
    rate = _rates(t, e4)[1]
    bound = 20 * traj.column("_sup_a")[1:-1] * traj.column("energy")[1:-1]
    if gamma == -2.0:
        slack = 1e-2 * bound - np.abs(rate - bound)
        ok = not np.any(np.abs(rate - bound) > 1e-2 * bound)
    else:
        slack = bound - rate
        ok = not np.any(rate > bound * (1.0 + MOMENT_TOL_REL) + 1e-12)
    # fitted envelope constant over positive times
    mask = t > 0
    denom = e4[0] * t[mask] + t[mask] ** 2
    fitted_c = float(np.max(e4[mask] / denom))
    return {
        "monitor": "moment_growth_k4",
        "differential_bound_holds": ok,
        "worst_margin": float(slack.min(initial=np.inf)),
        "fitted_envelope_constant": fitted_c,
        "passed": ok and np.isfinite(fitted_c),
    }


def linf_envelope(traj: Trajectory, gamma: float) -> dict:
    """Record sup f(t) * min(t,1)^{3/4} (the row column) over the run.

    Report-only: no stated constant bounds the envelope, so a finite one is
    labelled "skip", not a "pass" that nothing checked.  A non-finite one
    fails."""
    bound = float(traj.column("linf_envelope").max())
    return {
        "monitor": "linf_envelope",
        "envelope_bound": bound,
        "passed": False,
        "skipped": bool(np.isfinite(bound)),
    }


#: K^2 / 4, where K^2 = 4^(2/3) / (3 pi^(4/3)) is the sharp constant of
#: ||g||_{L^6}^2 <= K^2 ||grad g||_{L^2}^2 on R^3 (Aubin-Talenti).  With g = sqrt f,
#: ||f||_{L^3} = ||g||_{L^6}^2 <= K^2 ||grad sqrt f||_{L^2}^2 = (K^2 / 4) i(f).
L3_FISHER_CONSTANT = 4.0 ** (2.0 / 3.0) / (3.0 * np.pi ** (4.0 / 3.0)) / 4.0


def l3_bound_check(traj: Trajectory, gamma: float) -> dict:
    """The paper's Sobolev route to an L^3 bound, at every output time t:

        ||f(t)||_{L^3} <= (K^2/4) i(f(t)) <= (K^2/4) i(f_in).

    The first inequality is Sobolev's, checked on the grid; the chained bound
    is what a non-increasing Fisher information gives.  `gap_ratio` is the
    worst ||f(t)||_{L^3} / ((K^2/4) i(f(t))) of the run, 0.671 for a Gaussian.
    """
    l3 = traj.column("l3_norm")
    fisher = traj.column("fisher")
    if fisher[0] <= 0.0 or l3[0] <= 0.0:
        return _skip("l3_fisher_bound")
    gap = float(np.max(l3 / (L3_FISHER_CONSTANT * fisher)))
    bound = float(L3_FISHER_CONSTANT * fisher[0])
    worst = float(l3.max())
    return {
        "monitor": "l3_fisher_bound",
        "bound": bound,
        "worst_l3": worst,
        "gap_ratio": gap,
        "passed": gap <= 1.0 and worst <= bound,
    }


def ellipticity_monitor(traj: Trajectory, gamma: float) -> dict:
    """min over the run of min_r a[f]/<r>^{2+gamma}, at least ELLIPTICITY_FLOOR."""
    if _zero_run(traj):
        return _skip("ellipticity")
    worst = float(traj.column("ellipticity_ratio").min())
    return {"monitor": "ellipticity", "run_min_ratio": worst,
            "passed": worst >= ELLIPTICITY_FLOOR}


def h_bound_monitor(traj: Trajectory, gamma: float) -> dict:
    """sup h[f]/(M^{1+g/3} ||f||_oo^{-g/3}) <= C(g) (1 + 1e-12) along the run,
    C(g) = 3^{1+g/3} (4 pi)^{-g/3} the bathtub constant; exactly 4 pi at g=-3."""
    if _zero_run(traj):
        return _skip("h_bound")
    vals = traj.column("h_bound_ratio")
    worst = float(vals.max())
    ok = worst <= _h_sup_constant(gamma) * (1.0 + 1e-12)
    if gamma == -3.0:
        ok = ok and float(np.max(np.abs(vals - 4.0 * np.pi))) <= 1e-12 * 4.0 * np.pi
    return {"monitor": "h_bound", "run_max_ratio": worst, "passed": ok}


def mass_conservation_check(traj: Trajectory, gamma: float) -> dict:
    """The worst relative mass drift of the run, at most MASS_TOL plus the
    boundary-flux budget relative to the initial mass."""
    budget = traj.rows[-1]["_boundary_budget"]
    mass0 = traj.rows[0]["mass"]
    allowed = MASS_TOL + (budget / mass0 if mass0 else 0.0)
    worst = max(abs(row["_mass_drift"]) for row in traj.rows)
    verdict = {
        "monitor": "mass_conservation",
        "worst_relative_drift": worst,
        "boundary_budget": float(budget),
        "passed": worst <= allowed,
    }
    # the run total of reaction-guard halvings, echoed only when nonzero so
    # that runs without any keep their report bytes
    halvings = sum(row["_halvings"] for row in traj.rows)
    if halvings:
        verdict["halvings"] = halvings
    return verdict


#: `[monitors]` name -> monitor, each called as monitor(trajectory, gamma);
#: config.DEFAULT_MONITORS is its keys, in this order
MONITORS = {
    "mass": mass_conservation_check,
    "fisher": fisher_monotonicity_check,
    "entropy": entropy_monotonicity_check,
    "energy": energy_identity_residual,
    "ellipticity": ellipticity_monitor,
    "hbound": h_bound_monitor,
    "maxpoint": maxpoint_growth_check,
    "moments": moment_growth_check,
    "l3bound": l3_bound_check,
    "envelope": linf_envelope,
}
