"""Functionals of the solution and monitors for the structure theory.

Per output time a row records: mass M, energy E_2, entropy H, Fisher
information i, L^3 and L^inf norms, fourth and sixth moments, the ellipticity
ratio min_r a[f]/<r>^{2+gamma}, the reaction-bound ratio
sup h[f] / (M^{1+gamma/3} ||f||_inf^{-gamma/3}), the energy-identity residual,
the Fisher step increment and the smoothing-envelope value
sup f * min(t,1)^{3/4}.

Monitors never abort a run: each check returns a verdict dict; a failed bound
is itself the experimental result of interest.

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
    zero = f.values.max() <= 0.0
    # the max-point monitor's inputs: Laplacian and h[f] at the argmax of f,
    # unless the argmax sits in the last two cells (boundary-affected)
    idx = int(np.argmax(f.values))
    boundary = idx >= f.grid.n_cells - 2
    lap_at_max = 0.0 if zero or boundary else float(radial_laplacian(f).values[idx])
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
        "ellipticity_ratio": 0.0 if zero else ellipticity_check(f, gamma, a)[0],
        "h_bound_ratio": 0.0,
        "energy_residual": 0.0,
        "fisher_increment": 0.0,
        "linf_envelope": float(f.values.max()) * min(float(t), 1.0) ** 0.75,
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
    if not zero:
        # h[f] is defined for all gamma in [-3, -2] even where the reaction
        # coefficient (2+gamma) vanishes, so the bound ratio is always recorded
        row["h_bound_ratio"] = 4.0 * np.pi if gamma == -3.0 else h_bound_check(f, gamma, h)
    return row


def finalize_rows(traj: Trajectory, gamma: float):
    """Fill the series-dependent columns (energy residual, Fisher increment)."""
    t = np.array([row["t"] for row in traj.rows])
    e2 = np.array([row["energy"] for row in traj.rows])
    aff = np.array([row["_aff"] for row in traj.rows])
    fisher = np.array([row["fisher"] for row in traj.rows])
    n = len(t)
    for k in range(n):
        if n >= 2:
            if 0 < k < n - 1:
                rate = (e2[k + 1] - e2[k - 1]) / (t[k + 1] - t[k - 1])
            elif k == 0:
                rate = (e2[1] - e2[0]) / (t[1] - t[0])
            else:
                rate = (e2[-1] - e2[-2]) / (t[-1] - t[-2])
            target = ENERGY_RATE_FACTOR * (5.0 + gamma) * aff[k]
            if target > 0.0:
                traj.rows[k]["energy_residual"] = abs(rate - target) / target
        if k > 0:
            traj.rows[k]["fisher_increment"] = fisher[k] - fisher[k - 1]


# ---------------------------------------------------------------------------
# trajectory monitors
# ---------------------------------------------------------------------------

def _monotonicity_report(name, values, tol_rel):
    increments = np.diff(values)
    scale = np.maximum(np.abs(values[:-1]), 1e-300)
    excess = increments / scale
    worst = float(excess.max()) if len(excess) else 0.0
    violations = int(np.sum(excess > tol_rel))
    return {
        "monitor": name,
        "worst_relative_increment": worst,
        "violations": violations,
        "tol": tol_rel,
        "passed": violations == 0,
    }


def fisher_monotonicity_check(traj: Trajectory, tol_rel: float = 1e-8) -> dict:
    """Flags any per-step Fisher increment above tol_rel * i(t_k)."""
    return _monotonicity_report("fisher_monotone", traj.column("fisher"), tol_rel)


def entropy_monotonicity_check(traj: Trajectory, tol_rel: float = 1e-8) -> dict:
    """Flags any per-step entropy increment above tol_rel * |H(t_k)|."""
    return _monotonicity_report("entropy_monotone", traj.column("entropy"), tol_rel)


def energy_identity_residual(traj: Trajectory, gamma: float) -> dict:
    """Worst |centered dE_2/dt - 2(5+gamma) int a f| / (2(5+gamma) int a f).

    Interior output times only (centered differences); skipped where the rate
    target vanishes (zero field).  Reads the residuals finalize_rows stored.
    """
    residuals = [row["energy_residual"] for row in traj.rows[1:-1]
                 if ENERGY_RATE_FACTOR * (5.0 + gamma) * row["_aff"] > 0.0]
    worst = float(max(residuals)) if residuals else 0.0
    return {
        "monitor": "energy_identity",
        "worst_residual": worst,
        "count": len(residuals),
        "passed": (not residuals) or worst <= 1e-2,
        "skipped": not residuals,
    }


def maxpoint_growth_check(traj: Trajectory, gamma: float, tol: float = 1e-8) -> dict:
    """At each output time: the discrete Laplacian at the argmax is <= tol and
    the observed growth of max f is <= the reaction term there, up to tol.

    Boundary argmax locations are flagged and skipped.  Reads the snapshot rows.
    """
    t = np.array(traj.column("t"))
    lap_ok = True
    growth_ok = True
    skipped = 0
    maxima = traj.column("linf_norm")
    scale = max(maxima.max(), 1e-300)
    for k, row in enumerate(traj.rows):
        if maxima[k] <= 0.0:
            continue
        if row["_argmax_boundary"]:
            skipped += 1
            continue
        if row["_lap_at_argmax"] > tol * scale:
            lap_ok = False
        if 0 < k:
            rate = (maxima[k] - maxima[k - 1]) / (t[k] - t[k - 1])
            if 2.0 + gamma == 0.0:
                reaction = 0.0
            else:
                reaction = -(2.0 + gamma) * row["_h_at_argmax"] * maxima[k]
            if rate > reaction + tol * scale + 1e-12:
                growth_ok = False
    return {
        "monitor": "maxpoint_growth",
        "laplacian_nonpositive_at_argmax": lap_ok,
        "growth_bounded_by_reaction": growth_ok,
        "boundary_skips": skipped,
        "passed": lap_ok and growth_ok,
    }


#: k -> the row columns holding E_k and E_{k-2}
_MOMENT_COLUMNS = {4: ("e4", "energy"), 6: ("e6", "e4")}


def moment_growth_check(traj: Trajectory, gamma: float, k: int = 4,
                        tol_rel: float = 1e-6) -> dict:
    """dE_k/dt <= k(k+1) sup a[f] E_{k-2} + tol along the run, plus the
    envelope-shape fit E_k(t) <= C (E_k(0) t^{(k-2)/2} + t^{k/2}) over t > 0.

    At gamma = -2, a[f] is the constant mass M and the bound is the identity
    dE_k/dt = k(k+1) M E_{k-2} of the heat flow; the discrete rate sits above
    it by O(dt, dr^2), so it is checked to 1e-2 relative, the criterion of
    the energy identity, on both sides, and `worst_margin` is the least
    1e-2 bound - |rate - bound| (elsewhere the least bound - rate).  k is 4
    or 6, the moments the snapshot rows record.
    """
    if k not in _MOMENT_COLUMNS:
        raise ValueError(f"moment growth check expects k = 4 or 6, got {k}")
    t = np.array(traj.column("t"))
    ek = traj.column(_MOMENT_COLUMNS[k][0])
    ekm2 = traj.column(_MOMENT_COLUMNS[k][1])
    sup_a = traj.column("_sup_a")
    ok = True
    margin = np.inf
    for j in range(1, len(t) - 1):
        rate = (ek[j + 1] - ek[j - 1]) / (t[j + 1] - t[j - 1])
        bound = k * (k + 1) * sup_a[j] * ekm2[j]
        if gamma == -2.0:
            margin = min(margin, 1e-2 * bound - abs(rate - bound))
            if abs(rate - bound) > 1e-2 * bound:
                ok = False
        else:
            margin = min(margin, bound - rate)
            if rate > bound * (1.0 + tol_rel) + 1e-12:
                ok = False
    # fitted envelope constant over positive times
    mask = t > 0
    denom = ek[0] * t[mask] ** ((k - 2) / 2.0) + t[mask] ** (k / 2.0)
    fitted_c = float(np.max(ek[mask] / denom)) if mask.any() else 0.0
    return {
        "monitor": f"moment_growth_k{k}",
        "differential_bound_holds": ok,
        "worst_margin": float(margin),
        "fitted_envelope_constant": fitted_c,
        "passed": ok and np.isfinite(fitted_c),
    }


def linf_envelope(traj: Trajectory) -> dict:
    """Record sup f(t) * min(t,1)^{3/4} (the row column) over the run.

    Report-only: no stated constant bounds the envelope, so a finite one is
    labelled "skip", not a "pass" that nothing checked.  A non-finite one
    fails."""
    env = traj.column("linf_envelope")
    bound = float(env.max()) if len(env) else 0.0
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


def l3_bound_check(traj: Trajectory) -> dict:
    """The paper's Sobolev route to an L^3 bound, at every output time t:

        ||f(t)||_{L^3} <= (K^2/4) i(f(t)) <= (K^2/4) i(f_in).

    The first inequality is Sobolev's, checked on the grid; the chained bound
    is what a non-increasing Fisher information gives.  `gap_ratio` is the
    worst ||f(t)||_{L^3} / ((K^2/4) i(f(t))) of the run, 0.671 for a Gaussian.
    """
    l3 = traj.column("l3_norm")
    fisher = traj.column("fisher")
    if fisher[0] <= 0.0 or l3[0] <= 0.0:
        return {"monitor": "l3_fisher_bound", "passed": True, "skipped": True}
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


def ellipticity_monitor(traj: Trajectory, gamma: float, floor: float = 0.1) -> dict:
    """min over the run of min_r a[f]/<r>^{2+gamma}, bounded away from zero."""
    vals = traj.column("ellipticity_ratio")
    live = vals[vals > 0.0]
    if len(live) == 0:
        return {"monitor": "ellipticity", "passed": True, "skipped": True}
    worst = float(live.min())
    return {"monitor": "ellipticity", "run_min_ratio": worst, "passed": worst >= floor}


def h_bound_monitor(traj: Trajectory, gamma: float) -> dict:
    """sup h[f]/(M^{1+g/3} ||f||_oo^{-g/3}) <= C(g) (1 + 1e-12) along the run,
    C(g) = 3^{1+g/3} (4 pi)^{-g/3} the bathtub constant; exactly 4 pi at g=-3."""
    vals = traj.column("h_bound_ratio")
    live = vals[vals > 0.0]
    if len(live) == 0:
        return {"monitor": "h_bound", "passed": True, "skipped": True}
    worst = float(live.max())
    ok = worst <= _h_sup_constant(gamma) * (1.0 + 1e-12)
    if gamma == -3.0:
        ok = ok and float(np.max(np.abs(live - 4.0 * np.pi))) <= 1e-12 * 4.0 * np.pi
    return {"monitor": "h_bound", "run_max_ratio": worst, "passed": ok}


def mass_conservation_check(traj: Trajectory, tol: float = 1e-10) -> dict:
    drifts = np.array([abs(row["_mass_drift"]) for row in traj.rows])
    budget = traj.rows[-1]["_boundary_budget"]
    mass0 = traj.rows[0]["mass"]
    allowed = tol + (budget / mass0 if mass0 else 0.0)
    worst = float(drifts.max()) if len(drifts) else 0.0
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

