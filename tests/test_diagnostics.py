import copy
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ksflow.config import DEFAULT_MONITORS, load_config
from ksflow.grids import RadialField, RadialGrid, gaussian_field, weighted_lp_norm
from ksflow.harness import _MONITOR_DISPATCH, initial_field
from ksflow.kernels import _h_sup_constant, h_values, radial_convolve
from ksflow.report import all_passed
from ksflow.solver import SolverConfig, run
from ksflow import diagnostics as dg
from recorded_run import run_with_states

GRID = RadialGrid(2048, 12.0)


def ellipticity(f, gamma):
    """dg.ellipticity_check of f under its own a[f]."""
    return dg.ellipticity_check(f, gamma, radial_convolve(f.grid, f.values, 2.0 + gamma))


def h_bound(f, gamma):
    """dg.h_bound_check of f under its own h[f]."""
    return dg.h_bound_check(f, gamma, h_values(f.grid, f.values, gamma))


def fisher_convexity_gap(f, g, theta):
    """theta i(f) + (1-theta) i(g) - i(theta f + (1-theta) g), nonnegative."""
    mix = RadialField(f.grid, theta * f.values + (1.0 - theta) * g.values)
    return (
        theta * dg.fisher_information(f)
        + (1.0 - theta) * dg.fisher_information(g)
        - dg.fisher_information(mix)
    )


def l3_fisher_ratio(f):
    """4 ||f||_{L^3} / i(f); bounded by the H^1 -> L^6 Sobolev constant.

    With ||f||_{L^3} = ||sqrt f||^2_{L^6} and i = 4 ||grad sqrt f||^2_{L^2},
    the ratio is dilation invariant; dg.l3_bound_check rests on it.
    """
    return 4.0 * weighted_lp_norm(f, 3.0, 0.0) / dg.fisher_information(f)


def j2_sign_sample(n: int = 1_000_000, seed: int = 0,
                   exponents=(4, 6, 8)) -> float:
    """Minimum of (|v|^{k-2} v - |w|^{k-2} w) . (v - w) over random triples.

    Convexity of z -> |z|^k / k makes every sample nonnegative up to roundoff.
    """
    rng = np.random.default_rng(seed)
    worst = np.inf
    per = n // len(exponents)
    for k in exponents:
        v = rng.normal(size=(per, 3))
        w = rng.normal(size=(per, 3))
        av = np.linalg.norm(v, axis=1) ** (k - 2)
        aw = np.linalg.norm(w, axis=1) ** (k - 2)
        dots = np.sum((av[:, None] * v - aw[:, None] * w) * (v - w), axis=1)
        worst = min(worst, float(dots.min()))
    return worst


def gaussian_entropy_oracle(sigma=1.0):
    """1D quadrature of int f log f for the unit-mass Gaussian."""
    r = np.linspace(0, 14 * sigma, 400_001)
    f = (2 * np.pi * sigma**2) ** -1.5 * np.exp(-0.5 * (r / sigma) ** 2)
    return 4 * np.pi * np.trapezoid(r**2 * f * np.log(np.maximum(f, 1e-300)), r)


def gaussian_fisher_oracle(sigma=1.0):
    """1D quadrature of int |f'|^2 / f for the unit-mass Gaussian."""
    r = np.linspace(1e-9, 14 * sigma, 400_001)
    f = (2 * np.pi * sigma**2) ** -1.5 * np.exp(-0.5 * (r / sigma) ** 2)
    fp = -r / sigma**2 * f
    return 4 * np.pi * np.trapezoid(r**2 * fp**2 / f, r)


class TestEntropy:
    def test_gaussian_closed_form(self):
        oracle = gaussian_entropy_oracle()
        closed = -1.5 * np.log(2 * np.pi) - 1.5
        assert abs(oracle - closed) <= 1e-8
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        assert abs(dg.entropy(f) - closed) <= 1e-5

    def test_uniform_ball(self):
        grid = RadialGrid(4800, 12.0)
        c = 3.0 / (4.0 * np.pi)
        vals = np.where(grid.centers <= 1.0, c, 0.0)
        f = RadialField(grid, vals)
        assert abs(dg.entropy(f) - np.log(c)) <= 1e-3

    def test_zero_field(self):
        f = RadialField(GRID, np.zeros(GRID.n_cells))
        assert dg.entropy(f) == 0.0


class TestFisherInformation:
    def test_gaussian_value(self):
        oracle = gaussian_fisher_oracle(sigma=1.0)
        assert abs(oracle - 3.0) <= 1e-6
        for sigma in (1.0, 2.0):
            f = gaussian_field(RadialGrid(2048, 12.0 * sigma), sigma=sigma, mass=1.0)
            assert abs(dg.fisher_information(f) - 3.0 / sigma**2) <= 2e-4 * 3 / sigma**2

    def test_scaling_law(self):
        # f_lam(v) = lam^3 f(lam v): i scales as lam^2 (same grid profile trick)
        lam = 2.0
        base = gaussian_field(RadialGrid(2048, 12.0), sigma=1.0, mass=1.0)
        scaled_grid = RadialGrid(2048, 12.0 / lam)
        scaled = RadialField(scaled_grid, lam**3 * base.values)
        i0 = dg.fisher_information(base)
        i1 = dg.fisher_information(scaled)
        assert abs(i1 - lam**2 * i0) <= 1e-6 * i1

    def test_constant_interior_contribution_zero(self):
        grid = RadialGrid(256, 4.0)
        f = RadialField(grid, np.full(256, 2.0))
        assert dg.fisher_information(f) <= 1e-20

    def test_convexity_along_interpolations(self):
        rng = np.random.default_rng(9)
        grid = RadialGrid(512, 12.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        g = gaussian_field(grid, sigma=1.7, mass=1.0)
        for theta in rng.uniform(0.05, 0.95, 8):
            assert fisher_convexity_gap(f, g, float(theta)) >= -1e-12


class TestRatios:
    def test_l3_fisher_ratio_gaussian(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        # ||f||_L3 = (2 pi)^{-1} 3^{-1/2} by the quadrature oracle; i = 3
        l3_exact = (2 * np.pi) ** -1.0 / np.sqrt(3.0)
        expect = 4.0 * l3_exact / 3.0
        assert abs(l3_fisher_ratio(f) - expect) <= 1e-3 * expect

    def test_l3_fisher_ratio_dilation_invariant(self):
        lam = 2.0
        base = gaussian_field(RadialGrid(2048, 12.0), sigma=1.0, mass=1.0)
        scaled = RadialField(RadialGrid(2048, 12.0 / lam), lam**3 * base.values)
        assert l3_fisher_ratio(base) == pytest.approx(
            l3_fisher_ratio(scaled), rel=1e-6
        )

    def test_ellipticity_gaussian_coulomb(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        rmin, rmax = ellipticity(f, -3.0)
        assert rmin > 0.5
        assert np.isfinite(rmax)

    def test_ellipticity_heat_case_identity(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        rmin, rmax = ellipticity(f, -2.0)
        assert rmin == pytest.approx(1.0, abs=1e-6)
        assert rmax == pytest.approx(1.0, abs=1e-6)

    def test_ellipticity_linearity_in_mass(self):
        f1 = gaussian_field(GRID, sigma=1.0, mass=1.0)
        f2 = gaussian_field(GRID, sigma=1.0, mass=2.0)
        r1 = ellipticity(f1, -2.5)
        r2 = ellipticity(f2, -2.5)
        assert r2[0] == pytest.approx(2 * r1[0], rel=1e-12)

    def test_h_bound_exact_4pi_in_coulomb_case(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        assert h_bound(f, -3.0) == pytest.approx(4 * np.pi, rel=1e-12)

    def test_h_bound_ratio_of_a_spike_is_below_the_bathtub_constant(self):
        # with the midpoint mass instead of the finite-volume mass the
        # convolution integrates, a unit spike in cell 0 read 1.0032 C
        spike = np.zeros(GRID.n_cells)
        spike[0] = 1.0
        ratio = h_bound(RadialField(GRID, spike), -2.01)
        assert 0.9 * _h_sup_constant(-2.01) < ratio <= _h_sup_constant(-2.01)

    def test_h_bound_scale_invariance(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        g = RadialField(GRID, 3.0 * f.values)
        a = h_bound(f, -2.5)
        b = h_bound(g, -2.5)
        assert a == pytest.approx(b, rel=1e-10)
        # and stability under dilation of the profile
        wide = gaussian_field(GRID, sigma=1.5, mass=1.0)
        c = h_bound(wide, -2.5)
        assert 0.2 * a < c < 5 * a


@pytest.fixture(scope="module")
def heat_traj():
    cfg = SolverConfig(gamma=-2.0, n_cells=512, dt=1e-4, t_end=0.2,
                       output_stride=200)
    f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
    return run(cfg, f0)


class TestTrajectoryMonitors:
    def test_heat_fisher_closed_form(self, heat_traj):
        t = np.array(heat_traj.column("t"))
        fisher = heat_traj.column("fisher")
        exact = 3.0 / (1.0 + 2.0 * t)
        assert np.max(np.abs(fisher - exact) / exact) <= 1e-3

    def test_heat_monotonicity(self, heat_traj):
        assert dg.fisher_monotonicity_check(heat_traj)["passed"]
        assert dg.entropy_monotonicity_check(heat_traj)["passed"]

    def test_heat_energy_identity(self, heat_traj):
        # gamma = -2, unit mass: rate target 2*(5-2)*1 = 6 = dE2/dt exactly
        rep = dg.energy_identity_residual(heat_traj, -2.0)
        assert rep["worst_residual"] <= 1e-3
        e2 = heat_traj.column("energy")
        t = np.array(heat_traj.column("t"))
        slope = (e2[-1] - e2[0]) / (t[-1] - t[0])
        assert slope == pytest.approx(6.0, rel=1e-3)

    def test_run_level_ratio_monitors(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=1e-4, t_end=0.01,
                           output_stride=20)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        traj = run(cfg, f0)
        ell = dg.ellipticity_monitor(traj, -3.0)
        assert ell["passed"] and ell["run_min_ratio"] > 0.5
        hb = dg.h_bound_monitor(traj, -3.0)
        assert hb["passed"]  # includes the exact-4pi identity at gamma = -3

    def test_heat_maxpoint_and_envelope(self, heat_traj):
        rep = dg.maxpoint_growth_check(heat_traj, -2.0)
        assert rep["passed"]
        linf = heat_traj.column("linf_norm")
        assert np.all(np.diff(linf) < 0)
        env = dg.linf_envelope(heat_traj)
        assert env["skipped"] and not env["passed"]  # report-only
        assert 0.0 < env["envelope_bound"] < np.inf

    def test_constant_zero_run_monitors(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=128, dt=1e-3, t_end=0.01,
                           output_stride=5)
        f0 = RadialField(cfg.grid(), np.zeros(128))
        traj = run(cfg, f0)
        assert dg.fisher_monotonicity_check(traj)["worst_relative_increment"] == 0.0
        assert dg.energy_identity_residual(traj, -3.0)["skipped"]
        assert dg.l3_bound_check(traj)["skipped"]

    def test_rows_carry_the_maxpoint_and_moment_inputs(self):
        from ksflow.grids import radial_laplacian

        cfg = SolverConfig(gamma=-2.5, n_cells=256, dt=1e-4, t_end=0.01,
                           output_stride=20)
        traj, states = run_with_states(cfg, gaussian_field(cfg.grid(), sigma=1.0, mass=1.0))
        for f, row in zip(states, traj.rows, strict=True):
            idx = int(np.argmax(f.values))
            assert not row["_argmax_boundary"]
            assert row["_sup_a"] == radial_convolve(f.grid, f.values, -0.5).max()
            assert row["_h_at_argmax"] == h_values(f.grid, f.values, -2.5)[idx]
            assert row["_lap_at_argmax"] == radial_laplacian(f).values[idx]
        assert dg.maxpoint_growth_check(traj, -2.5)["passed"]
        assert dg.moment_growth_check(traj, -2.5, k=6)["monitor"] == "moment_growth_k6"
        with pytest.raises(ValueError, match="k = 4 or 6"):
            dg.moment_growth_check(traj, -2.5, k=8)

    def test_moment_growth_zero_field(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=128, dt=1e-3, t_end=0.01,
                           output_stride=5)
        f0 = RadialField(cfg.grid(), np.zeros(128))
        traj = run(cfg, f0)
        rep = dg.moment_growth_check(traj, -3.0, k=4)
        assert rep["differential_bound_holds"]


class TestSampledFacts:
    def test_j2_sign(self):
        worst = j2_sign_sample(n=300_000, seed=3)
        assert worst >= -1e-12

    def test_mass_column_is_the_conserved_quantity(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=1e-4, t_end=0.01,
                           output_stride=20)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        traj = run(cfg, f0)
        mass = traj.column("mass")
        assert np.max(np.abs(mass - mass[0])) <= 1e-13 * mass[0]

    def test_functionals_stable_under_grid_refinement(self):
        vals = {}
        for n in (1024, 2048):
            f = gaussian_field(RadialGrid(n, 12.0), sigma=1.0, mass=1.0)
            vals[n] = (dg.fisher_information(f), dg.entropy(f))
        for a, b in zip(vals[1024], vals[2048]):
            assert abs(a - b) <= 4e-4 * abs(b)  # O(dr^2) agreement

    def test_row_columns_complete(self):
        cfg = SolverConfig(gamma=-2.5, n_cells=256, dt=1e-4, t_end=0.01,
                           output_stride=50)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        traj = run(cfg, f0)
        for row in traj.rows:
            for col in dg.ROW_COLUMNS:
                assert col in row
                assert np.isfinite(row[col])


# ---------------------------------------------------------------------------
# mutation table: every monitor below fails on one planted defect
# ---------------------------------------------------------------------------

COMMITTED_CONFIGS = ("configs/reference.cfg", "perfbench/flow-wide.cfg")


def _plant_mass_drift(rows):
    rows[len(rows) // 2]["_mass_drift"] = 1e-8


def _plant_fisher_increment(rows):
    rows[-1]["fisher"] = rows[-2]["fisher"] * (1.0 + 1e-6)


def _plant_entropy_increment(rows):
    rows[-1]["entropy"] = rows[-2]["entropy"] + 1e-6 * abs(rows[-2]["entropy"])


def _plant_l3_above_sobolev(rows):
    rows[-1]["l3_norm"] = 1.001 * dg.L3_FISHER_CONSTANT * rows[-1]["fisher"]


def _plant_energy_residual(rows):
    rows[len(rows) // 2]["energy_residual"] = 2e-2


def _plant_laplacian_at_argmax(rows):
    row = rows[len(rows) // 2]
    assert not row["_argmax_boundary"]
    row["_lap_at_argmax"] = 1e-6 * row["linf_norm"]


def _plant_e4_jump(rows):
    # dE_4/dt at the middle row twice the bound 4 * 5 * sup a[f] * E_2
    j = len(rows) // 2
    bound = 20.0 * rows[j]["_sup_a"] * rows[j]["energy"]
    span = rows[j + 1]["t"] - rows[j - 1]["t"]
    rows[j + 1]["e4"] = rows[j - 1]["e4"] + 2.0 * bound * span


def _plant_e4_off_heat_identity(rows, offset):
    # at gamma = -2 the moment bound is the identity dE_4/dt = 20 M E_2;
    # shifting E_4 from the row after the middle on moves the centred rates
    # of the middle row and the next by `offset` of it, and no other rate
    j = len(rows) // 2
    bound = 20.0 * rows[j]["_sup_a"] * rows[j]["energy"]
    shift = offset * bound * (rows[j + 1]["t"] - rows[j - 1]["t"])
    for row in rows[j + 1:]:
        row["e4"] += shift


def _plant_ellipticity_below_floor(rows):
    # the monitor's floor is 0.1; a ratio of 0 means a zero field and is skipped
    rows[len(rows) // 2]["ellipticity_ratio"] = 0.05


def _plant_hbound_off_4pi(rows):
    # at gamma = -3 the ratio is exactly 4 pi, checked to 1e-12 relative
    rows[len(rows) // 2]["h_bound_ratio"] = 4.0 * np.pi * (1.0 + 1e-9)


def _plant_hbound_above_bathtub(rows):
    # at gamma != -3 the ratio is bounded by the bathtub constant C(gamma)
    rows[len(rows) // 2]["h_bound_ratio"] = 1.001 * _h_sup_constant(-2.5)


def _plant_nonfinite_envelope(rows):
    # the report-only envelope still fails when sup f(t) min(t, 1)^{3/4} is
    # not finite
    rows[len(rows) // 2]["linf_envelope"] = np.inf


#: `[monitors]` name -> the defect that monitor must fail on
MUTATIONS = {
    "mass": _plant_mass_drift,
    "fisher": _plant_fisher_increment,
    "entropy": _plant_entropy_increment,
    "energy": _plant_energy_residual,
    "maxpoint": _plant_laplacian_at_argmax,
    "moments": _plant_e4_jump,
    "l3bound": _plant_l3_above_sobolev,
    "ellipticity": _plant_ellipticity_below_floor,
    "hbound": _plant_hbound_off_4pi,
    "envelope": _plant_nonfinite_envelope,
}


def test_every_monitor_has_a_planted_defect():
    assert set(MUTATIONS) == set(DEFAULT_MONITORS)


def test_hbound_fails_above_the_bathtub_constant_off_coulomb():
    # the second hbound row of the mutation table, on a gamma = -2.5 run
    cfg = SolverConfig(gamma=-2.5, n_cells=128, dt=1e-3, t_end=0.02, output_stride=5)
    traj = run(cfg, gaussian_field(cfg.grid(), sigma=1.0, mass=1.0))
    check = _MONITOR_DISPATCH["hbound"]
    assert check(traj, -2.5)["passed"]
    _plant_hbound_above_bathtub(traj.rows)
    assert not check(traj, -2.5)["passed"]


def test_moments_check_the_heat_identity_on_both_sides():
    # configs/reference.cfg at gamma = -2 to t = 0.1: a[f] is the constant
    # mass, and the discrete rate exceeds the identity by about 2e-4 relative
    cfg = load_config(Path(__file__).parents[1] / "configs/reference.cfg")
    clean = run(replace(cfg.solver, gamma=-2.0, t_end=0.1), initial_field(cfg))
    check = _MONITOR_DISPATCH["moments"]
    verdict = check(clean, -2.0)
    # the margin is two-sided too: 1e-2 bound - |rate - bound| at its least
    assert verdict["passed"] and verdict["worst_margin"] >= 0.0
    for offset in (2e-2, -2e-2):
        traj = copy.deepcopy(clean)
        _plant_e4_off_heat_identity(traj.rows, offset)
        verdict = check(traj, -2.0)
        assert not verdict["passed"] and verdict["worst_margin"] < 0.0, offset


@pytest.fixture(scope="module")
def committed_runs():
    """(gamma, trajectory) of each committed config."""
    root = Path(__file__).parents[1]
    runs = []
    for path in COMMITTED_CONFIGS:
        cfg = load_config(root / path)
        runs.append((cfg.solver.gamma, run(cfg.solver, initial_field(cfg))))
    return runs


@pytest.mark.parametrize("monitor", list(MUTATIONS))
def test_monitor_fails_on_its_planted_defect(monitor, committed_runs):
    # a verdict is clean when its report line reads pass or skip, not fail
    check = _MONITOR_DISPATCH[monitor]
    for gamma, traj in committed_runs:
        assert all_passed([check(traj, gamma)])
    cfg = SolverConfig(gamma=-3.0, n_cells=128, dt=1e-3, t_end=0.02, output_stride=5)
    traj = run(cfg, gaussian_field(cfg.grid(), sigma=1.0, mass=1.0))
    assert all_passed([check(traj, -3.0)])
    MUTATIONS[monitor](traj.rows)
    assert not all_passed([check(traj, -3.0)])
