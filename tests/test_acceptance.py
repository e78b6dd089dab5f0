"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line.  The heavy fixtures (reference runs,
refined runs) are shared session-wide; the Monte-Carlo suites run at the full
10^6 samples, so the module takes several minutes.
"""

import time

import numpy as np
import pytest

from ksflow import diagnostics as dg
from ksflow.grids import gaussian_field
from ksflow.harness import compare_blowup
from ksflow.lifted.suites import (
    run_commutators_suite,
    run_derivatives_suite,
    run_dissipation_suite,
    run_flows_suite,
    run_frames_suite,
    run_marginal_suite,
    run_maxwell_suite,
    run_qks_pointwise_suite,
)
from ksflow.probes import PROBE_LEMMAS, probe_inequality
from ksflow.solver import SolverConfig, run
from recorded_run import run_with_states
from test_diagnostics import j2_sign_sample

MC_SAMPLES = 1_000_000


def report(criterion, passed, detail):
    flag = "PASS" if passed else "FAIL"
    print(f"[acceptance {criterion}] {flag}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def reference_config(gamma, n_cells=512, dt=1e-4):
    return SolverConfig(gamma=gamma, n_cells=n_cells, r_max=12.0, dt=dt,
                        t_end=0.5, output_stride=int(round(0.005 / dt)))


@pytest.fixture(scope="session")
def reference_run():
    cfg = reference_config(-3.0)
    f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
    t0 = time.monotonic()
    traj = run(cfg, f0)
    return traj, time.monotonic() - t0


@pytest.fixture(scope="session")
def gamma_runs():
    """Reference and refined (dr and dt halved) runs for each admissible gamma."""
    out = {}
    for gamma in (-3.0, -2.5, -2.0):
        cfg = reference_config(gamma)
        traj = run(cfg, gaussian_field(cfg.grid(), sigma=1.0, mass=1.0))
        fine = reference_config(gamma, n_cells=1024, dt=5e-5)
        traj_fine = run(fine, gaussian_field(fine.grid(), sigma=1.0, mass=1.0))
        out[gamma] = (traj, traj_fine)
    return out


class TestCriterion1:
    def test_mass_conservation(self, reference_run):
        traj, elapsed = reference_run
        rep = dg.mass_conservation_check(traj, tol=1e-10)
        ok = rep["passed"] and elapsed <= 60.0
        report(1, ok,
               f"mass drift {rep['worst_relative_drift']:.3e} "
               f"(tol 1e-10 + budget {rep['boundary_budget']:.1e}), "
               f"runtime {elapsed:.1f}s <= 60s")


class TestCriterion2:
    def test_heat_reduction_second_order(self):
        errs = {}
        for n, dt in ((1024, 1e-4), (2048, 2.5e-5)):
            cfg = SolverConfig(gamma=-2.0, n_cells=n, r_max=12.0, dt=dt,
                               t_end=0.5, output_stride=int(round(0.5 / dt)))
            grid = cfg.grid()
            _, states = run_with_states(cfg, gaussian_field(grid, sigma=1.0, mass=1.0))
            s2 = 1.0 + 2.0 * 0.5
            exact = (2 * np.pi * s2) ** -1.5 * np.exp(-0.5 * grid.centers**2 / s2)
            errs[n] = float(np.max(np.abs(states[-1].values - exact)))
        ratio = errs[1024] / errs[2048]
        ok = errs[1024] <= 1e-3 and 2.5 <= ratio <= 5.5
        report(2, ok,
               f"Linf error {errs[1024]:.3e} <= 1e-3 at n=1024; "
               f"refinement ratio {ratio:.2f} (second order, dt scaled with dr^2)")


class TestCriterion3:
    def test_energy_identity(self, reference_run):
        traj, _ = reference_run
        rep = dg.energy_identity_residual(traj, -3.0)
        worst = rep["worst_residual"]

        # first-order-in-dt structure: successive signed-residual differences
        # halve (two-resolution Richardson), measured at a fixed output time
        def signed_resid(dt):
            cfg = SolverConfig(gamma=-3.0, n_cells=512, r_max=12.0, dt=dt,
                               t_end=0.1, output_stride=int(round(0.01 / dt)))
            t = run(cfg, gaussian_field(cfg.grid(), sigma=1.0, mass=1.0))
            ts = np.array(t.column("t"))
            e2 = t.column("energy")
            aff = np.array([r["_aff"] for r in t.rows])
            k = int(np.argmin(np.abs(ts - 0.05)))
            rate = (e2[k + 1] - e2[k - 1]) / (ts[k + 1] - ts[k - 1])
            target = dg.ENERGY_RATE_FACTOR * (5.0 - 3.0) * aff[k]
            return (rate - target) / target

        r1, r2, r3 = (signed_resid(dt) for dt in (1e-3, 5e-4, 2.5e-4))
        ratio = (r1 - r2) / (r2 - r3)
        ok = worst <= 1e-2 and 1.6 <= ratio <= 2.6
        report(3, ok,
               f"worst residual {worst:.3e} <= 1e-2; "
               f"dt-halving Richardson ratio {ratio:.3f} (first order)")


class TestCriterion4:
    def test_fisher_and_entropy_monotonicity(self, gamma_runs):
        details = []
        ok = True
        for gamma, (traj, fine) in gamma_runs.items():
            for check in (dg.fisher_monotonicity_check, dg.entropy_monotonicity_check):
                rep = check(traj, tol_rel=1e-8)
                rep_fine = check(fine, tol_rel=1e-8)
                viol = max(rep["worst_relative_increment"], 0.0)
                viol_fine = max(rep_fine["worst_relative_increment"], 0.0)
                ok &= rep["passed"] and rep_fine["passed"]
                ok &= viol_fine <= max(viol, 1e-8)
                details.append(f"{check.__name__}[{gamma:g}]: "
                               f"worst {viol:.1e} -> {viol_fine:.1e}")
        report(4, ok, "; ".join(details))


class TestCriterion5:
    def test_l3_bound_from_fisher(self, gamma_runs):
        ok = True
        details = []
        for gamma, (traj, _) in gamma_runs.items():
            rep = dg.l3_bound_check(traj)
            ok &= rep["passed"]
            details.append(f"gamma {gamma:g}: worst L3 {rep['worst_l3']:.4f} "
                           f"<= {rep['bound']:.4f}, gap {rep['gap_ratio']:.4f}")
        report(5, ok, "; ".join(details))


class TestCriterion6:
    def test_pointwise_lifted_identities(self):
        t0 = time.monotonic()
        rows = (run_frames_suite(seed=0)
                + run_commutators_suite(seed=0)
                + run_qks_pointwise_suite(seed=0, gammas=(-3.0, -2.5, -1.0, 0.0)))
        elapsed = time.monotonic() - t0
        bad = [r for r in rows if r["verdict"] == "fail"]
        ok = not bad and elapsed <= 10.0
        report(6, ok, f"{len(rows)} pointwise identities <= 1e-8 rel "
                      f"(worst suites tol 1e-12); runtime {elapsed:.1f}s <= 10s"
                      + (f"; failures {bad}" if bad else ""))


class TestCriterion7:
    def test_flow_invariants(self):
        rows = run_flows_suite(seed=0)
        bad = [r for r in rows if r["verdict"] == "fail"]
        sep = next(r for r in rows if r["identity"] == "B0_separation_e4t")
        report(7, not bad,
               f"B0 separation error {sep['lhs']:.2e} (RK4); "
               f"sphere drifts <= 1e-10" + (f"; failures {bad}" if bad else ""))


class TestCriterion8:
    def test_maxwell_suite(self):
        rows = run_maxwell_suite(seed=0, n_samples=MC_SAMPLES)
        bad = [r for r in rows if r["verdict"] == "fail"]
        noisy = [
            r for r in rows
            if r["verdict"] == "pass" and r["stderr"] > 0
            and "pairing" in r["identity"]
            and r["stderr"] > 0.01 * max(abs(r["lhs"]), abs(r["rhs"]))
        ]
        ok = not bad and not noisy
        report(8, ok, f"{len(rows)} checks at 1e6 samples, stderr <= 1% "
                      f"of magnitude" + (f"; failures {bad + noisy}" if not ok else ""))


class TestCriterion9:
    def test_derivative_suite(self):
        rows = run_derivatives_suite(seed=0, n_samples=MC_SAMPLES)
        bad = [r for r in rows if r["verdict"] == "fail"]
        roots = [r for r in rows if r["identity"].startswith("root_")]
        ok = not bad and all(r["lhs"] <= 1e-12 for r in roots)
        report(9, ok, f"{len(rows)} identity checks across gamma grid at 1e6 "
                      f"samples; window-edge roots <= 1e-12"
                      + (f"; failures {bad}" if bad else ""))


class TestCriterion10:
    def test_dissipation_sign(self):
        rows = run_dissipation_suite(seed=0, n_samples=MC_SAMPLES)
        bad = [r for r in rows if r["verdict"] == "fail"]
        signs = [r for r in rows if "qks_pairing_nonpositive" in r["identity"]]
        ok = not bad and all(r["verdict"] == "pass" for r in signs)
        report(10, ok, f"<I'(F), Q(F)> <= 3 stderr for {len(signs)} "
                       f"(mixture, gamma) pairs; intermediate bounds hold"
                       + (f"; failures {bad}" if bad else ""))


class TestCriterion11:
    def test_marginal_consistency(self):
        rows = run_marginal_suite(seed=0, n_samples=MC_SAMPLES)
        bad = [r for r in rows if r["verdict"] == "fail"]
        report(11, not bad,
               f"marginal of the lifted operator matches a[f] Lap f "
               f"-(2+g) h[f] f to 1e-3; tensor Fisher identity within 3 stderr"
               + (f"; failures {bad}" if bad else ""))


class TestCriterion12:
    def test_moment_machinery(self, reference_run):
        traj, _ = reference_run
        worst_j2 = j2_sign_sample(n=1_000_000, seed=0)
        rep = dg.moment_growth_check(traj, -3.0, k=4)
        ok = (worst_j2 >= -1e-12 and rep["differential_bound_holds"]
              and np.isfinite(rep["fitted_envelope_constant"]))
        report(12, ok,
               f"J2 sample min {worst_j2:.2e} >= -1e-12; dE4/dt <= 20 sup(a) E2 "
               f"(margin {rep['worst_margin']:.3f}); fitted envelope constant "
               f"{rep['fitted_envelope_constant']:.3g}")


class TestCriterion13:
    def test_blowup_contrast(self):
        result = compare_blowup(50.0, sigma=1.0, horizon=0.1,
                                dt_list=(1e-4, 1e-5))
        ok = (result["semilinear_blew_up"]
              and result["detector_converged"]
              and all(t is not None and t < 0.1 for t in result["detector_times"])
              and result["ks_bounded"]
              and result["ks_mass_drift"] <= 1e-10)
        report(13, ok,
               f"semilinear detector at {result['detector_times']} (< 0.1, "
               f"within 10%); Landau twin max ratio "
               f"{result['ks_max_ratio']:.3f} <= 2; mass drift "
               f"{result['ks_mass_drift']:.1e}")


class TestCriterion14:
    def test_appendix_probes(self):
        ok = True
        details = []
        for stats in probe_inequality(PROBE_LEMMAS, None, family_seed=0,
                                      n_members=64).stats:
            ok &= stats.passed
            details.append(f"{stats.lemma}: max ratio {stats.max_ratio:.3g}, "
                           f"scaling dev {stats.scaling_deviation:.2e}")
        report(14, ok, "; ".join(details))
