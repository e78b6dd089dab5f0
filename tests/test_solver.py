import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_banded as scipy_solve_banded

import ksflow._lapack as lapack
import ksflow.solver as solver
from ksflow.grids import RadialField, RadialGrid, gaussian_field, read_checkpoint
from ksflow.kernels import (
    KernelError,
    PowerLaw,
    SoftenedPowerLaw,
    coeff_a,
    coeff_h,
    nondivergence_rhs,
)
from ksflow.solver import (
    SolverConfig,
    SolverError,
    Stencil,
    boundary_flux_estimate,
    flux_form_rhs,
    run,
    run_semilinear,
    step,
)


def coefficients(f, cfg):
    """a[f] and h[f] values, frozen over one step."""
    return coeff_a(f, cfg.potential).values, coeff_h(f, cfg.potential).values


def heat_kernel(grid, t, sigma0=1.0, mass=1.0):
    s2 = sigma0**2 + 2.0 * mass * t
    return mass * (2 * np.pi * s2) ** -1.5 * np.exp(-0.5 * grid.centers**2 / s2)


class TestConfig:
    def test_validation(self):
        with pytest.raises(SolverError):
            SolverConfig(dt=0.0)
        with pytest.raises(SolverError):
            SolverConfig(gamma=-1.0)
        with pytest.raises(SolverError):
            SolverConfig(scheme="spectral")
        with pytest.raises(SolverError):
            SolverConfig(positivity="ignore")
        with pytest.raises(SolverError):
            SolverConfig(scheme="explicit-cartesian")


class TestFluxFormRHS:
    def test_heat_case_matches_laplacian(self):
        from ksflow.grids import radial_laplacian

        grid = RadialGrid(1024, 12.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        rhs = flux_form_rhs(grid, f.values, coeff_a(f, PowerLaw(-2.0)).values)
        lap = radial_laplacian(f)
        interior = slice(1, -2)
        err = np.max(np.abs(rhs[interior] - lap.values[interior]))
        assert err <= 5e-4 * np.max(np.abs(lap.values))

    def test_zero_field(self):
        grid = RadialGrid(64, 6.0)
        f = RadialField(grid, np.zeros(64))
        assert np.all(flux_form_rhs(grid, f.values, coeff_a(f, PowerLaw(-2.5)).values) == 0.0)

    def test_discrete_integral_telescopes(self):
        grid = RadialGrid(512, 12.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        rhs = flux_form_rhs(grid, f.values, coeff_a(f, PowerLaw(-3.0)).values)
        total = float(np.dot(grid.cell_volumes, rhs))
        scale = float(np.dot(grid.cell_volumes, np.abs(rhs)))
        assert abs(total) <= 1e-12 * scale

    @settings(deadline=None, max_examples=60)
    @given(
        data=st.data(),
        n_cells=st.integers(8, 256),
        r_max=st.floats(0.5, 20.0),
        gamma=st.floats(-3.0, -2.0),
    )
    def test_property_mass_telescopes(self, data, n_cells, r_max, gamma):
        # any non-negative profile: the flux-form divergence integrates to
        # rounding, and so does one semi-implicit step's change of mass
        grid = RadialGrid(n_cells, r_max)
        values = data.draw(hnp.arrays(np.float64, n_cells, elements=st.floats(0.0, 1.0)))
        f = RadialField(grid, values)
        rhs = flux_form_rhs(grid, values, coeff_a(f, PowerLaw(gamma)).values)
        total = float(np.dot(grid.cell_volumes, rhs))
        scale = float(np.dot(grid.cell_volumes, np.abs(rhs)))
        assert abs(total) <= 4 * n_cells * np.finfo(float).eps * scale
        cfg = SolverConfig(gamma=gamma, n_cells=n_cells, r_max=r_max, dt=1e-4,
                           t_end=1e-4)
        _, rep = step(Stencil(grid), values, *coefficients(f, cfg), cfg)
        assert abs(rep.mass_drift) <= 1e-13

    def test_boundary_flux_negligible_for_compact_data(self):
        grid = RadialGrid(512, 12.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        a = coeff_a(f, PowerLaw(-3.0))
        assert boundary_flux_estimate(grid, f.values, a.values) <= 1e-20


class TestNondivergenceRHS:
    def test_agreement_with_flux_form_under_refinement(self):
        rel = []
        for n in (256, 512):
            grid = RadialGrid(n, 12.0)
            f = gaussian_field(grid, sigma=1.0, mass=1.0)
            pot = PowerLaw(-2.5)
            fd = flux_form_rhs(grid, f.values, coeff_a(f, pot).values)
            nd = nondivergence_rhs(f, pot).values
            w = grid.cell_volumes
            rel.append(np.dot(w, np.abs(nd - fd)) / np.dot(w, np.abs(fd)))
        assert rel[1] <= rel[0] / 2.5
        assert rel[1] <= 5e-3

    def test_coulomb_reaction_sign(self):
        # gamma = -3: the reaction part -(2+gamma) h f = 4 pi f^2 >= 0
        grid = RadialGrid(512, 12.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        a = coeff_a(f, PowerLaw(-3.0))
        from ksflow.grids import radial_laplacian

        reaction = nondivergence_rhs(f, PowerLaw(-3.0)).values - a.values * radial_laplacian(f).values
        assert np.all(reaction >= -1e-15)
        assert np.allclose(reaction, 4 * np.pi * f.values**2, rtol=1e-12)

    def test_zero_field(self):
        grid = RadialGrid(64, 6.0)
        f = RadialField(grid, np.zeros(64))
        assert np.all(nondivergence_rhs(f, PowerLaw(-3.0)).values == 0.0)

    def test_softened_potential_rejected(self):
        # like coeff_a, the power law only
        f = RadialField(RadialGrid(64, 6.0), np.zeros(64))
        with pytest.raises(KernelError, match="power-law"):
            nondivergence_rhs(f, SoftenedPowerLaw(-3.0, 0.1))


class TestStep:
    def test_heat_step_against_exact_kernel(self):
        cfg = SolverConfig(gamma=-2.0, n_cells=1024, dt=1e-4, t_end=0.5,
                           output_stride=1000)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        traj = run(cfg, f0)
        exact = heat_kernel(cfg.grid(), 0.5)
        err = np.max(np.abs(traj.fields[-1].values - exact))
        assert err <= 1e-3

    def test_mass_conserved_per_step(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=1e-4, t_end=0.01,
                           output_stride=10)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        _, rep = step(Stencil(f0.grid), f0.values, *coefficients(f0, cfg), cfg)
        assert abs(rep.mass_drift) <= 1e-13

    def test_dt_to_zero_recovers_rhs(self):
        # (f' - f)/dt -> flux_form_rhs(f) at first order in dt
        grid = RadialGrid(256, 12.0)
        f0 = gaussian_field(grid, sigma=1.0, mass=1.0)
        rhs = flux_form_rhs(grid, f0.values, coeff_a(f0, PowerLaw(-3.0)).values)
        errs = []
        for dt in (4e-5, 2e-5, 1e-5):
            cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=dt, t_end=1.0)
            f1, _ = step(Stencil(grid), f0.values, *coefficients(f0, cfg), cfg)
            quotient = (f1 - f0.values) / dt
            errs.append(np.max(np.abs(quotient - rhs)))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)

    def test_reaction_guard_halves_dt(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=5e-3, t_end=1.0)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, amplitude=60.0)
        _, rep = step(Stencil(f0.grid), f0.values, *coefficients(f0, cfg), cfg)
        # dt * 4 pi * 60 = 3.8 > 0.5 requires at least 3 halvings
        assert rep.halvings >= 3
        assert rep.dt_used * 4 * np.pi * 60.0 <= 0.5 * 1.05

    def test_positivity_policies(self):
        from ksflow.solver import _apply_positivity

        deep = np.array([1.0, -1e-3, 0.5])
        with pytest.raises(SolverError, match="positivity"):
            _apply_positivity(deep.copy(), "assert", 1.0)
        clipped, clips = _apply_positivity(deep.copy(), "clip-and-log", 1.0)
        assert clips == 1 and clipped.min() == 0.0
        # roundoff-depth negatives are floored silently under either policy
        shallow = np.array([1.0, -1e-16, 0.5])
        floored, clips = _apply_positivity(shallow.copy(), "assert", 1.0)
        assert clips == 0 and floored.min() == 0.0

    def test_reaction_guard_budget_fails_instead_of_hanging(self):
        from ksflow.solver import _MAX_HALVINGS, _reaction_substeps

        # run_semilinear at dt = 1e-4 needs 8 halvings just below its 1e6 detector
        assert _reaction_substeps(1e-4, 0.999e6) == 8
        assert _reaction_substeps(1e-4, 0.5 * 2.0**_MAX_HALVINGS / 1e-4) == _MAX_HALVINGS
        with pytest.raises(SolverError, match=f"more than {_MAX_HALVINGS} halvings"):
            _reaction_substeps(1e-4, 1e20)
        cfg = SolverConfig(gamma=-3.0, n_cells=64, dt=1e-4, t_end=1.0)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, amplitude=1e20)
        with pytest.raises(SolverError, match="halvings"):
            step(Stencil(f0.grid), f0.values, *coefficients(f0, cfg), cfg)

    def test_explicit_fv_agrees_with_semi_implicit_at_small_dt(self):
        f0 = gaussian_field(RadialGrid(256, 12.0), sigma=1.0, mass=1.0)
        outs = {}
        for scheme in ("semi-implicit-fv", "explicit-fv"):
            cfg = SolverConfig(gamma=-2.5, n_cells=256, dt=1e-5, t_end=1.0,
                               scheme=scheme)
            f1, rep = step(Stencil(f0.grid), f0.values, *coefficients(f0, cfg), cfg)
            outs[scheme] = f1
            assert abs(rep.mass_drift) <= 1e-12
        diff = np.max(np.abs(outs["explicit-fv"] - outs["semi-implicit-fv"]))
        assert diff <= 1e-8 * np.max(f0.values)


class TestRun:
    def test_reference_run_all_finite(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=512, dt=1e-4, t_end=0.05,
                           output_stride=50)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        traj = run(cfg, f0)
        for row in traj.rows:
            for key, val in row.items():
                if isinstance(val, float):
                    assert np.isfinite(val), f"{key} not finite"

    def test_zero_initial_data(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=128, dt=1e-3, t_end=0.01,
                           output_stride=5)
        f0 = RadialField(cfg.grid(), np.zeros(128))
        traj = run(cfg, f0)
        for f in traj.fields:
            assert np.all(f.values == 0.0)

    def test_restart_reproduces_bit_for_bit(self, tmp_path):
        cfg = SolverConfig(gamma=-2.5, n_cells=256, dt=1e-4, t_end=0.02,
                           output_stride=100)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        ckpt = tmp_path / "mid.ckpt"
        half = SolverConfig(gamma=-2.5, n_cells=256, dt=1e-4, t_end=0.01,
                            output_stride=100)
        run(half, f0, checkpoint_path=ckpt)
        f_mid, gamma, t_mid = read_checkpoint(ckpt)
        assert gamma == -2.5 and t_mid == 0.01
        resumed = run(half, f_mid)
        full = run(cfg, f0)
        assert np.array_equal(resumed.fields[-1].values, full.fields[-1].values)

    def test_grid_mismatch_rejected(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=1e-4, t_end=0.01)
        f0 = gaussian_field(RadialGrid(128, 12.0), sigma=1.0)
        with pytest.raises(SolverError):
            run(cfg, f0)

    def test_field_on_another_r_max_rejected(self):
        f0 = gaussian_field(RadialGrid(512, 6.0), sigma=1.0)
        with pytest.raises(SolverError, match="grid does not match"):
            run(SolverConfig(gamma=-2.5), f0)

    def test_nonfinite_abort_retains_last_good_checkpoint(self, tmp_path):
        # explicit diffusion far beyond its stability limit blows up fast
        cfg = SolverConfig(gamma=-2.0, n_cells=512, dt=0.05, t_end=5.0,
                           scheme="explicit-fv", positivity="clip-and-log",
                           output_stride=1)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        ckpt = tmp_path / "last_good.ckpt"
        with pytest.raises(SolverError, match="last good state retained"):
            with np.errstate(over="ignore", invalid="ignore"):
                run(cfg, f0, checkpoint_path=ckpt)
        assert ckpt.exists()
        saved, gamma, t_saved = read_checkpoint(ckpt)
        assert np.all(np.isfinite(saved.values))
        assert gamma == -2.0 and t_saved >= 0.0


class TestRunBookkeeping:
    # every reaction-guard halving of this run falls in its first step
    HALVING = (SolverConfig(gamma=-2.5, n_cells=256, dt=1e-4, t_end=0.003,
                            output_stride=10),
               lambda g: gaussian_field(g, sigma=1.0, amplitude=3e4))
    # past its stability limit the explicit scheme clips from step 99 on
    CLIPPING = (SolverConfig(gamma=-2.5, n_cells=400, dt=1e-4, t_end=0.018,
                             output_stride=20, scheme="explicit-fv",
                             positivity="clip-and-log"),
                lambda g: RadialField(g, np.where(g.centers < 1.0, 1.0, 0.0)))

    @pytest.mark.parametrize("case, busy", [("HALVING", "halvings"), ("CLIPPING", "clips")])
    def test_rows_count_every_step_since_the_previous_row(self, case, busy, monkeypatch):
        import ksflow.solver as solver
        from ksflow.diagnostics import mass_conservation_check

        cfg, initial = getattr(self, case)
        reports = []
        step_fn = solver.step

        def recording(*args, **kwargs):
            values, report = step_fn(*args, **kwargs)
            reports.append(report)
            return values, report

        monkeypatch.setattr(solver, "step", recording)
        traj = run(cfg, initial(cfg.grid()))
        stride = cfg.output_stride
        verdict = mass_conservation_check(traj)
        for key in ("clips", "halvings"):
            per_step = [getattr(r, key) for r in reports]
            per_row = [row[f"_{key}"] for row in traj.rows]
            assert per_row[0] == 0
            assert per_row[1:] == [sum(per_step[i:i + stride])
                                   for i in range(0, len(per_step), stride)]
            assert verdict.get(key, 0) == sum(per_step)
        assert verdict[busy] > 0

    def test_quiet_runs_keep_the_mass_verdict_keys(self):
        from ksflow.diagnostics import mass_conservation_check

        cfg = SolverConfig(gamma=-3.0, n_cells=128, dt=1e-4, t_end=0.002,
                           output_stride=10)
        verdict = mass_conservation_check(run(cfg, gaussian_field(cfg.grid(), 1.0)))
        assert set(verdict) == {"monitor", "worst_relative_drift", "boundary_budget",
                                "passed"}


class TestTracedNames:
    def test_steps_solves_and_convolutions_go_through_the_traced_names(self, monkeypatch):
        # the benchmark tracer times solver.step, solve_banded as the solver
        # binds it, and kernels.radial_convolve at every binding; a per-step
        # path around them would empty the per-layer metrics
        import ksflow.kernels as kernels
        import ksflow.solver as solver

        calls = {"step": 0, "solve_banded": 0, "radial_convolve": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(solver, "step", counting("step", solver.step))
        monkeypatch.setattr(solver, "solve_banded",
                            counting("solve_banded", solver.solve_banded))
        convolve = counting("radial_convolve", kernels.radial_convolve)
        for module in (solver, kernels):
            monkeypatch.setattr(module, "radial_convolve", convolve)
        cfg = SolverConfig(gamma=-2.5, n_cells=128, dt=1e-4, t_end=0.002,
                           output_stride=10)
        run(cfg, gaussian_field(cfg.grid(), sigma=1.0, mass=1.0))
        # a[f] and h[f] once each for the initial row and after each step
        assert calls == {"step": 20, "solve_banded": 20, "radial_convolve": 2 * 21}

    def test_coulomb_coefficient_is_traced_and_builds_no_spectrum(self, monkeypatch):
        # at gamma = -3, a[f] is the mu = -1 shell sums and h[f] = 4 pi f needs
        # no convolution; kernels.apply_s must still time a[f] through the
        # solver's binding, and no FFT spectrum may be built for it
        import ksflow.kernels as kernels
        import ksflow.solver as solver

        calls = {"radial_convolve": 0}
        spectra = []
        convolve, spectrum = kernels.radial_convolve, kernels._kernel_spectrum

        def counting(*args, **kwargs):
            calls["radial_convolve"] += 1
            return convolve(*args, **kwargs)

        def recording(grid, mu):
            spectra.append(mu)
            return spectrum(grid, mu)

        monkeypatch.setattr(solver, "radial_convolve", counting)
        monkeypatch.setattr(kernels, "_kernel_spectrum", recording)
        monkeypatch.setattr(kernels, "_operator_cache", {})
        cfg = SolverConfig(gamma=-3.0, n_cells=128, dt=1e-4, t_end=0.002,
                           output_stride=10)
        run(cfg, gaussian_field(cfg.grid(), sigma=1.0, mass=1.0))
        # a[f] once for the initial row and after each of the 20 steps
        assert calls == {"radial_convolve": 21}
        assert -1.0 not in spectra
        operator = kernels.kernel_matrix(cfg.grid(), -1.0)
        assert isinstance(operator, np.ndarray) and operator.shape == (3, 128)
        assert operator.dtype == np.float64


def tridiagonal_system(n, seed, pivoting):
    """A random (3, n) band in the (1, 1) layout and a rhs: diagonally
    dominant, or, when pivoting, with |lower| > |diagonal| in the first
    column and in about half the others, so that dgtsv swaps rows there.
    (With that in every column the solutions overflow at large n.)"""
    rng = np.random.default_rng(seed)
    band = rng.uniform(-1.0, 1.0, (3, n))
    band[1] = np.copysign(rng.uniform(2.5, 3.5, n), band[1])
    if pivoting:
        swap = rng.random(n) < 0.5
        swap[0] = True
        band[2, swap] = np.copysign(rng.uniform(4.0, 5.0, swap.sum()), band[2, swap])
    return band, rng.standard_normal(n)


class TestDiffusionSolve:
    """`solve_banded` as the solver binds it, one LAPACK dgtsv call, against
    scipy.linalg.solve_banded((1, 1), ...), the solve it replaced, called
    as the solver called it."""

    @settings(deadline=None, max_examples=60)
    @given(n=st.integers(4, 4096), seed=st.integers(0, 2**32 - 1), pivoting=st.booleans())
    @example(n=4, seed=0, pivoting=True)
    @example(n=4096, seed=1, pivoting=False)
    @example(n=4096, seed=2, pivoting=True)
    def test_bit_identical_to_scipy_solve_banded(self, n, seed, pivoting):
        band, rhs = tridiagonal_system(n, seed, pivoting)
        expected = scipy_solve_banded((1, 1), band.copy(), rhs.copy(), overwrite_ab=True,
                                      overwrite_b=True, check_finite=False)
        b = rhs.copy()
        x = solver.solve_banded(band.copy(), b)
        assert x is b  # solved in place
        assert x.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("zero_row", [None, 0, 3, 7])
    def test_singular_band_raises_solver_error(self, zero_row):
        stencil = Stencil(RadialGrid(8, 1.0))
        if zero_row is not None:  # one zero row in an otherwise regular matrix
            stencil.band[:] = tridiagonal_system(8, 0, False)[0]
            stencil.band[1, zero_row] = 0.0
            if zero_row > 0:
                stencil.band[2, zero_row - 1] = 0.0
            if zero_row < 7:
                stencil.band[0, zero_row + 1] = 0.0
        # else: the band buffer of a new stencil is all zeros
        with pytest.raises(np.linalg.LinAlgError):
            scipy_solve_banded((1, 1), stencil.band, np.ones(8))
        with pytest.raises(SolverError, match="tridiagonal diffusion solve failed"):
            solver._solve_band(stencil, np.ones(8))

    @pytest.mark.parametrize("case", ["band strided", "rhs strided", "band read-only",
                                      "rhs read-only", "band float32", "rhs int64",
                                      "band Fortran order", "rhs 2-D", "rhs short",
                                      "band a list"])
    def test_bad_input_is_refused_before_the_call(self, monkeypatch, case):
        def forbidden(*args):
            raise AssertionError("dgtsv reached")

        monkeypatch.setattr(lapack, "_DGTSV", forbidden)
        band, rhs = tridiagonal_system(8, 0, False)
        which, _, defect = case.partition(" ")
        value = {"band": band, "rhs": rhs}[which]
        if defect == "strided":
            value = np.repeat(value, 2, axis=-1)[..., ::2]
        elif defect == "read-only":
            value.setflags(write=False)
        elif defect in ("float32", "int64"):
            value = value.astype(defect)
        elif defect == "Fortran order":
            value = np.asfortranarray(value)
        elif defect == "2-D":
            value = value[:, None]
        elif defect == "short":
            value = value[:-1]
        elif defect == "a list":
            value = value.tolist()
        args = {"band": band, "rhs": rhs, which: value}
        with pytest.raises((TypeError, ValueError)):
            solver.solve_banded(args["band"], args["rhs"])

    def test_unresolved_routine_fails_when_a_stencil_is_built(self, monkeypatch):
        monkeypatch.setattr(lapack, "UNRESOLVED", "no dgtsv in this LAPACK")
        with pytest.raises(SolverError, match="no dgtsv in this LAPACK"):
            Stencil(RadialGrid(8, 1.0))


class TestSemilinearHeat:
    def test_small_data_reaction_negligible(self):
        # small data follow the unit heat flow, and u^2 is second order in
        # the data: doubling the data doubles the solution up to the reaction
        grid = RadialGrid(512, 12.0)
        cfg = SolverConfig(gamma=-3.0, n_cells=512, dt=1e-4, t_end=0.05,
                           output_stride=100)
        finals = []
        for mass in (1e-6, 2e-6):
            traj, t_det = run_semilinear(cfg, gaussian_field(grid, sigma=1.0, mass=mass))
            assert t_det is None
            finals.append(traj.fields[-1].values)
        exact = 1e-6 * heat_kernel(grid, 0.05)
        assert np.max(np.abs(finals[0] - exact)) <= 1e-3 * np.max(exact)
        assert np.max(np.abs(finals[1] - 2.0 * finals[0])) <= 1e-6 * np.max(finals[1])

    def test_blowup_detector_converges_under_dt_refinement(self):
        grid = RadialGrid(512, 12.0)
        u0 = gaussian_field(grid, sigma=1.0, amplitude=50.0)
        detections = []
        for dt in (1e-4, 1e-5):
            cfg = SolverConfig(gamma=-3.0, n_cells=512, dt=dt, t_end=0.1,
                               output_stride=max(1, int(0.005 / dt)))
            _, t_det = run_semilinear(cfg, u0)
            assert t_det is not None and t_det < 0.1
            detections.append(t_det)
        assert abs(detections[0] - detections[1]) <= 0.1 * detections[1]

    def test_zero_amplitude_never_fires(self):
        grid = RadialGrid(128, 12.0)
        u0 = RadialField(grid, np.zeros(128))
        cfg = SolverConfig(gamma=-3.0, n_cells=128, dt=1e-3, t_end=0.05,
                           output_stride=10)
        traj, t_det = run_semilinear(cfg, u0)
        assert t_det is None
        assert traj.rows[-1]["max"] == 0.0
