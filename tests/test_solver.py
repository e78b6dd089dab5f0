import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_banded as scipy_solve_banded

import ksflow._lapack as lapack
import ksflow.solver as solver
from ksflow import diagnostics
from ksflow.config import gaussian_vanishes
from ksflow.grids import RadialField, RadialGrid, gaussian_field
from ksflow.kernels import (
    KernelError,
    PowerLaw,
    SoftenedPowerLaw,
    _h_sup_bound,
    h_values,
    nondivergence_rhs,
    radial_convolve,
)
from ksflow.solver import (
    SolverConfig,
    SolverError,
    Stencil,
    boundary_flux_estimate,
    run,
    run_semilinear,
    step,
)

import test_step_oracle as step_oracle
from checkpoint_reader import read_checkpoint
from recorded_run import run_with_states
from test_step_oracle import NAN_STEP, _flux_form_rhs, a_field, nan_at_call, oracle_run


def step_once(f, cfg):
    """One step of f under its own a[f] and max h[f], frozen over the step."""
    a = radial_convolve(f.grid, f.values, 2.0 + cfg.gamma)
    h_max = h_values(f.grid, f.values, cfg.gamma).max()
    return step(Stencil(f.grid), f.values, a, h_max, cfg,
                float(np.dot(f.grid.cell_volumes, f.values)))


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
        rhs = _flux_form_rhs(f, a_field(f, -2.0)).values
        lap = radial_laplacian(f)
        interior = slice(1, -2)
        err = np.max(np.abs(rhs[interior] - lap.values[interior]))
        assert err <= 5e-4 * np.max(np.abs(lap.values))

    def test_zero_field(self):
        grid = RadialGrid(64, 6.0)
        f = RadialField(grid, np.zeros(64))
        assert np.all(_flux_form_rhs(f, a_field(f, -2.5)).values == 0.0)

    def test_discrete_integral_telescopes(self):
        grid = RadialGrid(512, 12.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        rhs = _flux_form_rhs(f, a_field(f, -3.0)).values
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
        rhs = _flux_form_rhs(f, a_field(f, gamma)).values
        total = float(np.dot(grid.cell_volumes, rhs))
        scale = float(np.dot(grid.cell_volumes, np.abs(rhs)))
        assert abs(total) <= 4 * n_cells * np.finfo(float).eps * scale
        cfg = SolverConfig(gamma=gamma, n_cells=n_cells, r_max=r_max, dt=1e-4,
                           t_end=1e-4)
        _, rep = step_once(f, cfg)
        assert abs(rep.mass_drift) <= 1e-13

    def test_boundary_flux_negligible_for_compact_data(self):
        grid = RadialGrid(512, 12.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        a = a_field(f, -3.0)
        assert boundary_flux_estimate(grid, f.values, a.values) <= 1e-20

    def test_geometry_from_the_grid_where_n_dr_is_not_r_max(self):
        # n * (r_max / n) != r_max here, so the outer face sits at n * dr
        # and the boundary flux crosses the grid's last face area
        grid = RadialGrid(1691, 27.55531694416758)
        assert grid.faces[-1] != grid.r_max
        f = gaussian_field(grid, sigma=3.0, mass=1.0)
        a = radial_convolve(grid, f.values, -0.5)
        v, dr = f.values, grid.dr
        per_area = a[-1] * (0.0 - v[-1]) / dr - 0.5 * v[-1] * (a[-1] - a[-2]) / dr
        assert boundary_flux_estimate(grid, v, a) == abs(grid.face_areas[-1] * per_area)
        # the vanishing rule evaluates the first center, as gaussian_field does
        for size in ({"mass": 1.0}, {"amplitude": 1.0}):
            for sigma in np.linspace(1.9e-4, 2.3e-4, 41):
                field = gaussian_field(grid, sigma=float(sigma), **size)
                assert gaussian_vanishes(grid, float(sigma), **size) == (
                    field.values.max() == 0.0)


class TestNondivergenceRHS:
    def test_agreement_with_flux_form_under_refinement(self):
        rel = []
        for n in (256, 512):
            grid = RadialGrid(n, 12.0)
            f = gaussian_field(grid, sigma=1.0, mass=1.0)
            pot = PowerLaw(-2.5)
            fd = _flux_form_rhs(f, a_field(f, pot.gamma)).values
            nd = nondivergence_rhs(f, pot).values
            w = grid.cell_volumes
            rel.append(np.dot(w, np.abs(nd - fd)) / np.dot(w, np.abs(fd)))
        assert rel[1] <= rel[0] / 2.5
        assert rel[1] <= 5e-3

    def test_coulomb_reaction_sign(self):
        # gamma = -3: the reaction part -(2+gamma) h f = 4 pi f^2 >= 0
        grid = RadialGrid(512, 12.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        a = a_field(f, -3.0)
        from ksflow.grids import radial_laplacian

        reaction = nondivergence_rhs(f, PowerLaw(-3.0)).values - a.values * radial_laplacian(f).values
        assert np.all(reaction >= -1e-15)
        assert np.allclose(reaction, 4 * np.pi * f.values**2, rtol=1e-12)

    def test_zero_field(self):
        grid = RadialGrid(64, 6.0)
        f = RadialField(grid, np.zeros(64))
        assert np.all(nondivergence_rhs(f, PowerLaw(-3.0)).values == 0.0)

    def test_softened_potential_rejected(self):
        # the power law only
        f = RadialField(RadialGrid(64, 6.0), np.zeros(64))
        with pytest.raises(KernelError, match="power-law"):
            nondivergence_rhs(f, SoftenedPowerLaw(-3.0, 0.1))


class TestStep:
    def test_heat_step_against_exact_kernel(self):
        cfg = SolverConfig(gamma=-2.0, n_cells=1024, dt=1e-4, t_end=0.5,
                           output_stride=1000)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        _, states = run_with_states(cfg, f0)
        exact = heat_kernel(cfg.grid(), 0.5)
        err = np.max(np.abs(states[-1].values - exact))
        assert err <= 1e-3

    def test_mass_conserved_per_step(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=1e-4, t_end=0.01,
                           output_stride=10)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        _, rep = step_once(f0, cfg)
        assert abs(rep.mass_drift) <= 1e-13

    def test_dt_to_zero_recovers_rhs(self):
        # (f' - f)/dt -> the flux-form divergence of f at first order in dt
        grid = RadialGrid(256, 12.0)
        f0 = gaussian_field(grid, sigma=1.0, mass=1.0)
        rhs = _flux_form_rhs(f0, a_field(f0, -3.0)).values
        errs = []
        for dt in (4e-5, 2e-5, 1e-5):
            cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=dt, t_end=1.0)
            f1, _ = step_once(f0, cfg)
            quotient = (f1 - f0.values) / dt
            errs.append(np.max(np.abs(quotient - rhs)))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)

    def test_reaction_guard_halves_dt(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=5e-3, t_end=1.0)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, amplitude=60.0)
        _, rep = step_once(f0, cfg)
        # dt * 4 pi * 60 = 3.8 > 0.5 requires at least 3 halvings
        assert rep.halvings >= 3
        assert cfg.dt / 2**rep.halvings * 4 * np.pi * 60.0 <= 0.5 * 1.05

    def test_positivity_policies(self):
        from ksflow.solver import _apply_positivity

        deep = np.array([1.0, -1e-3, 0.5])
        with pytest.raises(SolverError, match="positivity"):
            _apply_positivity(deep.copy(), 1.0)
        # roundoff-depth negatives are floored silently
        shallow = np.array([1.0, -1e-16, 0.5])
        assert _apply_positivity(shallow.copy(), 1.0).min() == 0.0

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
            step_once(f0, cfg)


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
        traj, states = run_with_states(cfg, f0)
        assert len(states) == len(traj.rows) == 3
        for f in states:
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
        _, resumed = run_with_states(half, f_mid)
        _, full = run_with_states(cfg, f0)
        assert np.array_equal(resumed[-1].values, full[-1].values)

    def test_memory_grows_by_the_rows_not_the_states(self):
        # each output row may add its diagnostics, never its 32 KiB state
        cfg = SolverConfig(gamma=-3.0, n_cells=4096, dt=1e-4, t_end=5e-3,
                           output_stride=1)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        run(cfg, f0)  # warm-up: the grid's cached arrays and first-call costs

        def peak(n_steps):
            tracemalloc.start()
            try:
                traj = run(replace(cfg, t_end=n_steps * cfg.dt), f0)
                assert len(traj.rows) == n_steps + 1
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        per_row = (peak(200) - peak(50)) / 150
        assert per_row < f0.values.nbytes / 4

    def test_grid_mismatch_rejected(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=1e-4, t_end=0.01)
        f0 = gaussian_field(RadialGrid(128, 12.0), sigma=1.0)
        with pytest.raises(SolverError):
            run(cfg, f0)

    def test_field_on_another_r_max_rejected(self):
        f0 = gaussian_field(RadialGrid(512, 6.0), sigma=1.0)
        with pytest.raises(SolverError, match="grid does not match"):
            run(SolverConfig(gamma=-2.5), f0)

    def test_nonfinite_abort_retains_last_good_checkpoint(self, tmp_path, monkeypatch):
        # gamma = -2 has no reaction guard, so the k-th solve is step k's
        cfg = SolverConfig(gamma=-2.0, n_cells=512, dt=0.05, t_end=5.0,
                           output_stride=1)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        _, states = run_with_states(replace(cfg, t_end=(NAN_STEP - 1) * cfg.dt), f0)
        last_good = states[-1]
        monkeypatch.setattr(solver, "solve_banded",
                            nan_at_call(solver.solve_banded, NAN_STEP))
        ckpt = tmp_path / "last_good.ckpt"
        with pytest.raises(SolverError, match=f"step {NAN_STEP} aborted "
                                              r"\(field values must be finite\); "
                                              "last good state retained"):
            run(cfg, f0, checkpoint_path=ckpt)
        saved, gamma, t_saved = read_checkpoint(ckpt)
        assert np.array_equal(saved.values, last_good.values)
        assert gamma == -2.0 and t_saved == (NAN_STEP - 1) * cfg.dt


class TestWorkspace:
    """The Stencil is the per-run workspace: a step allocates no array, never
    writes its input state, and the fields a run hands out keep their values."""

    def test_steps_allocate_no_array(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=4096, dt=1e-4, t_end=1.0)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        stencil = Stencil(f0.grid)
        a = radial_convolve(f0.grid, f0.values, 2.0 + cfg.gamma)
        h_max = h_values(f0.grid, f0.values, cfg.gamma).max()
        mass0 = float(np.dot(f0.grid.cell_volumes, f0.values))
        vals, _ = step(stencil, f0.values, a, h_max, cfg, mass0)  # warm-up
        tracemalloc.start()
        try:
            for _ in range(200):
                vals, rep = step(stencil, vals, a, h_max, cfg, mass0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.halvings == 0
        assert peak < f0.values.nbytes

    def test_semilinear_steps_allocate_no_array(self, monkeypatch):
        # the peak is taken from the first diffusion solve on, when the
        # stencil and the unit-coefficient system exist
        cfg = SolverConfig(gamma=-3.0, n_cells=4096, dt=1e-4, t_end=0.02,
                           output_stride=50)
        u0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1e-3)
        solve = solver.solve_banded
        base = []

        def first_solve_resets_the_peak(*args):
            if not base:
                tracemalloc.reset_peak()
                base.append(tracemalloc.get_traced_memory()[0])
            return solve(*args)

        monkeypatch.setattr(solver, "solve_banded", first_solve_resets_the_peak)
        tracemalloc.start()
        try:
            traj, t_det = run_semilinear(cfg, u0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert t_det is None and len(traj.rows) == 5
        assert peak - base[0] < u0.values.nbytes

    # tall data: step 1 takes 9 halvings, step 2 three and step 3 two
    TALL = SolverConfig(gamma=-2.5, n_cells=256, dt=1e-4, t_end=3e-4, output_stride=1)

    def tall_run(self):
        """(halvings of each step, the field of each row) of TALL."""
        reports = []
        step_fn = solver.step

        def recording(*args, **kwargs):
            values, report = step_fn(*args, **kwargs)
            reports.append(report)
            return values, report

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "step", recording)
            _, states = run_with_states(
                self.TALL, gaussian_field(self.TALL.grid(), sigma=1.0, amplitude=3e5))
        return [r.halvings for r in reports], states

    def test_halving_path_keeps_every_state_it_hands_out(self, tmp_path, monkeypatch):
        # each row's field holds its own copy of the state, which later steps
        # overwrite in the stencil
        halvings, states = self.tall_run()
        assert halvings == [9, 3, 2]
        cfg = self.TALL
        f0 = gaussian_field(cfg.grid(), sigma=1.0, amplitude=3e5)
        _, want = oracle_run(cfg, f0)
        assert len(states) == len(want) == 4
        for got, expected in zip(states, want):
            assert np.array_equal(got.values, expected.values)
        for i, got in enumerate(states):
            assert not any(np.shares_memory(got.values, h.values) for h in states[i + 1:])
        # a NaN from step 3's second substep solve, after its first substep
        # has written the other state buffer: the step-start state survives
        monkeypatch.setattr(solver, "solve_banded", nan_at_call(
            solver.solve_banded, (1 << halvings[0]) + (1 << halvings[1]) + 2))
        ckpt = tmp_path / "last_good.ckpt"
        with pytest.raises(SolverError, match="step 3 aborted "
                                              r"\(field values must be finite\); "
                                              "last good state retained"):
            run(cfg, f0, checkpoint_path=ckpt)
        saved, _, t_saved = read_checkpoint(ckpt)
        assert np.array_equal(saved.values, states[2].values)
        assert t_saved == 2 * cfg.dt

    def test_heat_flow_coefficient_is_the_mass_column(self, monkeypatch):
        # at gamma = -2, a[f] = f * |.|^0 is the finite-volume mass: the mass
        # the scheme conserves and the rows record
        cfg = SolverConfig(gamma=-2.0, n_cells=256, dt=1e-3, t_end=0.02, output_stride=5)
        coefficients = []
        snapshot_row = diagnostics.snapshot_row

        def recording(t, f, gamma, a, h, **kwargs):
            coefficients.append(a.copy())
            return snapshot_row(t, f, gamma, a, h, **kwargs)

        monkeypatch.setattr(diagnostics, "snapshot_row", recording)
        traj = run(cfg, gaussian_field(cfg.grid(), sigma=1.0, mass=1.0))
        assert len(coefficients) == len(traj.rows) == 5
        for a, row in zip(coefficients, traj.rows):
            assert np.allclose(a, row["mass"], rtol=4 * np.finfo(float).eps, atol=0.0)


class TestRunBookkeeping:
    # every reaction-guard halving of this run falls in its first step
    HALVING = (SolverConfig(gamma=-2.5, n_cells=256, dt=1e-4, t_end=0.003,
                            output_stride=10),
               lambda g: gaussian_field(g, sigma=1.0, amplitude=3e4))

    @pytest.mark.parametrize("case, busy", [("HALVING", "halvings")])
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
        verdict = mass_conservation_check(traj, cfg.gamma)
        per_step = [getattr(r, busy) for r in reports]
        per_row = [row[f"_{busy}"] for row in traj.rows]
        assert per_row[0] == 0
        assert per_row[1:] == [sum(per_step[i:i + stride])
                               for i in range(0, len(per_step), stride)]
        assert verdict[busy] == sum(per_step) > 0

    def test_quiet_runs_keep_the_mass_verdict_keys(self):
        from ksflow.diagnostics import mass_conservation_check

        cfg = SolverConfig(gamma=-3.0, n_cells=128, dt=1e-4, t_end=0.002,
                           output_stride=10)
        traj = run(cfg, gaussian_field(cfg.grid(), 1.0))
        verdict = mass_conservation_check(traj, cfg.gamma)
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
        # a[f] for the initial row and after each step; h[f] only at the three
        # output rows, since the bound on max h[f] clears the reaction guard
        assert calls == {"step": 20, "solve_banded": 20, "radial_convolve": 21 + 3}

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
        assert isinstance(operator, np.ndarray) and operator.shape == (2, 128)
        assert operator.dtype == np.float64


class TestReactionBound:
    """Between output rows `run` reads h[f] only as the reaction guard's max,
    from the bound on it where that bound clears the guard twice over."""

    @staticmethod
    def guard_bound(cfg, report):
        return -(2.0 + cfg.gamma) * _h_sup_bound(report.mass, report.sup, cfg.gamma)

    def test_tall_data_convolve_h_on_the_steps_the_bound_does_not_clear(
            self, monkeypatch):
        # the bound stays above the guard's half after steps 1 and 2; after
        # step 1 it would even halve dt where the exact h[f] does not
        cfg = SolverConfig(gamma=-2.5, n_cells=128, dt=1e-4, t_end=0.002,
                           output_stride=10)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, amplitude=4e4)
        reports, h_steps = [], []
        step_fn, h_exact = solver.step, solver.h_values

        def recording(*args, **kwargs):
            values, report = step_fn(*args, **kwargs)
            reports.append(report)
            return values, report

        def h_recording(*args, **kwargs):
            h_steps.append(len(reports))
            return h_exact(*args, **kwargs)

        monkeypatch.setattr(solver, "step", recording)
        monkeypatch.setattr(solver, "h_values", h_recording)
        got, got_states = run_with_states(cfg, f0)
        uncleared = [k for k, rep in enumerate(reports, 1)
                     if not cfg.dt * self.guard_bound(cfg, rep) <= 0.25]
        assert uncleared == [1, 2]
        # h[f] at the rows (steps 0, 10, 20) and for the guards after 1 and 2
        assert h_steps == [0, 1, 2, 10, 20]
        assert reports[0].halvings > 0 and reports[1].halvings == 0
        assert solver._reaction_substeps(cfg.dt, self.guard_bound(cfg, reports[0])) == 1
        want, want_states = oracle_run(cfg, f0)
        assert got.rows == want.rows
        for g, w in zip(got_states, want_states, strict=True):
            assert np.array_equal(g.values, w.values)

    def test_coulomb_guard_is_exact_without_h(self, monkeypatch):
        # at gamma = -3 the bound 4 pi max f is the exact rate: tall data
        # halve dt as the oracle does, and h[f] is formed at the rows only
        cfg = SolverConfig(gamma=-3.0, n_cells=128, dt=1e-3, t_end=0.03,
                           output_stride=7)
        f0 = gaussian_field(cfg.grid(), sigma=0.5, amplitude=3e3)
        calls = []
        h_exact = solver.h_values
        monkeypatch.setattr(solver, "h_values",
                            lambda *args: calls.append(1) or h_exact(*args))
        got = run(cfg, f0)
        assert len(calls) == len(got.rows) == 6
        want, _ = oracle_run(cfg, f0)
        assert got.rows == want.rows
        assert sum(row["_halvings"] for row in got.rows) > 0

    @pytest.mark.parametrize("mass", [np.inf, np.nan])
    def test_nonfinite_bound_takes_the_exact_path(self, mass):
        cfg = SolverConfig(gamma=-2.5, n_cells=64, dt=1e-4, t_end=1e-4)
        f = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        report = solver.StepReport(mass_drift=0.0,
                                   sup=float(f.values.max()), mass=mass)
        exact = h_values(f.grid, f.values, cfg.gamma).max()
        assert solver._guard_h(f.grid, f.values, cfg, report) == exact

    def test_nan_state_aborts_with_the_oracle_message_and_checkpoint(
            self, tmp_path, monkeypatch):
        # smooth data: no halvings, every step after the first takes the bound
        cfg = SolverConfig(gamma=-2.5, n_cells=256, dt=1e-4, t_end=0.002,
                           output_stride=10)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, mass=1.0)
        monkeypatch.setattr(solver, "solve_banded",
                            nan_at_call(solver.solve_banded, NAN_STEP))
        monkeypatch.setattr(step_oracle, "solve_banded",
                            nan_at_call(step_oracle.solve_banded, NAN_STEP))
        errors = []
        for name, runner in (("got", run), ("want", oracle_run)):
            with pytest.raises(SolverError, match=f"step {NAN_STEP} aborted "
                                                  r"\(field values must be finite\); "
                                                  "last good state retained") as info:
                runner(cfg, f0, checkpoint_path=tmp_path / f"{name}.ckpt")
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert (tmp_path / "got.ckpt").read_bytes() == (tmp_path / "want.ckpt").read_bytes()


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
    def test_small_data_reaction_negligible(self, monkeypatch):
        # small data follow the unit heat flow, and u^2 is second order in
        # the data: doubling the data doubles the solution up to the reaction
        grid = RadialGrid(512, 12.0)
        cfg = SolverConfig(gamma=-3.0, n_cells=512, dt=1e-4, t_end=0.05,
                           output_stride=100)
        # the state after each substep, as the positivity check returns it
        states = []
        positivity = solver._apply_positivity

        def recording(*args):
            states.append(positivity(*args))
            return states[-1]

        monkeypatch.setattr(solver, "_apply_positivity", recording)
        finals = []
        for mass in (1e-6, 2e-6):
            traj, t_det = run_semilinear(cfg, gaussian_field(grid, sigma=1.0, mass=mass))
            assert t_det is None
            assert traj.rows[-1]["max"] == states[-1].max()
            finals.append(states[-1])
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
