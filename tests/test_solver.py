import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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
    boundary_flux_estimate,
    flux_form_rhs,
    run,
    run_cartesian,
    run_semilinear,
    step,
)


def coefficients(f, cfg):
    """a[f] and h[f], frozen over one step."""
    return coeff_a(f, cfg.potential), coeff_h(f, cfg.potential)


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
        rhs = flux_form_rhs(f, PowerLaw(-2.0))
        lap = radial_laplacian(f)
        interior = slice(1, -2)
        err = np.max(np.abs(rhs.values[interior] - lap.values[interior]))
        assert err <= 5e-4 * np.max(np.abs(lap.values))

    def test_zero_field(self):
        grid = RadialGrid(64, 6.0)
        f = RadialField(grid, np.zeros(64))
        assert np.all(flux_form_rhs(f, PowerLaw(-2.5)).values == 0.0)

    def test_discrete_integral_telescopes(self):
        grid = RadialGrid(512, 12.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        rhs = flux_form_rhs(f, PowerLaw(-3.0))
        total = float(np.dot(grid.cell_volumes, rhs.values))
        scale = float(np.dot(grid.cell_volumes, np.abs(rhs.values)))
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
        rhs = flux_form_rhs(f, PowerLaw(gamma)).values
        total = float(np.dot(grid.cell_volumes, rhs))
        scale = float(np.dot(grid.cell_volumes, np.abs(rhs)))
        assert abs(total) <= 4 * n_cells * np.finfo(float).eps * scale
        cfg = SolverConfig(gamma=gamma, n_cells=n_cells, r_max=r_max, dt=1e-4,
                           t_end=1e-4)
        _, rep = step(f, *coefficients(f, cfg), cfg)
        assert abs(rep.mass_drift) <= 1e-13

    def test_boundary_flux_negligible_for_compact_data(self):
        grid = RadialGrid(512, 12.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        a = coeff_a(f, PowerLaw(-3.0))
        assert boundary_flux_estimate(f, a) <= 1e-20


class TestNondivergenceRHS:
    def test_agreement_with_flux_form_under_refinement(self):
        rel = []
        for n in (256, 512):
            grid = RadialGrid(n, 12.0)
            f = gaussian_field(grid, sigma=1.0, mass=1.0)
            pot = PowerLaw(-2.5)
            fd = flux_form_rhs(f, pot).values
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
        f1, rep = step(f0, *coefficients(f0, cfg), cfg)
        assert abs(rep.mass_drift) <= 1e-13

    def test_dt_to_zero_recovers_rhs(self):
        # (f' - f)/dt -> flux_form_rhs(f) at first order in dt
        grid = RadialGrid(256, 12.0)
        f0 = gaussian_field(grid, sigma=1.0, mass=1.0)
        rhs = flux_form_rhs(f0, PowerLaw(-3.0)).values
        errs = []
        for dt in (4e-5, 2e-5, 1e-5):
            cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=dt, t_end=1.0)
            f1, _ = step(f0, *coefficients(f0, cfg), cfg)
            quotient = (f1.values - f0.values) / dt
            errs.append(np.max(np.abs(quotient - rhs)))
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, rel=0.2)

    def test_reaction_guard_halves_dt(self):
        cfg = SolverConfig(gamma=-3.0, n_cells=256, dt=5e-3, t_end=1.0)
        f0 = gaussian_field(cfg.grid(), sigma=1.0, amplitude=60.0)
        _, rep = step(f0, *coefficients(f0, cfg), cfg)
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
            step(f0, *coefficients(f0, cfg), cfg)

    def test_explicit_fv_agrees_with_semi_implicit_at_small_dt(self):
        f0 = gaussian_field(RadialGrid(256, 12.0), sigma=1.0, mass=1.0)
        outs = {}
        for scheme in ("semi-implicit-fv", "explicit-fv"):
            cfg = SolverConfig(gamma=-2.5, n_cells=256, dt=1e-5, t_end=1.0,
                               scheme=scheme)
            f1, rep = step(f0, *coefficients(f0, cfg), cfg)
            outs[scheme] = f1.values
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


class TestCartesianRun:
    def test_fisher_and_entropy_decrease_for_nonradial_data(self):
        from ksflow.grids import CartesianGrid3, gaussian_field3, CartesianField3

        grid = CartesianGrid3(32, 8.0)
        # anisotropic, off-center data: genuinely non-radial
        a = gaussian_field3(grid, sigma=1.0, mass=0.6, center=(1.0, 0.5, 0.0))
        b = gaussian_field3(grid, sigma=1.4, mass=0.4, center=(-0.8, 0.0, 0.3))
        f0 = CartesianField3(grid, a.values + b.values)
        cfg = SolverConfig(gamma=-2.5, dt=2e-3, t_end=0.04, output_stride=5)
        traj = run_cartesian(cfg, f0)
        fisher = traj.column("fisher")
        ent = traj.column("entropy")
        assert np.all(np.diff(fisher) < 0)
        assert np.all(np.diff(ent) < 0)
        drift = max(abs(r["_mass_drift"]) for r in traj.rows)
        assert drift <= 1e-12

    def test_cfl_guard(self):
        from ksflow.grids import CartesianGrid3, gaussian_field3

        grid = CartesianGrid3(16, 6.0)
        f0 = gaussian_field3(grid, sigma=1.0, mass=1.0)
        cfg = SolverConfig(gamma=-2.5, dt=1.0, t_end=2.0)
        with pytest.raises(SolverError):
            run_cartesian(cfg, f0)

    def test_box_size_limit_read_from_the_field(self):
        from ksflow.grids import CartesianField3, CartesianGrid3

        f0 = CartesianField3(CartesianGrid3(128, 8.0), np.zeros((128,) * 3))
        with pytest.raises(SolverError, match="n <= 64"):
            run_cartesian(SolverConfig(gamma=-2.5), f0)

    def test_radial_run_rejects_cartesian_field(self):
        from ksflow.grids import CartesianGrid3, gaussian_field3

        f0 = gaussian_field3(CartesianGrid3(16, 6.0), sigma=1.0)
        with pytest.raises(SolverError, match="grid does not match"):
            run(SolverConfig(gamma=-2.5), f0)
