import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ksflow.grids import (
    FieldError,
    RadialField,
    RadialGrid,
    Trajectory,
    gaussian_field,
    integrate_radial,
    radial_laplacian,
    weighted_lp_norm,
    write_checkpoint,
)
from ksflow import diagnostics as dg
from ksflow.kernels import h_values, radial_convolve
from ksflow.probes import Term

from checkpoint_reader import read_checkpoint

GRID = RadialGrid(4096, 12.0)


def mc_quadrature_oracle(fn, s, n=500_000, seed=7, box=6.0):
    """3D Monte-Carlo quadrature of fn(|v|) |v|^s over [-box, box]^3.

    Returns (estimate, standard error).
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(n, 3))
    r = np.linalg.norm(pts, axis=1)
    vol = (2.0 * box) ** 3
    vals = vol * fn(r) * r**s
    return float(np.mean(vals)), float(np.std(vals) / np.sqrt(n))


class TestIntegrateRadial:
    def test_gaussian_mass_against_mc_oracle(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        prof = lambda r: (2 * np.pi) ** -1.5 * np.exp(-0.5 * r**2)
        oracle, stderr = mc_quadrature_oracle(prof, 0.0)
        got = integrate_radial(f, 0.0)
        assert abs(got - 1.0) <= 1e-6
        assert abs(got - oracle) <= 3.0 * stderr

    def test_refinement_shrinks_quadrature_error(self):
        # exp(-r) has a genuine midpoint-rule error at the origin boundary
        errs = []
        for n in (64, 256, 1024):
            grid = RadialGrid(n, 40.0)
            f = RadialField(grid, np.exp(-grid.centers))
            errs.append(abs(integrate_radial(f, 0.0) - 8.0 * np.pi))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] <= 1e-6 * 8 * np.pi

    def test_zero_field(self):
        f = RadialField(GRID, np.zeros(GRID.n_cells))
        for s in (0.0, 2.0, 4.0):
            assert integrate_radial(f, s) == 0.0

    def test_unit_ball_indicator(self):
        # r_max chosen so the ball boundary falls exactly on a cell face
        grid = RadialGrid(4800, 12.0)
        vals = (grid.centers <= 1.0).astype(float)
        f = RadialField(grid, vals)
        assert abs(integrate_radial(f, 0.0) - 4.0 * np.pi / 3.0) <= 1e-4

    def test_second_moment_of_wide_gaussian(self):
        # E_2 = 3 sigma^2 mass, cross-checked by 1D quadrature oracle
        sigma, mass = 2.0, 3.0
        grid = RadialGrid(4096, 12.0 * sigma)
        f = gaussian_field(grid, sigma=sigma, mass=mass)
        r = np.linspace(0, grid.r_max, 200_001)
        prof = mass * (2 * np.pi * sigma**2) ** -1.5 * np.exp(-0.5 * (r / sigma) ** 2)
        oracle = 4 * np.pi * np.trapezoid(r**4 * prof, r)
        got = integrate_radial(f, 2.0)
        assert abs(got - 36.0) <= 36.0 * 1e-6
        assert abs(got - oracle) <= 36.0 * 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a = RadialField(GRID, rng.uniform(0, 1, GRID.n_cells))
        b = RadialField(GRID, rng.uniform(0, 1, GRID.n_cells))
        lhs = integrate_radial(RadialField(GRID, 2.0 * a.values + b.values), 2.0)
        rhs = 2.0 * integrate_radial(a, 2.0) + integrate_radial(b, 2.0)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_dilation_scaling_of_normalized_moments(self):
        # profile held fixed, grid dilated: E_s/E_0 scales as lambda^s
        lam = 1.7
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        dil = RadialField(RadialGrid(GRID.n_cells, lam * GRID.r_max), f.values)
        base = integrate_radial(f, 2.0) / integrate_radial(f, 0.0)
        scaled = integrate_radial(dil, 2.0) / integrate_radial(dil, 0.0)
        assert abs(scaled - lam**2 * base) <= 1e-8 * scaled

    def test_rejects_nonfinite(self):
        vals = np.zeros(GRID.n_cells)
        vals[5] = np.nan
        with pytest.raises(FieldError):
            RadialField(GRID, vals)


class TestWeightedLpNorm:
    def test_gaussian_l1(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        assert abs(weighted_lp_norm(f, 1.0, 0.0) - 1.0) <= 1e-6

    def test_zero_field(self):
        f = RadialField(GRID, np.zeros(GRID.n_cells))
        assert weighted_lp_norm(f, 2.0, 1.0) == 0.0
        assert weighted_lp_norm(f, np.inf, 1.0) == 0.0

    def test_gaussian_sup(self):
        # analytic peak of the normalized Gaussian, (2 pi)^{-3/2}; the grid max
        # sits at the first cell center, half a cell away from the true peak
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        peak = (2 * np.pi) ** -1.5
        assert abs(weighted_lp_norm(f, np.inf, 0.0) - peak) <= 5e-6 * peak

    def test_l1_linf_support_bound(self):
        vals = (GRID.centers <= 1.0).astype(float) * 0.7
        f = RadialField(GRID, vals)
        l1 = weighted_lp_norm(f, 1.0, 0.0)
        linf = weighted_lp_norm(f, np.inf, 0.0)
        assert l1 <= linf * (4 * np.pi / 3) * 1.001

    def test_rejects_p_below_one(self):
        f = gaussian_field(GRID, sigma=1.0)
        with pytest.raises(FieldError):
            weighted_lp_norm(f, 0.5, 0.0)


class TestRadialLaplacian:
    def test_gaussian_against_analytic(self):
        # d/dr-oracle: Laplacian of exp(-r^2/2) is (r^2 - 3) exp(-r^2/2)
        errs = []
        for n in (512, 1024):
            grid = RadialGrid(n, 10.0)
            r = grid.centers
            f = RadialField(grid, np.exp(-0.5 * r**2))
            exact = (r**2 - 3.0) * np.exp(-0.5 * r**2)
            err = np.max(np.abs(radial_laplacian(f).values[:-2] - exact[:-2]))
            errs.append(err)
        assert errs[0] <= 5e-4
        assert errs[1] <= errs[0] / 3.0  # ~O(dr^2)

    def test_constants_annihilated_exactly(self):
        grid = RadialGrid(64, 5.0)
        f = RadialField(grid, np.full(64, 3.25))
        assert np.max(np.abs(radial_laplacian(f).values)) <= 1e-12

    def test_quadratic_exact_at_interior_nodes(self):
        grid = RadialGrid(64, 5.0)
        f = RadialField(grid, grid.centers**2)
        assert np.max(np.abs(radial_laplacian(f).values[:-1] - 6.0)) <= 1e-9

    def test_small_grid_rejected(self):
        with pytest.raises(FieldError):
            RadialGrid(3, 1.0)

    @pytest.mark.parametrize("r_max", [1e40, 1e60])
    def test_r_max_whose_sixth_moment_weight_overflows_rejected(self, r_max):
        with pytest.raises(FieldError, match="r\\^8"):
            RadialGrid(256, r_max)
        # just inside: every weight r^(2+s), s <= 6, of the moments is finite
        grid = RadialGrid(256, 1e38)
        assert np.isfinite(grid.centers ** 8.0).all()


class TestGaussianField:
    def test_unit_mass(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        assert abs(integrate_radial(f, 0.0) - 1.0) <= 1e-6

    def test_zero_mass(self):
        f = gaussian_field(GRID, sigma=1.0, mass=0.0)
        assert np.all(f.values == 0.0)

    def test_amplitude_mode_pins_peak(self):
        f = gaussian_field(GRID, sigma=1.0, amplitude=50.0)
        assert abs(f.values[0] - 50.0) <= 50.0 * 1e-4

    def test_bad_sigma(self):
        with pytest.raises(FieldError):
            gaussian_field(GRID, sigma=0.0)


class TestTrajectory:
    def test_times_strictly_increasing(self):
        traj = Trajectory()
        traj.append({"t": 0.0, "mass": 1.0})
        for t in (0.0, -0.1):
            with pytest.raises(FieldError, match="strictly increasing"):
                traj.append({"t": t, "mass": 1.0})
        assert traj.rows == [{"t": 0.0, "mass": 1.0}]

    def test_column_extraction(self):
        traj = Trajectory()
        for k in range(3):
            traj.append({"t": 0.1 * k, "mass": 1.0})
        assert np.allclose(traj.column("t"), [0.0, 0.1, 0.2])
        with pytest.raises(KeyError):
            traj.column("nope")


class TestCheckpoints:
    def test_radial_roundtrip_bit_for_bit(self, tmp_path):
        f = gaussian_field(RadialGrid(64, 6.0), sigma=1.0, mass=1.0)
        p = tmp_path / "f.ckpt"
        write_checkpoint(p, f, gamma=-3.0, time=0.125)
        g, gamma, t = read_checkpoint(p)
        assert gamma == -3.0 and t == 0.125
        assert np.array_equal(g.values, f.values)
        assert g.grid == f.grid

    def test_header_bytes(self, tmp_path):
        f = gaussian_field(RadialGrid(8, 1.0), sigma=0.5, mass=1.0)
        p = tmp_path / "f.ckpt"
        write_checkpoint(p, f, gamma=-2.5, time=0.25)
        head, _, payload = p.read_bytes().partition(b"end-header\n")
        assert head.decode("ascii").splitlines() == [
            "ksflow-checkpoint 1",
            "kind radial",
            "n_cells 8",
            "r_max 1.0",
            "signed 0",
            "gamma -2.5",
            "time 0.25",
            "byte_order little",
            "dtype float64",
            "count 8",
        ]
        assert payload == f.values.astype("<f8").tobytes()

    def test_kind_other_than_radial_rejected(self, tmp_path):
        # a complete header of the 3D lattice checkpoints older versions wrote
        p = tmp_path / "box.ckpt"
        p.write_bytes(b"ksflow-checkpoint 1\nkind cartesian\nn 4\nhalf_width 4.0\n"
                      b"signed 0\ngamma -2.5\ntime 0.5\nbyte_order little\n"
                      b"dtype float64\ncount 64\nend-header\n" + bytes(8 * 64))
        with pytest.raises(FieldError, match="unknown field kind 'cartesian'"):
            read_checkpoint(p)

    def test_corrupt_header_rejected(self, tmp_path):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(FieldError):
            read_checkpoint(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "short.ckpt"
        write_checkpoint(p, gaussian_field(RadialGrid(64, 6.0), sigma=1.0), gamma=-3.0)
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(FieldError, match="payload"):
            read_checkpoint(p)

    def test_header_without_count_rejected(self, tmp_path):
        p = tmp_path / "nocount.ckpt"
        write_checkpoint(p, gaussian_field(RadialGrid(64, 6.0), sigma=1.0), gamma=-3.0)
        raw = p.read_bytes()
        p.write_bytes(raw.replace(b"count 64\n", b""))
        with pytest.raises(FieldError, match="lacks count"):
            read_checkpoint(p)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        n_cells=st.integers(4, 64),
        r_max=st.floats(1e-3, 1e3),
        gamma=st.floats(-3.0, -2.0),
        time=st.floats(0.0, 1e3),
    )
    def test_nonnegative_radial_fields_roundtrip_bit_for_bit(
            self, tmp_path, data, n_cells, r_max, gamma, time):
        values = data.draw(hnp.arrays(np.float64, n_cells,
                                      elements=st.floats(0.0, 1e300)))
        f = RadialField(RadialGrid(n_cells, r_max), values)
        p = tmp_path / "prop.ckpt"
        write_checkpoint(p, f, gamma=gamma, time=time)
        g, gamma_back, time_back = read_checkpoint(p)
        assert g.values.tobytes() == f.values.tobytes()
        assert g.grid == f.grid and not g.signed
        assert (gamma_back, time_back) == (gamma, time)

    @pytest.mark.parametrize("header", [
        b"",                                          # nothing before end-header
        b"ksflow-checkpoint\n",                       # magic without a version
        b"ksflow-checkpoint x\n",                     # non-numeric version
        b"ksflow-checkpoint 1\nkind\n",               # a key without a value
        b"ksflow-checkpoint 1\nkind radial\nn_cells 8\nr_max 1.0\ngamma g\n"
        b"time 0\nbyte_order little\ndtype float64\ncount 8\n",  # bad number
        b"ksflow-checkpoint 1\n\xff\n",               # not ASCII
    ])
    def test_malformed_header_raises_field_error(self, tmp_path, header):
        p = tmp_path / "bad.ckpt"
        p.write_bytes(header + b"end-header\n" + bytes(64))
        with pytest.raises(FieldError):
            read_checkpoint(p)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_arbitrary_headers_and_truncations_load_or_raise_field_error(
            self, tmp_path, data):
        p = tmp_path / "fuzz.ckpt"
        write_checkpoint(p, gaussian_field(RadialGrid(8, 2.0), sigma=1.0), gamma=-3.0)
        raw = p.read_bytes()
        end = raw.index(b"end-header\n")
        valid_lines = raw[:end].splitlines()
        keys = [ln.split()[0] for ln in valid_lines] + [b"n", b"half_width"]
        line = st.one_of(
            st.sampled_from(valid_lines),
            st.builds(lambda k, v: k + b" " + v, st.sampled_from(keys),
                      st.binary(max_size=12)),
            st.binary(max_size=24),
        )
        lines = data.draw(st.lists(line, max_size=14))
        if data.draw(st.booleans()):
            candidate = b"\n".join(lines) + b"\n" + raw[end:]
        else:
            candidate = raw
        cut = data.draw(st.integers(0, len(candidate)))
        p.write_bytes(candidate[:cut])
        try:
            read_checkpoint(p)
        except FieldError:
            pass


class TestGridGeometry:
    def test_computed_once_and_read_only(self):
        grid = RadialGrid(32, 4.0)
        for name in ("centers", "faces", "face_areas", "cell_volumes"):
            arr = getattr(grid, name)
            assert getattr(grid, name) is arr
            with pytest.raises(ValueError):
                arr[0] = 1.0
        assert np.array_equal(grid.face_areas, 4.0 * np.pi * grid.faces**2)

    def test_equality_and_hash_from_fields(self):
        a, b = RadialGrid(32, 4.0), RadialGrid(32, 4.0)
        a.faces  # a cached array must not enter equality or hashing
        assert a == b and hash(a) == hash(b)
        assert a != RadialGrid(32, 4.5) and a != RadialGrid(33, 4.0)


class TestOneQuadrature:
    """`RadialGrid.weights` and `cell_volumes` are the only radial quadrature."""

    @staticmethod
    def integrals():
        grid = RadialGrid(256, 8.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        a = radial_convolve(grid, f.values, -0.5)
        row = dg.snapshot_row(0.5, f, -2.5, a, h_values(grid, f.values, -2.5))
        hess = RadialField(grid, f.values**2 * grid.centers**2)
        return {
            "E_0": integrate_radial(f, 0.0),
            "E_2": integrate_radial(f, 2.0),
            "l3_cubed": weighted_lp_norm(f, 3.0) ** 3,
            "entropy": dg.entropy(f),
            "fisher": dg.fisher_information(f),
            "mu0": radial_convolve(grid, f.values, 0.0),
            **{f"row_{k}": row[k] for k in ("energy", "entropy", "fisher", "e4", "e6",
                                             "_aff", "l3_norm", "mass")},
            "hess": Term("hess", 2.0, 1.0).norm(hess, 2.0),
        }

    def test_every_integral_reads_the_weights(self, monkeypatch):
        # with the weights doubled, each integral scales by exactly 2 and a
        # p-th root of one by 2^(1/p)
        plain = self.integrals()
        midpoint = RadialGrid.weights.fget
        monkeypatch.setattr(RadialGrid, "weights", property(lambda g: 2.0 * midpoint(g)))
        doubled = self.integrals()
        for key in ("E_0", "E_2", "entropy", "fisher", "row_energy", "row_entropy",
                    "row_fisher", "row_e4", "row_e6", "row__aff"):
            assert doubled[key] == 2.0 * plain[key], key
        assert np.array_equal(doubled["mu0"], 2.0 * plain["mu0"])
        assert doubled["l3_cubed"] == pytest.approx(2.0 * plain["l3_cubed"], rel=1e-14)
        assert doubled["row_l3_norm"] == pytest.approx(2.0 ** (1 / 3) * plain["row_l3_norm"],
                                                       rel=1e-15)
        assert doubled["hess"] == pytest.approx(np.sqrt(2.0) * plain["hess"], rel=1e-15)
        # the finite-volume mass sums against the cell volumes instead
        assert doubled["row_mass"] == plain["row_mass"]

    def test_cell_volumes_one_formula_good_to_a_few_ulps(self):
        grid = RadialGrid(2048, 0.7)
        volumes = grid.cell_volumes
        # the shell theorem reads them: outside a unit spike in cell k the
        # Coulomb convolution is V_k / r, bit for bit
        for k in (0, 1000, 2046):
            spike = np.zeros(grid.n_cells)
            spike[k] = 1.0
            assert np.array_equal(radial_convolve(grid, spike, -1.0)[k + 1:],
                                  volumes[k] / grid.centers[k + 1:])
        ld = np.longdouble
        faces = grid.faces.astype(ld)
        exact = 4 * (4 * np.arctan(ld(1))) / 3 * (faces[1:] ** 3 - faces[:-1] ** 3)
        ulps = np.abs(volumes.astype(ld) - exact) / np.spacing(volumes).astype(ld)
        # hi^3 - lo^3 in double precision is off by ~960 ulps here
        assert ulps.max() <= 4.0
