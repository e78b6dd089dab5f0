import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ksflow.grids import (
    RadialField,
    RadialGrid,
    gaussian_field,
    integrate_radial,
    radial_laplacian,
)
from ksflow.kernels import (
    RATIO_WINDOW,
    KernelError,
    SoftenedPowerLaw,
    _h_sup_bound,
    _h_sup_constant,
    h_values,
    kernel_matrix,
    radial_convolve,
)

GRID = RadialGrid(1024, 12.0)

#: exponents across the ranges the solver (mu in [-3, -2] and [-1, 0]) and the
#: probes convolve with; mu = -2, the eps-limit, is gated on its own
GATED_MU = (-2.9, -2.5, -1.0, -0.5, -0.1)


def _power_kernel_matrix(grid: RadialGrid, mu: float) -> np.ndarray:
    """Dense W with (f * |.|^mu)(r_i) = sum_j W[i, j] f_j.

    Entries integrate s [ (r+s)^{nu} - |r-s|^{nu} ] (nu = mu + 2) in closed
    form over each source cell, splitting the diagonal cell at s = r.
    """
    nu = mu + 2.0
    r = grid.centers[:, None]            # (n, 1) targets
    lo = grid.faces[:-1][None, :]        # (1, n) source cell bounds
    hi = grid.faces[1:][None, :]

    # int s (r+s)^nu ds, antiderivative (r+s)^{nu+2}/(nu+2) - r (r+s)^{nu+1}/(nu+1)
    def near_part(s):
        t = r + s
        return t ** (nu + 2.0) / (nu + 2.0) - r * t ** (nu + 1.0) / (nu + 1.0)

    # int s |r-s|^nu ds: antiderivatives on either side of s = r
    def below(s):  # s <= r
        t = r - s
        return t ** (nu + 2.0) / (nu + 2.0) - r * t ** (nu + 1.0) / (nu + 1.0)

    def above(s):  # s >= r
        t = s - r
        return t ** (nu + 2.0) / (nu + 2.0) + r * t ** (nu + 1.0) / (nu + 1.0)

    a_part = near_part(hi) - near_part(lo)
    lo_b = np.minimum(lo, r)
    hi_b = np.minimum(hi, r)
    lo_a = np.maximum(lo, r)
    hi_a = np.maximum(hi, r)
    b_part = (below(hi_b) - below(lo_b)) + (above(hi_a) - above(lo_a))
    return (2.0 * np.pi / (r * nu)) * (a_part - b_part)


def dense_oracle(grid: RadialGrid, mu: float) -> np.ndarray:
    """The dense closed-form matrix, with the symmetric eps-limit at mu = -2."""
    if abs(mu + 2.0) < 1e-9:
        eps = 1e-3
        return 0.5 * (_power_kernel_matrix(grid, -2.0 + eps)
                      + _power_kernel_matrix(grid, -2.0 - eps))
    return _power_kernel_matrix(grid, mu)


def oracle_profiles(grid: RadialGrid):
    """A sigma = 1 Gaussian and two seeded uniform-random non-negative profiles."""
    rng = np.random.default_rng(2024)
    return [gaussian_field(grid, sigma=1.0, mass=1.0)] + [
        RadialField(grid, rng.uniform(0.0, 1.0, grid.n_cells)) for _ in range(2)
    ]


def conv_oracle_1d(f_profile, mu, r_targets, s_max=14.0, n=40_000):
    """Independent quadrature of the 1D reduction.

    The smooth (r+s)^nu part uses a fine trapezoid; the |r-s|^nu parts use the
    substitution s = r -+ t^2, which turns the integrable endpoint singularity
    into a bounded integrand.
    """
    out = []
    nu = mu + 2.0
    for r in np.atleast_1d(r_targets):
        g = lambda s: s * f_profile(s)
        s = np.linspace(0.0, s_max, n)
        near = np.trapezoid(g(s) * (r + s) ** nu, s)
        # int_0^r g(s) (r-s)^nu ds = 2 int_0^sqrt(r) g(r-t^2) t^(2nu+1) dt
        t = np.linspace(1e-12, np.sqrt(r), n)
        below = 2.0 * np.trapezoid(g(r - t**2) * t ** (2 * nu + 1), t)
        t = np.linspace(1e-12, np.sqrt(s_max - r), n)
        above = 2.0 * np.trapezoid(g(r + t**2) * t ** (2 * nu + 1), t)
        out.append(2.0 * np.pi / (r * nu) * (near - below - above))
    return np.array(out)


class TestGammaRatio:
    def test_window_membership(self):
        assert RATIO_WINDOW.contains(-3.0)
        assert not RATIO_WINDOW.contains(1.0)
        assert abs(RATIO_WINDOW.lo - (2 - 3 * np.sqrt(3))) < 1e-15
        assert abs(RATIO_WINDOW.hi - (-2 + 2 * np.sqrt(2))) < 1e-15


class TestRadialConvolve:
    def test_mu_zero_returns_mass(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        conv = radial_convolve(GRID, f.values, 0.0)
        assert np.allclose(conv, integrate_radial(f, 0.0), atol=1e-12)

    def test_coulomb_kernel_at_origin(self):
        # int f(w)/|w| dw = 4 pi int r f dr = sqrt(2/pi) for the unit Gaussian
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        conv = radial_convolve(GRID, f.values, -1.0)
        expected = np.sqrt(2.0 / np.pi)
        assert abs(conv[0] - expected) <= 2e-4 * expected

    def test_gaussian_coulomb_profile_erf_oracle(self):
        # closed form: (f * 1/|.|)(r) = erf(r/sqrt(2))/r for the unit Gaussian
        from scipy.special import erf

        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        conv = radial_convolve(GRID, f.values, -1.0)
        r = GRID.centers
        exact = erf(r / np.sqrt(2.0)) / r
        assert np.max(np.abs(conv - exact)) <= 2e-5

    def test_far_field_point_mass(self):
        # narrow unit-mass bump: far field of |.|^{-1} kernel is 1/r
        f = gaussian_field(GRID, sigma=0.05, mass=1.0)
        conv = radial_convolve(GRID, f.values, -1.0)
        r = GRID.centers
        sel = r > 1.0
        assert np.max(np.abs(conv[sel] * r[sel] - 1.0)) <= 1e-2

    def test_singular_exponent_against_quadrature_oracle(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        mu = -2.5
        conv = radial_convolve(GRID, f.values, mu)
        targets = GRID.centers[[40, 200, 400]]
        oracle = conv_oracle_1d(
            lambda s: (2 * np.pi) ** -1.5 * np.exp(-0.5 * s**2), mu, targets
        )
        got = conv[[40, 200, 400]]
        assert np.max(np.abs(got - oracle) / oracle) <= 2e-3

    def test_mu_minus_two_limit_against_log_oracle(self):
        # exact mu = -2 reduction: (2 pi / r) int s f(s) log((r+s)/|r-s|) ds
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        conv = radial_convolve(GRID, f.values, -2.0)
        prof = lambda s: (2 * np.pi) ** -1.5 * np.exp(-0.5 * s**2)
        out = []
        for r in GRID.centers[[50, 300]]:
            s1 = np.linspace(1e-9, r - 1e-9, 40_000)
            s2 = np.linspace(r + 1e-9, 14.0, 40_000)
            val = 0.0
            for s in (s1, s2):
                val += np.trapezoid(
                    s * prof(s) * np.log((r + s) / np.abs(r - s)), s
                )
            out.append(2 * np.pi / r * val)
        got = conv[[50, 300]]
        assert np.max(np.abs(got - np.array(out)) / np.array(out)) <= 1e-3

    def test_rejects_nonintegrable(self):
        f = gaussian_field(GRID, sigma=1.0)
        with pytest.raises(KernelError):
            radial_convolve(GRID, f.values, -3.0)

    def test_linearity_and_positivity(self):
        rng = np.random.default_rng(11)
        a = RadialField(GRID, rng.uniform(0, 1, GRID.n_cells))
        b = RadialField(GRID, rng.uniform(0, 1, GRID.n_cells))
        comb = RadialField(GRID, 1.5 * a.values + 0.5 * b.values)
        lhs = radial_convolve(GRID, comb.values, -1.0)
        rhs = (1.5 * radial_convolve(GRID, a.values, -1.0)
               + 0.5 * radial_convolve(GRID, b.values, -1.0))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(rhs)
        assert np.all(lhs >= 0)


class TestSpectralOperator:
    """radial_convolve against the dense closed form it replaces."""

    @pytest.mark.parametrize("n_cells", [512, 2048])
    @pytest.mark.parametrize("mu", [*GATED_MU, -2.0])
    def test_matches_dense_closed_form(self, n_cells, mu):
        grid = RadialGrid(n_cells, 12.0)
        W = dense_oracle(grid, mu)
        # the mu = -2 limit amplifies rounding by 1/eps in both paths
        tol = 1e-8 if mu == -2.0 else 1e-10
        for f in oracle_profiles(grid):
            expected = W @ f.values
            got = radial_convolve(f.grid, f.values, mu)
            assert np.max(np.abs(got - expected) / expected) <= tol

    def test_wide_grid(self):
        # the FFT rounding is relative to the kernel's size at 2 r_max, so the
        # pointwise error grows with r_max / sigma
        grid = RadialGrid(2048, 160.0)
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        expected = dense_oracle(grid, -0.1) @ f.values
        got = radial_convolve(f.grid, f.values, -0.1)
        assert np.max(np.abs(got - expected) / expected) <= 1e-7

    @settings(deadline=None, max_examples=60)
    @given(
        n_cells=st.integers(8, 512),
        r_max=st.floats(0.5, 20.0),
        mu=st.sampled_from([*GATED_MU, -2.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_random_profiles(self, n_cells, r_max, mu, seed):
        grid = RadialGrid(n_cells, r_max)
        values = np.random.default_rng(seed).uniform(0.0, 1.0, n_cells)
        expected = dense_oracle(grid, mu) @ values
        got = radial_convolve(grid, values, mu)
        tol = 1e-8 if mu == -2.0 else 1e-10
        assert np.max(np.abs(got - expected)) <= tol * np.max(np.abs(expected))

    @settings(deadline=None, max_examples=60)
    @given(
        data=st.data(),
        n_cells=st.integers(8, 512),
        r_max=st.floats(0.5, 20.0),
        mu=st.sampled_from([*GATED_MU, -2.0]),
    )
    def test_property_any_nonnegative_profile(self, data, n_cells, r_max, mu):
        # mass in a few cells near the origin is the sigma ~ dr end of the
        # r_max / sigma growth: the FFT rounding is then ~eps (2n)^{mu+3} of
        # the largest output (1.3e-7 for a unit spike in cell 0 of 489 cells
        # at mu = -0.1, where the dense path itself is off by ~1e-8)
        grid = RadialGrid(n_cells, r_max)
        values = data.draw(hnp.arrays(np.float64, n_cells, elements=st.floats(0.0, 1.0)))
        # both paths are linear; scaled to a unit peak, no output is subnormal,
        # where neither path has relative precision left
        values = values / values.max() if values.any() else values
        expected = dense_oracle(grid, mu) @ values
        got = radial_convolve(grid, values, mu)
        concentrated = 16 * np.finfo(float).eps * (2 * n_cells) ** (mu + 3.0)
        tol = 1e-8 if mu == -2.0 else max(1e-10, concentrated)
        assert np.max(np.abs(got - expected)) <= tol * np.max(np.abs(expected))

    def test_large_grid_is_small_and_accurate(self):
        from scipy.special import erf

        grid = RadialGrid(65536, 12.0)
        # mu = -1 is served by the shell sums; the spectral path's size is
        # checked at an exponent it still serves
        assert kernel_matrix(grid, -0.5).nbytes <= 8 * 2**20
        f = gaussian_field(grid, sigma=1.0, mass=1.0)
        exact = erf(grid.centers / np.sqrt(2.0)) / grid.centers
        assert np.max(np.abs(radial_convolve(f.grid, f.values, -1.0) - exact)) <= 1e-8

    def test_cached_read_only(self):
        grid = RadialGrid(96, 7.0)
        spectrum = kernel_matrix(grid, -2.5)
        assert kernel_matrix(RadialGrid(96, 7.0), -2.5) is spectrum
        assert not spectrum.flags.writeable


def _shell_weights_long(grid: RadialGrid):
    """The shell-theorem weights (V, w, d) of the mu = -1 kernel and the
    centres, in np.longdouble from the grid's faces and centres as stored."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    faces, r = grid.faces.astype(ld), grid.centers.astype(ld)
    lo, hi = faces[:-1], faces[1:]
    volumes = 4 * pi / 3 * (hi**3 - lo**3)
    shells = 2 * pi * (hi**2 - lo**2)
    diag = 4 * pi * ((r**3 - lo**3) / (3 * r) + (hi**2 - r**2) / 2)
    return volumes, shells, diag, r


class TestShellTheorem:
    """mu = -1, the Coulomb kernel, by Newton's shell theorem: a shell of mass
    V_k pulls like a point mass from outside and is constant inside."""

    @pytest.mark.parametrize("r_max", [12.0, 160.0])
    @pytest.mark.parametrize("n_cells", [489, 512, 2048])
    def test_unit_spike(self, n_cells, r_max):
        grid = RadialGrid(n_cells, r_max)
        volumes, shells, _, r = _shell_weights_long(grid)
        for k in (0, n_cells // 2, n_cells - 1):
            values = np.zeros(n_cells)
            values[k] = 1.0
            got = radial_convolve(grid, values, -1.0).astype(np.longdouble)
            outside = volumes[k] / r[k + 1:]
            assert np.all(np.abs(got[k + 1:] - outside) <= 1e-14 * outside)
            assert np.all(np.abs(got[:k] - shells[k]) <= 1e-14 * shells[k])

    @settings(deadline=None, max_examples=60)
    @given(
        data=st.data(),
        n_cells=st.integers(4, 512),
        r_max=st.floats(0.5, 200.0),
    )
    def test_property_against_long_double_sums(self, data, n_cells, r_max):
        grid = RadialGrid(n_cells, r_max)
        values = data.draw(hnp.arrays(np.float64, n_cells, elements=st.floats(0.0, 1.0)))
        # scaled to a unit peak, as above: no output is subnormal
        values = values / values.max() if values.any() else values
        volumes, shells, diag, r = _shell_weights_long(grid)
        x = values.astype(np.longdouble)
        below = np.concatenate([[0], np.cumsum(volumes * x)[:-1]])
        above = np.concatenate([np.cumsum((shells * x)[::-1])[::-1][1:], [0]])
        expected = below / r + above + diag * x
        got = radial_convolve(grid, values, -1.0)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


class TestCoefficients:
    def test_gamma_minus_two_gives_constant_mass(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        a = radial_convolve(f.grid, f.values, 0.0)
        assert np.allclose(a, 1.0, atol=1e-6)

    def test_coulomb_a_at_origin(self):
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        a = radial_convolve(f.grid, f.values, -1.0)
        assert abs(a[0] - np.sqrt(2 / np.pi)) <= 3e-4

    def test_zero_field(self):
        f = RadialField(GRID, np.zeros(GRID.n_cells))
        assert np.all(radial_convolve(f.grid, f.values, -0.5) == 0.0)
        assert np.all(h_values(f.grid, f.values, -2.5) == 0.0)

    def test_h_is_4pi_f_in_coulomb_case(self):
        rng = np.random.default_rng(5)
        f = RadialField(GRID, rng.uniform(0, 2, GRID.n_cells))
        h = h_values(f.grid, f.values, -3.0)
        assert np.array_equal(h, 4 * np.pi * f.values)

    def test_h_at_gamma_minus_two(self):
        # (3+gamma) int f/|w|^2 dw = 1 * 4 pi int f dr = 1 for the unit Gaussian
        f = gaussian_field(GRID, sigma=1.0, mass=1.0)
        h = h_values(f.grid, f.values, -2.0)
        r = np.linspace(0, 14, 100_001)
        oracle = 4 * np.pi * np.trapezoid(
            (2 * np.pi) ** -1.5 * np.exp(-0.5 * r**2), r
        )
        assert abs(oracle - 1.0) <= 1e-6
        assert abs(h[0] - oracle) <= 2e-3

    def test_h_range_checked(self):
        f = gaussian_field(GRID, sigma=1.0)
        with pytest.raises(KernelError, match=r"\[-3, -2\]"):
            h_values(f.grid, f.values, -1.5)

    def test_laplacian_identity(self):
        # Delta a[f] = (2+gamma) h[f] on the grid, gamma in (-3, -2)
        gamma = -2.5
        f = gaussian_field(RadialGrid(2048, 12.0), sigma=1.0, mass=1.0)
        a = radial_convolve(f.grid, f.values, 2.0 + gamma)
        lap_a = radial_laplacian(RadialField(f.grid, a))
        target = (2.0 + gamma) * h_values(f.grid, f.values, gamma)
        interior = slice(2, -4)
        scale = np.max(np.abs(target))
        assert np.max(np.abs(lap_a.values[interior] - target[interior])) <= 2e-3 * scale

    def test_ellipticity_decay_shape(self):
        # c1 <r>^{2+gamma} <= a[f] <= c2 <r>^{2+gamma} with positive fitted constants
        for gamma in (-3.0, -2.5):
            f = gaussian_field(GRID, sigma=1.0, mass=1.0)
            a = radial_convolve(f.grid, f.values, 2.0 + gamma)
            w = (1.0 + GRID.centers**2) ** (0.5 * (2.0 + gamma))
            ratio = a / w
            assert ratio.min() > 0.5
            assert ratio.max() < 2.0


#: (n_cells, r_max) of the sup h[f] bound's property test: r_max = 12 at
#: three sizes, and 489 cells on r_max = 160
SUP_BOUND_GRIDS = ((64, 12.0), (512, 12.0), (2048, 12.0), (489, 160.0))


@st.composite
def cell_profiles(draw, n_cells):
    """Cell-constant f >= 0 near the bathtub extremals: a spike in one of the
    first four cells, a few random cells, or a shell (a ball from cell 0)."""
    values = np.zeros(n_cells)
    heights = st.floats(1e-6, 1e6)
    kind = draw(st.sampled_from(("spike", "sparse", "shell")))
    if kind == "spike":
        values[draw(st.integers(0, 3))] = draw(heights)
    elif kind == "sparse":
        for cell in draw(st.lists(st.integers(0, n_cells - 1), min_size=1, max_size=8)):
            values[cell] = draw(heights)
    else:
        lo = draw(st.integers(0, n_cells - 1))
        values[lo: draw(st.integers(lo + 1, n_cells))] = draw(heights)
    return values


class TestHSupBound:
    @settings(deadline=None, max_examples=120)
    @given(data=st.data(), shape=st.sampled_from(SUP_BOUND_GRIDS),
           gamma=st.one_of(st.just(-3.0), st.floats(-3.0, -2.0, exclude_max=True)))
    def test_property_max_h_is_below_the_bathtub_bound(self, data, shape, gamma):
        grid = RadialGrid(*shape)
        values = data.draw(cell_profiles(grid.n_cells))
        top = h_values(grid, values, gamma).max()
        bound = _h_sup_bound(float(np.dot(grid.cell_volumes, values)),
                             float(values.max()), gamma)
        assert top <= bound * (1.0 + 1e-9)
        if gamma == -3.0:
            assert abs(top - bound) <= np.spacing(bound)

    @pytest.mark.parametrize("n_cells, r_max", SUP_BOUND_GRIDS)
    def test_full_ball_approaches_the_bound(self, n_cells, r_max):
        # the bathtub extremal itself: the ratio falls short of 1 only by the
        # offset of the first cell centre from the origin
        grid = RadialGrid(n_cells, r_max)
        values = np.ones(n_cells)
        ratio = (h_values(grid, values, -2.5).max()
                 / _h_sup_bound(float(np.dot(grid.cell_volumes, values)), 1.0, -2.5))
        assert 1.0 - 2e-5 < ratio <= 1.0

    def test_mu_minus_two_limit_exceeds_the_bound_by_its_own_error(self):
        # at gamma = -2 h[f] is the eps = 1e-3 symmetric limit of the closed
        # form, not the exact kernel: on a full ball it overshoots the bound
        # by its own error, up to 8.5e-6 relative at r_max = 160, so the
        # property test stops short of -2, where the guard's rate is 0
        for n_cells, r_max in SUP_BOUND_GRIDS:
            grid = RadialGrid(n_cells, r_max)
            values = np.ones(n_cells)
            ratio = (h_values(grid, values, -2.0).max()
                     / _h_sup_bound(float(np.dot(grid.cell_volumes, values)), 1.0, -2.0))
            assert ratio <= 1.0 + 1e-5

    def test_constant_is_4pi_at_coulomb_and_the_ball_at_minus_two(self):
        assert _h_sup_constant(-3.0) == 4.0 * np.pi
        # gamma = -2: 4 pi R with (4 pi / 3) R^3 = 1
        radius = (3.0 / (4.0 * np.pi)) ** (1 / 3)
        assert _h_sup_constant(-2.0) == pytest.approx(4.0 * np.pi * radius, rel=1e-15)


class TestSoftenedPowerLaw:
    def test_ratio_sweeps_gamma_to_zero(self):
        pot = SoftenedPowerLaw(-3.0, eps=0.1)
        r = np.array([1e-3, 0.1, 10.0])
        g = r * pot.alpha_prime(r) / pot.alpha(r)  # Gamma = r alpha'/alpha
        assert g[0] > -0.01
        assert abs(g[1] - (-1.5)) < 1e-12
        assert g[2] < -2.99

    def test_derivatives_consistent(self):
        pot = SoftenedPowerLaw(-2.5, eps=0.3)
        r = np.linspace(0.05, 3.0, 7)
        h = 1e-6
        fd1 = (pot.alpha(r + h) - pot.alpha(r - h)) / (2 * h)
        fd2 = (pot.alpha_prime(r + h) - pot.alpha_prime(r - h)) / (2 * h)
        assert np.max(np.abs(fd1 - pot.alpha_prime(r))) <= 1e-5
        assert np.max(np.abs(fd2 - pot.alpha_second(r))) <= 1e-4
