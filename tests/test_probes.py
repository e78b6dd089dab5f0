import numpy as np
import pytest

from ksflow.grids import RadialGrid, gaussian_field
from ksflow.kernels import radial_convolve
from ksflow import probes
from ksflow.probes import (
    DEFAULT_LAMBDAS,
    DEFAULT_PARAMS,
    PROBE_LEMMAS,
    ProbeError,
    RadialMixture,
    _LEMMAS,
    _sides,
    probe_inequality,
    random_family,
)


class TestHypothesisValidation:
    def test_a1_m_too_small(self):
        with pytest.raises(ProbeError, match="m > d/p' \\+ mu"):
            probe_inequality(["A1"], {"A1": {"mu": -1.0, "p": 2.0, "m": 0.3}}, 0, 2)

    def test_a1_mu_out_of_range(self):
        with pytest.raises(ProbeError, match="-d/p' < mu < 0"):
            probe_inequality(["A1"], {"A1": {"mu": -2.0, "p": 2.0, "m": 3.0}}, 0, 2)

    def test_a3_theta(self):
        with pytest.raises(ProbeError, match="theta > mu \\+ d"):
            probe_inequality(["A3"], {"A3": {"mu": -2.0, "theta": 0.5}}, 0, 2)

    def test_unknown_lemma(self):
        with pytest.raises(ProbeError):
            probe_inequality(["A2"], None, 0, 2)


class TestRatioStats:
    @pytest.mark.parametrize("lemma", ["A1", "A3", "A4", "A5", "A7"])
    def test_bounded_and_scale_consistent(self, lemma):
        [stats] = probe_inequality([lemma], None, family_seed=5, n_members=6,
                                   n_cells=1024).stats
        assert np.isfinite(stats.max_ratio)
        assert stats.scaling_deviation <= 0.05
        assert stats.passed

    def test_rows_have_csv_fields(self):
        result = probe_inequality(["A1"], None, family_seed=1, n_members=3,
                                  n_cells=512)
        for row in result.rows:
            assert set(row) == {"lemma", "seed", "lambda", "lhs", "rhs", "ratio"}

    def test_zero_member_skipped(self):
        probe_inequality(["A1"], None, family_seed=1, n_members=2,
                         n_cells=512, lambdas=(1.0,))
        # inject a zero member by hand and re-run the side computation
        zero = RadialMixture(np.array([0.0]), np.array([1.0]))
        grid = RadialGrid(512, 12.0)
        [[(lhs, rhs)]] = _sides([describe("A1")], zero, grid, (1.0,))
        assert lhs == 0.0 and rhs == 0.0


def describe(lemma):
    """The (lhs, rhs, combine) description of a lemma at its default parameters."""
    return _LEMMAS[lemma](DEFAULT_PARAMS[lemma])


class TestSides:
    def test_one_convolution_per_member_and_grid(self, monkeypatch):
        # the direct side convolves once per (member, lam), the predicted
        # side once per member for the whole sweep; A1 and A4 share their
        # mu = -1 convolution, and all five lemmas add one at A3's mu = -2
        lambdas = (0.5, 1.0, 2.0)
        calls = members = 3 * (len(lambdas) + 1)
        for lemmas, expected in ((["A1"], {-1.0: calls}),
                                 (["A1", "A4"], {-1.0: calls}),
                                 (PROBE_LEMMAS, {-1.0: calls, -2.0: members})):
            mus = []

            def counting(grid, values, mu):
                mus.append(mu)
                return radial_convolve(grid, values, mu)

            monkeypatch.setattr(probes, "radial_convolve", counting)
            probe_inequality(lemmas, None, family_seed=2, n_members=3,
                             lambdas=lambdas, n_cells=256)
            assert {mu: mus.count(mu) for mu in mus} == expected, lemmas

    @pytest.mark.parametrize("lemma", PROBE_LEMMAS)
    def test_predicted_at_unit_scale_is_the_direct_side(self, lemma):
        mix = random_family(1, 4)[0]
        grid = RadialGrid(384, 10.0)
        [predicted] = _sides([describe(lemma)], mix, grid, DEFAULT_LAMBDAS)
        [direct] = _sides([describe(lemma)], mix.dilated(1.0), grid, (1.0,))
        assert predicted[DEFAULT_LAMBDAS.index(1.0)] == direct[0]

    def test_terms_follow_the_dilation_law(self):
        # || <.>^m D f_lam ||_p = lam^(k - 3/p) || <./lam>^m D f ||_p: the
        # predicted sides at lam match the sides of the dilated member
        mix = random_family(1, 6)[0]
        lam = 2.0
        base = RadialGrid(4096, 14.0)
        dilated = RadialGrid(4096, 14.0 / lam)
        described = [describe(lemma) for lemma in PROBE_LEMMAS]
        predicted = _sides(described, mix, base, (lam,))
        direct = _sides(described, mix.dilated(lam), dilated, (1.0,))
        for [(p_lhs, p_rhs)], [(lhs, rhs)] in zip(predicted, direct):
            assert lhs == pytest.approx(p_lhs, rel=1e-4)
            assert rhs == pytest.approx(p_rhs, rel=1e-4)

    def test_one_call_gives_each_lemma_alone(self):
        # the shared evaluation changes no number: every lemma's rows and
        # statistics equal those of a call for that lemma alone
        together = probe_inequality(PROBE_LEMMAS, None, family_seed=7, n_members=4,
                                    n_cells=512).stats
        for stats in together:
            [alone] = probe_inequality([stats.lemma], None, family_seed=7, n_members=4,
                                       n_cells=512).stats
            assert stats == alone


class TestDerivedScalingLaws:
    def test_convolution_dilation_exponent(self):
        # || f_lam * |.|^mu ||_oo = lam^{-3-mu} || f * |.|^mu ||_oo
        mu, lam = -1.0, 2.0
        base = gaussian_field(RadialGrid(2048, 14.0), sigma=1.0, mass=1.0)
        dil = gaussian_field(RadialGrid(2048, 14.0 / lam), sigma=1.0 / lam,
                             mass=lam**-3)
        c0 = radial_convolve(base.grid, base.values, mu).max()
        c1 = radial_convolve(dil.grid, dil.values, mu).max()
        assert c1 == pytest.approx(lam ** (-3.0 - mu) * c0, rel=1e-5)

    def test_a4_far_field_gaussian(self):
        # far-field check: <r> * (f * |.|^-1) stays bounded by ~mass
        f = gaussian_field(RadialGrid(2048, 14.0), sigma=1.0, mass=1.0)
        conv = radial_convolve(f.grid, f.values, -1.0)
        r = f.grid.centers
        weighted = np.sqrt(1 + r**2) * conv
        assert weighted.max() <= 1.2
        # and the far field is the point-mass kernel
        sel = r > 6.0
        assert np.max(np.abs(conv[sel] * r[sel] - 1.0)) <= 1e-3


class TestFamily:
    def test_family_deterministic(self):
        a = random_family(4, 9)
        b = random_family(4, 9)
        for ma, mb in zip(a, b):
            assert np.array_equal(ma.amplitudes, mb.amplitudes)
            assert np.array_equal(ma.widths, mb.widths)

    def test_analytic_derivatives(self):
        mix = random_family(1, 3)[0]
        r = np.linspace(0.1, 5.0, 40)
        h = 1e-6
        p, dp, d2p = mix.derivatives(r)
        fd1 = (mix.derivatives(r + h)[0] - mix.derivatives(r - h)[0]) / (2 * h)
        assert np.max(np.abs(fd1 - dp)) <= 1e-7
        h = 1e-4  # second differences hit the roundoff floor sooner
        fd2 = (mix.derivatives(r + h)[0] - 2 * p + mix.derivatives(r - h)[0]) / h**2
        assert np.max(np.abs(fd2 - d2p)) <= 1e-6
