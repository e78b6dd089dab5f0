import gc
import tracemalloc

import numpy as np
import pytest

from ksflow.cli import main
from ksflow.grids import RadialField, RadialGrid, gaussian_field, weighted_lp_norm
from ksflow.kernels import radial_convolve
from ksflow import probes
from ksflow.probes import (
    DEFAULT_LAMBDAS,
    DEFAULT_PARAMS,
    PROBE_LEMMAS,
    ProbeError,
    RadialMixture,
    Term,
    _LEMMAS,
    _sides,
    _weight_tables,
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
        assert len(result.rows) == 3 * len(DEFAULT_LAMBDAS)
        for row in result.rows:
            assert set(row) == {"lemma", "seed", "lambda", "lhs", "rhs", "ratio"}

    def test_zero_member_skipped(self):
        probe_inequality(["A1"], None, family_seed=1, n_members=2,
                         n_cells=512, lambdas=(1.0,))
        # inject a zero member by hand and re-run the side computation
        zero = RadialMixture(np.array([0.0]), np.array([1.0]))
        grid = RadialGrid(512, 12.0)
        lhs, rhs = _sides([describe("A1")], [zero], grid, (1.0,))[0, 0, :, 0]
        assert lhs == 0.0 and rhs == 0.0

    def test_a_64_member_result_is_held_in_columns(self):
        # 1600 rows held as columns: about 36 KB, where one dict per row
        # held about 0.57 MB
        tracemalloc.start()
        try:
            result = probe_inequality(n_members=64)
            gc.collect()
            alive = tracemalloc.get_traced_memory()[0]
            assert len(result.rows) == len(PROBE_LEMMAS) * len(DEFAULT_LAMBDAS) * 64
            del result
            gc.collect()
            retained = alive - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 128 * 1024


@pytest.mark.parametrize("side, value", [(0, np.nan), (1, 0.0)])
def test_a_non_finite_ratio_fails_the_lemma(monkeypatch, capsys, tmp_path, side, value):
    # a nan lhs, or a zero rhs, on one direct side of a 4-member A1 probe
    planted = []

    def sides(lemmas, family, grid, scales):
        out = _sides(lemmas, family, grid, scales)
        if scales == (1.0,) and not planted:
            out[1, 0, side, 0] = value
            planted.append(grid)
        return out

    monkeypatch.setattr(probes, "_sides", sides)
    [stats] = probe_inequality(["A1"], None, family_seed=0, n_members=4).stats
    assert not np.isfinite(stats.max_ratio) and not stats.passed
    assert not np.isfinite(stats.scaling_deviation)
    planted.clear()
    assert main(["probe", "--lemma", "A1", "--members", "4", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.startswith("probe_A1 = fail")
    row = (tmp_path / "probes.csv").read_text().splitlines()[2].split(",")
    assert row[-1] == ("nan" if side == 0 else "inf")


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_derivative_fails_the_lemma(monkeypatch, capsys, tmp_path, value):
    # a non-finite p'' at one node of every member on every grid: A5's
    # D^2 f term, and so its rhs, is non-finite, and the lemma fails
    # through the non-finite ratio and scaling rule instead of raising
    derivatives = RadialMixture.derivatives

    def planted(mix, r, order=2):
        out = derivatives(mix, r, order)
        if order >= 2:
            out[2][len(r) // 2] = value
        return out

    monkeypatch.setattr(RadialMixture, "derivatives", planted)
    [stats] = probe_inequality(["A5"], None, family_seed=0, n_members=4).stats
    assert not stats.passed and not np.isfinite(stats.scaling_deviation)
    assert not np.any(np.isfinite(stats.rhs)) and np.all(np.isfinite(stats.lhs))
    assert main(["probe", "--lemma", "A5", "--members", "4", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.startswith("probe_A5 = fail")
    rows = (tmp_path / "probes.csv").read_text().splitlines()
    assert len(rows) == 1 + 4 * len(DEFAULT_LAMBDAS)
    assert {row.split(",")[4] for row in rows[1:]} == {"nan" if np.isnan(value) else "inf"}


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
        [predicted] = _sides([describe(lemma)], [mix], grid, DEFAULT_LAMBDAS)
        [direct] = _sides([describe(lemma)], [mix.dilated(1.0)], grid, (1.0,))
        assert np.array_equal(predicted[..., DEFAULT_LAMBDAS.index(1.0)], direct[..., 0])

    def test_terms_follow_the_dilation_law(self):
        # || <.>^m D f_lam ||_p = lam^(k - 3/p) || <./lam>^m D f ||_p: the
        # predicted sides at lam match the sides of the dilated member
        mix = random_family(1, 6)[0]
        lam = 2.0
        base = RadialGrid(4096, 14.0)
        dilated = RadialGrid(4096, 14.0 / lam)
        described = [describe(lemma) for lemma in PROBE_LEMMAS]
        predicted = _sides(described, [mix], base, (lam,))[0, ..., 0]
        direct = _sides(described, [mix.dilated(lam)], dilated, (1.0,))[0, ..., 0]
        for (p_lhs, p_rhs), (lhs, rhs) in zip(predicted, direct):
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


def one_scale_norm(term, values, grid, scale):
    """|| <./scale>^m D f ||_{L^p} one scale at a time, with the weights
    recomputed on each call: the path the weight tables replace."""
    if term.kind in ("f", "conv"):
        w = (1.0 + (grid.centers / scale) ** 2) ** (0.5 * term.m)
        g = w * np.abs(values)
        if term.p == np.inf:
            return float(g.max())
        return float(np.sum(grid.weights * g**term.p) ** (1.0 / term.p))
    w2 = (1.0 + (grid.centers / scale) ** 2) ** term.m
    return float(np.sqrt(np.sum(grid.weights * w2 * values)))


def derivatives_oracle(mix, r, order):
    """(p, p', p'') with the components along a short last axis, (n, k)."""
    r = np.asarray(r, dtype=float)[..., None]
    e = np.exp(-0.5 * (r / mix.widths) ** 2)
    out = [np.sum(mix.amplitudes * e, axis=-1)]
    if order >= 1:
        out.append(np.sum(-mix.amplitudes * r / mix.widths**2 * e, axis=-1))
    if order >= 2:
        out.append(np.sum(
            mix.amplitudes * (r**2 / mix.widths**4 - 1.0 / mix.widths**2) * e, axis=-1))
    return tuple(out)


class TestFastPathsKeepTheBits:
    def test_component_major_derivatives(self, monkeypatch):
        # every (member, grid) pair a 64-member probe evaluates: the base
        # grid and the five direct grids, and a zero-amplitude member
        calls = []
        derivatives = RadialMixture.derivatives

        def recording(mix, r, order=2):
            calls.append((mix, r))
            return derivatives(mix, r, order)

        monkeypatch.setattr(RadialMixture, "derivatives", recording)
        probe_inequality(n_members=64)
        monkeypatch.undo()
        assert len(calls) == 64 * (1 + len(DEFAULT_LAMBDAS))
        assert len({id(r) for _, r in calls}) == 1 + len(DEFAULT_LAMBDAS)
        calls.append((RadialMixture(np.array([0.0]), np.array([1.0])), calls[0][1]))
        for mix, r in calls:
            for order in (0, 1, 2):
                got, want = mix.derivatives(r, order), derivatives_oracle(mix, r, order)
                assert len(got) == len(want) == order + 1
                assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_weight_tables_are_the_per_call_weights(self):
        grid = RadialGrid(2805, 25.0)
        terms = list(dict.fromkeys(t for lemma in PROBE_LEMMAS
                                   for lhs, rhs, _ in [describe(lemma)]
                                   for t in (lhs, *rhs)))
        tables = _weight_tables(terms, grid, DEFAULT_LAMBDAS)
        for t, table in zip(terms, tables):
            assert table.shape == (len(DEFAULT_LAMBDAS), grid.n_cells)
            for row, lam in zip(table, DEFAULT_LAMBDAS):
                bracket = 1.0 + (grid.centers / lam) ** 2
                fresh = (grid.weights * bracket**t.m if t.kind in ("grad", "hess")
                         else bracket ** (0.5 * t.m))
                assert np.array_equal(row, fresh), t
        # one table per distinct weight: four <.>^m, two weights * <.>^(2m)
        assert len({id(table) for table in tables}) == 6 < len(terms)

    def test_norms_at_every_scale_are_the_one_scale_norms(self):
        grid = RadialGrid(2805, 25.0)
        mix = random_family(1, 8)[0]
        described = [describe(lemma) for lemma in PROBE_LEMMAS]
        terms = list(dict.fromkeys(t for lhs, rhs, _ in described for t in (lhs, *rhs)))
        tables = _weight_tables(terms, grid, DEFAULT_LAMBDAS)
        checked = 0
        for key, values in probes._pointwise(mix, grid, {(t.kind, t.mu) for t in terms}):
            for t, table in zip(terms, tables):
                if (t.kind, t.mu) == key:
                    got = t.norms(values, grid, table, DEFAULT_LAMBDAS)
                    want = [lam**t.exponent * one_scale_norm(t, values, grid, lam)
                            for lam in DEFAULT_LAMBDAS]
                    assert got.tolist() == want, t
                    checked += 1
        assert checked == len(terms)
        # at scale 1 the f terms are the grids' own weighted norms
        f = RadialField(grid, mix.derivatives(grid.centers, 0)[0])
        assert (one_scale_norm(Term("f", 3.0, 1.5), f.values, grid, 1.0)
                == weighted_lp_norm(f, 3.0, 1.5))


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
