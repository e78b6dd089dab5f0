import inspect
import sys
from collections import defaultdict

import numpy as np
import pytest

from ksflow.kernels import PowerLaw
from ksflow.lifted import operators as ops
from ksflow.lifted import suites
from ksflow.lifted.frames import Points
from ksflow.lifted.gaussians import (
    Gaussian6,
    Mixture6,
    MixtureHessian,
    isotropic_gaussian,
    random_spd,
    random_symmetric_mixture,
)
from ksflow.lifted.suites import (
    SUITES,
    _dissipation_pairings,
    derivative_identity_rows,
    dissipation_rows,
    run_commutators_suite,
    run_dissipation_suite,
    run_flows_suite,
    run_frames_suite,
    run_marginal_suite,
    run_maxwell_suite,
    run_qks_pointwise_suite,
)

N_SMALL = 1 << 16


def assert_all_pass(rows):
    bad = [r for r in rows if r["verdict"] == "fail"]
    assert not bad, bad


class TestPointwiseSuites:
    def test_frames(self):
        assert_all_pass(run_frames_suite(seed=2))

    def test_commutators(self):
        assert_all_pass(run_commutators_suite(seed=2))

    def test_flows(self):
        assert_all_pass(run_flows_suite(seed=2))

    def test_qks_pointwise(self):
        assert_all_pass(run_qks_pointwise_suite(seed=2))


class TestMcSuites:
    def test_maxwell(self):
        rows = run_maxwell_suite(seed=2, n_samples=N_SMALL)
        assert_all_pass(rows)
        names = {r["identity"] for r in rows}
        assert any("second_order_sign" in n for n in names)

    def test_dissipation_inside_window(self):
        rows = run_dissipation_suite(seed=2, gammas=(-2.5,), n_samples=N_SMALL)
        assert_all_pass(rows)

    def test_dissipation_outside_window_is_exploratory(self):
        # gamma = 1 sits above the admissible window: values still reported,
        # sign assertions skipped
        rows = dissipation_rows(isotropic_gaussian(), PowerLaw(1.0), N_SMALL, 2)
        verdicts = {r["identity"].split(":")[-1]: r["verdict"] for r in rows}
        assert verdicts["qks_pairing_nonpositive"] == "skip"
        assert verdicts["combined_bound"] == "skip"
        # the unconditional rows still run
        assert verdicts["remainder_bound"] in ("pass", "fail")

    def test_marginal(self):
        assert_all_pass(run_marginal_suite(seed=2, n_samples=N_SMALL))


PAIRING_DENSITIES = {
    "iso_gaussian": isotropic_gaussian(),
    "mixture3": random_symmetric_mixture(3, 6, mean_spread=2.0),
    # no swap symmetry, off-diagonal v-w precision blocks
    "asymmetric": Mixture6([
        Gaussian6(1.0, np.array([1.0, 0.0, 0.0, -0.5, 0.3, 0.0]),
                  random_spd(np.random.default_rng(5))),
        Gaussian6(0.5, np.array([0.0, 1.0, 0.0, 0.5, 0.0, 0.2]),
                  random_spd(np.random.default_rng(6))),
    ]),
}


class TestDissipationPairing:
    """The dissipation integrand (Q_KS direct, Q_L through a_ij) against the
    frame route it replaced (Q_L by frames, L0 L0 + beta1 L0 by frames)."""

    @pytest.mark.parametrize("gamma", [-2.9, -2.5, 0.0, 0.8])
    @pytest.mark.parametrize("name", list(PAIRING_DENSITIES))
    def test_matches_the_frame_route(self, name, gamma):
        F = PAIRING_DENSITIES[name]
        pot = PowerLaw(gamma)
        rng = np.random.default_rng(7)
        x, normals = np.empty((2, 4096, 6))
        F.sample(F.component_counts(4096, rng), rng, out=x, normals=normals)
        F_val, grad, hess = F.eval(x)
        got = _dissipation_pairings(pot, x, F_val, grad, hess)
        p = Points(x)
        weight = ops.first_variation_density(F_val, grad, hess) / F_val
        ql = ops.apply_QL(pot, p, grad, hess, form="frames")
        rest = (ops.apply_L0L0(pot, p, grad, hess)
                + ops.beta1(pot, p) * ops.apply_L0(pot, p, grad))
        want = {"qks": weight * (ql + rest), "ql": weight * ql, "rest": weight * rest}
        assert set(got) == set(want)
        scale = np.max(np.abs(want["qks"]))
        for key in want:
            assert np.max(np.abs(got[key] - want[key])) <= 1e-12 * scale, key

    def test_integrand_makes_no_hessian_matvec(self, monkeypatch):
        calls = []
        matvec = MixtureHessian.matvec

        def counted(self, v):
            calls.append(len(v))
            return matvec(self, v)

        monkeypatch.setattr(MixtureHessian, "matvec", counted)
        F = PAIRING_DENSITIES["mixture3"]
        dissipation_rows(F, PowerLaw(-2.5), 4096, 0)
        assert calls == []
        # the counter sees the frame route's matvecs
        rng = np.random.default_rng(8)
        x, normals = np.empty((2, 64, 6))
        F.sample(F.component_counts(64, rng), rng, out=x, normals=normals)
        _, grad, hess = F.eval(x)
        ops.apply_QL(PowerLaw(-2.5), x, grad, hess, form="frames")
        assert len(calls) == 3


def every_integrand(monkeypatch):
    """(F, integrand, order) of every estimate the maxwell, derivatives and
    dissipation suites make at seed 0, with no sample drawn."""
    made = []

    def recording(F, integrand, n_samples, seed, stream=0, order=2):
        made.append((F, integrand, order))
        return defaultdict(lambda: suites.McEstimate(0.0, 1.0))

    monkeypatch.setattr(suites, "estimate_many", recording)
    for run in (run_maxwell_suite, suites.run_derivatives_suite, run_dissipation_suite):
        run(seed=0)
    monkeypatch.undo()
    return made


def test_integrands_agree_on_column_major_and_c_ordered_blocks(monkeypatch):
    # the blocks estimate_many hands an integrand are column-major; the same
    # integrand on C-ordered copies, with a MixtureHessian rebuilt from a
    # C-ordered Ad, gives the same values up to rounding
    made = every_integrand(monkeypatch)
    assert len(made) == 4 + 18 + 24
    n = 512
    for i, (F, integrand, order) in enumerate(made):
        rng = np.random.default_rng(i)
        x = np.empty(6 * n).reshape(6, n).T
        F.sample(F.component_counts(n, rng), rng, out=x, normals=np.empty((n, 6)))
        F_val, grad, hess = F.eval(x, order=order)
        assert grad.flags.f_contiguous
        oracle = None if hess is None else MixtureHessian(
            hess.comp, np.ascontiguousarray(hess.Ad), hess.precisions)
        got = integrand(x, F_val, grad, hess)
        want = integrand(np.ascontiguousarray(x), F_val, np.ascontiguousarray(grad), oracle)
        assert list(got) == list(want)
        for name, values in want.items():
            scale = np.max(np.abs(values))
            assert np.max(np.abs(got[name] - values)) <= 1e-13 * scale, (i, name)


class TestWindowAlgebra:
    def test_polynomial_roots(self):
        hi = -2 + 2 * np.sqrt(2)
        lo = 2 - 3 * np.sqrt(3)
        assert abs(2 * hi**2 + 8 * hi - 8) <= 1e-12
        assert abs(lo**2 - 4 * lo - 23) <= 1e-12


#: the equality-row families whose variance is finite at every gamma of the
#: z-score test, by the identity suffix after the last ":"
Z_FAMILIES = ("L0_pairing_decomposition", "tangent_weight_derivative",
              "normal_weight_derivative", "full_weight_derivative",
              "first_order_pairing", "nu1_pairing", "nu2_pairing", "nu3_pairing")
Z_BAND = (0.5, 1.3)


def test_pooled_z_scores_fit_the_stated_standard_errors():
    """Each family's rms z = (lhs - rhs) / stderr lies in Z_BAND.

    The rows are those of `derivative_identity_rows` on the derivatives
    suite's mixture at gamma = -1, 0 and 0.8, where every side has finite
    variance, and of the maxwell suite, at seeds 0-19 and 2^14 samples:
    60 z-scores per derivatives family, 40 per maxwell family.

    For m independent N(0, 1) z-scores the rms is about 1 +- 1/sqrt(2m),
    1 +- 0.09 at m = 60.  The z-scores of one seed share its sample streams,
    so they are correlated, and over 100 disjoint sets of 20 seeds
    (1000-2999) each family's rms had a spread of 0.11-0.14.  There a
    family left the band in 9 of 800 family-sets, about 1 % each, and 7 of
    the 100 sets had some family outside it: that is this test's
    false-alarm rate for a new choice of seeds or streams.  A stderr about
    1.3x too small, as the root-sum-square of the three correlated l43a_k
    stderrs is, puts tangent_weight_derivative outside the band in 38 of
    those 100 sets, and at 1.336 at these seeds.
    """
    z = defaultdict(list)
    for seed in range(20):
        F = random_symmetric_mixture(2, seed + 3, mean_spread=2.5)
        rows = [row for gamma in (-1.0, 0.0, 0.8)
                for row in derivative_identity_rows(F, PowerLaw(gamma), 1 << 14, seed)]
        for row in rows + run_maxwell_suite(seed, 1 << 14):
            family = row["identity"].split(":")[-1]
            if family in Z_FAMILIES:
                z[family].append((row["lhs"] - row["rhs"]) / row["stderr"])
    assert set(z) == set(Z_FAMILIES)
    rms = {family: float(np.sqrt(np.mean(np.square(v)))) for family, v in z.items()}
    assert all(Z_BAND[0] <= v <= Z_BAND[1] for v in rms.values()), rms


# ---------------------------------------------------------------------------
# planted defects in the lifted code
# ---------------------------------------------------------------------------

#: defect -> (function, text, replacement, suite, a row of the suite that
#: the defect fails at seed 3 and 2^12 samples)
MUTATIONS = {
    "qks_direct_drift_x1.01": (
        ops.apply_QKS, "first = (2.0 * Kp / r)", "first = 1.01 * (2.0 * Kp / r)",
        "qks", "direct_vs_decomposed gamma=-2.5"),
    "qks_diffusion_x1.01": (
        ops.apply_QKS, "return first + K *", "return first + 1.01 * K *",
        "qks", "direct_vs_decomposed gamma=-2.5"),
    "beta1_6_to_6.06": (
        ops.beta1, "return 6.0 * sq", "return 6.06 * sq",
        "qks", "direct_vs_decomposed gamma=-2.5"),
    "beta1_L0_sign": (
        ops.apply_QKS, "+ beta1(pot, p) * apply_L0", "- beta1(pot, p) * apply_L0",
        "qks", "direct_vs_decomposed gamma=-2.5"),
    "ql_aij_drift_x1.01": (
        ops.apply_QL, "first = -4.0 * a *", "first = 1.01 * -4.0 * a *",
        "qks", "QL_frames_vs_aij gamma=-2.5"),
    "normal_quadratic_without_half": (
        suites._normal_quadratic, "/ (2.0 * p.r**2)", "/ p.r**2",
        "derivatives", "gamma=-1:normal_weight_derivative"),
    "tangential_19_to_15": (
        suites.bound_coefficients, "G * G - 19.0", "G * G - 15.0",
        "derivatives", "root_G2-4G-23_at_lo"),
}


def _plant(monkeypatch, fn, text, replacement):
    """Replace fn in its module by a copy of its source with text replaced."""
    source = inspect.getsource(fn)
    assert source.count(text) == 1, text
    module = sys.modules[fn.__module__]
    code = compile(source.replace(text, replacement), inspect.getsourcefile(fn), "exec")
    scope = {}
    exec(code, vars(module), scope)
    monkeypatch.setattr(module, fn.__name__, scope[fn.__name__])


def _verdicts(suite):
    """identity -> verdict of one verify-lifted suite at seed 3, 2^12 samples."""
    run = SUITES[suite]
    kwargs = {"n_samples": 1 << 12} if "n_samples" in inspect.signature(run).parameters else {}
    return {row["identity"]: row["verdict"] for row in run(seed=3, **kwargs)}


@pytest.mark.parametrize("defect", list(MUTATIONS))
def test_verify_lifted_fails_on_its_planted_defect(defect, monkeypatch):
    fn, text, replacement, suite, identity = MUTATIONS[defect]
    assert _verdicts(suite)[identity] == "pass"
    _plant(monkeypatch, fn, text, replacement)
    assert _verdicts(suite)[identity] == "fail"
