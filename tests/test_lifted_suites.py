import numpy as np
import pytest

from ksflow.kernels import PowerLaw
from ksflow.lifted import operators as ops
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
    _dissipation_pairings,
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
        assert_all_pass(run_commutators_suite(seed=2, n_points=50))

    def test_flows(self):
        assert_all_pass(run_flows_suite(seed=2))

    def test_qks_pointwise(self):
        assert_all_pass(run_qks_pointwise_suite(seed=2, n_points=50))


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
        x = F.sample(F.component_counts(4096, rng), rng)
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
        x = F.sample(F.component_counts(64, rng), rng)
        _, grad, hess = F.eval(x)
        ops.apply_QL(PowerLaw(-2.5), x, grad, hess, form="frames")
        assert len(calls) == 3


class TestWindowAlgebra:
    def test_polynomial_roots(self):
        hi = -2 + 2 * np.sqrt(2)
        lo = 2 - 3 * np.sqrt(3)
        assert abs(2 * hi**2 + 8 * hi - 8) <= 1e-12
        assert abs(lo**2 - 4 * lo - 23) <= 1e-12
