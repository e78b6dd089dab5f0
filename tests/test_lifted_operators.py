import numpy as np
import pytest

from ksflow.kernels import PowerLaw, SoftenedPowerLaw
from ksflow.lifted import operators as ops
from ksflow.lifted.gaussians import MixtureHessian, isotropic_gaussian, random_symmetric_mixture
from ksflow.lifted.suites import sample_points


F = random_symmetric_mixture(2, 21)
X = sample_points(100, seed=20)


def q_ks(G, pot, form):
    """Q_KS of the mixture G at X."""
    _, grad, hess = G.eval(X)
    return ops.apply_QKS(pot, X, grad, hess, form=form)


class TestWeights:
    def test_power_law_betas(self):
        # alpha = r^gamma: beta1 = (6+gamma) r^{gamma/2}, beta2 = (2+gamma) r^{gamma/2}
        gamma = -2.5
        pot = PowerLaw(gamma)
        r = np.linalg.norm(X[:, :3] - X[:, 3:], axis=1)
        assert np.allclose(ops.beta1(pot, X), (6 + gamma) * r ** (gamma / 2), rtol=1e-12)
        assert np.allclose(ops.beta2(pot, X), (2 + gamma) * r ** (gamma / 2), rtol=1e-12)

    def test_beta1_is_divergence_of_sqrt_alpha_b0(self):
        pot = PowerLaw(-2.5)
        tr = np.einsum("nii->n", ops.sqrt_alpha_b0_jacobian(pot, X).dense())
        assert np.allclose(tr, ops.beta1(pot, X), rtol=1e-12)

    def test_divergence_closed_forms_against_finite_differences(self):
        pot = SoftenedPowerLaw(-2.7, eps=0.2)
        x = X[:8]
        h = 1e-6
        for beta_fn, div_fn in ((ops.beta1, ops.div_beta1_sqrt_alpha_b0),
                                (ops.beta2, ops.div_beta2_sqrt_alpha_b0)):
            fd = np.zeros(len(x))
            for i in range(6):
                dx = np.zeros(6)
                dx[i] = h
                fp = beta_fn(pot, x + dx)[:, None] * ops.sqrt_alpha_b0(pot, x + dx)
                fm = beta_fn(pot, x - dx)[:, None] * ops.sqrt_alpha_b0(pot, x - dx)
                fd += (fp[:, i] - fm[:, i]) / (2 * h)
            assert np.max(np.abs(fd - div_fn(pot, x))) <= 1e-5 * np.max(np.abs(fd))

    def test_jacobian_decomposition(self):
        for gamma in (-3.0, -2.5, -1.0, 0.0):
            pot = PowerLaw(gamma)
            J = ops.sqrt_alpha_b0_jacobian(pot, X).dense()
            Jd = ops.sqrt_alpha_b0_jacobian_decomposed(pot, X)
            assert np.max(np.abs(J - Jd)) <= 1e-10 * np.max(np.abs(J))


class TestOperators:
    @pytest.mark.parametrize("gamma", [-3.0, -2.5, -1.0, 0.0])
    def test_direct_vs_decomposed(self, gamma):
        pot = PowerLaw(gamma)
        direct = q_ks(F, pot, "direct")
        decomp = q_ks(F, pot, "decomposed")
        scale = np.max(np.abs(direct)) + 1e-300
        assert np.max(np.abs(direct - decomp)) <= 1e-8 * scale

    @pytest.mark.parametrize("gamma", [-3.0, -2.5, 0.0])
    def test_ql_frames_vs_aij(self, gamma):
        pot = PowerLaw(gamma)
        _, grad, hess = F.eval(X)
        frames = ops.apply_QL(pot, X, grad, hess, form="frames")
        aij = ops.apply_QL(pot, X, grad, hess, form="aij")
        assert np.max(np.abs(frames - aij)) <= 1e-9 * (np.max(np.abs(aij)) + 1e-300)

    def test_maxwell_molecule_reduction(self):
        pot = PowerLaw(0.0)
        _, grad, hess = F.eval(X)
        direct = ops.apply_QKS(pot, X, grad, hess, form="direct")
        composed = (
            ops.apply_QL(pot, X, grad, hess, form="frames")
            + ops.apply_L0L0(pot, X, grad, hess)
            + 6.0 * ops.apply_L0(pot, X, grad)
        )
        assert np.max(np.abs(direct - composed)) <= 1e-10 * np.max(np.abs(direct))

    def test_constant_density_annihilated(self):
        # a constant F has zero gradient and Hessian: every form returns 0
        pot = PowerLaw(-2.5)
        n = X.shape[0]
        zero_hessian = MixtureHessian(np.zeros((1, n)), np.zeros((1, n, 6)),
                                      np.zeros((1, 6, 6)))
        zero_grad = np.zeros((n, 6))
        for form in ("direct", "decomposed"):
            assert np.all(ops.apply_QKS(pot, X, zero_grad, zero_hessian, form=form) == 0.0)
        for form in ("frames", "aij"):
            assert np.all(ops.apply_QL(pot, X, zero_grad, zero_hessian, form=form) == 0.0)

    def test_radial_in_z_annihilated_by_ql_when_alpha_constant(self):
        # F depending on |v - w| only: bt_k tangent to its level sets
        from ksflow.lifted.gaussians import Gaussian6, Mixture6

        A = np.zeros((6, 6))
        A[:3, :3] = np.eye(3)
        A[3:, 3:] = np.eye(3)
        A[:3, 3:] = -np.eye(3)
        A[3:, :3] = -np.eye(3)
        # precision 0.5*(quadratic in v-w) + tiny isotropic regularizer
        G = Mixture6([Gaussian6(1.0, np.zeros(6), 0.5 * A + 1e-8 * np.eye(6))])
        pot = PowerLaw(0.0)
        _, grad, hess = G.eval(X)
        ql = ops.apply_QL(pot, X, grad, hess, form="frames")
        scale = np.max(np.abs(grad)) + 1e-300
        assert np.max(np.abs(ql)) <= 1e-6 * scale

    def test_linearity_in_density(self):
        pot = PowerLaw(-2.5)
        a = isotropic_gaussian(scale=1.0)
        b = isotropic_gaussian(scale=1.7, weight=0.3)
        from ksflow.lifted.gaussians import Mixture6

        combined = Mixture6(list(a.components) + list(b.components))
        qa, qb, qc = (q_ks(G, pot, "direct") for G in (a, b, combined))
        assert np.max(np.abs(qc - qa - qb)) <= 1e-12 * (np.max(np.abs(qc)) + 1e-300)


class TestFirstVariationDensity:
    def test_matches_functional_derivative_definition(self):
        # d/deps I(F + eps G) at 0 = int psi G for mixtures F, G
        from ksflow.lifted.gaussians import Mixture6, Gaussian6

        Fm = isotropic_gaussian()
        G = Mixture6([Gaussian6(0.5, 0.3 * np.ones(6), 1.3 * np.eye(6))])
        rng = np.random.default_rng(23)
        # quadrature on a coarse MC cloud: compare analytic pairing integrand
        # against a finite difference of I along F + eps G at fixed samples
        x, normals = np.empty((2, 200_000, 6))
        Fm.sample(Fm.component_counts(200_000, rng), rng, out=x, normals=normals)
        Fv, Fg, Fh = Fm.eval(x)
        Gv, Gg, _ = G.eval(x)
        psi = ops.first_variation_density(Fv, Fg, Fh)
        pairing = np.mean(psi * Gv / Fv) * Fm.mass

        def fisher_mc(eps):
            # F-sampled estimator of I(F + eps G) on frozen samples
            val = Fv + eps * Gv
            grad = Fg + eps * Gg
            return np.mean(
                np.einsum("ni,ni->n", grad, grad) / val / Fv
            ) * Fm.mass

        eps = 1e-4
        fd = (fisher_mc(eps) - fisher_mc(-eps)) / (2 * eps)
        # on frozen samples the FD reproduces the pre-integration-by-parts
        # first-variation integrand exactly (up to O(eps^2)):
        direct = np.mean(
            (2 * np.einsum("ni,ni->n", Fg, Gg) / Fv
             - np.einsum("ni,ni->n", Fg, Fg) * Gv / Fv**2) / Fv
        ) * Fm.mass
        assert fd == pytest.approx(direct, rel=1e-4)
        # and the integration-by-parts form agrees statistically (same samples)
        assert pairing == pytest.approx(direct, abs=3e-2)
