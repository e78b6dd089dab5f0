import numpy as np
import pytest

from ksflow.kernels import PowerLaw
from ksflow.lifted import operators as ops
from ksflow.lifted.frames import (
    FRAME_NAMES,
    FrameError,
    _grad_along,
    commutator_apply,
    commutator_field,
    flow,
    frame_identities,
    vf_divergence,
    vf_eval,
    vf_jacobian,
)
from ksflow.lifted.gaussians import (
    Gaussian6,
    Mixture6,
    MixtureError,
    isotropic_gaussian,
    random_symmetric_mixture,
    tensor_product,
)


def rand_points(n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6))
    z = x[:, :3] - x[:, 3:]
    return x[np.linalg.norm(z, axis=1) > 0.3]


class TestMixtureEval:
    def test_single_gaussian_stationary_point(self):
        F = isotropic_gaussian()
        x = np.zeros((1, 6))
        val, grad, hess = F.eval(x)
        assert val[0] == pytest.approx((2 * np.pi) ** -3)
        assert np.allclose(grad, 0.0)
        assert np.allclose(hess[0], -val[0] * np.eye(6))

    def test_finite_difference_cross_check(self):
        F = random_symmetric_mixture(2, 3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 6))
        val, grad, hess = F.eval(x)
        h = 1e-5
        scale = np.abs(val).max()
        for i in range(6):
            dx = np.zeros(6)
            dx[i] = h
            fp = F.eval_density(x + dx)
            fm = F.eval_density(x - dx)
            fd = (fp - fm) / (2 * h)
            assert np.max(np.abs(fd - grad[:, i])) <= 1e-6 * scale
            fd2 = (fp - 2 * val + fm) / h**2
            assert np.max(np.abs(fd2 - hess[:, i, i])) <= 1e-4 * scale

    def test_mixture_linearity(self):
        a = isotropic_gaussian(scale=1.0)
        b = isotropic_gaussian(scale=2.0, weight=0.5)
        both = Mixture6(list(a.components) + list(b.components))
        x = rand_points(20, seed=5)
        va, _, _ = a.eval(x)
        vb, _, _ = b.eval(x)
        vc, _, _ = both.eval(x)
        assert np.allclose(vc, va + vb, rtol=1e-14)

    def test_mass_and_sampling_determinism(self):
        F = random_symmetric_mixture(3, 7)
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        s1 = F.sample(1000, rng1)
        s2 = F.sample(1000, rng2)
        assert np.array_equal(s1, s2)

    def test_swap_symmetry_by_construction(self):
        F = random_symmetric_mixture(2, 11)
        x = rand_points(50, seed=2)
        sw = np.concatenate([x[:, 3:], x[:, :3]], axis=1)
        assert np.allclose(F.eval_density(x), F.eval_density(sw), rtol=1e-13)

    def test_tensor_product_mass(self):
        F = tensor_product([2.0], [np.zeros(3)], [np.eye(3)])
        assert F.mass == pytest.approx(4.0)
        assert F.symmetric

    def test_bad_precision_rejected(self):
        with pytest.raises(MixtureError):
            Gaussian6(1.0, np.zeros(6), -np.eye(6))
        with pytest.raises(MixtureError):
            Gaussian6(-1.0, np.zeros(6), np.eye(6))


class TestFrameEval:
    def test_b0_example(self):
        x = np.array([[1.0, 0, 0, 0, 0, 0]])
        assert np.allclose(vf_eval("B0", x), [[1, 0, 0, -1, 0, 0]])

    def test_tangency(self):
        x = rand_points(100, seed=3)
        b0 = vf_eval("B0", x)
        z = x[:, :3] - x[:, 3:]
        for k in (1, 2, 3):
            bk = vf_eval(f"B{k}", x)
            assert np.max(np.abs(np.einsum("ni,ni->n", bk, b0))) <= 1e-12
            # tangent to level sets of |v - w|
            assert np.max(np.abs(np.einsum("ni,ni->n", bk[:, :3], z))) <= 1e-12

    def test_unit_normal(self):
        x = rand_points(100, seed=4)
        n = vf_eval("N", x)
        assert np.max(np.abs(np.sum(n**2, axis=1) - 1.0)) <= 1e-13

    def test_n_rejected_on_diagonal(self):
        x = np.zeros((1, 6))
        with pytest.raises(FrameError):
            vf_eval("N", x)

    def test_frame_identities_random_points(self):
        x = rand_points(200, seed=6)
        res = frame_identities(x)
        assert all(v <= 1e-12 for v in res.values()), res

    def test_jacobians_match_finite_differences(self):
        x = rand_points(20, seed=8)
        h = 1e-6
        for name in ("B0", "B1", "N"):
            J = np.broadcast_to(vf_jacobian(name, x), (len(x), 6, 6))
            for j in range(6):
                dx = np.zeros(6)
                dx[j] = h
                fd = (vf_eval(name, x + dx) - vf_eval(name, x - dx)) / (2 * h)
                assert np.max(np.abs(fd - J[:, :, j])) <= 1e-7

    def test_divergences(self):
        x = rand_points(50, seed=9)
        assert np.allclose(vf_divergence("B0", x), 6.0)
        assert np.allclose(vf_divergence("B2", x), 0.0)
        z = x[:, :3] - x[:, 3:]
        r = np.linalg.norm(z, axis=1)
        assert np.allclose(vf_divergence("N", x), 2 * np.sqrt(2) / r)
        # trace of the analytic Jacobian agrees
        for name in ("B0", "N"):
            tr = np.einsum("nii->n", np.broadcast_to(vf_jacobian(name, x), (len(x), 6, 6)))
            assert np.allclose(tr, vf_divergence(name, x), rtol=1e-12)


class TestCommutators:
    def test_tangent_fields_commute_with_b0(self):
        F = random_symmetric_mixture(2, 13)
        x = rand_points(100, seed=10)
        _, grad, _ = F.eval(x)
        scale = np.max(np.abs(grad)) + 1.0
        for k in (1, 2, 3):
            got = commutator_apply(f"B{k}", "B0", F, x)
            assert np.max(np.abs(got)) <= 1e-10 * scale

    def test_normal_commutator(self):
        F = random_symmetric_mixture(2, 13)
        x = rand_points(100, seed=11)
        _, grad, _ = F.eval(x)
        n_dot = np.einsum("ni,ni->n", vf_eval("N", x), grad)
        got = commutator_apply("N", "B0", F, x)
        assert np.max(np.abs(got - 2.0 * n_dot)) <= 1e-10 * (np.max(np.abs(grad)) + 1)

    def test_constant_fields_commute_exactly(self):
        F = isotropic_gaussian()
        x = rand_points(10, seed=12)
        e1 = np.eye(6)[0]
        e2 = np.eye(6)[4]
        assert np.max(np.abs(commutator_apply(e1, e2, F, x))) == 0.0

    def test_commutator_field_vs_bracket_definition(self):
        # [a, b] = (Db)a - (Da)b reproduces a.grad(b.grad F) - b.grad(a.grad F)
        F = random_symmetric_mixture(2, 17)
        x = rand_points(50, seed=13)
        _, grad, _ = F.eval(x)
        field = commutator_field("N", "B1", x)
        via_field = np.einsum("ni,ni->n", field, grad)
        direct = commutator_apply("N", "B1", F, x)
        assert np.max(np.abs(via_field - direct)) <= 1e-10 * (np.max(np.abs(grad)) + 1)


class TestFlows:
    def test_b0_exponential_separation(self):
        x0 = np.array([[0.5, 0, 0, -0.5, 0, 0]])
        _, inv = flow("B0", x0, 0.5, dt=1e-3)
        assert inv["separation_ratio_sq"] == pytest.approx(np.exp(2.0), rel=1e-10)
        assert inv["midpoint_drift"] <= 1e-12

    def test_boltzmann_sphere_invariants(self):
        rng = np.random.default_rng(14)
        x0 = rng.standard_normal((4, 6))
        for k in (1, 2, 3):
            _, inv = flow(f"B{k}", x0, 1.0, dt=1e-3)
            assert inv["midpoint_drift"] <= 1e-10
            assert inv["norm_drift"] <= 1e-10
            assert inv["separation_drift"] <= 1e-10

    def test_zero_time_identity(self):
        x0 = np.array([[1.0, 2, 3, 4, 5, 6]])
        xt, _ = flow("B1", x0, 0.0)
        assert np.array_equal(xt, x0)


# every frame name plus two constant vectors, one a unit vector
FIELDS = [*FRAME_NAMES, np.eye(6)[0], np.array([0.3, -1.2, 0.5, 2.0, 0.0, -0.7])]
FIELD_IDS = [*FRAME_NAMES, "e1", "const"]


def dense_jacobian(name, x):
    return np.broadcast_to(vf_jacobian(name, x), (len(x), 6, 6))


def rel_err(got, want, scale):
    return np.max(np.abs(got - want)) / scale


class TestContractionPath:
    """The one contraction of fields with mixture derivatives against the
    dense broadcast (n, 6, 6) einsum forms it replaced."""

    F = random_symmetric_mixture(2, 21)
    x = rand_points(200, seed=22)

    def test_jacobian_shape_rule(self):
        for name in FIELDS:
            J = vf_jacobian(name, self.x)
            if isinstance(name, str) and name == "N":
                assert J.shape == (len(self.x), 6, 6)
            else:
                assert J.shape == (6, 6) and not J.flags.writeable

    @pytest.mark.parametrize("name", FIELDS, ids=FIELD_IDS)
    def test_grad_along_matches_dense(self, name):
        _, grad, hess = self.F.eval(self.x)
        v = vf_eval(name, self.x)
        dense = (np.einsum("nji,nj->ni", dense_jacobian(name, self.x), grad)
                 + np.einsum("nij,nj->ni", hess, v))
        got = _grad_along(vf_jacobian(name, self.x), v, grad, hess)
        assert rel_err(got, dense, np.max(np.abs(dense)) + 1e-300) <= 1e-13

    @pytest.mark.parametrize("a", FIELDS, ids=FIELD_IDS)
    def test_commutator_apply_matches_dense(self, a):
        _, grad, hess = self.F.eval(self.x)
        va, Ja = vf_eval(a, self.x), dense_jacobian(a, self.x)
        for b in FIELDS:
            vb, Jb = vf_eval(b, self.x), dense_jacobian(b, self.x)
            gb = np.einsum("nji,nj->ni", Jb, grad) + np.einsum("nij,nj->ni", hess, vb)
            ga = np.einsum("nji,nj->ni", Ja, grad) + np.einsum("nij,nj->ni", hess, va)
            first = np.einsum("ni,ni->n", va, gb)
            second = np.einsum("ni,ni->n", vb, ga)
            scale = np.max(np.abs(first)) + np.max(np.abs(second)) + 1e-300
            got = commutator_apply(a, b, self.F, self.x)
            assert rel_err(got, first - second, scale) <= 1e-13

    @pytest.mark.parametrize("name", [*FIELDS, "L0"], ids=[*FIELD_IDS, "L0"])
    def test_directional_second_matches_dense(self, name):
        _, grad, hess = self.F.eval(self.x)
        if isinstance(name, str) and name == "L0":
            pot = PowerLaw(-2.5)
            c, J = ops.sqrt_alpha_b0(pot, self.x), ops.sqrt_alpha_b0_jacobian(pot, self.x)
            dense_J = J
        else:
            c, J = vf_eval(name, self.x), vf_jacobian(name, self.x)
            dense_J = dense_jacobian(name, self.x)
        advect = np.einsum("ni,ni->n", np.einsum("nij,nj->ni", dense_J, c), grad)
        curvature = np.einsum("ni,nij,nj->n", c, hess, c)
        scale = np.max(np.abs(advect)) + np.max(np.abs(curvature)) + 1e-300
        got = ops._directional_second(c, J, grad, hess)
        assert rel_err(got, advect + curvature, scale) <= 1e-13
