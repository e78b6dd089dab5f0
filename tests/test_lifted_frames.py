import functools

import numpy as np
import pytest

from ksflow.kernels import PowerLaw
from ksflow.lifted import operators as ops
from ksflow.lifted.frames import (
    FrameError,
    Points,
    ScaledRankOne,
    _bracket,
    _grad_along,
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


def dense_hessian(F, x):
    """The dense (n, 6, 6) Hessian, summed component by component: the
    oracle for the `MixtureHessian` contractions."""
    hess = np.zeros((len(x), 6, 6))
    for c in F.components:
        A = c.precision
        Ad = (x - c.mean) @ A
        comp = c.weight * (2 * np.pi) ** -3 * np.sqrt(np.linalg.det(A)) * np.exp(
            -0.5 * np.einsum("ni,ni->n", x - c.mean, Ad))
        hess += comp[:, None, None] * (np.einsum("ni,nj->nij", Ad, Ad) - A)
    return hess


FRAME_NAMES = ("B0", "B1", "B2", "B3", "N", "NU1", "NU2", "NU3")


def bracket(a, b, F, x):
    """[a, b] . grad F through `_bracket`, as the commutators suite computes it."""
    p = Points(x)
    _, grad, hess = F.eval(p.x)
    return _bracket(vf_eval(a, p), vf_jacobian(a, p),
                    vf_eval(b, p), vf_jacobian(b, p), grad, hess)


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
        assert np.allclose(dense_hessian(F, x)[0], -val[0] * np.eye(6))
        assert np.allclose(hess.trace(), -6.0 * val)

    def test_finite_difference_cross_check(self):
        F = random_symmetric_mixture(2, 3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 6))
        val, grad, _ = F.eval(x)
        hess = dense_hessian(F, x)
        h = 1e-5
        scale = np.abs(val).max()
        for i in range(6):
            dx = np.zeros(6)
            dx[i] = h
            fp = F.eval(x + dx, order=1)[0]
            fm = F.eval(x - dx, order=1)[0]
            fd = (fp - fm) / (2 * h)
            assert np.max(np.abs(fd - grad[:, i])) <= 1e-6 * scale
            fd2 = (fp - 2 * val + fm) / h**2
            assert np.max(np.abs(fd2 - hess[:, i, i])) <= 1e-4 * scale

    def test_order_one_skips_the_hessian(self):
        F = random_symmetric_mixture(2, 3)
        x = rand_points(20, seed=4)
        val1, grad1, hess1 = F.eval(x, order=1)
        val2, grad2, hess2 = F.eval(x)
        # component-major: each component's rows are one contiguous block
        assert hess1 is None and hess2.Ad.shape == (4, len(x), 6)
        assert hess2.comp.shape == (4, len(x))
        assert np.array_equal(val1, val2) and np.array_equal(grad1, grad2)

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
        s1, s2, normals = np.empty((3, 1000, 6))
        F.sample(F.component_counts(1000, rng1), rng1, out=s1, normals=normals)
        F.sample(F.component_counts(1000, rng2), rng2, out=s2, normals=normals)
        assert np.array_equal(s1, s2)

    def test_swap_symmetry_by_construction(self):
        F = random_symmetric_mixture(2, 11)
        x = rand_points(50, seed=2)
        sw = np.concatenate([x[:, 3:], x[:, :3]], axis=1)
        assert np.allclose(F.eval(x, order=1)[0], F.eval(sw, order=1)[0], rtol=1e-13)

    def test_tensor_product_mass(self):
        F = tensor_product([2.0], [np.zeros(3)], [np.eye(3)])
        assert F.mass == pytest.approx(4.0)

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
            J = dense_jacobian(name, x)
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
            tr = np.einsum("nii->n", dense_jacobian(name, x))
            assert np.allclose(tr, vf_divergence(name, x), rtol=1e-12)


class TestCommutators:
    def test_tangent_fields_commute_with_b0(self):
        F = random_symmetric_mixture(2, 13)
        x = rand_points(100, seed=10)
        _, grad, _ = F.eval(x)
        scale = np.max(np.abs(grad)) + 1.0
        for k in (1, 2, 3):
            got = bracket(f"B{k}", "B0", F, x)
            assert np.max(np.abs(got)) <= 1e-10 * scale

    def test_normal_commutator(self):
        F = random_symmetric_mixture(2, 13)
        x = rand_points(100, seed=11)
        _, grad, _ = F.eval(x)
        n_dot = np.einsum("ni,ni->n", vf_eval("N", x), grad)
        got = bracket("N", "B0", F, x)
        assert np.max(np.abs(got - 2.0 * n_dot)) <= 1e-10 * (np.max(np.abs(grad)) + 1)

    def test_constant_fields_commute_exactly(self):
        F = isotropic_gaussian()
        x = rand_points(10, seed=12)
        e1 = np.eye(6)[0]
        e2 = np.eye(6)[4]
        assert np.max(np.abs(bracket(e1, e2, F, x))) == 0.0

    def test_commutator_field_vs_bracket_definition(self):
        # the vector field [a, b] = (Db)a - (Da)b, from dense Jacobians,
        # reproduces a.grad(b.grad F) - b.grad(a.grad F)
        F = random_symmetric_mixture(2, 17)
        x = rand_points(50, seed=13)
        _, grad, _ = F.eval(x)
        field = (np.einsum("nij,nj->ni", dense_jacobian("B1", x), vf_eval("N", x))
                 - np.einsum("nij,nj->ni", dense_jacobian("N", x), vf_eval("B1", x)))
        via_field = np.einsum("ni,ni->n", field, grad)
        direct = bracket("N", "B1", F, x)
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


def dense_n_jacobian(x):
    """D n = D bt_0 / (sqrt(2) r) - bt_0 (x) n / r^2, assembled densely."""
    z = x[:, :3] - x[:, 3:]
    r = np.linalg.norm(z, axis=1)
    b0 = np.concatenate([z, -z], axis=1)
    nvec = b0 / (np.sqrt(2.0) * r[:, None])
    return (vf_jacobian("B0", x) / (np.sqrt(2.0) * r[:, None, None])
            - np.einsum("ni,nj->nij", b0, nvec) / (r**2)[:, None, None])


def dense_sqrt_alpha_b0_jacobian(pot, x):
    """sqrt(alpha) D bt_0 + bt_0 (x) grad sqrt(alpha), assembled densely."""
    r = np.linalg.norm(x[:, :3] - x[:, 3:], axis=1)
    a, ap = pot.alpha(r), pot.alpha_prime(r)
    grad_sq = (ap / np.sqrt(2.0 * a))[:, None] * vf_eval("N", x)
    return (np.sqrt(a)[:, None, None] * vf_jacobian("B0", x)
            + np.einsum("ni,nj->nij", vf_eval("B0", x), grad_sq))


def dense_jacobian(name, x):
    if isinstance(name, str) and name == "N":
        return dense_n_jacobian(x)
    return np.broadcast_to(vf_jacobian(name, x), (len(x), 6, 6))


def rel_err(got, want, scale):
    return np.max(np.abs(got - want)) / scale


def oracle_grad_along(J, v, grad, hess):
    return np.einsum("nji,nj->ni", J, grad) + np.einsum("nij,nj->ni", hess, v)


MIXTURES = {
    "iso": isotropic_gaussian(scale=1.3),
    "iso_offset": Mixture6([Gaussian6(1.0, np.array([0.4, -0.2, 0.1, 0.3, 0.5, -0.6]),
                                      1.3 * np.eye(6))]),
    "random2": random_symmetric_mixture(2, 21),
    "random3": random_symmetric_mixture(3, 21),
    "tensor": tensor_product([0.7, 0.4], [np.zeros(3), np.array([0.5, -0.3, 0.8])],
                             [np.eye(3), np.diag([0.6, 1.5, 1.1])]),
}
# B_k . grad F vanishes identically for the centred isotropic Gaussian, so
# its field contractions are rounding noise with no scale to be relative
# to; the off-centre one covers the same one-component, A = s Id shape
FIELD_MIXTURES = tuple(name for name in MIXTURES if name != "iso")
X = rand_points(200, seed=22)


@functools.cache
def derivs(names=tuple(MIXTURES)):
    """(F, grad, MixtureHessian, dense oracle Hessian) for each named mixture."""
    out = []
    for name in names:
        F = MIXTURES[name]
        _, grad, hess = F.eval(X)
        out.append((F, grad, hess, dense_hessian(F, X)))
    return out


def difference_block(dense):
    return dense[:, :3, :3] - dense[:, :3, 3:] - dense[:, 3:, :3] + dense[:, 3:, 3:]


class TestContractionPath:
    """The one contraction of fields with mixture derivatives, the
    `MixtureHessian` products and the structured Jacobians, against the
    dense (n, 6, 6) oracle forms, for isotropic, random symmetric and
    tensor-product mixtures."""

    def test_jacobian_shape_rule(self):
        for name in FIELDS:
            J = vf_jacobian(name, X)
            if isinstance(name, str) and name == "N":
                assert isinstance(J, ScaledRankOne) and J.u.shape == (len(X), 6)
            else:
                assert J.shape == (6, 6) and not J.flags.writeable

    def test_hessian_products(self):
        vs = [np.random.default_rng(24).standard_normal(X.shape),
              *(vf_eval(name, X) for name in FIELDS)]
        for _, _, hess, dense in derivs():
            for v in vs:
                want = np.einsum("nij,nj->ni", dense, v)
                assert rel_err(hess.matvec(v), want, np.max(np.abs(want))) <= 1e-13

    def test_hessian_traces(self):
        for _, _, hess, dense in derivs():
            scale = np.max(np.abs(dense))
            assert rel_err(hess.trace(), np.einsum("nii->n", dense), scale) <= 1e-13
            assert rel_err(hess.difference_trace(),
                           np.einsum("nii->n", difference_block(dense)), scale) <= 1e-13

    def test_difference_block_quadratic(self):
        # u . D u for the difference block D equals (u, -u) . (Hess F) (u, -u),
        # through difference_quadratic and through matvec
        z = X[:, :3] - X[:, 3:]
        u = np.random.default_rng(26).standard_normal(z.shape)
        for _, _, hess, dense in derivs():
            for w in (z, u):
                want = np.einsum("ni,nij,nj->n", w, difference_block(dense), w)
                lifted = np.concatenate([w, -w], axis=1)
                for got in (hess.difference_quadratic(w),
                            np.einsum("ni,ni->n", lifted, hess.matvec(lifted))):
                    assert rel_err(got, want, np.max(np.abs(want))) <= 1e-13

    @pytest.mark.parametrize("which", ["N", "L0"])
    def test_structured_jacobians(self, which):
        pot = PowerLaw(-2.5)
        if which == "N":
            v, J, oracle = vf_eval("N", X), vf_jacobian("N", X), dense_n_jacobian(X)
        else:
            v, J = ops.sqrt_alpha_b0(pot, X), ops.sqrt_alpha_b0_jacobian(pot, X)
            oracle = dense_sqrt_alpha_b0_jacobian(pot, X)
        assert rel_err(J.dense(), oracle, np.max(np.abs(oracle))) <= 1e-13
        u = np.random.default_rng(25).standard_normal(X.shape)
        pairs = [(J.matvec(u), np.einsum("nij,nj->ni", oracle, u)),
                 (J.rmatvec(u), np.einsum("nji,nj->ni", oracle, u))]
        for _, grad, hess, dense in derivs(FIELD_MIXTURES):
            pairs.append((_grad_along(J, v, grad, hess),
                          oracle_grad_along(oracle, v, grad, dense)))
        for got, want in pairs:
            assert rel_err(got, want, np.max(np.abs(want))) <= 1e-13

    @pytest.mark.parametrize("name", FIELDS, ids=FIELD_IDS)
    def test_grad_along_matches_dense(self, name):
        v = vf_eval(name, X)
        for _, grad, hess, dense in derivs(FIELD_MIXTURES):
            want = oracle_grad_along(dense_jacobian(name, X), v, grad, dense)
            got = _grad_along(vf_jacobian(name, X), v, grad, hess)
            assert rel_err(got, want, np.max(np.abs(want)) + 1e-300) <= 1e-13

    @pytest.mark.parametrize("a", FIELDS, ids=FIELD_IDS)
    def test_commutator_apply_matches_dense(self, a):
        # `_bracket` on the structured Jacobians against the dense oracle
        va, Ja = vf_eval(a, X), dense_jacobian(a, X)
        for _, grad, hess, dense in derivs(FIELD_MIXTURES):
            ga = oracle_grad_along(Ja, va, grad, dense)
            for b in FIELDS:
                vb, Jb = vf_eval(b, X), dense_jacobian(b, X)
                gb = oracle_grad_along(Jb, vb, grad, dense)
                first = np.einsum("ni,ni->n", va, gb)
                second = np.einsum("ni,ni->n", vb, ga)
                scale = np.max(np.abs(first)) + np.max(np.abs(second)) + 1e-300
                got = _bracket(va, vf_jacobian(a, X), vb, vf_jacobian(b, X), grad, hess)
                assert rel_err(got, first - second, scale) <= 1e-13

    @pytest.mark.parametrize("name", [*FIELDS, "L0"], ids=[*FIELD_IDS, "L0"])
    def test_directional_second_matches_dense(self, name):
        if isinstance(name, str) and name == "L0":
            pot = PowerLaw(-2.5)
            c, J = ops.sqrt_alpha_b0(pot, X), ops.sqrt_alpha_b0_jacobian(pot, X)
            dense_J = dense_sqrt_alpha_b0_jacobian(pot, X)
        else:
            c, J = vf_eval(name, X), vf_jacobian(name, X)
            dense_J = dense_jacobian(name, X)
        for _, grad, hess, dense in derivs(FIELD_MIXTURES):
            advect = np.einsum("ni,ni->n", np.einsum("nij,nj->ni", dense_J, c), grad)
            curvature = np.einsum("ni,nij,nj->n", c, dense, c)
            scale = np.max(np.abs(advect)) + np.max(np.abs(curvature)) + 1e-300
            got = ops._directional_second(c, J, grad, hess)
            assert rel_err(got, advect + curvature, scale) <= 1e-13
