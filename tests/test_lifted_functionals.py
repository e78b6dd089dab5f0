import numpy as np
import pytest

from ksflow.kernels import PowerLaw, SoftenedPowerLaw
from ksflow.lifted.functionals import (
    CHUNK_SIZE,
    IntegrabilityError,
    McEstimate,
    check_integrability,
    estimate_many,
    fisher_functional,
    pair_first_variation,
)
from ksflow.lifted.gaussians import (
    Gaussian6,
    Mixture6,
    isotropic_gaussian,
    random_symmetric_mixture,
    tensor_product,
)


def convex_combination(F, G, theta):
    """theta*F + (1-theta)*G, again a mixture."""
    comps = [Gaussian6(theta * c.weight, c.mean, c.precision) for c in F.components]
    comps += [Gaussian6((1.0 - theta) * c.weight, c.mean, c.precision)
              for c in G.components]
    return Mixture6(comps, symmetric=F.symmetric and G.symmetric)


class TestFisherFunctional:
    def test_isotropic_gaussian_full(self):
        # I = trace of the unit precision = 6 for unit mass
        F = isotropic_gaussian()
        est = fisher_functional(F, n_samples=1 << 18, seed=5)
        assert abs(est.value - 6.0) <= 3 * est.stderr
        assert est.stderr <= 0.02

    def test_constant_direction_unit_variance(self):
        F = isotropic_gaussian()
        e = np.zeros(6)
        e[2] = 1.0
        est = fisher_functional(F, direction=e, n_samples=1 << 18, seed=6)
        assert abs(est.value - 1.0) <= 3 * est.stderr

    def test_mass_scaling(self):
        # I is 1-homogeneous in F: doubling the weight doubles the functional
        F1 = isotropic_gaussian(weight=1.0)
        F2 = isotropic_gaussian(weight=2.0)
        e1 = fisher_functional(F1, n_samples=1 << 16, seed=7)
        e2 = fisher_functional(F2, n_samples=1 << 16, seed=7)
        assert e2.value == pytest.approx(2 * e1.value, rel=1e-12)

    def test_seed_determinism_bit_for_bit(self):
        F = random_symmetric_mixture(2, 31)
        a = fisher_functional(F, n_samples=1 << 16, seed=123)
        b = fisher_functional(F, n_samples=1 << 16, seed=123)
        assert a.value == b.value and a.stderr == b.stderr

    def test_discrepancy_shrinks_like_sqrt_n(self):
        F = random_symmetric_mixture(2, 33)
        small = fisher_functional(F, n_samples=1 << 14, seed=9)
        large = fisher_functional(F, n_samples=1 << 18, seed=9)
        assert large.stderr <= small.stderr * 0.3  # 1/4 expected

    def test_integrability_rejection_names_condition(self):
        with pytest.raises(IntegrabilityError, match="exceed -3"):
            check_integrability("ALPHA", "N", PowerLaw(-3.0))
        # compensated direction is admissible at the same weight
        check_integrability("SQRT_ALPHA_OVER_R2", "B1", PowerLaw(-2.5))
        with pytest.raises(IntegrabilityError):
            fisher_functional(
                isotropic_gaussian(), weight="ALPHA", direction="N",
                n_samples=1 << 10, seed=0, pot=PowerLaw(-3.0),
            )

    def test_softened_potential_always_admissible(self):
        check_integrability("ALPHA", "N", SoftenedPowerLaw(-3.0, 0.1))

    def test_tensor_fisher_identity(self):
        # i(f) = I(f (x) f)/2 for a normalized 3D Gaussian: both equal 3/sigma^2
        sigma = 1.3
        F = tensor_product([1.0], [np.zeros(3)], [np.eye(3) / sigma**2])
        est = fisher_functional(F, n_samples=1 << 18, seed=10)
        assert abs(0.5 * est.value - 3.0 / sigma**2) <= 3 * 0.5 * est.stderr


class TestConvexity:
    def test_fisher_convex_in_density(self):
        # I(theta F + (1-theta) G) <= theta I(F) + (1-theta) I(G)
        F = isotropic_gaussian(scale=1.0)
        G = isotropic_gaussian(scale=2.5)
        n, seed = 1 << 17, 11
        iF = fisher_functional(F, n_samples=n, seed=seed)
        iG = fisher_functional(G, n_samples=n, seed=seed, stream=1)
        for theta in (0.25, 0.5, 0.75):
            mix = convex_combination(F, G, theta)
            iM = fisher_functional(mix, n_samples=n, seed=seed, stream=2)
            bound = theta * iF.value + (1 - theta) * iG.value
            noise = 3 * np.sqrt(iF.stderr**2 + iG.stderr**2 + iM.stderr**2)
            assert iM.value <= bound + noise


class TestPairings:
    def test_translation_pairing_vanishes_for_even_density(self):
        # b = const e, div b = 0, [e, e] = 0: the pairing integrand is odd
        F = isotropic_gaussian()
        e = np.zeros(6)
        e[0] = 1.0
        est = pair_first_variation(F, e, direction=e, n_samples=1 << 17, seed=12)
        assert abs(est.value) <= 3 * est.stderr

    def test_b0_pairing_matches_closed_form_for_iso_gaussian(self):
        # <I'(F), L_b0 F> = -2 I - 2 sum I_nu = -24 for the unit 6D Gaussian
        F = isotropic_gaussian()
        est = pair_first_variation(F, "B0", n_samples=1 << 18, seed=13)
        assert abs(est.value + 24.0) <= 3 * est.stderr

    def test_agreement_helper(self):
        a = McEstimate(1.0, 0.1, 100, 0)
        b = McEstimate(1.2, 0.1, 100, 0)
        assert a.agrees_with(b)
        c = McEstimate(2.0, 0.1, 100, 0)
        assert not a.agrees_with(c)


def two_quantities(x, F_val, grad, hess):
    return {"u2": np.einsum("ni,ni->n", grad, grad) / F_val**2,
            "lap": hess.trace() / F_val}


class TestEstimateMany:
    def test_bit_for_bit_repeatable_over_a_partial_chunk(self):
        F = random_symmetric_mixture(2, 41)
        n = CHUNK_SIZE + 1234
        a = estimate_many(F, two_quantities, n, seed=3, stream=5)
        b = estimate_many(F, two_quantities, n, seed=3, stream=5)
        assert list(a) == ["u2", "lap"]
        assert a == b
        assert a["u2"].n_samples == n

    def test_one_integrand_matches_separate_streams(self):
        # quantities computed together equal the ones estimated alone
        F = isotropic_gaussian()
        both = estimate_many(F, two_quantities, 5000, seed=4, stream=2)
        alone = estimate_many(F, lambda *a: {"u2": two_quantities(*a)["u2"]},
                              5000, seed=4, stream=2)
        assert both["u2"] == alone["u2"]

    def test_variance_does_not_cancel_under_a_large_mean(self):
        # g = 1e8 + x_0 with x_0 ~ N(0, 1): the stderr is that of x_0 alone,
        # 1/sqrt(n) = 1.95e-3; sum g^2 / n - mean^2 reported 2.76e-3
        F = isotropic_gaussian()
        n = 1 << 18
        shifted = estimate_many(F, lambda x, *_: {"g": 1e8 + x[:, 0]}, n, seed=0)["g"]
        plain = estimate_many(F, lambda x, *_: {"g": x[:, 0]}, n, seed=0)["g"]
        assert shifted.stderr == pytest.approx(plain.stderr, rel=1e-6)
        assert shifted.stderr == pytest.approx(n ** -0.5, rel=0.01)

    @pytest.mark.parametrize("n", [0, -4])
    def test_nonpositive_sample_count_rejected(self, n):
        F = isotropic_gaussian()
        with pytest.raises(ValueError, match="n_samples"):
            estimate_many(F, two_quantities, n, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            fisher_functional(F, n_samples=n, seed=0)
