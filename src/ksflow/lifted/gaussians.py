"""Gaussian mixtures on R^6 = R^3_v x R^3_w with closed-form derivatives.

Densities for the doubled-variable calculus are always mixtures of Gaussians,
never grids: every gradient and Hessian is analytic, so operator identities
can be checked to near machine precision, and exact mixture sampling makes
integrals against F plain Monte-Carlo expectations.

Symmetry under the (v, w) swap is enforced by construction: `symmetrize`
closes the component list under the swap, and tensor products f (x) f are
single components with block-diagonal precision, which are swap-closed when
built from a common 3D factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * np.pi
# swap operator (v, w) -> (w, v)
SWAP = np.zeros((6, 6))
SWAP[:3, 3:] = np.eye(3)
SWAP[3:, :3] = np.eye(3)


class MixtureError(ValueError):
    pass


@dataclass(frozen=True)
class Gaussian6:
    """One mixture component: weight * N(mean, precision^-1) on R^6."""

    weight: float
    mean: np.ndarray
    precision: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(6)
        prec = np.asarray(self.precision, dtype=float).reshape(6, 6)
        if self.weight <= 0:
            raise MixtureError(f"component weight must be positive, got {self.weight}")
        if not np.allclose(prec, prec.T, atol=1e-12):
            raise MixtureError("precision matrix must be symmetric")
        try:
            np.linalg.cholesky(prec)
        except np.linalg.LinAlgError as exc:
            raise MixtureError("precision matrix must be positive definite") from exc
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", prec)

    def swapped(self) -> "Gaussian6":
        return Gaussian6(self.weight, SWAP @ self.mean, SWAP @ self.precision @ SWAP)


class MixtureHessian:
    """Hess F = sum_k c_k (A_k d_k (A_k d_k)^T - A_k) at n points, never formed.

    comp (n, K) holds the component values c_k(x) and Ad (n, K, 6) the
    products A_k d_k, d_k = x - m_k: for K = 6 components that is the size of
    the one dense (n, 6, 6) Hessian it replaces.  Each contraction the lifted
    calculus needs costs O(n 6 K).
    """

    def __init__(self, comp: np.ndarray, Ad: np.ndarray, precisions: np.ndarray):
        self.comp = comp
        self.Ad = Ad
        self.precisions = precisions

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """(Hess F) v = sum_k c_k (A_k d_k (A_k d_k . v) - A_k v), shape (n, 6)."""
        n, n_comp, _ = self.Ad.shape
        along = self.comp * np.einsum("nki,ni->nk", self.Ad, v)
        # every A_k v from one (n, 6) x (6, 6K) product; A_k is symmetric
        Av = (v @ self.precisions.transpose(1, 0, 2).reshape(6, 6 * n_comp))
        return (np.einsum("nk,nki->ni", along, self.Ad)
                - np.einsum("nk,nki->ni", self.comp, Av.reshape(n, n_comp, 6)))

    def trace(self) -> np.ndarray:
        """Laplacian of F: sum_k c_k (|A_k d_k|^2 - tr A_k)."""
        sq = np.einsum("nki,nki->nk", self.Ad, self.Ad)
        tr = np.trace(self.precisions, axis1=1, axis2=2)
        return np.einsum("nk,nk->n", self.comp, sq - tr)

    def difference_trace(self) -> np.ndarray:
        """Trace of the difference block P^T (Hess F) P, P = [Id; -Id].

        That is sum_i (d/dv_i - d/dw_i)^2 F; per component the block is
        delta_k delta_k^T - P^T A_k P with delta_k = P^T A_k d_k.
        """
        delta = self.Ad[:, :, :3] - self.Ad[:, :, 3:]
        A = self.precisions
        block_tr = np.trace(A[:, :3, :3] - A[:, :3, 3:] - A[:, 3:, :3] + A[:, 3:, 3:],
                            axis1=1, axis2=2)
        return np.einsum("nk,nk->n", self.comp,
                         np.einsum("nki,nki->nk", delta, delta) - block_tr)


class Mixture6:
    """Finite Gaussian mixture F(x) = sum_k w_k N(x; m_k, A_k^-1) on R^6."""

    def __init__(self, components, symmetric: bool = False):
        if not components:
            raise MixtureError("mixture needs at least one component")
        self.components = tuple(components)
        self.symmetric = symmetric
        self._means = np.stack([c.mean for c in self.components])
        self._precisions = np.stack([c.precision for c in self.components])
        # log of weight * (2 pi)^-3 det(A)^(1/2)
        logdets = np.array([np.linalg.slogdet(c.precision)[1] for c in self.components])
        self._lognorms = (
            np.log([c.weight for c in self.components])
            - 3.0 * np.log(_TWO_PI)
            + 0.5 * logdets
        )
        self._chol_cov = np.stack(
            [np.linalg.cholesky(np.linalg.inv(c.precision)) for c in self.components]
        )
        self._weights = np.array([c.weight for c in self.components])

    @property
    def mass(self) -> float:
        return float(self._weights.sum())

    def eval(self, x: np.ndarray, order: int = 2):
        """F, grad F and Hess F at points x of shape (n, 6); all closed-form.

        The Hessian is a `MixtureHessian`, never a dense (n, 6, 6) array.
        order=1 skips it (returned as None) for gradient-only functionals.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        n_comp = len(self.components)
        F = np.zeros(n)
        grad = np.zeros((n, 6))
        if order >= 2:
            comps = np.empty((n, n_comp))
            Ads = np.empty((n, n_comp, 6))
        for k in range(n_comp):
            d = x - self._means[k]            # (n, 6)
            Ad = d @ self._precisions[k]      # (n, 6), A symmetric
            q = np.einsum("ni,ni->n", d, Ad)
            comp = np.exp(self._lognorms[k] - 0.5 * q)
            F += comp
            grad += -comp[:, None] * Ad
            if order >= 2:
                comps[:, k] = comp
                Ads[:, k] = Ad
        hess = MixtureHessian(comps, Ads, self._precisions) if order >= 2 else None
        return F, grad, hess

    def eval_density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        F = np.zeros(x.shape[0])
        for k in range(len(self.components)):
            d = x - self._means[k]
            q = np.einsum("ni,ij,nj->n", d, self._precisions[k], d)
            F += np.exp(self._lognorms[k] - 0.5 * q)
        return F

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Exact sampling of n points from F / mass."""
        probs = self._weights / self._weights.sum()
        counts = rng.multinomial(n, probs)
        out = np.empty((n, 6))
        pos = 0
        for k, c in enumerate(counts):
            if c == 0:
                continue
            z = rng.standard_normal((c, 6))
            out[pos:pos + c] = self._means[k] + z @ self._chol_cov[k].T
            pos += c
        return out


def symmetrize(components) -> Mixture6:
    """Close a component list under the (v, w) swap with halved weights."""
    out = []
    for c in components:
        out.append(Gaussian6(0.5 * c.weight, c.mean, c.precision))
        out.append(Gaussian6(0.5 * c.weight, SWAP @ c.mean, SWAP @ c.precision @ SWAP))
    return Mixture6(out, symmetric=True)


def isotropic_gaussian(scale: float = 1.0, weight: float = 1.0) -> Mixture6:
    """Unit-mean-zero Gaussian with precision scale * Id_6; swap-symmetric."""
    return Mixture6(
        [Gaussian6(weight, np.zeros(6), scale * np.eye(6))], symmetric=True
    )


def tensor_product(weights3, means3, precisions3) -> Mixture6:
    """F = f (x) f for a 3D Gaussian mixture f = sum_i w_i N(m_i, A_i^-1).

    Components are all pairs (i, j) with block-diagonal precision; the result
    is symmetric under the swap by construction.
    """
    weights3 = np.asarray(weights3, dtype=float)
    comps = []
    for i, wi in enumerate(weights3):
        for j, wj in enumerate(weights3):
            mean = np.concatenate([means3[i], means3[j]])
            prec = np.zeros((6, 6))
            prec[:3, :3] = precisions3[i]
            prec[3:, 3:] = precisions3[j]
            comps.append(Gaussian6(wi * wj, mean, prec))
    return Mixture6(comps, symmetric=True)


def random_spd(rng: np.random.Generator, dim: int = 6,
               eig_range=(0.4, 2.0)) -> np.ndarray:
    """Random SPD matrix with eigenvalues in eig_range (keeps MC variance tame)."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = rng.uniform(*eig_range, size=dim)
    return q @ np.diag(eigs) @ q.T


def random_symmetric_mixture(n_components: int, seed: int,
                             mean_spread: float = 1.0) -> Mixture6:
    """Seeded random swap-symmetric mixture for the verification suites."""
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(n_components):
        w = float(rng.uniform(0.5, 1.5))
        mean = mean_spread * rng.standard_normal(6)
        prec = random_spd(rng)
        comps.append(Gaussian6(w, mean, prec))
    return symmetrize(comps)
