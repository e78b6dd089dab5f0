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

import functools
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


class MixtureHessian:
    """Hess F = sum_k c_k (A_k d_k (A_k d_k)^T - A_k) at n points, never formed.

    Component-major: comp (K, n) holds the component values c_k(x) and
    Ad (K, n, 6) the products A_k d_k, d_k = x - m_k, so each component's
    rows are one contiguous block.  For K = 6 components that is the size of
    the one dense (n, 6, 6) Hessian it replaces.  Each contraction the lifted
    calculus needs costs O(n 6 K); the difference-block ones (along
    d_i = d/dv_i - d/dw_i) work in 3-D and share the per-component
    differences, computed once per instance.
    """

    def __init__(self, comp: np.ndarray, Ad: np.ndarray, precisions: np.ndarray):
        self.comp = comp
        self.Ad = Ad
        self.precisions = precisions

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """(Hess F) v = sum_k c_k (A_k d_k (A_k d_k . v) - A_k v), shape (n, 6)."""
        along = self.comp * np.einsum("kni,ni->kn", self.Ad, v)
        # every A_k v from one broadcast product; A_k is symmetric
        Av = np.matmul(v, self.precisions)
        return (np.einsum("kn,kni->ni", along, self.Ad)
                - np.einsum("kn,kni->ni", self.comp, Av))

    def trace(self) -> np.ndarray:
        """Laplacian of F: sum_k c_k (|A_k d_k|^2 - tr A_k)."""
        sq = np.einsum("kni,kni->kn", self.Ad, self.Ad)
        tr = np.trace(self.precisions, axis1=1, axis2=2)
        return np.einsum("kn,kn->n", self.comp, sq - tr[:, None])

    @functools.cached_property
    def _difference(self):
        """(delta, B): delta_k = P^T A_k d_k (K, n, 3) and the difference
        blocks B_k = P^T A_k P (K, 3, 3), P = [Id; -Id]."""
        A = self.precisions
        return (self.Ad[:, :, :3] - self.Ad[:, :, 3:],
                A[:, :3, :3] - A[:, :3, 3:] - A[:, 3:, :3] + A[:, 3:, 3:])

    @functools.cached_property
    def _difference_trace(self) -> np.ndarray:
        delta, B = self._difference
        block_tr = np.trace(B, axis1=1, axis2=2)
        out = np.einsum("kn,kn->n", self.comp,
                        np.einsum("kni,kni->kn", delta, delta) - block_tr[:, None])
        out.setflags(write=False)   # one array serves every caller
        return out

    def difference_trace(self) -> np.ndarray:
        """Trace of the difference block P^T (Hess F) P, P = [Id; -Id].

        That is sum_i (d/dv_i - d/dw_i)^2 F; per component the block is
        delta_k delta_k^T - B_k.
        """
        return self._difference_trace

    def difference_quadratic(self, u: np.ndarray) -> np.ndarray:
        """(u, -u) . (Hess F) (u, -u) = sum_k c_k ((delta_k . u)^2 - u^T B_k u)
        for u of shape (n, 3): the difference block's quadratic form, with no
        (n, 6) vector formed."""
        delta, B = self._difference
        along = np.einsum("kni,ni->kn", delta, u)
        curv = np.einsum("kni,ni->kn", np.matmul(u, B), u)
        return np.einsum("kn,kn->n", self.comp, along * along - curv)


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

    def eval(self, x: np.ndarray, order: int = 2, hess_out: np.ndarray | None = None):
        """F, grad F and Hess F at points x of shape (n, 6); all closed-form.

        The Hessian is a `MixtureHessian`, never a dense (n, 6, 6) array.
        order=1 skips it (returned as None) for gradient-only functionals.
        Its arrays are fresh unless hess_out, a float array of at least 7 K n
        entries owned by the caller, is given: they are then views of it, and
        the next eval into the same hess_out overwrites them.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = x.shape[0]
        n_comp = len(self.components)
        F = np.zeros(n)
        grad = np.zeros((n, 6))
        hess = None
        if order >= 2:
            size = n_comp * n
            store = np.empty(7 * size) if hess_out is None else hess_out[:7 * size]
            hess = MixtureHessian(store[6 * size:].reshape(n_comp, n),
                                  store[:6 * size].reshape(n_comp, n, 6), self._precisions)
        for k in range(n_comp):
            d = x - self._means[k]            # (n, 6)
            # A symmetric; with a Hessian, A_k d_k is written into its block
            Ad = (d @ self._precisions[k] if hess is None
                  else np.matmul(d, self._precisions[k], out=hess.Ad[k]))
            q = np.einsum("ni,ni->n", d, Ad)
            comp = np.exp(self._lognorms[k] - 0.5 * q)
            F += comp
            grad += -comp[:, None] * Ad
            if hess is not None:
                hess.comp[k] = comp
        return F, grad, hess

    def eval_density(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        F = np.zeros(x.shape[0])
        for k in range(len(self.components)):
            d = x - self._means[k]
            q = np.einsum("ni,ij,nj->n", d, self._precisions[k], d)
            F += np.exp(self._lognorms[k] - 0.5 * q)
        return F

    def component_counts(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """How many of n draws from F / mass each component makes: one multinomial."""
        return rng.multinomial(n, self._weights / self._weights.sum())

    def sample(self, counts, rng: np.random.Generator, out: np.ndarray | None = None,
               normals: np.ndarray | None = None) -> np.ndarray:
        """Exact draws from F / mass: counts[k] rows from component k, in
        component order, n = sum(counts) rows in all; returns out.

        The rows are rng's next n standard normal 6-vectors, each mapped by
        its component's covariance factor and mean.  So drawing a run of rows
        in consecutive pieces, each with its own slice of the counts, gives
        the bytes of one draw of the whole run.  out and normals, both (n, 6)
        and C-contiguous, receive the rows and the normal draws; they are
        allocated when not given.
        """
        n = int(np.sum(counts))
        out = np.empty((n, 6)) if out is None else out
        z = rng.standard_normal(out=np.empty((n, 6)) if normals is None else normals)
        pos = 0
        for k, c in enumerate(counts):
            if c == 0:
                continue
            block = np.matmul(z[pos:pos + c], self._chol_cov[k].T, out=out[pos:pos + c])
            block += self._means[k]
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
