"""Lifted collision operators and scalar weights on R^6.

Everything here is pointwise-analytic.  The doubled-variable collision
operator in direct form is

    Q(F) = sum_i d_i [ K(z) d_i F ],   d_i = d/dv_i - d/dw_i,  K = alpha(|z|)|z|^2,

and in decomposed form

    Q(F) = Q_L(F) + L0(L0 F) + beta1 * L0(F),      L0 = sqrt(alpha) bt_0 . grad,

with Q_L(F) = sum_k sqrt(alpha) bt_k . grad( sqrt(alpha) bt_k . grad F ) the
tangential (Landau) part.  The scalar weights are

    beta1 = 6 sqrt(alpha) + |z| alpha'/sqrt(alpha) = div( sqrt(alpha) bt_0 ),
    beta2 = beta1 - 4 sqrt(alpha),

and the matrix identity D(sqrt(alpha) bt_0) = sum_k (sqrt(alpha)/|z|^2)
bt_k (x) bt_k + beta2 n (x) n underlies the weighted-Fisher derivative
identities.  Divergences of beta_i sqrt(alpha) bt_0 need alpha'' and are
given in closed form.
"""

from __future__ import annotations

import numpy as np

from .frames import _grad_along, _z, a_matrix, vf_eval, vf_jacobian
from .gaussians import Mixture6


def _radius(x: np.ndarray) -> np.ndarray:
    return np.linalg.norm(_z(np.atleast_2d(x)), axis=1)


def alpha_bundle(pot, x: np.ndarray):
    """(r, alpha, alpha', alpha'') at |z| for points x."""
    r = _radius(x)
    return r, pot.alpha(r), pot.alpha_prime(r), pot.alpha_second(r)


def beta1(pot, x: np.ndarray) -> np.ndarray:
    r, a, ap, _ = alpha_bundle(pot, x)
    sq = np.sqrt(a)
    return 6.0 * sq + r * ap / sq


def beta2(pot, x: np.ndarray) -> np.ndarray:
    r, a, ap, _ = alpha_bundle(pot, x)
    sq = np.sqrt(a)
    return 2.0 * sq + r * ap / sq


def div_beta1_sqrt_alpha_b0(pot, x: np.ndarray) -> np.ndarray:
    """div(beta1 sqrt(alpha) bt_0) = 36 a + 20 r a' + 2 r^2 a''."""
    r, a, ap, app = alpha_bundle(pot, x)
    return 36.0 * a + 20.0 * r * ap + 2.0 * r**2 * app


def div_beta2_sqrt_alpha_b0(pot, x: np.ndarray) -> np.ndarray:
    """div(beta2 sqrt(alpha) bt_0) = 12 a + 12 r a' + 2 r^2 a''."""
    r, a, ap, app = alpha_bundle(pot, x)
    return 12.0 * a + 12.0 * r * ap + 2.0 * r**2 * app


def sqrt_alpha_b0(pot, x: np.ndarray) -> np.ndarray:
    """The field sqrt(alpha) bt_0."""
    r, a, _, _ = alpha_bundle(pot, x)
    return np.sqrt(a)[:, None] * vf_eval("B0", x)


def sqrt_alpha_b0_jacobian(pot, x: np.ndarray) -> np.ndarray:
    """D(sqrt(alpha) bt_0) = sqrt(alpha) D bt_0 + bt_0 (x) grad sqrt(alpha)."""
    r, a, ap, _ = alpha_bundle(pot, x)
    sq = np.sqrt(a)
    Jb0 = vf_jacobian("B0", x)
    b0 = vf_eval("B0", x)
    nvec = vf_eval("N", x)
    grad_sq = (ap / np.sqrt(2.0 * a))[:, None] * nvec
    return sq[:, None, None] * Jb0 + np.einsum("ni,nj->nij", b0, grad_sq)


def sqrt_alpha_b0_jacobian_decomposed(pot, x: np.ndarray) -> np.ndarray:
    """Same matrix assembled from the frame decomposition (cross-check form)."""
    r, a, _, _ = alpha_bundle(pot, x)
    sq = np.sqrt(a)
    total = np.zeros((x.shape[0], 6, 6))
    for k in (1, 2, 3):
        bk = vf_eval(f"B{k}", x)
        total += np.einsum("ni,nj->nij", bk, bk)
    total *= (sq / r**2)[:, None, None]
    nvec = vf_eval("N", x)
    total += beta2(pot, x)[:, None, None] * np.einsum("ni,nj->nij", nvec, nvec)
    return total


def _directional_second(c_vals, c_jac, grad, hess):
    """c . grad(c . grad F) = c . ((Dc)^T grad F + (Hess F) c)."""
    return np.einsum("ni,ni->n", c_vals, _grad_along(c_jac, c_vals, grad, hess))


def apply_L0(F: Mixture6, pot, x: np.ndarray, bundle=None) -> np.ndarray:
    """L0 F = sqrt(alpha) bt_0 . grad F."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, grad, _ = F.eval(x) if bundle is None else bundle
    return np.einsum("ni,ni->n", sqrt_alpha_b0(pot, x), grad)


def apply_L0L0(F: Mixture6, pot, x: np.ndarray, bundle=None) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, grad, hess = F.eval(x) if bundle is None else bundle
    c = sqrt_alpha_b0(pot, x)
    Jc = sqrt_alpha_b0_jacobian(pot, x)
    return _directional_second(c, Jc, grad, hess)


def apply_QL(F: Mixture6, pot, x: np.ndarray, form: str = "frames",
             bundle=None) -> np.ndarray:
    """Tangential collision operator Q_L(F) at x.

    form="frames": sum_k sqrt(a) bt_k . grad(sqrt(a) bt_k . grad F); the
    alpha gradient drops because bt_k is perpendicular to grad alpha.
    form="aij": the expansion d_i[alpha a_ij d_j F], an independent route
    through the projection matrix.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    _, grad, hess = F.eval(x) if bundle is None else bundle
    r, a, ap, _ = alpha_bundle(pot, x)
    if form == "frames":
        out = np.zeros(x.shape[0])
        for k in (1, 2, 3):
            name = f"B{k}"
            out += a * _directional_second(vf_eval(name, x), vf_jacobian(name, x),
                                           grad, hess)
        return out
    if form == "aij":
        z = _z(x)
        aij = a_matrix(z)
        # difference-gradient and difference-Hessian blocks
        dgrad = grad[:, :3] - grad[:, 3:]
        dhess = (
            hess[:, :3, :3] - hess[:, :3, 3:] - hess[:, 3:, :3] + hess[:, 3:, 3:]
        )
        # sum_i d_i(alpha a_ij) = 2 [ alpha' z_i a_ij / |z| + alpha d_i a_ij ]
        # contracts to -4 alpha z_j (a_ij z_i = 0, sum_i d_i a_ij = -2 z_j)
        first = -4.0 * a * np.einsum("nj,nj->n", z, dgrad)
        second = a * np.einsum("nij,nij->n", aij, dhess)
        return first + second
    raise ValueError(f"unknown Q_L form {form!r}")


def apply_QKS(F: Mixture6, pot, x: np.ndarray, form: str = "direct",
              bundle=None) -> np.ndarray:
    """Lifted collision operator of the isotropic model at x.

    form="direct": sum_i d_i[ alpha |z|^2 d_i F ] expanded with the kernel
    K = alpha r^2, K' = alpha' r^2 + 2 alpha r.
    form="decomposed": Q_L + L0 L0 + beta1 L0 (pointwise identical).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    bundle = F.eval(x) if bundle is None else bundle
    _, grad, hess = bundle
    if form == "direct":
        r, a, ap, _ = alpha_bundle(pot, x)
        K = a * r**2
        Kp = ap * r**2 + 2.0 * a * r
        b0 = vf_eval("B0", x)
        first = (2.0 * Kp / r) * np.einsum("ni,ni->n", b0[:, :3], grad[:, :3] - grad[:, 3:])
        dhess_trace = (
            np.einsum("nii->n", hess[:, :3, :3])
            - 2.0 * np.einsum("nii->n", hess[:, :3, 3:])
            + np.einsum("nii->n", hess[:, 3:, 3:])
        )
        return first + K * dhess_trace
    if form == "decomposed":
        return (
            apply_QL(F, pot, x, form="frames", bundle=bundle)
            + apply_L0L0(F, pot, x, bundle=bundle)
            + beta1(pot, x) * apply_L0(F, pot, x, bundle=bundle)
        )
    raise ValueError(f"unknown Q_KS form {form!r}")


def first_variation_density(F_val, grad, hess):
    """I'(F) as a function: |grad log F|^2 - 2 (Laplacian F)/F.

    Pairing a second-order operator G against I'(F) is then the plain
    integral of this density times G, which keeps every Monte-Carlo
    estimator free of finite-difference epsilons.
    """
    lap = np.einsum("nii->n", hess)
    g2 = np.einsum("ni,ni->n", grad, grad)
    return g2 / F_val**2 - 2.0 * lap / F_val
