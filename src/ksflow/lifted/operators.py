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

from .frames import ScaledRankOne, _grad_along, as_points, vf_eval, vf_jacobian


def alpha_bundle(pot, x):
    """(r, alpha, alpha', alpha'') at |z| for points x (an array or Points)."""
    p = as_points(x)
    return (p.r, *p.alphas(pot))


def beta1(pot, x) -> np.ndarray:
    r, a, ap, _ = alpha_bundle(pot, x)
    sq = np.sqrt(a)
    return 6.0 * sq + r * ap / sq


def beta2(pot, x) -> np.ndarray:
    r, a, ap, _ = alpha_bundle(pot, x)
    sq = np.sqrt(a)
    return 2.0 * sq + r * ap / sq


def div_beta1_sqrt_alpha_b0(pot, x) -> np.ndarray:
    """div(beta1 sqrt(alpha) bt_0) = 36 a + 20 r a' + 2 r^2 a''."""
    r, a, ap, app = alpha_bundle(pot, x)
    return 36.0 * a + 20.0 * r * ap + 2.0 * r**2 * app


def div_beta2_sqrt_alpha_b0(pot, x) -> np.ndarray:
    """div(beta2 sqrt(alpha) bt_0) = 12 a + 12 r a' + 2 r^2 a''."""
    r, a, ap, app = alpha_bundle(pot, x)
    return 12.0 * a + 12.0 * r * ap + 2.0 * r**2 * app


def sqrt_alpha_b0(pot, x) -> np.ndarray:
    """The field sqrt(alpha) bt_0."""
    p = as_points(x)
    a, _, _ = p.alphas(pot)
    return np.sqrt(a)[:, None] * vf_eval("B0", p)


def sqrt_alpha_b0_jacobian(pot, x) -> ScaledRankOne:
    """D(sqrt(alpha) bt_0) = sqrt(alpha) D bt_0 + bt_0 (x) grad sqrt(alpha),
    with grad sqrt(alpha) = alpha' / (2 sqrt(alpha) r) bt_0."""
    p = as_points(x)
    a, ap, _ = p.alphas(pot)
    sq = np.sqrt(a)
    b0 = vf_eval("B0", p)
    return ScaledRankOne(sq, vf_jacobian("B0", p), b0,
                         (ap / (2.0 * sq * p.r))[:, None] * b0)


def sqrt_alpha_b0_jacobian_decomposed(pot, x) -> np.ndarray:
    """Same matrix assembled densely from the frame decomposition
    (cross-check form for the pointwise matrix identity)."""
    p = as_points(x)
    r, a, _, _ = alpha_bundle(pot, p)
    sq = np.sqrt(a)
    total = np.zeros((len(p), 6, 6))
    for k in (1, 2, 3):
        bk = vf_eval(f"B{k}", p)
        total += np.einsum("ni,nj->nij", bk, bk)
    total *= (sq / r**2)[:, None, None]
    nvec = vf_eval("N", p)
    total += beta2(pot, p)[:, None, None] * np.einsum("ni,nj->nij", nvec, nvec)
    return total


def _directional_second(c_vals, c_jac, grad, hess):
    """c . grad(c . grad F) = c . ((Dc)^T grad F + (Hess F) c)."""
    return np.einsum("ni,ni->n", c_vals, _grad_along(c_jac, c_vals, grad, hess))


def apply_L0(pot, x, grad) -> np.ndarray:
    """L0 F = sqrt(alpha) bt_0 . grad F, from grad F at x."""
    return np.einsum("ni,ni->n", sqrt_alpha_b0(pot, x), grad)


def apply_L0L0(pot, x, grad, hess) -> np.ndarray:
    p = as_points(x)
    return _directional_second(sqrt_alpha_b0(pot, p), sqrt_alpha_b0_jacobian(pot, p),
                               grad, hess)


def apply_QL(pot, x, grad, hess, form: str = "frames") -> np.ndarray:
    """Tangential collision operator Q_L(F) at x, from grad F and the
    `MixtureHessian` of F at x.

    form="frames": sum_k sqrt(a) bt_k . grad(sqrt(a) bt_k . grad F); the
    alpha gradient drops because bt_k is perpendicular to grad alpha.
    form="aij": the expansion d_i[alpha a_ij d_j F], an independent route
    through the projection matrix a_ij = |z|^2 delta_ij - z_i z_j.
    """
    p = as_points(x)
    a, _, _ = p.alphas(pot)
    if form == "frames":
        out = np.zeros(len(p))
        for k in (1, 2, 3):
            name = f"B{k}"
            out += a * _directional_second(vf_eval(name, p), vf_jacobian(name, p),
                                           grad, hess)
        return out
    if form == "aij":
        z = p.z
        dgrad = grad[:, :3] - grad[:, 3:]
        # sum_i d_i(alpha a_ij) = 2 [ alpha' z_i a_ij / |z| + alpha d_i a_ij ]
        # contracts to -4 alpha z_j (a_ij z_i = 0, sum_i d_i a_ij = -2 z_j)
        first = -4.0 * a * np.einsum("nj,nj->n", z, dgrad)
        # a_ij against the difference-Hessian block D_ij = d_i d_j F:
        # |z|^2 tr D - z.D z, and z.D z = bt_0 . (Hess F) bt_0
        zDz = hess.difference_quadratic(z)
        second = a * (p.r**2 * hess.difference_trace() - zDz)
        return first + second
    raise ValueError(f"unknown Q_L form {form!r}")


def apply_QKS(pot, x, grad, hess, form: str = "direct") -> np.ndarray:
    """Lifted collision operator of the isotropic model at x, from grad F and
    the `MixtureHessian` of F at x.

    form="direct": sum_i d_i[ alpha |z|^2 d_i F ] expanded with the kernel
    K = alpha r^2, K' = alpha' r^2 + 2 alpha r.
    form="decomposed": Q_L + L0 L0 + beta1 L0 (pointwise identical).
    """
    p = as_points(x)
    if form == "direct":
        r, a, ap, _ = alpha_bundle(pot, p)
        K = a * r**2
        Kp = ap * r**2 + 2.0 * a * r
        first = (2.0 * Kp / r) * np.einsum("ni,ni->n", p.z, grad[:, :3] - grad[:, 3:])
        return first + K * hess.difference_trace()
    if form == "decomposed":
        return (
            apply_QL(pot, p, grad, hess, form="frames")
            + apply_L0L0(pot, p, grad, hess)
            + beta1(pot, p) * apply_L0(pot, p, grad)
        )
    raise ValueError(f"unknown Q_KS form {form!r}")


def first_variation_density(F_val, grad, hess):
    """I'(F) as a function: |grad log F|^2 - 2 (Laplacian F)/F.

    Pairing a second-order operator G against I'(F) is then the plain
    integral of this density times G, which keeps every Monte-Carlo
    estimator free of finite-difference epsilons.
    """
    lap = hess.trace()
    g2 = np.einsum("ni,ni->n", grad, grad)
    return g2 / F_val**2 - 2.0 * lap / F_val
