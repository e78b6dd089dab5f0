"""Vector-field frames on R^6 for the doubled-variable collision calculus.

With z = v - w, the Landau directions are b_k(z) = e_k x z lifted as
bt_k = (b_k, -b_k); they span the tangent space of the level sets of |z|.
The extra direction of the isotropic model is bt_0 = (z, -z), normal to those
level sets, with unit version n = bt_0 / (sqrt(2) |z|).  The constant fields
nu_i = e_i + e_{3+i} diagonalize the first-order Maxwell computation.

Key algebra, all verified numerically by `frame_identities`:

    sum_k b_k (x) b_k = |z|^2 Id_3 - z (x) z          (projection onto z-perp)
    |z|^2 Id_3       = a_ij(z) + b_0 (x) b_0
    D bt_0           = [[Id, -Id], [-Id, Id]],   div n = 2 sqrt(2) / |z|
    sum_{k=0..3} bt_k (x) bt_k = |z|^2 D bt_0
"""

from __future__ import annotations

import numpy as np


class FrameError(ValueError):
    pass


def _cross_matrix(k: int) -> np.ndarray:
    """C with C z = e_k x z."""
    e = np.zeros(3)
    e[k] = 1.0
    C = np.array([
        [0.0, -e[2], e[1]],
        [e[2], 0.0, -e[0]],
        [-e[1], e[0], 0.0],
    ])
    return C


_CROSS = [_cross_matrix(k) for k in range(3)]


class Points:
    """Points x of shape (n, 6) with z = v - w and r = |z| computed once.

    Every field, weight and operator takes either a plain array or a Points;
    an integrand builds one Points per block of samples and passes it
    everywhere, so z, r and the potential's alpha, alpha', alpha'' are
    evaluated once.  z is column-major whatever the layout of x, like the
    mixture derivatives, so each coordinate is one contiguous run.
    """

    __slots__ = ("x", "z", "r", "_alphas")

    def __init__(self, x: np.ndarray):
        self.x = np.atleast_2d(np.asarray(x, dtype=float))
        self.z = np.subtract(self.x[:, :3], self.x[:, 3:],
                             out=np.empty((len(self.x), 3), order="F"))
        self.r = np.linalg.norm(self.z, axis=1)
        self._alphas = {}

    def __len__(self) -> int:
        return self.x.shape[0]

    def alphas(self, pot):
        """(alpha, alpha', alpha'') of the potential at r, cached per potential."""
        if pot not in self._alphas:
            self._alphas[pot] = (pot.alpha(self.r), pot.alpha_prime(self.r),
                                 pot.alpha_second(self.r))
        return self._alphas[pot]


def as_points(x) -> Points:
    return x if isinstance(x, Points) else Points(x)


def _pair(u: np.ndarray) -> np.ndarray:
    """(u, -u): a z-space vector lifted to R^6, column-major."""
    out = np.empty((len(u), 6), order="F")
    out[:, :3] = u
    np.negative(u, out=out[:, 3:])
    return out


_NU = {f"NU{i}": np.eye(6)[i - 1] + np.eye(6)[i + 2] for i in (1, 2, 3)}


def vf_eval(name, x) -> np.ndarray:
    """Evaluate a frame field at points x of shape (n, 6) (or a Points).

    `name` is B0, B1-B3, N, NU1-NU3 or a constant vector of length 6.
    """
    p = as_points(x)
    if isinstance(name, (np.ndarray, list, tuple)) or name in _NU:
        e = _NU[name] if isinstance(name, str) else np.asarray(name, dtype=float).reshape(6)
        return np.broadcast_to(e, (len(p), 6)).copy()
    if name == "B0":
        return _pair(p.z)
    if name in ("B1", "B2", "B3"):
        return _pair(p.z @ _CROSS[int(name[1]) - 1].T)
    if name == "N":
        if np.any(p.r == 0.0):
            raise FrameError("N is undefined on the diagonal v = w")
        return _pair(p.z) / (np.sqrt(2.0) * p.r[:, None])
    raise FrameError(f"unknown frame field {name!r}")


def _read_only(J: np.ndarray) -> np.ndarray:
    J.setflags(write=False)
    return J


def _block_jacobian(C: np.ndarray) -> np.ndarray:
    """[[C, -C], [-C, C]]: the Jacobian of (C z, -C z) with z = v - w."""
    return _read_only(np.block([[C, -C], [-C, C]]))


_ZERO_JACOBIAN = _read_only(np.zeros((6, 6)))
_CONSTANT_JACOBIANS = {
    "B0": _block_jacobian(np.eye(3)),
    **{f"B{k + 1}": _block_jacobian(_CROSS[k]) for k in range(3)},
    **{name: _ZERO_JACOBIAN for name in _NU},
}


class ScaledRankOne:
    """J = scale M + u (x) w at n points: a scalar field times a constant
    (6, 6) matrix plus a rank-1 term, never formed as (n, 6, 6).

    The Jacobians of N and of sqrt(alpha) bt_0 have this shape, because both
    are a scalar function of r = |z| times bt_0, and grad r = bt_0 / r.
    """

    __slots__ = ("scale", "matrix", "u", "w")

    def __init__(self, scale, matrix, u, w):
        self.scale = scale      # (n,)
        self.matrix = matrix    # (6, 6)
        self.u = u              # (n, 6)
        self.w = w              # (n, 6)

    def rmatvec(self, g: np.ndarray) -> np.ndarray:
        """J^T g, shape (n, 6)."""
        return (self.scale[:, None] * (g @ self.matrix)
                + np.einsum("ni,ni->n", self.u, g)[:, None] * self.w)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """J v, shape (n, 6)."""
        return (self.scale[:, None] * (v @ self.matrix.T)
                + np.einsum("ni,ni->n", self.w, v)[:, None] * self.u)

    def dense(self) -> np.ndarray:
        """The (n, 6, 6) matrices, for the pointwise matrix identities only."""
        return (self.scale[:, None, None] * self.matrix
                + np.einsum("ni,nj->nij", self.u, self.w))


def vf_jacobian(name, x):
    """Analytic Jacobian D_ij = d v_i / d x_j of a frame field at x.

    Shape rule: the fields with a constant Jacobian (B0, B1-B3, NU1-NU3 and
    constant vectors, whose Jacobian is 0) return one read-only (6, 6) array,
    whatever the number of points; N returns a `ScaledRankOne`,
    D n = D bt_0 / (sqrt(2) r) - bt_0 (x) n / r^2.  Contract with
    `_grad_along`, which takes either.
    """
    if isinstance(name, (np.ndarray, list, tuple)):
        return _ZERO_JACOBIAN
    if name in _CONSTANT_JACOBIANS:
        return _CONSTANT_JACOBIANS[name]
    if name == "N":
        p = as_points(x)
        b0 = _pair(p.z)
        root2_r = np.sqrt(2.0) * p.r
        return ScaledRankOne(1.0 / root2_r, _CONSTANT_JACOBIANS["B0"],
                             b0, -b0 / (root2_r * p.r**2)[:, None])
    raise FrameError(f"unknown frame field {name!r}")


def _grad_along(J, v: np.ndarray, grad: np.ndarray, hess) -> np.ndarray:
    """grad(v . grad F) = J^T grad F + (Hess F) v, shape (n, 6).

    v is a field's values (n, 6) and J its Jacobian, a constant (6, 6) array
    or a `ScaledRankOne`; hess is a `MixtureHessian`.  The one contraction of
    frame fields with mixture derivatives: commutators, second directional
    derivatives, Q_L and the first-variation pairings all go through it.
    """
    jt_grad = grad @ J if isinstance(J, np.ndarray) else J.rmatvec(grad)
    return jt_grad + hess.matvec(v)


def vf_divergence(name, x) -> np.ndarray:
    p = as_points(x)
    n = len(p)
    if isinstance(name, (np.ndarray, list, tuple)) or name.startswith(("NU", "B1", "B2", "B3")):
        return np.zeros(n)
    if name == "B0":
        return np.full(n, 6.0)
    if name == "N":
        return 2.0 * np.sqrt(2.0) / p.r
    raise FrameError(f"unknown frame field {name!r}")


def _bracket(va, Ja, vb, Jb, grad, hess) -> np.ndarray:
    """[a, b] . grad F = a.grad(b.grad F) - b.grad(a.grad F) from the field
    values and Jacobians of a and b."""
    return (np.einsum("ni,ni->n", va, _grad_along(Jb, vb, grad, hess))
            - np.einsum("ni,ni->n", vb, _grad_along(Ja, va, grad, hess)))


def a_matrix(z: np.ndarray) -> np.ndarray:
    """a_ij(z) = |z|^2 delta_ij - z_i z_j, shape (n, 3, 3)."""
    z = np.atleast_2d(z)
    r2 = np.sum(z**2, axis=1)
    return r2[:, None, None] * np.eye(3) - np.einsum("ni,nj->nij", z, z)


def frame_identities(x: np.ndarray) -> dict:
    """Residuals of the pointwise frame algebra at x; all should be ~1e-12."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = x[:, :3] - x[:, 3:]
    r2 = np.sum(z**2, axis=1)
    bks = [vf_eval(f"B{k}", x)[:, :3] for k in (1, 2, 3)]
    sum_outer = sum(np.einsum("ni,nj->nij", b, b) for b in bks)
    aij = a_matrix(z)
    scale = np.maximum(r2, 1e-300)[:, None, None]
    res_projection = np.max(np.abs(sum_outer - aij) / scale)
    res_resolution = np.max(
        np.abs(aij + np.einsum("ni,nj->nij", z, z) - r2[:, None, None] * np.eye(3))
        / scale
    )
    # n's Jacobian depends on the point, so its trace checks a divergence
    # that is not constant
    div_n = vf_divergence("N", x)
    res_div = np.max(np.abs(np.trace(vf_jacobian("N", x).dense(), axis1=1, axis2=2) - div_n)
                     / div_n)
    Jb0 = vf_jacobian("B0", x)
    block = np.zeros((6, 6))
    block[:3, :3] = np.eye(3)
    block[3:, 3:] = np.eye(3)
    block[:3, 3:] = -np.eye(3)
    block[3:, :3] = -np.eye(3)
    res_jac = np.max(np.abs(Jb0 - block))
    nvec = vf_eval("N", x)
    res_unit = np.max(np.abs(np.sum(nvec**2, axis=1) - 1.0))
    res_tangency = max(
        np.max(np.abs(np.einsum("ni,ni->n", vf_eval(f"B{k}", x), vf_eval("B0", x))))
        / np.maximum(r2.max(), 1e-300)
        for k in (1, 2, 3)
    )
    return {
        "tangent_projection": float(res_projection),
        "normal_resolution": float(res_resolution),
        "div_n": float(res_div),
        "jacobian_b0_blocks": float(res_jac),
        "unit_normal": float(res_unit),
        "tangency": float(res_tangency),
    }


# ---------------------------------------------------------------------------
# flows
# ---------------------------------------------------------------------------

def flow(name, x0, t: float, dt: float = 1e-3):
    """RK4 integration of xdot = field(x) from x0 over [0, t].

    Returns (x(t), invariants) where the invariants dict reports the drift of
    the midpoint v+w, the norm |v|^2+|w|^2 and the separation |v-w| over the
    trajectory (conserved exactly by the tangent fields B1..B3; B0 preserves
    only the midpoint and stretches the separation like e^{2t}).
    """
    x = np.atleast_2d(np.asarray(x0, dtype=float)).copy()
    if t < 0 or dt <= 0:
        raise FrameError("flow needs t >= 0 and dt > 0")
    n_steps = int(round(t / dt)) if t > 0 else 0
    if n_steps and abs(n_steps * dt - t) > 1e-12 * max(t, 1.0):
        raise FrameError("t must be an integer multiple of dt")

    def rhs(y):
        return vf_eval(name, y)

    def invariants(y):
        v, w = y[:, :3], y[:, 3:]
        return (
            v + w,
            np.sum(v**2 + w**2, axis=1),
            np.linalg.norm(v - w, axis=1),
        )

    mid0, norm0, sep0 = invariants(x)
    for _ in range(n_steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    mid1, norm1, sep1 = invariants(x)
    inv = {
        "midpoint_drift": float(np.max(np.abs(mid1 - mid0))),
        "norm_drift": float(np.max(np.abs(norm1 - norm0))),
        "separation_drift": float(np.max(np.abs(sep1 - sep0))),
        "separation_ratio_sq": float(np.max((sep1 / np.maximum(sep0, 1e-300)) ** 2)),
    }
    return x, inv
