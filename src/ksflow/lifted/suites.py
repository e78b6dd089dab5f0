"""Verification suites for the doubled-variable operator calculus.

Each suite returns a list of result rows

    {suite, identity, lhs, rhs, stderr, verdict}

with verdict "pass" / "fail" / "skip".  Pointwise algebraic identities are
checked with analytic derivatives at random points (tolerances in relative
terms, no finite-difference error anywhere); integral identities are checked
as agreement of two independently sampled Monte-Carlo estimators within three
combined standard errors; inequalities as one-sided bounds with the same
noise allowance.
"""

from __future__ import annotations

import functools

import numpy as np

from ..grids import RadialGrid, gaussian_field
from ..kernels import (
    RATIO_WINDOW,
    PowerLaw,
    SoftenedPowerLaw,
    nondivergence_rhs,
)
from . import operators as ops
from .frames import Points, _bracket, flow, frame_identities, vf_eval, vf_jacobian
from .functionals import (
    McEstimate,
    _fisher_values,
    _pairings,
    estimate_many,
    fisher_functional,
)
from .gaussians import Mixture6, isotropic_gaussian, random_symmetric_mixture, tensor_product

POINTWISE_TOL = 1e-8
DEFAULT_SAMPLES = 1 << 20


def _row(suite, identity, lhs, rhs, stderr, verdict):
    return {
        "suite": suite,
        "identity": identity,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "stderr": float(stderr),
        "verdict": verdict,
    }


def _point_row(suite, identity, residual, tol=POINTWISE_TOL):
    return _row(suite, identity, residual, 0.0, 0.0,
                "pass" if residual <= tol else "fail")


def _equality_row(suite, identity, lhs: McEstimate, rhs: McEstimate, k=3.0):
    return _row(suite, identity, lhs.value, rhs.value, lhs.combined_stderr(rhs),
                "pass" if lhs.agrees_with(rhs, k) else "fail")


def _bound_row(suite, identity, lhs: McEstimate, bound: McEstimate, k=3.0):
    se = lhs.combined_stderr(bound)
    ok = lhs.value <= bound.value + k * se
    return _row(suite, identity, lhs.value, bound.value, se, "pass" if ok else "fail")


def _sign_row(suite, identity, est: McEstimate, k=3.0):
    ok = est.value <= k * est.stderr
    return _row(suite, identity, est.value, 0.0, est.stderr, "pass" if ok else "fail")


def sample_points(n_points: int, seed: int) -> np.ndarray:
    """Random R^6 points with |v - w| >= 0.2, away from the diagonal v = w."""
    rng = np.random.default_rng(seed)
    out = np.empty((0, 6))
    while len(out) < n_points:
        x = rng.standard_normal((2 * n_points, 6)) * 1.2
        z = x[:, :3] - x[:, 3:]
        keep = np.linalg.norm(z, axis=1) >= 0.2
        out = np.vstack([out, x[keep]])
    return out[:n_points]


# ---------------------------------------------------------------------------
# pointwise suites
# ---------------------------------------------------------------------------

def run_frames_suite(seed: int = 0):
    x = sample_points(100, seed)
    res = frame_identities(x)
    rows = [_point_row("frames", name, val, tol=1e-12) for name, val in res.items()]
    # axis-aligned special case: v - w = (r, 0, 0) projects onto diag(0, r^2, r^2)
    r = 1.7
    xa = np.array([[r, 0.0, 0.0, 0.0, 0.0, 0.0]])
    from .frames import a_matrix

    aij = a_matrix(xa[:, :3] - xa[:, 3:])[0]
    res_axis = np.max(np.abs(aij - np.diag([0.0, r**2, r**2]))) / r**2
    rows.append(_point_row("frames", "axis_aligned_projection", res_axis, tol=1e-14))
    return rows


def run_commutators_suite(seed: int = 0, gammas=(-3.0, -2.5, -1.0, 0.0),
                          n_points: int = 100):
    F = random_symmetric_mixture(2, seed + 1)
    x = Points(sample_points(n_points, seed))
    _, grad, hess = F.eval(x.x)
    # the largest Hessian entry, read off the columns (Hess F) e_j
    hess_max = max(float(np.max(np.abs(hess.matvec(np.broadcast_to(e, grad.shape)))))
                   for e in np.eye(6))
    scale = float(np.max(np.abs(grad)) + hess_max + 1.0)
    rows = []

    def frame_pair(name, a, b, expected):
        got = _bracket(vf_eval(a, x), vf_jacobian(a, x),
                       vf_eval(b, x), vf_jacobian(b, x), grad, hess)
        rows.append(_point_row("commutators", name,
                               float(np.max(np.abs(got - expected))) / scale,
                               tol=1e-10))

    zero = np.zeros(len(x))
    nvec = vf_eval("N", x)
    n_dot_grad = np.einsum("ni,ni->n", nvec, grad)
    for k in (1, 2, 3):
        frame_pair(f"[B{k},B0]=0", f"B{k}", "B0", zero)
    frame_pair("[N,B0]=2(N.grad)", "N", "B0", 2.0 * n_dot_grad)
    for i in (1, 2, 3):
        frame_pair(f"[NU{i},B0]=0", f"NU{i}", "B0", zero)
    e1 = np.zeros(6); e1[0] = 1.0
    e2 = np.zeros(6); e2[4] = 1.0
    frame_pair("[const,const]=0", e1, e2, zero)

    for gamma in gammas:
        pot = PowerLaw(gamma)
        c0 = ops.sqrt_alpha_b0(pot, x)
        Jc0 = ops.sqrt_alpha_b0_jacobian(pot, x)
        for k in (1, 2, 3):
            vk, Jk = vf_eval(f"B{k}", x), vf_jacobian(f"B{k}", x)
            got = _bracket(vk, Jk, c0, Jc0, grad, hess)
            rows.append(_point_row(
                "commutators", f"[B{k},sqrt(a)B0]=0 gamma={gamma:g}",
                float(np.max(np.abs(got))) / scale, tol=1e-10))
        vn, Jn = vf_eval("N", x), vf_jacobian("N", x)
        got = _bracket(vn, Jn, c0, Jc0, grad, hess)
        expected = ops.beta2(pot, x) * n_dot_grad
        rows.append(_point_row(
            "commutators", f"[N,sqrt(a)B0]=beta2(N.grad) gamma={gamma:g}",
            float(np.max(np.abs(got - expected))) / scale, tol=1e-10))
    return rows


def run_flows_suite(seed: int = 0):
    rows = []
    rng = np.random.default_rng(seed)
    # exponential separation of the normal flow
    v0 = np.array([0.5, 0.0, 0.0]); w0 = -v0
    x0 = np.concatenate([v0, w0])[None, :]
    t = 0.5
    xt, inv = flow("B0", x0, t, dt=1e-3)
    ratio_err = abs(inv["separation_ratio_sq"] - np.exp(4.0 * t)) / np.exp(4.0 * t)
    rows.append(_point_row("flows", "B0_separation_e4t", ratio_err, tol=1e-9))
    rows.append(_point_row("flows", "B0_midpoint_drift", inv["midpoint_drift"], tol=1e-10))
    # tangent flows preserve the Boltzmann sphere
    x0 = rng.standard_normal((8, 6))
    for k in (1, 2, 3):
        _, inv = flow(f"B{k}", x0, 1.0, dt=1e-3)
        worst = max(inv["midpoint_drift"], inv["norm_drift"], inv["separation_drift"])
        rows.append(_point_row("flows", f"B{k}_sphere_invariants", worst, tol=1e-10))
    # t = 0 returns the initial point exactly
    xt, _ = flow("B2", x0, 0.0, dt=1e-3)
    rows.append(_point_row("flows", "t0_identity", float(np.max(np.abs(xt - x0))), tol=0.0))
    return rows


def run_qks_pointwise_suite(seed: int = 0, gammas=(-3.0, -2.5, -1.0, 0.0),
                            n_points: int = 100):
    """Direct vs decomposed operator, the a_ij route, and the D(sqrt(a) bt0)
    matrix decomposition, all at random points."""
    F = random_symmetric_mixture(2, seed + 1)
    x = Points(sample_points(n_points, seed))
    _, grad, hess = F.eval(x.x)
    rows = []
    for gamma in gammas:
        pot = PowerLaw(gamma)
        direct = ops.apply_QKS(pot, x, grad, hess, form="direct")
        decomp = ops.apply_QKS(pot, x, grad, hess, form="decomposed")
        scale = float(np.max(np.abs(direct)) + np.max(np.abs(decomp)) + 1e-30)
        rows.append(_point_row("qks", f"direct_vs_decomposed gamma={gamma:g}",
                               float(np.max(np.abs(direct - decomp))) / scale))
        ql_f = ops.apply_QL(pot, x, grad, hess, form="frames")
        ql_a = ops.apply_QL(pot, x, grad, hess, form="aij")
        scale_l = float(np.max(np.abs(ql_a)) + 1e-30)
        rows.append(_point_row("qks", f"QL_frames_vs_aij gamma={gamma:g}",
                               float(np.max(np.abs(ql_f - ql_a))) / scale_l, tol=1e-9))
        J = ops.sqrt_alpha_b0_jacobian(pot, x).dense()
        Jd = ops.sqrt_alpha_b0_jacobian_decomposed(pot, x)
        scale_j = float(np.max(np.abs(J)) + 1e-30)
        rows.append(_point_row("qks", f"D_sqrt_alpha_b0_decomposition gamma={gamma:g}",
                               float(np.max(np.abs(J - Jd))) / scale_j, tol=1e-10))
    # alpha == 1 specialization: Q_KS = Q_L + L0 L0 + 6 L0
    pot0 = PowerLaw(0.0)
    direct = ops.apply_QKS(pot0, x, grad, hess, form="direct")
    maxwell = (
        ops.apply_QL(pot0, x, grad, hess, form="frames")
        + ops.apply_L0L0(pot0, x, grad, hess)
        + 6.0 * ops.apply_L0(pot0, x, grad)
    )
    scale = float(np.max(np.abs(direct)) + 1e-30)
    rows.append(_point_row("qks", "maxwell_reduction_alpha1",
                           float(np.max(np.abs(direct - maxwell))) / scale))
    return rows


# ---------------------------------------------------------------------------
# Monte-Carlo suites
# ---------------------------------------------------------------------------

def _nu_quadratic(grad, F_val):
    """sum_i (nu_i . u)^2 with u = grad log F."""
    u = grad / F_val[:, None]
    s = u[:, :3] + u[:, 3:]
    return np.einsum("ni,ni->n", s, s)


def run_maxwell_suite(seed: int = 0, n_samples: int = DEFAULT_SAMPLES,
                      mixtures=None):
    """alpha == 1 identities: the first-order pairing, its nu_i components,
    the combined second-order sign, and the pointwise orthonormality fact.

    All left sides share one sample stream, all right sides another, so each
    identity compares two independent estimators.
    """
    if mixtures is None:
        mixtures = [("iso_gaussian", isotropic_gaussian()),
                    ("mixture3", random_symmetric_mixture(3, seed + 2))]

    def pairings(x, F_val, grad, hess):
        p = Points(x)
        terms = {"prop": (None, 1.0)}
        terms.update({f"nu{i}": (vf_eval(f"NU{i}", p), 1.0) for i in (1, 2, 3)})
        return _pairings(vf_eval("B0", p), vf_jacobian("B0", p), F_val, grad, hess, terms)

    def right_sides(x, F_val, grad, hess):
        u2 = np.einsum("ni,ni->n", grad, grad) / F_val**2
        nu2 = _nu_quadratic(grad, F_val)
        out = {"prop": -2.0 * u2 - 2.0 * nu2, "conclusion": -8.0 * u2 + 4.0 * nu2}
        out.update({f"nu{i}": _fisher_values(vf_eval(f"NU{i}", x), F_val, grad)
                    for i in (1, 2, 3)})
        return out

    rows = []
    for label, F in mixtures:
        lhs = estimate_many(F, pairings, n_samples, seed, stream=0)
        rhs = estimate_many(F, right_sides, n_samples, seed, stream=1, order=1)

        rows.append(_equality_row("maxwell", f"{label}:first_order_pairing",
                                  lhs["prop"], rhs["prop"]))
        for i in (1, 2, 3):
            scaled = McEstimate(-6.0 * rhs[f"nu{i}"].value, 6.0 * rhs[f"nu{i}"].stderr)
            rows.append(_equality_row("maxwell", f"{label}:nu{i}_pairing",
                                      lhs[f"nu{i}"], scaled))
        if F.symmetric:
            rows.append(_sign_row("maxwell", f"{label}:second_order_sign",
                                  rhs["conclusion"]))
        else:
            rows.append(_row("maxwell", f"{label}:second_order_sign",
                             0.0, 0.0, 0.0, "skip"))

        pts = sample_points(10_000, seed + 3)
        _, grad, _ = F.eval(pts, order=1)
        margin = 2.0 * np.einsum("ni,ni->n", grad, grad) - (
            np.einsum("ni,ni->n", grad[:, :3] + grad[:, 3:], grad[:, :3] + grad[:, 3:])
        )
        rows.append(_point_row("maxwell", f"{label}:orthonormal_frame_fact",
                               max(0.0, float(-margin.min())), tol=1e-12))
    return rows


def _difference_log_gradient(grad, F_val):
    """delta = (grad_v - grad_w) log F, shape (n, 3)."""
    return (grad[:, :3] - grad[:, 3:]) / F_val[:, None]


def _tangent_quadratic(p: Points, delta):
    """sum_k (bt_k . u)^2 = |z x delta|^2, u = grad log F.

    bt_k . u = (e_k x z) . delta = e_k . (z x delta); the cross product keeps
    an exact zero exact, where |z|^2 |delta|^2 - (z . delta)^2 would cancel.
    """
    zxd = np.cross(p.z, delta)
    return np.einsum("ni,ni->n", zxd, zxd)


def _normal_quadratic(p: Points, delta):
    """(n . u)^2 = (z . delta)^2 / (2 |z|^2), u = grad log F."""
    return np.einsum("ni,ni->n", p.z, delta) ** 2 / (2.0 * p.r**2)


def derivative_identity_rows(F: Mixture6, pot, n_samples: int, seed: int,
                             label: str = ""):
    """Lemma-level identities for < I' , L0 > and the three weighted
    derivative identities along L0, for one potential.

    Left sides (first-variation pairings) share a sample stream, right sides
    (commutation forms) another, so each identity is an independent-estimator
    comparison.
    """
    def pairings(x, F_val, grad, hess):
        p = Points(x)
        r, a, _, _ = ops.alpha_bundle(pot, p)
        terms = {
            "l42": (None, 1.0),
            "l43b": (vf_eval("N", p), ops.beta2(pot, p)),
            "l43c": (None, ops.beta1(pot, p)),
        }
        w43a = np.sqrt(a) / r**2
        terms.update({f"l43a_k{k}": (vf_eval(f"B{k}", p), w43a) for k in (1, 2, 3)})
        return _pairings(ops.sqrt_alpha_b0(pot, p), ops.sqrt_alpha_b0_jacobian(pot, p),
                         F_val, grad, hess, terms)

    lhs = estimate_many(F, pairings, n_samples, seed, stream=10)
    lhs43a = McEstimate(
        sum(lhs[f"l43a_k{k}"].value for k in (1, 2, 3)),
        float(np.sqrt(sum(lhs[f"l43a_k{k}"].stderr ** 2 for k in (1, 2, 3)))),
    )

    def right_sides(x, F_val, grad, hess):
        p = Points(x)
        r, a, ap, _ = ops.alpha_bundle(pot, p)
        b1, b2 = ops.beta1(pot, p), ops.beta2(pot, p)
        delta = _difference_log_gradient(grad, F_val)
        tan = _tangent_quadratic(p, delta)
        nn = _normal_quadratic(p, delta)
        u2 = np.einsum("ni,ni->n", grad, grad) / F_val**2
        u = grad / F_val[:, None]
        quad = np.einsum("ni,ni->n", u, ops.sqrt_alpha_b0_jacobian(pot, p).matvec(u))
        return {
            "l42": 2.0 * np.sqrt(a) / r**2 * tan + 2.0 * b2 * nn - b1 * u2,
            "l43a": -2.0 * (a + ap * r) / r**2 * tan,
            "l43b": (2.0 * b2**2 - ops.div_beta2_sqrt_alpha_b0(pot, p)) * nn,
            "l43c": (2.0 * b1 * quad
                     - ops.div_beta1_sqrt_alpha_b0(pot, p) * np.einsum("ni,ni->n", u, u)),
        }

    rhs = estimate_many(F, right_sides, n_samples, seed, stream=11, order=1)
    return [
        _equality_row("derivatives", f"{label}L0_pairing_decomposition",
                      lhs["l42"], rhs["l42"]),
        _equality_row("derivatives", f"{label}tangent_weight_derivative",
                      lhs43a, rhs["l43a"]),
        _equality_row("derivatives", f"{label}normal_weight_derivative",
                      lhs["l43b"], rhs["l43b"]),
        _equality_row("derivatives", f"{label}full_weight_derivative",
                      lhs["l43c"], rhs["l43c"]),
    ]


def run_derivatives_suite(seed: int = 0, gammas=(-2.9, -2.5, -1.0, 0.0, 0.8),
                          n_samples: int = DEFAULT_SAMPLES):
    # Known defect (ROADMAP item 1): z = v - w has an r^2 density near the
    # diagonal, so an integrand scaling like |z|^e has finite variance only
    # for e > -3/2.  The full_weight_derivative right side scales like
    # |z|^gamma: for gamma <= -3/2 its variance is infinite, its standard
    # error rests on a handful of samples, and its row is no 3-sigma test.
    F = random_symmetric_mixture(2, seed + 3, mean_spread=2.5)
    rows = []
    for gamma in gammas:
        pot = PowerLaw(gamma)
        rows += derivative_identity_rows(F, pot, n_samples, seed, label=f"gamma={gamma:g}:")
        x = sample_points(64, seed + 5)
        J = ops.sqrt_alpha_b0_jacobian(pot, x).dense()
        Jd = ops.sqrt_alpha_b0_jacobian_decomposed(pot, x)
        rows.append(_point_row(
            "derivatives", f"gamma={gamma:g}:D_matrix_decomposition",
            float(np.max(np.abs(J - Jd)) / (np.max(np.abs(J)) + 1e-30)), tol=1e-10))

    # alpha == 1 degeneration: the L0 decomposition collapses onto the
    # Maxwell first-order identity (beta1 = 6, beta2 = 2)
    pot0 = PowerLaw(0.0)

    def rhs42_alpha1(x, F_val, grad, hess):
        p = Points(x)
        delta = _difference_log_gradient(grad, F_val)
        tan = _tangent_quadratic(p, delta)
        nn = _normal_quadratic(p, delta)
        u2 = np.einsum("ni,ni->n", grad, grad) / F_val**2
        return {"g": 2.0 / p.r**2 * tan + 4.0 * nn - 6.0 * u2}

    def rhs_maxwell(x, F_val, grad, hess):
        u2 = np.einsum("ni,ni->n", grad, grad) / F_val**2
        return {"g": -2.0 * u2 - 2.0 * _nu_quadratic(grad, F_val)}

    a = estimate_many(F, rhs42_alpha1, n_samples, seed, stream=18, order=1)["g"]
    b = estimate_many(F, rhs_maxwell, n_samples, seed, stream=19, order=1)["g"]
    rows.append(_equality_row("derivatives", "alpha1_degeneration_cross_check", a, b))

    # window-edge algebra of the two coefficient polynomials
    hi = RATIO_WINDOW.hi
    lo = RATIO_WINDOW.lo
    rows.append(_point_row("derivatives", "root_2G2+8G-8_at_hi",
                           abs(2.0 * hi**2 + 8.0 * hi - 8.0), tol=1e-12))
    rows.append(_point_row("derivatives", "root_G2-4G-23_at_lo",
                           abs(lo**2 - 4.0 * lo - 23.0), tol=1e-12))

    # borderline gamma = -3 via the softened kernel and eps -> 0 budget
    values = []
    for j, eps in enumerate((0.4, 0.2, 0.1)):
        pot = SoftenedPowerLaw(-3.0, eps)
        sub = derivative_identity_rows(F, pot, n_samples, seed + 7 + j,
                                       label=f"gamma=-3,eps={eps:g}:")
        rows += sub
        values.append(sub[0]["lhs"])
    extrap = values[-1] + (values[-1] - values[-2])  # first-order Richardson
    budget = abs(extrap - values[-1])
    # report-only: the budget sizes how far eps -> 0 may still move the last
    # value, and no criterion decides it, so the row is labelled "skip", not
    # a "pass" that nothing checked
    rows.append(_row("derivatives", "gamma=-3:eps_extrapolation_budget",
                     extrap, values[-1], budget, "skip"))
    return rows


def _dissipation_pairings(pot, x, F_val, grad, hess):
    """Per-unit-F integrands of < I'(F), G > for G = Q_KS F, Q_L F and the
    remainder (L0 L0 + beta1 L0) F = Q_KS F - Q_L F.

    < I'(F), G > per unit F is psi G / F, psi = |grad log F|^2 - 2 Lap F / F.
    Q_KS takes its direct form and Q_L its a_ij form, so no Hessian matvec
    is made; the frame and decomposed forms they equal pointwise are the
    cross-checks of the qks suite.
    """
    p = Points(x)
    psi = ops.first_variation_density(F_val, grad, hess)
    qks = ops.apply_QKS(pot, p, grad, hess, form="direct")
    ql = ops.apply_QL(pot, p, grad, hess, form="aij")
    return {"qks": psi * qks / F_val, "ql": psi * ql / F_val,
            "rest": psi * (qks - ql) / F_val}


def dissipation_rows(F: Mixture6, pot: PowerLaw, n_samples: int, seed: int,
                     label: str = ""):
    """The dissipation bounds for a power law, whose log-derivative
    Gamma = r alpha'/alpha is the constant gamma."""
    G = pot.gamma
    rows = []
    ests = estimate_many(F, functools.partial(_dissipation_pairings, pot),
                         n_samples, seed, stream=20)

    def right_sides(x, F_val, grad, hess):
        p = Points(x)
        r = p.r
        a = pot.alpha(r)
        delta = _difference_log_gradient(grad, F_val)
        tan = _tangent_quadratic(p, delta)
        nn = _normal_quadratic(p, delta)
        return {
            "ql": (G * G - 19.0) * a / r**2 * tan,
            "rest": -4.0 * a * (1.0 + G) / r**2 * tan + (2.0 * G * G + 8.0 * G - 8.0) * a * nn,
            "final": (G * G - 4.0 * G - 23.0) * a / r**2 * tan,
        }

    bounds = estimate_many(F, right_sides, n_samples, seed, stream=21, order=1)

    # window membership decides whether sign assertions apply; the two
    # coefficient polynomials are reported at Gamma = gamma
    in_window = RATIO_WINDOW.contains(G)
    poly_normal = 2.0 * G * G + 8.0 * G - 8.0
    poly_combined = G * G - 4.0 * G - 23.0
    for name, value in (("coeff_poly_2G2+8G-8", poly_normal),
                        ("coeff_poly_G2-4G-23", poly_combined)):
        if in_window:
            verdict = "pass" if value <= 1e-12 else "fail"
        else:
            verdict = "skip"
        rows.append(_row("dissipation", f"{label}{name}", value, 0.0, 0.0, verdict))

    rows.append(_bound_row("dissipation", f"{label}tangential_bound",
                           ests["ql"], bounds["ql"]))
    rows.append(_bound_row("dissipation", f"{label}remainder_bound",
                           ests["rest"], bounds["rest"]))
    if in_window:
        rows.append(_sign_row("dissipation", f"{label}qks_pairing_nonpositive",
                              ests["qks"]))
        rows.append(_bound_row("dissipation", f"{label}combined_bound",
                               ests["qks"], bounds["final"]))
    else:
        rows.append(_row("dissipation", f"{label}qks_pairing_nonpositive",
                         ests["qks"].value, 0.0, ests["qks"].stderr, "skip"))
        rows.append(_row("dissipation", f"{label}combined_bound",
                         ests["qks"].value, bounds["final"].value,
                         ests["qks"].combined_stderr(bounds["final"]), "skip"))
    return rows


def run_dissipation_suite(seed: int = 0,
                          gammas=(-2.9, -2.5, -2.0, -1.0, 0.0, 0.8),
                          n_samples: int = DEFAULT_SAMPLES):
    mixtures = [("iso_gaussian", isotropic_gaussian()),
                ("mixture3", random_symmetric_mixture(3, seed + 4, mean_spread=2.0))]
    rows = []
    for label, F in mixtures:
        for gamma in gammas:
            rows += dissipation_rows(F, PowerLaw(gamma), n_samples, seed,
                                     label=f"{label}:gamma={gamma:g}:")
    return rows


# ---------------------------------------------------------------------------
# marginal consistency
# ---------------------------------------------------------------------------

def _marginal_quadrature(F: Mixture6, pot, v: np.ndarray, n_rho: int = 128,
                         n_theta: int = 24, n_phi: int = 48, radius: float = 9.0):
    """int Q(F)(v, w) dw by spherical quadrature in w around v."""
    rho_nodes, rho_w = np.polynomial.legendre.leggauss(n_rho)
    R = radius + np.linalg.norm(v)
    rho = 0.5 * R * (rho_nodes + 1.0)
    w_rho = 0.5 * R * rho_w
    ct_nodes, ct_w = np.polynomial.legendre.leggauss(n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    st = np.sqrt(1.0 - ct_nodes**2)
    dirs = np.stack([
        np.outer(st, np.cos(phi)).ravel(),
        np.outer(st, np.sin(phi)).ravel(),
        np.repeat(ct_nodes, n_phi),
    ], axis=1)
    dir_w = np.repeat(ct_w, n_phi) * (2.0 * np.pi / n_phi)
    total = 0.0
    for i, r in enumerate(rho):
        w_pts = v[None, :] - r * dirs
        x = Points(np.concatenate([np.broadcast_to(v, w_pts.shape), w_pts], axis=1))
        _, grad, hess = F.eval(x.x)
        q = ops.apply_QKS(pot, x, grad, hess, form="direct")
        total += w_rho[i] * r**2 * float(np.dot(dir_w, q))
    return total


def run_marginal_suite(seed: int = 0, gammas=(-2.5, -2.0),
                       n_samples: int = DEFAULT_SAMPLES):
    """pi(Q(f (x) f)) against the 3D collision operator from the radial
    kernels machinery at |v| = 0, 0.5, 1, plus the tensor Fisher identity,
    for the unit-mass standard Gaussian f."""
    rows = []
    F = tensor_product([1.0], [np.zeros(3)], [np.eye(3)])
    grid = RadialGrid(4096, 16.0)
    f = gaussian_field(grid, sigma=1.0, mass=1.0)
    for gamma in gammas:
        pot = PowerLaw(gamma)
        target_vals = nondivergence_rhs(f, pot).values
        for p in (0.0, 0.5, 1.0):
            v = np.array([p, 0.0, 0.0])
            got = _marginal_quadrature(F, pot, v)
            got2 = _marginal_quadrature(F, pot, v, n_rho=192)
            target = float(np.interp(max(p, grid.centers[0]), grid.centers, target_vals))
            rel = abs(got - target) / abs(target)
            conv = abs(got - got2) / abs(target)
            verdict = "pass" if (rel <= 1e-3 and conv <= 5e-4) else "fail"
            rows.append(_row("marginal", f"gamma={gamma:g}:v={p:g}",
                             got, target, conv, verdict))
    # tensor symmetry is exact by construction
    pts = sample_points(64, seed)
    swapped = np.concatenate([pts[:, 3:], pts[:, :3]], axis=1)
    res = float(np.max(np.abs(F.eval_density(pts) - F.eval_density(swapped))))
    rows.append(_point_row("marginal", "tensor_swap_symmetry", res, tol=1e-14))
    # i(f) = I(f (x) f) / 2: grid quadrature against the Monte-Carlo estimate
    from ..diagnostics import fisher_information

    i_f = fisher_information(gaussian_field(RadialGrid(2048, 12.0), sigma=1.0, mass=1.0))
    I_F = fisher_functional(F, n_samples=n_samples, seed=seed, stream=30)
    lhs = McEstimate(i_f, 0.0)
    rhs = McEstimate(0.5 * I_F.value, 0.5 * I_F.stderr)
    rows.append(_equality_row("marginal", "tensor_fisher_identity", lhs, rhs))
    return rows


SUITES = {
    "frames": run_frames_suite,
    "commutators": run_commutators_suite,
    "flows": run_flows_suite,
    "qks": run_qks_pointwise_suite,
    "maxwell": run_maxwell_suite,
    "derivatives": run_derivatives_suite,
    "dissipation": run_dissipation_suite,
    "marginal": run_marginal_suite,
}
