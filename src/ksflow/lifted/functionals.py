"""Monte-Carlo estimation of weighted Fisher functionals on R^6.

Every integral against F is an expectation under exact mixture sampling:

    int g(x) F(x) dx = mass(F) * E_{x ~ F/mass}[ g(x) ].

Sampling is chunked with a fixed chunk size; chunk c of logical stream s
draws from numpy's SeedSequence(seed, spawn_key=(s, c)).  Chunk boundaries
never depend on scheduling, and chunks are reduced in index order, so a given
(seed, n_samples) pair is bit-for-bit reproducible and embarrassingly
parallel in principle.

Independent left/right estimates of an identity use distinct stream ids, so
"agreement within 3 standard errors" compares genuinely independent noise.

One stream has one integrand: a function of (x, F, grad F, Hess F) on a
block of a chunk that returns a dict of named per-sample arrays, one per
estimated quantity.  Whatever several of them share (z = v - w and r = |z|
through one `frames.Points`, frame values, Jacobians, operator values) is
computed once per block as a plain local.  The pointwise helpers here
(`_fisher_values`, `_pairings`) build those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import PowerLaw
from . import operators as ops
from .frames import _grad_along, as_points, vf_eval, vf_jacobian
from .gaussians import Mixture6

CHUNK_SIZE = 1 << 17
# rows of a chunk evaluated together: the mixture derivatives and every
# integrand temporary of a block stay in cache, which halves the time per
# sample against evaluating the whole chunk at once
EVAL_BLOCK = 1 << 12

WEIGHT_NAMES = ("ONE", "ALPHA", "SQRT_ALPHA_OVER_R2", "BETA1", "BETA2")


class IntegrabilityError(ValueError):
    """A weight/direction combination is not integrable near the diagonal."""


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    n_samples: int
    seed: int

    def agrees_with(self, other: "McEstimate", k: float = 3.0) -> bool:
        return abs(self.value - other.value) <= k * self.combined_stderr(other)

    def combined_stderr(self, other: "McEstimate") -> float:
        return float(np.hypot(self.stderr, other.stderr))


def _chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, chunk)))


def estimate_many(F: Mixture6, integrand, n_samples: int, seed: int,
                  stream: int = 0, order: int = 2) -> dict:
    """Estimate mass * E[g] for every quantity g of one stream's integrand.

    integrand(x, F_val, grad, hess) returns name -> per-sample values on a
    block of samples, the same names on every block; hess is a
    `MixtureHessian`, or None when order=1 (gradient-only integrands).  Row i
    of each value may depend on x[i] alone: a chunk is evaluated in blocks of
    EVAL_BLOCK rows and the values are joined before any reduction.  Returns
    name -> McEstimate.

    The value is the plain sum of g over all samples divided by n.  The
    variance comes from each chunk's (count, mean, M2), M2 computed in two
    passes within the chunk and the chunks combined in index order (Chan et
    al.), so it does not cancel when |mean| >> stderr the way
    sum g^2 / n - mean^2 does.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    mass = F.mass
    n_chunks = (n_samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    sums: dict = {}
    moments: dict = {}   # name -> (count, mean, M2) of the chunks so far
    drawn = 0
    for c in range(n_chunks):
        m = min(CHUNK_SIZE, n_samples - drawn)
        rng = _chunk_rng(seed, stream, c)
        x = F.sample(m, rng)
        blocks: dict = {}
        for start in range(0, m, EVAL_BLOCK):
            xb = x[start:start + EVAL_BLOCK]
            for name, vals in integrand(xb, *F.eval(xb, order=order)).items():
                blocks.setdefault(name, []).append(vals)
        for name, parts in blocks.items():
            vals = np.concatenate(parts)
            total = float(np.sum(vals))
            sums[name] = sums.get(name, 0.0) + total
            mean_c = total / m
            m2_c = float(np.sum((vals - mean_c) ** 2))
            moments[name] = _combine(moments.get(name), m, mean_c, m2_c)
        drawn += m
    out = {}
    for name in sums:
        var = moments[name][2] / n_samples
        out[name] = McEstimate(
            value=mass * (sums[name] / n_samples),
            stderr=mass * float(np.sqrt(var / n_samples)),
            n_samples=n_samples,
            seed=seed,
        )
    return out


def _combine(acc, count: int, mean: float, m2: float):
    """Merge one chunk's (count, mean, M2) into the running triple."""
    if acc is None:
        return count, mean, m2
    n_a, mean_a, m2_a = acc
    n = n_a + count
    delta = mean - mean_a
    return n, mean_a + delta * count / n, m2_a + m2 + delta * delta * n_a * count / n


# ---------------------------------------------------------------------------
# weights and directions
# ---------------------------------------------------------------------------

def weight_values(weight, pot, x) -> np.ndarray:
    """Evaluate a scalar weight (one of WEIGHT_NAMES) at x (an array or Points)."""
    if weight == "ONE":
        return np.ones(len(as_points(x)))
    r, a, ap, _ = ops.alpha_bundle(pot, x)
    if weight == "ALPHA":
        return a
    if weight == "SQRT_ALPHA_OVER_R2":
        return np.sqrt(a) / r**2
    if weight == "BETA1":
        return ops.beta1(pot, x)
    if weight == "BETA2":
        return ops.beta2(pot, x)
    raise ValueError(f"unknown weight {weight!r}")


def _weight_diagonal_exponent(weight, gamma: float) -> float:
    if weight == "ONE":
        return 0.0
    if weight == "ALPHA":
        return gamma
    if weight == "SQRT_ALPHA_OVER_R2":
        return 0.5 * gamma - 2.0
    if weight in ("BETA1", "BETA2"):
        return 0.5 * gamma
    raise ValueError(f"unknown weight {weight!r}")


def _direction_compensation(direction) -> float:
    """Extra |z| powers the squared directional derivative supplies."""
    if isinstance(direction, str) and direction in ("B0", "B1", "B2", "B3", "L0"):
        return 2.0
    return 0.0


def check_integrability(weight, direction, pot):
    """Near-diagonal exponent must exceed -3 (the z-marginal has an r^2 density).

    Raises IntegrabilityError naming the violated condition; soft potentials
    are always admissible.
    """
    if not isinstance(pot, PowerLaw):
        return
    e = _weight_diagonal_exponent(weight, pot.gamma) + _direction_compensation(direction)
    if e <= -3.0:
        raise IntegrabilityError(
            f"weight {weight!r} with direction {direction!r} scales like "
            f"|v-w|^{e:g} near the diagonal; integrability requires the "
            f"exponent to exceed -3 (gamma = {pot.gamma:g})"
        )


def _is_full(direction) -> bool:
    return isinstance(direction, str) and direction == "FULL"


def _direction_values(direction, pot, x):
    """Values (n, 6) of a direction; None for FULL (the whole gradient)."""
    if _is_full(direction):
        return None
    if isinstance(direction, str) and direction == "L0":
        return ops.sqrt_alpha_b0(pot, x)
    return vf_eval(direction, x)


def _weight(weight, pot, x):
    return 1.0 if weight == "ONE" else weight_values(weight, pot, x)


def _transport_field(b, pot, x):
    """(values, jacobian) for b = frame name, constant vector, or "L0"."""
    if isinstance(b, str) and b == "L0":
        return ops.sqrt_alpha_b0(pot, x), ops.sqrt_alpha_b0_jacobian(pot, x)
    return vf_eval(b, x), vf_jacobian(b, x)


# ---------------------------------------------------------------------------
# pointwise integrands
# ---------------------------------------------------------------------------

def _fisher_values(e, beta, F_val, grad) -> np.ndarray:
    """beta |e . grad log F|^2 per sample; |grad log F|^2 when e is None."""
    if e is None:
        s = np.einsum("ni,ni->n", grad, grad) / F_val**2
    else:
        s = np.einsum("ni,ni->n", e, grad) ** 2 / F_val**2
    return beta * s


def _pairings(vb, Jb, F_val, grad, hess, terms: dict) -> dict:
    """Per-unit-F integrands of < (I_e^beta)'(F), L_b F > for one field b.

    vb, Jb are b's values and Jacobian; terms maps name -> (e, beta), e the
    direction values or None for the full gradient.  Per sample,

        [2 beta (e.grad F)(e.grad(b.grad F))/F - beta (e.grad F)^2 (b.grad F)/F^2] / F,

    with grad(b.grad F) and b.grad F computed once for all the terms.
    """
    gbF = _grad_along(Jb, vb, grad, hess)
    bF = np.einsum("ni,ni->n", vb, grad)
    out = {}
    for name, (e, beta) in terms.items():
        if e is None:
            first = 2.0 * np.einsum("ni,ni->n", grad, gbF) / F_val
            second = np.einsum("ni,ni->n", grad, grad) * bF / F_val**2
        else:
            eF = np.einsum("ni,ni->n", e, grad)
            first = 2.0 * eF * np.einsum("ni,ni->n", e, gbF) / F_val
            second = eF**2 * bF / F_val**2
        out[name] = beta * (first - second) / F_val
    return out


# ---------------------------------------------------------------------------
# functionals and first-variation pairings
# ---------------------------------------------------------------------------

def fisher_functional(F: Mixture6, weight="ONE", direction="FULL",
                      n_samples: int = 1 << 20, seed: int = 0, pot=None,
                      stream: int = 0) -> McEstimate:
    """I_e^beta(F) = int beta |e . grad log F|^2 F  (FULL: |grad log F|^2 F)."""
    if not _is_full(direction):
        check_integrability(weight, direction, pot if pot is not None else PowerLaw(0.0))
    if weight != "ONE" and pot is None:
        raise ValueError("weighted functionals need a potential")

    def integrand(x, F_val, grad, hess):
        p = as_points(x)
        e = _direction_values(direction, pot, p)
        return {"I": _fisher_values(e, _weight(weight, pot, p), F_val, grad)}

    return estimate_many(F, integrand, n_samples, seed, stream, order=1)["I"]


def pair_first_variation(F: Mixture6, b, weight="ONE", direction="FULL",
                         n_samples: int = 1 << 20, seed: int = 0, pot=None,
                         stream: int = 0) -> McEstimate:
    """< (I_e^beta)'(F), L_b(F) > from the explicit first-variation integrand.

    No perturbed functional and no finite-difference epsilon anywhere.
    """
    if not _is_full(direction):
        check_integrability(weight, direction, pot if pot is not None else PowerLaw(0.0))

    def integrand(x, F_val, grad, hess):
        p = as_points(x)
        vb, Jb = _transport_field(b, pot, p)
        term = (_direction_values(direction, pot, p), _weight(weight, pot, p))
        return _pairings(vb, Jb, F_val, grad, hess, {"pair": term})

    return estimate_many(F, integrand, n_samples, seed, stream)["pair"]
