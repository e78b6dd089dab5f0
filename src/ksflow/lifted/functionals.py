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
chunk that returns a dict of named per-sample arrays, one per estimated
quantity.  Whatever several of them share (frame values, Jacobians,
operator values) is computed once per chunk as a plain local.  The pointwise
helpers here (`_fisher_values`, `_pairings`) build those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import PowerLaw
from . import operators as ops
from .frames import _grad_along, vf_eval, vf_jacobian
from .gaussians import Mixture6

CHUNK_SIZE = 1 << 17

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

    integrand(x, F_val, grad, hess) returns name -> per-sample values on one
    chunk, the same names on every chunk.  order=1 skips the Hessian (hess is
    None) for gradient-only integrands.  Returns name -> McEstimate.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    mass = F.mass
    n_chunks = (n_samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    sums: dict = {}
    sq_sums: dict = {}
    drawn = 0
    for c in range(n_chunks):
        m = min(CHUNK_SIZE, n_samples - drawn)
        rng = _chunk_rng(seed, stream, c)
        x = F.sample(m, rng)
        F_val, grad, hess = F.eval(x, order=order)
        for name, vals in integrand(x, F_val, grad, hess).items():
            sums[name] = sums.get(name, 0.0) + float(np.sum(vals))
            sq_sums[name] = sq_sums.get(name, 0.0) + float(np.sum(vals * vals))
        drawn += m
    out = {}
    for name in sums:
        mean = sums[name] / n_samples
        var = max(sq_sums[name] / n_samples - mean**2, 0.0)
        out[name] = McEstimate(
            value=mass * mean,
            stderr=mass * float(np.sqrt(var / n_samples)),
            n_samples=n_samples,
            seed=seed,
        )
    return out


# ---------------------------------------------------------------------------
# weights and directions
# ---------------------------------------------------------------------------

def weight_values(weight, pot, x: np.ndarray) -> np.ndarray:
    """Evaluate a scalar weight (one of WEIGHT_NAMES) at x."""
    if weight == "ONE":
        return np.ones(np.atleast_2d(x).shape[0])
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


def _direction_values(direction, pot, x: np.ndarray):
    """Values (n, 6) of a direction; None for FULL (the whole gradient)."""
    if _is_full(direction):
        return None
    if isinstance(direction, str) and direction == "L0":
        return ops.sqrt_alpha_b0(pot, x)
    return vf_eval(direction, x)


def _weight(weight, pot, x: np.ndarray):
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
        e = _direction_values(direction, pot, x)
        return {"I": _fisher_values(e, _weight(weight, pot, x), F_val, grad)}

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
        vb, Jb = _transport_field(b, pot, x)
        term = (_direction_values(direction, pot, x), _weight(weight, pot, x))
        return _pairings(vb, Jb, F_val, grad, hess, {"pair": term})

    return estimate_many(F, integrand, n_samples, seed, stream)["pair"]
