"""Monte-Carlo estimation of Fisher functionals and their pairings on R^6.

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

A chunk is never held as one array of samples: each block is drawn just
before it is evaluated, into buffers that the next block reuses, and its
values are copied into a chunk-length array per quantity.  So an integrand
may return views of x, and the rows are bit for bit those of one draw of
the whole chunk.

A block is stored column-major: x and grad F are Fortran-ordered (n, 6)
arrays and each component's A_k d_k a Fortran-ordered (n, 6) view of the
Hessian's (K, 6, n) memory, so each coordinate is one contiguous run of the
block's rows.  The arrays an integrand derives from them (z = v - w, the
lifted fields, the difference gradients) keep that layout, and every
elementwise operation or contraction over a coordinate is a few whole-row
vector operations rather than a 3- or 6-element loop per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import _grad_along
from .gaussians import Mixture6

CHUNK_SIZE = 1 << 17
#: the most samples one estimator draws, so that no run is unbounded: 16x the
#: `verify-lifted` default of 2^20
MAX_SAMPLES = 1 << 24

# rows of a chunk evaluated together: the mixture derivatives and every
# integrand temporary of a block stay in cache.  The dissipation suite at
# gamma = -2.5 and 2^18 samples takes 0.317 s at 2^11 rows, 0.285 s at 2^12
# and 0.271 s at 2^13 (median of 5 in-process runs each, 2-core Xeon).  2^13
# would raise the traced peak of an order-2 estimate from 6.9 to 10.8 MiB,
# over TestPeakMemory's 9 MiB, for 5 % of the time
EVAL_BLOCK = 1 << 12


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float

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
    block of at most EVAL_BLOCK samples, the same names on every block; hess
    is a `MixtureHessian`, or None when order=1 (gradient-only integrands).
    Row i of each value may depend on x[i] alone; x and grad are
    column-major.  Each block of a chunk is drawn just before it is
    evaluated, into buffers the next block reuses, and its values are copied
    into one array per quantity of chunk length, so a value may be a view of
    x or of the Hessian's arrays.  Returns name -> McEstimate.

    The value is the plain sum of g over all samples divided by n.  The
    variance comes from each chunk's (count, mean, M2), M2 computed in two
    passes within the chunk and the chunks combined in index order (Chan et
    al.), so it does not cancel when |mean| >> stderr the way
    sum g^2 / n - mean^2 does.
    """
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"n_samples must be in [1, {MAX_SAMPLES}], got {n_samples}")
    mass = F.mass
    n_chunks = (n_samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    block_rows = min(EVAL_BLOCK, n_samples)
    # the drawn rows, their standard normals and the Hessian's arrays of one
    # block; every eval of this estimate writes its Hessian into hess_out.
    # A block of rows is a column-major view of x_out, so each coordinate is
    # one contiguous run for every array derived from it
    x_out = np.empty(6 * block_rows)
    normals = np.empty((block_rows, 6))
    hess_out = np.empty(7 * len(F.components) * block_rows) if order >= 2 else None
    values: dict = {}    # name -> per-sample values of the current chunk
    sums: dict = {}
    moments: dict = {}   # name -> (count, mean, M2) of the chunks so far
    drawn = 0
    for c in range(n_chunks):
        m = min(CHUNK_SIZE, n_samples - drawn)
        rng = _chunk_rng(seed, stream, c)
        # component k draws rows ends[k] .. ends[k + 1] - 1 of the chunk
        ends = np.concatenate(([0], np.cumsum(F.component_counts(m, rng))))
        for start in range(0, m, EVAL_BLOCK):
            stop = min(start + EVAL_BLOCK, m)
            rows = stop - start
            x = F.sample(np.diff(np.clip(ends, start, stop)), rng,
                         out=x_out[:6 * rows].reshape(6, rows).T, normals=normals[:rows])
            derivs = F.eval(x, order=order, hess_out=hess_out)
            for name, vals in integrand(x, *derivs).items():
                if name not in values:
                    values[name] = np.empty(min(CHUNK_SIZE, n_samples))
                values[name][start:stop] = vals
        for name, chunk_vals in values.items():
            vals = chunk_vals[:m]
            total = float(np.sum(vals))
            sums[name] = sums.get(name, 0.0) + total
            mean_c = total / m
            vals -= mean_c
            np.square(vals, out=vals)
            m2_c = float(np.sum(vals))
            moments[name] = _combine(moments.get(name), m, mean_c, m2_c)
        drawn += m
    out = {}
    for name in sums:
        var = moments[name][2] / n_samples
        out[name] = McEstimate(
            value=mass * (sums[name] / n_samples),
            stderr=mass * float(np.sqrt(var / n_samples)),
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
# pointwise integrands
# ---------------------------------------------------------------------------

def _fisher_values(e, F_val, grad) -> np.ndarray:
    """|e . grad log F|^2 per sample; |grad log F|^2 when e is None."""
    if e is None:
        return np.einsum("ni,ni->n", grad, grad) / F_val**2
    return np.einsum("ni,ni->n", e, grad) ** 2 / F_val**2


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


def fisher_functional(F: Mixture6, n_samples: int = 1 << 20, seed: int = 0,
                      stream: int = 0) -> McEstimate:
    """I(F) = int |grad log F|^2 F."""
    def integrand(x, F_val, grad, hess):
        return {"I": _fisher_values(None, F_val, grad)}

    return estimate_many(F, integrand, n_samples, seed, stream, order=1)["I"]
