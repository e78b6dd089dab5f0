"""Monte-Carlo estimation of Fisher functionals and their pairings on R^6.

Every integral against F is an expectation under exact mixture sampling:

    int g(x) F(x) dx = mass(F) * E_{x ~ F/mass}[ g(x) ].

Sampling is chunked with a fixed chunk size; chunk c of logical stream s
draws from numpy's SeedSequence(seed, spawn_key=(s, c)).  Chunk boundaries
never depend on scheduling, and chunks are reduced in index order, so a given
(seed, n_samples) pair is bit-for-bit reproducible.  The chunks of one
estimate run in parallel where POSIX fork exists (`_run_chunks`): one
process per usable CPU, at most one per chunk, each chunk's (count, sum,
M2) returned to the caller as exact floats and combined there in index
order, so the worker count changes no bit.  Elsewhere, and in a process
that runs other Python threads, they run serially.

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

import itertools
import os
import pickle
import threading
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

    The chunks run in this process and in forked workers (`_run_chunks`),
    so the integrand need not be picklable, but any state it keeps beyond
    its return values stays in the process that ran the chunk.  An exception
    it raises in a worker is raised here as itself, as in a serial run.

    The value is the plain sum of g over all samples divided by n.  The
    variance comes from each chunk's (count, mean, M2), M2 computed in two
    passes within the chunk and the chunks combined in index order (Chan et
    al.), so it does not cancel when |mean| >> stderr the way
    sum g^2 / n - mean^2 does.  Which process ran a chunk changes no bit.
    """
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValueError(f"n_samples must be in [1, {MAX_SAMPLES}], got {n_samples}")
    mass = F.mass
    n_chunks = (n_samples + CHUNK_SIZE - 1) // CHUNK_SIZE
    block_rows = min(EVAL_BLOCK, n_samples)
    # the drawn rows, their standard normals and the Hessian's arrays of one
    # block; every eval of this estimate writes its Hessian into hess_out.
    # A block of rows is a column-major view of x_out, so each coordinate is
    # one contiguous run for every array derived from it.  The last item
    # maps name -> per-sample values of the current chunk
    buffers = (np.empty(6 * block_rows), np.empty((block_rows, 6)),
               np.empty(7 * len(F.components) * block_rows) if order >= 2 else None, {})
    sums: dict = {}
    moments: dict = {}   # name -> (count, mean, M2) of the chunks so far
    for m, chunk in _run_chunks(lambda c: _chunk_moments(
            F, integrand, n_samples, seed, stream, order, buffers, c), n_chunks):
        for name, (total, m2_c) in chunk.items():
            sums[name] = sums.get(name, 0.0) + total
            moments[name] = _combine(moments.get(name), m, total / m, m2_c)
    out = {}
    for name in sums:
        var = moments[name][2] / n_samples
        out[name] = McEstimate(
            value=mass * (sums[name] / n_samples),
            stderr=mass * float(np.sqrt(var / n_samples)),
        )
    return out


def _chunk_moments(F: Mixture6, integrand, n_samples: int, seed: int, stream: int,
                   order: int, buffers: tuple, c: int) -> tuple:
    """(m, {name: (total, M2)}) of chunk c's m samples: the sum of each
    quantity and its centred sum of squares, in two passes over the chunk.

    buffers = (x_out, normals, hess_out, values) are `estimate_many`'s,
    reused by every chunk a process runs.
    """
    x_out, normals, hess_out, values = buffers
    m = min(CHUNK_SIZE, n_samples - c * CHUNK_SIZE)
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
                # a process's first chunk is its longest: only the last is short
                values[name] = np.empty(m)
            values[name][start:stop] = vals
    out = {}
    for name, chunk_vals in values.items():
        vals = chunk_vals[:m]
        total = float(np.sum(vals))
        vals -= total / m
        np.square(vals, out=vals)
        out[name] = (total, float(np.sum(vals)))
    return m, out


def _usable_cpus() -> int:
    """The CPUs this process may run on: the most processes among which
    `_run_chunks` shares one estimate's chunks."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run_chunks(run, n_chunks: int) -> list:
    """[run(c) for c in range(n_chunks)], run(c) = (m, {name: (total, M2)}),
    with the chunks shared among W = min(usable CPUs, n_chunks) processes.

    Workers w = 1 .. W-1 are forked here, so they share the integrand's
    closures without pickling them.  Worker w runs chunks w, w + W, ... and
    writes their floats to a pipe, 8 bytes each, then leaves with os._exit.
    This process runs chunks 0, W, ..., then reads each worker's pipe and
    reaps it, in worker order, so the results are bit for bit those of
    running every chunk here.  No worker is forked at W = 1: for one chunk,
    on a platform without os.fork, and in a process that runs other Python
    threads, whose locks a fork would copy held.

    No worker outlives the call.  A worker's exception is raised here again,
    the same type with the same arguments, so which process ran the failing
    chunk does not show; one that does not survive pickling comes back as a
    RuntimeError naming it.  A worker that dies before it has written its
    chunks (killed, say) makes this process raise a RuntimeError.  If this
    process raises, the workers still running are killed and reaped.
    """
    forks = hasattr(os, "fork") and threading.active_count() == 1
    workers = min(_usable_cpus(), n_chunks) if forks else 1
    caller = os.getpid()
    children = []   # (worker, pid, read end of its pipe)
    try:
        for w in range(1, workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the worker: its chunks' floats, or its pickled error, up the
                # pipe.  It never unwinds into the caller's frames: every way
                # out is os._exit, so its exception is sent, not raised
                try:
                    os.write(write_end, b"F" + np.array([
                        [m, *itertools.chain(*chunk.values())]
                        for m, chunk in _run_share(run, range(w, n_chunks, workers), caller)
                    ]).tobytes())
                except BaseException as exc:
                    try:
                        error = pickle.dumps(exc)
                        pickle.loads(error)
                    except Exception:
                        error = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
                    os.write(write_end, b"E" + error)
                finally:
                    os._exit(0)
            os.close(write_end)
            children.append((w, pid, open(read_end, "rb")))
        results = [None] * n_chunks
        results[::workers] = _run_share(run, range(0, n_chunks, workers), caller)
        names = list(results[0][1])   # every chunk's, in the integrand's order
        width = 1 + 2 * len(names)
        for w, _, pipe in children:
            with pipe:
                message = pipe.read()
            chunks = range(w, n_chunks, workers)
            if message[:1] == b"E":
                raise pickle.loads(message[1:])
            if message[:1] != b"F" or len(message) != 1 + 8 * width * len(chunks):
                raise RuntimeError(f"estimate_many worker {w} ended after writing "
                                   f"{len(message)} of {1 + 8 * width * len(chunks)} bytes")
            rows = np.frombuffer(message, dtype=float, offset=1).reshape(-1, width)
            for c, row in zip(chunks, rows.tolist()):
                results[c] = (int(row[0]), {name: (row[1 + 2 * i], row[2 + 2 * i])
                                            for i, name in enumerate(names)})
        return results
    finally:
        for _, pid, pipe in children:
            if not pipe.closed:   # this process raised before reading the worker
                import signal

                os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def _run_share(run, chunks: range, caller: int) -> list:
    """[run(c) for c in chunks], one process's share of `_run_chunks`.  A
    forked worker whose caller has died stops at its next chunk."""
    out = []
    for c in chunks:
        if os.getpid() != caller and os.getppid() != caller:
            os._exit(1)
        out.append(run(c))
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
