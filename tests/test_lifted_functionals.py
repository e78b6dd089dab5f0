import functools
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest

from ksflow.kernels import PowerLaw
from ksflow.lifted import functionals
from ksflow.lifted.frames import FrameError, Points, vf_eval, vf_jacobian
from ksflow.lifted.functionals import (
    CHUNK_SIZE,
    EVAL_BLOCK,
    MAX_SAMPLES,
    McEstimate,
    _combine,
    _fisher_values,
    _pairings,
    estimate_many,
    fisher_functional,
)
from ksflow.lifted.gaussians import (
    Gaussian6,
    Mixture6,
    MixtureError,
    isotropic_gaussian,
    random_symmetric_mixture,
    tensor_product,
)
from ksflow.lifted.suites import _dissipation_pairings


@pytest.fixture
def one_process(monkeypatch):
    """Every chunk runs in the test's process, where an integrand that
    records what it sees can be watched: no worker is forked."""
    monkeypatch.setattr(functionals, "_usable_cpus", lambda: 1)


def convex_combination(F, G, theta):
    """theta*F + (1-theta)*G, again a mixture."""
    comps = [Gaussian6(theta * c.weight, c.mean, c.precision) for c in F.components]
    comps += [Gaussian6((1.0 - theta) * c.weight, c.mean, c.precision)
              for c in G.components]
    return Mixture6(comps)


class TestFisherFunctional:
    def test_isotropic_gaussian_full(self):
        # I = trace of the unit precision = 6 for unit mass
        F = isotropic_gaussian()
        est = fisher_functional(F, n_samples=1 << 18, seed=5)
        assert abs(est.value - 6.0) <= 3 * est.stderr
        assert est.stderr <= 0.02

    def test_constant_direction_unit_variance(self):
        F = isotropic_gaussian()
        e = np.zeros(6)
        e[2] = 1.0

        def integrand(x, F_val, grad, hess):
            return {"I": _fisher_values(np.broadcast_to(e, x.shape), F_val, grad)}

        est = estimate_many(F, integrand, 1 << 18, seed=6, order=1)["I"]
        assert abs(est.value - 1.0) <= 3 * est.stderr

    def test_mass_scaling(self):
        # I is 1-homogeneous in F: doubling the weight doubles the functional
        F1 = isotropic_gaussian(weight=1.0)
        F2 = isotropic_gaussian(weight=2.0)
        e1 = fisher_functional(F1, n_samples=1 << 16, seed=7)
        e2 = fisher_functional(F2, n_samples=1 << 16, seed=7)
        assert e2.value == pytest.approx(2 * e1.value, rel=1e-12)

    def test_seed_determinism_bit_for_bit(self):
        F = random_symmetric_mixture(2, 31)
        a = fisher_functional(F, n_samples=1 << 16, seed=123)
        b = fisher_functional(F, n_samples=1 << 16, seed=123)
        assert a.value == b.value and a.stderr == b.stderr

    def test_discrepancy_shrinks_like_sqrt_n(self):
        F = random_symmetric_mixture(2, 33)
        small = fisher_functional(F, n_samples=1 << 14, seed=9)
        large = fisher_functional(F, n_samples=1 << 18, seed=9)
        assert large.stderr <= small.stderr * 0.3  # 1/4 expected

    def test_tensor_fisher_identity(self):
        # i(f) = I(f (x) f)/2 for a normalized 3D Gaussian: both equal 3/sigma^2
        sigma = 1.3
        F = tensor_product([1.0], [np.zeros(3)], [np.eye(3) / sigma**2])
        est = fisher_functional(F, n_samples=1 << 18, seed=10)
        assert abs(0.5 * est.value - 3.0 / sigma**2) <= 3 * 0.5 * est.stderr


class TestConvexity:
    def test_fisher_convex_in_density(self):
        # I(theta F + (1-theta) G) <= theta I(F) + (1-theta) I(G)
        F = isotropic_gaussian(scale=1.0)
        G = isotropic_gaussian(scale=2.5)
        n, seed = 1 << 17, 11
        iF = fisher_functional(F, n_samples=n, seed=seed)
        iG = fisher_functional(G, n_samples=n, seed=seed, stream=1)
        for theta in (0.25, 0.5, 0.75):
            mix = convex_combination(F, G, theta)
            iM = fisher_functional(mix, n_samples=n, seed=seed, stream=2)
            bound = theta * iF.value + (1 - theta) * iG.value
            noise = 3 * np.sqrt(iF.stderr**2 + iG.stderr**2 + iM.stderr**2)
            assert iM.value <= bound + noise


def first_variation_pairing(F, b, direction, n_samples, seed):
    """< I_e'(F), L_b F > through `estimate_many` and `_pairings` on stream 0,
    as the suites pair; direction None pairs the full-gradient I'(F)."""
    def integrand(x, F_val, grad, hess):
        p = Points(x)
        e = None if direction is None else vf_eval(direction, p)
        return _pairings(vf_eval(b, p), vf_jacobian(b, p), F_val, grad, hess,
                         {"pair": (e, 1.0)})

    return estimate_many(F, integrand, n_samples, seed)["pair"]


class TestPairings:
    def test_translation_pairing_vanishes_for_even_density(self):
        # b = const e, div b = 0, [e, e] = 0: the pairing integrand is odd
        F = isotropic_gaussian()
        e = np.zeros(6)
        e[0] = 1.0
        est = first_variation_pairing(F, e, direction=e, n_samples=1 << 17, seed=12)
        assert abs(est.value) <= 3 * est.stderr

    def test_b0_pairing_matches_closed_form_for_iso_gaussian(self):
        # <I'(F), L_b0 F> = -2 I - 2 sum I_nu = -24 for the unit 6D Gaussian
        F = isotropic_gaussian()
        est = first_variation_pairing(F, "B0", None, n_samples=1 << 18, seed=13)
        assert abs(est.value + 24.0) <= 3 * est.stderr

    def test_agreement_helper(self):
        a = McEstimate(1.0, 0.1)
        b = McEstimate(1.2, 0.1)
        assert a.agrees_with(b)
        c = McEstimate(2.0, 0.1)
        assert not a.agrees_with(c)


def two_quantities(x, F_val, grad, hess):
    return {"u2": np.einsum("ni,ni->n", grad, grad) / F_val**2,
            "lap": hess.trace() / F_val}


class TestEstimateMany:
    def test_bit_for_bit_repeatable_over_a_partial_chunk(self):
        F = random_symmetric_mixture(2, 41)
        n = CHUNK_SIZE + 1234
        a = estimate_many(F, two_quantities, n, seed=3, stream=5)
        b = estimate_many(F, two_quantities, n, seed=3, stream=5)
        assert list(a) == ["u2", "lap"]
        assert a == b

    def test_one_integrand_matches_separate_streams(self):
        # quantities computed together equal the ones estimated alone
        F = isotropic_gaussian()
        both = estimate_many(F, two_quantities, 5000, seed=4, stream=2)
        alone = estimate_many(F, lambda *a: {"u2": two_quantities(*a)["u2"]},
                              5000, seed=4, stream=2)
        assert both["u2"] == alone["u2"]

    def test_variance_does_not_cancel_under_a_large_mean(self):
        # g = 1e8 + x_0 with x_0 ~ N(0, 1): the stderr is that of x_0 alone,
        # 1/sqrt(n) = 1.95e-3; sum g^2 / n - mean^2 reported 2.76e-3
        F = isotropic_gaussian()
        n = 1 << 18
        shifted = estimate_many(F, lambda x, *_: {"g": 1e8 + x[:, 0]}, n, seed=0)["g"]
        plain = estimate_many(F, lambda x, *_: {"g": x[:, 0]}, n, seed=0)["g"]
        assert shifted.stderr == pytest.approx(plain.stderr, rel=1e-6)
        assert shifted.stderr == pytest.approx(n ** -0.5, rel=0.01)

    @pytest.mark.parametrize("n", [0, -4, MAX_SAMPLES + 1])
    def test_nonpositive_sample_count_rejected(self, n):
        # a count above MAX_SAMPLES too, before the first draw
        F = isotropic_gaussian()
        with pytest.raises(ValueError, match="n_samples"):
            estimate_many(F, two_quantities, n, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            fisher_functional(F, n_samples=n, seed=0)


# ---------------------------------------------------------------------------
# streamed blocks against whole-chunk oracles
# ---------------------------------------------------------------------------

#: six components after symmetrizing: each draws about five blocks' worth of
#: a full chunk, so component segments straddle block edges
SIX_COMPONENTS = random_symmetric_mixture(3, 4, mean_spread=2.0)


def whole_chunk_draws(F, n, seed, stream):
    """(counts, rows) of every chunk, drawn as one array per chunk: one
    multinomial over the components, then a (count, 6) standard normal draw
    per component, scaled by its covariance factor and shifted."""
    weights = np.array([g.weight for g in F.components])
    chunks = []
    for c in range(-(-n // CHUNK_SIZE)):
        m = min(CHUNK_SIZE, n - c * CHUNK_SIZE)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, c)))
        counts = rng.multinomial(m, weights / weights.sum())
        rows = [rng.standard_normal((k, 6)) @ np.linalg.cholesky(np.linalg.inv(g.precision)).T
                + g.mean for g, k in zip(F.components, counts) if k]
        chunks.append((counts, np.concatenate(rows)))
    return chunks


def whole_chunk_estimates(F, integrand, n, seed, stream=0, order=2):
    """The whole-chunk reference for estimate_many: each chunk drawn as one
    array, evaluated in EVAL_BLOCK slices, and the values joined."""
    sums, moments = {}, {}
    for _, x in whole_chunk_draws(F, n, seed, stream):
        blocks = {}
        for start in range(0, len(x), EVAL_BLOCK):
            xb = x[start:start + EVAL_BLOCK]
            for name, vals in integrand(xb, *F.eval(xb, order=order)).items():
                blocks.setdefault(name, []).append(vals)
        for name, parts in blocks.items():
            vals = np.concatenate(parts)
            total = float(np.sum(vals))
            sums[name] = sums.get(name, 0.0) + total
            mean = total / len(x)
            m2 = float(np.sum((vals - mean) ** 2))
            moments[name] = _combine(moments.get(name), len(x), mean, m2)
    return {name: McEstimate(F.mass * (sums[name] / n),
                             F.mass * float(np.sqrt(moments[name][2] / n / n)))
            for name in sums}


def streamed_rows(F, n, seed, stream):
    """Every block estimate_many draws, in order."""
    blocks = []

    def record(x, F_val, grad, hess):
        blocks.append(x.copy())
        return {"x0": x[:, 0]}

    estimate_many(F, record, n, seed, stream, order=1)
    assert max(len(b) for b in blocks) <= EVAL_BLOCK
    return np.concatenate(blocks)


#: a component of weight 1e-9 draws no row of a few thousand
WITH_AN_EMPTY_COMPONENT = Mixture6([
    Gaussian6(1.0, np.zeros(6), np.eye(6)),
    Gaussian6(1e-9, np.ones(6), np.eye(6)),
    Gaussian6(0.5, -np.ones(6), 2.0 * np.eye(6)),
])


class TestStreamedSampling:
    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("F, n", [
        (SIX_COMPONENTS, CHUNK_SIZE + 1234),
        (WITH_AN_EMPTY_COMPONENT, 3 * EVAL_BLOCK + 17),
        (SIX_COMPONENTS, EVAL_BLOCK - 5),
    ], ids=["two-chunks", "empty-component", "below-one-block"])
    def test_rows_equal_the_whole_chunk_draw_bit_for_bit(self, F, n):
        chunks = whole_chunk_draws(F, n, seed=8, stream=3)
        counts = np.concatenate([k for k, _ in chunks])
        if F is WITH_AN_EMPTY_COMPONENT:
            assert counts[1] == 0 and counts.all(where=np.arange(len(counts)) != 1)
        if n > CHUNK_SIZE:
            # some component's rows straddle a block edge
            ends = np.cumsum(chunks[0][0])[:-1]
            assert np.any(ends % EVAL_BLOCK)
        want = np.concatenate([rows for _, rows in chunks])
        assert np.array_equal(streamed_rows(F, n, seed=8, stream=3), want)

    @pytest.mark.parametrize("order", [1, 2])
    def test_estimates_equal_the_concatenating_oracle(self, order):
        pot = PowerLaw(-2.5)
        integrand = (functools.partial(_dissipation_pairings, pot) if order == 2
                     else lambda x, F_val, grad, hess: {"I": _fisher_values(None, F_val, grad)})
        n = CHUNK_SIZE + 1234
        got = estimate_many(SIX_COMPONENTS, integrand, n, seed=2, stream=20, order=order)
        want = whole_chunk_estimates(SIX_COMPONENTS, integrand, n, seed=2, stream=20,
                                     order=order)
        assert list(got) == list(want)
        assert got == want

    def test_an_integrand_may_return_views_of_the_block_buffers(self):
        # x and the Hessian's arrays are reused by the next block; the values
        # must be copied out before it is drawn
        F, n = SIX_COMPONENTS, CHUNK_SIZE + 1234

        def views(x, F_val, grad, hess):
            return {"x0": x[:, 0], "c0": hess.comp[0]}

        got = estimate_many(F, views, n, seed=5, stream=1)
        chunks = whole_chunk_draws(F, n, seed=5, stream=1)
        x0_sum = sum(float(np.sum(rows[:, 0].copy())) for _, rows in chunks)
        assert got["x0"].value == F.mass * (x0_sum / n)
        assert got == whole_chunk_estimates(F, views, n, seed=5, stream=1)

    def test_two_evals_do_not_share_a_hessian(self):
        F = SIX_COMPONENTS
        rng = np.random.default_rng(4)
        x1, x2 = rng.standard_normal((2, 100, 6))
        _, _, h1 = F.eval(x1)
        comp1, Ad1 = h1.comp.copy(), h1.Ad.copy()
        _, _, h2 = F.eval(x2)
        assert not np.shares_memory(h1.comp, h2.comp)
        assert not np.shares_memory(h1.Ad, h2.Ad)
        assert np.array_equal(h1.comp, comp1) and np.array_equal(h1.Ad, Ad1)


class TestColumnMajorBlocks:
    def test_the_block_an_integrand_sees_is_column_major(self):
        # x, grad and each component's A_k d_k hold every coordinate as one
        # contiguous run of the block's rows, the last, partial block too
        seen = []

        def record(x, F_val, grad, hess):
            seen.append((len(x), x.flags.f_contiguous, grad.flags.f_contiguous,
                         [Ad.flags.f_contiguous for Ad in hess.Ad]))
            return {"x0": x[:, 0]}

        estimate_many(SIX_COMPONENTS, record, EVAL_BLOCK + 17, seed=0)
        assert [rows for rows, *_ in seen] == [EVAL_BLOCK, 17]
        for _, x_f, grad_f, Ad_f in seen:
            assert x_f and grad_f and Ad_f == [True] * len(SIX_COMPONENTS.components)


@pytest.mark.usefixtures("one_process")
class TestPeakMemory:
    """One estimate holds a block of samples, derivatives and integrand
    temporaries, and one chunk-length array per quantity: 1 MiB each at
    CHUNK_SIZE = 2^17.  Drawing the whole chunk first peaked at 18.75 MiB
    (order 2) and 16.74 MiB (order 1) on this mixture.  Both chunks run in
    this process, where tracemalloc sees them."""

    @pytest.mark.parametrize("order, limit_mib", [(2, 9.0), (1, 6.0)])
    def test_traced_peak_at_two_chunks(self, order, limit_mib):
        integrand = (functools.partial(_dissipation_pairings, PowerLaw(-2.5)) if order == 2
                     else lambda x, F_val, grad, hess: {"I": _fisher_values(None, F_val, grad)})
        # first-call allocations (imports, cached constants) out of the count
        estimate_many(SIX_COMPONENTS, integrand, EVAL_BLOCK, seed=0, order=order)
        tracemalloc.start()
        try:
            estimate_many(SIX_COMPONENTS, integrand, 1 << 18, seed=0, order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# chunks shared among forked workers
# ---------------------------------------------------------------------------

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def planted(where, action):
    """An integrand that runs `action` on each block it evaluates in the
    test's process (where="caller") or in a forked worker (where="worker"),
    and returns x_0."""
    caller = os.getpid()

    def integrand(x, F_val, grad, hess):
        if (os.getpid() == caller) == (where == "caller"):
            action()
        return {"x0": x[:, 0]}

    return integrand


def fail(message):
    def action():
        raise ValueError(message)

    return action


class TestWorkers:
    @pytest.mark.parametrize("n", [CHUNK_SIZE + 1234, 3 * CHUNK_SIZE],
                             ids=["partial-chunk", "three-chunks"])
    @pytest.mark.parametrize("order", [1, 2])
    def test_estimates_equal_at_one_two_and_three_workers(self, monkeypatch, order, n):
        F = random_symmetric_mixture(2, 41)
        integrand = (two_quantities if order == 2
                     else lambda x, F_val, grad, hess: {"I": _fisher_values(None, F_val, grad)})
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(functionals, "_usable_cpus", lambda: workers)
            got.append(estimate_many(F, integrand, n, seed=3, stream=5, order=order))
            assert_no_child_left()
        assert [list(est) for est in got] == [list(got[0])] * 3
        assert [repr(est) for est in got] == [repr(got[0])] * 3

    @pytest.mark.parametrize("error", [ValueError("planted in a worker"),
                                       FrameError("planted in a worker"),
                                       MixtureError("planted in a worker")],
                             ids=lambda e: type(e).__name__)
    def test_a_worker_raises_as_the_caller_would(self, monkeypatch, error):
        # chunk 1, one sample, runs in worker 1 at W = 2 and here at W = 1
        def integrand(x, F_val, grad, hess):
            if len(x) == 1:
                raise error
            return {"x0": x[:, 0]}

        got = []
        for workers in (2, 1):
            monkeypatch.setattr(functionals, "_usable_cpus", lambda: workers)
            with pytest.raises(type(error)) as raised:
                estimate_many(isotropic_gaussian(), integrand, CHUNK_SIZE + 1, seed=0)
            got.append((type(raised.value), raised.value.args))
            assert_no_child_left()
        assert got == [(type(error), error.args)] * 2

    def test_an_error_that_cannot_be_pickled_comes_back_named(self, monkeypatch):
        class Unpicklable(Exception):
            def __init__(self, a, b):
                super().__init__(f"{a} and {b}")

        def action():
            raise Unpicklable("planted", "in a worker")

        monkeypatch.setattr(functionals, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="^Unpicklable: planted and in a worker$"):
            estimate_many(isotropic_gaussian(), planted("worker", action),
                          CHUNK_SIZE + 1, seed=0)
        assert_no_child_left()

    def test_a_worker_that_is_killed_makes_the_caller_raise(self, monkeypatch):
        monkeypatch.setattr(functionals, "_usable_cpus", lambda: 3)
        with pytest.raises(RuntimeError, match="worker 1 ended after writing 0 of 25 bytes"):
            estimate_many(isotropic_gaussian(),
                          planted("worker", lambda: os.kill(os.getpid(), signal.SIGKILL)),
                          2 * CHUNK_SIZE + 1, seed=0)
        assert_no_child_left()

    def test_the_callers_exception_stops_every_worker(self, monkeypatch):
        # the workers are in their first chunk when the caller raises in its own
        monkeypatch.setattr(functionals, "_usable_cpus", lambda: 3)
        with pytest.raises(ValueError, match="planted in the caller"):
            estimate_many(isotropic_gaussian(), planted("caller", fail("planted in the caller")),
                          3 * CHUNK_SIZE, seed=0)
        assert_no_child_left()

    def test_a_worker_whose_caller_has_died_stops(self, monkeypatch):
        # os.getppid as the worker would see it once its caller had died
        monkeypatch.setattr(functionals, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "getppid", lambda: -1)
        with pytest.raises(RuntimeError, match="worker 1 ended after writing 0 of"):
            estimate_many(isotropic_gaussian(), two_quantities, CHUNK_SIZE + 1, seed=0)
        assert_no_child_left()

    def test_a_process_running_other_threads_forks_no_worker(self, monkeypatch):
        monkeypatch.setattr(functionals, "_usable_cpus", lambda: 2)
        forked = estimate_many(isotropic_gaussian(), two_quantities, CHUNK_SIZE + 1, seed=0)

        def fork():
            raise AssertionError("forked beside another thread")

        monkeypatch.setattr(os, "fork", fork)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            serial = estimate_many(isotropic_gaussian(), two_quantities, CHUNK_SIZE + 1, seed=0)
        finally:
            release.set()
            thread.join()
        assert repr(serial) == repr(forked)
