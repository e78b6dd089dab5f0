"""Interaction potentials and the nonlocal coefficients of the isotropic
Landau (Krieger-Strain) flow.

The diffusion coefficient is a[f] = f * alpha(|.|)|.|^2 (a[f] = f * |.|^{2+gamma}
for the power law) and the reaction coefficient is

    h[f] = (3+gamma) f * |.|^gamma     for gamma in (-3, -2],
    h[f] = 4 pi f                      for gamma = -3,

so that Delta a[f] = (2+gamma) h[f].  Both are bare arrays of a radial
profile: a[f] is `radial_convolve(grid, values, 2+gamma)` and h[f] is
`h_values(grid, values, gamma)`.  Every convolution here is of a radial
profile on a RadialGrid, by the exact 1D reduction

    (f * |.|^mu)(r) = (2 pi / (r (mu+2))) int_0^inf s f(s)
                      [ (r+s)^{mu+2} - |r-s|^{mu+2} ] ds,

with the singular factor integrated in closed form on every cell pair, so the
integrable |r-s|^{mu+2} singularity (mu in (-3,-2)) costs no accuracy.  On
the uniform grid every cell-pair integral is a difference of two primitives
taken at (i+j) or |i-j| half-cells from the origin, so the reduction is a
Hankel plus a Toeplitz operator built from O(n) sequences.  Their spectra are
cached per (grid, mu) and a coefficient evaluation is one rfft of f and one
inverse rfft of two rows: O(n log n) time and O(n) memory, no n x n matrix.

Two exponents reduce further.  mu = 0 is the constant finite-volume mass
sum_j V_j f_j, the mass the scheme conserves.  mu = -1, the Coulomb kernel
f * |.|^{-1} = 4 pi (-Laplacian)^{-1} f that a[f] is at gamma = -3, has
(r+s) - |r-s| = 2 min(r, s), so Newton's shell theorem gives

    (f * |.|^{-1})(r) = (4 pi / r) int_0^r s^2 f(s) ds + 4 pi int_r^inf s f(s) ds,

and the same closed-form cell-pair integrals become one forward and one
reversed prefix sum over the grid's cell volumes and two cached weight
vectors: O(n), no FFT, and rounding relative to the terms each output sums.

For every other exponent the FFT rounding is relative to the largest kernel
entries, those at 2 r_max, not to the entries that build a given output, and
outputs near the origin are divided by r.  Against the dense closed form it
is ~1e-11 relative for a unit Gaussian on r_max = 12, and it grows with
r_max / sigma: ~3e-9 at r_max = 160 for mu = -0.1, and ~eps (2n)^{mu+3} of
the largest output when the mass sits in the first cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import RadialField, RadialGrid, radial_laplacian


class KernelError(ValueError):
    """Raised for inadmissible exponents or potentials."""


# ---------------------------------------------------------------------------
# Interaction potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLaw:
    """alpha(r) = r^gamma with gamma in [-3, 1]."""

    gamma: float

    def __post_init__(self):
        if not (-3.0 <= self.gamma <= 1.0):
            raise KernelError(f"power-law gamma must lie in [-3, 1], got {self.gamma}")

    def alpha(self, r):
        return np.asarray(r, dtype=float) ** self.gamma

    def alpha_prime(self, r):
        if self.gamma == 0.0:
            return np.zeros_like(np.asarray(r, dtype=float))
        return self.gamma * np.asarray(r, dtype=float) ** (self.gamma - 1.0)

    def alpha_second(self, r):
        g = self.gamma
        if g in (0.0, 1.0):
            return np.zeros_like(np.asarray(r, dtype=float))
        return g * (g - 1.0) * np.asarray(r, dtype=float) ** (g - 2.0)


@dataclass(frozen=True)
class SoftenedPowerLaw:
    """alpha(r) = (r^2 + eps^2)^{gamma/2}.

    Smooth at the origin; its log-derivative Gamma(r) = gamma r^2/(r^2+eps^2)
    sweeps (gamma, 0], so for gamma in [-3, 0] it stays inside the monotone
    window.  Used for the eps -> 0 regularization of borderline gamma = -3
    functionals.
    """

    gamma: float
    eps: float

    def __post_init__(self):
        if not (self.eps > 0):
            raise KernelError(f"softening eps must be positive, got {self.eps}")

    def alpha(self, r):
        r = np.asarray(r, dtype=float)
        return (r**2 + self.eps**2) ** (0.5 * self.gamma)

    def alpha_prime(self, r):
        r = np.asarray(r, dtype=float)
        return self.gamma * r * (r**2 + self.eps**2) ** (0.5 * self.gamma - 1.0)

    def alpha_second(self, r):
        r = np.asarray(r, dtype=float)
        q = r**2 + self.eps**2
        g = self.gamma
        return g * q ** (0.5 * g - 2.0) * (q + (g - 2.0) * r**2)


@dataclass(frozen=True)
class RatioWindow:
    """Admissible window for the log-derivative Gamma = r alpha'/alpha."""

    lo: float = 2.0 - 3.0 * np.sqrt(3.0)
    hi: float = -2.0 + 2.0 * np.sqrt(2.0)

    def contains(self, value) -> bool:
        return bool(np.all((self.lo <= np.asarray(value)) & (np.asarray(value) <= self.hi)))


RATIO_WINDOW = RatioWindow()


# ---------------------------------------------------------------------------
# Radial convolution with |.|^mu
# ---------------------------------------------------------------------------

_operator_cache: dict = {}
_OPERATOR_CACHE_MAX = 12


def _smooth_length(m: int) -> int:
    """The smallest 5-smooth number (2^a 3^b 5^c) that is >= m."""
    best = 2 * m
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _primitive_differences(grid: RadialGrid, nu: float):
    """The O(n) sequences the cell-pair integrals are made of, times 2 pi/nu.

    With t_k = (k + 1/2) dr, k < 2n, and the primitives Q_p(t) = t^p / p:
    d2[k] = Q_{nu+2}(t_{k+1}) - Q_{nu+2}(t_k), d1[k] likewise for Q_{nu+1},
    and the split diagonal cell's 2 Q_{nu+1}(t_0).
    """
    t = (np.arange(2 * grid.n_cells) + 0.5) * grid.dr
    scale = 2.0 * np.pi / nu
    q1 = scale * t ** (nu + 1.0) / (nu + 1.0)
    return scale * np.diff(t ** (nu + 2.0) / (nu + 2.0)), np.diff(q1), 2.0 * q1[0]


def _kernel_spectrum(grid: RadialGrid, mu: float) -> np.ndarray:
    """Spectra of the Hankel and Toeplitz factors of the kernel |.|^mu.

    The closed-form integral of s [(r+s)^nu - |r-s|^nu] (nu = mu+2) over
    source cell j at target r_i differences the primitives at r_i + faces,
    (i+j+1/2) dr and (i+j+3/2) dr, and at |r_i - faces|, (|i-j| -+ 1/2) dr.
    With the sequences of _primitive_differences this is

        (f * |.|^mu)_i = A_i / r_i + B_i,
        A_i =  sum_j (d2[i+j] + sign(i-j) d2[|i-j|-1]) x_j,
        B_i = -sum_j (d1[i+j] + d1[|i-j|-1]) x_j,

    with d1[-1] standing for the split diagonal cell.  The i+j terms are a
    correlation (spectrum times conj(rfft(x))), the i-j terms a convolution
    (lag e stored at e mod L).  Returns the rfft of both rows of each factor
    at an even 5-smooth length L >= 2n, shape (2 factors, 2 rows, L/2 + 1):
    sums i+j <= 2n-2 and lags |i-j| <= n-1 never wrap.  mu = -2 averages the
    sequences of nu = +-eps, the symmetric numerical limit of the closed form,
    which divides by nu.
    """
    n = grid.n_cells
    if abs(mu + 2.0) < 1e-9:
        eps = 1e-3
        plus, minus = _primitive_differences(grid, eps), _primitive_differences(grid, -eps)
        d2, d1, diag = (0.5 * (p + m) for p, m in zip(plus, minus))
    else:
        d2, d1, diag = _primitive_differences(grid, mu + 2.0)
    length = 2 * _smooth_length(n)
    hankel = np.zeros((2, length))
    hankel[0, : 2 * n - 1] = d2
    hankel[1, : 2 * n - 1] = -d1
    toeplitz = np.zeros((2, length))   # lag i-j stored at (i-j) mod L
    toeplitz[0, 1:n] = d2[: n - 1]
    toeplitz[0, length - n + 1:] = -d2[n - 2:: -1]
    toeplitz[1, 0] = -diag
    toeplitz[1, 1:n] = -d1[: n - 1]
    toeplitz[1, length - n + 1:] = -d1[n - 2:: -1]
    return np.stack([np.fft.rfft(hankel), np.fft.rfft(toeplitz)])


def _shell_weights(grid: RadialGrid) -> np.ndarray:
    """Shell-theorem weights of the Coulomb kernel mu = -1, shape (2, n).

    For cell-constant f with faces F_j, cell volumes V_j and centres r_i,

        (f * |.|^{-1})_i = (1/r_i) sum_{j<i} V_j x_j + sum_{j>i} w_j x_j + d_i x_i,

    V_j the grid's `cell_volumes`, w_j = 2 pi (F_{j+1}^2 - F_j^2) and the
    split diagonal cell's d_i = 4 pi [(r_i^3 - F_i^3) / (3 r_i) +
    (F_{i+1}^2 - r_i^2) / 2]: the closed-form cell-pair integrals of the
    Hankel/Toeplitz form at nu = 1.  Differences of powers are factored
    through the differences of radii, which are exact, so every weight is
    good to a few ulps.  Returns the rows (w, d); V stays with the grid, so
    the cache holds no second copy of it.
    """
    faces, r = grid.faces, grid.centers
    lo, hi = faces[:-1], faces[1:]
    shells = 2.0 * np.pi * (hi - lo) * (hi + lo)
    diag = 4.0 * np.pi * ((r - lo) * (r * r + r * lo + lo * lo) / (3.0 * r)
                          + 0.5 * (hi - r) * (hi + r))
    return np.stack([shells, diag])


def kernel_matrix(grid: RadialGrid, mu: float) -> np.ndarray:
    """Cached convolution operator for the kernel |.|^mu on the given grid.

    The operator is stored in its O(n) form, a read-only array: the shell
    weights (_shell_weights) at mu = -1, the spectra (_kernel_spectrum) for
    every other exponent.  A cache hit returns the same object.
    """
    key = (grid.n_cells, grid.r_max, mu)
    operator = _operator_cache.get(key)
    if operator is None:
        operator = _shell_weights(grid) if mu == -1.0 else _kernel_spectrum(grid, mu)
        operator.setflags(write=False)
        if len(_operator_cache) >= _OPERATOR_CACHE_MAX:
            _operator_cache.pop(next(iter(_operator_cache)))
        _operator_cache[key] = operator
    return operator


def radial_convolve(grid: RadialGrid, values: np.ndarray, mu: float,
                    out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
    """3D convolution (f * |.|^mu)(r) of the nonnegative radial profile
    `values` on `grid`, mu in (-3, 2], clipped at 0.

    Works on bare arrays, so the solver convolves its state every step without
    building fields; a[f] is radial_convolve(grid, values, 2 + gamma).  mu = 0
    returns the constant finite-volume mass sum_j V_j x_j, the mass the scheme
    conserves; mu = -1 is two prefix sums by the shell theorem; mu = -2 is the
    numerical mu -> -2 limit of the closed form.

    The result is written into `out` (length n, not `values`) and returned; a
    new array when out is None.  The mu = -1 sums take `work` (length n,
    neither `values` nor `out`) as scratch, a new array when None, so with
    both given they allocate nothing.  The FFT path allocates its transforms
    either way.
    """
    if mu <= -3.0:
        raise KernelError(f"kernel exponent mu = {mu} is not integrable (need mu > -3)")
    if mu > 2.0:
        raise KernelError(f"kernel exponent mu = {mu} outside supported range (-3, 2]")
    if out is None:
        out = np.empty(grid.n_cells)
    if mu == 0.0:
        out.fill(float(np.dot(grid.cell_volumes, values)))
    elif mu == -1.0:
        # indexed, not unpacked: unpacking iterates the array, at 4x the cost
        operator = kernel_matrix(grid, mu)
        shells, diag = operator[0], operator[1]
        if work is None:
            work = np.empty(grid.n_cells)
        # (1/r_i) sum_{j<i} V_j x_j.  np.add.accumulate, not np.cumsum: the
        # wrapper costs as much as the sum.  out[0], the empty sum, is set on
        # every call: a reused buffer holds the previous call's value there.
        np.multiply(grid.cell_volumes, values, out=work)
        np.add.accumulate(work[:-1], out=out[1:])
        out[0] = 0.0
        np.divide(out, grid.centers, out=out)
        # + sum_{j>i} w_j x_j: work[j] = sum_{i>=j} w_i x_i, summed from the
        # outside in through a reversed view
        np.multiply(shells, values, out=work)
        outside_in = work[::-1]
        np.add.accumulate(outside_in, out=outside_in)
        inner = out[:-1]
        np.add(inner, work[1:], out=inner)
        np.add(out, np.multiply(diag, values, out=work), out=out)
    else:
        hankel, toeplitz = kernel_matrix(grid, mu)
        x = np.fft.rfft(values, 2 * (hankel.shape[-1] - 1))
        a, b = np.fft.irfft(hankel * x.conj() + toeplitz * x)[:, : grid.n_cells]
        np.divide(a, grid.centers, out=out)
        out += b
    return np.maximum(out, 0.0, out=out)


def h_values(grid: RadialGrid, values: np.ndarray, gamma: float) -> np.ndarray:
    """Reaction coefficient h[f] of the radial profile `values`, gamma in
    [-3, -2]: 4 pi f at gamma = -3, else (3+gamma) f * |.|^gamma."""
    if not (-3.0 <= gamma <= -2.0):
        raise KernelError(f"h[f] requires gamma in [-3, -2], got {gamma}")
    if gamma == -3.0:
        return 4.0 * np.pi * values
    return (3.0 + gamma) * radial_convolve(grid, values, gamma)


def _h_sup_constant(gamma: float) -> float:
    """C(gamma) = 3^{1+gamma/3} (4 pi)^{-gamma/3}, the sharp constant of
    sup h[f] <= C(gamma) M^{1+gamma/3} ||f||_inf^{-gamma/3}; 4 pi at gamma = -3."""
    return 3.0 ** (1.0 + gamma / 3.0) * (4.0 * np.pi) ** (-gamma / 3.0)


def _h_sup_bound(mass: float, sup: float, gamma: float) -> float:
    """Upper bound on max h[f] for cell-constant f >= 0 with max f = sup and
    finite-volume mass sum_j V_j f_j = mass, gamma in [-3, -2).

    The closed form is the exact 3D convolution of the piecewise-constant
    profile, so the bathtub principle applies: g = sup on the ball of that
    mass maximizes (g * |.|^gamma)(0).  At gamma = -3 it equals the max of
    h_values bit for bit.
    """
    return _h_sup_constant(gamma) * mass ** (1.0 + gamma / 3.0) * sup ** (-gamma / 3.0)


def nondivergence_rhs(f: RadialField, pot) -> RadialField:
    """Pointwise a[f] Laplacian(f) - (2+gamma) h[f] f (signed field).

    Analytically identical to the divergence form the solver discretizes
    and never used for stepping: it is the 3D operator the marginal suite
    compares pi(Q(f (x) f)) against, and a cross-check of the solver's
    finite-volume fluxes.
    """
    if not isinstance(pot, PowerLaw):
        raise KernelError("nondivergence form requires a power-law potential")
    gamma = pot.gamma
    a = radial_convolve(f.grid, f.values, 2.0 + gamma)
    lap = radial_laplacian(f)
    if 2.0 + gamma == 0.0:
        reaction = np.zeros_like(f.values)
    else:
        reaction = (2.0 + gamma) * h_values(f.grid, f.values, gamma) * f.values
    return RadialField(f.grid, a * lap.values - reaction, signed=True)
