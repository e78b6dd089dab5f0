"""Interaction potentials and the nonlocal coefficients of the isotropic
Landau (Krieger-Strain) flow.

The diffusion coefficient is a[f] = f * alpha(|.|)|.|^2 (a[f] = f * |.|^{2+gamma}
for the power law) and the reaction coefficient is

    h[f] = (3+gamma) f * |.|^gamma     for gamma in (-3, -2],
    h[f] = 4 pi f                      for gamma = -3,

so that Delta a[f] = (2+gamma) h[f].  Radial convolutions use the exact 1D
reduction

    (f * |.|^mu)(r) = (2 pi / (r (mu+2))) int_0^inf s f(s)
                      [ (r+s)^{mu+2} - |r-s|^{mu+2} ] ds,

with the singular factor integrated in closed form on every cell pair, so the
integrable |r-s|^{mu+2} singularity (mu in (-3,-2)) costs no accuracy.  On
the uniform grid every cell-pair integral is a difference of two primitives
taken at (i+j) or |i-j| half-cells from the origin, so the reduction is a
Hankel plus a Toeplitz operator built from O(n) sequences.  Their spectra are
cached per (grid, mu) and a coefficient evaluation is one rfft of f and one
inverse rfft of two rows: O(n log n) time and O(n) memory, no n x n matrix.

The FFT rounding is relative to the largest kernel entries, those at 2 r_max,
not to the entries that build a given output, and outputs near the origin
are divided by r.  Against the dense closed form it is ~1e-11 relative for a
unit Gaussian on r_max = 12, and it grows with r_max / sigma: ~3e-9 at
r_max = 160 for mu = -0.1, and ~eps (2n)^{mu+3} of the largest output when
the mass sits in the first cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    CartesianField3,
    RadialField,
    RadialGrid,
    integrate_radial,
    radial_laplacian,
)


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


def gamma_ratio(pot, r):
    """Log-derivative Gamma(r) = r alpha'(r) / alpha(r); constant gamma for power laws."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise KernelError("gamma_ratio requires r > 0")
    if isinstance(pot, PowerLaw):
        return np.full_like(r, pot.gamma) if r.ndim else pot.gamma
    a = pot.alpha(r)
    if np.any(a <= 0):
        raise KernelError("alpha must be positive for the ratio Gamma")
    out = r * pot.alpha_prime(r) / a
    return out if r.ndim else float(out)


# ---------------------------------------------------------------------------
# Radial convolution with |.|^mu
# ---------------------------------------------------------------------------

_spectrum_cache: dict = {}
_SPECTRUM_CACHE_MAX = 12


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


def kernel_matrix(grid: RadialGrid, mu: float) -> np.ndarray:
    """Cached convolution operator for the kernel |.|^mu on the given grid.

    The operator is stored in its spectral form (see _kernel_spectrum), a
    read-only complex array of O(n) size; a cache hit returns the same object.
    """
    key = (grid.n_cells, grid.r_max, mu)
    spectrum = _spectrum_cache.get(key)
    if spectrum is None:
        spectrum = _kernel_spectrum(grid, mu)
        spectrum.setflags(write=False)
        if len(_spectrum_cache) >= _SPECTRUM_CACHE_MAX:
            _spectrum_cache.pop(next(iter(_spectrum_cache)))
        _spectrum_cache[key] = spectrum
    return spectrum


def radial_convolve(f: RadialField, mu: float) -> RadialField:
    """3D convolution (f * |.|^mu)(r) for radial f, mu in (-3, 2].

    mu = 0 returns the constant mass; mu = -2 is the numerical mu -> -2 limit
    of the closed form.
    """
    if mu <= -3.0:
        raise KernelError(f"kernel exponent mu = {mu} is not integrable (need mu > -3)")
    if mu > 2.0:
        raise KernelError(f"kernel exponent mu = {mu} outside supported range (-3, 2]")
    if mu == 0.0:
        mass = integrate_radial(f, 0.0)
        return RadialField(f.grid, np.full(f.grid.n_cells, mass), signed=f.signed)
    hankel, toeplitz = kernel_matrix(f.grid, mu)
    x = np.fft.rfft(f.values, 2 * (hankel.shape[-1] - 1))
    a, b = np.fft.irfft(hankel * x.conj() + toeplitz * x)[:, : f.grid.n_cells]
    out = a / f.grid.centers + b
    if not f.signed:
        out = np.maximum(out, 0.0)
    return RadialField(f.grid, out, signed=f.signed)


def coeff_a(f: RadialField, pot) -> RadialField:
    """Diffusion coefficient a[f] = f * alpha(|.|)|.|^2 (>= 0 everywhere).

    Power law: a[f] = f * |.|^{2+gamma}; gamma = -2 gives the constant mass and
    the flow degenerates to the heat equation.
    """
    if not isinstance(pot, PowerLaw):
        raise KernelError("a[f] is defined for power-law potentials only")
    return radial_convolve(f, 2.0 + pot.gamma)


def coeff_h(f: RadialField, pot) -> RadialField:
    """Reaction coefficient h[f]: 4 pi f at gamma = -3, else (3+gamma) f * |.|^gamma."""
    if not isinstance(pot, PowerLaw):
        raise KernelError("h[f] is defined for power-law potentials only")
    gamma = pot.gamma
    if not (-3.0 <= gamma <= -2.0):
        raise KernelError(f"h[f] requires gamma in [-3, -2], got {gamma}")
    if gamma == -3.0:
        return RadialField(f.grid, 4.0 * np.pi * f.values, signed=f.signed)
    conv = radial_convolve(f, gamma)
    return RadialField(f.grid, (3.0 + gamma) * conv.values, signed=f.signed)


def nondivergence_rhs(f: RadialField, pot) -> RadialField:
    """Pointwise a[f] Laplacian(f) - (2+gamma) h[f] f (signed field).

    Analytically identical to `solver.flux_form_rhs` and never used for
    stepping: it is the 3D operator the marginal suite compares
    pi(Q(f (x) f)) against, and a cross-check of the discretization.
    """
    if not isinstance(pot, PowerLaw):
        raise KernelError("nondivergence form requires a power-law potential")
    a = coeff_a(f, pot)
    lap = radial_laplacian(f)
    gamma = pot.gamma
    if 2.0 + gamma == 0.0:
        reaction = np.zeros_like(f.values)
    else:
        h = coeff_h(f, pot)
        reaction = (2.0 + gamma) * h.values * f.values
    return RadialField(f.grid, a.values * lap.values - reaction, signed=True)


# ---------------------------------------------------------------------------
# FFT convolution on the 3D box
# ---------------------------------------------------------------------------

def _cube_cell_integral(mu: float, h: float, n_sphere: int = 512) -> float:
    """Exact integral of |z|^mu over the cube [-h/2, h/2]^3.

    In spherical coordinates the cube integral is
    int_{S^2} R(w)^{3+mu}/(3+mu) dw with R(w) = (h/2)/max_i |w_i|; the sphere
    integral is evaluated by a product Gauss x trapezoid rule (the integrand is
    bounded and piecewise smooth).
    """
    if mu + 3.0 <= 0:
        raise KernelError("cell integral requires mu > -3")
    cos_nodes, cos_w = np.polynomial.legendre.leggauss(n_sphere // 2)
    phi = (np.arange(n_sphere) + 0.5) * (2.0 * np.pi / n_sphere)
    st = np.sqrt(1.0 - cos_nodes**2)[:, None]
    wx = st * np.cos(phi)[None, :]
    wy = st * np.sin(phi)[None, :]
    wz = np.broadcast_to(cos_nodes[:, None], wx.shape)
    m = np.maximum(np.maximum(np.abs(wx), np.abs(wy)), np.abs(wz))
    R = (0.5 * h) / m
    vals = R ** (3.0 + mu) / (3.0 + mu)
    return float(np.sum(cos_w[:, None] * vals) * (2.0 * np.pi / n_sphere))


_cube_cache: dict = {}


def cartesian_convolve(f3: CartesianField3, mu: float) -> CartesianField3:
    """FFT convolution of a 3D field with |z|^mu on the box.

    Zero-padded to twice the lattice per axis, so every displacement between
    two box points is represented and the kernel is never wrapped.  The origin
    cell carries the exact cell-averaged kernel integral, preserving
    second-order accuracy despite the singularity.
    """
    if not (-3.0 < mu <= 0.0):
        raise KernelError(f"cartesian kernel exponent mu = {mu} outside (-3, 0]")
    grid = f3.grid
    n, h = grid.n, grid.h
    if mu == 0.0:
        return CartesianField3(grid, np.full((n,) * 3, f3.mass()), signed=f3.signed)
    m = 2 * n
    d = np.concatenate([np.arange(0, n + 1), np.arange(-n + 1, 0)]) * h
    DX, DY, DZ = np.meshgrid(d, d, d, indexing="ij")
    rho = np.sqrt(DX**2 + DY**2 + DZ**2)
    kernel = np.zeros_like(rho)
    nz = rho > 0
    kernel[nz] = rho[nz] ** mu
    key = (mu, h)
    if key not in _cube_cache:
        _cube_cache[key] = _cube_cell_integral(mu, h) / h**3
    kernel[0, 0, 0] = _cube_cache[key]

    src = np.zeros((m,) * 3)
    src[:n, :n, :n] = f3.values
    axes = (0, 1, 2)
    conv = np.fft.irfftn(
        np.fft.rfftn(src, axes=axes) * np.fft.rfftn(kernel, axes=axes),
        s=(m,) * 3,
        axes=axes,
    )
    out = conv[:n, :n, :n] * h**3
    if not f3.signed:
        out = np.maximum(out, 0.0)
    return CartesianField3(grid, out, signed=f3.signed)

