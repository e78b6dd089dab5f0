"""Grids, field containers, quadrature and differential operators.

Radial fields live on a uniform cell-centered grid r_i = (i + 1/2) dr on
(0, r_max]; the origin is deliberately not a node, so 1/r factors are always
finite.  All operations are pure functions of immutable snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: values below this threshold are treated as vacuum by the entropy and
#: Fisher functionals (x log x -> 0 convention).
VACUUM_THRESHOLD = 1e-30

#: the most cells a RadialGrid may have, so that a grid's arrays stay small
MAX_CELLS = 1 << 16

_CHECKPOINT_MAGIC = "ksflow-checkpoint"
_CHECKPOINT_VERSION = 1


class FieldError(ValueError):
    """Raised for invalid grids, non-finite data or contract violations."""


@dataclass(frozen=True)
class RadialGrid:
    """Uniform cell-centered radial grid with n_cells cells on (0, r_max].

    dr^2 r_0 (r_0 = dr/2), the smallest denominator of `radial_laplacian`,
    must be a finite normal float, and r^8 at the outermost center, the
    largest weight of the moments the diagnostics record (r^(2+s), s <= 6),
    must be finite.

    Its geometry arrays and quadrature weights are computed once, on first
    use, and are read-only.  `weights` and `cell_volumes` are the only radial
    quadrature: every integral over R^3 of a radial profile is a sum against
    one of them."""

    n_cells: int
    r_max: float

    def __post_init__(self):
        if not 4 <= self.n_cells <= MAX_CELLS:
            raise FieldError(f"n_cells must lie in [4, {MAX_CELLS}], got {self.n_cells}")
        if not (0 < self.r_max < np.inf):
            raise FieldError(f"r_max must be finite and positive, got {self.r_max}")
        dr = self.dr
        if not np.finfo(float).smallest_normal <= dr * dr * (0.5 * dr) < np.inf:
            raise FieldError(f"r_max = {self.r_max!r} makes dr^2 r_0 no finite normal float")
        try:
            ((self.n_cells - 0.5) * dr) ** 8.0
        except OverflowError:
            raise FieldError(f"r_max = {self.r_max!r} makes r^8, the e6 moment weight "
                             f"at the outermost center, overflow") from None

    @property
    def dr(self) -> float:
        return self.r_max / self.n_cells

    @cached_property
    def centers(self) -> np.ndarray:
        return _read_only((np.arange(self.n_cells) + 0.5) * self.dr)

    @cached_property
    def faces(self) -> np.ndarray:
        """Face radii r_{i+1/2} = i*dr, length n_cells + 1 (first face at 0)."""
        return _read_only(np.arange(self.n_cells + 1) * self.dr)

    @cached_property
    def face_areas(self) -> np.ndarray:
        """Sphere areas 4*pi*r_{i+1/2}^2 at the faces (zero at the origin)."""
        return _read_only(4.0 * np.pi * self.faces**2)

    @cached_property
    def cell_volumes(self) -> np.ndarray:
        """Exact shell volumes (4*pi/3) (r_{i+1/2}^3 - r_{i-1/2}^3).

        Factored through the face spacing, which is exact, as
        (hi - lo)(hi^2 + hi lo + lo^2): good to a few ulps, where
        hi^3 - lo^3 as written loses ~i ulps in cell i."""
        lo, hi = self.faces[:-1], self.faces[1:]
        return _read_only((4.0 * np.pi / 3.0) * (hi - lo) * (hi * hi + hi * lo + lo * lo))

    @cached_property
    def weights(self) -> np.ndarray:
        """Midpoint-rule weights 4*pi*r_i^2*dr: sum(weights * g) is the
        integral over R^3 of the radial g sampled at the centers."""
        return _read_only((4.0 * np.pi * self.dr) * self.centers**2)


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


class RadialField:
    """Density samples f(r_i) on a RadialGrid.

    Nonnegative by default; signed auxiliary fields (Laplacians, RHS
    evaluations) share the container with ``signed=True``.
    """

    def __init__(self, grid: RadialGrid, values, signed: bool = False):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_cells,):
            raise FieldError(
                f"values shape {values.shape} does not match grid ({grid.n_cells},)"
            )
        if not np.all(np.isfinite(values)):
            raise FieldError("field values must be finite")
        if not signed and np.any(values < 0):
            raise FieldError(
                "negative values in a nonnegative field (pass signed=True for "
                "auxiliary fields)"
            )
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)
        self.signed = signed

    def __repr__(self):
        return (
            f"RadialField(n={self.grid.n_cells}, r_max={self.grid.r_max}, "
            f"max={self.values.max():.6g}, signed={self.signed})"
        )


def gaussian_field(grid: RadialGrid, sigma: float, mass: float = 1.0,
                   amplitude: float | None = None) -> RadialField:
    """Isotropic Gaussian profile on the grid.

    With ``mass`` given, f(r) = mass (2 pi sigma^2)^{-3/2} exp(-r^2/(2 sigma^2))
    so the total integral is ``mass``.  With ``amplitude`` given instead, the
    peak height is pinned: f(r) = amplitude * exp(-r^2/(2 sigma^2)).
    """
    if not (sigma > 0):
        raise FieldError(f"sigma must be positive, got {sigma}")
    r = grid.centers
    profile = np.exp(-0.5 * (r / sigma) ** 2)
    if amplitude is not None:
        return RadialField(grid, amplitude * profile)
    if mass < 0:
        raise FieldError(f"mass must be nonnegative, got {mass}")
    peak = mass * (2.0 * np.pi * sigma**2) ** -1.5
    return RadialField(grid, peak * profile)


def integrate_radial(f: RadialField, s: float = 0.0) -> float:
    """Moment E_s(f) = integral of f(v) |v|^s over R^3 = 4 pi int r^{2+s} f dr.

    Composite midpoint rule on the cell centers; s = 0 is the mass.
    """
    grid = f.grid
    return float(np.sum(grid.weights * grid.centers**s * f.values))


def weighted_lp_norm(f: RadialField, p: float, m: float = 0.0) -> float:
    """Weighted Lebesgue norm || <v>^m f ||_{L^p} with <v> = sqrt(1 + |v|^2).

    p = inf returns the grid supremum of <r>^m |f|; finite p sums |g|^p
    against the grid's weights.
    """
    if p != np.inf and p < 1:
        raise FieldError(f"p must be >= 1 or inf, got {p}")
    grid = f.grid
    w = (1.0 + grid.centers**2) ** (0.5 * m)
    g = w * np.abs(f.values)
    if p == np.inf:
        return float(g.max())
    return float(np.sum(grid.weights * g**p) ** (1.0 / p))


def radial_laplacian(f: RadialField) -> RadialField:
    """Discrete Laplacian of a radial function, (1/r) (r f)''.

    Second-order central differences on u = r f with the even-symmetry ghost
    value at the origin (u_{-1} = -u_0, i.e. f'(0) = 0).  The outermost cell
    uses quadratic extrapolation of u, exact for polynomials of degree <= 2.
    """
    grid = f.grid
    n = grid.n_cells
    r = grid.centers
    dr = grid.dr
    u = r * f.values
    d2u = np.empty(n)
    d2u[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
    # origin: mirrored cell gives u_{-1} = r_{-1} f_0 = -u_0
    d2u[0] = u[1] - 3.0 * u[0]
    # outer: u_n extrapolated as 3u_{n-1} - 3u_{n-2} + u_{n-3}
    u_n = 3.0 * u[-1] - 3.0 * u[-2] + u[-3]
    d2u[-1] = u_n - 2.0 * u[-1] + u[-2]
    return RadialField(grid, d2u / (dr**2 * r), signed=True)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """The diagnostics rows of a run, one per output time, in time order.

    A run keeps its rows, not its states: every monitor reads the rows, and
    the only state a run writes out is its checkpoint."""

    rows: list = field(default_factory=list)

    def append(self, row: dict):
        if self.rows and row["t"] <= self.rows[-1]["t"]:
            raise FieldError(f"output times must be strictly increasing "
                             f"({row['t']} after {self.rows[-1]['t']})")
        self.rows.append(row)

    def column(self, name: str) -> np.ndarray:
        if self.rows and name not in self.rows[0]:
            raise KeyError(f"no diagnostics column named {name!r}")
        return np.array([row[name] for row in self.rows])


# ---------------------------------------------------------------------------
# Versioned checkpoints: text header + byte-order-declared binary block
# ---------------------------------------------------------------------------

def write_checkpoint(path, f: RadialField, gamma: float = float("nan"),
                     time: float = 0.0):
    """Serialize a field with a text header followed by raw little-endian doubles."""
    header = [
        f"{_CHECKPOINT_MAGIC} {_CHECKPOINT_VERSION}",
        "kind radial",
        f"n_cells {f.grid.n_cells}",
        f"r_max {f.grid.r_max!r}",
        f"signed {int(f.signed)}",
        f"gamma {gamma!r}",
        f"time {time!r}",
        "byte_order little",
        "dtype float64",
        f"count {f.values.size}",
        "end-header",
    ]
    blob = f.values.astype("<f8").tobytes()
    data = ("\n".join(header) + "\n").encode("ascii") + blob
    with open(path, "wb") as fh:
        fh.write(data)
