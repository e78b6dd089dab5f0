"""Empirical probes of the convolution and interpolation inequalities.

Each probe evaluates both sides of an inequality over a seeded family of
radial Gaussian mixtures and over the dilation sweep f_lam(v) = f(lam v),
and reports:

  * the raw ratio lhs/rhs per member and dilation (finite ratios are the
    inequalities' testable content; the constants are never explicit),
  * a scaling-consistency statistic: each side recomputed on the dilated
    field is divided by its value predicted from the lam = 1 field through
    the dilation law below, and the ratio of those two normalized sides must
    sit at 1 up to quadrature error.

Each lemma is described once, in `_LEMMAS`: one lhs term, the rhs terms and
how the rhs terms combine.  A term is a weighted norm

    || <.>^m D f ||_{L^p},   D f = f, grad f, D^2 f or f * |.|^mu,

and under f_lam(v) = f(lam v), d = 3, every term obeys one dilation law,

    || <.>^m D f_lam ||_{L^p} = lam^(k - 3/p) || <./lam>^m D f ||_{L^p},

with k = 0, 1, 2 or -3-mu for f, grad f, D^2 f or f * |.|^mu respectively:
grad f_lam = lam (grad f)(lam .), D^2 f_lam = lam^2 (D^2 f)(lam .),
(f_lam * |.|^mu)(v) = lam^(-3-mu) (f * |.|^mu)(lam v), and the measure
contributes lam^(-3/p).  The <.> weights are not dilation-homogeneous, so the
law carries the reweighting <./lam> rather than a bare power of lam.
All requested lemmas share one seeded family and so one set of grids.  Each
grid is evaluated once, for the whole family, by `_sides`: on entry it builds
the grid's weight tables, one (S, n) block per distinct weight over the S
scales of that grid, and drops them on return.  For each member it evaluates
the profile and its derivatives from one exponential per mixture component,
every distinct D f and every distinct term of the requested lemmas once, each
term at all S scales in one pass, and returns every lemma's sides at every
requested lam: the direct side is lam = 1 on the dilated grid, the predicted
side every lam of the sweep on the base grid.  A lemma's rows are held as
columns (`RatioStats`) and become dicts only as they are iterated.

The probed statements (hypotheses validated and echoed):

  A1:  || f * |.|^mu ||_oo        <= C || f ||_{L^p_m}    (-3/p' < mu < 0, m > 3/p' + mu)
  A3:  || g * |.|^mu ||_{L^2}     <= C || g ||_{L^2_th}   (-3 < mu <= -3/2, th > mu + 3)
  A4:  || f * |.|^mu ||_{L^oo_{-mu}} <= C || f ||_{L^p_m}   (-3/p' < mu < 0, m > 3/p')
  A7:  || grad f ||_{L^2_q}  <= (1/d) || f ||_{L^2_{2q+th}} + d || D^2 f ||_{L^2_{-th}}
       (probed at the optimizing d, i.e. against 2 sqrt(prod))
  A5:  || f ||_{L^oo_m}  <= C ( || f ||_{L^2_m} + || D^2 f ||_{L^2_m} )

The A4 decay weight is <v>^{-mu}: the two-region Hoelder split bounds the
convolution by min(1, |v|^{p'mu})^{1/p'} = min(1, |v|^mu), which the mass
far field (f * |.|^mu ~ M |v|^mu) saturates, so no stronger weight can hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import RadialGrid
from .kernels import radial_convolve

PROBE_LEMMAS = ("A1", "A3", "A4", "A5", "A7")
DEFAULT_LAMBDAS = (0.25, 0.5, 1.0, 2.0, 4.0)

DEFAULT_PARAMS = {
    "A1": {"mu": -1.0, "p": 2.0, "m": 2.0},
    "A3": {"mu": -2.0, "theta": 2.0},
    "A4": {"mu": -1.0, "p": 2.0, "m": 2.0},
    "A5": {"m": 2.0},
    "A7": {"q": 1.0, "theta": 1.0},
}


class ProbeError(ValueError):
    """A lemma hypothesis is violated; the message names the condition."""


@dataclass
class RadialMixture:
    """Sum of centered Gaussians a_i exp(-r^2 / (2 s_i^2)) with analytic
    radial derivatives (the probe families are radial by construction)."""

    amplitudes: np.ndarray
    widths: np.ndarray

    def dilated(self, lam: float) -> "RadialMixture":
        # f(lam v) is the same mixture with widths s_i / lam
        return RadialMixture(self.amplitudes, self.widths / lam)

    def derivatives(self, r: np.ndarray, order: int = 2) -> tuple:
        """(p, p', p'') at the 1-D points r, up to the given order; one
        exponential per component serves all of them.

        The components lie along axis 0, (k, n), so each sum over them adds
        whole rows left to right, (c_0 + c_1) + c_2: the order, and so the
        bits, of a sum over a short last axis, in one reduction call."""
        r = np.asarray(r, dtype=float)
        a = self.amplitudes[:, None]
        s = self.widths[:, None]
        e = np.exp(-0.5 * (r / s) ** 2)
        out = [np.sum(a * e, axis=0)]
        if order >= 1:
            out.append(np.sum(-a * r / s**2 * e, axis=0))
        if order >= 2:
            out.append(np.sum(a * (r**2 / s**4 - 1.0 / s**2) * e, axis=0))
        return tuple(out)


#: members one probe may use: `random_family` builds them all before the
#: first is evaluated, and 64 members take about 0.2 s over all lemmas
#: (2-core x86_64 VM, numpy 2.4)
MAX_MEMBERS = 4096


def random_family(n_members: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_members):
        k = int(rng.integers(1, 4))
        out.append(RadialMixture(
            amplitudes=rng.uniform(0.2, 1.0, size=k),
            widths=rng.uniform(0.4, 2.0, size=k),
        ))
    return out


#: the fields of a probe row, in CSV column order
ROW_FIELDS = ("lemma", "seed", "lambda", "lhs", "rhs", "ratio")


@dataclass(eq=False)
class RatioStats:
    """One lemma's probe: its validated params, its rows as array columns, one
    entry per (lam, member) in that order, and the largest scaling deviation.

    A non-finite ratio or deviation fails the lemma: the maxima propagate nan,
    and a zero rhs gives an inf or nan ratio, never an error."""

    lemma: str
    params: dict
    seed: np.ndarray
    lam: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    scaling_deviation: float

    def __eq__(self, other):
        # the columns compare by value, as rows would
        return (isinstance(other, RatioStats)
                and (self.lemma, self.params, self.scaling_deviation)
                == (other.lemma, other.params, other.scaling_deviation)
                and all(np.array_equal(getattr(self, column), getattr(other, column))
                        for column in ("seed", "lam", "lhs", "rhs")))

    @property
    def ratios(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(self.lhs, self.rhs)

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios, initial=0.0))

    @property
    def passed(self) -> bool:
        return np.isfinite(self.max_ratio) and self.scaling_deviation <= 0.05


# ---------------------------------------------------------------------------
# one description per lemma: its terms and how they combine
# ---------------------------------------------------------------------------

#: kind -> the order of the profile derivative that D f takes
_DERIVATIVE_ORDER = {"f": 0, "grad": 1, "hess": 2}


@dataclass(frozen=True)
class Term:
    """The weighted norm || <.>^m D f ||_{L^p} of one inequality side.

    kind names D f: "f", "grad" (grad f), "hess" (D^2 f, Frobenius) or
    "conv" (f * |.|^mu).  The derivative terms are L^2 norms (p = 2).
    """

    kind: str
    p: float
    m: float
    mu: float = 0.0

    @property
    def exponent(self) -> float:
        """k - 3/p: the term scales as lam^exponent under f(v) -> f(lam v)."""
        k = _DERIVATIVE_ORDER.get(self.kind, -3.0 - self.mu)
        return k - 3.0 / self.p

    @property
    def squared(self) -> bool:
        """Whether the pointwise value is |D f|^2 (the derivative kinds)."""
        return self.kind in ("grad", "hess")

    def norms(self, values: np.ndarray, grid: RadialGrid, table: np.ndarray,
              scales) -> np.ndarray:
        """lam^exponent || <./lam>^m D f ||_{L^p} at each lam of scales, from
        the pointwise values on grid and this term's (S, n) table of
        `_weight_tables`.  A non-finite value gives a non-finite norm."""
        if self.squared:
            norms = np.sqrt(np.sum(table * values, axis=1))
        else:
            g = table * np.abs(values)
            if self.p == np.inf:
                norms = g.max(axis=1)
            else:
                sums = np.sum(grid.weights * g**self.p, axis=1)
                # one scalar power per sum: the array power (a square root at
                # p = 2) differs from it in the last bit on ~0.1 % of inputs
                norms = np.array([total ** (1.0 / self.p) for total in sums])
        return np.array([lam**self.exponent for lam in scales]) * norms


def _optimal_split(terms) -> float:
    """min over d > 0 of (1/d) a + d b = 2 sqrt(a b)."""
    a, b = terms
    return 2.0 * np.sqrt(a * b)


#: lemma -> params -> (lhs term, rhs terms, how the rhs terms combine)
_LEMMAS = {
    "A1": lambda P: (Term("conv", np.inf, 0.0, P["mu"]),
                     (Term("f", P["p"], P["m"]),), sum),
    "A3": lambda P: (Term("conv", 2.0, 0.0, P["mu"]),
                     (Term("f", 2.0, P["theta"]),), sum),
    "A4": lambda P: (Term("conv", np.inf, -P["mu"], P["mu"]),
                     (Term("f", P["p"], P["m"]),), sum),
    "A5": lambda P: (Term("f", np.inf, P["m"]),
                     (Term("f", 2.0, P["m"]), Term("hess", 2.0, P["m"])), sum),
    "A7": lambda P: (Term("grad", 2.0, 2.0 * P["q"]),
                     (Term("f", 2.0, 2.0 * P["q"] + P["theta"]),
                      Term("hess", 2.0, -P["theta"])), _optimal_split),
}


def _validate(lemma: str, params: dict):
    d = 3.0
    if lemma in ("A1", "A4"):
        mu, p, m = params["mu"], params["p"], params["m"]
        if p <= 1:
            raise ProbeError(f"{lemma} hypothesis violated: need p > 1 so that p' is finite")
        pp = p / (p - 1.0)
        if not (-d / pp < mu < 0.0):
            raise ProbeError(
                f"{lemma} hypothesis violated: need -d/p' < mu < 0, "
                f"i.e. {-d / pp:g} < mu < 0, got mu = {mu:g}")
        if lemma == "A1" and not (m > d / pp + mu):
            raise ProbeError(
                f"A1 hypothesis violated: need m > d/p' + mu = {d / pp + mu:g}, "
                f"got m = {m:g}")
        if lemma == "A4" and not (m > d / pp):
            raise ProbeError(
                f"A4 hypothesis violated: need m > d/p' = {d / pp:g}, got m = {m:g}")
    elif lemma == "A3":
        mu, theta = params["mu"], params["theta"]
        if not (-d < mu <= -d / 2):
            raise ProbeError(
                f"A3 hypothesis violated: need -d < mu <= -d/2, got mu = {mu:g}")
        if not (theta > mu + d):
            raise ProbeError(
                f"A3 hypothesis violated: need theta > mu + d = {mu + d:g}, "
                f"got theta = {theta:g}")
    elif lemma == "A7":
        if params["q"] < 0 or params["theta"] < 0:
            raise ProbeError("A7 hypothesis violated: need q, theta >= 0")
    elif lemma == "A5":
        pass
    else:
        raise ProbeError(f"unknown lemma {lemma!r}; choose from {PROBE_LEMMAS}")


def _pointwise(mix: RadialMixture, grid: RadialGrid, keys):
    """Yield (kind, mu), the values of D f of mix at grid's centers for each
    key in turn; the derivative kinds hold |D f|^2.

    The convolutions come last and p', p'' are released before them, so the
    FFT temporaries, the largest arrays here, meet the fewest live ones."""
    r = grid.centers
    f, *d = mix.derivatives(r, max(_DERIVATIVE_ORDER.get(kind, 0) for kind, _ in keys))
    for kind, mu in sorted(keys, key=lambda key: key[0] == "conv"):
        if kind == "f":
            yield (kind, mu), f
        elif kind == "grad":
            yield (kind, mu), d[0] ** 2
        elif kind == "hess":
            # the radial Hessian has eigenvalues f'' and f'/r (twice)
            yield (kind, mu), d[1] ** 2 + 2.0 * (d[0] / r) ** 2
        else:
            d = None
            yield (kind, mu), radial_convolve(grid, f, mu)


def _weight_tables(terms, grid: RadialGrid, scales) -> list:
    """Each term's (S, n) weight on grid at the S scales lam: <r/lam>^m for the
    f and conv terms, weights * <r/lam>^(2m) for the squared ones.  Terms with
    the same weight share one table."""
    bracket = 1.0 + (grid.centers / np.asarray(scales, dtype=float)[:, None]) ** 2
    shared = {}
    for t in terms:
        if (t.squared, t.m) not in shared:
            shared[t.squared, t.m] = (grid.weights * bracket**t.m if t.squared
                                      else bracket ** (0.5 * t.m))
    return [shared[t.squared, t.m] for t in terms]


def _sides(lemmas, family, grid: RadialGrid, scales) -> np.ndarray:
    """For each (lhs, rhs, combine) description in lemmas, the sides of every
    member of family on grid at every scale lam, as an array (member, lemma,
    side, scale) with side 0 the lhs and 1 the rhs: each term weighted by
    <./lam> and multiplied by lam^(k - 3/p).

    scales = (1,) gives the sides themselves.  The grid's weight tables are
    built once, on entry, and dropped on return.  Per member, each distinct
    D f is evaluated once and each distinct term once for all scales, for all
    lemmas together; one D f is held at a time.
    """
    terms = list(dict.fromkeys(t for lhs, rhs, _ in lemmas for t in (lhs, *rhs)))
    by_key = {}
    for index, (t, table) in enumerate(zip(terms, _weight_tables(terms, grid, scales))):
        by_key.setdefault((t.kind, t.mu), []).append((index, t, table))
    described = [(terms.index(lhs), [terms.index(t) for t in rhs], combine)
                 for lhs, rhs, combine in lemmas]
    out = []
    for mix in family:
        norms = [None] * len(terms)
        for key, values in _pointwise(mix, grid, by_key):
            for index, t, table in by_key[key]:
                norms[index] = t.norms(values, grid, table, scales)
            del values  # before the next D f is computed
        out.append([(norms[lhs], combine([norms[t] for t in rhs]))
                    for lhs, rhs, combine in described])
    return np.array(out)


class _Rows:
    """The rows of some RatioStats, lemma by lemma, each a dict keyed by
    ROW_FIELDS made as it is iterated; len() counts them without making any."""

    def __init__(self, stats):
        self.stats = stats

    def __len__(self):
        return sum(len(s.lhs) for s in self.stats)

    def __iter__(self):
        for s in self.stats:
            columns = (s.seed, s.lam, s.lhs, s.rhs, s.ratios)
            for row in zip(*(column.tolist() for column in columns)):
                yield dict(zip(ROW_FIELDS, (s.lemma, *row)))


@dataclass
class ProbeResult:
    """The probes of one `probe_inequality` call, one RatioStats per requested
    lemma in the requested order."""

    stats: list

    @property
    def rows(self) -> _Rows:
        """Every lemma's rows, lemma by lemma."""
        return _Rows(self.stats)


def probe_inequality(lemmas=PROBE_LEMMAS, params: dict | None = None, family_seed: int = 0,
                     n_members: int = 64, lambdas=DEFAULT_LAMBDAS,
                     n_cells: int = 2048) -> ProbeResult:
    """Run the probes of lemmas over one seeded family and dilation sweep.

    params maps a lemma to its parameters; a lemma it does not name takes
    DEFAULT_PARAMS.  Every lemma is validated before any member is evaluated.
    """
    params = params or {}
    requested = []
    for lemma in lemmas:
        given = dict(params.get(lemma, DEFAULT_PARAMS.get(lemma, {})))
        _validate(lemma, given)
        requested.append((lemma, given))
    described = [_LEMMAS[lemma](given) for lemma, given in requested]
    family = random_family(n_members, family_seed)
    width_cap = max(float(m.widths.max()) for m in family)
    # the reference grid is deliberately incommensurate with the sweep grids,
    # so predicted and recomputed sides never share quadrature nodes and the
    # scaling check exercises independent discretizations
    base_grid = RadialGrid(int(1.37 * n_cells), 14.0 * width_cap)
    # (lam, member, lemma, side)
    predicted = _sides(described, family, base_grid, lambdas).transpose(3, 0, 1, 2)
    direct = np.array([
        _sides(described, (mix.dilated(lam) for mix in family),
               RadialGrid(n_cells, 13.0 * width_cap / lam), (1.0,))[..., 0]
        for lam in lambdas])
    with np.errstate(divide="ignore", invalid="ignore"):
        # each side over its value predicted from the lam = 1 member
        scaled = direct / predicted
        deviation = np.abs(scaled[..., 0] / scaled[..., 1] - 1.0)
    seeds = np.tile(np.arange(n_members) + family_seed * n_members, len(lambdas))
    lams = np.repeat(np.asarray(lambdas, dtype=float), n_members)
    return ProbeResult([
        RatioStats(lemma, given, seeds, lams, lhs=direct[:, :, k, 0].flatten(),
                   rhs=direct[:, :, k, 1].flatten(),
                   scaling_deviation=float(deviation[:, :, k].max()))
        for k, (lemma, given) in enumerate(requested)])
