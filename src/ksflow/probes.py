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
All requested lemmas share one seeded family and so one set of grids.  For
each member and grid, `_sides` evaluates the profile and its derivatives from
one exponential per mixture component, every distinct D f and every distinct
term of the requested lemmas once, and returns every lemma's sides at every
requested lam: the direct side is lam = 1 on the dilated grid, the predicted
side every lam of the sweep on the base grid.

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

from dataclasses import dataclass, field

import numpy as np

from .grids import RadialField, RadialGrid, weighted_lp_norm
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
        """(p, p', p'') at r, up to the given order; one exponential per
        component serves all of them."""
        r = np.asarray(r, dtype=float)[..., None]
        e = np.exp(-0.5 * (r / self.widths) ** 2)
        out = [np.sum(self.amplitudes * e, axis=-1)]
        if order >= 1:
            out.append(np.sum(-self.amplitudes * r / self.widths**2 * e, axis=-1))
        if order >= 2:
            out.append(np.sum(
                self.amplitudes * (r**2 / self.widths**4 - 1.0 / self.widths**2) * e,
                axis=-1))
        return tuple(out)


#: members one probe may use: `random_family` builds them all before the
#: first is evaluated, and 64 members take about 0.5 s over all lemmas
#: (2-core x86_64 VM)
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


@dataclass
class RatioStats:
    lemma: str
    params: dict
    max_ratio: float
    scaling_deviation: float
    rows: list = field(default_factory=list)

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

    def norm(self, value: RadialField, scale: float) -> float:
        """|| <./scale>^m D f ||_{L^p} from the pointwise value."""
        if self.kind in ("f", "conv"):
            return weighted_lp_norm(value, self.p, self.m, scale)
        grid = value.grid
        w2 = (1.0 + (grid.centers / scale) ** 2) ** self.m
        return float(np.sqrt(np.sum(grid.weights * w2 * value.values)))


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
    """Yield (kind, mu), D f of mix on grid for each key in turn; the
    derivative kinds hold |D f|^2.

    The convolutions come last and p', p'' are released before them, so the
    FFT temporaries, the largest arrays here, meet the fewest live ones."""
    r = grid.centers
    p, *d = mix.derivatives(r, max(_DERIVATIVE_ORDER.get(kind, 0) for kind, _ in keys))
    f = RadialField(grid, p)
    for kind, mu in sorted(keys, key=lambda key: key[0] == "conv"):
        if kind == "f":
            yield (kind, mu), f
        elif kind == "grad":
            yield (kind, mu), RadialField(grid, d[0] ** 2)
        elif kind == "hess":
            # the radial Hessian has eigenvalues f'' and f'/r (twice)
            yield (kind, mu), RadialField(grid, d[1] ** 2 + 2.0 * (d[0] / r) ** 2)
        else:
            d = None
            yield (kind, mu), RadialField(grid, radial_convolve(grid, f.values, mu))


def _sides(lemmas, mix: RadialMixture, grid: RadialGrid, scales) -> list:
    """For each (lhs, rhs, combine) description in lemmas, [(lhs, rhs)] for
    mix on grid, one pair per scale lam: each term weighted by <./lam> and
    multiplied by lam^(k - 3/p).

    scales = (1,) gives the sides themselves.  Each distinct D f is evaluated
    once, and each distinct term once per scale, for all lemmas together;
    one D f is held at a time.
    """
    terms = list(dict.fromkeys(t for lhs, rhs, _ in lemmas for t in (lhs, *rhs)))
    norms = {}
    for key, value in _pointwise(mix, grid, dict.fromkeys((t.kind, t.mu) for t in terms)):
        for t in terms:
            if (t.kind, t.mu) == key:
                norms[t] = [lam**t.exponent * t.norm(value, lam) for lam in scales]
        del value  # before the next D f is computed
    return [[(norms[lhs][j], combine([norms[t][j] for t in rhs]))
             for j in range(len(scales))]
            for lhs, rhs, combine in lemmas]


@dataclass
class ProbeResult:
    """The probes of one `probe_inequality` call, one RatioStats per requested
    lemma in the requested order."""

    stats: list

    @property
    def rows(self) -> list:
        """Every lemma's rows, lemma by lemma."""
        return [row for s in self.stats for row in s.rows]


def probe_inequality(lemmas=PROBE_LEMMAS, params: dict | None = None, family_seed: int = 0,
                     n_members: int = 64, lambdas=DEFAULT_LAMBDAS,
                     n_cells: int = 2048) -> ProbeResult:
    """Run the probes of lemmas over one seeded family and dilation sweep.

    params maps a lemma to its parameters; a lemma it does not name takes
    DEFAULT_PARAMS.  Every lemma is validated before any member is evaluated.
    """
    params = params or {}
    stats = []
    for lemma in lemmas:
        given = dict(params.get(lemma, DEFAULT_PARAMS.get(lemma, {})))
        _validate(lemma, given)
        stats.append(RatioStats(lemma=lemma, params=given, max_ratio=0.0,
                                scaling_deviation=0.0))
    described = [_LEMMAS[s.lemma](s.params) for s in stats]
    family = random_family(n_members, family_seed)
    width_cap = max(float(m.widths.max()) for m in family)
    # the reference grid is deliberately incommensurate with the sweep grids,
    # so predicted and recomputed sides never share quadrature nodes and the
    # scaling check exercises independent discretizations
    base_grid = RadialGrid(int(1.37 * n_cells), 14.0 * width_cap)
    # (member, lemma, lam, side)
    predicted = np.empty((len(family), len(described), len(lambdas), 2))
    for i, mix in enumerate(family):
        predicted[i] = _sides(described, mix, base_grid, lambdas)
    for j, lam in enumerate(lambdas):
        grid = RadialGrid(n_cells, 13.0 * width_cap / lam)
        for i, mix in enumerate(family):
            direct = _sides(described, mix.dilated(lam), grid, (1.0,))
            for s, [(lhs, rhs)], pred in zip(stats, direct, predicted[i]):
                ratio = lhs / rhs
                s.max_ratio = max(s.max_ratio, ratio)
                p_lhs, p_rhs = pred[j].tolist()
                scaled = (lhs / p_lhs) / (rhs / p_rhs)
                s.scaling_deviation = max(s.scaling_deviation, abs(scaled - 1.0))
                s.rows.append({
                    "lemma": s.lemma,
                    "seed": family_seed * n_members + i,
                    "lambda": lam,
                    "lhs": lhs,
                    "rhs": rhs,
                    "ratio": ratio,
                })
    return ProbeResult(stats)
