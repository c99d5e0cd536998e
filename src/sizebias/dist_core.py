"""Distribution containers and the size-bias transform.

The transform reweights a nonnegative random quantity by its own value:
an atom at x with mass p moves to mass x*p/mean.  Everything downstream
(sums, divisibility tests, moment-problem checks, bounds) builds on the
two containers here, a finite atom list and a uniform-grid density.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NoClosedForm, NoSampler, SizeBiasError, SupportOverflow, ZeroMean

ATOM_MERGE_TOL = 1e-12     # support points closer than this are one atom
PROB_SUM_TOL = 1e-12       # |sum(p) - 1| allowed
GRID_POINT_CAP = 10_000_000  # tabulations and grids past this many points are refused
TAIL_CUT = 1e-12           # tabulate_named cuts infinite supports below this tail mass
BLOCK_CELLS = 1 << 16      # cells per row block of a draw or row count (times flat 2^14..2^18)


# ===================================================================
# closed-form numerics
# ===================================================================

def trapezoid(y, x=None, dx=1.0):
    """1-D trapezoid rule, with the same arithmetic as scipy.integrate.trapezoid."""
    y = np.asarray(y)
    d = dx if x is None else np.diff(np.asarray(x))
    return (d * (y[1:] + y[:-1]) / 2.0).sum()


# stirlerr(0..15) from 50-digit values; k = 0 is a placeholder, the k = 0 mass is e^-mu
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834, 0.020790672103765093,
    0.016644691189821193, 0.013876128823070748, 0.01189670994589177, 0.010411265261972096,
    0.009255462182712733, 0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])


def stirlerr(k):
    """log k! - log(sqrt(2 pi k) (k/e)^k) for integers k >= 1; tabulated to 15, series above."""
    k = np.asarray(k, dtype=float)
    shape = k.shape
    k = np.atleast_1d(k)
    big = np.maximum(k, 16.0)
    kk = big * big
    # (1/12 - (1/360 - (1/1260 - (1/1680 - 1/1188/kk)/kk)/kk)/kk)/big, in place
    out = np.divide(1 / 1188, kk)
    for c in (1 / 1680, 1 / 1260, 1 / 360):
        np.subtract(c, out, out=out)
        out /= kk
    np.subtract(1 / 12, out, out=out)
    out /= big
    small = k <= 15
    out[small] = _STIRLERR[k[small].astype(int)]
    return out.reshape(shape)


def _pick(a, where):
    """a at the mask's entries; a one-entry a is kept as one entry, which broadcasts."""
    return a.reshape(1) if a.size == 1 else np.broadcast_to(a, where.shape)[where]


def bd0(x, m, series_floor=1e3):
    """x log(x/m) + m - x for x, m > 0, elementwise, as in Loader (2000), "Fast and accurate
    computation of binomial probabilities": near x = m a series in v = (x - m)/(x + m).

    The closed form cancels up to 10x at |v| = 0.1, an error near 1e-16 (x + m) that masses
    feel from x + m ~ 1e4, so for series_floor <= x + m < 1e5 the series runs to |v| = 0.5
    (past 1e5, |v| >= 0.1 means masses below e^-900).  Below 1e3 a mass's other roundings
    are as large, so masses keep the closed form there; a bound that is exp of bd0 alone
    passes series_floor = 0.  Where x + m overflows both are halved, and log x - log m
    stands in for log(x/m) only where x/m underflows.  The closed form is evaluated in
    place over every entry, the series only on the entries that take it.
    """
    x, m = np.asarray(x, dtype=float), np.asarray(m, dtype=float)
    shape = np.broadcast_shapes(x.shape, m.shape)
    x, m = np.atleast_1d(x, m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        reach = x + m
        halved = np.isinf(reach)
        if halved.any():
            x, m = np.where(halved, 0.5 * x, x), np.where(halved, 0.5 * m, m)
            reach = x + m
        mid = (series_floor <= reach) & (reach < 1e5)
        wide = 0.5 * reach[mid]
        reach *= 0.1
        reach[mid] = wide
        gap = x - m
        near = np.abs(gap, out=gap) < reach
        del reach, gap, mid, wide       # freed before the closed form
        out = x / m
        under = out < np.finfo(float).tiny
        np.log(out, out=out)
        if under.any():
            out[under] = np.log(_pick(x, under)) - np.log(_pick(m, under))
        out *= x
        out += m
        out -= x
    if near.any():
        xn, mn = _pick(x, near), _pick(m, near)
        v = (xn - mn) / (xn + mn)
        v2, total, term = v * v, (xn - mn) * v, 2 * xn * v
        for j in range(1, 64):     # |v| < 0.5 converges by j = 30
            term *= v2
            nxt = total + term / (2 * j + 1)
            if np.array_equal(nxt, total):     # the terms shrink: a settled entry stays put
                break
            total = nxt
        out[near] = total
    out[halved] *= 2.0
    return out.reshape(shape)


def _poisson_mass(k, mu):
    """Poisson(mu) masses exp(-stirlerr(k) - bd0(k, mu)) / sqrt(2 pi k) at integers k >= 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = np.exp(-stirlerr(k) - bd0(k, mu)) / np.sqrt(2 * math.pi * k)
    return np.where(k == 0, np.exp(-mu), mass)


def binom_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) masses on 0..n as Poisson masses pi(k; np) pi(n - k; nq) / pi(n; n)."""
    ks = np.arange(n + 1.0)
    head = _poisson_mass(ks, n * p)
    # ks is reused for n - k, one array fewer alive while the tail masses are built
    return head * _poisson_mass(np.subtract(n, ks, out=ks), n * (1 - p)) / _poisson_mass(n, n)


def poisson_reach(lam: float) -> int:
    """A k past which every Poisson(lam) mass is below 1e-30."""
    return int(lam + 20 * math.sqrt(lam)) + 60


def check_work(count, cap, unit: str, what: str) -> None:
    """Refuse, before it is allocated or run, work of more than cap units: every cap's check."""
    if not count <= cap:
        try:
            shown = f"{count:.4g}"
        except OverflowError:       # an int past the double range, as C(n, m) can be
            from decimal import Decimal
            shown = f"{Decimal(count):.4g}"
        raise SupportOverflow(f"{what} needs {shown} {unit}, over {cap}")


def check_points(n, what: str) -> None:
    """Refuse, before allocating, a tabulation of more than GRID_POINT_CAP points."""
    check_work(n, GRID_POINT_CAP, "points", what)


def poisson_pmf(lam: float, hi: int, lo: int = 0) -> np.ndarray:
    """Poisson(lam) masses on lo..hi; no term underflows before its true value does."""
    return _poisson_mass(np.arange(lo, hi + 1.0), lam)


# ===================================================================
# containers
# ===================================================================

def row_blocks(a):
    """Slices of whole rows of a, about BLOCK_CELLS cells each."""
    step = max(1, BLOCK_CELLS // max(1, math.prod(a.shape[1:])))
    return (slice(lo, lo + step) for lo in range(0, len(a), step))


def _fill_rows(out, draw):
    """Fill out with draw(shape), a block of rows at a time.

    A generator's draws run in sequence, so the bits are those of one
    draw(out.shape), without a second array of out's size.
    """
    for rows in row_blocks(out):
        out[rows] = draw(out[rows].shape)


class _Sampled:
    """``sample`` allocates and ``fill`` draws; a caller with a buffer calls fill."""

    def sample(self, rng, size) -> np.ndarray:
        """Draws of the given shape."""
        out = np.empty(size)
        self.fill(rng, out)
        return out


def merge_atoms(xs, ps):
    """Sort support points and sum masses of points closer than ATOM_MERGE_TOL.

    An atom sits at the first point of its cluster and takes every later
    point within the tolerance of that first point; masses add in sorted order.
    Integer points that span fewer sites than there are points skip the sort.
    """
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if xs.size:
        lo = xs.min()
        with np.errstate(invalid="ignore", over="ignore"):
            span = xs.max() - lo      # NaN or inf when a point is not finite or it overflows
        if span < xs.size and np.array_equal(xs, np.rint(xs)):
            return _merge_lattice(xs, ps, lo, int(span))
    order = np.argsort(xs, kind="stable")
    xs, ps = xs[order], ps[order]
    # inf - inf is NaN here, and an overflowing gap is inf, which still opens an
    # atom; callers refuse non-finite supports afterwards
    with np.errstate(invalid="ignore", over="ignore"):
        # a wider gap opens an atom ("not <=", so a NaN gap does too)
        new = ~(np.diff(xs, prepend=-np.inf) <= ATOM_MERGE_TOL)
        # a chain of smaller gaps can still run past the tolerance from its
        # first point; only those late points are walked, in order
        first = np.maximum.accumulate(np.where(new, np.arange(xs.size), 0))
        late = np.flatnonzero(xs - xs[first] > ATOM_MERGE_TOL)
    opened = -1
    for i in late:
        if xs[i] - xs[max(first[i], opened)] > ATOM_MERGE_TOL:
            new[i] = True
            opened = i
    # bincount adds in input order, as a running total does
    return xs[new], np.bincount(np.cumsum(new) - 1, weights=ps)


def _merge_lattice(xs, ps, lo, span):
    """merge_atoms on integer points: one bin per site, with the sort path's bits.

    Distinct integers are at least 1 apart, so each site is one atom.  A bin
    adds its masses in input order, as a stable sort does; a site holding only
    zero masses is kept; the zero site keeps the sign of its first point.
    """
    site = (xs - lo).astype(np.intp)
    occupied = np.flatnonzero(np.bincount(site, minlength=span + 1))
    points = lo + occupied
    if lo <= 0.0 <= lo + span:
        points[points == 0.0] = xs[np.argmax(xs == 0.0)]
    return points, np.bincount(site, weights=ps, minlength=span + 1)[occupied]


@dataclass(frozen=True, eq=False)
class DiscreteDist(_Sampled):
    """Finite list of (support point, probability) atoms.

    Support is sorted strictly increasing and nonnegative unless
    ``signed`` is set (only the embedding code uses signed supports).
    ``tail_bound`` records how much mass a truncated construction threw
    away before renormalizing; 0 for exact inputs.
    """

    xs: np.ndarray
    ps: np.ndarray
    signed: bool = False
    tail_bound: float = field(default=0.0, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ps = np.asarray(self.ps, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ps", ps)
        if xs.ndim != 1 or ps.ndim != 1 or xs.size != ps.size or xs.size == 0:
            raise DomainError("atoms must be two equal-length nonempty vectors")
        if not (np.isfinite(xs).all() and np.isfinite(ps).all()):
            raise DomainError("support points and probabilities must be finite")
        if not math.isfinite(float(xs[-1]) - float(xs[0])):
            raise SupportOverflow(f"support from {xs[0]:.4g} to {xs[-1]:.4g} spans past the "
                                  "double range")
        if np.any(xs[1:] <= xs[:-1]):
            raise DomainError("support points must be strictly increasing")
        if not self.signed and xs[0] < 0:
            raise DomainError(f"negative support point {xs[0]} in unsigned distribution")
        if np.any(ps < -1e-15):
            raise DomainError(f"negative probability {ps.min()}")
        s = ps.sum()
        if abs(s - 1.0) > PROB_SUM_TOL:
            raise DomainError(f"probabilities sum to {s}, not 1")

    @classmethod
    def from_pairs(cls, pairs, signed=False):
        return cls(*merge_atoms([x for x, _ in pairs], [p for _, p in pairs]), signed=signed)

    @classmethod
    def from_pmf(cls, probs, tail_bound=0.0):
        """Atoms at 0..N-1 with the given masses; zero masses are kept."""
        probs = np.asarray(probs, dtype=float)
        return cls(np.arange(probs.size, dtype=float), probs, tail_bound=tail_bound)

    def mean(self) -> float:
        return float(self.xs @ self.ps)

    def prob_at(self, x) -> float:
        hits = np.abs(self.xs - x) <= ATOM_MERGE_TOL
        return float(self.ps[hits].sum())

    def survival(self, t) -> float:
        return float(self.ps[self.xs > t].sum())

    def fill(self, rng, out) -> None:
        """Draw into out in place."""
        p = self.ps / self.ps.sum()
        _fill_rows(out, lambda shape: rng.choice(self.xs, size=shape, p=p))


@dataclass(frozen=True, eq=False)
class GridDensity:
    """Density tabulated on the uniform grid {0, h, 2h, ...}.

    ``atom0`` is an optional point mass at 0 riding along with the
    continuous part.  ``mass_tol`` declares how far atom0 plus the
    trapezoid integral may sit from 1 (solver outputs carry small
    quadrature defects).
    """

    h: float
    values: np.ndarray
    atom0: float = 0.0
    mass_tol: float = field(default=1e-6, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if not (math.isfinite(self.h) and self.h > 0):
            raise DomainError(f"grid step must be positive and finite, got {self.h}")
        if values.ndim != 1 or values.size < 2:
            raise DomainError("need at least two grid values")
        if not np.isfinite(values).all():
            raise DomainError("density values must be finite")
        if np.any(values < -1e-12):
            raise DomainError(f"negative density value {values.min()}")
        if not 0.0 <= self.atom0 <= 1.0:
            raise DomainError(f"atom0 = {self.atom0} outside [0, 1]")
        total = self.atom0 + self.integral()
        if abs(total - 1.0) > self.mass_tol:
            raise DomainError(f"total mass {total} off 1 beyond tolerance {self.mass_tol}")

    def grid(self) -> np.ndarray:
        return self.h * np.arange(self.values.size)

    def integral(self) -> float:
        return float(trapezoid(self.values, dx=self.h))

    def mean(self) -> float:
        return float(trapezoid(self.grid() * self.values, dx=self.h))


# ===================================================================
# named families
# ===================================================================

def _lognormal_mean(mu, sigma2):
    try:
        return math.exp(mu + sigma2 / 2)
    except OverflowError:
        return math.inf


def _beta_mean(a, b):
    if math.isfinite(a + b):
        return a / (a + b)
    # a + b past the double range: halving is exact and leaves the quotient unchanged
    return (a / 2) / (a / 2 + b / 2)


def _dirac_transform(c):
    if c <= 0:
        raise ZeroMean("point mass at 0 cannot be size biased")
    return 0.0, "dirac", (c,)


class _Family(NamedTuple):
    params: tuple                      # parameter names
    domain: str                        # the accepted parameters, as error messages quote them
    ok: Callable                       # params -> inside the domain?
    mean: Callable                     # params -> mean
    transform: Callable | None = None  # params -> (shift, kind, params) of the size-biased law
    sampler: Callable | None = None    # (rng, out, *params) -> fills out with draws


# one row per family; tabulate_named keeps the per-family numerics
_FAMILIES = {
    "poisson": _Family(("rate",), "rate > 0", lambda r: r > 0, lambda r: r,
                       lambda r: (1.0, "poisson", (r,))),
    "bernoulli": _Family(("p",), "0 < p <= 1", lambda p: 0 < p <= 1, lambda p: p,
                         lambda p: (0.0, "dirac", (1.0,))),
    "binomial": _Family(
        ("n", "p"), "integer n >= 1, 0 < p <= 1",
        lambda n, p: n >= 1 and n == int(n) and 0 < p <= 1, lambda n, p: n * p,
        lambda n, p: (0.0, "dirac", (1.0,)) if n == 1 else (1.0, "binomial", (n - 1, p))),
    "geometric": _Family(("p",), "0 < p <= 1", lambda p: 0 < p <= 1, lambda p: (1 - p) / p),
    "gamma": _Family(("shape",), "shape > 0", lambda a: a > 0, lambda a: a,
                     lambda a: (0.0, "gamma", (a + 1,)),
                     lambda g, out, a: g.standard_gamma(a, out=out)),
    "exponential": _Family((), "none", lambda: True, lambda: 1.0, lambda: (0.0, "gamma", (2.0,)),
                           lambda g, out: g.standard_exponential(out=out)),
    "lognormal": _Family(("mu", "sigma2"), "sigma2 > 0", lambda mu, s2: s2 > 0, _lognormal_mean,
                         lambda mu, s2: (0.0, "lognormal", (mu + s2, s2)),
                         lambda g, out, mu, s2: _fill_rows(
                             out, lambda shape: g.lognormal(mu, math.sqrt(s2), size=shape))),
    "uniform01": _Family((), "none", lambda: True, lambda: 0.5, lambda: (0.0, "beta", (2.0, 1.0)),
                         lambda g, out: g.random(out=out)),
    "borel": _Family(("rate",), "0 <= rate < 1", lambda r: 0 <= r < 1, lambda r: 1.0 / (1.0 - r)),
    "dirac": _Family(("c",), "any c", lambda c: True, lambda c: c, _dirac_transform,
                     lambda g, out, c: out.fill(c)),
    "beta": _Family(("a", "b"), "a > 0, b > 0", lambda a, b: a > 0 and b > 0,
                    _beta_mean, lambda a, b: (0.0, "beta", (a + 1, b)),
                    lambda g, out, a, b: _fill_rows(out, lambda shape: g.beta(a, b, size=shape))),
}


@dataclass(frozen=True)
class NamedDist(_Sampled):
    """Tagged union over the standard families in ``_FAMILIES``.

    kinds and params: poisson(rate), bernoulli(p), binomial(n, p),
    geometric(p) on {0,1,...}, gamma(shape), exponential(), lognormal(mu,
    sigma2), uniform01(), borel(rate), dirac(c), beta(a, b).  beta is also
    the transform of uniform01 (the 2x density on (0,1) is beta(2,1)).
    """

    kind: str
    params: tuple = ()

    def __post_init__(self):
        if self.kind not in _FAMILIES:
            raise DomainError(f"unknown family {self.kind!r}")
        fam = _FAMILIES[self.kind]
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))
        name = f"{self.kind}({', '.join(fam.params)})"
        if len(self.params) != len(fam.params):
            raise DomainError(f"{name} takes {len(fam.params)} parameters")
        if not (all(math.isfinite(v) for v in self.params) and fam.ok(*self.params)):
            raise DomainError(f"{name} needs finite parameters and {fam.domain}, got {self.params}")

    def fill(self, rng, out) -> None:
        """Draw into out in place; NoSampler, before any draw, for a family without one."""
        draw = _FAMILIES[self.kind].sampler
        if draw is None:
            raise NoSampler(f"no sampler for family {self.kind}")
        draw(rng, out, *self.params)


def named_mean(nd: NamedDist) -> float:
    """The family's mean; SupportOverflow where it is past the double range."""
    mean = _FAMILIES[nd.kind].mean(*nd.params)
    if not math.isfinite(mean):
        raise SupportOverflow(f"mean of {nd.kind}({', '.join(f'{v:g}' for v in nd.params)}) "
                              "is past the double range")
    return mean


@dataclass(frozen=True)
class ShiftedNamed:
    """Closed-form transform result: ``shift`` plus a named family."""

    shift: float
    base: NamedDist


def closed_form_size_bias(nd: NamedDist) -> ShiftedNamed:
    """Symbolic transform for families that admit one.

    Raises NoClosedForm for families without a clean answer (borel,
    geometric); those go through the tabulated numeric path instead.
    """
    transform = _FAMILIES[nd.kind].transform
    if transform is None:
        raise NoClosedForm(f"no closed-form transform for {nd.kind}")
    shift, kind, params = transform(*nd.params)
    return ShiftedNamed(shift, NamedDist(kind, params))


def tabulate_named(nd: NamedDist) -> DiscreteDist:
    """Finite atom list for a discrete named family.

    Infinite supports are cut once the remaining tail is below TAIL_CUT,
    then renormalized; the cut is recorded in ``tail_bound``.  Raises
    SupportOverflow when that takes more than GRID_POINT_CAP atoms.
    """
    k, p = nd.kind, nd.params
    if k == "dirac":
        return DiscreteDist(np.array([p[0]]), np.array([1.0]))
    if k == "bernoulli":
        if p[0] == 1.0:
            return DiscreteDist(np.array([1.0]), np.array([1.0]))
        return DiscreteDist(np.array([0.0, 1.0]), np.array([1 - p[0], p[0]]))
    if k == "binomial":
        n = int(p[0])
        check_points(n + 1, f"binomial n = {n}")
        return DiscreteDist(np.arange(n + 1.0), binom_pmf(n, p[1]))
    if k == "poisson":
        lam = p[0]
        reach = poisson_reach(lam)
        check_points(reach + 1, f"poisson rate {lam:g}")
        pmf = poisson_pmf(lam, reach)
        # cut 10 past the 1 - TAIL_CUT/4 quantile; P(X <= k) is taken as one
        # minus the right tail, which sums without cancellation
        upper = np.cumsum(pmf[::-1])[::-1]
        hi = int(np.argmax(1.0 - upper[1:] >= 1 - TAIL_CUT / 4)) + 10
        pmf = pmf[: hi + 1]
        tail = 1.0 - pmf.sum()
        return DiscreteDist(np.arange(hi + 1.0), pmf / pmf.sum(), tail_bound=max(tail, 0.0))
    if k == "geometric":
        q = 1 - p[0]
        if q == 0.0:
            return DiscreteDist(np.array([0.0]), np.array([1.0]))
        # q rounds to 1 for p below half an ulp: no finite cut
        span = math.log(TAIL_CUT) / math.log(q) if q < 1.0 else math.inf
        check_points(span + 11, f"geometric p = {p[0]:g}")
        hi = int(span) + 10
        ks = np.arange(hi + 1)
        pmf = p[0] * q ** ks
        tail = 1.0 - pmf.sum()
        return DiscreteDist(ks.astype(float), pmf / pmf.sum(), tail_bound=max(tail, 0.0))
    if k == "borel":
        return borel_pmf(p[0])
    raise DomainError(f"{k} is not a discrete family")


# ===================================================================
# the transform
# ===================================================================

def size_bias_discrete(d: DiscreteDist) -> DiscreteDist:
    """Reweight every atom by x/mean; any atom at 0 drops out."""
    a = d.mean()
    if a <= 0:
        raise ZeroMean("mean must be positive to size bias")
    keep = d.xs > 0
    xs = d.xs[keep]
    ps = d.xs[keep] * d.ps[keep] / a
    return DiscreteDist(xs, ps / ps.sum(), tail_bound=d.tail_bound)


def size_bias_density(g: GridDensity) -> GridDensity:
    """x*f(x)/mean on the same grid, renormalized to unit integral."""
    if g.atom0 != 0.0:
        raise DomainError("grid carries mass at 0, use the discrete path for atoms")
    a = g.mean()
    if a <= 0:
        raise ZeroMean("mean must be positive to size bias")
    vals = g.grid() * g.values / a
    total = trapezoid(vals, dx=g.h)
    return GridDensity(g.h, vals / total)


def moment(d, k: int) -> float:
    """k-th raw moment.  Negative k needs a zero-free discrete support.

    Raises SupportOverflow where x^k leaves the double range on the support.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if isinstance(d, DiscreteDist):
            if k < 0 and d.prob_at(0.0) > 0:
                raise DomainError(f"moment k={k} undefined with an atom at 0")
            val = float((d.xs ** k) @ d.ps)
        elif isinstance(d, GridDensity):
            if k < 0:
                raise DomainError("grid densities include the origin")
            contrib = d.atom0 if k == 0 else 0.0
            val = contrib + float(trapezoid(d.grid() ** k * d.values, dx=d.h))
        else:
            raise TypeError(f"cannot take moments of {type(d).__name__}")
    if not math.isfinite(val):
        raise SupportOverflow(f"moment k={k} leaves the double range: x^{k} overflows on "
                              "this support")
    return val


def scale(d, c: float):
    """Multiply the support by c > 0; masses (or density mass) unchanged."""
    if c <= 0:
        raise DomainError(f"scale factor must be positive, got {c}")
    if isinstance(d, DiscreteDist):
        return DiscreteDist(d.xs * c, d.ps, signed=d.signed, tail_bound=d.tail_bound)
    if isinstance(d, GridDensity):
        return GridDensity(d.h * c, d.values / c, atom0=d.atom0, mass_tol=d.mass_tol)
    raise TypeError(f"cannot scale {type(d).__name__}")


def inverse_size_bias(z: DiscreteDist) -> DiscreteDist:
    """The unique zero-free preimage: mass proportional to p(x)/x."""
    if z.xs[0] <= 0:
        raise DomainError("preimage exists only for strictly positive support")
    w = z.ps / z.xs
    return DiscreteDist(z.xs, w / w.sum())


def char_fn(d, u: float) -> complex:
    """E e^{iuX} for either container."""
    if isinstance(d, DiscreteDist):
        return complex(np.exp(1j * u * d.xs) @ d.ps)
    if isinstance(d, GridDensity):
        xs = d.grid()
        return complex(d.atom0 + trapezoid(np.exp(1j * u * xs) * d.values, dx=d.h))
    raise TypeError(f"no characteristic function for {type(d).__name__}")


def dominance_check(d: DiscreteDist) -> bool:
    """Transform never falls below the original in distribution.

    Checks P(X* > t) >= P(X > t) - 1e-12 at every support point; true for
    every valid input, kept as a callable sanity gate.
    """
    star = size_bias_discrete(d)
    return all(star.survival(t) >= d.survival(t) - 1e-12 for t in d.xs)


def borel_pmf(lam: float) -> DiscreteDist:
    """Total-progeny law of a subcritical branching tree, cut below TAIL_CUT.

    P(X = i) = e^{-lam*i} (lam*i)^{i-1} / i!, the Poisson(lam*i) mass at i over lam*i.
    The table doubles from 200 terms until its measured tail 1 - sum is at most TAIL_CUT;
    each doubling computes only its new half, since the masses are elementwise.
    """
    if not 0 <= lam < 1:
        raise DomainError(f"rate must be in [0, 1), got {lam}")
    if lam == 0.0:
        return DiscreteDist(np.array([1.0]), np.array([1.0]))
    pmf, tail = np.empty(0), 1.0
    while tail > TAIL_CUT:
        N = max(200, 2 * pmf.size)
        check_points(N, f"borel rate {lam:g}")
        ks = np.arange(pmf.size + 1.0, N + 1)
        pmf = np.concatenate([pmf, _poisson_mass(ks, lam * ks) / (lam * ks)])
        tail = 1.0 - pmf.sum()
    return DiscreteDist(np.arange(1.0, pmf.size + 1), pmf / pmf.sum(), tail_bound=max(tail, 0.0))


# ===================================================================
# comparison and serialization
# ===================================================================

def atom_difference(d1: DiscreteDist, d2: DiscreteDist) -> np.ndarray:
    """Mass of d1 minus mass of d2 at each atom of the merged union support."""
    _, diff = merge_atoms(np.concatenate([d1.xs, d2.xs]), np.concatenate([d1.ps, -d2.ps]))
    return diff


def max_atom_gap(d1: DiscreteDist, d2: DiscreteDist) -> float:
    """Largest mass difference at one atom of the merged union support."""
    return float(np.abs(atom_difference(d1, d2)).max())


def dist_to_json(d) -> dict:
    if isinstance(d, DiscreteDist):
        return {"atoms": [[float(x), float(p)] for x, p in zip(d.xs, d.ps)]}
    if isinstance(d, GridDensity):
        return {"grid": {"h": d.h, "values": d.values.tolist(),
                         "atom0": d.atom0}}
    raise TypeError(f"cannot serialize {type(d).__name__}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and _is_number(v[0]) and _is_number(v[1])


def json_number(obj: dict, key: str, default=None) -> float:
    """obj[key] (or default when it is absent) as a float; SizeBiasError naming the field."""
    v = obj.get(key, default)
    if not _is_number(v):
        raise SizeBiasError(f"expected a number in field {key!r}")
    return float(v)


def json_list(obj: dict, key: str, pairs: bool = False) -> list:
    """obj[key] as a list of numbers, or of [x, y] pairs of them; SizeBiasError naming the field."""
    v = obj.get(key)
    if not (isinstance(v, list) and all(map(_is_pair if pairs else _is_number, v))):
        raise SizeBiasError(f"expected a list of {'[x, y] pairs' if pairs else 'numbers'} "
                            f"in field {key!r}")
    return v


def dist_from_json(obj: dict, signed=False):
    """{"atoms": [[x, p], ...]} or {"grid": {"h": h, "values": [...], "atom0": p0}}."""
    if isinstance(obj, dict) and "atoms" in obj:
        return DiscreteDist.from_pairs(json_list(obj, "atoms", pairs=True), signed=signed)
    if isinstance(obj, dict) and "grid" in obj:
        g = obj["grid"]
        if not isinstance(g, dict):
            raise SizeBiasError("expected an object with 'h' and 'values' in field 'grid'")
        return GridDensity(json_number(g, "h"), np.asarray(json_list(g, "values"), dtype=float),
                           atom0=json_number(g, "atom0", 0.0), mass_tol=1e-3)
    raise SizeBiasError("expected an object with 'atoms' or 'grid'")
