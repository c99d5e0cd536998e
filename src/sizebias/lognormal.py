"""The lognormal moment problem, computationally.

A whole family of distributions shares every moment c^(k^2/2) of a
lognormal: discrete orbit laws on geometric grids {b*c^n}, sinusoidal
density perturbations, and an alternating-mass variant.  What separates
the orbit laws from the rest is the multiplicative fixed-point property
(size biasing equals scaling by c), and mixing the orbits over their
base recovers the lognormal density exactly.  All of that is checkable
to tight tolerances here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist_core import DiscreteDist, check_points, trapezoid
from .errors import DomainError, QuadratureFailure, TruncationTooSevere

MIN_RATIO = 1.01           # c below this makes the theta series impractical
TRUNC_MASS = 1e-14         # edge orbit mass allowed at truncation width M
FIXED_POINT_TOL = 1e-10    # orbit_size_bias_check: largest mass gap still a fixed point
STIELTJES_PANELS = 100_000  # trapezoid panels for stieltjes_moment
NORMALIZER_PANELS = 10_000  # trapezoid panels for mixture_normalizer
RECONSTRUCTION_POINTS = (0.5, 1.7, 4.0)  # where mixture_reconstruction_check compares


def _check_ratio(c):
    if c < MIN_RATIO:
        raise DomainError(f"ratio c must be at least {MIN_RATIO}, got {c}")


def theta_t(b: float, c: float) -> float:
    """The normalizer t(b,c) = sum over all integers m of b^-m c^(-m^2/2).

    Adaptive symmetric truncation: stops once the next term on both
    sides is below 1e-16 of the partial sum.
    """
    if b <= 0:
        raise ValueError(f"base must be positive, got {b}")
    _check_ratio(c)
    lb, lc = math.log(b), math.log(c)
    total = 1.0
    m = 1
    while True:
        t_pos = math.exp(-m * lb - 0.5 * m * m * lc)
        t_neg = math.exp(m * lb - 0.5 * m * m * lc)
        total += t_pos + t_neg
        if max(t_pos, t_neg) < 1e-16 * total:
            return total
        m += 1
        if m > 100_000:
            raise TruncationTooSevere("theta series refused to converge")


def _orbit_terms(b, c, M):
    check_points(2 * M + 1, f"orbit half-width {M}")
    ns = np.arange(-M, M + 1)
    return ns, np.exp(-ns * math.log(b) - 0.5 * ns.astype(float) ** 2 * math.log(c))


def reduce_base(b: float, c: float) -> float:
    """Slide b into the canonical window [1, c) along its own orbit."""
    n = math.floor(math.log(b) / math.log(c))
    br = b * c ** (-n)
    if br < 1.0:       # guard the floating edge
        br *= c
    if br >= c:
        br /= c
    return br


def auto_M(b: float, c: float) -> int:
    """Smallest half-width keeping both edge masses below the cap."""
    t = theta_t(b, c)
    M = 12
    lb, lc = math.log(b), math.log(c)
    while max(math.exp(M * lb - 0.5 * M * M * lc),
              math.exp(-M * lb - 0.5 * M * M * lc)) >= TRUNC_MASS * t:
        M += 4
    return M


@dataclass(frozen=True, eq=False)
class OrbitDist:
    """Discrete law on the geometric grid b*c^n, n = -M..M.

    Mass at b*c^n is proportional to b^-n c^(-n^2/2); the normalizer is
    the theta sum.  Mean is sqrt(c) and moment k is c^(k^2/2), same as
    the lognormal with sigma^2 = log c.
    """

    b: float
    c: float
    M: int
    xs: np.ndarray
    masses: np.ndarray
    t: float


def orbit_pmf(b: float, c: float, M: int | None = None) -> OrbitDist:
    """Construct the orbit law; b outside [1,c) is reduced first."""
    _check_ratio(c)
    b = reduce_base(float(b), float(c))
    t = theta_t(b, c)
    if M is None:
        M = auto_M(b, c)
    ns, terms = _orbit_terms(b, c, M)
    if terms[0] / t >= TRUNC_MASS or terms[-1] / t >= TRUNC_MASS:
        raise TruncationTooSevere(f"edge mass at half-width {M} still above {TRUNC_MASS}")
    xs = b * c ** ns.astype(float)
    return OrbitDist(b, c, M, xs, terms / terms.sum(), t)


def orbit_as_dist(o: OrbitDist) -> DiscreteDist:
    return DiscreteDist(o.xs, o.masses / o.masses.sum())


def orbit_moment(o: OrbitDist, k: int) -> float:
    """k-th raw moment, approximately c^(k^2/2); negative k allowed.

    Raises TruncationTooSevere when the first omitted term would still
    move the answer at relative 1e-8.
    """
    val = float((o.xs ** k) @ o.masses)
    M1 = o.M + 1
    edge = max(
        (o.b * o.c ** M1) ** k * math.exp(-M1 * math.log(o.b) - 0.5 * M1 * M1 * math.log(o.c)),
        (o.b * o.c ** -M1) ** k * math.exp(M1 * math.log(o.b) - 0.5 * M1 * M1 * math.log(o.c)),
    ) / o.t
    if edge > 1e-8 * abs(val):
        raise TruncationTooSevere(f"moment k={k} needs a wider orbit, edge term {edge:.2e}")
    return val


def _geometric_ratio(xs):
    ratios = xs[1:] / xs[:-1]
    c = float(np.median(ratios))
    if np.any(np.abs(ratios / c - 1.0) > 1e-9):
        raise ValueError("support is not a geometric progression")
    return c


def orbit_size_bias_check(o, c: float | None = None) -> bool:
    """Does size biasing equal scaling by c?  True on orbit laws only.

    Accepts an OrbitDist or any DiscreteDist on a geometric grid (the
    alternating-mass variant, say).  The comparison is index-aligned:
    the support is a geometric progression, so scaling by c shifts
    masses one slot up, and the transform multiplies slot n by x_n/mean.
    """
    if isinstance(o, OrbitDist):
        xs, ps = o.xs, o.masses / o.masses.sum()
        c = o.c
    else:
        xs, ps = o.xs, o.ps
        if c is None:
            c = _geometric_ratio(xs)
    mean = float(xs @ ps)
    star = xs * ps / mean
    # scaled law occupies slots 1.. plus one new slot past the top
    gaps = np.abs(star[1:] - ps[:-1])
    worst = max(float(gaps.max()), float(star[0]), float(ps[-1]))
    return worst <= FIXED_POINT_TOL


# ===================================================================
# densities sharing the lognormal moments
# ===================================================================

def lognormal_density(x, sigma2: float):
    """Density of e^Z with Z centered normal, variance sigma2."""
    scalar = np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(xa)
    pos = xa > 0
    s = math.sqrt(sigma2)
    out[pos] = np.exp(-np.log(xa[pos]) ** 2 / (2 * sigma2)) / (xa[pos] * s * math.sqrt(2 * math.pi))
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class StieltjesDensity:
    """Sinusoidal log-perturbation of the lognormal density.

    density(x) = f(x) * (1 + delta * sin(2 pi m log x / sigma^2)) with f
    the lognormal density.  Any |delta| <= 1 keeps it nonnegative, and
    every integer m leaves all moments untouched.
    """

    m: int
    delta: float
    sigma: float

    def __post_init__(self):
        if self.m < 1 or self.m != int(self.m):
            raise ValueError("m must be a positive integer")
        if not -1.0 <= self.delta <= 1.0:
            raise ValueError(f"delta {self.delta} outside [-1, 1]")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def stieltjes_density(s: StieltjesDensity, x):
    scalar = np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    s2 = s.sigma ** 2
    base = lognormal_density(xa, s2)
    wiggle = 1.0 + s.delta * np.sin(2 * math.pi * s.m * np.log(np.where(xa > 0, xa, 1.0)) / s2)
    out = base * wiggle
    return float(out[0]) if scalar else out


def stieltjes_moment(s: StieltjesDensity, n: int) -> float:
    """n-th moment by quadrature after substituting x = e^(sigma z).

    The substitution turns the integrand e^(n sigma z) times the normal
    density, a Gaussian bump at z = n sigma; z within 10 of the bump
    leaves tails below 1e-20 of the moment e^(n^2 sigma^2 / 2).  Raises
    QuadratureFailure where that moment overflows a double.
    """
    top = n * s.sigma
    if top * top / 2 > math.log(np.finfo(float).max):
        raise QuadratureFailure(f"moment n={n} is e^{top * top / 2:.4g}, past the double range")
    z = np.linspace(top - 10.0, top + 10.0, STIELTJES_PANELS + 1)
    wiggle = 1.0 + s.delta * np.sin(2 * math.pi * s.m * z / s.sigma)
    vals = np.exp(top * z - 0.5 * z * z) / math.sqrt(2 * math.pi) * wiggle
    out = float(trapezoid(vals, z))
    if not math.isfinite(out):
        raise QuadratureFailure(f"moment n={n} quadrature returned {out}")
    return out


# ===================================================================
# the mixture that rebuilds the lognormal
# ===================================================================

def mixture_normalizer(c: float) -> float:
    """k_c = integral over [1, c) of f(x) t(x, c) dx; equals 1 exactly.

    The telescoping of f(x c^n) against the theta terms folds the whole
    positive axis into one period, so the quadrature value doubles as an
    accuracy check.
    """
    _check_ratio(c)
    s2 = math.log(c)
    xs = np.linspace(1.0, c, NORMALIZER_PANELS + 1)
    ts = np.array([theta_t(x, c) for x in xs])
    vals = lognormal_density(xs, s2) * ts
    out = float(trapezoid(vals, xs))
    if not math.isfinite(out) or out <= 0:
        raise QuadratureFailure(f"normalizer quadrature returned {out}")
    return out


def mixture_density_hc(c: float, b: float, k_c: float | None = None) -> float:
    """Density over the base b in [1, c) governing the orbit mixture."""
    _check_ratio(c)
    if not 1.0 <= b < c:
        raise ValueError(f"base {b} outside [1, {c})")
    if k_c is None:
        k_c = mixture_normalizer(c)
    return lognormal_density(b, math.log(c)) * theta_t(b, c) / k_c


def mixture_reconstruction_check(c: float) -> float:
    """Max gap between the mixed orbit density and the lognormal at RECONSTRUCTION_POINTS.

    Every x > 0 belongs to exactly one orbit slot: x = b c^n with b in
    [1, c).  The mixture density at x is h_c(b) times the orbit mass at
    slot n, divided by the Jacobian c^n of the slot map.
    """
    k_c = mixture_normalizer(c)
    s2 = math.log(c)
    worst = 0.0
    for x in RECONSTRUCTION_POINTS:
        n = math.floor(math.log(x) / s2)
        b = x * c ** (-n)
        if b < 1.0:
            b, n = b * c, n - 1
        h = mixture_density_hc(c, b, k_c=k_c)
        mass_n = math.exp(-n * math.log(b) - 0.5 * n * n * s2) / theta_t(b, c)
        recon = h * mass_n / c ** n
        worst = max(worst, abs(recon - lognormal_density(x, s2)))
    return worst


def berg_pmf(s: int, c: float, M: int | None = None) -> DiscreteDist:
    """Alternating-mass cousin of the orbit law at base sqrt(c).

    Mass at sqrt(c)*c^n proportional to (1 + s*(-1)^n) b^-n c^(-n^2/2),
    s = +1 or -1.  Shares every moment c^(k^2/2) with the orbit law (the
    alternating part telescopes away) yet fails the size-bias fixed
    point, so moments alone cannot pin the law down.
    """
    if s not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {s}")
    _check_ratio(c)
    b = math.sqrt(c)
    if M is None:
        M = auto_M(b, c)
    ns, terms = _orbit_terms(b, c, M)
    masses = (1.0 + s * (-1.0) ** ns) * terms
    xs = b * c ** ns.astype(float)
    return DiscreteDist(xs, masses / masses.sum())
