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
from .errors import BoundViolated, DomainError, SupportOverflow, TruncationTooSevere

MIN_RATIO = 1.01           # c below this makes the theta series impractical
TRUNC_MASS = 1e-14         # edge orbit mass allowed at truncation width M
FIXED_POINT_TOL = 1e-10    # orbit_size_bias_check: largest mass gap still a fixed point
STIELTJES_PANELS = 100_000  # trapezoid panels for stieltjes_moment
NORMALIZER_PANELS = 200    # trapezoid panels for mixture_normalizer
RECONSTRUCTION_POINTS = (0.5, 1.7, 4.0)  # where mixture_reconstruction_check compares


def _check_domain(c, b=1.0):
    if not MIN_RATIO <= c < math.inf:
        raise DomainError(f"ratio c must be finite and at least {MIN_RATIO}, got {c}")
    if not np.all((b > 0) & (b < math.inf)):
        raise DomainError(f"base must be positive and finite, got {b}")


def _orbit_terms(lb, lc, M):
    """b^-n c^(-n^2/2) for n = -M..M from lb = log b, lc = log c; one row per entry of lb."""
    check_points(np.size(lb) * (2 * M + 1), f"orbit half-width {M}")
    ns = np.arange(-M, M + 1)
    return ns, np.exp(-ns * np.asarray(lb)[..., None] - 0.5 * ns.astype(float) ** 2 * lc)


def _width(lb, lc, cut):
    # smallest M whose edge terms, the larger exp(M lb - M^2 lc/2) at lb = |log b|, are below
    # cut < 1: the first integer past the larger root of M^2 lc/2 - M lb + log(cut) = 0
    return math.floor((lb + math.sqrt(lb * lb - 2 * lc * math.log(cut))) / lc) + 1


def theta_t(b, c: float):
    """The normalizer t(b,c) = sum over all integers m of b^-m c^(-m^2/2).

    b may be an array of bases; the result then has its shape.  The sum
    runs out to the first m whose terms on both sides are below 1e-16.
    """
    b = np.asarray(b, dtype=float)
    _check_domain(c, b)
    lb, lc = np.log(b), math.log(c)
    # every omitted term is below 1e-16 and the n = 0 term is 1; Sum2 (Ogita, Rump and Oishi)
    # adds back each step's rounding error, so the total is within an ulp whatever the width
    _, terms = _orbit_terms(lb, lc, _width(float(np.max(np.abs(lb))), lc, 1e-16))
    run = np.cumsum(terms, axis=-1)
    step = run[..., 1:] - run[..., :-1]
    lost = (run[..., :-1] - (run[..., 1:] - step)) + (terms[..., 1:] - step)
    total = run[..., -1] + lost.sum(axis=-1)
    if not np.all(np.isfinite(total)):
        raise DomainError(f"theta sum past the double range at ratio {c}")
    return float(total) if total.ndim == 0 else total


def reduce_base(b: float, c: float) -> float:
    """Slide b into the canonical window [1, c) along its own orbit."""
    _check_domain(c, b)
    lb, lc = math.log(b), math.log(c)
    n = math.floor(lb / lc)
    try:
        br = b * c ** (-n)
    except OverflowError:     # c^-n past the double range, b near 0
        br = math.exp(lb - n * lc)
    if br < 1.0:       # guard the floating edge
        br *= c
    if br >= c:
        br /= c
    return br


def auto_M(b: float, c: float) -> int:
    """Smallest half-width in 12, 16, 20, ... keeping both edge masses below the cap."""
    t = theta_t(b, c)
    return max(12, -(-_width(abs(math.log(b)), math.log(c), TRUNC_MASS * t) // 4) * 4)


def _orbit_grid(b: float, c: float, M: int | None):
    """(M, n, terms, points b*c^n, t = theta_t(b, c)) for n = -M..M at a base b >= 1.

    M = None takes auto_M.  Raises TruncationTooSevere when an edge term
    still carries TRUNC_MASS of the law.
    """
    t = theta_t(b, c)
    M = auto_M(b, c) if M is None else M
    lb, lc = math.log(b), math.log(c)
    ns, terms = _orbit_terms(lb, lc, M)
    # refused before c^n is taken; with b >= 1 the bottom point is at least 1/top, not 0
    if lb + M * lc > math.log(np.finfo(float).max):
        raise DomainError(f"orbit grid top b*c^{M} = e^{lb + M * lc:.6g} is past the double range")
    if terms[0] / t >= TRUNC_MASS or terms[-1] / t >= TRUNC_MASS:
        raise TruncationTooSevere(f"edge mass at half-width {M} still above {TRUNC_MASS}")
    return M, ns, terms, b * c ** ns.astype(float), t


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
    b = reduce_base(float(b), float(c))
    M, _, terms, xs, t = _orbit_grid(b, c, M)
    return OrbitDist(b, c, M, xs, terms / terms.sum(), t)


def orbit_as_dist(o: OrbitDist) -> DiscreteDist:
    return DiscreteDist(o.xs, o.masses / o.masses.sum())


def orbit_moment(o: OrbitDist, k: int) -> float:
    """k-th raw moment, approximately c^(k^2/2); negative k allowed.

    Raises TruncationTooSevere when the first omitted term would still
    move the answer at relative 1e-8.
    """
    val = float((o.xs ** k) @ o.masses)
    _, _, terms, xs, _ = _orbit_grid(o.b, o.c, o.M + 1)
    edge = max(xs[-1] ** k * terms[-1], xs[0] ** k * terms[0]) / o.t
    if edge > 1e-8 * abs(val):
        raise TruncationTooSevere(f"moment k={k} needs a wider orbit, edge term {edge:.2e}")
    return val


def orbit_size_bias_check(o) -> bool:
    """Does size biasing equal scaling by the grid ratio c?  True on orbit laws only.

    Accepts an OrbitDist or any DiscreteDist on a geometric grid (the
    alternating-mass variant, say).  The comparison is index-aligned:
    the support is a geometric progression, so scaling by c shifts
    masses one slot up, and the transform multiplies slot n by x_n/mean.
    """
    d = orbit_as_dist(o) if isinstance(o, OrbitDist) else o
    xs, ps = d.xs, d.ps
    ratios = xs[1:] / xs[:-1]
    if np.any(np.abs(ratios / np.median(ratios) - 1.0) > 1e-9):
        raise DomainError("support is not a geometric progression")
    star = xs * ps / d.mean()
    # scaled law occupies slots 1.. plus one new slot past the top
    gaps = np.abs(star[1:] - ps[:-1])
    worst = max(float(gaps.max()), float(star[0]), float(ps[-1]))
    return worst <= FIXED_POINT_TOL


# ===================================================================
# densities sharing the lognormal moments
# ===================================================================

def lognormal_density(x, sigma2: float):
    """Density of e^Z with Z centered normal, variance sigma2."""
    xa = np.asarray(x, dtype=float)
    xs = np.where(xa > 0, xa, 1.0)
    s = math.sqrt(sigma2)
    out = np.exp(-np.log(xs) ** 2 / (2 * sigma2)) / (xs * s * math.sqrt(2 * math.pi))
    out = np.where(xa > 0, out, 0.0)
    return float(out) if out.ndim == 0 else out


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
        if not (math.isfinite(self.m) and self.m >= 1 and self.m == int(self.m)):
            raise DomainError("m must be a positive integer")
        if not -1.0 <= self.delta <= 1.0:
            raise DomainError(f"delta {self.delta} outside [-1, 1]")
        if not math.isfinite(self.sigma):
            raise DomainError(f"sigma must be finite, got {self.sigma}")
        if self.sigma <= 0:
            raise DomainError("sigma must be positive")


def stieltjes_moment(s: StieltjesDensity, n: int) -> float:
    """n-th moment by quadrature after substituting x = e^(sigma z).

    The substitution turns the integrand e^(n sigma z) times the normal
    density, a Gaussian bump at z = n sigma; z within 10 of the bump
    leaves tails below 1e-20 of the moment e^(n^2 sigma^2 / 2).  Raises
    SupportOverflow where that moment overflows a double, and DomainError
    where the wiggle's m/sigma cycles per unit z reach the grid's Nyquist
    rate STIELTJES_PANELS/40, past which the grid aliases it.
    """
    if s.m / s.sigma >= STIELTJES_PANELS / 40:
        raise DomainError(f"m/sigma = {s.m / s.sigma:.6g} is at or past {STIELTJES_PANELS // 40}, "
                          f"the Nyquist rate of the {STIELTJES_PANELS}-panel quadrature grid")
    top = n * s.sigma
    if top * top / 2 > math.log(np.finfo(float).max):
        raise SupportOverflow(f"moment n={n} is e^{top * top / 2:.4g}, past the double range")
    z = np.linspace(top - 10.0, top + 10.0, STIELTJES_PANELS + 1)
    wiggle = 1.0 + s.delta * np.sin(2 * math.pi * s.m * z / s.sigma)
    vals = np.exp(top * z - 0.5 * z * z) / math.sqrt(2 * math.pi) * wiggle
    out = float(trapezoid(vals, z))
    if not math.isfinite(out):
        raise SupportOverflow(f"moment n={n} quadrature returned {out}")
    return out


# ===================================================================
# the mixture that rebuilds the lognormal
# ===================================================================

def mixture_normalizer(c: float) -> float:
    """k_c = integral over [1, c) of f(x) t(x, c) dx; equals 1 exactly.

    The telescoping of f(x c^n) against the theta terms folds the whole
    positive axis into one period, so the quadrature value doubles as an
    accuracy check.  In u = log x the integrand is the normal density
    periodized over [0, log c), where the trapezoid rule converges geometrically.
    """
    _check_domain(c)
    s2 = math.log(c)
    us = np.linspace(0.0, s2, NORMALIZER_PANELS + 1)
    vals = np.exp(-us * us / (2 * s2)) / math.sqrt(2 * math.pi * s2) * theta_t(np.exp(us), c)
    out = float(trapezoid(vals, us))
    if not math.isfinite(out) or out <= 0:
        raise BoundViolated(f"normalizer quadrature returned {out}")
    return out


def mixture_reconstruction_check(c: float) -> float:
    """Max gap between the mixed orbit density and the lognormal at RECONSTRUCTION_POINTS.

    Every x > 0 belongs to exactly one orbit slot: x = b c^n with b in
    [1, c).  The mixture density at x is h_c(b) times the orbit mass at
    slot n, divided by the Jacobian c^n of the slot map; the theta sums
    cancel, leaving f(b) b^-n c^(-n^2/2 - n) / k_c.  That product is taken
    in logs, since f(b) underflows at large c before c^-n scales it back.
    """
    _check_domain(c)
    s2 = math.log(c)
    k_c = mixture_normalizer(c)
    worst = 0.0
    for x in RECONSTRUCTION_POINTS:
        b = reduce_base(x, c)
        lb = math.log(b)
        n = round(math.log(x / b) / s2)
        log_fb = -lb * lb / (2 * s2) - lb - 0.5 * math.log(2 * math.pi * s2)
        recon = math.exp(log_fb - n * lb - (n * n / 2 + n) * s2) / k_c
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
        raise DomainError(f"sign must be -1 or +1, got {s}")
    _check_domain(c)
    _, ns, terms, xs, _ = _orbit_grid(math.sqrt(c), c, M)
    masses = (1.0 + s * (-1.0) ** ns) * terms
    return DiscreteDist(xs, masses / masses.sum())
