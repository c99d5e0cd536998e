"""Poisson-approximation and concentration bounds from couplings.

Both results quantify how far a law sits from a benchmark through the
gap between its size-biased version and a simple shift: total variation
to a Poisson is controlled by E|X* - (X+1)|, and a bounded difference
X* - X <= c forces sub-Poissonian tails on both sides.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dist_core import (DiscreteDist, atom_difference, bd0, binom_pmf, check_points,
                        poisson_pmf, poisson_reach)
from .dist_core import merge_atoms  # noqa: F401  (unused; bench/spans.py traces the name here)
from .errors import BoundViolated, DomainError

TAIL_TERM_CUT = 1e-18      # stop tail sums once terms fall below this x partial


@dataclass(frozen=True)
class ConcentrationParams:
    """Mean a, coupling bound c with P(X* <= X + c) = 1, eval point x."""

    a: float
    c: float
    x: float

    def __post_init__(self):
        if not all(math.isfinite(v) and v > 0 for v in (self.a, self.c, self.x)):
            raise DomainError("a, c, x must all be positive and finite")


def tv_distance(p: DiscreteDist, q: DiscreteDist) -> float:
    """Half the summed absolute mass difference over the union support."""
    return 0.5 * float(np.abs(atom_difference(p, q)).sum())


def stein_poisson_bound(lam: float, gap: float) -> float:
    """Total variation to Poisson(lam) is at most (1 - e^-lam) * gap.

    gap is E|X* - (X+1)| under some coupling of X with X*.
    """
    if not lam > 0:
        raise DomainError(f"rate must be positive, got {lam}")
    if not gap >= 0:
        raise DomainError(f"gap must be nonnegative, got {gap}")
    return (1.0 - math.exp(-lam)) * float(gap)


def binomial_poisson_check(n: int, p: float):
    """(Stein bound, exact TV) for a binomial against Poisson(np).

    The coupling shares all but one summand, leaving X* - (X+1) equal
    to minus a single indicator, so the gap is exactly p and the bound
    (1 - e^-np) * p.  Returns both sides; the exact distance can touch
    the bound (n = 1) but never beats it.
    """
    if n < 1 or not 0.0 < p < 1.0:
        raise DomainError(f"need n >= 1 and p in (0,1), got n={n}, p={p}")
    lam = n * p
    bound = stein_poisson_bound(lam, p)
    # cut the Poisson terms at the first k >= n where a term is dust next
    # to the running total
    hi = max(n, poisson_reach(lam))
    check_points(hi + 1, f"binomial n = {n} against its Poisson")
    poi = poisson_pmf(lam, hi)
    dust = poi[n:] < TAIL_TERM_CUT * np.cumsum(poi)[n:]
    poi = poi[: n + int(np.argmax(dust)) + 1]
    bi = np.zeros(poi.size)
    bi[: n + 1] = binom_pmf(n, p)
    exact = 0.5 * (float(np.abs(bi - poi).sum()) + max(0.0, 1.0 - poi.sum()))
    if exact > bound * (1 + 1e-12) + 1e-15:
        raise BoundViolated(f"exact distance {exact} exceeds the Stein bound {bound}")
    return bound, exact


# ===================================================================
# concentration from a bounded coupling
# ===================================================================

def _tight(a, c, x):
    # (a/x)^(x/c) e^((x-a)/c) = exp(-bd0(x, a)/c), which cannot overflow; bd0's error is
    # the bound's, so the series runs to |v| = 0.5 at every size below 1e5
    return math.exp(-float(bd0(x, a, series_floor=0.0)) / c)


def _gaussian(d, c, m):
    """exp(-d^2 / (c * 2m)) for d >= 0 and m > 0.

    m is half the bound's sum, which may itself overflow.  Where d^2 or
    the denominator leaves the normal double range, the exponent is
    taken in the factored form (d / c) * (d / 2m).
    """
    den = c * (m + m)
    if d < 1e154 and 0.0 < den < math.inf:
        return math.exp(-(d ** 2) / den)
    return math.exp(-(d / c) * (0.5 * d / m))


def _check_order(tight, gauss):
    if tight > gauss + 1e-15:
        raise BoundViolated(f"tight bound {tight} exceeds the gaussian bound {gauss}")


def concentration_upper(cp: ConcentrationParams):
    """(tight, gaussian) upper tail bounds at x >= a.

    tight = (a/x)^(x/c) e^((x-a)/c); gaussian = exp(-(x-a)^2/(c(a+x))).
    The tight form never exceeds the gaussian form on its domain.
    """
    if cp.x < cp.a:
        raise DomainError(f"upper tail needs x >= a, got x={cp.x} a={cp.a}")
    tight = _tight(cp.a, cp.c, cp.x)
    gauss = _gaussian(cp.x - cp.a, cp.c, 0.5 * cp.a + 0.5 * cp.x)
    _check_order(tight, gauss)
    return tight, gauss


def concentration_lower(cp: ConcentrationParams):
    """(tight, gaussian) lower tail bounds at 0 < x <= a."""
    if cp.x > cp.a:
        raise DomainError(f"lower tail needs x <= a, got x={cp.x} a={cp.a}")
    tight = _tight(cp.a, cp.c, cp.x)
    gauss = _gaussian(cp.a - cp.x, cp.c, cp.a)
    _check_order(tight, gauss)
    return tight, gauss


def tail_iteration(cp: ConcentrationParams) -> float:
    """Upper bound from iterating G(x) <= (a/x) G(x-c) down to the mean.

    The product of the stepped ratios bounds the tail with the final
    factor capped at 1; it lands within a factor e of the closed form.
    The m = ceil((x - a)/c) factors a/(x - j c), j < m, multiply to
    (a/c)^m Gamma(x/c - m + 1) / Gamma(x/c + 1).
    """
    a, c, x = cp.a, cp.c, cp.x
    if x <= a:
        raise DomainError(f"iteration needs x > a, got x={x} a={a}")
    r = x / c
    if r > 1e300:
        raise DomainError(f"x/c = {r:.3g} is past the range of log Gamma")
    m = math.ceil((x - a) / c)
    low = r - m + 1
    if low <= 0:        # r - m + 1 rounded onto a pole of log Gamma; r - (m - 1) keeps r's bits
        low = r - (m - 1)
    log_prod = m * math.log(a / c) - math.lgamma(r + 1) + math.lgamma(low)
    # every factor is below 1; the cap keeps rounding at huge x/c from overflowing
    return math.exp(min(log_prod, 0.0))


# exact Poisson tails for calibration against the bounds

def _tail_point(a: float, x) -> int:
    """x as an int; DomainError unless the rate a is positive and finite and x is integral."""
    if not (math.isfinite(a) and a > 0):
        raise DomainError(f"rate must be positive and finite, got {a}")
    if not (isinstance(x, numbers.Integral) or float(x).is_integer()):
        raise DomainError(f"tail point must be an integer, got {x}")
    return int(x)


def poisson_upper_tail(a: float, x: int) -> float:
    """P(X >= x) for Poisson(a), summing log-space terms that cannot underflow early.

    Past k = max(x, reach) each term is at most a/reach times the one
    before, so reach - a more terms leave a remainder below e^-60 of
    the sum.  Every x <= 0 sums the whole table.
    """
    x = _tail_point(a, x)
    reach = poisson_reach(a)
    hi = max(x, reach) + reach - int(a)
    check_points(hi + 1, f"Poisson({a:g}) upper tail")
    return float(poisson_pmf(a, hi)[max(x, 0):].sum())


def poisson_lower_tail(a: float, x: int) -> float:
    """P(X <= x) for Poisson(a), summing log-space terms that cannot underflow early."""
    x = _tail_point(a, x)
    check_points(x + 1, f"Poisson({a:g}) lower tail")
    return float(poisson_pmf(a, x).sum())
