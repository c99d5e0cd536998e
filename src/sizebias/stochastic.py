"""Renewal inspection sampling and the two-sided embedding coupling.

Two constructions where the transform shows up on its own: the interval
of a renewal process covering a uniformly chosen time is length-biased,
and any mean-zero discrete law is the exit law of Brownian motion from
a random interval [-U, V] built from size-biased conditional pieces.
The embedding check is exact, no paths are simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist_core import DiscreteDist, NamedDist, named_mean, size_bias_discrete
from .errors import ConstantInput, DomainError, HorizonTooShort, NonzeroMean, ZeroMean

_CHUNK = 20_000


# ===================================================================
# interarrival sampling helpers
# ===================================================================

def _interarrival_mean(dist) -> float:
    if isinstance(dist, DiscreteDist):
        if dist.xs[0] <= 0:
            raise ValueError("interarrival support must be strictly positive")
        mean = dist.mean()
    elif isinstance(dist, NamedDist):
        mean = named_mean(dist)
    else:
        raise TypeError(f"cannot sample interarrivals from {type(dist).__name__}")
    if not (math.isfinite(mean) and mean > 0):
        raise ZeroMean(f"interarrival mean must be positive and finite, got {mean}")
    return mean


def _draw_gaps(dist, rng, size):
    if isinstance(dist, DiscreteDist):
        return dist.sample(rng, int(np.prod(size))).reshape(size)
    k, p = dist.kind, dist.params
    if k == "exponential":
        return rng.exponential(size=size)
    if k == "gamma":
        return rng.gamma(p[0], size=size)
    if k == "dirac":
        return np.full(size, p[0])
    if k == "uniform01":
        return rng.random(size=size)
    if k == "lognormal":
        return rng.lognormal(p[0], math.sqrt(p[1]), size=size)
    raise TypeError(f"no interarrival sampler for family {k}")


def _draw_size_biased(dist, rng, n):
    """One draw each from the transform of an interarrival law."""
    if isinstance(dist, DiscreteDist):
        return size_bias_discrete(dist).sample(rng, n)
    k, p = dist.kind, dist.params
    if k == "exponential":
        return rng.gamma(2.0, size=n)
    if k == "gamma":
        return rng.gamma(p[0] + 1.0, size=n)
    if k == "dirac":
        return np.full(n, p[0])
    if k == "uniform01":
        return np.sqrt(rng.random(size=n))
    if k == "lognormal":
        return rng.lognormal(p[0] + p[1], math.sqrt(p[1]), size=n)
    raise TypeError(f"no size-biased sampler for family {k}")


def _cum_arrivals(dist, rng, n, span, lead=None):
    """Cumulative arrival times per row, guaranteed to pass span.

    ``lead`` optionally supplies the first arrival per row; later gaps
    are ordinary interarrivals.
    """
    mean = _interarrival_mean(dist)
    k0 = int(span / mean * 1.1 + 10.0 * math.sqrt(span / mean + 1.0) + 8)
    gaps = _draw_gaps(dist, rng, (n, k0))
    if lead is not None:
        gaps[:, 0] = lead
    cum = np.cumsum(gaps, axis=1)
    while cum[:, -1].min() <= span:
        short = cum[:, -1] <= span
        extra = _draw_gaps(dist, rng, (int(short.sum()), k0))
        add = np.cumsum(extra, axis=1) + cum[short, -1][:, None]
        cum = np.hstack([cum, np.full((n, k0), np.inf)])
        cum[short, -k0:] = add
    return cum


# ===================================================================
# inspection paradox
# ===================================================================

@dataclass(frozen=True)
class InspectionSample:
    """One inspection: the covering interval and the wait it implies."""

    covering_length: float
    residual_wait: float

    def __post_init__(self):
        if not 0.0 <= self.residual_wait <= self.covering_length + 1e-12:
            raise ValueError(f"wait {self.residual_wait} exceeds interval {self.covering_length}")


def simulate_renewal_inspection(interarrival, horizon: float, n: int, rng):
    """Inspect n independent renewal streams at uniform times.

    Each draw builds arrivals out to ``horizon``, picks T uniform on
    [0.1 * horizon, 0.9 * horizon], and records the covering interval's
    length and the wait to the next arrival.  The left margin clears
    the startup transient (the stream begins at 0, so early intervals
    are not yet length-biased); the right margin sidesteps the cut
    interval at the edge.  The lengths are size-biased relative to a
    typical interarrival, which is the paradox.
    """
    mean = _interarrival_mean(interarrival)
    if not math.isfinite(horizon):
        raise DomainError(f"horizon must be finite, got {horizon}")
    if horizon < 50.0 * mean:
        raise HorizonTooShort(f"horizon {horizon} below 50 interarrival means")
    out = []
    for lo in range(0, n, _CHUNK):
        rows = min(_CHUNK, n - lo)
        cum = _cum_arrivals(interarrival, rng, rows, horizon)
        t = rng.uniform(0.1 * horizon, 0.9 * horizon, size=rows)
        j = (cum <= t[:, None]).sum(axis=1)
        nxt = cum[np.arange(rows), j]
        prev = np.where(j > 0, cum[np.arange(rows), np.maximum(j - 1, 0)], 0.0)
        for L, w in zip(nxt - prev, nxt - t):
            out.append(InspectionSample(float(L), float(w)))
    return out


def sample_stationary_phase(interarrival, n: int, rng) -> np.ndarray:
    """First-arrival times U * X* that make the renewal stream stationary."""
    star = _draw_size_biased(interarrival, rng, n)
    return rng.random(n) * star


def stationary_renewal_arrivals(interarrival, window_t: float, n: int, rng) -> np.ndarray:
    """Arrival counts on [0, window_t] for the stationarity construction.

    The first arrival lands at U times a size-biased interarrival; the
    rest are ordinary.  Counts then average window_t over the mean gap,
    with no startup transient.
    """
    if not (math.isfinite(window_t) and window_t > 0):
        raise DomainError(f"window must be positive and finite, got {window_t}")
    counts = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        rows = min(_CHUNK, n - lo)
        lead = sample_stationary_phase(interarrival, rows, rng)
        cum = _cum_arrivals(interarrival, rng, rows, window_t, lead=lead)
        counts[lo : lo + rows] = (cum <= window_t).sum(axis=1)
    return counts


# ===================================================================
# the embedding coupling
# ===================================================================

@dataclass(frozen=True)
class SkorohodCoupling:
    """Joint law of the interval ends (U, V), plus the stay-put weight.

    Mixture weights p_plus, p_zero, p_minus are the sign probabilities
    of the embedded law; uv_atoms lists (u, v, probability) including
    the (0,0) atom when mass sits at 0.
    """

    p_plus: float
    p_zero: float
    p_minus: float
    uv_atoms: tuple

    def __post_init__(self):
        object.__setattr__(self, "uv_atoms",
                           tuple((float(u), float(v), float(p)) for u, v, p in self.uv_atoms))
        if abs(self.p_plus + self.p_zero + self.p_minus - 1.0) > 1e-12:
            raise ValueError("sign probabilities must sum to 1")
        total = sum(p for _, _, p in self.uv_atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {total}")


def skorohod_coupling(x: DiscreteDist) -> SkorohodCoupling:
    """Interval law embedding a mean-zero discrete x in Brownian motion.

    Writing A for the law of -X given X < 0 and B for X given X > 0,
    the interval is (A*, B) with probability P(X>0), the point (0,0)
    with probability P(X=0), and (A, B*) with probability P(X<0),
    components independent in each branch.  Size biasing exactly one
    side is what makes the exit law come back as x.
    """
    if abs(x.mean()) > 1e-12:
        raise NonzeroMean(f"mean {x.mean()} must vanish")
    if x.xs.size < 2:
        raise ConstantInput("constant laws embed trivially, nothing to build")
    neg = x.xs < 0
    pos = x.xs > 0
    zero = ~neg & ~pos
    p_minus = float(x.ps[neg].sum())
    p_zero = float(x.ps[zero].sum())
    p_plus = float(x.ps[pos].sum())
    a = DiscreteDist(-x.xs[neg][::-1], x.ps[neg][::-1] / p_minus)
    b = DiscreteDist(x.xs[pos], x.ps[pos] / p_plus)
    a_star = size_bias_discrete(a)
    b_star = size_bias_discrete(b)
    atoms = {}
    if p_zero > 0:
        atoms[(0.0, 0.0)] = p_zero
    for ua, pa in zip(a_star.xs, a_star.ps):
        for vb, pb in zip(b.xs, b.ps):
            key = (float(ua), float(vb))
            atoms[key] = atoms.get(key, 0.0) + p_plus * float(pa) * float(pb)
    for ua, pa in zip(a.xs, a.ps):
        for vb, pb in zip(b_star.xs, b_star.ps):
            key = (float(ua), float(vb))
            atoms[key] = atoms.get(key, 0.0) + p_minus * float(pa) * float(pb)
    return SkorohodCoupling(p_plus, p_zero, p_minus,
                            tuple((u, v, p) for (u, v), p in sorted(atoms.items())))


def skorohod_exit_pmf(sc: SkorohodCoupling) -> DiscreteDist:
    """Exact exit law: mass v/(u+v) at -u and u/(u+v) at +v per atom.

    Equals the embedded law atom for atom; the identity is checked by
    tests rather than enforced here.
    """
    acc = {}
    for u, v, p in sc.uv_atoms:
        if u == 0.0 and v == 0.0:
            acc[0.0] = acc.get(0.0, 0.0) + p
            continue
        acc[-u] = acc.get(-u, 0.0) + p * v / (u + v)
        acc[v] = acc.get(v, 0.0) + p * u / (u + v)
    xs = np.array(sorted(acc))
    ps = np.array([acc[x] for x in sorted(acc)])
    return DiscreteDist(xs, ps / ps.sum(), signed=True)


def expected_exit_time(sc: SkorohodCoupling) -> float:
    """E[U V] over the interval law; matches the second moment of x."""
    return float(sum(u * v * p for u, v, p in sc.uv_atoms))
