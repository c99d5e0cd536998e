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

from .dist_core import (_FAMILIES, DiscreteDist, NamedDist, closed_form_size_bias, merge_atoms,
                        named_mean, row_blocks, size_bias_discrete)
from .errors import (ConstantInput, DomainError, HorizonTooShort, NonzeroMean, NoSampler,
                     SupportOverflow, ZeroMean)

_CHUNK = 20_000
ARRIVAL_CELL_CAP = 100_000_000  # arrival buffers past this many cells are refused


# ===================================================================
# interarrival sampling helpers
# ===================================================================

def _interarrival_mean(dist) -> float:
    if isinstance(dist, DiscreteDist):
        if dist.xs[0] <= 0:
            raise ValueError("interarrival support must be strictly positive")
        mean = dist.mean()
    elif isinstance(dist, NamedDist):
        if _FAMILIES[dist.kind].sampler is None:
            raise NoSampler(f"no interarrival sampler for family {dist.kind}")
        mean = named_mean(dist)
    else:
        raise TypeError(f"cannot sample interarrivals from {type(dist).__name__}")
    if not (math.isfinite(mean) and mean > 0):
        raise ZeroMean(f"interarrival mean must be positive and finite, got {mean}")
    return mean


def _check_cells(rows, width, span) -> None:
    if not rows * width <= ARRIVAL_CELL_CAP:
        raise SupportOverflow(f"{rows} streams to {span:.4g} need about {rows * width:.3g} "
                              f"arrival cells, over {ARRIVAL_CELL_CAP}")


def _arrival_buffer(dist, rows, span) -> np.ndarray:
    """An empty rows x k0 buffer, k0 gaps per row: enough for nearly every row to pass span.

    Raises SupportOverflow, before allocating, past ARRIVAL_CELL_CAP cells.
    """
    mean = _interarrival_mean(dist)
    k0 = span / mean * 1.1 + 10.0 * math.sqrt(span / mean + 1.0) + 8
    _check_cells(rows, k0, span)
    return np.empty((rows, int(k0)))


def _cum_arrivals(dist, rng, n, span, lead=None, buf=None):
    """Cumulative arrival times per row, guaranteed to pass span.

    The gaps are drawn into the first n rows of ``buf`` (a new buffer
    when None) and summed there in place.  ``lead`` optionally supplies
    the first arrival per row; later gaps are ordinary interarrivals.
    Rows still short of span get k0 more arrivals in a wider copy; every
    allocation is checked against ARRIVAL_CELL_CAP before it is made.
    """
    if buf is None:
        buf = _arrival_buffer(dist, n, span)
    cum = buf[:n]
    dist.fill(rng, cum)
    if lead is not None:
        cum[:, 0] = lead
    np.cumsum(cum, axis=1, out=cum)
    k0 = cum.shape[1]
    while (last := cum[:, -1]).min() <= span:
        short = last <= span
        width = cum.shape[1] + k0
        _check_cells(n, width, span)
        extra = dist.sample(rng, (int(short.sum()), k0))
        np.cumsum(extra, axis=1, out=extra)
        extra += last[short][:, None]
        wide = np.empty((n, width))
        wide[:, :-k0] = cum
        wide[:, -k0:] = np.inf
        wide[short, -k0:] = extra
        cum = wide
    return cum


def _count_at_most(cum, t) -> np.ndarray:
    """Per row, the number of entries <= t (a scalar or one value per row).

    Counts a block of rows at a time, so no rows x k0 mask is built; the
    count covers the whole row, sorted or not.
    """
    t = np.broadcast_to(t, cum.shape[:1])
    counts = np.empty(len(cum), dtype=np.int64)
    for rows in row_blocks(cum):
        counts[rows] = np.count_nonzero(cum[rows] <= t[rows, None], axis=1)
    return counts


# ===================================================================
# inspection paradox
# ===================================================================

def simulate_renewal_inspection(interarrival, horizon: float, n: int, rng) -> np.recarray:
    """Inspect n independent renewal streams at uniform times.

    Each draw builds arrivals out to ``horizon``, picks T uniform on
    [0.1 * horizon, 0.9 * horizon], and records the covering interval's
    length and the wait to the next arrival.  The left margin clears
    the startup transient (the stream begins at 0, so early intervals
    are not yet length-biased); the right margin sidesteps the cut
    interval at the edge.  The lengths are size-biased relative to a
    typical interarrival, which is the paradox.

    Returns a record array with float columns ``covering_length`` and
    ``residual_wait``, one row per inspection.
    """
    mean = _interarrival_mean(interarrival)
    if not math.isfinite(horizon):
        raise DomainError(f"horizon must be finite, got {horizon}")
    if horizon < 50.0 * mean:
        raise HorizonTooShort(f"horizon {horizon} below 50 interarrival means")
    lengths = np.empty(n)
    waits = np.empty(n)
    buf = _arrival_buffer(interarrival, min(n, _CHUNK), horizon)
    for lo in range(0, n, _CHUNK):
        rows = min(_CHUNK, n - lo)
        cum = _cum_arrivals(interarrival, rng, rows, horizon, buf=buf)
        t = rng.uniform(0.1 * horizon, 0.9 * horizon, size=rows)
        j = _count_at_most(cum, t)
        nxt = cum[np.arange(rows), j]
        prev = np.where(j > 0, cum[np.arange(rows), np.maximum(j - 1, 0)], 0.0)
        lengths[lo : lo + rows] = nxt - prev
        waits[lo : lo + rows] = nxt - t
        del cum     # a widened copy must not stay alive through the next chunk's draw
    bad = np.flatnonzero(~((waits >= 0.0) & (waits <= lengths + 1e-12)))
    if bad.size:
        raise ValueError(f"wait {waits[bad[0]]} exceeds interval {lengths[bad[0]]}")
    return np.rec.fromarrays([lengths, waits], names="covering_length,residual_wait")


def sample_stationary_phase(interarrival, n: int, rng) -> np.ndarray:
    """First-arrival times U * X* that make the renewal stream stationary."""
    _interarrival_mean(interarrival)    # refuses laws no stream can run on
    if isinstance(interarrival, DiscreteDist):
        star = size_bias_discrete(interarrival).sample(rng, n)
    else:
        cf = closed_form_size_bias(interarrival)
        star = cf.shift + cf.base.sample(rng, n)
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
    buf = _arrival_buffer(interarrival, min(n, _CHUNK), window_t)
    for lo in range(0, n, _CHUNK):
        rows = min(_CHUNK, n - lo)
        lead = sample_stationary_phase(interarrival, rows, rng)
        counts[lo : lo + rows] = _count_at_most(
            _cum_arrivals(interarrival, rng, rows, window_t, lead=lead, buf=buf), window_t)
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
    # supp(A*) = supp(A) and supp(B*) = supp(B), so both branches land on
    # the grid supp(A) x supp(B), listed in sorted (u, v) order
    u, v = np.meshgrid(a.xs, b.xs, indexing="ij")
    p = np.outer(p_plus * a_star.ps, b.ps) + np.outer(p_minus * a.ps, b_star.ps)
    atoms = np.column_stack([u.ravel(), v.ravel(), p.ravel()]).tolist()
    if p_zero > 0:
        atoms.insert(0, (0.0, 0.0, p_zero))
    return SkorohodCoupling(p_plus, p_zero, p_minus, atoms)


def skorohod_exit_pmf(sc: SkorohodCoupling) -> DiscreteDist:
    """Exact exit law: mass v/(u+v) at -u and u/(u+v) at +v per atom.

    Equals the embedded law atom for atom; the identity is checked by
    tests rather than enforced here.
    """
    u, v, p = np.array(sc.uv_atoms).T
    go = (u != 0.0) | (v != 0.0)    # a (0, 0) atom stays put: mass p at 0
    u, v, p, p0 = u[go], v[go], p[go], p[~go]
    xs, ps = merge_atoms(np.concatenate([-u, v, np.zeros(p0.size)]),
                         np.concatenate([p * v / (u + v), p * u / (u + v), p0]))
    return DiscreteDist(xs, ps / ps.sum(), signed=True)


def expected_exit_time(sc: SkorohodCoupling) -> float:
    """E[U V] over the interval law; matches the second moment of x."""
    return float(sum(u * v * p for u, v, p in sc.uv_atoms))
