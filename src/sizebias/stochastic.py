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

from . import sum_bias
from .dist_core import (_FAMILIES, DiscreteDist, NamedDist, check_work, closed_form_size_bias,
                        merge_atoms, named_mean, row_blocks, size_bias_discrete)
from .errors import BoundViolated, DomainError, NoSampler, SupportOverflow, ZeroMean

_CHUNK = 20_000
_BLOCK = 2_000      # streams drawn together to their largest inspection time
ARRIVAL_CELL_CAP = 100_000_000  # arrival buffers past this many cells are refused


# ===================================================================
# interarrival sampling helpers
# ===================================================================

def _interarrival_mean(dist) -> float:
    if isinstance(dist, DiscreteDist):
        if dist.xs[0] <= 0:
            raise DomainError("interarrival support must be strictly positive")
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


def _arrival_chunks(dist, rng, n, span, lead=None):
    """Yield (rows, cum): cumulative arrival times of the streams ``rows``, each past its span.

    ``span`` is one value for all n streams or one per stream.  Each chunk of up to
    _CHUNK streams is sorted, stably, by span and drawn a block at a time, each block
    only to its largest span: the whole chunk for one span, _BLOCK streams for
    per-stream spans.  ``rows`` indexes a block's streams in that order.

    Checks the law and ARRIVAL_CELL_CAP, then draws every block into one buffer,
    sized once for the largest span, k0 gaps a row (enough for nearly every row), and
    sums it in place; ``lead(dist, rows, rng)``, when given, draws a chunk's first
    arrivals before its gaps.  Rows still short of their span get k0 more arrivals a
    round, those rows alone, each width checked against the cap first; the rounds are
    joined once, inf-padded.
    """
    mean = _interarrival_mean(dist)

    def gaps_to(s):
        return s / mean * 1.1 + 10.0 * math.sqrt(s / mean + 1.0) + 8

    block = _BLOCK if np.ndim(span) else _CHUNK
    spans = np.broadcast_to(np.asarray(span, dtype=float), (n,))
    top = float(spans.max(initial=0.0))
    check_work(min(n, block) * gaps_to(top), ARRIVAL_CELL_CAP, "arrival cells",
               f"drawing {min(n, block)} streams to {top:.4g}")
    buf = np.empty(min(n, block) * int(gaps_to(top)))
    for lo in range(0, n, _CHUNK):
        rows = min(_CHUNK, n - lo)
        first = None if lead is None else lead(dist, rows, rng)
        order = np.argsort(spans[lo : lo + rows], kind="stable")   # the identity for one span
        for b in range(0, rows, block):
            part = order[b : b + block]
            s = spans[lo + part]
            reach = float(s.max())
            k0 = int(gaps_to(reach))
            cum = buf[: part.size * k0].reshape(part.size, k0)
            dist.fill(rng, cum)
            if first is not None:
                cum[:, 0] = first[part]
            np.cumsum(cum, axis=1, out=cum)
            last = cum[:, -1].copy()
            rounds = []
            while (last <= s).any():
                short = np.flatnonzero(last <= s)
                check_work(part.size * k0 * (len(rounds) + 2), ARRIVAL_CELL_CAP, "arrival cells",
                           f"drawing {part.size} streams to {reach:.4g}")
                extra = dist.sample(rng, (short.size, k0))
                np.cumsum(extra, axis=1, out=extra)
                extra += last[short, None]
                last[short] = extra[:, -1]
                rounds.append((short, extra))
            if rounds:
                joined = np.full((part.size, k0 * (len(rounds) + 1)), np.inf)
                joined[:, :k0] = cum
                for r, (short, extra) in enumerate(rounds, 1):
                    joined[short, r * k0 : (r + 1) * k0] = extra
                cum = joined
                del rounds, short, extra, joined
            yield lo + part, cum
            del cum     # a joined matrix must not stay alive through the next block's draw


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

    Each draw picks T uniform on [0.1 * horizon, 0.9 * horizon], builds
    arrivals only to the first one past T, and records the covering
    interval's length and the wait to the next arrival.  The left margin
    clears the startup transient (the stream begins at 0, so early
    intervals are not yet length-biased).  The lengths are size-biased
    relative to a typical interarrival, which is the paradox.

    Each chunk of up to _CHUNK streams draws its T first, then its gaps
    in blocks of streams sorted by T, each block only to its largest T
    (``_arrival_chunks``); results land in draw order.

    Returns a record array with float columns ``covering_length`` and
    ``residual_wait``, one row per inspection.
    """
    mean = _interarrival_mean(interarrival)
    if not math.isfinite(horizon):
        raise DomainError(f"horizon must be finite, got {horizon}")
    if horizon < 50.0 * mean:
        raise DomainError(f"horizon {horizon} below 50 interarrival means")
    lengths = np.empty(n)
    waits = np.empty(n)
    for lo in range(0, n, _CHUNK):
        t = rng.uniform(0.1 * horizon, 0.9 * horizon, size=min(_CHUNK, n - lo))
        for rows, cum in _arrival_chunks(interarrival, rng, t.size, t):
            tr, k = t[rows], np.arange(len(cum))
            j = _count_at_most(cum, tr)
            nxt = cum[k, j]
            prev = np.where(j > 0, cum[k, np.maximum(j - 1, 0)], 0.0)
            lengths[lo + rows] = nxt - prev
            waits[lo + rows] = nxt - tr
            del cum     # let a joined matrix go before the next block is drawn
    bad = np.flatnonzero(~((waits >= 0.0) & (waits <= lengths + 1e-12)))
    if bad.size:
        raise BoundViolated(f"wait {waits[bad[0]]} exceeds interval {lengths[bad[0]]}")
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
    for rows, cum in _arrival_chunks(interarrival, rng, n, window_t, sample_stationary_phase):
        counts[rows] = _count_at_most(cum, window_t)
        del cum     # let a joined matrix go before the next chunk is drawn
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
            raise DomainError("sign probabilities must sum to 1")
        total = sum(p for _, _, p in self.uv_atoms)
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"atom probabilities sum to {total}")


def skorohod_coupling(x: DiscreteDist) -> SkorohodCoupling:
    """Interval law embedding a mean-zero discrete x in Brownian motion.

    Writing A for the law of -X given X < 0 and B for X given X > 0,
    the interval is (A*, B) with probability P(X>0), the point (0,0)
    with probability P(X=0), and (A, B*) with probability P(X<0),
    components independent in each branch.  Size biasing exactly one
    side is what makes the exit law come back as x.
    """
    if abs(x.mean()) > 1e-12:
        raise DomainError(f"mean {x.mean()} must vanish")
    if x.xs.size < 2:
        raise DomainError("constant laws embed trivially, nothing to build")
    neg = x.xs < 0
    pos = x.xs > 0
    # both branches land on the grid supp(A) x supp(B), refused here before it is built
    check_work(np.count_nonzero(neg) * np.count_nonzero(pos), sum_bias.CONV_ATOM_CAP, "atoms",
               "(u, v) coupling grid")
    zero = ~neg & ~pos
    p_minus = float(x.ps[neg].sum())
    p_zero = float(x.ps[zero].sum())
    p_plus = float(x.ps[pos].sum())
    a = DiscreteDist(-x.xs[neg][::-1], x.ps[neg][::-1] / p_minus)
    b = DiscreteDist(x.xs[pos], x.ps[pos] / p_plus)
    a_star = size_bias_discrete(a)
    b_star = size_bias_discrete(b)
    # supp(A*) = supp(A) and supp(B*) = supp(B): the grid, in sorted (u, v) order
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
    with np.errstate(over="ignore"):
        w = u + v
    if not np.isfinite(w).all():
        raise SupportOverflow(f"interval length u + v = {w.max()} leaves the double range")
    xs, ps = merge_atoms(np.concatenate([-u, v, np.zeros(p0.size)]),
                         np.concatenate([p * v / w, p * u / w, p0]))
    return DiscreteDist(xs, ps / ps.sum(), signed=True)


def expected_exit_time(sc: SkorohodCoupling) -> float:
    """E[U V] over the interval law; matches the second moment of x."""
    return float(sum(u * v * p for u, v, p in sc.uv_atoms))
