"""Compound-Poisson synthesis and infinite-divisibility testing.

A nonnegative law is infinitely divisible exactly when its size-biased
version splits as the original plus an independent nonnegative
increment.  On the integers that equivalence becomes a two-way
recursion: synthesize a pmf from jump rates, or extract the increment
from a pmf and watch for negative coefficients.  The two delay
equations at the end are the continuous fixed-point constructions with
uniform increments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dist_core import DiscreteDist, GridDensity, check_points, check_work, json_list, json_number
from .errors import DomainError, SizeBiasError, SupportOverflow, TruncationTooSevere, ZeroMean

NEG_MASS_TOL = 1e-9        # extracted mass below -this means "not divisible"
EXAMINE_TAIL = 1e-6        # skip indices once this little input mass remains
RECURSION_WORK_CAP = 2_000_000_000  # recursions past this many multiply-adds are refused
SERIES_KMAX = 256          # extractions to at least this index divide power series by FFT


@dataclass(frozen=True)
class LevyRepr:
    """Mean, drift mass at jump size 0, and finite jump list (y, rate).

    The jump rates integrate the mean back: sum(rate*y) = a*(1-alpha0).
    """

    a: float
    alpha0: float
    jumps: tuple

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple((float(y), float(r)) for y, r in self.jumps))
        bad = [v for v in (self.a, *(x for jump in self.jumps for x in jump))
               if not math.isfinite(v)]
        if bad:
            raise DomainError(f"mean, jump sizes and rates must be finite, got {bad[0]}")
        if self.a <= 0:
            raise DomainError(f"mean must be positive, got {self.a}")
        if not 0.0 <= self.alpha0 < 1.0:
            raise DomainError(f"drift mass {self.alpha0} outside [0, 1)")
        ys = [y for y, _ in self.jumps]
        if any(y <= 0 for y in ys):
            raise DomainError("jump sizes must be positive")
        if len(set(ys)) != len(ys):
            raise DomainError("jump sizes must be distinct")
        if any(r <= 0 for _, r in self.jumps):
            raise DomainError("jump rates must be positive")
        total = sum(r * y for y, r in self.jumps)
        if abs(total - self.a * (1 - self.alpha0)) > 1e-10:
            raise DomainError(f"rates integrate to {total}, expected {self.a * (1 - self.alpha0)}")

    def total_rate(self) -> float:
        return sum(r for _, r in self.jumps)


@dataclass(frozen=True)
class IdTestResult:
    """Outcome of increment extraction.

    When ``is_id`` the increment is a genuine distribution and the
    size-bias split holds.  Otherwise ``witness_index`` points at the
    first seriously negative extracted coefficient and ``witness_value``
    is that coefficient; ``raw`` keeps every coefficient for inspection.
    """

    is_id: bool
    a: float
    increment: DiscreteDist | None
    witness_index: int | None
    witness_value: float | None
    raw: np.ndarray
    examined: np.ndarray

    def jump_rates(self):
        """Derived rates rate_k = a * f_Y(k) / k on the examined indices."""
        return [(int(k), self.a * self.raw[k] / k) for k in self.examined]


def compound_poisson_from_increment(y_dist: DiscreteDist, a: float) -> LevyRepr:
    """Jump rates that make the increment law come out as y_dist.

    rate_i = a * p_i / y_i; the resulting sum of Poisson-many jumps has
    mean a and size-biases by adding one independent copy of the
    increment.
    """
    if y_dist.xs[0] <= 0:
        raise DomainError(f"increment support must be positive, got {y_dist.xs[0]}")
    if a <= 0:
        raise ZeroMean(f"mean must be positive, got {a}")
    jumps = [(float(y), a * float(p) / float(y)) for y, p in zip(y_dist.xs, y_dist.ps) if p > 0]
    return LevyRepr(a, 0.0, tuple(jumps))


def pmf_recursion(levy: LevyRepr, N: int) -> DiscreteDist:
    """Pmf on 0..N of the integer-jump compound Poisson law.

    f(0) = exp(-total rate); each later mass comes from the size-bias
    split f(m+1) = a/(m+1) * sum f(i) f_Y(m+1-i).  f_Y is zero past the
    largest jump Y <= N, so each mass reads only the Y before it: N*Y
    multiply-adds, which the N(N+1)/2 work cap over-states.  The truncated
    tail is recorded on the result and the masses renormalized.
    """
    if levy.alpha0 != 0.0:
        raise DomainError("drift mass shifts the law off the integer lattice")
    ys, rs = np.array(levy.jumps).T
    ks = np.round(ys)
    bad = ~(np.abs(ys - ks) <= 1e-12) | (ks < 1)      # a NaN size counts as bad
    if bad.any():
        raise DomainError(f"jump size {ys[bad][0]} is not a positive integer")
    what = f"compound-Poisson pmf on 0..{N}"
    check_points(N + 1, what)
    check_work(N * (N + 1) / 2, RECURSION_WORK_CAP, "multiply-adds", what)
    # a jump past N acts only through f(0); jumps that round to one site add their rates
    near = ks <= N
    fy = np.bincount(ks[near].astype(int), weights=ks[near] * rs[near] / levy.a, minlength=2)
    Y = fy.size - 1
    # Y - 1 leading zeros: row m of the window is f(m+1-Y..m), summed in the same order
    buf = np.zeros(N + Y)
    buf[Y - 1] = math.exp(-levy.total_rate())
    if buf[Y - 1] == 0.0:
        raise DomainError(f"e^-rate underflows to 0 at total jump rate {levy.total_rate():g}")
    rows, w = sliding_window_view(buf, Y), fy[:0:-1]
    for m in range(N):
        buf[Y + m] = levy.a / (m + 1) * float(rows[m] @ w)
    f = buf[Y - 1 :]
    tail = max(1.0 - f.sum(), 0.0)
    return DiscreteDist.from_pmf(f / f.sum(), tail_bound=tail)


def extract_increment(fX: DiscreteDist) -> IdTestResult:
    """Invert the recursion: solve for the increment law given the pmf.

    The mean is taken from the input pmf itself.  For a truncated input
    (nonzero tail_bound) indices are examined only while the input still
    has at least EXAMINE_TAIL mass above them; later coefficients
    are pure truncation noise.  An exact input's zeros past the support
    are real, so there the recursion runs past the last atom, where
    finite-support counterexamples reveal themselves.  A coefficient
    below -NEG_MASS_TOL is a divisibility counterexample.
    """
    ks = np.round(fX.xs).astype(int)
    if np.any(np.abs(fX.xs - ks) > 1e-9) or ks[0] < 0:
        raise DomainError("support must sit on the nonnegative integers")
    exact = fX.tail_bound == 0.0
    K = int(ks[-1])
    kmax = 2 * K + 10 if exact else K
    what = f"increment extraction to {kmax}"
    check_points(kmax + 1, what)
    check_work(kmax * (kmax + 1) / 2, RECURSION_WORK_CAP, "multiply-adds", what)
    f = np.zeros(kmax + 1)
    f[ks] = fX.ps
    if f[0] <= 0:
        raise DomainError("extraction divides by the mass at 0")
    a = fX.mean()
    if a <= 0:
        raise ZeroMean("mean must be positive")
    # F Y/s = F'/a, F the pgf of fX (Katti 1967); rhs holds F'/a
    rhs = np.arange(1, kmax + 1) * f[1:] / a
    # 1/f(0) may overflow the coefficients; a non-finite one settles no verdict (below)
    with np.errstate(over="ignore", invalid="ignore"):
        fy = _series_quotient(f, rhs) if kmax >= SERIES_KMAX else None
        if fy is None:
            fy = _katti_loop(f, rhs)
    if exact:
        examined = np.arange(1, kmax + 1)
    else:
        below = np.cumsum(f)      # below[k] = mass at or under k
        examined = np.flatnonzero(below[:K] < 1 - EXAMINE_TAIL) + 1
        if examined.size == 0:
            examined = np.array([1])
    # NaN and +-inf count as bad; only a finite witness settles the verdict
    bad = examined[~((fy[examined] >= -NEG_MASS_TOL) & (fy[examined] < math.inf))]
    if bad.size:
        k0 = bad[0]
        if not math.isfinite(fy[k0]):
            raise DomainError(f"mass at 0 of {f[0]:.4g} is too small: 1/f(0) overflows the "
                              f"increment at index {k0}, before any verdict")
        return IdTestResult(False, a, None, k0, float(fy[k0]), fy, examined)
    # verdict settled on the examined window; the increment itself may
    # keep later coefficients up to the first negative one (that is
    # where truncation noise takes over) so its masses are not inflated
    # by renormalizing over a short window
    keep = int(examined[-1])
    while keep < kmax and 0.0 <= fy[keep + 1] < math.inf:
        keep += 1
    idx = np.arange(1, keep + 1)
    masses = np.clip(fy[idx], 0.0, None)
    inc = DiscreteDist(idx.astype(float), masses / masses.sum())
    return IdTestResult(True, a, inc, None, None, fy, examined)


def _katti_loop(f, rhs):
    """fy with fy[m + 1] = (rhs[m] - sum of f[i] fy[m + 1 - i]) / f[0], term by term."""
    fy = np.zeros(rhs.size + 1)
    for m in range(rhs.size):
        inner = float(f[1 : m + 1] @ fy[m : 0 : -1])
        fy[m + 1] = (rhs[m] - inner) / f[0]
    return fy


def _series_product(a, b, n):
    """First n coefficients of the product of two power series, by FFT."""
    size = 1 << (a.size + b.size - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)[:n]


def _series_inverse(f, n):
    """First n coefficients of 1/F by Newton's iteration g <- g + g (1 - F g)."""
    g = np.array([1.0 / f[0]])
    while g.size < n:
        k, m = g.size, min(2 * g.size, n)
        err = _series_product(f[:m], g, m)[k:]      # F g = 1 + s^k err
        g = np.concatenate([g, -_series_product(g, err, m - k)])
    return g


def _series_quotient(f, rhs):
    """_katti_loop's fy in O(kmax log kmax), or None where FFT accuracy is not enough.

    FFT products carry an absolute error of about eps times the largest
    coefficient of 1/F, which grows like e^(2 total rate), so the quotient
    is refined against its residual rhs - F q.  A correction must fall
    below NEG_MASS_TOL / 1000 within three steps; one that does not, or is
    not finite, leaves the input to the loop.
    """
    n = rhs.size
    with np.errstate(all="ignore"):
        g = _series_inverse(f, n)
        q = _series_product(rhs, g, n)
        for _ in range(3):
            step = _series_product(g, rhs - _series_product(f[:n], q, n), n)
            q += step
            if np.abs(step).max() <= NEG_MASS_TOL / 1000:
                return np.concatenate([[0.0], q])
    return None


def log_convexity_check(fX: DiscreteDist) -> bool:
    """Sufficient condition on a gap-free pmf: f(n-1)f(n+1) >= f(n)^2.

    Log-convex pmfs on {0,1,...} are always divisible; the converse
    fails (light-tailed divisible laws are log-concave instead).
    """
    ks = np.round(fX.xs).astype(int)
    ok = (np.all(np.abs(fX.xs - ks) <= 1e-9) and ks[0] == 0
          and np.all(np.diff(ks) == 1) and np.all(fX.ps > 0))
    if not ok:
        raise DomainError("need every mass positive on an initial segment {0..N}")
    p = fX.ps
    return bool(np.all(p[:-2] * p[2:] >= p[1:-1] ** 2 - 1e-15))


# ===================================================================
# delay equations with uniform increments
# ===================================================================

def _check_mean(a):
    if not math.isfinite(a):
        raise DomainError(f"mean must be finite, got {a}")
    if a <= 0:
        raise DomainError(f"mean must be positive, got {a}")


def _check_grid(h, xmax):
    if not 0 < h <= 1e-3 + 1e-15:
        raise DomainError(f"grid step {h} outside (0, 1e-3]")
    if not math.isfinite(xmax):
        raise DomainError(f"xmax must be finite, got {xmax}")
    if xmax < 3:
        raise DomainError(f"xmax must be at least 3, got {xmax}")
    check_points(xmax / h + 1, f"grid to {xmax:g} at step {h:g}")
    m1 = round(1.0 / h)
    if abs(1.0 / h - m1) > 1e-6:
        raise DomainError("1/h must be an integer so the unit delay sits on the grid")
    return m1


def _check_rate(a, h):
    """Refuse a mean whose per-step coefficient a/h overflows before marching."""
    if not math.isfinite(a / h):
        raise DomainError(f"mean {a:g} too large for grid step {h:g}: a/h overflows")


def dickman_solve(a: float, h: float = 1e-3, xmax: float = 5.0) -> GridDensity:
    """Density of the fixed point whose increment is Uniform(0,1).

    Solves f(x) = (a/x) * integral of f over (x-1, x) by marching the
    grid, seeded with the analytic power form C*x^(a-1) on (0,1].  The
    output is normalized to unit mass; its mean lands on a to about 1e-4,
    which tests use as the accuracy certificate.  At a=1 this is the
    rough-number density: e^(-gamma) times the classical decay function.
    """
    _check_mean(a)
    m1 = _check_grid(h, xmax)
    _check_rate(a, h)
    J = round(xmax / h)
    x = h * np.arange(J + 1)
    # per-step coefficient a/x and implicit denominator 1 - a h/(2x) for j > m1
    c = a / x[m1 + 1 :]
    d = 1.0 - a * h / (2.0 * x[m1 + 1 :])
    if not d[0] > 0.0:      # d grows with x, so the first step is the worst
        raise DomainError(f"step {h:g} too coarse for mean {a:g}: the implicit "
                            f"denominator {d[0]:.3g} is not positive (need a*h < 2(1 + h))")
    f = np.zeros(m1 + 1)
    f[1:] = x[1 : m1 + 1] ** (a - 1.0)
    # endpoint value chosen so the first trapezoid panel matches the
    # exact integral h^a/a of the seed
    f[0] = max(2.0 * h ** (a - 1.0) / a - f[1], 0.0)
    if not math.isfinite(f[0]):
        raise DomainError(f"mean {a:g} is below {2.0 * h ** (a - 1.0) / np.finfo(float).max:.4g}, "
                          f"the smallest at grid step {h:g}: the seed 2 h^(a-1)/a overflows")
    F = np.zeros(m1 + 1)
    np.cumsum(0.5 * h * (f[1:] + f[:m1]), out=F[1:])
    # march on Python floats: each + - * / rounds as the numpy scalar did,
    # in the same order, at a fraction of the cost per step
    f, F = f.tolist(), F.tolist()
    hh = 0.5 * h
    fp, Fp = f[-1], F[-1]
    for back, cj, dj in zip(range(1, J - m1 + 1), c.tolist(), d.tolist()):
        fj = cj * ((Fp + hh * fp) - F[back]) / dj
        Fp = Fp + hh * (fp + fj)
        fp = fj
        f.append(fj)
        F.append(Fp)
    if not math.isfinite(Fp):
        raise SupportOverflow(f"the density's integral at mean {a:g} leaves the double range "
                              f"before xmax = {xmax:g}")
    return GridDensity(h, np.array(f) / Fp)


def buchstab_solve(a: float, b: float, h: float = 1e-3, xmax: float = 8.0) -> GridDensity:
    """Fixed point with increment Uniform(b,1): atom at 0 plus gaps.

    The atom is b^(a/(1-b)) exactly; the density solves
    f(x) = (a/x) * [atom * 1(b<x<1) + integral of f over (x-1, x-b)] / (1-b)
    and vanishes off the union of [kb, k].  Stored with explicit zeros in
    the gaps; values at the two jump points b and 1 hold the average of
    the one-sided limits so plain trapezoid sums stay second order.
    The result is left unnormalized: atom + integral = 1 is the
    accuracy certificate, not an enforced identity.
    """
    _check_mean(a)
    if not 0.0 < b < 1.0:
        raise DomainError(f"b must be in (0, 1), got {b}")
    m1 = _check_grid(h, xmax)
    mb = round(b / h)
    if abs(b / h - mb) > 1e-9 or mb == 0:
        raise DomainError(f"b = {b} must sit on the grid of step {h}, past its first point")
    _check_rate(a, h)
    atom0 = b ** (a / (1.0 - b))
    J = round(xmax / h)
    x = h * np.arange(J + 1)
    w = 1.0 / (1.0 - b)
    c = a / x[1:]
    atom = np.zeros(J + 1)
    atom[mb + 1 : m1] = atom0 * w
    atom[[mb, m1]] = 0.5 * atom0 * w     # average across the jump
    # P[i] = F[i - m1], zero before the grid starts, so F[j - m1] = P[j]
    # and F[j - mb] = P[j + m1 - mb] need no branch
    P = [0.0] * (m1 + 1)
    f = [0.0]
    hh = 0.5 * h
    fp = Fp = 0.0
    off = m1 - mb
    for j, cj, tj in zip(range(1, J + 1), c.tolist(), atom[1:].tolist()):
        fj = cj * (tj + w * (P[j + off] - P[j]))
        Fp = Fp + hh * (fp + fj)
        fp = fj
        f.append(fj)
        P.append(Fp)
    if abs(atom0 + Fp - 1.0) > 1e-3:
        raise TruncationTooSevere(
            f"domain [0, {xmax}] cuts off {abs(atom0 + Fp - 1.0):.2e} of the mass; raise xmax")
    return GridDensity(h, np.array(f), atom0=atom0, mass_tol=1e-3)


# ===================================================================
# serialization
# ===================================================================

def levy_to_json(levy: LevyRepr) -> dict:
    return {"a": levy.a, "alpha0": levy.alpha0,
            "jumps": [[y, r] for y, r in levy.jumps]}


def levy_from_json(obj: dict) -> LevyRepr:
    """{"a": mean, "alpha0": drift mass, "jumps": [[y, rate], ...]}, as levy_to_json writes it."""
    if not isinstance(obj, dict):
        raise SizeBiasError("expected an object with 'a' and 'jumps'")
    return LevyRepr(json_number(obj, "a"), json_number(obj, "alpha0", 0.0),
                    tuple(json_list(obj, "jumps", pairs=True)))
