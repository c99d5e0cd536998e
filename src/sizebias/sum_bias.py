"""Size-biasing sums, products, and mixtures of independent terms.

The workhorse identity: to size bias a sum of independent nonnegative
terms, pick one term with probability proportional to its mean and
replace it by its own size-biased version.  Exact pmf arithmetic and a
Monte Carlo sampler both live here, along with the binary-digit
constructions for the uniform and middle-thirds singular laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dist_core import DiscreteDist, check_work, merge_atoms, size_bias_discrete
from .errors import DomainError, SupportOverflow, ZeroMean

CONV_ATOM_CAP = 1_000_000
UNIFORM_STAR_DEPTH = 52    # binary digits: the whole double mantissa
CANTOR_STAR_DEPTH = 40     # ternary digits: 3^-40 is below double precision at scale 1


@dataclass(frozen=True)
class IndependentSum:
    """Ordered list of independent nonnegative terms, each with mean > 0."""

    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise DomainError("need at least one term")
        object.__setattr__(self, "terms", tuple(self.terms))
        for i, t in enumerate(self.terms):
            if t.mean() <= 0:
                raise ZeroMean(f"term {i} has mean {t.mean()}")


def index_distribution(s: IndependentSum) -> np.ndarray:
    """Which term gets biased: P(I=i) proportional to the term means."""
    means = np.array([t.mean() for t in s.terms])
    with np.errstate(over="ignore"):
        total = means.sum()
    if not np.isfinite(total):
        raise SupportOverflow("the term means sum past the double range")
    return means / total


def _combine(d1: DiscreteDist, d2: DiscreteDist, ufunc) -> DiscreteDist:
    """Exact law of ufunc(X1, X2) for independent atom lists: an outer product, merged.

    Truncated inputs lose at most the sum of their tail bounds.
    """
    check_work(d1.xs.size * d2.xs.size, CONV_ATOM_CAP, "atoms", f"outer {ufunc.__name__}")
    with np.errstate(over="ignore"):
        xs = ufunc.outer(d1.xs, d2.xs).ravel()
    if not np.isfinite(xs).all():
        raise SupportOverflow(f"outer {ufunc.__name__} of the supports leaves the double range")
    xs, ps = merge_atoms(xs, np.multiply.outer(d1.ps, d2.ps).ravel())
    return DiscreteDist(xs, ps / ps.sum(), signed=d1.signed or d2.signed,
                        tail_bound=d1.tail_bound + d2.tail_bound)


def convolve(d1: DiscreteDist, d2: DiscreteDist) -> DiscreteDist:
    """Exact pmf of the independent sum of two atom lists."""
    return _combine(d1, d2, np.add)


def convolve_all(terms) -> DiscreteDist:
    out = terms[0]
    for t in terms[1:]:
        out = convolve(out, t)
    return out


def size_biased_sum_pmf(s: IndependentSum) -> DiscreteDist:
    """Exact transform of the sum via single-term biasing.

    Mixes, over i with weight mean_i / sum of means, the convolution in
    which term i alone is replaced by its size-biased law.  Tests hold it
    to the direct transform of the full convolution, atom by atom.

    Forward mode, three convolutions a term t: the running mixture A becomes
    A * t and P * t* mixed W : mean(t), P the sum of the earlier terms, W its mean.
    """
    first, *rest = s.terms
    mixed, prefix, w_sum = size_bias_discrete(first), first, first.mean()
    for i, t in enumerate(rest, 2):
        w = np.array([w_sum, t.mean()])
        mixed = mix([convolve(mixed, t), convolve(prefix, size_bias_discrete(t))], w / w.sum())
        w_sum = w.sum()
        if i < len(s.terms):      # no prefix past the last term
            prefix = convolve(prefix, t)
    return mixed if rest else mix([mixed], [1.0])    # one term: renormalized as the mixture


def sample_size_biased_sum(s: IndependentSum, rng, n: int) -> np.ndarray:
    """Draw n values of the size-biased sum as S - X_I + X_I*.

    The replacement pair (X_I, X_I*) is drawn with independent
    components; any joint law works and independence is the simplest.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 draws, got {n}")
    total = np.zeros(n)
    draws = [t.sample(rng, n) for t in s.terms]
    for d in draws:
        total += d
    which = rng.choice(len(s.terms), size=n, p=index_distribution(s))
    stars = [size_bias_discrete(t).sample(rng, n) for t in s.terms]
    for i in range(len(s.terms)):
        sel = which == i
        total[sel] += stars[i][sel] - draws[i][sel]
    return total


def size_biased_product_pmf(terms) -> DiscreteDist:
    """Transform of a product of independent positive factors.

    Unlike sums, every factor gets biased.  Supports must be strictly
    positive; the law of the product is enumerated exactly.
    """
    star = []
    for i, t in enumerate(terms):
        if t.xs[0] <= 0:
            raise DomainError(f"factor {i} has support point {t.xs[0]}")
        if t.mean() <= 0:
            raise ZeroMean(f"factor {i} has mean {t.mean()}")
        star.append(size_bias_discrete(t))
    return product_pmf(star)


def product_pmf(terms) -> DiscreteDist:
    """Plain law of the product, the oracle side of the product rule."""
    out = terms[0]
    for t in terms[1:]:
        out = _combine(out, t, np.multiply)
    return out


def size_bias_mixture(components, weights):
    """Transform a mixture: reweight components by their means, bias each.

    Returns (mixed transform, new_weights) with new_weights[b]
    proportional to weights[b] * mean(component b).
    """
    weights = np.asarray(weights, dtype=float)
    if abs(weights.sum() - 1.0) > 1e-12:
        raise DomainError("mixture weights must sum to 1")
    means = np.array([c.mean() for c in components])
    if np.any(means <= 0):
        raise ZeroMean(f"component mean {means.min()} is not positive")
    new_w = weights * means
    new_w = new_w / new_w.sum()
    return mix([size_bias_discrete(c) for c in components], new_w), new_w


def mix(components, weights) -> DiscreteDist:
    """Mixture pmf: the weighted atom lists merged, then renormalized.

    The tail bound is the weighted sum of the components' bounds.
    """
    weights = np.asarray(weights, dtype=float)
    pieces_x = np.concatenate([c.xs for c in components])
    pieces_p = np.concatenate([w * c.ps for w, c in zip(weights, components)])
    xs, ps = merge_atoms(pieces_x, pieces_p)
    tail = float(weights @ [c.tail_bound for c in components])
    return DiscreteDist(xs, ps / ps.sum(), tail_bound=tail)


# ===================================================================
# digit constructions
# ===================================================================

def sample_uniform_star(rng, n: int) -> np.ndarray:
    """Draw from the transform of Uniform(0,1) by digit surgery.

    Write U in binary and force bit J to 1, where P(J=i) = 2^{-i}.  The
    result has density 2x; no accept-reject involved.
    """
    u = rng.random(n)
    j = rng.geometric(0.5, size=n)
    np.clip(j, 1, UNIFORM_STAR_DEPTH, out=j)
    w = 2.0 ** (-j.astype(float))
    bit = np.floor(u / w) % 2
    return u + (1.0 - bit) * w


def sample_cantor_star(rng, n: int):
    """Paired draws (S, S*) for the middle-thirds singular law.

    S = sum of 2*B_i/3^i with fair bits B_i.  Biasing picks index I with
    P(I=i) = 2/3^i and forces digit I on: S* = S + 2(1-B_I)/3^I, both
    cut at CANTOR_STAR_DEPTH digits.
    """
    bits = rng.integers(0, 2, size=(n, CANTOR_STAR_DEPTH))
    pows = 3.0 ** -np.arange(1, CANTOR_STAR_DEPTH + 1)
    s = 2.0 * bits @ pows
    i = rng.geometric(2.0 / 3.0, size=n)
    np.clip(i, 1, CANTOR_STAR_DEPTH, out=i)
    b_i = bits[np.arange(n), i - 1]
    s_star = s + 2.0 * (1.0 - b_i) * pows[i - 1]
    return s, s_star
