"""Unequal-probability sampling that makes the ratio estimator unbiased.

Draw the first unit with probability proportional to its x value, then
fill the sample by simple random sampling from the rest.  Under that
design the subset ratio sum(y)/sum(x) has expectation exactly the
population ratio, with a closed-form law over subsets that a full
enumeration can verify.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .dist_core import check_work
from .errors import (
    BadSampleSize,
    BadSubsetSize,
    DomainError,
    ZeroDenominator,
)

ENUM_CAP = 1_847_560   # enumerations past this many index cells are refused (n = 20, m = 10)


@dataclass(frozen=True)
class Population:
    """Paired unit values: xs nonnegative with positive total, ys free."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError("xs and ys must be equal-length vectors")
        if xs.size < 2:
            raise ValueError("population needs at least 2 units")
        if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
            raise DomainError("x and y values must be finite")
        if np.any(xs < 0):
            raise ValueError(f"negative x value {xs.min()}")
        if xs.sum() <= 0:
            raise ValueError("x values must not all be zero")

    @property
    def n(self) -> int:
        return self.xs.size


def load_population_csv(path) -> Population:
    """Read a population from CSV with header ``x,y``, one unit per row.

    Malformed rows raise; a silently skipped unit would corrupt every
    probability downstream.
    """
    xs, ys = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "y"]:
            raise ValueError(f"expected header 'x,y', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"line {lineno}: expected 2 fields, got {len(row)}")
            try:
                xs.append(float(row[0]))
                ys.append(float(row[1]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return Population(np.array(xs), np.array(ys))


def midzuno_sample(p: Population, m: int, rng) -> tuple:
    """Sorted index tuple: one size-biased draw, then an SRS of m-1."""
    if not 1 <= m <= p.n:
        raise BadSampleSize(f"sample size {m} outside 1..{p.n}")
    first = int(rng.choice(p.n, p=p.xs / p.xs.sum()))
    rest = np.delete(np.arange(p.n), first)
    tail = rng.choice(rest, size=m - 1, replace=False) if m > 1 else np.array([], dtype=int)
    return tuple(sorted([first, *tail.tolist()]))


def ratio_estimate(p: Population, r) -> float:
    """Subset ratio sum(y)/sum(x) over the sampled indices."""
    idx = list(r)
    sx = float(p.xs[idx].sum())
    if sx <= 0:
        raise ZeroDenominator("sampled x values sum to zero")
    return float(p.ys[idx].sum()) / sx


def subset_probability(p: Population, r, m: int) -> float:
    """P(sample = r): one over C(n,m), tilted by the subset x mean."""
    idx = list(r)
    if len(idx) != m or len(set(idx)) != m:
        raise BadSubsetSize(f"subset {r} is not {m} distinct indices")
    xbar_r = float(p.xs[idx].mean())
    xbar = float(p.xs.mean())
    return xbar_r / xbar / comb(p.n, m)


def exact_expectation(p: Population, m: int) -> float:
    """Mean of the ratio estimator by full enumeration over subsets.

    Equals sum(y)/sum(x) identically; the cancellation is the whole
    point of the design.
    """
    if not 1 <= m <= p.n:
        raise BadSampleSize(f"sample size {m} outside 1..{p.n}")
    # one row of unit indices per subset: at ENUM_CAP the index matrix and one
    # gathered value array peak at about 33 MB
    count = comb(p.n, m)
    check_work(count * m, ENUM_CAP, "index cells", f"enumeration of C({p.n}, {m}) subsets")
    idx = np.fromiter(chain.from_iterable(combinations(range(p.n), m)), np.intp,
                      count=count * m).reshape(count, m)
    sx = p.xs[idx].sum(axis=1)
    sy = p.ys[idx].sum(axis=1)
    # subset_probability and ratio_estimate per row, with their roundings
    prob = sx / m / float(p.xs.mean()) / count
    keep = prob > 0       # all-zero-x subsets are never drawn
    terms = sy[keep] / sx[keep] * prob[keep]
    return float(np.cumsum(terms)[-1])      # left to right, as a running total adds
