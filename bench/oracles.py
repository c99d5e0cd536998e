"""Independent references the benchmark checks every output against.

The comparisons are vectorised.  ``sizebias.max_atom_gap`` loops over
``prob_at`` in Python and would take longer than the work it checks
(0.78 s on 15.6k atoms), so ``atom_gap`` aligns the two supports with
one sort instead.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import gammaln

MERGE_TOL = 1e-12      # support points closer than this are one atom
RULE_TOL = 1e-10       # sum, product and mixture rules (acceptance criteria 2, 3)
RATE_TOL = 1e-8        # recovered jump rates (criterion 4)
EXACT_TOL = 1e-12      # Skorohod exit law, Midzuno unbiasedness (criteria 9, 10)


class CheckFailed(Exception):
    """An output missed its oracle."""


def lazy(fn):
    """Compute a reference on first use, after the timed region, then reuse it."""
    return functools.lru_cache(maxsize=None)(fn)


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Task:
    """One call in a batch: ``fn(outs)`` runs it, ``check(out)`` verifies it.

    ``outs`` holds the outputs of the earlier tasks of the same batch, so
    a task can consume what another produced (the round trip).

    ``key`` names the kernel and its size, e.g.
    ``sum_bias.size_biased_sum_pmf.k12``.  ``span`` is set for calls the
    tracer cannot wrap inside the package, so the benchmark records the
    span around its own call instead.
    """

    key: str
    fn: Callable
    check: Callable
    span: str | None = None


def aligned_diff(xs1, ps1, xs2, ps2, tol: float = MERGE_TOL) -> np.ndarray:
    """Mass of the first list minus the second, atom by atom on the union.

    Points within ``tol`` of their sorted neighbour are one atom.
    """
    xs = np.concatenate([np.asarray(xs1, float), np.asarray(xs2, float)])
    ds = np.concatenate([np.asarray(ps1, float), -np.asarray(ps2, float)])
    order = np.argsort(xs, kind="stable")
    xs, ds = xs[order], ds[order]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(xs) > tol]))
    return np.add.reduceat(ds, starts)


def atom_gap(xs1, ps1, xs2, ps2, tol: float = MERGE_TOL) -> float:
    """Largest mass difference over the union of two atom lists."""
    return float(np.abs(aligned_diff(xs1, ps1, xs2, ps2, tol)).max())


def size_bias_atoms(xs, ps):
    """x p(x) / mean over x > 0, as plain arrays."""
    xs, ps = np.asarray(xs, float), np.asarray(ps, float)
    keep = xs > 0
    w = xs[keep] * ps[keep]
    return xs[keep], w / w.sum()


def binom_pmf(n: int, p: float) -> np.ndarray:
    k = np.arange(n + 1)
    logp = (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
            + k * np.log(p) + (n - k) * np.log1p(-p))
    return np.exp(logp)


def poisson_pmf(lam: float, hi: int) -> np.ndarray:
    k = np.arange(hi + 1)
    return np.exp(k * np.log(lam) - lam - gammaln(k + 1))


def dense_sum(pmfs):
    """Support 0..N and pmf of a sum of independent laws on 0..n_i, by np.convolve."""
    dense = np.array([1.0])
    for pmf in pmfs:
        dense = np.convolve(dense, pmf)
    return np.arange(dense.size, dtype=float), dense / dense.sum()


def binomial_poisson_tv(n: int, p: float) -> float:
    """Exact total variation between Binomial(n, p) and Poisson(np)."""
    lam = n * p
    hi = int(n + 20 * np.sqrt(lam) + 50)
    poi = poisson_pmf(lam, hi)
    bi = np.zeros(hi + 1)
    bi[: n + 1] = binom_pmf(n, p)
    return 0.5 * (float(np.abs(bi - poi).sum()) + max(0.0, 1.0 - poi.sum()))


def normalized(ps) -> np.ndarray:
    ps = np.asarray(ps, float)
    return ps / ps.sum()


def random_atoms(rng, n: int, lo: float, hi: float):
    """n distinct sorted points in [lo, hi) and Dirichlet masses."""
    xs = np.sort(rng.uniform(lo, hi, n))
    while np.any(np.diff(xs) < 1e-6):
        xs = np.sort(rng.uniform(lo, hi, n))
    return xs, rng.dirichlet(np.ones(n))


def lattice_conv_counts(size_chains):
    """Outer-product pairs and output atoms of sequential convolutions.

    Each chain lists the support sizes of contiguous integer-lattice
    terms convolved left to right; the sum of two such terms has
    size a + b - 1.  Computed from sizes, not counted in the program.
    """
    pairs = outs = 0
    for sizes in size_chains:
        run = sizes[0]
        for s in sizes[1:]:
            pairs += run * s
            run = run + s - 1
            outs += run
    return pairs, outs
