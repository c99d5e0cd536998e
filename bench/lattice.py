"""The ``lattice`` workload: integer-lattice laws, each kernel at two sizes.

This is the code a dense lattice core would replace: outer-product
convolution, the Python-loop ``merge_atoms``, the O(k^2) sum rule and
the O(N^2) compound-Poisson recursion and its inverse.  Sizes are fixed
and the seed draws the values, so every seed costs the same work.
"""

from __future__ import annotations

import math

import numpy as np

import sizebias.bounds as B
import sizebias.dist_core as D
import sizebias.inf_div as I
import sizebias.sum_bias as S

from oracles import (RATE_TOL, RULE_TOL, Task, aligned_diff, atom_gap, binom_pmf,
                     binomial_poisson_tv, dense_sum, lattice_conv_counts, lazy, normalized,
                     poisson_pmf, require, size_bias_atoms)

SUM_K = (6, 12)
CONV_K = (8, 24)
RECURSION_N = (500, 4000)
ROUND_TRIPS_PER_N = 2
MEAN_RANGE = (2.0, 10.0)        # a >= ~20 is a known defect, probed separately
MERGE_N = (50_000, 200_000)
MERGE_SUPPORT = 2_000
TV_LAMBDA = (50, 400)
STEIN_N = (100, 700)
NONDIV_N = (5, 12, 25, 40)


def binomial_terms(rng, k: int):
    """k binomials with n spread evenly over 30..50 (seeded order), p in [0.2, 0.5]."""
    ns = np.round(np.linspace(30, 50, k)).astype(int)
    rng.shuffle(ns)
    terms = []
    for n in ns:
        ps = normalized(binom_pmf(int(n), float(rng.uniform(0.2, 0.5))))
        terms.append(D.DiscreteDist(np.arange(n + 1, dtype=float), ps))
    return terms


def increment_law(rng):
    return D.DiscreteDist(np.arange(1.0, 5.0), rng.dirichlet(np.ones(4)))


def _check_sum(terms):
    want = lazy(lambda: size_bias_atoms(*dense_sum(t.ps for t in terms)))

    def check(out):
        require(atom_gap(out.xs, out.ps, *want()) <= RULE_TOL,
                "sum rule differs from convolve-then-bias")
    return check


def _check_convolve(terms):
    want = lazy(lambda: dense_sum(t.ps for t in terms))

    def check(out):
        require(atom_gap(out.xs, out.ps, *want()) <= RULE_TOL,
                "convolve_all differs from dense np.convolve")
    return check


def _check_round_trip(levy):
    want = {int(y): r for y, r in levy.jumps}

    def check(res):
        require(res.is_id, f"compound Poisson law with a={levy.a:.3f} reported not divisible")
        got = dict(res.jump_rates())
        gap = max(abs(got.get(y, 0.0) - r) for y, r in want.items())
        require(gap <= RATE_TOL, f"recovered jump rates off by {gap:.2e}")
    return check


def _check_not_divisible(res):
    require(not res.is_id and res.witness_value < -I.NEG_MASS_TOL,
            "binomial law reported infinitely divisible")


def _check_merge(points, masses):
    want = lazy(lambda: np.bincount(points, weights=masses))

    def check(out):
        w = want()
        xs = np.flatnonzero(w)
        require(np.array_equal(out.xs, xs), "merged support differs from the distinct points")
        require(np.max(np.abs(out.ps - w[xs])) <= 1e-12, "merged masses differ")
    return check


def _check_tv(p, q):
    want = lazy(lambda: 0.5 * float(np.abs(aligned_diff(p.xs, p.ps, q.xs, q.ps)).sum()))

    def check(out):
        require(abs(out - want()) <= 1e-12, f"tv_distance {out} != {want()}")
    return check


def _check_stein(n, p):
    want = lazy(lambda: binomial_poisson_tv(n, p))
    bound = (1.0 - math.exp(-n * p)) * p

    def check(out):
        (b, e), exact = out, want()
        require(abs(b - bound) <= 1e-12 * bound, "Stein bound differs from (1 - e^-np) p")
        require(abs(e - exact) <= 1e-12, f"exact TV {e} != {exact}")
        require(e <= b * (1 + 1e-12) + 1e-15, "exact TV above the Stein bound")
    return check


def build(seed: int):
    """(tasks, computed counts) for one seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    tasks = []
    chains = []

    for k in SUM_K:
        terms = binomial_terms(rng, k)
        s = S.IndependentSum(tuple(terms))
        tasks.append(Task(f"sum_bias.size_biased_sum_pmf.k{k}",
                          lambda _, s=s: S.size_biased_sum_pmf(s), _check_sum(terms)))
        sizes = [t.xs.size for t in terms]
        for i in range(k):
            chains.append(sizes[:i] + [sizes[i] - 1] + sizes[i + 1:])

    for k in CONV_K:
        terms = binomial_terms(rng, k)
        tasks.append(Task(f"sum_bias.convolve_all.k{k}",
                          lambda _, terms=terms: S.convolve_all(terms), _check_convolve(terms)))
        chains.append([t.xs.size for t in terms])

    for n in RECURSION_N:
        for j in range(ROUND_TRIPS_PER_N):
            levy = I.compound_poisson_from_increment(increment_law(rng),
                                                     float(rng.uniform(*MEAN_RANGE)))
            tasks.append(Task(f"inf_div.pmf_recursion.N{n}",
                              lambda _, levy=levy, n=n: I.pmf_recursion(levy, n),
                              lambda out, n=n: require(out.xs.size == n + 1, "pmf length")))
            # the inverse reads the recursion output produced just before it
            tasks.append(Task(f"inf_div.extract_increment.N{n}",
                              lambda outs: I.extract_increment(outs[-1]),
                              _check_round_trip(levy)))

    for n in NONDIV_N:
        pmf = D.DiscreteDist.from_pmf(normalized(binom_pmf(n, float(rng.uniform(0.2, 0.8)))))
        tasks.append(Task("inf_div.extract_increment.nondivisible",
                          lambda _, pmf=pmf: I.extract_increment(pmf), _check_not_divisible))

    merge_in = merge_out = 0
    for n in MERGE_N:
        points = rng.integers(0, MERGE_SUPPORT, n)
        masses = normalized(rng.random(n))
        pairs = list(zip(points.astype(float).tolist(), masses.tolist()))
        tasks.append(Task(f"dist_core.merge_atoms.n{n // 1000}k",
                          lambda _, pairs=pairs: D.DiscreteDist.from_pairs(pairs),
                          _check_merge(points, masses)))
        merge_in += n
        merge_out += np.unique(points).size

    for lam in TV_LAMBDA:
        lam_j = lam * (1.0 + 0.01 * rng.uniform(-1, 1))
        hi = int(lam_j + 12 * math.sqrt(lam_j) + 20)
        p = D.DiscreteDist(np.arange(hi + 1.0), normalized(poisson_pmf(lam_j, hi)))
        q = D.DiscreteDist(*size_bias_atoms(p.xs, p.ps))
        tasks.append(Task(f"bounds.tv_distance.lam{lam}",
                          lambda _, p=p, q=q: B.tv_distance(p, q), _check_tv(p, q)))

    for n in STEIN_N:
        p = float(rng.uniform(0.1, 0.5))
        tasks.append(Task(f"bounds.binomial_poisson_check.n{n}",
                          lambda _, n=n, p=p: B.binomial_poisson_check(n, p), _check_stein(n, p)))

    pairs, outs = lattice_conv_counts(chains)
    counts = {"sum_bias.pair_products": pairs, "sum_bias.useful_ratio": outs / pairs,
              "dist_core.merge_atoms.atoms_in": merge_in,
              "dist_core.merge_atoms.atoms_out": merge_out}
    return tasks, counts

