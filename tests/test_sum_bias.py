import math
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sizebias as sb
from sizebias.errors import DomainError, SupportOverflow, ZeroMean

RNG = np.random.Generator(np.random.Philox(5150))


def small_dist(rng, allow_zero=True):
    k = int(rng.integers(2, 5))
    lo = 0.0 if allow_zero else 0.1
    xs = np.sort(rng.uniform(lo, 6.0, size=k))
    while np.any(np.diff(xs) < 1e-4):
        xs = np.sort(rng.uniform(lo, 6.0, size=k))
    return sb.DiscreteDist(xs, rng.dirichlet(np.ones(k)))


# -------------------------------------------------------------------
# convolution plumbing

def test_convolve_binomials():
    b1 = sb.tabulate_named(sb.NamedDist("binomial", (3.0, 0.4)))
    b2 = sb.tabulate_named(sb.NamedDist("binomial", (5.0, 0.4)))
    from scipy.stats import binom
    got = sb.convolve(b1, b2)
    assert np.allclose(got.ps, binom.pmf(np.arange(9), 8, 0.4), atol=1e-12)


def test_convolve_cap(monkeypatch):
    monkeypatch.setattr(sb.sum_bias, "CONV_ATOM_CAP", 100)
    d = sb.DiscreteDist(np.linspace(0.0, 1.0, 40) ** 2, np.full(40, 1 / 40))
    with pytest.raises(SupportOverflow):
        sb.convolve(d, d)


def test_index_distribution_weights_by_mean():
    d1 = sb.DiscreteDist.from_pairs([(1.0, 1.0)])
    d2 = sb.DiscreteDist.from_pairs([(3.0, 1.0)])
    s = sb.IndependentSum((d1, d2))
    assert np.allclose(sb.index_distribution(s), [0.25, 0.75])


def test_sum_rejects_zero_mean_term():
    with pytest.raises(ZeroMean, match=r"term 0 has mean 0"):
        sb.IndependentSum((sb.DiscreteDist.from_pairs([(0.0, 1.0)]),
                           sb.DiscreteDist.from_pairs([(1.0, 1.0)])))


# -------------------------------------------------------------------
# sum rule against the direct oracle

def test_sum_rule_fixed():
    d1 = sb.DiscreteDist.from_pairs([(0.0, 0.3), (1.0, 0.5), (2.5, 0.2)])
    d2 = sb.DiscreteDist.from_pairs([(1.0, 0.6), (3.0, 0.4)])
    lhs = sb.size_biased_sum_pmf(sb.IndependentSum((d1, d2)))
    rhs = sb.size_bias_discrete(sb.convolve(d1, d2))
    assert sb.max_atom_gap(lhs, rhs) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4))
def test_sum_rule_random(seed, nterms):
    rng = np.random.Generator(np.random.Philox(seed))
    terms = [small_dist(rng) for _ in range(nterms)]
    try:
        s = sb.IndependentSum(tuple(terms))
    except ZeroMean:
        return
    lhs = sb.size_biased_sum_pmf(s)
    rhs = sb.size_bias_discrete(sb.convolve_all(terms))
    assert sb.max_atom_gap(lhs, rhs) <= 1e-10


def test_sum_rule_iid():
    # iid terms: biasing any single summand gives the same law
    d = sb.DiscreteDist.from_pairs([(1.0, 0.4), (2.0, 0.6)])
    s = sb.IndependentSum((d, d, d))
    lhs = sb.size_biased_sum_pmf(s)
    one = sb.convolve(sb.convolve(d, d), sb.size_bias_discrete(d))
    assert sb.max_atom_gap(lhs, one) <= 1e-12


def _prefix_sum_rule(s):
    """The O(k^2) form: piece i convolves the shared prefix with t_i*, then t_{i+1}, ..."""
    pieces, prefix = [], None
    for i, t in enumerate(s.terms):
        star = sb.size_bias_discrete(t)
        head = star if prefix is None else sb.convolve(prefix, star)
        pieces.append(sb.convolve_all((head,) + s.terms[i + 1:]))
        if i + 1 < len(s.terms):
            prefix = t if prefix is None else sb.convolve(prefix, t)
    return sb.mix(pieces, sb.index_distribution(s))


def _exact_size_biased_sum(terms, scale):
    """x p_S(x) / E[S] of the exact convolution, in Fractions, one atom per round(scale x).

    Carries each key's exact mass and first moment through the terms.
    """
    mass, moment = {0: Fraction(1)}, {0: Fraction(0)}
    for t in terms:
        new_mass, new_moment = defaultdict(Fraction), defaultdict(Fraction)
        for x, p in zip(t.xs.tolist(), t.ps.tolist()):
            fx, fp = Fraction(x), Fraction(p)
            for c, m in mass.items():
                new_mass[c + round(scale * x)] += m * fp
                new_moment[c + round(scale * x)] += (moment[c] + m * fx) * fp
        mass, moment = new_mass, new_moment
    total = sum(moment.values())
    return {c: m / total for c, m in sorted(moment.items()) if m}


def test_sum_rule_within_4k_eps_of_the_exact_oracle_in_both_forms(monkeypatch):
    # the forward form re-associates the prefix form's sums; each stays within
    # 4k eps relative of the exact transform on every atom
    rng = np.random.Generator(np.random.Philox(31))
    cases = []
    for k in range(1, 7):
        for lattice in (True, False):
            sizes = rng.integers(2, 9, k)
            cases.append((lattice, tuple(
                sb.DiscreteDist(np.arange(m, dtype=float) if lattice else
                                np.sort(rng.choice(np.arange(1, 60) / 7, m, replace=False)),
                                rng.dirichlet(np.ones(m))) for m in sizes)))
        cases.append((True, tuple(sb.tabulate_named(sb.NamedDist("binomial", (8.0, p)))
                                  for p in rng.uniform(0.1, 0.9, k))))
    for lattice, terms in cases:
        scale = 1 if lattice else 7
        want = _exact_size_biased_sum(terms, scale)
        bound = 4 * len(terms) * Fraction(2.0 ** -52)
        s = sb.IndependentSum(terms)
        for got in (sb.size_biased_sum_pmf(s), _prefix_sum_rule(s)):
            keys = [round(scale * x) for x in got.xs.tolist()]
            assert keys == list(want)
            assert np.all(np.abs(got.xs - np.array(keys) / scale) <= 1e-12)
            for p, c in zip(got.ps.tolist(), keys):
                assert abs(Fraction(p) - want[c]) <= bound * want[c], (len(terms), c)
    calls = []
    convolve = sb.sum_bias.convolve
    monkeypatch.setattr(sb.sum_bias, "convolve", lambda a, b: calls.append(1) or convolve(a, b))
    twelve = [sb.tabulate_named(sb.NamedDist("binomial", (8.0, p))) for p in rng.uniform(0.1, 0.9, 12)]
    sb.size_biased_sum_pmf(sb.IndependentSum(tuple(twelve)))
    assert len(calls) <= 3 * 12


def _sample_size_biased_sum(s, rng, n):
    """n draws of the size-biased sum as S - X_I + X_I*, with X_I* drawn independently."""
    draws = [t.sample(rng, n) for t in s.terms]
    total = np.zeros(n)
    for d in draws:
        total += d
    which = rng.choice(len(s.terms), size=n, p=sb.index_distribution(s))
    stars = [sb.size_bias_discrete(t).sample(rng, n) for t in s.terms]
    for i in range(len(s.terms)):
        sel = which == i
        total[sel] += stars[i][sel] - draws[i][sel]
    return total


def test_sum_sampler_mean():
    rng = np.random.Generator(np.random.Philox(99))
    d1 = sb.DiscreteDist.from_pairs([(0.0, 0.3), (1.0, 0.5), (2.5, 0.2)])
    d2 = sb.DiscreteDist.from_pairs([(1.0, 0.6), (3.0, 0.4)])
    s = sb.IndependentSum((d1, d2))
    pmf = sb.size_biased_sum_pmf(s)
    draws = _sample_size_biased_sum(s, rng, 200_000)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - pmf.mean()) < 5 * se


# -------------------------------------------------------------------
# product rule

def test_product_rule_fixed():
    d1 = sb.DiscreteDist.from_pairs([(1.0, 0.5), (2.0, 0.5)])
    d2 = sb.DiscreteDist.from_pairs([(1.0, 0.6), (3.0, 0.4)])
    lhs = sb.size_biased_product_pmf((d1, d2))
    rhs = sb.size_bias_discrete(sb.product_pmf((d1, d2)))
    assert sb.max_atom_gap(lhs, rhs) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3))
def test_product_rule_random(seed, nterms):
    rng = np.random.Generator(np.random.Philox(seed))
    terms = [small_dist(rng, allow_zero=False) for _ in range(nterms)]
    lhs = sb.size_biased_product_pmf(terms)
    rhs = sb.size_bias_discrete(sb.product_pmf(terms))
    assert sb.max_atom_gap(lhs, rhs) <= 1e-10


def test_product_cap_checked_before_allocating():
    import tracemalloc
    d1 = sb.DiscreteDist(np.arange(1.0, 1002.0), np.full(1001, 1 / 1001))
    d2 = sb.DiscreteDist(np.arange(1.0, 1001.0), np.full(1000, 1 / 1000))
    tracemalloc.start()
    try:
        with pytest.raises(SupportOverflow):
            sb.product_pmf((d1, d2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the 1.001e6-atom outer product alone would take 8 MB
    assert peak < 1_000_000


def test_product_rejects_zero_atom():
    d = sb.DiscreteDist.from_pairs([(0.0, 0.5), (1.0, 0.5)])
    with pytest.raises(DomainError, match=r"factor 0 has support point 0"):
        sb.size_biased_product_pmf((d, d))


def test_product_moments_multiply():
    d1 = sb.DiscreteDist.from_pairs([(1.0, 0.5), (2.0, 0.5)])
    d2 = sb.DiscreteDist.from_pairs([(0.5, 0.2), (4.0, 0.8)])
    prod = sb.product_pmf((d1, d2))
    assert np.isclose(prod.mean(), d1.mean() * d2.mean(), rtol=1e-12)
    assert np.isclose(sb.moment(prod, 2), sb.moment(d1, 2) * sb.moment(d2, 2), rtol=1e-12)


# -------------------------------------------------------------------
# mixtures

def test_mixture_rule_fixed():
    d1 = sb.DiscreteDist.from_pairs([(1.0, 1.0)])
    d2 = sb.DiscreteDist.from_pairs([(2.0, 0.5), (4.0, 0.5)])
    mixed, w = sb.size_bias_mixture((d1, d2), (0.5, 0.5))
    # new weights tilt toward the heavier component: w_b m_b / sum
    assert np.allclose(w, [1.0 / 4.0, 3.0 / 4.0])
    ref = sb.size_bias_discrete(sb.mix((d1, d2), (0.5, 0.5)))
    assert sb.max_atom_gap(mixed, ref) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4))
def test_mixture_rule_random(seed, ncomp):
    rng = np.random.Generator(np.random.Philox(seed))
    comps = [small_dist(rng, allow_zero=False) for _ in range(ncomp)]
    weights = rng.dirichlet(np.ones(ncomp))
    mixed, _ = sb.size_bias_mixture(comps, weights)
    ref = sb.size_bias_discrete(sb.mix(comps, weights))
    assert sb.max_atom_gap(mixed, ref) <= 1e-10


def test_truncation_bound_carried_through_sums_products_and_mixtures():
    # tabulating a geometric drops ~2.3e-14 of tail mass; binomials drop none
    g = sb.tabulate_named(sb.NamedDist("geometric", (0.3,)))
    b = sb.tabulate_named(sb.NamedDist("binomial", (6.0, 0.4)))
    t = g.tail_bound
    assert t > 0 and b.tail_bound == 0
    assert sb.convolve(g, g).tail_bound == 2 * t
    assert sb.convolve(g, b).tail_bound == t
    assert sb.product_pmf([b, g]).tail_bound == t
    assert sb.mix([g, b], [0.25, 0.75]).tail_bound == 0.25 * t
    assert sb.size_biased_sum_pmf(sb.IndependentSum((g, b, g))).tail_bound == 2 * t
    # the transform reweights by the means, 7/3 and 2.4
    assert sb.size_bias_mixture([g, b], [0.5, 0.5])[0].tail_bound == pytest.approx(
        t * 35 / 71, rel=1e-12, abs=0)


def test_mixture_rejects_zero_mean_component():
    z = sb.DiscreteDist.from_pairs([(0.0, 1.0)])
    d = sb.DiscreteDist.from_pairs([(1.0, 1.0)])
    with pytest.raises(ZeroMean, match=r"component mean 0\.0 is not positive"):
        sb.size_bias_mixture((z, d), (0.5, 0.5))


# -------------------------------------------------------------------
# singular samplers

def test_uniform_star_sampler():
    rng = np.random.Generator(np.random.Philox(4242))
    u = sb.sample_uniform_star(rng, 400_000)
    assert np.all((u >= 0) & (u <= 1))
    # law is Beta(2,1): mean 2/3, second moment 1/2, cdf x^2
    assert abs(u.mean() - 2.0 / 3.0) < 5 * u.std(ddof=1) / math.sqrt(u.size)
    assert abs(np.mean(u ** 2) - 0.5) < 0.002
    grid = np.linspace(0.05, 0.95, 19)
    ecdf = np.searchsorted(np.sort(u), grid) / u.size
    assert np.max(np.abs(ecdf - grid ** 2)) < 0.005


def test_cantor_star_sampler():
    rng = np.random.Generator(np.random.Philox(77))
    s, s_star = sb.sample_cantor_star(rng, 400_000)
    assert np.all((s >= 0) & (s <= 1))
    assert np.all(s_star >= s - 1e-15)
    assert np.all(s_star <= 1 + 1e-15)
    n = s.size
    assert abs(s.mean() - 0.5) < 5 * s.std(ddof=1) / math.sqrt(n)
    assert abs(s_star.mean() - 0.75) < 5 * s_star.std(ddof=1) / math.sqrt(n)
    # var of the base law is 1/8
    assert abs(s.var(ddof=1) - 0.125) < 0.002
