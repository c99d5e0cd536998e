import time
from itertools import combinations
from math import comb

import numpy as np
import pytest

import sizebias as sb
from sizebias.errors import DomainError, SupportOverflow

RNG = np.random.default_rng(np.random.Philox(20240820))


def test_population_validation():
    with pytest.raises(ValueError):
        sb.Population(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        sb.Population(np.array([3.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        sb.Population(np.array([1.0, -2.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        sb.Population(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
    # NaN or inf anywhere would reach every probability, or an estimate, unnoticed
    for xs, ys in (([1.0, np.nan, 2.0], [0.0, 0.0, 0.0]), ([1.0, np.inf], [0.0, 0.0]),
                   ([1.0, 2.0], [np.inf, 0.0]), ([1.0, 2.0], [0.0, -np.inf]),
                   ([1.0, 2.0], [np.nan, 0.0])):
        with pytest.raises(DomainError):
            sb.Population(np.array(xs), np.array(ys))
    # finite values whose total is not: refused before a draw, without a RuntimeWarning
    with pytest.raises(SupportOverflow, match="x values sum past the double range"):
        sb.Population(np.array([1e308, 1e308]), np.array([1.0, 2.0]))


def test_two_unit_subset_probability():
    # xs (1,3), m=1: the size-biased draw picks unit 1 with prob 3/4
    p = sb.Population(np.array([1.0, 3.0]), np.array([0.0, 0.0]))
    assert sb.subset_probability(p, (1,), 1) == pytest.approx(0.75)
    assert sb.subset_probability(p, (0,), 1) == pytest.approx(0.25)


def test_subset_probabilities_sum_to_one():
    p = sb.Population(RNG.uniform(0.1, 5.0, 5), RNG.normal(size=5))
    for m in range(1, 6):
        total = sum(sb.subset_probability(p, r, m)
                    for r in combinations(range(5), m))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_exact_unbiasedness():
    for _ in range(25):
        n = int(RNG.integers(2, 9))
        p = sb.Population(RNG.uniform(0.05, 4.0, n), RNG.normal(size=n))
        want = p.ys.sum() / p.xs.sum()
        for m in range(1, n + 1):
            assert sb.exact_expectation(p, m) == pytest.approx(want, abs=1e-12)
    # every enumeration of at most 20 units runs
    rng = np.random.default_rng(4)
    for n in range(2, 21):
        p = sb.Population(rng.uniform(0.05, 4.0, n), rng.normal(size=n))
        for m in range(1, n + 1):
            assert sb.exact_expectation(p, m) == pytest.approx(p.ys.sum() / p.xs.sum(), abs=1e-12)
    # 25 units taken 3 at a time are 6,900 index cells, well under the cap
    rng = np.random.default_rng(3)
    p = sb.Population(rng.uniform(0.05, 4.0, 25), rng.normal(size=25))
    assert sb.exact_expectation(p, 3) == pytest.approx(p.ys.sum() / p.xs.sum(), abs=1e-12)


def _expectation_reference(p, m):
    """The enumeration one subset at a time, through the public per-subset functions."""
    total = 0.0
    for r in combinations(range(p.n), m):
        prob = sb.subset_probability(p, r, m)
        if prob > 0:
            total += sb.ratio_estimate(p, r) * prob
    return total


def test_exact_expectation_matches_the_subset_loop_bit_for_bit():
    rng = np.random.default_rng(np.random.Philox(20261018))
    for trial in range(60):
        n = int(rng.integers(2, 13))
        xs = rng.uniform(0.05, 4.0, n) * 10.0 ** rng.integers(-3, 4, n)
        if trial % 3 == 0:
            xs[rng.random(n) < 0.4] = 0.0       # units that are never drawn alone
            xs[0] = max(xs[0], 1.0)
        p = sb.Population(xs, rng.normal(size=n))
        for m in range(1, n + 1):
            got, want = sb.exact_expectation(p, m), _expectation_reference(p, m)
            assert got == want and np.signbit(got) == np.signbit(want), (trial, m)


def test_srs_is_biased_where_this_design_is_not():
    # xs (1,3), ys (2,3): population ratio 5/4.  Plain SRS of one unit
    # averages the per-unit ratios to 3/2; the tilted design corrects it.
    p = sb.Population(np.array([1.0, 3.0]), np.array([2.0, 3.0]))
    srs_mean = 0.5 * (2.0 / 1.0) + 0.5 * (3.0 / 3.0)
    assert srs_mean == pytest.approx(1.5)
    assert sb.exact_expectation(p, 1) == pytest.approx(1.25, abs=1e-12)


def test_sampler_frequencies_match_subset_law():
    p = sb.Population(RNG.uniform(0.2, 3.0, 4), RNG.normal(size=4))
    m, draws = 2, 20_000
    counts = {}
    for _ in range(draws):
        r = sb.midzuno_sample(p, m, RNG)
        counts[r] = counts.get(r, 0) + 1
    for r in combinations(range(4), m):
        want = sb.subset_probability(p, r, m)
        got = counts.get(r, 0) / draws
        se = np.sqrt(want * (1 - want) / draws)
        assert abs(got - want) < 5 * se + 1e-12


def test_sampler_shape():
    p = sb.Population(np.arange(1.0, 7.0), np.zeros(6))
    r = sb.midzuno_sample(p, 3, RNG)
    assert len(r) == 3 and len(set(r)) == 3
    assert r == tuple(sorted(r))
    assert sb.midzuno_sample(p, 1, RNG) in {(i,) for i in range(6)}


def test_csv_loader(tmp_path):
    f = tmp_path / "pop.csv"
    f.write_text("x,y\n1.0,2.0\n\n3.5,-1.0\n")
    p = sb.load_population_csv(f)
    assert np.allclose(p.xs, [1.0, 3.5])
    assert np.allclose(p.ys, [2.0, -1.0])


def test_csv_loader_rejects_bad_input(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        sb.load_population_csv(f)
    f.write_text("x,y\n1,2,3\n")
    with pytest.raises(ValueError, match="line 2"):
        sb.load_population_csv(f)
    f.write_text("x,y\n1,2\nfoo,3\n")
    with pytest.raises(ValueError, match="line 3"):
        sb.load_population_csv(f)


def test_error_paths():
    p = sb.Population(np.array([1.0, 2.0, 3.0]), np.zeros(3))
    with pytest.raises(DomainError, match=r"sample size 0 outside 1\.\.3"):
        sb.midzuno_sample(p, 0, RNG)
    with pytest.raises(DomainError, match=r"sample size 4 outside 1\.\.3"):
        sb.midzuno_sample(p, 4, RNG)
    with pytest.raises(DomainError, match=r"sample size 0 outside 1\.\.3"):
        sb.exact_expectation(p, 0)
    with pytest.raises(DomainError, match=r"is not 2 distinct indices"):
        sb.subset_probability(p, (0, 0), 2)
    with pytest.raises(DomainError, match=r"is not 3 distinct indices"):
        sb.subset_probability(p, (0, 1), 3)
    zero = sb.Population(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError, match=r"sampled x values sum to zero"):
        sb.ratio_estimate(zero, (0,))
    # 5,200,300 subsets of 12 index cells each
    big = sb.Population(np.ones(25), np.ones(25))
    with pytest.raises(SupportOverflow, match=r"C\(25, 12\) subsets needs 6\.24e\+07 index cells"):
        sb.exact_expectation(big, 12)
    # C(3000, 1500) is an int past the double range: compared and printed all the same
    huge = sb.Population(np.ones(3000), np.ones(3000))
    with pytest.raises(SupportOverflow, match=r"needs 2\.688e\+904 index cells"):
        sb.exact_expectation(huge, 1500)
    # C(10^6, 5 * 10^5) has 301,027 digits: refused on its log-gamma value, without computing it
    p = sb.Population(np.ones(10 ** 6), np.ones(10 ** 6))
    start = time.perf_counter()
    with pytest.raises(SupportOverflow, match=r"C\(1000000, 500000\) subsets needs "
                                              r"3\.950e\+301032 index cells, over 1847560"):
        sb.exact_expectation(p, 5 * 10 ** 5)
    assert time.perf_counter() - start < 0.1
    # every enumeration of at most 20 units fits; n = 20 at m = 10 and 11 meets the cap exactly
    from sizebias.midzuno import ENUM_CAP
    assert max(comb(n, m) * m for n in range(2, 21) for m in range(1, n + 1)) == ENUM_CAP


def test_zero_x_unit_edge_cases():
    # a unit with x=0 rides along fine once m >= 2 (every drawn subset
    # then has positive total x), but at m=1 it is never drawn, so its
    # y never reaches the estimator and unbiasedness genuinely fails
    p = sb.Population(np.array([0.0, 1.0, 2.0]), np.array([5.0, 1.0, 1.0]))
    want = p.ys.sum() / p.xs.sum()
    for m in (2, 3):
        assert sb.exact_expectation(p, m) == pytest.approx(want, abs=1e-12)
    assert sb.exact_expectation(p, 1) == pytest.approx(2.0 / 3.0, abs=1e-12)
