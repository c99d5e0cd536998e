import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import poisson

import sizebias as sb
from sizebias.errors import BoundViolated, DomainError, SupportOverflow

RNG = np.random.default_rng(np.random.Philox(20240822))


# -------------------------------------------------------------------
# total variation and the Poisson bound

def test_comparisons_match_prob_at_reference():
    # supports overlap on 2 and 3 (the 3 is off by half a merge tolerance)
    p = sb.DiscreteDist(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3, 0.4]))
    q = sb.DiscreteDist(np.array([2.0, 3.0 + 5e-13, 4.5]), np.array([0.5, 0.25, 0.25]))
    union, _ = sb.dist_core.merge_atoms(np.concatenate([p.xs, q.xs]), np.zeros(7))
    gaps = [abs(p.prob_at(x) - q.prob_at(x)) for x in union]
    assert union.size == 5
    assert sb.tv_distance(p, q) == pytest.approx(0.5 * sum(gaps), abs=1e-15)
    assert sb.max_atom_gap(p, q) == max(gaps)
    assert sb.max_atom_gap(p, q) == sb.max_atom_gap(q, p)


def test_tv_distance_fixture():
    p = sb.DiscreteDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    q = sb.DiscreteDist(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
    assert sb.tv_distance(p, q) == pytest.approx(0.5)
    assert sb.tv_distance(p, p) == 0.0
    assert sb.tv_distance(p, q) == sb.tv_distance(q, p)


def test_stein_bound_value():
    assert sb.stein_poisson_bound(1.0, 0.1) == pytest.approx((1 - math.exp(-1)) * 0.1)
    with pytest.raises(ValueError):
        sb.stein_poisson_bound(0.0, 0.1)
    with pytest.raises(DomainError, match=r"gap must be nonnegative, got -0.5"):
        sb.stein_poisson_bound(1.0, -0.5)
    with pytest.raises(DomainError, match=r"rate must be positive, got nan"):
        sb.stein_poisson_bound(math.nan, 0.1)
    with pytest.raises(DomainError, match=r"gap must be nonnegative, got nan"):
        sb.stein_poisson_bound(1.0, math.nan)


def test_binomial_check_frozen():
    # computed once from scipy pmfs at (n, p) = (10, 0.1)
    bound, exact = sb.binomial_poisson_check(10, 0.1)
    assert bound == pytest.approx(0.06321205588285576, rel=1e-14)
    assert exact == pytest.approx(0.02931157174283643, rel=1e-10)


def test_binomial_check_touches_bound_at_n_one():
    bound, exact = sb.binomial_poisson_check(1, 0.3)
    assert exact == pytest.approx(bound, rel=1e-13)


def test_binomial_check_exact_tv_agrees_with_direct():
    n, p = 7, 0.25
    _, exact = sb.binomial_poisson_check(n, p)
    bi = sb.tabulate_named(sb.NamedDist("binomial", (n, p)))
    lam = n * p
    hi = 60
    poi = sb.DiscreteDist(np.arange(hi + 1, dtype=float),
                          poisson.pmf(np.arange(hi + 1), lam),
                          tail_bound=float(poisson.sf(hi, lam)))
    assert exact == pytest.approx(sb.tv_distance(bi, poi), abs=1e-12)


def test_tv_shrinks_as_n_grows_at_fixed_rate():
    lam = 1.0
    exacts = [sb.binomial_poisson_check(n, lam / n)[1] for n in (2, 5, 10, 40)]
    assert all(a > b for a, b in zip(exacts, exacts[1:]))


def test_binomial_check_validation():
    with pytest.raises(ValueError):
        sb.binomial_poisson_check(0, 0.5)
    with pytest.raises(ValueError):
        sb.binomial_poisson_check(5, 1.0)


def test_estimated_gap_matches_shared_summand_coupling():
    # X = sum of n Bernoulli(p); resampling one summand to 1 gives X*,
    # so X* - (X+1) is minus one indicator and the gap estimates p
    n_terms, p, n = 12, 0.2, 200_000
    b = (RNG.random((n, n_terms)) < p)
    x = b.sum(axis=1)
    j = RNG.integers(0, n_terms, size=n)
    x_star = x - b[np.arange(n), j] + 1
    gaps = np.abs(x_star - (x + 1.0))
    gap, se = float(gaps.mean()), float(gaps.std(ddof=1) / math.sqrt(n))
    assert abs(gap - p) < 4 * se
    bound = sb.stein_poisson_bound(n_terms * p, gap)
    assert bound == pytest.approx((1 - math.exp(-n_terms * p)) * gap)


# -------------------------------------------------------------------
# exact Poisson tails

def test_poisson_tails_match_scipy():
    for a in (1.0, 4.0, 8.0):
        for x in (1, 3, 8, 15):
            assert sb.poisson_upper_tail(a, x) == pytest.approx(
                float(poisson.sf(x - 1, a)), rel=1e-12)
            assert sb.poisson_lower_tail(a, x) == pytest.approx(
                float(poisson.cdf(x, a)), rel=1e-12)


def test_poisson_tails_below_zero_and_refusals():
    # P(X >= x) = 1 and P(X <= x) = 0 for x < 0, where a slice from x would wrap
    assert sb.poisson_upper_tail(1.0, -1) == sb.poisson_upper_tail(1.0, 0)
    assert sb.poisson_upper_tail(1.0, -1) == pytest.approx(1.0, rel=1e-15)
    assert sb.poisson_lower_tail(1.0, -1) == 0.0
    assert sb.poisson_upper_tail(4.0, 3.0) == sb.poisson_upper_tail(4.0, np.int64(3))
    for tail in (sb.poisson_upper_tail, sb.poisson_lower_tail):
        for a in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(DomainError, match=r"rate must be positive and finite"):
                tail(a, 3)
        for x in (2.5, math.nan, math.inf):
            with pytest.raises(DomainError, match=r"tail point must be an integer"):
                tail(1.0, x)
    # 1e12 + 1 and ~1e300 masses, refused before the table is allocated
    with pytest.raises(SupportOverflow, match=r"needs 1e\+12 points"):
        sb.poisson_lower_tail(1.0, 10 ** 12)
    with pytest.raises(SupportOverflow, match=r"needs 1e\+300 points"):
        sb.poisson_upper_tail(1e300, 3)


def test_poisson_upper_tail_returns_where_the_first_term_underflows():
    # the first term exp(-a) a^x / x! underflows for both pairs
    code = "import sizebias as sb; print(sb.poisson_upper_tail(800.0, 10), sb.poisson_upper_tail(1.0, 200))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       timeout=30, env={**os.environ, "PYTHONPATH": src})
    assert p.returncode == 0, p.stderr
    near_one, far_tail = map(float, p.stdout.split())
    assert near_one == pytest.approx(float(poisson.sf(9, 800.0)), rel=1e-12)
    assert far_tail == float(poisson.sf(199, 1.0)) == 0.0


# -------------------------------------------------------------------
# concentration bounds

def test_concentration_fixed_values():
    up = sb.ConcentrationParams(4.0, 1.0, 8.0)
    tight, gauss = sb.concentration_upper(up)
    assert tight == pytest.approx((0.5) ** 8 * math.exp(4.0), rel=1e-14)
    assert tight == pytest.approx(0.21327402356696967, rel=1e-12)
    assert tight <= gauss
    lo = sb.ConcentrationParams(4.0, 1.0, 2.0)
    tight_lo, gauss_lo = sb.concentration_lower(lo)
    assert tight_lo == pytest.approx(4.0 * math.exp(-2.0), rel=1e-14)
    assert tight_lo == pytest.approx(0.5413411329464508, rel=1e-12)
    assert tight_lo <= gauss_lo


def test_tight_bound_matches_mpmath_where_the_closed_form_cancels():
    # 0.1 <= |x - a|/(x + a) < 0.5 below x + a = 1e3: the closed form of bd0 cancelled
    # there and left the bound up to 22 eps max(1, bd0/c) off; the series stays within 4
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    rng = np.random.default_rng(8)
    for _ in range(200):
        s = float(np.exp(rng.uniform(0.0, math.log(1e3))))
        v = float(rng.uniform(0.1, 0.5) * rng.choice([-1, 1]))
        a, x, c = s * (1 - v) / 2, s * (1 + v) / 2, float(rng.choice([0.5, 1.0, 2.0]))
        cp = sb.ConcentrationParams(a, c, x)
        tight = (sb.concentration_upper if x >= a else sb.concentration_lower)(cp)[0]
        A, X = mp.mpf(a), mp.mpf(x)
        exponent = (X * mp.log(X / A) + A - X) / c
        err = abs(tight / mp.exp(-exponent) - 1)
        assert err <= 6 * 2.2e-16 * max(1.0, float(exponent)), (a, c, x)
    # the README example: 50-digit mpmath gives 0.21327402356696968
    assert sb.concentration_upper(sb.ConcentrationParams(4.0, 1.0, 8.0))[0] == 0.21327402356696981


def test_tail_iteration_value():
    cp = sb.ConcentrationParams(4.0, 1.0, 8.0)
    got = sb.tail_iteration(cp)
    assert got == pytest.approx((4 / 8) * (4 / 7) * (4 / 6) * (4 / 5), rel=1e-14)
    assert got == pytest.approx(0.15238095238095239, rel=1e-12)


def test_iteration_within_factor_e_of_closed_form():
    for a, c, x in [(4.0, 1.0, 8.0), (2.0, 1.0, 9.0), (8.0, 2.0, 16.0), (1.0, 1.0, 5.0)]:
        cp = sb.ConcentrationParams(a, c, x)
        tight, _ = sb.concentration_upper(cp)
        it = sb.tail_iteration(cp)
        assert tight / math.e <= it <= tight * math.e


def test_poisson_tails_respect_bounds():
    # unit-increment coupling: c = 1 for a Poisson mean a
    for a in (1.0, 2.0, 4.0, 8.0):
        for x in range(int(a) + 1, int(a) + 12):
            tight, gauss = sb.concentration_upper(sb.ConcentrationParams(a, 1.0, x))
            exact = sb.poisson_upper_tail(a, x)
            assert exact <= tight <= gauss
            assert exact <= sb.tail_iteration(sb.ConcentrationParams(a, 1.0, x))
        for x in range(1, int(a) + 1):
            tight, gauss = sb.concentration_lower(sb.ConcentrationParams(a, 1.0, x))
            assert sb.poisson_lower_tail(a, x) <= tight <= gauss


def test_concentration_domain_errors():
    with pytest.raises(DomainError):
        sb.concentration_upper(sb.ConcentrationParams(4.0, 1.0, 2.0))
    with pytest.raises(DomainError):
        sb.concentration_lower(sb.ConcentrationParams(4.0, 1.0, 8.0))
    with pytest.raises(DomainError):
        sb.tail_iteration(sb.ConcentrationParams(4.0, 1.0, 4.0))
    with pytest.raises(ValueError):
        sb.ConcentrationParams(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sb.ConcentrationParams(1.0, -1.0, 1.0)


def test_poisson_lower_tail_deep_in_the_left_tail():
    # exp(-800) underflows, so a product walk from the origin returns 0
    got = sb.poisson_lower_tail(800.0, 700)
    assert got == pytest.approx(float(poisson.cdf(700, 800.0)), rel=1e-10)
    assert got == pytest.approx(1.6609e-4, rel=1e-4)


def _iteration_loop(a, c, x):
    """Reference: the stepped product G(x) <= (a/x) G(x - c) down to the mean."""
    prod, xk = 1.0, x
    while xk > a:
        prod *= a / xk
        xk -= c
    return prod


def test_tail_iteration_closed_form_matches_loop():
    cases = [(4.0, 1.0, 8.0), (2.0, 1.0, 9.0), (1.0, 1.0, 5.0), (3.7, 1.0, 11.2),
             (6.0, 1.0, 30.5), (2.5, 0.3, 7.1), (5.0, 0.7, 9.9), (1.5, 2.5, 12.0),
             (0.8, 0.45, 3.3)]
    for a, c, x in cases:
        got = sb.tail_iteration(sb.ConcentrationParams(a, c, x))
        assert got == pytest.approx(_iteration_loop(a, c, x), rel=1e-12), (a, c, x)


def test_tiny_coupling_bound_underflows_to_zero():
    # (x - a)/c = 1e9 steps: the loop would not return and (a/x)^(x/c) e^((x-a)/c) overflows
    cp = sb.ConcentrationParams(1.0, 1e-9, 2.0)
    assert sb.concentration_upper(cp) == (0.0, 0.0)
    assert sb.tail_iteration(cp) == 0.0
    # x/c = 2e-308 and 2e-300: r - m + 1 rounds to 0, a pole of log Gamma
    for c in (1e308, 1e300):
        assert abs(sb.tail_iteration(sb.ConcentrationParams(1.0, c, 2.0)) - 0.5) <= 1e-12
    tight, gauss = sb.concentration_lower(sb.ConcentrationParams(2.0, 1e-9, 1.0))
    assert tight == gauss == 0.0
    with pytest.raises(ValueError):
        sb.ConcentrationParams(1.0, float("nan"), 2.0)


def test_bd0_is_homogeneous_where_the_sum_overflows():
    from sizebias.dist_core import bd0
    # x + a overflows here; bd0(t x, t a) = t bd0(x, a)
    assert bd0(1e308, 1.2e308) == pytest.approx(1e300 * bd0(1e8, 1.2e8), rel=1e-12)


def test_concentration_bounds_keep_their_scale_at_the_ends_of_the_double_range():
    # both bounds are unchanged when a, c and x scale together; at 1e306
    # x + a and (x - a)^2 overflow, at 1e-200 they underflow to 0 / 0
    for (a, c, x), fn, t in (((100.0, 1.0, 120.0), sb.concentration_upper, 1e306),
                             ((150.0, 1.0, 10.0), sb.concentration_lower, 1e306),
                             ((1.0, 1.0, 2.0), sb.concentration_upper, 1e-200)):
        unit = fn(sb.ConcentrationParams(a, c, x))
        scaled = fn(sb.ConcentrationParams(a * t, c * t, x * t))
        assert 0.0 < unit[0] < unit[1] < 1.0
        assert scaled == pytest.approx(unit, rel=1e-12), t


def test_bound_violations_raise_without_assert(monkeypatch):
    import sizebias.bounds as B
    monkeypatch.setattr(B, "bd0", lambda x, a, **kw: -1.0)
    with pytest.raises(BoundViolated):
        sb.concentration_upper(sb.ConcentrationParams(4.0, 1.0, 8.0))
    with pytest.raises(BoundViolated):
        sb.concentration_lower(sb.ConcentrationParams(4.0, 1.0, 2.0))
    monkeypatch.setattr(B, "binom_pmf", lambda n, p: np.eye(1, n + 1, n)[0])
    with pytest.raises(BoundViolated):
        sb.binomial_poisson_check(10, 0.1)
