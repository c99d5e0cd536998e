import math

import numpy as np
import pytest
from scipy.integrate import trapezoid
from scipy.stats import poisson

import sizebias as sb
from sizebias.errors import DomainError, SupportOverflow, TruncationTooSevere
from sizebias.inf_div import NEG_MASS_TOL

EULER_GAMMA = 0.5772156649015329


# -------------------------------------------------------------------
# jump representations

def test_levy_validation():
    with pytest.raises(ValueError):
        sb.LevyRepr(1.0, 0.0, ((1.0, 0.5),))      # rates integrate to 0.5, not 1
    with pytest.raises(ValueError):
        sb.LevyRepr(1.0, 0.0, ((1.0, 0.5), (1.0, 0.5)))
    levy = sb.LevyRepr(2.0, 0.0, ((1.0, 1.2), (2.0, 0.4)))
    assert np.isclose(levy.total_rate(), 1.6)
    # a non-finite mean, jump size or rate is refused when the object is built
    for a, jumps in ((math.inf, ((1.0, math.inf),)), (math.nan, ((1.0, math.nan),)),
                     (2.0, ((1.0, 1.2), (math.nan, 0.4))), (2.0, ((1.0, 1.2), (2.0, math.inf)))):
        with pytest.raises(DomainError, match="must be finite"):
            sb.LevyRepr(a, 0.0, jumps)


def test_rates_from_increment():
    y = sb.DiscreteDist.from_pairs([(1.0, 0.6), (2.0, 0.4)])
    levy = sb.compound_poisson_from_increment(y, 2.0)
    # rate_i = mean * p_i / y_i
    assert dict(levy.jumps) == pytest.approx({1.0: 1.2, 2.0: 0.4})
    with pytest.raises(DomainError, match=r"increment support must be positive"):
        sb.compound_poisson_from_increment(
            sb.DiscreteDist.from_pairs([(0.0, 0.5), (1.0, 0.5)]), 0.5)


def test_levy_json_round_trip():
    levy = sb.LevyRepr(2.0, 0.0, ((1.0, 1.2), (2.0, 0.4)))
    back = sb.levy_from_json(sb.levy_to_json(levy))
    assert back == levy


# -------------------------------------------------------------------
# pmf recursion

def test_recursion_poisson():
    lam = 1.3
    f = sb.pmf_recursion(sb.LevyRepr(lam, 0.0, ((1.0, lam),)), 40)
    assert np.allclose(f.ps, poisson.pmf(np.arange(41), lam), atol=1e-12)
    # two jumps that round to site 1 add their rates: Poisson(2)
    split = ((1.0, 1.0), (1.0000000000001, 0.9999999999999001))
    f = sb.pmf_recursion(sb.LevyRepr(2.0, 0.0, split), 40)
    assert np.allclose(f.ps, poisson.pmf(np.arange(41), 2.0), rtol=0, atol=1e-12)


def test_recursion_two_jumps_vs_convolution():
    # N1 + 2*N2 with independent Poisson counts, summed directly
    r1, r2 = 1.2, 0.4
    levy = sb.LevyRepr(2.0, 0.0, ((1.0, r1), (2.0, r2)))
    f = sb.pmf_recursion(levy, 30)
    direct = np.zeros(31)
    for m in range(31):
        js = np.arange(m // 2 + 1)
        direct[m] = float(np.sum(poisson.pmf(m - 2 * js, r1) * poisson.pmf(js, r2)))
    assert np.allclose(f.ps, direct, atol=1e-12)


def test_recursion_char_fn_cross_check():
    levy = sb.LevyRepr(2.0, 0.0, ((1.0, 1.2), (2.0, 0.4)))
    f = sb.pmf_recursion(levy, 80)
    for u in (0.3, 1.0, 2.5, -1.7):
        # exp of the drift term plus sum rate*(e^{iuy}-1) over the jumps
        exponent = 1j * u * levy.a * levy.alpha0 + sum(r * (np.exp(1j * u * y) - 1.0)
                                                       for y, r in levy.jumps)
        assert abs(sb.char_fn(f, u) - np.exp(exponent)) <= 1e-8


def test_recursion_and_extraction_capped_before_allocating():
    levy = sb.LevyRepr(2.0, 0.0, ((1.0, 1.0), (2.0, 0.5)))
    with pytest.raises(SupportOverflow):
        sb.pmf_recursion(levy, 100_000_000)
    # an exact input is extracted to 2K + 10, past its last atom
    with pytest.raises(SupportOverflow):
        sb.extract_increment(sb.DiscreteDist(np.array([0.0, 1e7]), np.array([0.5, 0.5])))


def test_recursion_and_extraction_work_capped_before_allocating():
    from sizebias.inf_div import RECURSION_WORK_CAP
    # inside the point cap, but N(N+1)/2 multiply-adds would run for hours
    levy = sb.LevyRepr(2.0, 0.0, ((1.0, 1.0), (2.0, 0.5)))
    with pytest.raises(SupportOverflow):
        sb.pmf_recursion(levy, 9_999_999)
    # an exact input with its last atom at 40,000 is extracted to 80,010
    with pytest.raises(SupportOverflow):
        sb.extract_increment(sb.DiscreteDist(np.array([0.0, 4e4]), np.array([0.5, 0.5])))
    assert sb.pmf_recursion(levy, 16_000).ps.size == 16_001
    # a 26,000-mass id-test --pmf, extracted to 52,010, stays under
    assert (2 * 26_000 + 10) * (2 * 26_000 + 11) / 2 <= RECURSION_WORK_CAP


def test_recursion_jump_past_n_acts_only_through_the_origin():
    # N1 + 1e12 N2: below 1e12 the law is Poisson(1) times P(N2 = 0) = e^-1e-12
    levy = sb.LevyRepr(2.0, 0.0, ((1.0, 1.0), (1e12, 1e-12)))
    f = sb.pmf_recursion(levy, 40)
    want = poisson.pmf(np.arange(41), 1.0) * math.exp(-1e-12)
    assert np.allclose(f.ps * (1.0 - f.tail_bound), want, rtol=1e-12, atol=0)


def _pmf_recursion_full_length(levy, N):
    """The O(N^2) loop over every earlier mass, the windowed recursion's reference."""
    ys = [int(round(y)) for y, _ in levy.jumps]
    # a jump past N cannot reach 0..N; it acts only through f(0)
    fy = np.zeros(N + 1)
    for (y, r), k in zip(levy.jumps, ys):
        if k <= N:
            fy[k] += k * r / levy.a
    f = np.zeros(N + 1)
    f[0] = math.exp(-levy.total_rate())
    for m in range(N):
        f[m + 1] = levy.a / (m + 1) * float(f[: m + 1] @ fy[m + 1 : 0 : -1])
    tail = max(1.0 - f.sum(), 0.0)
    return sb.DiscreteDist.from_pmf(f / f.sum(), tail_bound=tail)


def test_recursion_window_has_the_full_length_loops_bits():
    # the window drops only terms whose jump mass is 0, so every sum keeps its order
    rng = np.random.Generator(np.random.Philox(11))
    for N in (1, 40, 500, 4000):
        cases = [((N + 1, 0.3),), ((N, 0.5),), ((1, 2.0), (N + 9, 0.1))]
        for J in (1, 2, 4, 20, 200):
            top = max(N, 2 * J)
            ys = rng.choice(np.arange(1, top + 1), J, replace=False)
            if J > 1:
                ys[-1] = top + 1 + int(rng.integers(0, 50))    # a jump past N
            cases.append(tuple(zip(ys.tolist(), rng.uniform(0.1, 1.0, J) * 3.0 / J)))
        for jumps in cases:
            levy = sb.LevyRepr(sum(y * r for y, r in jumps), 0.0, jumps)
            got, want = sb.pmf_recursion(levy, N), _pmf_recursion_full_length(levy, N)
            assert np.array_equal(got.ps, want.ps), (N, jumps[:3])
            assert got.tail_bound == want.tail_bound


def test_recursion_rejects_non_integer_jumps():
    with pytest.raises(DomainError, match=r"jump size 1\.5 is not a positive integer"):
        sb.pmf_recursion(sb.LevyRepr(1.0, 0.0, ((1.5, 1.0 / 1.5),)), 10)
    with pytest.raises(DomainError, match=r"drift mass shifts the law off the integer lattice"):
        sb.pmf_recursion(sb.LevyRepr(1.0, 0.5, ((1.0, 0.5),)), 10)


def test_recursion_refuses_a_mass_at_zero_that_underflows():
    # e^-800 is 0 in doubles: every mass would be 0 and the renormalization 0/0
    with pytest.raises(DomainError, match="total jump rate 800"):
        sb.pmf_recursion(sb.LevyRepr(800.0, 0.0, ((1.0, 800.0),)), 10)
    assert sb.pmf_recursion(sb.LevyRepr(700.0, 0.0, ((1.0, 700.0),)), 10).ps[0] > 0


# -------------------------------------------------------------------
# increment extraction

def test_extract_poisson_gives_unit_increment():
    lam = 0.8
    f = sb.pmf_recursion(sb.LevyRepr(lam, 0.0, ((1.0, lam),)), 50)
    res = sb.extract_increment(f)
    assert res.is_id
    assert abs(res.a - lam) <= 1e-10
    assert abs(res.increment.prob_at(1.0) - 1.0) <= 1e-8


def test_extract_round_trip_two_jumps():
    y = sb.DiscreteDist.from_pairs([(1.0, 0.6), (2.0, 0.4)])
    f = sb.pmf_recursion(sb.compound_poisson_from_increment(y, 2.0), 60)
    res = sb.extract_increment(f)
    assert res.is_id
    assert abs(res.increment.prob_at(1.0) - 0.6) <= 1e-8
    assert abs(res.increment.prob_at(2.0) - 0.4) <= 1e-8


def test_extract_geometric_increment_and_rates():
    # geometric(p) on {0,1,...}: the increment is the shifted law
    # p q^{k-1} on {1,2,...} and the jump rates are q^k / k
    p, q = 0.4, 0.6
    f = sb.tabulate_named(sb.NamedDist("geometric", (p,)))
    res = sb.extract_increment(f)
    assert res.is_id
    for k in range(1, 12):
        assert abs(res.increment.prob_at(float(k)) - p * q ** (k - 1)) <= 1e-8
    rates = dict(res.jump_rates())
    for k in range(1, 12):
        assert abs(rates[k] - q ** k / k) <= 1e-8
    # normalized rates form a law with normalizer -log p
    total = sum(r for r in rates.values())
    assert abs(total - (-math.log(p))) <= 1e-6


def test_extract_binomial_witness():
    res = sb.extract_increment(sb.DiscreteDist.from_pmf([0.25, 0.5, 0.25]))
    assert not res.is_id
    assert res.witness_index == 2
    assert np.isclose(res.witness_value, -2.0, atol=1e-12)


def test_extract_bernoulli_witness_past_support():
    # the negative coefficient sits beyond the support end; exact
    # inputs must still find it
    res = sb.extract_increment(sb.DiscreteDist.from_pmf([0.5, 0.5]))
    assert not res.is_id
    assert res.witness_index == 2
    assert np.isclose(res.witness_value, -2.0, atol=1e-12)


def test_extract_with_a_tiny_mass_at_zero():
    # 1/f(0) overflows: a verdict needs a finite witness before any non-finite coefficient
    for pmf, first_inf in (([1e-100, 0.5, 0.5], 4), ([1e-30, 0.3, 0.7], 11)):
        res = sb.extract_increment(sb.DiscreteDist.from_pmf(pmf))
        assert not res.is_id and res.witness_index == 2, pmf
        assert math.isfinite(res.witness_value) and res.witness_value < -NEG_MASS_TOL
        assert np.isfinite(res.raw[:first_inf]).all() and not np.isfinite(res.raw[first_inf])
    # here the first coefficient past the tolerance is inf or -inf
    for pmf in ([1e-320, 1.0], [1e-200, 1.0]):
        with pytest.raises(DomainError, match="mass at 0"):
            sb.extract_increment(sb.DiscreteDist.from_pmf(pmf))


def test_extract_requires_mass_at_zero():
    with pytest.raises(DomainError, match=r"extraction divides by the mass at 0"):
        sb.extract_increment(sb.DiscreteDist.from_pmf([0.0, 0.5, 0.5]))


def test_extract_truncated_window():
    # truncated input: the divisibility verdict only examines indices
    # with real mass above them
    lam = 1.1
    f = sb.pmf_recursion(sb.LevyRepr(lam, 0.0, ((1.0, lam),)), 12)
    assert f.tail_bound > 0
    res = sb.extract_increment(f)
    assert res.is_id
    assert res.examined.max() < 12
    assert abs(res.increment.prob_at(1.0) - 1.0) <= 1e-8


def _extract_by(monkeypatch, fX, path):
    """extract_increment through the FFT power-series path or through the loop alone."""
    monkeypatch.setattr(sb.inf_div, "SERIES_KMAX", 0 if path == "series" else math.inf)
    return sb.extract_increment(fX)


@pytest.mark.parametrize("inc", [(0.5, 0.3, 0.2), (0.1, 0.2, 0.3, 0.4), (0.7, 0.1, 0.1, 0.1)])
def test_series_extraction_matches_the_loop(monkeypatch, inc):
    y = sb.DiscreteDist(np.arange(1.0, len(inc) + 1), np.array(inc))
    for N in (300, 2000):
        for a in (2.0, 5.0, 10.0, 15.0, 20.0, 24.0):
            levy = sb.compound_poisson_from_increment(y, a)
            fX = sb.pmf_recursion(levy, N)
            fast, loop = (_extract_by(monkeypatch, fX, p) for p in ("series", "loop"))
            assert fast.is_id == loop.is_id and fast.witness_index == loop.witness_index, (N, a)
            assert np.array_equal(fast.examined, loop.examined)
            true = np.zeros(loop.raw.size)
            true[1 : len(inc) + 1] = inc
            k = loop.examined
            if np.max(np.abs(loop.raw[k] - true[k])) <= 1e-10:
                assert np.max(np.abs(fast.raw[k] - loop.raw[k])) <= 1e-10, (N, a)
            if levy.total_rate() <= 6:    # 1/F stays small enough to keep the FFT path
                f = np.zeros(loop.raw.size)
                f[: fX.ps.size] = fX.ps
                assert sb.inf_div._series_quotient(f, np.arange(1, f.size) * f[1:] / fX.mean()) \
                    is not None
                assert np.max(np.abs(fast.raw - loop.raw)) <= 1e-12, (N, a)
    # 1/F overflows for Poisson(200), whose mass at 0 is e^-200: the loop takes over
    fX = sb.tabulate_named(sb.NamedDist("poisson", (200.0,)))
    with np.errstate(over="ignore", invalid="ignore"):     # the loop overflows as well
        fast, loop = (_extract_by(monkeypatch, fX, p) for p in ("series", "loop"))
    assert fast.is_id == loop.is_id and fast.witness_index == loop.witness_index
    assert np.array_equal(fast.raw, loop.raw, equal_nan=True)


def test_extraction_switches_to_series_at_the_threshold(monkeypatch):
    calls = []
    quotient = sb.inf_div._series_quotient
    monkeypatch.setattr(sb.inf_div, "_series_quotient", lambda *a: calls.append(1) or quotient(*a))
    y = sb.DiscreteDist(np.arange(1.0, 3.0), np.array([0.5, 0.5]))
    for N, expect in ((sb.inf_div.SERIES_KMAX - 1, []), (sb.inf_div.SERIES_KMAX, [1])):
        fX = sb.pmf_recursion(sb.compound_poisson_from_increment(y, 3.0), N)
        fX = sb.DiscreteDist(fX.xs, fX.ps, tail_bound=1e-300)      # extracted to kmax = N
        calls.clear()
        assert sb.extract_increment(fX).is_id and calls == expect


# -------------------------------------------------------------------
# log-convexity

def test_log_convexity_geometric():
    assert sb.log_convexity_check(sb.tabulate_named(sb.NamedDist("geometric", (0.4,))))


def test_log_convexity_power_law():
    # survival 1/n heavy tail, shifted onto {0,1,...}
    n = np.arange(0, 400)
    p = 1.0 / ((n + 1) * (n + 2))
    assert sb.log_convexity_check(sb.DiscreteDist.from_pmf(p / p.sum()))


def test_log_convexity_poisson_false_but_divisible():
    # log-concave pmf fails the sufficient condition while the law is
    # divisible all the same: the test is one-directional
    f = sb.pmf_recursion(sb.LevyRepr(2.0, 0.0, ((1.0, 2.0),)), 60)
    assert not sb.log_convexity_check(f)
    assert sb.extract_increment(f).is_id


def test_log_convexity_needs_full_support():
    with pytest.raises(DomainError, match=r"need every mass positive on an initial segment"):
        sb.log_convexity_check(sb.DiscreteDist.from_pmf([0.5, 0.0, 0.5]))


# -------------------------------------------------------------------
# delay equation, uniform increments

def test_dickman_unit_rate():
    g = sb.dickman_solve(1.0)
    # constant times exp(-gamma) on (0, 1]
    seg = g.values[1:1001] * math.exp(EULER_GAMMA)
    assert np.all(np.abs(seg - 1.0) <= 1e-4)
    assert abs(g.values[2000] * math.exp(EULER_GAMMA) - (1.0 - math.log(2.0))) <= 1e-4
    assert abs(g.integral() - 1.0) <= 1e-4
    assert abs(g.mean() - 1.0) <= 1e-3


def test_dickman_mean_matches_rate():
    g = sb.dickman_solve(2.0, xmax=12.0)
    assert abs(g.mean() - 2.0) <= 1e-6


def test_dickman_moment_shift_identity():
    # E X^2 = E X (E X + 1/2): adding a uniform increment shifts the
    # mean by exactly one half
    g = sb.dickman_solve(1.0, xmax=10.0)
    xs = g.grid()
    m1 = g.mean()
    m2 = float(trapezoid(xs ** 2 * g.values, dx=g.h))
    assert abs(m2 - m1 * (m1 + 0.5)) <= 1e-3


def _dickman_rho(x):
    """The classical decay function on [1, 3] in closed form."""
    from scipy.special import spence      # spence(z) = Li2(1 - z)
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        upper = 1.0 - (1.0 - np.log(x - 1.0)) * np.log(x) + spence(x) + math.pi ** 2 / 12
    return np.where(x <= 2.0, 1.0 - np.log(x), upper)


def test_dickman_matches_closed_form_rho():
    # at a = 1 the density is e^-gamma rho(x); xmax = 10 keeps the
    # renormalization over the cut domain below the grid error
    def worst(h):
        g = sb.dickman_solve(1.0, h=h, xmax=10.0)
        xs = g.grid()
        on = (xs >= 1.0) & (xs <= 3.0)
        return float(np.abs(g.values[on] - math.exp(-EULER_GAMMA) * _dickman_rho(xs[on])).max())

    coarse, fine = worst(1e-3), worst(5e-4)
    assert coarse <= 1e-7
    assert 3.5 <= coarse / fine <= 4.5      # second order in h


def test_dickman_grid_guards():
    with pytest.raises(DomainError, match=r"grid step 0\.01 outside"):
        sb.dickman_solve(1.0, h=0.01)
    with pytest.raises(DomainError, match=r"xmax must be at least 3"):
        sb.dickman_solve(1.0, xmax=2.0)
    with pytest.raises(DomainError, match=r"grid step 0\.0 outside"):
        sb.dickman_solve(1.0, h=0.0)
    with pytest.raises(ValueError):
        sb.dickman_solve(-1.0)
    # NaN passes a <= 0 and xmax < 3; both are refused by name before the grid is built
    for a in (math.nan, math.inf):
        with pytest.raises(DomainError, match=f"mean must be finite, got {a}"):
            sb.dickman_solve(a)
        with pytest.raises(DomainError, match=f"mean must be finite, got {a}"):
            sb.buchstab_solve(a, 0.5)
        with pytest.raises(DomainError, match=f"xmax must be finite, got {a}"):
            sb.dickman_solve(1.0, xmax=a)


def test_delay_solvers_refuse_unmarchable_means():
    # a h >= 2(1 + h) zeroes the implicit denominator 1 - a h/(2x) at x = 1 + h
    with pytest.raises(DomainError, match=r"implicit denominator"):
        sb.dickman_solve(2002.0, h=1e-3)
    with pytest.raises(DomainError):
        sb.dickman_solve(1e308, h=1e-3)
    # the seed endpoint 2 h^(a-1)/a overflows below a ~ 2/(h * max double)
    with pytest.raises(DomainError, match="smallest at grid step 0.001"):
        sb.dickman_solve(1e-305, h=1e-3)
    assert np.isfinite(sb.dickman_solve(1e-300, h=1e-3).values).all()
    with pytest.raises(DomainError):
        sb.buchstab_solve(1e308, 0.5, h=1e-3)
    # the running integral overflows before xmax; refused before the division that warned
    with pytest.raises(SupportOverflow, match="integral at mean 500 leaves the double range "
                                              "before xmax = 5"):
        sb.dickman_solve(500.0)


def _dickman_reference(a, h, xmax):
    """The grid march on numpy scalars, one element at a time."""
    m1 = round(1.0 / h)
    J = round(xmax / h)
    x = h * np.arange(J + 1)
    f = np.zeros(J + 1)
    f[1 : m1 + 1] = x[1 : m1 + 1] ** (a - 1.0)
    f[0] = max(2.0 * h ** (a - 1.0) / a - f[1], 0.0)
    F = np.zeros(J + 1)
    np.cumsum(0.5 * h * (f[1 : m1 + 1] + f[: m1]), out=F[1 : m1 + 1])
    for j in range(m1 + 1, J + 1):
        rhs = F[j - 1] + 0.5 * h * f[j - 1] - F[j - m1]
        f[j] = (a / x[j]) * rhs / (1.0 - a * h / (2.0 * x[j]))
        F[j] = F[j - 1] + 0.5 * h * (f[j - 1] + f[j])
    return f / F[-1]


def _buchstab_reference(a, b, h, xmax):
    m1, mb = round(1.0 / h), round(b / h)
    atom0 = b ** (a / (1.0 - b))
    J = round(xmax / h)
    x = h * np.arange(J + 1)
    f = np.zeros(J + 1)
    F = np.zeros(J + 1)
    w = 1.0 / (1.0 - b)
    for j in range(1, J + 1):
        atom_term = atom0 * w if mb < j < m1 else 0.0
        if j == mb or j == m1:
            atom_term = 0.5 * atom0 * w
        lo = F[j - m1] if j >= m1 else 0.0
        hi = F[j - mb] if j >= mb else 0.0
        f[j] = (a / x[j]) * (atom_term + w * (hi - lo))
        F[j] = F[j - 1] + 0.5 * h * (f[j - 1] + f[j])
    return f, atom0


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("h", [1e-3, 5e-4, 1e-4])
def test_delay_marches_keep_the_numpy_scalar_bits(h):
    # the solvers march on Python floats; each step must round as the
    # numpy-scalar march did
    for a, xmax in ((0.3, 4.0), (1.0, 6.0), (2.5, 10.0), (7.0, 18.0)):
        g = sb.dickman_solve(a, h=h, xmax=xmax)
        assert _same_bits(g.values, _dickman_reference(a, h, xmax)), (a, h)
        for b in (0.2, 0.5, 0.75):
            g = sb.buchstab_solve(a, b, h=h, xmax=xmax)
            want, atom0 = _buchstab_reference(a, b, h, xmax)
            assert _same_bits(g.values, want), (a, b, h)
            assert g.atom0 == atom0


# -------------------------------------------------------------------
# delay equation, gapped increments

def test_buchstab_atom_exact():
    g = sb.buchstab_solve(1.0, 0.5)
    assert g.atom0 == 0.5 ** (1.0 / 0.5)
    g2 = sb.buchstab_solve(0.5, 0.25, xmax=8.0)
    assert g2.atom0 == 0.25 ** (0.5 / 0.75)


def test_buchstab_mass_certificate():
    g = sb.buchstab_solve(1.0, 0.5)
    assert abs(g.atom0 + g.integral() - 1.0) <= 1e-4


def test_buchstab_gap_zeros():
    # support misses (0,b) and (1, 2b) when b > 1/2
    b = 0.8
    g = sb.buchstab_solve(1.0, b)
    j = g.grid()
    assert np.all(g.values[j < b - 1e-12] == 0.0)
    inside_gap = (j > 1.0 + 1e-12) & (j < 2 * b - 1e-12)
    assert np.all(g.values[inside_gap] == 0.0)
    assert g.values[int(round(0.9 / g.h))] > 0.0


def test_buchstab_jump_nodes_hold_averages():
    g = sb.buchstab_solve(1.0, 0.5)
    h = g.h
    mb, m1 = round(0.5 / h), round(1.0 / h)
    # right limit at b is atom0/(b(1-b)); left limit is 0
    right = g.atom0 / (0.5 * 0.5)
    assert np.isclose(g.values[mb], right / 2.0, rtol=1e-6)
    # at 1 the density drops by atom0/(1-b)
    left = g.values[m1 - 1]
    right1 = g.values[m1 + 1]
    assert np.isclose(g.values[m1], (left + right1) / 2.0, atol=2e-3)


def test_buchstab_moment_shift_identity():
    # increment Uniform(b,1) shifts the mean by (1+b)/2
    b = 0.5
    g = sb.buchstab_solve(1.0, b, xmax=10.0)
    xs = g.grid()
    m1 = g.mean()
    m2 = float(trapezoid(xs ** 2 * g.values, dx=g.h))
    assert abs(m2 - m1 * (m1 + (1.0 + b) / 2.0)) <= 1e-3


def test_buchstab_guards():
    with pytest.raises(DomainError, match=r"must sit on the grid"):
        sb.buchstab_solve(1.0, 0.5005)      # b off the grid
    with pytest.raises(DomainError, match=r"must sit on the grid"):
        sb.buchstab_solve(1.0, 1e-12)       # b rounds to grid index 0
    with pytest.raises(ValueError):
        sb.buchstab_solve(1.0, 1.5)
    with pytest.raises(TruncationTooSevere):
        sb.buchstab_solve(2.0, 0.25, xmax=5.0)
