import math

import numpy as np
import pytest
from scipy.integrate import trapezoid

import sizebias as sb
from sizebias.errors import DomainError, SizeBiasError, SupportOverflow, TruncationTooSevere

RNG = np.random.default_rng(np.random.Philox(20240819))

# frozen against mpmath's jtheta(3, i*log(b)/2, c^(-1/2)) at 30 digits
THETA_ORACLE = [
    (1.0, math.e, 2.5066282880429055),
    (1.3, 2.0, 3.1640376689198240),
    (2.0, 3.5, 2.7129045987712487),
    (1.0, 1.5, 3.9365266006785395),
]


# -------------------------------------------------------------------
# the theta normalizer

def test_theta_against_oracle():
    for b, c, want in THETA_ORACLE:
        assert np.isclose(sb.theta_t(b, c), want, rtol=1e-13)


def test_theta_is_not_sqrt_2pi():
    # Poisson summation: t(1,e) = sqrt(2 pi) * (1 + 2 e^{-2 pi^2} + ...),
    # so the two agree only to 8 digits; the gap itself is predictable
    root = math.sqrt(2 * math.pi)
    gap = sb.theta_t(1.0, math.e) - root
    assert gap > 0
    assert np.isclose(gap, root * 2 * math.exp(-2 * math.pi ** 2), rtol=1e-6)


def test_theta_shift_identity():
    # t(bc, c) = b sqrt(c) t(b, c)
    for _ in range(20):
        b = float(RNG.uniform(0.5, 4.0))
        c = float(RNG.uniform(1.2, 5.0))
        assert np.isclose(sb.theta_t(b * c, c), b * math.sqrt(c) * sb.theta_t(b, c),
                          rtol=1e-12)


def test_theta_validation():
    with pytest.raises(ValueError):
        sb.theta_t(-1.0, 2.0)
    with pytest.raises(DomainError):
        sb.theta_t(1.0, 1.005)
    for b, c in [(0.0, 2.0), (math.inf, 2.0), (math.nan, 2.0), (1.5, math.inf), (1.5, math.nan),
                 ([1.5, -1.0], 2.0)]:
        with pytest.raises(DomainError):
            sb.theta_t(b, c)
    # the largest term, e^(log(b)^2 / (2 log c)), is past the double range
    with pytest.raises(SizeBiasError), np.errstate(over="ignore", invalid="ignore"):
        sb.theta_t(1e300, sb.lognormal.MIN_RATIO)


def _random_bases(rng, n):
    """(b, c) pairs: c down to MIN_RATIO, b mostly in [1, c) and a third up to 6 periods off."""
    cs = np.exp(rng.uniform(math.log(sb.lognormal.MIN_RATIO), math.log(30.0), n))
    cs[::4] = rng.uniform(sb.lognormal.MIN_RATIO, 1.05, cs[::4].size)
    span = np.where(np.arange(n) % 3 == 0, 6.0, 1.0)
    lb = rng.uniform(np.where(span > 1, -span, 0.0), span) * np.log(cs)
    return list(zip(np.exp(lb).tolist(), cs.tolist()))


def test_theta_against_mpmath_jtheta():
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    with mp.workdps(40):
        for b, c in _random_bases(np.random.default_rng(31), 300):
            want = mp.jtheta(3, 1j * mp.log(mp.mpf(b)) / 2, mp.mpf(c) ** -0.5).real
            worst = max(worst, float(abs(sb.theta_t(b, c) / want - 1)))
    # the rounding of each exponent -m log b - m^2 log(c)/2 sets the floor
    assert worst <= 5e-14


def test_theta_array_matches_scalar_calls():
    # the array call sums every row out to the widest row's width
    rng = np.random.default_rng(32)
    for _ in range(40):
        c = float(np.exp(rng.uniform(math.log(sb.lognormal.MIN_RATIO), math.log(30.0))))
        bs = np.exp(rng.uniform(-4.0, 5.0, 25) * math.log(c))
        got = sb.theta_t(bs, c)
        want = np.array([sb.theta_t(float(b), c) for b in bs])
        assert got.shape == bs.shape
        np.testing.assert_allclose(got, want, rtol=4e-16, atol=0)
    assert sb.theta_t(np.full((2, 3), 1.3), 2.0).shape == (2, 3)


def _auto_M_loop(b, c):
    """The width search auto_M replaced: step M = 12, 16, ... until both edges fall below the cut."""
    t = sb.theta_t(b, c)
    M = 12
    lb, lc = math.log(b), math.log(c)
    while max(math.exp(M * lb - 0.5 * M * M * lc),
              math.exp(-M * lb - 0.5 * M * M * lc)) >= sb.lognormal.TRUNC_MASS * t:
        M += 4
    return M


def test_auto_M_matches_the_loop():
    for b, c in _random_bases(np.random.default_rng(33), 1200):
        assert sb.lognormal.auto_M(b, c) == _auto_M_loop(b, c), (b, c)


def test_reduce_base_edges():
    for b, c in [(0.0, 2.0), (-1.0, 2.0), (math.inf, 2.0), (math.nan, 2.0), (1.5, math.inf),
                 (1.5, math.nan), (1.5, 1.0)]:
        with pytest.raises(DomainError):
            sb.reduce_base(b, c)
    # c^-n past the double range: 1e-320 = 2024 * 2^-1074 reduces to 2024 / 1024 at c = 2,
    # and 1e-300 at c = 1e200 needs c^2; the reduction then goes through logs
    assert sb.reduce_base(1e-320, 2.0) == pytest.approx(2024 / 1024, rel=1e-12)
    assert sb.reduce_base(1e-300, 1e200) == pytest.approx(1e100, rel=1e-12)
    assert sb.reduce_base(5e-324, 1.01) == pytest.approx(
        math.exp(math.log(5e-324) % math.log(1.01)), rel=1e-9)


# -------------------------------------------------------------------
# orbit laws

def test_orbit_mean_is_sqrt_c():
    for b, c in [(1.0, math.e), (1.3, 2.0), (2.9, 3.0), (1.0, 1.5)]:
        o = sb.orbit_pmf(b, c)
        assert np.isclose(float(o.xs @ o.masses), math.sqrt(c), rtol=1e-10)


def test_orbit_moments():
    for b, c in [(1.0, math.e), (1.7, 2.0)]:
        o = sb.orbit_pmf(b, c)
        for k in (-2, -1, 0, 1, 2, 3):
            assert np.isclose(sb.orbit_moment(o, k), c ** (k * k / 2), rtol=1e-8)


def test_orbit_base_reduction():
    # 7.3 = 1.825 * 2^2, so both calls land on the same canonical orbit
    o = sb.orbit_pmf(7.3, 2.0)
    assert o.b == pytest.approx(1.825, rel=1e-12)
    direct = sb.orbit_pmf(1.825, 2.0)
    assert np.allclose(o.xs, direct.xs, rtol=1e-12)
    assert np.allclose(o.masses, direct.masses, atol=1e-15)
    assert sb.reduce_base(0.3, 2.0) == pytest.approx(1.2, rel=1e-12)


def test_orbit_fixed_point():
    for b, c in [(1.0, math.e), (1.3, 2.0), (2.0, 3.5)]:
        assert sb.orbit_size_bias_check(sb.orbit_pmf(b, c))


def test_orbit_fixed_point_rejects_perturbation():
    o = sb.orbit_pmf(1.0, 2.0)
    masses = o.masses.copy()
    masses[o.M] += 1e-6
    masses /= masses.sum()
    bent = sb.DiscreteDist(o.xs, masses)
    assert not sb.orbit_size_bias_check(bent)


def test_orbit_truncation_guards():
    with pytest.raises(TruncationTooSevere):
        sb.orbit_pmf(1.0, math.e, M=2)
    # auto width covers k <= 3 but a 10th moment needs far more room
    with pytest.raises(TruncationTooSevere):
        sb.orbit_moment(sb.orbit_pmf(1.0, 1.5), 10)


def test_orbit_as_dist_round_trip():
    o = sb.orbit_pmf(1.3, 2.0)
    d = sb.orbit_as_dist(o)
    assert np.isclose(d.mean(), math.sqrt(2.0), rtol=1e-10)
    assert sb.orbit_size_bias_check(d)


# -------------------------------------------------------------------
# the alternating-mass cousin: same moments, no fixed point

def test_berg_matches_lognormal_moments():
    c = 2.0
    for s in (1, -1):
        d = sb.berg_pmf(s, c)
        for k in range(4):
            assert np.isclose(sb.moment(d, k), c ** (k * k / 2), rtol=1e-8)


def test_berg_fails_fixed_point():
    assert not sb.orbit_size_bias_check(sb.berg_pmf(1, 2.0))
    assert not sb.orbit_size_bias_check(sb.berg_pmf(-1, 2.0))


def test_berg_midpoint_is_orbit():
    c = 3.0
    plus = sb.berg_pmf(1, c)
    minus = sb.berg_pmf(-1, c)
    o = sb.orbit_pmf(math.sqrt(c), c, M=plus.xs.size // 2)
    assert np.allclose((plus.ps + minus.ps) / 2, o.masses, atol=1e-15)


def test_berg_validation():
    with pytest.raises(ValueError):
        sb.berg_pmf(2, 2.0)
    # half-width 1 keeps the n = -1 term, mass 1/t: refused, not silently truncated
    with pytest.raises(TruncationTooSevere, match="edge mass at half-width 1"):
        sb.berg_pmf(1, 2.0, M=1)


def test_orbit_grids_past_the_double_range_are_refused():
    # at half-width 12 the top point b c^12 passes 1.8e308 just above c = 1e25
    with pytest.raises(DomainError, match="past the double range"):
        sb.orbit_pmf(1.0, 1e26)
    with pytest.raises(DomainError, match="past the double range"):
        sb.berg_pmf(1, 1e26)
    assert np.isfinite(sb.orbit_pmf(1.0, 1e25).xs[-1])


# -------------------------------------------------------------------
# densities with the same moments

def test_lognormal_density_basics():
    assert sb.lognormal_density(-1.0, 1.0) == 0.0
    assert sb.lognormal_density(0.0, 1.0) == 0.0
    # log substitution tames the heavy right tail
    z = np.linspace(-12.0, 12.0, 400_001)
    vals = sb.lognormal_density(np.exp(z), 1.0) * np.exp(z)
    assert np.isclose(trapezoid(vals, z), 1.0, atol=1e-9)


def test_lognormal_density_scaling_identity():
    # f(x/c) = x sqrt(c) f(x) when sigma^2 = log c; this is the density
    # form of the size-bias fixed point
    c = math.e
    for x in (0.3, 1.0, 2.7, 8.0):
        assert np.isclose(sb.lognormal_density(x / c, 1.0),
                          x * math.sqrt(c) * sb.lognormal_density(x, 1.0), rtol=1e-12)


def test_stieltjes_moments_match_lognormal():
    for m, delta, sigma in [(1, 1.0, 1.0), (2, 0.5, 0.8)]:
        s = sb.StieltjesDensity(m, delta, sigma)
        for n in range(5):
            want = math.exp(n * n * sigma ** 2 / 2)
            assert np.isclose(sb.stieltjes_moment(s, n), want, rtol=1e-6)


def test_stieltjes_moments_follow_the_moving_peak():
    # the integrand peaks at z = n sigma; a window fixed at [-10, 10] gave 0.47 e^50 at n = 10
    s = sb.StieltjesDensity(1, 0.5, 1.0)
    for n in range(21):
        assert sb.stieltjes_moment(s, n) == pytest.approx(math.exp(n * n / 2), rel=1e-15), n
    # up to the top of the double range; the phase 2 pi m z / sigma of the wiggle is
    # rounded at ~1e-16 of its size, 942 at sigma = 0.7, n = 50, m = 3
    for m, delta, sigma in [(1, 0.5, 1.0), (3, -0.9, 0.7), (2, 1.0, 2.5)]:
        s = sb.StieltjesDensity(m, delta, sigma)
        n = 0
        while (n * sigma) ** 2 / 2 <= 700:
            want = math.exp(n * n * sigma ** 2 / 2)
            assert sb.stieltjes_moment(s, n) == pytest.approx(want, rel=1e-12), (sigma, n)
            n += 1
        # e^(n^2 sigma^2 / 2) past the double range
        with pytest.raises(SupportOverflow, match=r"past the double range"):
            sb.stieltjes_moment(s, n + 1)


def test_orbit_width_capped_before_allocating():
    with pytest.raises(SupportOverflow):
        sb.orbit_pmf(1.5, 2.0, M=10 ** 12)
    with pytest.raises(SupportOverflow):
        sb.berg_pmf(1, 2.0, M=10 ** 12)


def _stieltjes_density(s, xs):
    """f(x) (1 + delta sin(2 pi m log x / sigma^2)), f the lognormal density, at x > 0."""
    s2 = s.sigma ** 2
    wiggle = 1.0 + s.delta * np.sin(2 * math.pi * s.m * np.log(xs) / s2)
    return sb.lognormal_density(xs, s2) * wiggle


def test_stieltjes_delta_zero_is_lognormal():
    s = sb.StieltjesDensity(1, 0.0, 1.0)
    xs = np.array([0.2, 1.0, 3.3])
    assert np.allclose(_stieltjes_density(s, xs), sb.lognormal_density(xs, 1.0))


def test_stieltjes_stays_nonnegative():
    s = sb.StieltjesDensity(1, 1.0, 1.0)
    xs = np.linspace(1e-6, 30.0, 50_001)
    assert np.all(_stieltjes_density(s, xs) >= -1e-15)


def test_stieltjes_validation():
    for m in (0, math.nan, math.inf):
        with pytest.raises(DomainError, match=r"m must be a positive integer"):
            sb.StieltjesDensity(m, 0.5, 1.0)
    with pytest.raises(ValueError):
        sb.StieltjesDensity(1, 1.5, 1.0)
    with pytest.raises(ValueError):
        sb.StieltjesDensity(1, 0.5, 0.0)
    # NaN and inf pass sigma <= 0; the quadrature then returned NaN
    for sigma in (math.nan, math.inf):
        with pytest.raises(DomainError, match=f"sigma must be finite, got {sigma}"):
            sb.StieltjesDensity(1, 0.5, sigma)


# -------------------------------------------------------------------
# mixing the orbits back into the lognormal

def test_mixture_normalizer_is_one():
    for c in (math.e, 2.0, 3.0):
        assert np.isclose(sb.mixture_normalizer(c), 1.0, atol=1e-6)


def test_mixture_normalizer_converges_geometrically_in_log_x():
    # in u = log x the integrand is a periodized normal density over one full period;
    # a linear trapezoid in x was off by 2.9e-10 at c = 1.5, 1e-2 at c = 1e4 and 5 at c = 1e6
    for c in (1.01, 2.0, math.e, 10.0, 1e4, 1e6):
        assert abs(sb.mixture_normalizer(c) - 1.0) <= 1e-14, c


def test_mixture_density_is_lognormal_times_theta():
    # h_c(b) = f(b) t(b, c) / k_c, f the lognormal density at sigma^2 = log c, t from
    # mpmath's theta and k_c = 1
    for b, c, theta in THETA_ORACLE:
        s2 = math.log(c)
        f = math.exp(-math.log(b) ** 2 / (2 * s2)) / (b * math.sqrt(2 * math.pi * s2))
        hc = sb.lognormal_density(b, s2) * sb.theta_t(b, c) / sb.mixture_normalizer(c)
        assert hc == pytest.approx(f * theta, rel=1e-13), (b, c)


def test_mixture_reconstruction():
    assert sb.mixture_reconstruction_check(math.e) < 1e-6
    assert sb.mixture_reconstruction_check(2.0) < 1e-6


def test_mixture_reconstruction_where_a_point_sits_on_an_orbit_slot():
    # 0.5, 1.7 and 4 are integer powers of these c; the slot search once landed on b = c
    for c in (2 ** (1 / 11), 1.7 ** (1 / 20), 4 ** (1 / 29)):
        assert sb.mixture_reconstruction_check(c) < 1e-12, c
    with pytest.raises(DomainError):
        sb.mixture_reconstruction_check(math.nan)
