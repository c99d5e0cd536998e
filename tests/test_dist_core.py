import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sizebias as sb
from sizebias.dist_core import binom_pmf, merge_atoms, poisson_pmf, poisson_reach, trapezoid
from sizebias.errors import DomainError, NoClosedForm, NoSampler, SupportOverflow, ZeroMean

RNG = np.random.Generator(np.random.Philox(20240817))


def random_dist(rng, n_atoms=None, lo=0.0, hi=10.0):
    k = n_atoms or rng.integers(2, 8)
    xs = np.sort(rng.uniform(lo, hi, size=k))
    while np.any(np.diff(xs) < 1e-6):
        xs = np.sort(rng.uniform(lo, hi, size=k))
    ps = rng.dirichlet(np.ones(k))
    return sb.DiscreteDist(xs, ps)


def _scipy_density(nd):
    """A continuous family's scipy pdf on a grid of step 1e-3 to its 1 - 1e-12 quantile.

    Infinite values at 0 become 0, and the grid is renormalized by the trapezoid rule.
    """
    from scipy import stats
    from scipy.integrate import trapezoid as sp_trapezoid
    frozen = {"exponential": stats.expon, "gamma": stats.gamma, "uniform01": stats.uniform,
              "beta": stats.beta,
              "lognormal": lambda mu, s2: stats.lognorm(math.sqrt(s2), scale=math.exp(mu))}
    law, h = frozen[nd.kind](*nd.params), 1e-3
    xs = np.arange(0.0, float(law.ppf(1 - 1e-12)) + h, h)
    vals = law.pdf(xs)
    vals = np.where(np.isfinite(vals), vals, 0.0)
    return sb.GridDensity(h, vals / sp_trapezoid(vals, dx=h))


# -------------------------------------------------------------------
# construction and validation

def test_dist_validation():
    with pytest.raises(ValueError):
        sb.DiscreteDist(np.array([2.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        sb.DiscreteDist(np.array([1.0, 2.0]), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        sb.DiscreteDist(np.array([1.0, 2.0]), np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        sb.DiscreteDist(np.array([-1.0, 2.0]), np.array([0.5, 0.5]))
    d = sb.DiscreteDist(np.array([-1.0, 2.0]), np.array([0.5, 0.5]), signed=True)
    assert d.mean() == 0.5


def test_merge_atoms_dedupes():
    xs, ps = sb.dist_core.merge_atoms([1.0, 1.0 + 1e-13, 2.0], [0.3, 0.3, 0.4])
    assert xs.size == 2
    assert np.isclose(ps[0], 0.6)


def _merge_atoms_loop(xs, ps, tol=1e-12):
    """The per-atom loop merge_atoms replaced, kept as its reference."""
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    order = np.argsort(xs, kind="stable")
    xs, ps = xs[order], ps[order]
    out_x, out_p = [], []
    for x, p in zip(xs, ps):
        with np.errstate(invalid="ignore"):       # inf - inf opens an atom, as NaN does
            joins = bool(out_x) and x - out_x[-1] <= tol
        if joins:
            out_p[-1] += p
        else:
            out_x.append(x)
            out_p.append(p)
    return np.array(out_x), np.array(out_p)


def test_merge_atoms_chain_splits_at_cluster_start():
    # every gap is under tol, but 1.2e-12 lies more than tol past 0
    xs, ps = merge_atoms([0.0, 0.6e-12, 1.2e-12, 1.8e-12], [0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(xs, [0.0, 1.2e-12])
    assert np.array_equal(ps, [0.1 + 0.2, 0.3 + 0.4])


def test_merge_atoms_matches_loop_reference():
    rng = np.random.Generator(np.random.Philox(77))
    for _ in range(20):
        n = int(rng.integers(1, 3000))
        ps = rng.random(n) * np.where(rng.random(n) < 0.2, -1.0, 1.0)
        lattice = rng.integers(0, max(1, n // 4), n).astype(float)
        distinct = rng.uniform(-5.0, 5.0, n)
        gaps = rng.choice([0.0, 0.3e-12, 0.7e-12, 1e-12, 2e-12, 1.0], n)
        chained = np.cumsum(gaps)[rng.permutation(n)]
        # integer points spanning fewer sites than points take the bincount path
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        signed = np.where(rng.random(n) < 0.3, zeros, rng.integers(-n // 8, n // 4 + 1, n))
        near_2_53 = 2.0 ** 53 + rng.integers(-n // 3, n // 3 + 1, n)
        zero_masses = np.where(rng.random(n) < 0.3, 0.0, ps)
        nonfinite = lattice.copy()
        nonfinite[rng.integers(0, n, 2)] = rng.choice([np.nan, np.inf, -np.inf], 2)
        for xs, w in ((lattice, ps), (distinct, ps), (chained, ps), (signed, ps),
                      (signed, zero_masses), (near_2_53, ps), (near_2_53, zero_masses),
                      (nonfinite, ps)):
            got, want = merge_atoms(xs, w), _merge_atoms_loop(xs, w)
            assert np.array_equal(got[0], want[0], equal_nan=True)
            assert np.array_equal(np.signbit(got[0]), np.signbit(want[0]))
            assert np.array_equal(got[1], want[1])
    assert all(a.size == 0 for a in merge_atoms([], []))


def test_merge_atoms_lattice_path_is_taken_only_on_finite_integers(monkeypatch):
    from sizebias import dist_core
    seen = []
    lattice_merge = dist_core._merge_lattice
    monkeypatch.setattr(dist_core, "_merge_lattice", lambda *a: seen.append(1) or lattice_merge(*a))
    ps = [0.25, 0.25, 0.0, 0.5]
    assert np.array_equal(merge_atoms([2.0, 0.0, 3.0, 2.0], ps)[1], [0.25, 0.75, 0.0])
    xs, _ = merge_atoms([1.0, -0.0, 0.0, 2.0], ps)
    assert seen == [1, 1] and np.signbit(xs[0])
    for xs in ([0.0, 1.0, np.nan, 2.0], [0.0, 1.0, np.inf, 2.0], [np.inf] * 4,
               [0.0, 0.5, 1.0, 2.0], [0.0, 10.0, 20.0, 30.0]):
        merge_atoms(xs, ps)
    assert seen == [1, 1]


def test_from_pmf_keeps_zeros():
    d = sb.DiscreteDist.from_pmf([0.5, 0.0, 0.5])
    assert d.xs.size == 3
    assert d.prob_at(1.0) == 0.0


# -------------------------------------------------------------------
# transform basics

def test_size_bias_two_point():
    # masses get reweighted by x / mean
    d = sb.DiscreteDist.from_pairs([(1.0, 0.5), (3.0, 0.5)])
    star = sb.size_bias_discrete(d)
    assert np.allclose(star.ps, [0.25, 0.75])
    assert np.allclose(star.xs, d.xs)


def test_size_bias_rejects_zero_mean():
    with pytest.raises(ZeroMean):
        sb.size_bias_discrete(sb.DiscreteDist(np.array([0.0]), np.array([1.0])))


def test_moment_shift_fixed():
    d = sb.DiscreteDist.from_pairs([(0.0, 0.2), (1.0, 0.3), (4.0, 0.5)])
    star = sb.size_bias_discrete(d)
    for k in range(5):
        assert np.isclose(sb.moment(star, k), sb.moment(d, k + 1) / d.mean(), rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_moment_shift_property(seed):
    d = random_dist(np.random.Generator(np.random.Philox(seed)))
    star = sb.size_bias_discrete(d)
    m1 = d.mean()
    for k in range(5):
        want = sb.moment(d, k + 1) / m1
        assert np.isclose(sb.moment(star, k), want, rtol=1e-10)


def test_scale_commutes_with_transform():
    d = random_dist(RNG)
    for c in (0.25, 1.0, 7.5):
        left = sb.size_bias_discrete(sb.scale(d, c))
        right = sb.scale(sb.size_bias_discrete(d), c)
        assert sb.max_atom_gap(left, right) <= 1e-12
    with pytest.raises(DomainError, match=r"scale factor must be positive"):
        sb.scale(d, -1.0)


def test_inverse_round_trip():
    for _ in range(20):
        d = random_dist(RNG, lo=0.1)
        assert sb.max_atom_gap(sb.inverse_size_bias(sb.size_bias_discrete(d)), d) <= 1e-12


def test_inverse_rejects_atom_at_zero():
    z = sb.DiscreteDist.from_pairs([(0.0, 0.5), (1.0, 0.5)])
    with pytest.raises(DomainError, match=r"preimage exists only for strictly positive support"):
        sb.inverse_size_bias(z)


def test_dominance():
    for _ in range(20):
        assert sb.dominance_check(random_dist(RNG))


def test_moment_negative_with_zero_atom():
    d = sb.DiscreteDist.from_pairs([(0.0, 0.5), (1.0, 0.5)])
    with pytest.raises(DomainError, match=r"moment k=-1 undefined with an atom at 0"):
        sb.moment(d, -1)


# -------------------------------------------------------------------
# closed forms vs tabulation

CLOSED_FORMS = [
    ("poisson", (2.0,), 1.0, "poisson", (2.0,)),
    ("bernoulli", (0.3,), 0.0, "dirac", (1.0,)),
    ("binomial", (6.0, 0.4), 1.0, "binomial", (5.0, 0.4)),
    ("binomial", (1.0, 0.4), 0.0, "dirac", (1.0,)),
    ("exponential", (), 0.0, "gamma", (2.0,)),
    ("gamma", (1.5,), 0.0, "gamma", (2.5,)),
    ("lognormal", (0.0, 1.0), 0.0, "lognormal", (1.0, 1.0)),
    ("uniform01", (), 0.0, "beta", (2.0, 1.0)),
    ("dirac", (3.0,), 0.0, "dirac", (3.0,)),
    ("beta", (2.0, 3.0), 0.0, "beta", (3.0, 3.0)),
]


def test_closed_form_table():
    for kind, params, shift, out_kind, out_params in CLOSED_FORMS:
        got = sb.closed_form_size_bias(sb.NamedDist(kind, params))
        assert got.shift == shift
        assert got.base.kind == out_kind
        assert got.base.params == out_params


def test_no_closed_form():
    for kind, params in (("borel", (0.3,)), ("geometric", (0.4,))):
        with pytest.raises(NoClosedForm):
            sb.closed_form_size_bias(sb.NamedDist(kind, params))


def test_closed_form_matches_tabulated():
    # numeric transform of the tabulated pmf lands on the shifted family
    for kind, params in (("poisson", (2.0,)), ("binomial", (6.0, 0.4)), ("bernoulli", (0.3,))):
        nd = sb.NamedDist(kind, params)
        star = sb.size_bias_discrete(sb.tabulate_named(nd))
        cf = sb.closed_form_size_bias(nd)
        shifted = sb.tabulate_named(cf.base)
        ref = sb.DiscreteDist(shifted.xs + cf.shift, shifted.ps,
                              tail_bound=shifted.tail_bound)
        assert sb.max_atom_gap(star, ref) <= 1e-9


def test_tabulate_matches_scipy():
    from scipy.stats import poisson, binom
    d = sb.tabulate_named(sb.NamedDist("poisson", (3.0,)))
    assert np.allclose(d.ps[:10], poisson.pmf(np.arange(10), 3.0), atol=1e-13)
    d = sb.tabulate_named(sb.NamedDist("binomial", (5.0, 0.3)))
    assert np.allclose(d.ps, binom.pmf(np.arange(6), 5, 0.3), atol=1e-13)


def test_geometric_tabulation():
    d = sb.tabulate_named(sb.NamedDist("geometric", (0.4,)))
    ks = np.arange(5)
    assert np.allclose(d.ps[:5], 0.4 * 0.6 ** ks, rtol=1e-12)
    assert np.isclose(d.mean(), 0.6 / 0.4, atol=1e-9)


def test_closed_form_matches_numeric_density():
    # the numeric transform of the tabulated density lands on the closed-form family
    for kind, params, shift, _, _ in CLOSED_FORMS:
        if kind in ("poisson", "bernoulli", "binomial", "dirac"):
            continue
        nd = sb.NamedDist(kind, params)
        star = sb.size_bias_density(_scipy_density(nd))
        ref = _scipy_density(sb.closed_form_size_bias(nd).base)
        n = min(star.values.size, ref.values.size)
        assert shift == 0.0 and star.h == ref.h
        assert np.abs(star.values[:n] - ref.values[:n]).max() <= 1e-9, kind


def test_sampler_means():
    rng = np.random.default_rng(3)
    sampled = set()
    for kind, params, *_ in CLOSED_FORMS + [("geometric", (0.4,), None), ("borel", (0.3,), None)]:
        nd = sb.NamedDist(kind, params)
        state = rng.bit_generator.state
        try:
            x = nd.sample(rng, (100, 200))
        except NoSampler:
            assert rng.bit_generator.state == state, kind
            continue
        sampled.add(kind)
        assert x.shape == (100, 200)
        se = x.std() / math.sqrt(x.size)
        assert abs(x.mean() - sb.named_mean(nd)) <= 5 * se, kind
    assert sampled == {"exponential", "gamma", "lognormal", "uniform01", "dirac", "beta"}


def test_named_mean_table():
    cases = [
        (("poisson", (2.5,)), 2.5),
        (("bernoulli", (0.3,)), 0.3),
        (("binomial", (6.0, 0.4)), 2.4),
        (("geometric", (0.4,)), 1.5),
        (("gamma", (1.7,)), 1.7),
        (("exponential", ()), 1.0),
        (("lognormal", (0.0, 1.0)), math.exp(0.5)),
        (("uniform01", ()), 0.5),
        (("borel", (0.5,)), 2.0),
        (("dirac", (3.25,)), 3.25),
        (("beta", (2.0, 1.0)), 2.0 / 3.0),
        # a + b overflows; the mean is taken on the halves
        (("beta", (1e308, 1e308)), 0.5),
        (("beta", (1.5e308, 0.5e308)), 0.75),
    ]
    for (kind, params), want in cases:
        assert np.isclose(sb.named_mean(sb.NamedDist(kind, params)), want, rtol=1e-12)
    # e^1000.5 and 1/1e-320 are past the double range
    for kind, params, shown in (("lognormal", (1000.0, 1.0), "lognormal(1000, 1)"),
                                ("geometric", (1e-320,), "geometric(9.99989e-321)")):
        with pytest.raises(SupportOverflow, match=rf"mean of {re.escape(shown)} is past"):
            sb.named_mean(sb.NamedDist(kind, params))


# -------------------------------------------------------------------
# densities

def test_uniform_density_transform():
    g = _scipy_density(sb.NamedDist("uniform01", ()))
    star = sb.size_bias_density(g)
    xs = star.grid()
    # density of the transform is 2x on (0,1)
    assert np.allclose(star.values, 2.0 * xs, atol=1e-9)
    assert np.isclose(star.integral(), 1.0, atol=1e-9)


def test_exponential_density_transform():
    g = _scipy_density(sb.NamedDist("exponential", ()))
    star = sb.size_bias_density(g)
    xs = star.grid()[1:]
    assert np.allclose(star.values[1:], xs * np.exp(-xs), atol=1e-6)


# -------------------------------------------------------------------
# characteristic functions

def _size_biased_char_fn_fd(d, u):
    """The transform's characteristic function as phi'(u)/(i*mean), by central difference."""
    step = 1e-5
    dphi = (sb.char_fn(d, u + step) - sb.char_fn(d, u - step)) / (2 * step)
    return dphi / (1j * sb.moment(d, 1))


def test_char_fn_two_paths():
    d = random_dist(RNG)
    for u in (-10.0, -3.2, -0.5, 0.5, 1.0, 4.7, 10.0):
        direct = sb.char_fn(sb.size_bias_discrete(d), u)
        fd = _size_biased_char_fn_fd(d, u)
        assert abs(direct - fd) <= 1e-6


def test_grid_density_moment_scale_and_char_fn():
    # 0.75 Gamma(2) on [0, 40] at step 1e-3 plus an atom of 0.25 at 0
    h = 1e-3
    xs = h * np.arange(40_001)
    g = sb.GridDensity(h, 0.75 * xs * np.exp(-xs), atom0=0.25)
    mass = g.atom0 + g.integral()
    assert sb.moment(g, 1) == g.mean()
    assert sb.moment(g, 0) == mass
    assert sb.moment(g, 2) == pytest.approx(0.75 * 6.0, rel=1e-6)
    with pytest.raises(DomainError, match=r"grid densities include the origin"):
        sb.moment(g, -1)
    s = sb.scale(g, 2.5)
    assert s.atom0 + s.integral() == pytest.approx(mass, rel=1e-14)
    assert s.mean() == pytest.approx(2.5 * g.mean(), rel=1e-14)
    assert sb.char_fn(g, 0.0) == pytest.approx(mass, rel=1e-15)
    assert mass == pytest.approx(1.0, abs=1e-6)
    # E e^{iuX} = 0.25 + 0.75 / (1 - iu)^2; the trapezoid is off by O(h^2)
    for u in (0.5, -1.0, 3.0):
        assert abs(sb.char_fn(g, u) - (0.25 + 0.75 / (1 - 1j * u) ** 2)) < 1e-6


def test_char_fn_at_zero():
    d = random_dist(RNG)
    assert sb.char_fn(d, 0.0) == 1.0 + 0.0j
    assert abs(sb.char_fn(sb.size_bias_discrete(d), 0.0) - 1.0) < 1e-12


# -------------------------------------------------------------------
# conditioning and borel

def test_conditioning_recovers_transform():
    rng = np.random.Generator(np.random.Philox(11))
    vals = np.array([0.2, 0.4, 0.8])
    d = sb.DiscreteDist(vals, np.array([0.5, 0.3, 0.2]))
    n = 200_000
    x = d.sample(rng, n)
    flags = rng.random(n) < x
    # x plays P(A | F) and flags records A: the law of x given A is the transform
    xs, counts = np.unique(x[flags], return_counts=True)
    est = sb.DiscreteDist(xs, counts / counts.sum())
    star = sb.size_bias_discrete(d)
    for v in vals:
        se = math.sqrt(star.prob_at(v) * (1 - star.prob_at(v)) / flags.sum())
        assert abs(est.prob_at(v) - star.prob_at(v)) < 5 * se


def test_borel_mean():
    # subcritical branching total progeny has mean 1/(1-rate)
    d = sb.borel_pmf(0.5)
    assert np.isclose(d.mean(), 2.0, atol=1e-8)
    assert sb.borel_pmf(0.0).xs.tolist() == [1.0]


def test_borel_tail_guard():
    # the table doubles from 200 atoms until the measured tail is below TAIL_CUT
    from sizebias.dist_core import GRID_POINT_CAP, TAIL_CUT
    for lam, atoms in ((0.6, 200), (0.65, 400), (0.9, 6400), (0.99, 409_600)):
        d = sb.borel_pmf(lam)
        assert d.xs.size == atoms and d.xs[-1] == atoms, lam
        assert 0.0 <= d.tail_bound <= TAIL_CUT, lam
        assert d.mean() == pytest.approx(1.0 / (1.0 - lam), rel=1e-9, abs=0), lam
    # rate 0.999 would need 200 * 2^16 atoms, over the cap
    assert 200 * 2 ** 15 <= GRID_POINT_CAP < 200 * 2 ** 16
    with pytest.raises(SupportOverflow):
        sb.borel_pmf(0.999)


# -------------------------------------------------------------------
# serialization

def test_json_round_trip_atoms():
    d = random_dist(RNG)
    back = sb.dist_from_json(sb.dist_to_json(d))
    assert sb.max_atom_gap(d, back) <= 1e-15


def test_json_round_trip_grid():
    g = _scipy_density(sb.NamedDist("uniform01", ()))
    back = sb.dist_from_json(sb.dist_to_json(g))
    assert back.h == g.h
    assert np.array_equal(back.values, g.values)


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        sb.dist_from_json({"something": 1})


# -------------------------------------------------------------------
# closed-form numerics against scipy, which the package no longer imports

def test_trapezoid_is_scipys_arithmetic():
    from scipy.integrate import trapezoid as sp_trapezoid
    rng = np.random.Generator(np.random.Philox(5))
    for n in (2, 3, 17, 1000, 100_001):
        y = rng.standard_normal(n)
        x = np.cumsum(rng.uniform(0.0, 1.0, n))
        z = y + 1j * rng.standard_normal(n)
        assert trapezoid(y, dx=1e-3) == sp_trapezoid(y, dx=1e-3)
        assert trapezoid(y, x) == sp_trapezoid(y, x)
        assert trapezoid(z, dx=0.37) == sp_trapezoid(z, dx=0.37)
        assert trapezoid(z, x) == sp_trapezoid(z, x)
    assert trapezoid(np.arange(5)) == sp_trapezoid(np.arange(5))


def test_binom_pmf_matches_scipy():
    from scipy.stats import binom
    ps = (1e-3, 0.01, 0.1, 0.3, 0.5, 0.77, 0.99, 0.999)
    for n in range(1, 101):
        for p in ps:
            want = binom.pmf(np.arange(n + 1), n, p)
            assert np.allclose(binom_pmf(n, p), want, rtol=0, atol=1e-13), (n, p)
    for n in (150, 500, 1000, 2000):
        for p in ps:
            got, want = binom_pmf(n, p), binom.pmf(np.arange(n + 1), n, p)
            big = want > 1e-300
            assert np.allclose(got[big], want[big], rtol=1e-11, atol=0), (n, p)
    assert binom_pmf(4, 1.0).tolist() == [0.0, 0.0, 0.0, 0.0, 1.0]


def test_poisson_pmf_matches_scipy():
    from scipy.stats import poisson
    for lam in (1e-3, 0.1, 0.5, 1.0, 3.0, 7.5, 20.0, 64.0, 100.0):
        ks = np.arange(poisson_reach(lam) + 1)
        assert np.allclose(poisson_pmf(lam, ks[-1]), poisson.pmf(ks, lam), rtol=0, atol=1e-13)
    for lam in (150.0, 333.3, 500.0, 699.5, 700.0):
        ks = np.arange(poisson_reach(lam) + 1)
        got, want = poisson_pmf(lam, ks[-1]), poisson.pmf(ks, lam)
        big = want > 1e-300
        assert np.allclose(got[big], want[big], rtol=1e-11, atol=0), lam


def test_poisson_tabulation_cut_matches_scipy_quantile():
    from scipy.stats import poisson
    for lam in np.concatenate([np.linspace(0.01, 5.0, 60), np.linspace(5.0, 1500.0, 60)]):
        d = sb.tabulate_named(sb.NamedDist("poisson", (float(lam),)))
        assert d.xs[-1] == int(poisson.ppf(1 - 1e-12 / 4, lam)) + 10, lam


def test_non_finite_inputs_rejected():
    with pytest.raises(ValueError):
        sb.DiscreteDist(np.array([0.0, np.nan]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        sb.DiscreteDist(np.array([0.0, np.inf]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        sb.DiscreteDist(np.array([0.0, 1.0]), np.array([np.nan, 0.5]))
    with pytest.raises(ValueError):
        sb.GridDensity(float("nan"), np.ones(3))
    with pytest.raises(ValueError):
        sb.GridDensity(float("inf"), np.ones(3))
    with pytest.raises(ValueError):
        sb.GridDensity(0.5, np.array([1.0, np.nan, 1.0]))
    for kind, params in (("poisson", (np.nan,)), ("dirac", (np.inf,)),
                         ("binomial", (np.inf, 0.5)), ("lognormal", (0.0, np.inf))):
        with pytest.raises(ValueError):
            sb.NamedDist(kind, params)


# -------------------------------------------------------------------
# the saddle-point kernel against 50-digit mpmath

def _mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    return mp


def _stirlerr_exact(mp, k):
    return mp.loggamma(k + 1) - (k + mp.mpf(1) / 2) * mp.log(k) + k - mp.log(2 * mp.pi) / 2


def test_stirlerr_table_and_series_match_mpmath():
    from sizebias.dist_core import _STIRLERR, stirlerr
    mp = _mpmath()
    assert _STIRLERR.size == 16 and _STIRLERR[0] == 0.0    # k = 0 is never read
    for k in range(1, 16):
        assert _STIRLERR[k] == float(_stirlerr_exact(mp, k)), k
    # the five-term series is 1.1e-16 off at k = 16, an error in the exponent of a mass
    for k in (*range(1, 41), 100, 1000, 12345, 10 ** 6, 10 ** 9):
        assert abs(float(stirlerr(k)) - float(_stirlerr_exact(mp, k))) <= 2e-16, k


def test_bd0_matches_mpmath():
    from sizebias.dist_core import bd0
    mp = _mpmath()
    rng = np.random.default_rng(6)
    # v = (x - m)/(x + m) across both branches, at every scale the masses use and beyond
    m = np.exp(rng.uniform(math.log(1e-3), math.log(1e7), 400))
    v = rng.uniform(-0.9, 0.9, 400)
    x = m * (1 + v) / (1 - v)
    got = bd0(x, m)
    for xi, mi, g in zip(x, m, got):
        X, M = mp.mpf(xi), mp.mpf(mi)
        assert g == pytest.approx(float(X * mp.log(X / M) + M - X), rel=1e-13, abs=0), (xi, mi)
    # x/m underflows: log x - log m takes over
    assert bd0(1e-300, 1e300) == pytest.approx(1e300, rel=1e-15)
    assert bd0(3.0, 3.0) == 0.0


def _check_masses(mp, got, ks, exact_log):
    for k in ks:
        want = mp.exp(exact_log(k))
        if want > mp.mpf("1e-300"):
            assert abs(got[k] - want) <= 1e-12 * want, k


def test_binom_pmf_matches_mpmath():
    mp = _mpmath()
    rng = np.random.default_rng(7)
    for n in (1, 10, 150, 5000, 10 ** 5, 10 ** 6):
        for p in (0.01, 0.3, 0.5, 0.97):
            lp, lq = mp.log(mp.mpf(p)), mp.log(1 - mp.mpf(p))
            got = binom_pmf(n, p)
            mode = int(n * p)
            # the mode, both branch edges of bd0, the ends, and random points
            ks = {0, n, *range(max(mode - 3, 0), min(mode + 4, n + 1)),
                  *rng.integers(0, n + 1, 12).tolist()}
            for v in (-0.5, -0.1, 0.1, 0.5):
                ks |= {k for k in range(int(n * p * (1 + v) / (1 - v)) - 1,
                                        int(n * p * (1 + v) / (1 - v)) + 2) if 0 <= k <= n}
            if n <= 150:
                ks = range(n + 1)
            _check_masses(mp, got, ks, lambda k: (mp.loggamma(n + 1) - mp.loggamma(k + 1)
                                                  - mp.loggamma(n - k + 1) + k * lp + (n - k) * lq))


def test_poisson_pmf_matches_mpmath():
    mp = _mpmath()
    for lam in (1e-3, 0.3, 7.5, 150.0, 999.0, 2e4, 1e6):
        hi = 3 * poisson_reach(lam)
        got = poisson_pmf(lam, hi)
        L = mp.mpf(lam)
        ks = set(np.linspace(0, hi, 60).astype(int).tolist())
        for v in (-0.5, -0.1, 0.1, 0.5):
            ks |= {int(lam * (1 + v) / (1 - v)) + d for d in (0, 1)}
        _check_masses(mp, got, sorted(ks), lambda k: -L + k * mp.log(L) - mp.loggamma(k + 1))


def test_borel_pmf_matches_mpmath():
    mp = _mpmath()
    for lam in (0.05, 0.5, 0.8, 0.9):
        d = sb.borel_pmf(lam)
        n = d.xs.size       # masses are renormalized over the n atoms kept
        L = mp.mpf(lam)
        exact = [mp.exp(-L * i + (i - 1) * mp.log(L * i) - mp.loggamma(i + 1))
                 for i in range(1, n + 1)]
        total = mp.fsum(exact)
        for i in sorted({1, 2, 3, 10, 50, 200, 1000, n // 2, n} & set(range(1, n + 1))):
            want = exact[i - 1] / total
            if want > mp.mpf("1e-300"):
                assert abs(d.ps[i - 1] - want) <= 1e-12 * want, (lam, i)


def test_binom_pmf_total_mass_is_one():
    # the log-factorial route drifted 1.7e-12 from one at n = 5000
    for n in (5000, 10 ** 5, 10 ** 6):
        for p in (0.3, 0.5):
            assert abs(math.fsum(binom_pmf(n, p)) - 1.0) <= 1e-14, (n, p)
    d = sb.tabulate_named(sb.NamedDist("binomial", (5000, 0.5)))
    assert d.mean() == pytest.approx(2500.0, rel=1e-13)


# the elementwise bd0 and stirlerr that evaluated every branch over every entry,
# kept to be matched bit for bit
def _ref_stirlerr(k):
    from sizebias.dist_core import _STIRLERR
    big = np.maximum(k, 16.0)
    kk = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / kk) / kk) / kk) / kk) / big
    return np.where(k <= 15, _STIRLERR[np.minimum(k, 15).astype(int)], series)


def _ref_bd0(x, m):
    x, m = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(m, dtype=float))
    shape = x.shape
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.where(np.isinf(x + m), 0.5, 1.0).ravel()
        x, m = s * x.ravel(), s * m.ravel()
        r = x / m
        out = x * np.where(r < np.finfo(float).tiny, np.log(x) - np.log(m), np.log(r)) + m - x
        near = np.abs(x - m) < np.where((1e3 <= x + m) & (x + m < 1e5), 0.5, 0.1) * (x + m)
    xn, mn = x[near], m[near]
    v = (xn - mn) / (xn + mn)
    v2, total, term = v * v, (xn - mn) * v, 2 * xn * v
    for j in range(1, 64):
        term *= v2
        nxt = total + term / (2 * j + 1)
        if np.array_equal(nxt, total):
            break
        total = nxt
    out[near] = total
    return (out / s).reshape(shape)


def _ref_poisson_mass(k, mu):
    with np.errstate(divide="ignore", invalid="ignore"):
        mass = np.exp(-_ref_stirlerr(k) - _ref_bd0(k, mu)) / np.sqrt(2 * math.pi * k)
    return np.where(k == 0, np.exp(-mu), mass)


def test_masses_match_the_every_branch_reference_bit_for_bit():
    from sizebias.dist_core import _poisson_mass, bd0, stirlerr
    for n in (1, 10, 777, 1000, 10 ** 5):
        for p in (0.01, 0.3, 0.5, 1.0):
            ks = np.arange(n + 1.0)
            want = (_ref_poisson_mass(ks, n * p) * _ref_poisson_mass(n - ks, n * (1 - p))
                    / _ref_poisson_mass(n, n))
            assert np.array_equal(binom_pmf(n, p), want), (n, p)
    for lam in (1e-3, 0.3, 7.5, 150.0, 999.0, 2e4, 1e6):
        ks = np.arange(3 * poisson_reach(lam) + 1.0)
        assert np.array_equal(poisson_pmf(lam, ks[-1]), _ref_poisson_mass(ks, lam)), lam
    for lam in (0.05, 0.5, 0.8):
        ks = np.arange(1.0, 2001)
        assert np.array_equal(_poisson_mass(ks, lam * ks), _ref_poisson_mass(ks, lam * ks)), lam
    rng = np.random.default_rng(3)
    x = np.concatenate([10 ** rng.uniform(-310, 308, 2000), rng.uniform(0, 2e5, 2000),
                        [0.0, 1e308, 1.7e308, 5e-324, 3.0]])
    m = np.concatenate([10 ** rng.uniform(-310, 308, 2000), rng.uniform(0, 2e5, 2000),
                        [1.0, 1.2e308, 1.7e308, 1e300, 3.0]])
    with np.errstate(over="ignore"):
        for a, b in ((x, m), (x, 7.5), (7.5, m), (1e308, 1.2e308), (1e-300, 1e300), (4.0, 8.0)):
            assert np.array_equal(bd0(a, b), _ref_bd0(a, b), equal_nan=True)
            assert np.shape(bd0(a, b)) == np.shape(_ref_bd0(a, b))
    ks = np.concatenate([np.arange(0.0, 100), rng.integers(0, 10 ** 9, 1000).astype(float)])
    assert np.array_equal(stirlerr(ks), _ref_stirlerr(ks))
    assert np.shape(stirlerr(17)) == ()


def test_binom_pmf_memory():
    # the every-branch bd0 and stirlerr held twelve arrays of n + 1 doubles at once, the
    # per-branch ones 8.25; in-place Horner steps and closed form leave about 5.6
    import tracemalloc
    n = 10 ** 6
    tracemalloc.start()
    try:
        binom_pmf(n, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * (n + 1)
