"""Acceptance gate: every advertised guarantee, one pass/fail line each.

Each test prints ``[PASS] criterion NN <name>`` (or FAIL) before its
assertion so a plain ``pytest -v -s tests/test_acceptance.py`` doubles
as a checklist.  Tolerances here are the published ones, not looser.
"""

import math
from itertools import combinations

import numpy as np
from scipy.stats import poisson

import sizebias as sb


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num:02d} {name} {detail}".rstrip())
    assert ok, f"criterion {num:02d} {name} {detail}"


def _random_dist(rng, n_atoms=None, lo=0.0, hi=10.0):
    n = int(n_atoms or rng.integers(2, 8))
    xs = np.sort(rng.uniform(lo, hi, n))
    while np.any(np.diff(xs) < 1e-6):
        xs = np.sort(rng.uniform(lo, hi, n))
    return sb.DiscreteDist(xs, rng.dirichlet(np.ones(n)))


def test_criterion_01_moment_shift():
    rng = np.random.default_rng(np.random.Philox(101))
    worst = 0.0
    for _ in range(100):
        d = _random_dist(rng)
        star = sb.size_bias_discrete(d)
        for k in range(5):
            want = sb.moment(d, k + 1) / d.mean()
            got = sb.moment(star, k)
            worst = max(worst, abs(got - want) / abs(want))
    _report(1, "moment shift", worst <= 1e-10, f"(worst rel {worst:.2e})")


def test_criterion_02_sum_decomposition():
    rng = np.random.default_rng(np.random.Philox(102))
    worst = 0.0
    for _ in range(100):
        terms = tuple(_random_dist(rng, n_atoms=int(rng.integers(2, 5)), hi=4.0)
                      for _ in range(int(rng.integers(2, 5))))
        via_terms = sb.size_biased_sum_pmf(sb.IndependentSum(terms))
        direct = sb.size_bias_discrete(sb.convolve_all(list(terms)))
        worst = max(worst, sb.max_atom_gap(via_terms, direct))
    _report(2, "sum decomposition", worst <= 1e-10, f"(worst atom gap {worst:.2e})")


def test_criterion_03_product_rule():
    rng = np.random.default_rng(np.random.Philox(103))
    worst = 0.0
    for _ in range(100):
        factors = [_random_dist(rng, n_atoms=int(rng.integers(2, 4)), lo=0.2, hi=4.0)
                   for _ in range(int(rng.integers(2, 4)))]
        via_factors = sb.size_biased_product_pmf(factors)
        direct = sb.size_bias_discrete(sb.product_pmf(factors))
        worst = max(worst, sb.max_atom_gap(via_factors, direct))
    _report(3, "product rule", worst <= 1e-10, f"(worst atom gap {worst:.2e})")


def test_criterion_04_id_round_trip():
    worst = 0.0
    for levy in (sb.LevyRepr(2.0, 0.0, ((1.0, 1.2), (2.0, 0.4))),
                 sb.LevyRepr(1.0, 0.0, ((1.0, 0.7), (3.0, 0.1))),
                 sb.LevyRepr(0.8, 0.0, ((2.0, 0.4),))):
        res = sb.extract_increment(sb.pmf_recursion(levy, 60))
        assert res.is_id
        got = dict(res.jump_rates())
        for y, r in levy.jumps:
            worst = max(worst, abs(got.get(y, 0.0) - r))
    ok = worst <= 1e-8

    witness = sb.extract_increment(sb.DiscreteDist.from_pmf([0.25, 0.5, 0.25]))
    ok = ok and not witness.is_id and witness.witness_index == 2
    ok = ok and abs(witness.witness_value - (-2.0)) <= 1e-10

    poi = sb.extract_increment(sb.pmf_recursion(sb.LevyRepr(1.5, 0.0, ((1.0, 1.5),)), 50))
    ok = ok and poi.is_id and abs(poi.a - 1.5) <= 1e-8
    ok = ok and abs(poi.increment.prob_at(1.0) - 1.0) <= 1e-8
    _report(4, "divisibility round trip", ok, f"(worst rate gap {worst:.2e})")


def test_criterion_05_dickman():
    g = sb.dickman_solve(1.0)
    eg = math.exp(0.5772156649015329)
    seg = np.asarray(g.values)[1:1001] * eg        # the open-left segment (0, 1]
    c_err = float(np.max(np.abs(seg - 1.0)))
    at2 = g.values[2000] * eg
    v_err = abs(at2 - (1.0 - math.log(2.0)))
    m_err = abs(g.atom0 + g.integral() - 1.0)
    mean_err = abs(g.mean() - 1.0)
    ok = c_err <= 1e-4 and v_err <= 1e-4 and m_err <= 1e-4 and mean_err <= 1e-3
    _report(5, "dickman solution", ok,
            f"(const {c_err:.2e}, at2 {v_err:.2e}, mass {m_err:.2e}, mean {mean_err:.2e})")


def test_criterion_06_buchstab():
    ok = True
    worst = 0.0
    for a, b in ((1.0, 0.5), (0.5, 0.25), (2.0, 0.4)):
        g = sb.buchstab_solve(a, b)
        ok = ok and g.atom0 == b ** (a / (1.0 - b))
        worst = max(worst, abs(g.atom0 + g.integral() - 1.0))
    _report(6, "buchstab atom and mass", ok and worst <= 1e-4, f"(mass gap {worst:.2e})")


def test_criterion_07_orbit_moments():
    worst = 0.0
    checks = True
    for b, c in ((1.0, math.e), (1.3, 2.0)):
        o = sb.orbit_pmf(b, c)
        for k in range(4):
            worst = max(worst, abs(sb.orbit_moment(o, k) - c ** (k * k / 2)) / c ** (k * k / 2))
        checks = checks and sb.orbit_size_bias_check(o)
    for s in (1, -1):
        d = sb.berg_pmf(s, 2.0)
        for k in range(4):
            worst = max(worst, abs(sb.moment(d, k) - 2.0 ** (k * k / 2)) / 2.0 ** (k * k / 2))
        checks = checks and not sb.orbit_size_bias_check(d)
    _report(7, "orbit vs alternating moments", checks and worst <= 1e-8,
            f"(worst rel {worst:.2e})")


def test_criterion_08_mixture_reconstruction():
    k_err = abs(sb.mixture_normalizer(math.e) - 1.0)
    gap = sb.mixture_reconstruction_check(math.e)
    _report(8, "lognormal mixture", k_err <= 1e-6 and gap <= 1e-6,
            f"(k_c {k_err:.2e}, density gap {gap:.2e})")


def test_criterion_09_midzuno_unbiased():
    rng = np.random.default_rng(np.random.Philox(109))
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 9))
        pop = sb.Population(rng.uniform(0.05, 4.0, n), rng.normal(size=n))
        want = pop.ys.sum() / pop.xs.sum()
        for m in range(1, n + 1):
            got = sb.exact_expectation(pop, m)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _report(9, "midzuno unbiasedness", worst <= 1e-12, f"(worst {worst:.2e})")


def test_criterion_10_skorohod_exit():
    rng = np.random.default_rng(np.random.Philox(110))
    worst = 0.0
    t_worst = 0.0
    for i in range(100):
        kn, kp = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        xn = -np.sort(rng.uniform(0.2, 3.0, kn))[::-1]
        xp = np.sort(rng.uniform(0.2, 3.0, kp))
        xs = np.concatenate([xn, [0.0], xp]) if i % 3 == 0 else np.concatenate([xn, xp])
        ps = rng.dirichlet(np.ones(xs.size))
        neg = xs < 0
        xs[neg] *= float((xs[~neg] @ ps[~neg]) / (-xs[neg] @ ps[neg]))
        x = sb.DiscreteDist(xs, ps, signed=True)
        sc = sb.skorohod_coupling(x)
        worst = max(worst, sb.max_atom_gap(sb.skorohod_exit_pmf(sc), x))
        m2 = float(x.xs ** 2 @ x.ps)
        t_worst = max(t_worst, abs(sb.expected_exit_time(sc) - m2) / m2)
    _report(10, "skorohod exit identity", worst <= 1e-12 and t_worst <= 1e-12,
            f"(exit gap {worst:.2e}, E[UV] rel {t_worst:.2e})")


def test_criterion_11_stein_grid():
    ok = True
    for n in (1, 2, 5, 10, 20):
        for p in (0.05, 0.1, 0.2, 0.3):
            bound, exact = sb.binomial_poisson_check(n, p)
            ok = ok and exact <= bound * (1 + 1e-12) + 1e-15
    _report(11, "poisson approximation bound", ok)


def test_criterion_12_concentration_ordering():
    ok = True
    for a in (1.0, 2.0, 4.0, 8.0):
        for x in range(int(a) + 1, int(a) + 11):
            tight, gauss = sb.concentration_upper(sb.ConcentrationParams(a, 1.0, x))
            ok = ok and sb.poisson_upper_tail(a, x) <= tight <= gauss
        for x in range(1, int(a) + 1):
            tight, gauss = sb.concentration_lower(sb.ConcentrationParams(a, 1.0, x))
            ok = ok and sb.poisson_lower_tail(a, x) <= tight <= gauss
    _report(12, "concentration ordering", ok)


def test_criterion_13_renewal_covering():
    rng = np.random.default_rng(np.random.Philox(113))
    out = sb.simulate_renewal_inspection(sb.NamedDist("exponential", ()), 60.0, 100_000, rng)
    lengths = out.covering_length
    se = lengths.std(ddof=1) / math.sqrt(lengths.size)
    gap = abs(lengths.mean() - 2.0)
    _report(13, "inspection covering length", gap < 4 * se,
            f"(mean {lengths.mean():.4f}, 4se {4 * se:.4f})")
