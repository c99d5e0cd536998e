import math

import numpy as np
import pytest
from scipy import stats

import sizebias as sb
from sizebias.errors import ConstantInput, DomainError, HorizonTooShort, NonzeroMean, ZeroMean

RNG = np.random.default_rng(np.random.Philox(20240821))


def random_mean_zero(rng, with_zero=False):
    kn = int(rng.integers(1, 4))
    kp = int(rng.integers(1, 4))
    xn = -np.sort(rng.uniform(0.2, 3.0, kn))[::-1]
    xp = np.sort(rng.uniform(0.2, 3.0, kp))
    pn = rng.dirichlet(np.ones(kn)) * rng.uniform(0.2, 0.5)
    pp = rng.dirichlet(np.ones(kp)) * rng.uniform(0.2, 0.5)
    xs = [*xn, *xp]
    ps = [*pn, *pp]
    if with_zero:
        xs = [*xn, 0.0, *xp]
        ps = [*pn, 0.1, *pp]
    ps = np.array(ps) / np.sum(ps)
    xs = np.array(xs)
    # balance the negative side so the mean vanishes to rounding
    neg = xs < 0
    xs[neg] *= float((xs[~neg] @ ps[~neg]) / (-xs[neg] @ ps[neg]))
    return sb.DiscreteDist(xs, ps, signed=True)


# -------------------------------------------------------------------
# the embedding coupling

def test_coupling_two_point_fixture():
    x = sb.DiscreteDist(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]), signed=True)
    sc = sb.skorohod_coupling(x)
    assert sc.p_plus == pytest.approx(1 / 3)
    assert sc.p_zero == 0.0
    assert sc.p_minus == pytest.approx(2 / 3)
    # both branches collapse onto the single interval (-1, 2)
    assert sc.uv_atoms == ((1.0, 2.0, 1.0),)
    assert sb.max_atom_gap(sb.skorohod_exit_pmf(sc), x) < 1e-15
    assert sb.expected_exit_time(sc) == pytest.approx(2.0)


def test_coupling_keeps_zero_atom():
    x = sb.DiscreteDist(np.array([-1.0, 0.0, 1.0]),
                        np.array([0.25, 0.5, 0.25]), signed=True)
    sc = sb.skorohod_coupling(x)
    assert sc.p_zero == pytest.approx(0.5)
    assert (0.0, 0.0, 0.5) in sc.uv_atoms
    assert sb.max_atom_gap(sb.skorohod_exit_pmf(sc), x) < 1e-14
    assert sb.expected_exit_time(sc) == pytest.approx(0.5)


def test_coupling_exit_identity_random():
    for i in range(30):
        x = random_mean_zero(RNG, with_zero=(i % 3 == 0))
        sc = sb.skorohod_coupling(x)
        assert sb.max_atom_gap(sb.skorohod_exit_pmf(sc), x) < 1e-12
        assert sb.expected_exit_time(sc) == pytest.approx(
            float(x.xs ** 2 @ x.ps), rel=1e-12)


def test_coupling_rejects_bad_input():
    with pytest.raises(NonzeroMean):
        sb.skorohod_coupling(sb.DiscreteDist(np.array([0.0, 1.0]),
                                             np.array([0.5, 0.5])))
    with pytest.raises(ConstantInput):
        sb.skorohod_coupling(sb.DiscreteDist(np.array([0.0]), np.array([1.0])))


def test_coupling_validation():
    with pytest.raises(ValueError):
        sb.SkorohodCoupling(0.5, 0.0, 0.4, ((1.0, 1.0, 1.0),))
    with pytest.raises(ValueError):
        sb.SkorohodCoupling(0.5, 0.0, 0.5, ((1.0, 1.0, 0.9),))


# -------------------------------------------------------------------
# inspection paradox

def test_inspection_sample_validation():
    with pytest.raises(ValueError):
        sb.InspectionSample(1.0, 1.5)
    with pytest.raises(ValueError):
        sb.InspectionSample(1.0, -0.1)


def test_horizon_guard():
    with pytest.raises(HorizonTooShort):
        sb.simulate_renewal_inspection(sb.NamedDist("exponential", ()), 10.0, 5, RNG)


def test_deterministic_stream_inspection():
    out = sb.simulate_renewal_inspection(sb.NamedDist("dirac", (1.0,)), 60.0, 4000, RNG)
    lengths = np.array([s.covering_length for s in out])
    waits = np.array([s.residual_wait for s in out])
    assert np.allclose(lengths, 1.0)
    assert np.all((waits >= 0) & (waits <= 1))
    # inspection time is uniform within the covering interval
    assert abs(waits.mean() - 0.5) < 5 * waits.std() / math.sqrt(waits.size)


def test_discrete_interarrival_covering():
    # gaps 1 or 3 equally likely: mean 2, length-biased mean 5/2
    gap = sb.DiscreteDist(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
    out = sb.simulate_renewal_inspection(gap, 150.0, 20_000, RNG)
    lengths = np.array([s.covering_length for s in out])
    se = lengths.std() / math.sqrt(lengths.size)
    assert abs(lengths.mean() - 2.5) < 5 * se
    assert set(np.unique(lengths)) <= {1.0, 3.0}


def test_exponential_covering_doubles_the_mean():
    out = sb.simulate_renewal_inspection(sb.NamedDist("exponential", ()), 60.0, 20_000, RNG)
    lengths = np.array([s.covering_length for s in out])
    waits = np.array([s.residual_wait for s in out])
    se = lengths.std() / math.sqrt(lengths.size)
    assert abs(lengths.mean() - 2.0) < 5 * se
    assert np.all(waits <= lengths + 1e-12)


# -------------------------------------------------------------------
# stationarity via the transformed first gap

def test_stationary_phase_uniform_gaps():
    # phase U * X* for uniform gaps has cdf 2t - t^2 on [0, 1]
    phases = sb.sample_stationary_phase(sb.NamedDist("uniform01", ()), 40_000, RNG)
    res = stats.kstest(phases, lambda t: np.clip(2 * t - t * t, 0.0, 1.0))
    assert res.pvalue > 1e-3


def test_stationary_phase_exponential_is_exponential():
    phases = sb.sample_stationary_phase(sb.NamedDist("exponential", ()), 40_000, RNG)
    res = stats.kstest(phases, "expon")
    assert res.pvalue > 1e-3


def test_stationary_counts_exponential():
    counts = sb.stationary_renewal_arrivals(sb.NamedDist("exponential", ()), 30.0, 20_000, RNG)
    se = counts.std() / math.sqrt(counts.size)
    assert abs(counts.mean() - 30.0) < 5 * se


def test_stationary_counts_deterministic_gap():
    # with unit gaps and a fractional window the count is 10 or 11, and
    # the stationary phase makes the mean exactly the window length
    counts = sb.stationary_renewal_arrivals(sb.NamedDist("dirac", (1.0,)), 10.5, 20_000, RNG)
    assert set(np.unique(counts)) <= {10, 11}
    se = counts.std() / math.sqrt(counts.size)
    assert abs(counts.mean() - 10.5) < 5 * se


def test_window_validation():
    with pytest.raises(ValueError):
        sb.stationary_renewal_arrivals(sb.NamedDist("exponential", ()), 0.0, 10, RNG)
    with pytest.raises(ValueError):
        sb.simulate_renewal_inspection(
            sb.DiscreteDist(np.array([0.0, 2.0]), np.array([0.5, 0.5])), 500.0, 5, RNG)
    with pytest.raises(TypeError):
        sb.simulate_renewal_inspection("exp", 500.0, 5, RNG)
    expo = sb.NamedDist("exponential", ())
    with pytest.raises(ZeroMean):
        sb.simulate_renewal_inspection(sb.NamedDist("dirac", (0.0,)), 500.0, 5, RNG)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            sb.simulate_renewal_inspection(expo, bad, 5, RNG)
        with pytest.raises(DomainError):
            sb.stationary_renewal_arrivals(expo, bad, 5, RNG)
