import math

import numpy as np
import pytest
from scipy import stats

import sizebias as sb
import sizebias.stochastic as T
from sizebias.errors import DomainError, NoSampler, SupportOverflow, ZeroMean

RNG = np.random.default_rng(np.random.Philox(20240821))
# 151 gaps per row reach 60 only past a gap of 100: about a fifth of the rows draw none
# and take the widening branch
RARE_LONG_GAP = sb.DiscreteDist(np.array([0.01, 100.0]), np.array([0.99, 0.01]))
# at horizon 100 most rows creep on 0.01 gaps, so rows take about 30 widening rounds
CREEPING_GAP = sb.DiscreteDist(np.array([0.01, 1000.0]), np.array([0.999, 0.001]))
# mean zero: -1..-1001 against 1..999 and 2001, each atom with mass 1/2001
WIDE_MEAN_ZERO = [(float(x), 1 / 2001) for x in [*range(-1001, 0), *range(1, 1000), 2001]]


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
    with pytest.raises(DomainError, match=r"must vanish"):
        sb.skorohod_coupling(sb.DiscreteDist(np.array([0.0, 1.0]),
                                             np.array([0.5, 0.5])))
    with pytest.raises(DomainError, match=r"constant laws embed trivially"):
        sb.skorohod_coupling(sb.DiscreteDist(np.array([0.0]), np.array([1.0])))
    with pytest.raises(SupportOverflow, match=r"u \+ v = inf"):
        sb.skorohod_exit_pmf(sb.SkorohodCoupling(0.5, 0.0, 0.5, ((1e308, 1e308, 1.0),)))


def test_coupling_grid_capped_before_allocating(monkeypatch):
    import tracemalloc
    import sizebias.sum_bias as SB
    # 1,001 negative and 1,000 positive atoms: a 1,001,000-cell (u, v) grid
    law = sb.DiscreteDist.from_pairs(WIDE_MEAN_ZERO, signed=True)
    tracemalloc.start()
    try:
        with pytest.raises(SupportOverflow, match=r"coupling grid needs 1\.001e\+06 atoms"):
            sb.skorohod_coupling(law)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one of the grid's three columns alone would take 8 MB
    assert peak < 1_000_000
    # the grid shares the outer-product cap: 3 x 2 cells pass at 6 and not at 5
    small = sb.DiscreteDist.from_pairs([(-3.0, 0.2), (-2.0, 0.2), (-1.0, 0.2), (2.0, 0.2),
                                        (4.0, 0.2)], signed=True)
    monkeypatch.setattr(SB, "CONV_ATOM_CAP", 6)
    assert len(sb.skorohod_coupling(small).uv_atoms) == 6
    monkeypatch.setattr(SB, "CONV_ATOM_CAP", 5)
    with pytest.raises(SupportOverflow):
        sb.skorohod_coupling(small)


def test_coupling_validation():
    with pytest.raises(ValueError):
        sb.SkorohodCoupling(0.5, 0.0, 0.4, ((1.0, 1.0, 1.0),))
    with pytest.raises(ValueError):
        sb.SkorohodCoupling(0.5, 0.0, 0.5, ((1.0, 1.0, 0.9),))


# -------------------------------------------------------------------
# inspection paradox

def test_inspection_invariant_is_checked(monkeypatch):
    # gaps that step back give unsorted arrivals: a negative wait, then a wait past a
    # negative interval; sorted ones never break 0 <= wait <= length
    for row in ((0.95, 0.05, 2.0), (0.97, 0.96, 0.01, 2.0)):
        gaps = np.diff(np.array(row) * 100.0, prepend=0.0)

        def fill(self, rng, out, gaps=gaps):
            out[:] = 0.0
            out[:, :gaps.size] = gaps

        monkeypatch.setattr(sb.NamedDist, "fill", fill)
        with pytest.raises(ValueError, match="exceeds interval"):
            sb.simulate_renewal_inspection(sb.NamedDist("exponential", ()), 100.0, 5,
                                           np.random.default_rng(0))


def test_inspections_read_as_rows():
    out = sb.simulate_renewal_inspection(sb.NamedDist("exponential", ()), 60.0, 300,
                                         np.random.default_rng(5))
    rows = list(out)
    assert len(out) == len(rows) == 300
    assert [r.covering_length for r in rows] == out.covering_length.tolist()
    assert [r.residual_wait for r in rows] == out.residual_wait.tolist()
    assert rows[0] == (out.covering_length[0], out.residual_wait[0])
    with pytest.raises(AttributeError):
        out.covering_length = out.residual_wait


def test_horizon_guard():
    with pytest.raises(DomainError, match=r"below 50 interarrival means"):
        sb.simulate_renewal_inspection(sb.NamedDist("exponential", ()), 10.0, 5, RNG)


def test_deterministic_stream_inspection():
    out = sb.simulate_renewal_inspection(sb.NamedDist("dirac", (1.0,)), 60.0, 4000, RNG)
    lengths, waits = out.covering_length, out.residual_wait
    assert np.allclose(lengths, 1.0)
    assert np.all((waits >= 0) & (waits <= 1))
    # inspection time is uniform within the covering interval
    assert abs(waits.mean() - 0.5) < 5 * waits.std() / math.sqrt(waits.size)


def test_discrete_interarrival_covering():
    # gaps 1 or 3 equally likely: mean 2, length-biased mean 5/2
    gap = sb.DiscreteDist(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
    lengths = sb.simulate_renewal_inspection(gap, 150.0, 20_000, RNG).covering_length
    se = lengths.std() / math.sqrt(lengths.size)
    assert abs(lengths.mean() - 2.5) < 5 * se
    assert set(np.unique(lengths)) <= {1.0, 3.0}


def test_exponential_covering_doubles_the_mean():
    out = sb.simulate_renewal_inspection(sb.NamedDist("exponential", ()), 60.0, 20_000, RNG)
    lengths, waits = out.covering_length, out.residual_wait
    se = lengths.std() / math.sqrt(lengths.size)
    assert abs(lengths.mean() - 2.0) < 5 * se
    assert np.all(waits <= lengths + 1e-12)


# E[X^2]/E[X] for every family of INTERARRIVALS; the horizon is 200 means, and a lattice
# law's inspection window spans whole periods, so T's margin of 20 means leaves no
# start-up bias near one standard error
COVERING_MEANS = [
    (sb.NamedDist("exponential", ()), 1.0, 2.0),
    (sb.NamedDist("gamma", (2.5,)), 2.5, 3.5),
    (sb.NamedDist("lognormal", (0.0, 0.25)), math.exp(0.125), math.exp(0.375)),
    (sb.NamedDist("dirac", (1.5,)), 1.5, 1.5),
    (sb.NamedDist("uniform01", ()), 0.5, 2 / 3),
    (sb.DiscreteDist(np.array([1.0, 3.0]), np.array([0.5, 0.5])), 2.0, 2.5),
    (sb.NamedDist("beta", (2.0, 3.0)), 0.4, 0.5),
]


@pytest.mark.parametrize("dist,mean,covering", COVERING_MEANS,
                         ids=["exponential", "gamma", "lognormal", "dirac", "uniform01", "atoms",
                              "beta"])
def test_covering_and_wait_means_match_length_bias(dist, mean, covering):
    # the covering interval averages E[X^2]/E[X] and the wait half of it, within 4 se
    out = sb.simulate_renewal_inspection(dist, 200 * mean, 10_000,
                                         np.random.default_rng(np.random.Philox(24)))
    for vals, want in ((out.covering_length, covering), (out.residual_wait, covering / 2)):
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - want) <= 4 * se, (vals.mean(), want, se)


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


def test_stationary_counts_beta():
    # Beta(a, b) gaps have mean a/(a+b): the count averages window*(a+b)/a
    a, b, window = 2.0, 3.0, 20.0
    counts = sb.stationary_renewal_arrivals(sb.NamedDist("beta", (a, b)), window, 20_000, RNG)
    se = counts.std() / math.sqrt(counts.size)
    assert abs(counts.mean() - window * (a + b) / a) < 5 * se


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


def test_beta_covering_mean():
    # Beta(a, b) gaps: the covering length has mean (a+1)/(a+b+1) = 3/4
    out = sb.simulate_renewal_inspection(sb.NamedDist("beta", (2.0, 1.0)), 40.0, 20_000,
                                         np.random.default_rng(np.random.Philox(31)))
    lengths = out.covering_length
    se = lengths.std() / math.sqrt(lengths.size)
    assert abs(lengths.mean() - 0.75) < 5 * se


def test_families_without_sampler_rejected_before_drawing():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for kind, params in (("poisson", (2.0,)), ("bernoulli", (0.5,)), ("binomial", (10.0, 0.3)),
                         ("geometric", (0.5,)), ("borel", (0.5,))):
        d = sb.NamedDist(kind, params)
        with pytest.raises(NoSampler):
            sb.simulate_renewal_inspection(d, 500.0, 5, rng)
        with pytest.raises(NoSampler):
            sb.stationary_renewal_arrivals(d, 5.0, 5, rng)
    assert rng.bit_generator.state == state
    # beta has a sampler and a closed-form transform, so its stationary phase runs
    beta = sb.NamedDist("beta", (2.0, 1.0))
    assert sb.stationary_renewal_arrivals(beta, 5.0, 5, np.random.default_rng(1)).shape == (5,)


def test_arrival_buffer_capped_before_allocating():
    import tracemalloc
    rng = np.random.default_rng(0)
    expo = sb.NamedDist("exponential", ())
    tracemalloc.start()
    try:
        with pytest.raises(SupportOverflow):
            sb.simulate_renewal_inspection(sb.NamedDist("uniform01", ()), 1e12, 10, rng)
        # one chunk of 20,000 rows of ~5,746 arrivals: past the cap
        with pytest.raises(SupportOverflow):
            next(T._arrival_chunks(expo, rng, T._CHUNK, 4_600.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the smaller of the two buffers alone would take 900 MB
    assert peak < 1_000_000


def test_widening_is_capped_before_allocating(monkeypatch):
    # rounds for short rows draw into the one buffer, so its check caps them too: 1,000 rows
    # of 151 gaps (151,078 cells at the unrounded k0) take five more rounds at that cap,
    # and one cell below it they are refused before any draw
    mean = RARE_LONG_GAP.mean()
    cells = math.ceil(1_000 * (60.0 / mean * 1.1 + 10.0 * math.sqrt(60.0 / mean + 1.0) + 8))
    monkeypatch.setattr(T, "ARRIVAL_CELL_CAP", cells)
    rounds = [rows.size for rows, _, _ in
              T._arrival_chunks(RARE_LONG_GAP, np.random.default_rng(0), 1_000, 60.0)]
    assert rounds == [1_000, 207, 46, 14, 4, 1]
    monkeypatch.setattr(T, "ARRIVAL_CELL_CAP", cells - 1)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(SupportOverflow, match=r"needs 1\.511e\+05 arrival cells"):
        next(T._arrival_chunks(RARE_LONG_GAP, rng, 1_000, 60.0))
    assert rng.bit_generator.state == state


def test_inspection_holds_one_arrival_buffer():
    import tracemalloc
    expo = sb.NamedDist("exponential", ())
    sb.simulate_renewal_inspection(expo, 60.0, 5, np.random.default_rng(0))    # lazy imports
    n = 3 * T._CHUNK
    k0 = int(0.9 * 60.0 * 1.1 + 10.0 * math.sqrt(0.9 * 60.0 + 1.0) + 8)   # at the largest T
    tracemalloc.start()
    try:
        sb.simulate_renewal_inspection(expo, 60.0, n, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the two output columns and one chunk's times and order, plus the one _BLOCK x k0
    # buffer every block draws into (2.3 MB); a second one alive would pass the bound
    assert peak <= 8 * (2 * n + 2 * T._CHUNK) + 1.3 * T._BLOCK * k0 * 8


def test_widened_rows_draw_into_the_one_buffer():
    import tracemalloc
    from sizebias.dist_core import BLOCK_CELLS
    sb.simulate_renewal_inspection(CREEPING_GAP, 100.0, 5, np.random.default_rng(0))  # lazy imports
    rng = np.random.default_rng(2)
    t = rng.uniform(10.0, 90.0, 500)    # the inspection's times, drawn before its gaps
    rounds = [cum.size for _, cum, _ in T._arrival_chunks(CREEPING_GAP, rng, 500, t)]
    mean = CREEPING_GAP.mean()
    k0 = int(t.max() / mean * 1.1 + 10.0 * math.sqrt(t.max() / mean + 1.0) + 8)
    assert len(rounds) > 30 and max(rounds) <= 500 * k0
    tracemalloc.start()
    try:
        sb.simulate_renewal_inspection(CREEPING_GAP, 100.0, 500, np.random.default_rng(2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the one 500 x k0 buffer, plus the atom sampler's three arrays of a row block; the
    # 37 rounds joined side by side would take 25 such buffers
    assert peak <= 8 * 500 * k0 + 3.3 * 8 * BLOCK_CELLS


def test_inspection_draws_about_the_mean_count():
    # exponential gaps at horizon 200: a stream uses about 101 gaps; a first round of the
    # block's mean count and one refill for the short rows draw about 123 a stream, and a
    # first round of k0 gaps (10 sd) would draw about 228
    cells = []

    def fill(self, rng, out, fill=sb.NamedDist.fill):
        cells.append(out.size)
        fill(self, rng, out)

    expo = sb.NamedDist("exponential", ())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sb.NamedDist, "fill", fill)
        out = sb.simulate_renewal_inspection(expo, 200.0, 20_000, np.random.default_rng(3))
    assert len(out) == 20_000
    assert sum(cells) <= 140 * 20_000


# -------------------------------------------------------------------
# references: the per-sample loop, the per-family samplers and the dict
# coupling that the array code replaced, kept to be matched bit for bit

def _ref_draw_gaps(dist, rng, size):
    if isinstance(dist, sb.DiscreteDist):
        return rng.choice(dist.xs, size=size, p=dist.ps / dist.ps.sum())
    k, p = dist.kind, dist.params
    if k == "exponential":
        return rng.exponential(size=size)
    if k == "gamma":
        return rng.gamma(p[0], size=size)
    if k == "dirac":
        return np.full(size, p[0])
    if k == "uniform01":
        return rng.random(size=size)
    if k == "lognormal":
        return rng.lognormal(p[0], math.sqrt(p[1]), size=size)
    if k == "beta":
        return rng.beta(p[0], p[1], size=size)
    raise TypeError(f"no interarrival sampler for family {k}")


def _ref_draw_size_biased(dist, rng, n):
    if isinstance(dist, sb.DiscreteDist):
        star = sb.size_bias_discrete(dist)
        return rng.choice(star.xs, size=n, p=star.ps / star.ps.sum())
    k, p = dist.kind, dist.params
    if k == "exponential":
        return rng.gamma(2.0, size=n)
    if k == "gamma":
        return rng.gamma(p[0] + 1.0, size=n)
    if k == "dirac":
        return np.full(n, p[0])
    if k == "lognormal":
        return rng.lognormal(p[0] + p[1], math.sqrt(p[1]), size=n)
    if k == "uniform01":
        return rng.beta(2.0, 1.0, size=n)
    if k == "beta":
        return rng.beta(p[0] + 1.0, p[1], size=n)
    raise TypeError(f"no size-biased sampler for family {k}")


def _ref_cum(dist, rng, rows, span, lead=None):
    # span: one for every row, or one per row; k0 gaps a row reach the largest
    mean = dist.mean() if isinstance(dist, sb.DiscreteDist) else sb.named_mean(dist)
    top = np.max(span)
    k0 = int(top / mean * 1.1 + 10.0 * math.sqrt(top / mean + 1.0) + 8)
    gaps = _ref_draw_gaps(dist, rng, (rows, k0))
    if lead is not None:
        gaps[:, 0] = lead
    cum = np.cumsum(gaps, axis=1)
    while np.any(cum[:, -1] <= span):
        short = cum[:, -1] <= span
        extra = _ref_draw_gaps(dist, rng, (int(short.sum()), k0))
        add = np.cumsum(extra, axis=1) + cum[short, -1][:, None]
        cum = np.hstack([cum, np.full((rows, k0), np.inf)])
        cum[short, -k0:] = add
    return cum


def _ref_block(dist, rng, tb):
    # one block, rows in time order: a first round of the mean count to the largest time,
    # then rounds for the rows still short alone, each sized by the k0 formula to the
    # largest distance a short row has left; a row is read in the round that passes its
    # time, and that round's base (the row's last arrival, 0 at first) comes before it
    mean = dist.mean() if isinstance(dist, sb.DiscreteDist) else sb.named_mean(dist)
    lengths, waits = np.empty(tb.size), np.empty(tb.size)
    rows, base = np.arange(tb.size), np.zeros(tb.size)
    k = int(tb.max() / mean) + 8
    while rows.size:
        cum = np.cumsum(_ref_draw_gaps(dist, rng, (rows.size, k)), axis=1) + base[:, None]
        j = (cum <= tb[rows, None]).sum(axis=1)
        for i, r in enumerate(rows):
            if j[i] < k:
                nxt = cum[i, j[i]]
                prev = cum[i, j[i] - 1] if j[i] else base[i]
                lengths[r], waits[r] = nxt - prev, nxt - tb[r]
        rows, base = rows[j == k], cum[j == k, -1]
        if rows.size:
            d = float((tb[rows] - base).max())
            k = int(d / mean * 1.1 + 10.0 * math.sqrt(d / mean + 1.0) + 8)
    return lengths, waits


def _ref_inspection(dist, horizon, n, rng):
    # per chunk: every inspection time first, then blocks of streams in stably sorted
    # time order, each drawn in rounds to its own largest time, results put back in
    # draw order
    lengths, waits = [None] * n, [None] * n
    for lo in range(0, n, T._CHUNK):
        rows = min(T._CHUNK, n - lo)
        t = rng.uniform(0.1 * horizon, 0.9 * horizon, size=rows)
        order = sorted(range(rows), key=lambda i: t[i])
        for b in range(0, rows, T._BLOCK):
            idx = np.array(order[b : b + T._BLOCK])
            for i, L, w in zip(idx, *_ref_block(dist, rng, t[idx])):
                if not 0.0 <= w <= L + 1e-12:
                    raise ValueError(f"wait {w} exceeds interval {L}")
                lengths[lo + i] = float(L)
                waits[lo + i] = float(w)
    return np.array(lengths), np.array(waits)


def _ref_stationary(dist, window, n, rng):
    counts = []
    for lo in range(0, n, T._CHUNK):
        rows = min(T._CHUNK, n - lo)
        star = _ref_draw_size_biased(dist, rng, rows)
        cum = _ref_cum(dist, rng, rows, window, lead=rng.random(rows) * star)
        counts.extend(int(c) for c in (cum <= window).sum(axis=1))
    return np.array(counts)


def _ref_coupling_atoms(x):
    neg, pos = x.xs < 0, x.xs > 0
    p_minus, p_zero, p_plus = (float(x.ps[m].sum()) for m in (neg, ~neg & ~pos, pos))
    a = sb.DiscreteDist(-x.xs[neg][::-1], x.ps[neg][::-1] / p_minus)
    b = sb.DiscreteDist(x.xs[pos], x.ps[pos] / p_plus)
    a_star, b_star = sb.size_bias_discrete(a), sb.size_bias_discrete(b)
    atoms = {}
    if p_zero > 0:
        atoms[(0.0, 0.0)] = p_zero
    for ua, pa in zip(a_star.xs, a_star.ps):
        for vb, pb in zip(b.xs, b.ps):
            key = (float(ua), float(vb))
            atoms[key] = atoms.get(key, 0.0) + p_plus * float(pa) * float(pb)
    for ua, pa in zip(a.xs, a.ps):
        for vb, pb in zip(b_star.xs, b_star.ps):
            key = (float(ua), float(vb))
            atoms[key] = atoms.get(key, 0.0) + p_minus * float(pa) * float(pb)
    return tuple((u, v, p) for (u, v), p in sorted(atoms.items()))


def _ref_exit_law(uv_atoms):
    acc = {}
    for u, v, p in uv_atoms:
        if u == 0.0 and v == 0.0:
            acc[0.0] = acc.get(0.0, 0.0) + p
            continue
        acc[-u] = acc.get(-u, 0.0) + p * v / (u + v)
        acc[v] = acc.get(v, 0.0) + p * u / (u + v)
    xs = np.array(sorted(acc))
    ps = np.array([acc[x] for x in sorted(acc)])
    return xs, ps / ps.sum()


INTERARRIVALS = [
    (sb.NamedDist("exponential", ()), 60.0),
    (sb.NamedDist("gamma", (2.5,)), 130.0),
    (sb.NamedDist("lognormal", (0.0, 0.25)), 60.0),
    (sb.NamedDist("dirac", (1.5,)), 80.0),
    (sb.NamedDist("uniform01", ()), 30.0),
    (sb.DiscreteDist(np.array([1.0, 3.0]), np.array([0.5, 0.5])), 110.0),
    (sb.NamedDist("beta", (2.0, 3.0)), 30.0),
]
FAMILY_IDS = ["exponential", "gamma", "lognormal", "dirac", "uniform01", "atoms", "beta"]


@pytest.mark.parametrize("dist,horizon", INTERARRIVALS, ids=FAMILY_IDS)
def test_inspection_columns_match_per_sample_reference(dist, horizon):
    n = 45_000      # past two chunk boundaries
    out = sb.simulate_renewal_inspection(dist, horizon, n, np.random.default_rng(n))
    lengths, waits = _ref_inspection(dist, horizon, n, np.random.default_rng(n))
    assert len(out) == n
    assert np.array_equal(out.covering_length, lengths)
    assert np.array_equal(out.residual_wait, waits)


def test_widened_inspection_matches_per_sample_reference(monkeypatch):
    for dist, horizon, chunk in ((RARE_LONG_GAP, 60.0, 1_000), (CREEPING_GAP, 100.0, 300)):
        monkeypatch.setattr(T, "_CHUNK", chunk)
        monkeypatch.setattr(T, "_BLOCK", chunk // 3 + 7)    # a short last block per chunk
        n = 3 * chunk
        out = sb.simulate_renewal_inspection(dist, horizon, n, np.random.default_rng(n))
        lengths, waits = _ref_inspection(dist, horizon, n, np.random.default_rng(n))
        assert np.array_equal(out.covering_length, lengths)
        assert np.array_equal(out.residual_wait, waits)


@pytest.mark.parametrize("dist,horizon,chunk",
                         [*((d, h, T._CHUNK) for d, h in INTERARRIVALS),
                          (RARE_LONG_GAP, 60.0, T._CHUNK), (CREEPING_GAP, 100.0, 400)],
                         ids=[*FAMILY_IDS, "rare-long-gap", "creeping-gap"])
def test_stationary_counts_match_per_sample_reference(monkeypatch, dist, horizon, chunk):
    monkeypatch.setattr(T, "_CHUNK", chunk)
    n = 9 * chunk // 4      # past two chunk boundaries, each with its own lead column
    window = horizon / 3
    counts = sb.stationary_renewal_arrivals(dist, window, n, np.random.default_rng(n))
    assert np.array_equal(counts, _ref_stationary(dist, window, n, np.random.default_rng(n)))


def test_stationary_phase_matches_per_family_reference():
    for i, (dist, _) in enumerate(INTERARRIVALS):
        g1, g2 = np.random.default_rng(i), np.random.default_rng(i)
        want = _ref_draw_size_biased(dist, g2, 5000)
        assert np.array_equal(sb.sample_stationary_phase(dist, 5000, g1), g2.random(5000) * want)


def test_coupling_and_exit_law_match_dict_reference():
    rng = np.random.default_rng(np.random.Philox(17))
    for i in range(120):
        x = random_mean_zero(rng, with_zero=(i % 2 == 0))
        sc = sb.skorohod_coupling(x)
        assert sc.uv_atoms == _ref_coupling_atoms(x)
        exit_law = sb.skorohod_exit_pmf(sc)
        xs, ps = _ref_exit_law(sc.uv_atoms)
        assert np.array_equal(exit_law.xs, xs)
        assert np.array_equal(exit_law.ps, ps)
