"""The ``offlattice-grid-mc`` workload: real supports, grid solvers, Monte Carlo.

It loads what ``lattice`` never touches (the delay-equation solvers,
the theta sums, the samplers and the JSON writer) and runs the same
``convolve``/``merge_atoms`` code on supports that a lattice fast path
cannot take, so a lattice gain that slows non-lattice inputs shows here.
"""

from __future__ import annotations

import json
import math

import numpy as np

import sizebias.cli as C
import sizebias.dist_core as D
import sizebias.inf_div as I
import sizebias.lognormal as L
import sizebias.midzuno as M
import sizebias.stochastic as T
import sizebias.sum_bias as S

from oracles import (EXACT_TOL, RULE_TOL, Task, atom_gap, lazy, random_atoms,
                     require, size_bias_atoms)

EULER_GAMMA = 0.5772156649015329
SUM_SHAPE = (4, 12)             # terms x atoms
PRODUCT_SHAPE = (3, 25)         # factors x atoms
MIXTURE_SHAPE = (6, 15)         # components x atoms
GRID_H = (1e-3, 1e-4)
GRID_XMAX = 10.0
MIXTURE_C = (1.5, 3.0)
RENEWAL_N = (20_000, 100_000)
RENEWAL_HORIZON = 200.0
ARRIVALS_N = 20_000
ARRIVALS_WINDOW = 50.0
SKOROHOD_ATOMS = 60
MIDZUNO_POP, MIDZUNO_M, MIDZUNO_DRAWS = 16, 4, 200
MC_SIGMAS = 6.0                 # Monte Carlo means must land within this many se


def _dists(rng, shape, lo, hi):
    return [D.DiscreteDist(*random_atoms(rng, shape[1], lo, hi)) for _ in range(shape[0])]


def _check_rule(reference):
    @lazy
    def want():
        plain = reference()
        return size_bias_atoms(plain.xs, plain.ps)

    def check(out):
        out = out[0] if isinstance(out, tuple) else out
        require(atom_gap(out.xs, out.ps, *want()) <= RULE_TOL,
                "size-biased law differs from the transform of the plain law")
    return check


def _check_dickman(h):
    def check(g):
        x = g.grid()
        seg = (x >= 1.0) & (x <= 2.0)
        rho = 1.0 - np.log(x[seg])
        err = float(np.max(np.abs(g.values[seg] * math.exp(EULER_GAMMA) - rho)))
        require(err <= 1e-4, f"dickman h={h}: max error {err:.2e} against 1 - ln x on [1, 2]")
        require(abs(g.mean() - 1.0) <= 1e-4, f"dickman h={h}: mean {g.mean()} not within 1e-4 of 1")
    return check


def _check_buchstab(a, b):
    def check(g):
        require(g.atom0 == b ** (a / (1.0 - b)), "buchstab atom is not b^(a/(1-b))")
        gap = abs(g.atom0 + g.integral() - 1.0)
        require(gap <= 1e-4, f"buchstab mass off by {gap:.2e}")
    return check


def _check_orbit(c):
    def check(o):
        ps = o.masses / o.masses.sum()
        mean = float(o.xs @ ps)
        require(abs(mean - math.sqrt(c)) <= 1e-10 * math.sqrt(c), "orbit mean is not sqrt(c)")
        star = o.xs * ps / mean
        gap = max(float(np.abs(star[1:] - ps[:-1]).max()), float(star[0]), float(ps[-1]))
        require(gap <= 1e-10, "orbit law is not a size-bias fixed point up to scaling")
    return check


def _check_berg(c):
    def check(d):
        for k in range(4):
            want = c ** (k * k / 2)
            got = float((d.xs ** k) @ d.ps)
            require(abs(got - want) <= 1e-8 * want, f"berg moment {k} {got} != {want}")
    return check


def _check_normalizer(out):
    require(abs(out - 1.0) <= 1e-6, f"mixture normalizer k_c = {out}, not 1")


def _check_stieltjes(sigma, k):
    want = math.exp(k * k * sigma * sigma / 2.0)

    def check(out):
        require(abs(out - want) <= 1e-6 * want, f"stieltjes moment {k}: {out} != {want}")
    return check


def _check_renewal(n):
    def check(samples):
        lengths = np.array([s.covering_length for s in samples])
        waits = np.array([s.residual_wait for s in samples])
        require(lengths.size == n, "wrong number of inspections")
        require(bool(np.all((waits >= 0) & (waits <= lengths + 1e-12))), "wait exceeds interval")
        # exponential gaps: covering length has mean 2, wait has mean 1
        for vals, mu in ((lengths, 2.0), (waits, 1.0)):
            se = vals.std(ddof=1) / math.sqrt(n)
            require(abs(vals.mean() - mu) <= MC_SIGMAS * se, f"mean {vals.mean()} far from {mu}")
    return check


def _check_arrivals(counts):
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    require(abs(counts.mean() - ARRIVALS_WINDOW) <= MC_SIGMAS * se,
            f"stationary count mean {counts.mean()} far from {ARRIVALS_WINDOW}")


def _check_skorohod(x):
    m2 = float(x.xs ** 2 @ x.ps)

    def check(sc):
        uvp = np.array(sc.uv_atoms)
        u, v, p = uvp[:, 0], uvp[:, 1], uvp[:, 2]
        both = (u > 0) | (v > 0)
        xs = np.concatenate([-u[both], v[both], np.zeros(int((~both).sum()))])
        ps = np.concatenate([p[both] * v[both] / (u[both] + v[both]),
                             p[both] * u[both] / (u[both] + v[both]), p[~both]])
        require(atom_gap(xs, ps, x.xs, x.ps) <= EXACT_TOL, "exit law differs from the input law")
        require(abs(float(u * v @ p) - m2) <= EXACT_TOL * m2, "E[UV] differs from E[X^2]")
    return check


def _check_expectation(pop):
    want = float(pop.ys.sum() / pop.xs.sum())

    def check(out):
        require(abs(out - want) <= EXACT_TOL * max(1.0, abs(want)), "ratio estimator biased")
    return check


def _check_midzuno(draws):
    require(len(draws) == MIDZUNO_DRAWS, "wrong number of samples")
    for r in draws:
        require(len(r) == MIDZUNO_M and list(r) == sorted(set(r))
                and 0 <= r[0] and r[-1] < MIDZUNO_POP, f"bad sample {r}")


def _check_json(values):
    def check(text):
        back = json.loads(text)["grid"]["values"]
        require(np.array_equal(np.asarray(back), values), "JSON does not round-trip the grid")
    return check


def build(seed: int):
    """(tasks, computed counts) for one seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    tasks = []

    terms = _dists(rng, SUM_SHAPE, 0.0, 5.0)
    s = S.IndependentSum(tuple(terms))
    tasks.append(Task("sum_bias.size_biased_sum_pmf.offlattice",
                      lambda _: S.size_biased_sum_pmf(s),
                      _check_rule(lambda: S.convolve_all(terms))))
    factors = _dists(rng, PRODUCT_SHAPE, 0.2, 4.0)
    tasks.append(Task("sum_bias.size_biased_product_pmf.offlattice",
                      lambda _: S.size_biased_product_pmf(factors),
                      _check_rule(lambda: S.product_pmf(factors))))
    comps = _dists(rng, MIXTURE_SHAPE, 0.0, 8.0)
    weights = rng.dirichlet(np.ones(MIXTURE_SHAPE[0]))
    weights /= weights.sum()
    tasks.append(Task("sum_bias.size_bias_mixture",
                      lambda _: S.size_bias_mixture(comps, weights),
                      _check_rule(lambda: S.mix(comps, weights))))

    grid_points = 0
    for h in GRID_H:
        tag = f"h{h:.0e}".replace("e-0", "e-")
        tasks.append(Task(f"inf_div.dickman_solve.{tag}",
                          lambda _, h=h: I.dickman_solve(1.0, h=h, xmax=GRID_XMAX),
                          _check_dickman(h)))
        a, b = float(rng.uniform(0.5, 2.0)), round(float(rng.uniform(0.2, 0.6)), 3)
        tasks.append(Task(f"inf_div.buchstab_solve.{tag}",
                          lambda _, a=a, b=b, h=h: I.buchstab_solve(a, b, h=h, xmax=GRID_XMAX),
                          _check_buchstab(a, b)))
        grid_points += 2 * (round(GRID_XMAX / h) + 1)

    theta_calls = 0
    c = float(rng.uniform(1.5, 3.0))
    b = float(rng.uniform(1.0, c))
    tasks.append(Task("lognormal.orbit_pmf", lambda _: L.orbit_pmf(b, c), _check_orbit(c)))
    sign = int(rng.choice([-1, 1]))
    tasks.append(Task("lognormal.berg_pmf", lambda _: L.berg_pmf(sign, c), _check_berg(c)))
    theta_calls += 3        # orbit: normalizer and auto_M; berg: auto_M
    for cc in MIXTURE_C:
        tasks.append(Task(f"lognormal.mixture_normalizer.c{cc:g}",
                          lambda _, cc=cc: L.mixture_normalizer(cc), _check_normalizer))
        theta_calls += 10_001   # one theta sum per quadrature node
    sd = L.StieltjesDensity(1, float(rng.uniform(-1, 1)), float(rng.uniform(0.5, 1.2)))
    for k in range(4):
        tasks.append(Task("lognormal.stieltjes_moment",
                          lambda _, k=k: L.stieltjes_moment(sd, k), _check_stieltjes(sd.sigma, k)))

    expo = D.NamedDist("exponential", ())
    mc_seed = int(rng.integers(2 ** 63))
    for n in RENEWAL_N:
        tasks.append(Task(f"stochastic.simulate_renewal_inspection.n{n // 1000}k",
                          lambda _, n=n: T.simulate_renewal_inspection(
                              expo, RENEWAL_HORIZON, n, np.random.default_rng(mc_seed)),
                          _check_renewal(n)))
    tasks.append(Task("stochastic.stationary_renewal_arrivals",
                      lambda _: T.stationary_renewal_arrivals(
                          expo, ARRIVALS_WINDOW, ARRIVALS_N, np.random.default_rng(mc_seed)),
                      _check_arrivals))

    half = SKOROHOD_ATOMS // 2
    xn = -np.sort(rng.uniform(0.2, 3.0, half))[::-1]
    xp = np.sort(rng.uniform(0.2, 3.0, half))
    xs = np.concatenate([xn, xp])
    ps = rng.dirichlet(np.ones(xs.size))
    neg = xs < 0
    xs[neg] *= float((xs[~neg] @ ps[~neg]) / (-xs[neg] @ ps[neg]))
    law = D.DiscreteDist(xs, ps, signed=True)
    tasks.append(Task("stochastic.skorohod_coupling",
                      lambda _: T.skorohod_coupling(law), _check_skorohod(law)))

    pop = M.Population(rng.uniform(0.05, 4.0, MIDZUNO_POP), rng.normal(size=MIDZUNO_POP))
    tasks.append(Task("midzuno.exact_expectation",
                      lambda _: M.exact_expectation(pop, MIDZUNO_M), _check_expectation(pop)))

    def draws(_):
        g = np.random.default_rng(mc_seed)
        return [M.midzuno_sample(pop, MIDZUNO_M, g) for _ in range(MIDZUNO_DRAWS)]
    tasks.append(Task("midzuno.midzuno_sample", draws, _check_midzuno))

    grid = I.dickman_solve(1.0, h=GRID_H[1], xmax=GRID_XMAX)
    doc = D.dist_to_json(grid)
    tasks.append(Task("cli.json_text.grid100k", lambda _: C.json_text(doc),
                      _check_json(grid.values), span="cli.json_text"))

    counts = {"inf_div.grid_points": grid_points,
              "lognormal.theta_t.calls": theta_calls,
              "stochastic.samples": sum(RENEWAL_N) + ARRIVALS_N,
              "midzuno.subsets": math.comb(MIDZUNO_POP, MIDZUNO_M)}
    return tasks, counts
