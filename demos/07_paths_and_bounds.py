"""Where the transform appears in processes and what bounds it yields.

Four constructions: the inspection paradox (the interval you land in
is longer than typical), stationary renewal starts, a Brownian interval
whose exit law is any prescribed mean-zero law, and quantitative bounds
(Poisson approximation, concentration) driven by coupling gaps.
"""

import math

import numpy as np

import sizebias as sb

rng = np.random.default_rng(np.random.Philox(99))

print("=== inspection paradox ===")
out = sb.simulate_renewal_inspection(sb.NamedDist("exponential", ()), 60.0, 30_000, rng)
print(f"  interarrival mean 1, covering-interval mean {out.covering_length.mean():.4f} (expect 2)")

counts = sb.stationary_renewal_arrivals(sb.NamedDist("dirac", (1.0,)), 10.5, 20_000, rng)
print(f"  stationary start, unit gaps, window 10.5: mean count {counts.mean():.4f}")

print()
print("=== Brownian interval with a prescribed exit law ===")
x = sb.DiscreteDist(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]), signed=True)
sc = sb.skorohod_coupling(x)
print("  interval atoms (u, v, prob):", sc.uv_atoms)
exit_law = sb.skorohod_exit_pmf(sc)
print("  exit law atoms:", list(zip(exit_law.xs, np.round(exit_law.ps, 10))))
print("  E[U V] =", sb.expected_exit_time(sc), "  E X^2 =", float(x.xs ** 2 @ x.ps))

print()
print("=== Poisson approximation with an explicit constant ===")
for n, p in [(10, 0.1), (50, 0.02), (200, 0.005)]:
    bound, exact = sb.binomial_poisson_check(n, p)
    print(f"  Bin({n},{p}) vs Poisson(1): exact TV {exact:.6f} <= bound {bound:.6f}")

print()
print("=== concentration from a bounded coupling ===")
a = 4.0
for x_eval in (6.0, 8.0, 10.0):
    tight, gauss = sb.concentration_upper(sb.ConcentrationParams(a, 1.0, x_eval))
    exact = sb.poisson_upper_tail(a, int(x_eval))
    print(f"  P(X >= {x_eval:.0f}): exact {exact:.6f} <= tight {tight:.6f}"
          f" <= gaussian-form {gauss:.6f}")
