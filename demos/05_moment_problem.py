"""Laws sharing every lognormal moment, told apart by the transform.

Moments c^(k^2/2) do not determine a distribution.  Discrete laws on
geometric grids, alternating-mass variants, and sinusoidally perturbed
densities all share them.  What moments cannot see, the size-bias
fixed-point property can: only the grid laws (and the lognormal
itself) turn tilting into a pure rescale by c.
"""

import math

import numpy as np

import sizebias as sb

c = 2.0

print("=== a grid law with lognormal moments ===")
o = sb.orbit_pmf(1.3, c)
print("  normalizer t(1.3, 2):", o.t)
for k in range(4):
    print(f"  moment {k}: {sb.orbit_moment(o, k):.10f}   c^(k^2/2) = {c ** (k * k / 2):.10f}")
print("  tilting == rescaling by c:", sb.orbit_size_bias_check(o))

print()
print("=== alternating masses: same moments, no fixed point ===")
d = sb.berg_pmf(1, c)
print("  moments:", [round(sb.moment(d, k), 10) for k in range(4)])
print("  tilting == rescaling by c:", sb.orbit_size_bias_check(d))

print()
print("=== perturbed density: same moments again ===")
s = sb.StieltjesDensity(1, 1.0, 1.0)
for n in range(4):
    print(f"  moment {n}: {sb.stieltjes_moment(s, n):.8f}"
          f"   lognormal: {math.exp(n * n / 2):.8f}")

print()
print("=== mixing the grid laws rebuilds the lognormal exactly ===")
print("  normalizer (must be 1):", sb.mixture_normalizer(math.e))
print("  worst pointwise density gap:", sb.mixture_reconstruction_check(math.e))
