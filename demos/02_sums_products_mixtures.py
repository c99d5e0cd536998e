"""Size biasing composite objects: pick a term, tilt only that one.

A sum is biased by replacing a single mean-chosen summand with its
tilted version; a product tilts every factor; a mixture reweights the
component weights by their means.  Each rule is checked against the
direct transform of the assembled law.
"""

import numpy as np

import sizebias as sb

coin = sb.DiscreteDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
die = sb.DiscreteDist(np.arange(1.0, 7.0), np.full(6, 1 / 6))

print("=== sums ===")
s = sb.IndependentSum((coin, die))
idx = sb.index_distribution(s)
print("  which term gets tilted:", np.round(idx, 4))
via_terms = sb.size_biased_sum_pmf(s)
direct = sb.size_bias_discrete(sb.convolve(coin, die))
print("  term-replacement vs direct transform, max gap:",
      sb.max_atom_gap(via_terms, direct))

print()
print("=== products (every factor is tilted) ===")
a = sb.DiscreteDist(np.array([1.0, 2.0]), np.array([0.5, 0.5]))
b = sb.DiscreteDist(np.array([1.0, 3.0]), np.array([0.5, 0.5]))
via_factors = sb.size_biased_product_pmf([a, b])
print("  vs direct, max gap:",
      sb.max_atom_gap(via_factors, sb.size_bias_discrete(sb.product_pmf([a, b]))))

print()
print("=== mixtures reweight by component means ===")
mixed_star, new_weights = sb.size_bias_mixture([coin, die], [0.5, 0.5])
print("  new weights:", np.round(new_weights, 4), "(means 0.5 and 3.5)")
direct = sb.size_bias_discrete(sb.mix([coin, die], [0.5, 0.5]))
print("  component-wise vs direct, max gap:", sb.max_atom_gap(mixed_star, direct))

print()
print("=== two sampler constructions ===")
rng = np.random.default_rng(np.random.Philox(7))
u = sb.sample_uniform_star(rng, 100_000)
print(f"  tilted uniform: mean {u.mean():.4f} (expect 2/3),"
      f" E U^2 {np.mean(u ** 2):.4f} (expect 1/2)")
s, s_star = sb.sample_cantor_star(rng, 100_000)
print(f"  singular law: mean {s.mean():.4f} (expect 1/2),"
      f" tilted mean {s_star.mean():.4f} (expect 3/4)")
