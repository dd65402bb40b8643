"""The exactly solvable benchmark.

The mean-reverting process dX = -X/2 dt + dW started from a centered
Gaussian stays Gaussian forever, so every quantity the library computes
numerically has a closed form here: the variance relaxes as
v(t) = 1 + (v0 - 1) e^{-t}, the relative entropy and varentropy follow
elementary expressions, and the varentropy decays exactly like e^{-2t}.

This script prints the closed-form table, the one every run of
``configs/ou_benchmark.json`` checks its solve against (``varentropy_vs_exact``,
``varentropy_rate_vs_exact``), with the entropy rate beside the varentropy
rate, and demonstrates the identity that makes the benchmark so useful: the
varentropy rate equals minus twice the varentropy, at every time and for
every starting variance.
"""

import numpy as np

from varentropy_lab import OUBenchmark

bench = OUBenchmark(initial_variance=0.25)

print("exact benchmark, initial variance 0.25")
print(f"{'t':>6} {'variance':>10} {'entropy':>10} {'varentropy':>11} {'rate':>10} "
      f"{'d_entropy':>10}")
for t in np.linspace(0.0, 3.0, 13):
    print(
        f"{t:>6.2f} {bench.variance(t):>10.6f} {bench.relative_entropy(t):>10.6f} "
        f"{bench.varentropy(t):>11.6f} {bench.varentropy_rate(t):>10.6f} "
        f"{bench.entropy_rate(t):>10.6f}"
    )

print("\nrate / varentropy (should be -2 everywhere):")
for v0 in (0.25, 4.0):
    b = OUBenchmark(v0)
    ratios = [b.varentropy_rate(t) / b.varentropy(t) for t in (0.0, 0.7, 2.2)]
    print(f"  initial variance {v0}: {np.round(ratios, 12)}")

print("\nvarentropy(t) / varentropy(0) against e^{-2t}:")
for t in (0.5, 1.0, 2.0):
    print(f"  t={t}: {bench.varentropy(t) / bench.varentropy(0.0):.10f} "
          f"vs {np.exp(-2 * t):.10f}")
