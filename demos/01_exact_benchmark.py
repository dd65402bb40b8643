"""The exactly solvable laws.

A linear drift dX = rate X dt + sigma dW keeps a Gaussian start Gaussian
forever, so every quantity the library computes numerically has a closed
form here. Under the unit drift dX = -X/2 dt + dW, the variance relaxes as
v(t) = 1 + (v0 - 1) e^{-t} and the mean as m(t) = m0 e^{-t/2}; the relative
entropy and the varentropy follow elementary expressions.

This script prints the closed-form table from N(0, 0.25), the one every run
of ``configs/ou_benchmark.json`` checks its solve against
(``varentropy_vs_exact``, ``varentropy_rate_vs_exact``), with the entropy
rate beside the varentropy rate, and demonstrates the identity of a start
at the stationary mean: the varentropy rate equals minus twice the
varentropy, at every time and for every starting variance, so the
varentropy decays exactly like e^{-2t}.

A start off the mean breaks that identity. From N(1.5, 0.25) the variance
widens faster than the mean decays, so the varentropy first rises, to 0.9
at t = ln(5/4), and only then relaxes: its rate changes sign once, at a
time found here from the closed form alone. How the varentropy evolves
along the flow is the paper's question; this start answers exactly that it
need not decrease.
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

off = OUBenchmark(initial_variance=0.25, initial_mean=1.5)
print("\noff-centre start N(1.5, 0.25), unit drift: the varentropy rate changes sign")
print(f"{'t':>6} {'mean':>10} {'variance':>10} {'varentropy':>11} {'rate':>10}")
for t in (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0, 2.0):
    print(
        f"{t:>6.2f} {off.mean(t):>10.6f} {off.variance(t):>10.6f} "
        f"{off.varentropy(t):>11.6f} {off.varentropy_rate(t):>10.6f}"
    )
# the rate is positive at 0.05 and negative at 0.3; bisect for its zero
lo, hi = 0.05, 0.3
for _ in range(60):
    mid = 0.5 * (lo + hi)
    lo, hi = (mid, hi) if off.varentropy_rate(mid) > 0.0 else (lo, mid)
print(f"  the varentropy peaks at t = {lo:.10f} (ln(5/4) = {np.log(1.25):.10f}), "
      f"at {off.varentropy(lo):.10f}")
