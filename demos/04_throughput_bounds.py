"""Square-root law throughput: achievability and converse at finite n.

Reliable-and-covert throughput grows like sqrt(n delta) log2 e bits, not
linearly in n. The finite-n bounds carry dispersion and log n corrections
that close toward the first-order term only at enormous blocklengths.
"""

import math

from covertawgn import (
    CovertParams,
    asymptotic_sweep,
    bounds_csv_text,
    bounds_grid,
    default_n_grid,
    throughput_bounds,
)

delta, eps = 0.01, 0.1
print(f"delta = {delta} bits, epsilon = {eps}")
print(f"{'n':>10} {'achiev':>12} {'converse':>12} {'first-order':>12} {'ach/first':>10}")
for exp in range(3, 9):
    tb = throughput_bounds(CovertParams.defaults(10**exp, delta, eps))
    print(f"{10**exp:>10} {tb.achievability_bits:>12.3f} {tb.converse_bits:>12.3f} "
          f"{tb.first_order:>12.3f} {tb.achievability_bits / tb.first_order:>10.5f}")

print("\ndoubling delta multiplies the first-order term by sqrt(2):")
a = throughput_bounds(CovertParams.defaults(10**6, 0.01, eps)).first_order
b = throughput_bounds(CovertParams.defaults(10**6, 0.02, eps)).first_order
print(f"  first(2 delta)/first(delta) = {b / a:.6f}  sqrt(2) = {math.sqrt(2):.6f}")

# power schedules psi = c n^-tau: only tau = 1/2 balances covertness and rate
print("\npower-schedule regimes (c = 1):")
grid = default_n_grid(100, 10**7)
for tau in (0.25, 0.5, 0.75):
    sweep = asymptotic_sweep(1.0, tau, grid)
    tail = sweep.kl_bits[-1]
    extra = (
        f" -> limit c^2/4 log2 e = {sweep.plateau_kl_bits:.6f}"
        if sweep.plateau_kl_bits is not None
        else ""
    )
    print(f"  tau={tau}: {sweep.classification:<9} KL(n={int(grid[-1]):.0e}) = {tail:.3e} bits{extra}")

rows = bounds_grid([10**4, 10**5], delta, eps)
print("\nCSV export (fixed header):")
print(bounds_csv_text(rows), end="")
