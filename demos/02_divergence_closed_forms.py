"""Closed-form divergences between N(0, sigma^2 I_n) and unit noise N(0, I_n).

Every report validates the Hellinger sandwich H^2 <= V_T <= sqrt(1-(1-H^2)^2)
and Pinsker at construction; printing a report means it passed both.
"""

import numpy as np

from covertawgn import (
    CovarianceSpec,
    IsotropicGaussianPair,
    isotropic_report,
    kl_general_covariance,
    kl_isotropic,
)

print("isotropic pairs, n=64:")
print(f"{'sigma1^2':>10} {'KL (bits)':>12} {'V_T':>10} {'H^2':>10}")
for s2 in (1.001, 1.01, 1.1, 1.5, 3.0):
    rep = isotropic_report(IsotropicGaussianPair(64, s2))
    print(f"{s2:>10} {rep.kl_bits:>12.6f} {rep.tvd:>10.6f} {rep.hellinger_sq:>10.6f}")

# At fixed total power an adversary learns the least when the power is spread
# evenly: the isotropic spectrum minimizes KL at fixed trace.
rng = np.random.default_rng(0)
n, excess = 16, 0.3
iso = kl_isotropic(IsotropicGaussianPair(n, 1.0 + excess))
worst_gap = min(
    kl_general_covariance(CovarianceSpec(tuple(lam))) - iso
    for lam in (1.0 + excess * n * w / w.sum() for w in rng.uniform(0.1, 1.0, (500, n)))
)
print(f"\nisotropic KL at trace excess {excess}: {iso:.6f} bits")
print(f"smallest gap to 500 random same-trace spectra: {worst_gap:.3e} bits (>= 0)")
