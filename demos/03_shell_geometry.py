"""Geometry of the truncated-Gaussian code shell.

A codeword is a Gaussian vector conditioned to a thin spherical shell
sqrt(mu^2 n psi) <= ||x|| <= sqrt(n psi). Sphere hardening makes the shell
capture almost all of the Gaussian mass as n grows, so the conditioning
costs almost nothing at scale.
"""

import math

import numpy as np

from covertawgn import (
    TruncatedGaussianSpec,
    output_divergences_quadrature,
    radial_output_density,
    sample_codewords,
    shell_mass,
)

print("shell complement 1 - Delta(n, mu) (mass lost to conditioning):")
print(f"{'n':>6}" + "".join(f"  mu={mu:<6}" for mu in (0.7, 0.8, 0.85)))
for n in (50, 100, 200, 400, 800):
    row = "".join(f"  {1.0 - shell_mass(n, mu):<9.3e}" for mu in (0.7, 0.8, 0.85))
    print(f"{n:>6}{row}")

spec = TruncatedGaussianSpec(n=64, psi=0.25, mu=0.8)
x = sample_codewords(spec, 50_000, np.random.default_rng(1))
norms = np.linalg.norm(x, axis=1)
print(f"\nsampled 50k codewords, n=64, psi=0.25, mu=0.8:")
print(f"  shell radii [{spec.r_inner:.4f}, {spec.r_outer:.4f}]"
      f"  observed [{norms.min():.4f}, {norms.max():.4f}]")
print(f"  mean per-coordinate power {np.mean(norms**2) / 64:.6f}"
      f"  (variance parameter mu*psi = {spec.variance:.6f})")

# characteristic function exp(-mu psi ||t||^2 / 2) of the generating Gaussian
t = np.zeros(100)
t[0] = 1.0
print(f"\ncharacteristic function at ||t||=1, n=100, psi=0.1, mu=0.8:"
      f" {math.exp(-0.5 * 0.8 * 0.1 * float(t @ t)):.10f} (= exp(-0.04))")

# What the channel does to the shell: the output f_bar is a mixture of
# noncentral shells, still spherical, and stays close to pure noise
model = radial_output_density(spec)
rep = output_divergences_quadrature(model)
print(f"\noutput vs pure noise at this power (quadrature):")
print(f"  KL = {rep.kl_bits:.4f} bits, V_T = {rep.tvd:.4f}, H^2 = {rep.hellinger_sq:.4f}")
print(f"  density ratio at the origin: "
      f"{math.exp(model.log_density_ratio(0.0)):.4f} (< 1: mixing pushes mass out)")
