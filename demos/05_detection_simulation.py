"""End-to-end Monte Carlo: Bob decodes, Willie runs the optimal detector.

At the sufficient power the best binary test Willie can run (energy detection,
which here coincides with the likelihood-ratio test) is barely better than
guessing, and its advantage 1 - (alpha + beta) matches the total variation
predicted by quadrature.
"""

from covertawgn import (
    TruncatedGaussianSpec,
    output_divergences_quadrature,
    psi_suf,
    radial_output_density,
    simulate,
)

n, delta, mu = 64, 0.05, 0.8
psi = psi_suf(n, delta, mu, 1.0 + 1.0 / n)
spec = TruncatedGaussianSpec(n=n, psi=psi, mu=mu)
print(f"n={n}, delta={delta} bits -> psi = {psi:.6f} (per-symbol SNR {mu * psi:.6f})")

res = simulate(spec, M=4, trials=60_000, seed=2024)
det = res.detection

rep = output_divergences_quadrature(radial_output_density(spec))
print(f"""
Bob ({res.decode_trials} trials, M=4):
  decode error rate {res.decode_error_rate:.4f} (worst message {res.decode_error_worst_message:.4f})

Willie ({det.trials_h0}+{det.trials_h1} trials, energy detector, Bayes threshold):
  missed detection alpha = {det.alpha:.4f}
  false alarm      beta  = {det.beta:.4f}
  advantage 1-(alpha+beta) = {1.0 - det.sum_error:.4f} +- {det.std_err:.4f}
  total variation (quadrature) = {rep.tvd:.4f}

output-vs-noise divergences, Monte Carlo vs quadrature:
  KL  {res.empirical_kl_bits.value:.4f} +- {res.empirical_kl_bits.std_err:.4f} bits   vs {rep.kl_bits:.4f}
  V_T {res.empirical_tvd.value:.4f} +- {res.empirical_tvd.std_err:.4f}        vs {rep.tvd:.4f}
""")

# the same budget spent carelessly: double the necessary power and the
# detector advantage becomes decisive
loud = TruncatedGaussianSpec(n=n, psi=4 * psi, mu=mu)
res_loud = simulate(loud, M=4, trials=20_000, seed=2024)
print(f"at 4x the power: detector advantage "
      f"{1.0 - res_loud.detection.sum_error:.4f}, "
      f"decode error {res_loud.decode_error_rate:.4f}")
