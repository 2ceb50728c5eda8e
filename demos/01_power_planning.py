"""Pick a per-symbol power for a covertness budget, three ways.

For a KL budget of delta bits at blocklength n there are three natural power
levels: the closed-form sufficient corner (guaranteed to fit the budget), the
closed-form necessary corner (an upper bound on the exact solution while the
Taylor bracket is valid), and the exact solution of
(n/2)[x - ln(1+x)] log2 e = delta.
"""

from covertawgn import CovertParams, IsotropicGaussianPair, kl_isotropic, plan

for n, delta in [(400, 0.01), (400, 0.001), (4096, 0.01), (10**6, 0.05)]:
    p = plan(CovertParams.defaults(n, delta))
    print(f"n={n:>7}  delta={delta:g} bits")
    print(f"  psi_suf   = {p.psi_suf:.6e}")
    print(f"  psi_nec   = {p.psi_nec:.6e}")
    print(f"  psi_exact = {p.psi_exact:.6e}")
    print(f"  bracket valid below x = {p.bracket_valid_below:.4e}"
          + (f"  flags: {', '.join(p.flags)}" if p.flags else ""))
    # the sufficient corner really is sufficient: spend mu * psi_suf of
    # per-coordinate power and the budget is not exhausted
    params = p.params
    spent = kl_isotropic(IsotropicGaussianPair(n, 1.0 + params.mu * p.psi_suf))
    print(f"  KL at mu*psi_suf = {spent:.6f} bits (budget {delta:g})")
    assert spent <= delta + 1e-12
    print()

print("Note the default geometry (mu = n/(n+1), nu^2 = eta = (n+1)/n) makes")
print("the two closed-form corners coincide: mu^2 nu^2 eta = 1 exactly.")
