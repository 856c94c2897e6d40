"""Walk through a single-locus likelihood ratio by hand.

Two individuals both typed (13,14) at D3S1358, with allele frequencies
0.15 and 0.20. Under a parent-child relationship the pair probability is
(0.15)(0.20)(0.15+0.20) = 0.0105; under unrelatedness it is
4(0.15)^2(0.20)^2 = 0.0036, giving LR = 0.0105/0.0036 = 2.9167.
"""

import kinpower as kp

g1 = kp.LocusGenotype("D3S1358", ("13", "14"))
g2 = kp.LocusGenotype("D3S1358", ("13", "14"))
freqs = {"13": 0.15, "14": 0.20, "15": 0.65}

p_pc = kp.pair_probability(g1, g2, kp.PARENT_CHILD, freqs)
p_un = kp.pair_probability(g1, g2, kp.UNRELATED, freqs)
print(f"P(pair | parent-child) = {p_pc:.4f}")
print(f"P(pair | unrelated)    = {p_un:.4f}")
print(f"LR = {p_pc / p_un:.4f}")

# Full siblings are the convex mix 1/4 unrelated + 1/2 parent-child + 1/4
# identical, so their pair probability falls between the two above.
p_fs = kp.pair_probability(g1, g2, kp.FULL_SIB, freqs)
print(f"P(pair | full sibs)    = {p_fs:.4f}")
print("convex identity holds:",
      abs(p_fs - (0.25 * p_un + 0.5 * p_pc + 0.25 * 2 * 0.15 * 0.20)) < 1e-15)
