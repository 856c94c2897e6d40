"""Full-sibling power comparison on a synthetic 4-subpopulation table.

Reproduces the power-comparison methodology end to end at desk scale:
simulate B unrelated pairs, take the empirical null threshold at the
target false positive rate, simulate B full-sibling pairs, and report the
exceedance proportion with its exact binomial CI, for all seven
statistics.
"""

import kinpower as kp

B = 100_000
ALPHA = 2e-4

table = kp.synth_frequency_table(
    n_subpops=4, n_loci=15, n_alleles=10, divergence=0.3, seed=11,
    proportions=[0.1108, 0.3695, 0.3538, 0.1659],
)
cfg = kp.SimConfig(table=table, theta0=kp.UNRELATED, theta1=kp.FULL_SIB,
                   B=B, seed=2026, workers=4)

print(f"simulating {B} null and {B} alternative pairs ...")
null, alt = kp.simulate(cfg)

print(f"\nfull-sibling test at alpha = {ALPHA}")
print(f"{'statistic':>10s} {'threshold':>12s} {'power':>8s} {'95% CI':>20s}")
for stat in kp.STATISTICS:
    report = kp.power_report(null, alt, stat, ALPHA)
    print(f"{stat:>10s} {report.threshold:>12.4g} {report.power:>8.3f} "
          f"({report.ci_low:.4f}, {report.ci_high:.4f})")
