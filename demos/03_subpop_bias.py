"""Per-subpopulation power and difference-in-power confidence intervals.

A statistic is fair across subpopulations when, at a common null
threshold, its power conditioned on each subpopulation is about the same.
This demo estimates per-subpopulation power for the MIN and LAF
statistics and prints the Wald CI for every pairwise difference; a CI
containing zero means no detectable bias between that pair.
"""

import kinpower as kp

B = 100_000
ALPHA = 2e-4

table = kp.synth_frequency_table(
    n_subpops=4, n_loci=15, n_alleles=10, divergence=0.3, seed=11,
)
cfg = kp.SimConfig(table=table, theta0=kp.UNRELATED, theta1=kp.FULL_SIB,
                   B=B, seed=99, statistics=("LAF", "MIN"), workers=4)
null, alt = kp.simulate(cfg)

for stat in cfg.statistics:
    c = kp.null_threshold(null.statistics[stat], ALPHA)
    per = {}
    for k, name in enumerate(alt.subpop_names):
        est, n, ci = kp.subpop_power(alt, stat, c, k)
        per[name] = (est, n)
        print(f"{stat} | {name:>4s}: power={est:.3f} (n={n})")
    names = list(per)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            d = kp.power_diff_ci(per[names[i]][0], per[names[i]][1],
                                 per[names[j]][0], per[names[j]][1],
                                 subpop_i=names[i], subpop_j=names[j])
            verdict = "fair" if d.ci_low <= 0.0 <= d.ci_high else "biased"
            print(f"  {names[i]}-{names[j]}: {d.estimate:+.4f} "
                  f"({d.ci_low:+.4f}, {d.ci_high:+.4f}) -> {verdict}")
    print()
