"""Exact checks on tiny panels, against masses enumerated in plain Python:
the null pair draw with and without cross-subpop mixing, and Good's bound
P_null(LR > t) <= 1/t for K = 1, where LAF is the true likelihood ratio
(Kruijver, Meester & Slooten 2015)."""

import itertools
import math
import sys

import numpy as np
import pytest

import kinpower as kp

# chi-square's 0.999 quantile at 8 degrees of freedom: 9 cells less one
CHI2_8_999 = 26.12


def hwe(f, a, b):
    """The HWE probability of genotype (a, b) under allele frequencies f."""
    return f[a] * f[b] * (1 if a == b else 2)


class TestNullPairDistribution:
    """A K=2, one-locus, two-allele table with far-apart subpops: the 9
    ordered (g1, g2) genotype cells of 20,000 null pairs against their exact
    masses, under mixing (each individual's subpop drawn on its own) and
    under ``null_same_subpop`` (one subpop for both)."""

    B = 20_000
    F = ({"1": 0.9, "2": 0.1}, {"1": 0.1, "2": 0.9})
    P = (0.4, 0.6)
    GENOTYPES = (("1", "1"), ("1", "2"), ("2", "2"))   # code b(b+1)/2 + a

    def table(self):
        subpops = tuple(kp.Subpopulation(name, p) for name, p in zip("xy", self.P))
        return kp.FrequencyTable(panel=("L1",), subpops=subpops,
                                 freqs={s.name: {"L1": f} for s, f in zip(subpops, self.F)})

    def exact(self, same_subpop):
        """The 9 cells' masses, row g1 and column g2."""
        given = np.array([[hwe(f, *g) for g in self.GENOTYPES] for f in self.F])   # (K, 3)
        p = np.array(self.P)
        if same_subpop:
            return np.einsum("k,ki,kj->ij", p, given, given)
        marginal = p @ given
        return np.outer(marginal, marginal)

    def counts(self, same_subpop):
        cfg = kp.SimConfig(table=self.table(), theta0=kp.UNRELATED, theta1=kp.FULL_SIB,
                           B=self.B, seed=5, statistics=("LAF",), keep_genotypes=True,
                           null_same_subpop=same_subpop)
        g = kp.simulate_null(cfg).genotypes
        c1, c2 = (g[b].ravel() * (g[b].ravel() + 1) // 2 + g[a].ravel()
                  for a, b in (("g1a", "g1b"), ("g2a", "g2b")))
        return np.bincount(c1 * 3 + c2, minlength=9).reshape(3, 3)

    def chi2(self, counts, mass):
        expected = self.B * mass
        return float((((counts - expected) ** 2) / expected).sum())

    @pytest.mark.parametrize("same_subpop", [False, True], ids=["mixing", "same-subpop"])
    def test_counts_fit_their_mode_and_not_the_other(self, same_subpop):
        counts = self.counts(same_subpop)
        assert counts.sum() == self.B
        assert math.isclose(self.exact(same_subpop).sum(), 1.0)
        assert self.chi2(counts, self.exact(same_subpop)) < CHI2_8_999
        assert self.chi2(counts, self.exact(not same_subpop)) > CHI2_8_999


@pytest.mark.parametrize("theta1", [kp.FULL_SIB, kp.PARENT_CHILD],
                         ids=["full-sib", "parent-child"])
def test_goods_bound_for_one_subpop(theta1):
    # every ordered pair of two-locus, three-allele genotypes, 36 ** 2 of them,
    # with its exact HWE null mass and lr_all's LAF; for K = 1 LAF is the
    # true LR, so at every attained t the null tail P(LR >= t), which holds
    # P(LR > t), is at most 1/t, within a few ulps
    freqs = {"L1": {"a": 0.5, "b": 0.3, "c": 0.2}, "L2": {"a": 0.6, "b": 0.25, "c": 0.15}}
    table = kp.FrequencyTable(panel=tuple(freqs), subpops=(kp.Subpopulation("pop", 1.0),),
                              freqs={"pop": freqs})
    per_locus = [[(kp.LocusGenotype(locus, g), hwe(f, *g))
                  for g in itertools.combinations_with_replacement(sorted(f), 2)]
                 for locus, f in freqs.items()]
    profiles = [(kp.Profile(tuple(g for g, _ in gs)), math.prod(m for _, m in gs))
                for gs in itertools.product(*per_locus)]
    pairs = [(kp.lr_all((p1, p2), kp.UNRELATED, theta1, table).stats["LAF"], m1 * m2)
             for (p1, m1), (p2, m2) in itertools.product(profiles, profiles)]
    assert len(pairs) == 1296 and math.isclose(math.fsum(m for _, m in pairs), 1.0)
    # E_null[LR] is the alternative's total mass, 1 here, as no pair is null-impossible
    assert math.isclose(math.fsum(math.exp(v) * m for v, m in pairs), 1.0, rel_tol=1e-12)
    pairs.sort(reverse=True)
    values = [v for v, _ in pairs]
    masses = [m for _, m in pairs]
    slack = 1 + 8 * sys.float_info.epsilon
    for v in sorted(set(values) - {-math.inf}):
        tail = math.fsum(masses[:len(values) - values[::-1].index(v)])   # LR >= exp(v)
        assert tail <= math.exp(-v) * slack, (v, tail)
