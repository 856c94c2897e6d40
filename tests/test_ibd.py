import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kinpower as kp
from kinpower.ibd import pair_components

from conftest import drawn_pairs, rng
from oracles import (all_genotypes, all_unordered_pairs, drawn_frequencies, hwe_prob,
                     reference_pair_components, reference_pair_probs)


def G(a, b, locus="L"):
    return kp.LocusGenotype(locus, (a, b))


def random_freqs(n_alleles, generator):
    x = generator.dirichlet(np.ones(n_alleles))
    return {str(10 + i): float(v) for i, v in enumerate(x)}


def random_theta(generator):
    z = generator.dirichlet(np.ones(3))
    z = z / z.sum()
    return kp.ThetaIBD(float(z[0]), float(z[1]), float(1.0 - z[0] - z[1]))


class TestThetaIBD:
    def test_presets(self):
        assert kp.UNRELATED.as_tuple() == (1, 0, 0)
        assert kp.PARENT_CHILD.as_tuple() == (0, 1, 0)
        assert kp.FULL_SIB.as_tuple() == (0.25, 0.5, 0.25)
        assert kp.HALF_SIB_PAPER.as_tuple() == (0, 0.5, 0.5)
        assert kp.HALF_SIB_STANDARD.as_tuple() == (0.5, 0.5, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            kp.ThetaIBD(-0.1, 0.6, 0.5)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            kp.ThetaIBD(0.5, 0.5, 0.1)

    @pytest.mark.parametrize("z", [(math.nan, 0.5, 0.5), (0.25, math.nan, 0.25),
                                   (0.5, 0.5, math.nan), (math.inf, 0.0, 0.0)])
    def test_rejects_non_finite(self, z):
        with pytest.raises(kp.errors.InvalidParameter, match="non-finite"):
            kp.ThetaIBD(*z)


class TestPairProbability:
    def test_worked_example(self):
        f = {"13": 0.15, "14": 0.20, "15": 0.65}
        pair = (G("13", "14"), G("13", "14"))
        assert kp.pair_probability(*pair, kp.PARENT_CHILD, f) == pytest.approx(0.0105)
        assert kp.pair_probability(*pair, kp.UNRELATED, f) == pytest.approx(0.0036)

    def test_parent_child_impossible_pair(self):
        f = {"A": 0.3, "B": 0.7}
        assert kp.pair_probability(G("A", "A"), G("B", "B"), kp.PARENT_CHILD, f) == 0.0

    def test_full_sib_ab_ab_equal_freqs(self):
        # Table cell pq(2pq+p+q+1)/2 with p=q=0.5
        f = {"A": 0.5, "B": 0.5}
        expected = 0.25 * (0.5 + 0.5 + 0.5 + 1) / 2
        assert kp.pair_probability(G("A", "B"), G("A", "B"), kp.FULL_SIB, f) \
            == pytest.approx(expected, abs=1e-15)

    def test_matches_reference_cells_on_grid(self):
        generator = rng(42)
        thetas = [kp.UNRELATED, kp.PARENT_CHILD, kp.FULL_SIB]
        for _ in range(200):
            n = int(generator.integers(2, 6))
            f = random_freqs(n, generator)
            for g1, g2 in all_unordered_pairs(list(f)):
                ref = reference_pair_probs(g1, g2, f)
                for theta, expected in zip(thetas, ref):
                    assert kp.pair_probability(g1, g2, theta, f) \
                        == pytest.approx(expected, abs=1e-12)

    def test_convex_decomposition_exact(self):
        generator = rng(7)
        for _ in range(50):
            f = random_freqs(int(generator.integers(2, 6)), generator)
            theta = random_theta(generator)
            for g1, g2 in all_unordered_pairs(list(f)):
                u = kp.pair_probability(g1, g2, kp.UNRELATED, f)
                pc = kp.pair_probability(g1, g2, kp.PARENT_CHILD, f)
                p2 = hwe_prob(g1, f) if g1 == g2 else 0.0
                combo = theta.z0 * u + theta.z1 * pc + theta.z2 * p2
                assert kp.pair_probability(g1, g2, theta, f) \
                    == pytest.approx(combo, rel=1e-15, abs=1e-300)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2 ** 32 - 1))
    def test_normalization_property(self, n_alleles, seed):
        generator = rng(seed)
        f = random_freqs(n_alleles, generator)
        theta = random_theta(generator)
        total = sum(kp.pair_probability(g1, g2, theta, f)
                    for g1, g2 in all_unordered_pairs(list(f)))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_symmetry(self):
        generator = rng(3)
        f = random_freqs(4, generator)
        theta = random_theta(generator)
        for g1, g2 in all_unordered_pairs(list(f)):
            assert kp.pair_probability(g1, g2, theta, f) \
                == kp.pair_probability(g2, g1, theta, f)

    def test_ordered_marginal_consistency(self):
        # Halving distinct-genotype pairs recovers the ordered joint, whose
        # marginal over the second genotype is the HWE probability of the first.
        generator = rng(5)
        f = random_freqs(5, generator)
        theta = random_theta(generator)
        for g1 in all_genotypes(list(f)):
            total = 0.0
            for g2 in all_genotypes(list(f)):
                p = kp.pair_probability(g1, g2, theta, f)
                total += p if g1 == g2 else p / 2
            assert total == pytest.approx(hwe_prob(g1, f), abs=1e-12)

    @pytest.mark.parametrize("f", [{"A": 2.0}, {"A": -0.5, "B": 1.5},
                                   {"A": math.nan, "B": 1.0}],
                             ids=["sum 2", "negative", "nan"])
    def test_rejects_invalid_frequencies(self, f):
        # unchecked, these gave 16.0, 0.0625 and nan
        with pytest.raises(kp.errors.InvalidParameter, match="frequencies"):
            kp.pair_probability(G("A", "A"), G("A", "A"), kp.UNRELATED, f)

    def test_unknown_allele(self):
        with pytest.raises(kp.errors.UnknownAllele, match="allele '99' at locus 'L' absent"):
            kp.pair_probability(G("13", "99"), G("13", "13"), kp.UNRELATED,
                                {"13": 1.0})

    def test_rejects_genotypes_at_two_loci(self):
        # unchecked, the pair was scored as if both genotypes were at one locus
        f = {"13": 0.3, "14": 0.3, "15": 0.4}
        with pytest.raises(kp.errors.PanelMismatch, match="'D3' and 'FGA'"):
            kp.pair_probability(G("13", "14", "D3"), G("13", "15", "FGA"), kp.FULL_SIB, f)


class TestPairComponents:
    def test_frequency_stack_is_an_exact_batch_axis(self):
        generator = rng(11)
        S, A, n = 5, 7, 3000
        f = generator.dirichlet(np.ones(A), size=S)
        f[:, 0] = 0.0  # an allele with frequency 0 in every set
        idx = generator.integers(0, A, size=(4, n))
        g1a, g1b = np.minimum(idx[0], idx[1]), np.maximum(idx[0], idx[1])
        g2a, g2b = np.minimum(idx[2], idx[3]), np.maximum(idx[2], idx[3])
        g1b[:500] = g1a[:500]  # homozygotes
        g2a[500:1000], g2b[500:1000] = g1a[500:1000], g1b[500:1000]  # identical pairs
        stacked = pair_components(g1a, g1b, g2a, g2b, f)
        rows = [pair_components(g1a, g1b, g2a, g2b, f[s]) for s in range(S)]
        for k in range(3):
            assert stacked[k].shape == (S, n)
            assert np.array_equal(stacked[k], np.stack([r[k] for r in rows]))
        for r in rows:
            assert np.array_equal(stacked[3], r[3])

    @pytest.mark.parametrize("n_alleles", [1, 2, 3, 6])
    def test_matches_where_formula_byte_for_byte(self, n_alleles):
        # every ordered pair of canonical genotypes, against the formula that
        # picks P1's transition terms with np.where
        geno = [(a, b) for b in range(n_alleles) for a in range(b + 1)]
        g1a, g1b, g2a, g2b = np.array([(*x, *y) for x in geno for y in geno]).T
        # a homozygous g1 sharing its allele with a heterozygous g2, so that
        # both slots of g1 hold that allele
        assert n_alleles == 1 or np.any((g1a == g1b) & (g2a == g1a) & (g2b != g2a))
        stacked = rng(n_alleles).dirichlet(np.ones(n_alleles), size=3)
        for f in (stacked[0], stacked):
            got = pair_components(g1a, g1b, g2a, g2b, f)
            want = reference_pair_components(g1a, g1b, g2a, g2b, f)
            for x, y in zip(got, want):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()


def one_locus_loglik(g1, g2, theta, f):
    """log P(g1, g2 | theta) as lr_all computes it, over a one-subpop table of f."""
    table = kp.FrequencyTable(panel=("L",), subpops=(kp.Subpopulation("pop", 1.0),),
                              freqs={"pop": {"L": f}})
    return kp.lr_all((kp.Profile((g1,)), kp.Profile((g2,))), theta, theta, table).loglik1[0]


class TestLogPairProbability:
    def test_log_of_worked_example(self):
        f = {"13": 0.15, "14": 0.20, "15": 0.65}
        value = one_locus_loglik(G("13", "14"), G("13", "14"), kp.PARENT_CHILD, f)
        assert value == pytest.approx(math.log(0.0105), abs=1e-12)

    def test_zero_probability_is_minus_inf(self):
        f = {"A": 0.3, "B": 0.7}
        assert one_locus_loglik(G("A", "A"), G("B", "B"), kp.PARENT_CHILD, f) == -math.inf

    def test_unrelated_always_finite(self):
        f = {"A": 0.3, "B": 0.7}
        for g1, g2 in all_unordered_pairs(list(f)):
            value = one_locus_loglik(g1, g2, kp.UNRELATED, f)
            assert math.isfinite(value)
            assert value == pytest.approx(
                math.log(kp.pair_probability(g1, g2, kp.UNRELATED, f)), abs=1e-12)


def one_locus_draws(f, theta, alt, n, seed):
    """Allele labels and the (n, 1) genotype arrays of n pairs that the
    engine's alt (theta) or null phase draws over a one-subpop table of f."""
    table = kp.FrequencyTable(panel=("L",), subpops=(kp.Subpopulation("pop", 1.0),),
                              freqs={"pop": {"L": f}})
    cfg = kp.SimConfig(table=table, B=n, seed=seed, theta0=kp.UNRELATED, theta1=theta,
                       statistics=("LAF",))
    return table.labels[0], drawn_pairs(cfg, alt)


class TestSampleGenotype:
    """The HWE draw of individual 1, as the engine's sampler makes it."""

    def test_heterozygote_fraction(self):
        n = 200_000
        _, g = one_locus_draws({"A": 0.5, "B": 0.5}, kp.UNRELATED, False, n, seed=2)
        het = int(np.count_nonzero(g["g1a"] != g["g1b"]))
        # 2pq = 0.5; 4 sigma band
        assert abs(het / n - 0.5) < 4 * math.sqrt(0.25 / n)

    def test_hwe_genotype_frequencies(self):
        f = {"A": 0.2, "B": 0.3, "C": 0.5}
        n = 100_000
        labels, g = one_locus_draws(f, kp.UNRELATED, False, n, seed=3)
        counts = drawn_frequencies(labels, (g["g1a"], g["g1b"]))
        for g1 in all_genotypes(list(f)):
            expected = hwe_prob(g1, f)
            observed = counts.get((g1.alleles,), 0.0)
            sigma = math.sqrt(expected * (1 - expected) / n)
            assert abs(observed - expected) < 4 * sigma


class TestSampleRelated:
    """The relative's draw (related_from_uniforms) inside simulate_alt."""

    def test_full_sib_joint_matches_analytic(self):
        f = {"A": 0.2, "B": 0.3, "C": 0.5}
        n = 100_000
        labels, g = one_locus_draws(f, kp.FULL_SIB, True, n, seed=6)
        counts = drawn_frequencies(labels, (g["g1a"], g["g1b"]), (g["g2a"], g["g2b"]))
        for g1, g2 in all_unordered_pairs(list(f)):
            expected = kp.pair_probability(g1, g2, kp.FULL_SIB, f)
            key = tuple(sorted((g1.alleles, g2.alleles)))
            observed = counts.get(key, 0.0)
            sigma = math.sqrt(expected * (1 - expected) / n)
            assert abs(observed - expected) <= 4 * sigma + 1e-12
