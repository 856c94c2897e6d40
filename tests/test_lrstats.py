import math

import numpy as np
import pytest

import kinpower as kp
from kinpower import engine, errors
from kinpower.engine import BLOCK
from kinpower.lrstats import STATISTICS

from conftest import off_sum_tables, pair_of, rng
from oracles import reference_pair_probs


def profile_from(genos):
    return kp.Profile(tuple(kp.LocusGenotype(l, a) for l, a in genos))


@pytest.fixture
def worked_pair():
    p = profile_from([("D3S1358", ("13", "14"))])
    return (p, p)


class TestLoglik:
    """Per-subpopulation log-likelihoods carried by the LrBreakdown."""

    def test_worked_example(self, worked_pair, one_locus_table):
        b = kp.lr_all(worked_pair, kp.UNRELATED, kp.PARENT_CHILD, one_locus_table)
        # floor renormalization changes the frequencies by O(1e-16) only
        assert b.loglik1[0] == pytest.approx(math.log(0.0105), abs=1e-6)

    def test_equal_thetas_zero_difference(self, worked_pair, one_locus_table):
        b = kp.lr_all(worked_pair, kp.FULL_SIB, kp.FULL_SIB, one_locus_table)
        assert b.loglik0 == b.loglik1
        assert b.per_subpop_log_lr == (0.0,)

    def test_two_locus_sum(self):
        f = {"L1": {"A": 0.3, "B": 0.7}, "L2": {"C": 0.4, "D": 0.6}}
        table = kp.FrequencyTable(panel=("L1", "L2"),
                                  subpops=(kp.Subpopulation("pop", 1.0),),
                                  freqs={"pop": f})
        p1 = profile_from([("L1", ("A", "B")), ("L2", ("C", "C"))])
        p2 = profile_from([("L1", ("A", "A")), ("L2", ("C", "D"))])
        b = kp.lr_all((p1, p2), kp.UNRELATED, kp.FULL_SIB, table)
        g1, g2 = ({g.locus: g for g in p.genotypes} for p in (p1, p2))
        for theta, total in ((kp.UNRELATED, b.loglik0[0]), (kp.FULL_SIB, b.loglik1[0])):
            parts = sum(math.log(kp.pair_probability(g1[l], g2[l], theta, f[l])) for l in f)
            assert total == pytest.approx(parts, abs=1e-12)

    def test_minus_inf_propagates(self):
        f = {"L1": {"A": 0.3, "B": 0.7}}
        table = kp.FrequencyTable(panel=("L1",), subpops=(kp.Subpopulation("pop", 1.0),),
                                  freqs={"pop": f})
        p1 = profile_from([("L1", ("A", "A"))])
        p2 = profile_from([("L1", ("B", "B"))])
        b = kp.lr_all((p1, p2), kp.UNRELATED, kp.PARENT_CHILD, table)
        assert b.loglik1 == (-math.inf,)
        assert b.loglik1_local == b.loglik1_pooled == -math.inf


class TestLrAll:
    def test_k1_all_statistics_collapse(self, worked_pair, one_locus_table):
        b = kp.lr_all(worked_pair, kp.UNRELATED, kp.PARENT_CHILD, one_locus_table)
        values = [b.stats[s] for s in STATISTICS]
        assert all(v == pytest.approx(values[0], abs=1e-12) for v in values)
        assert math.exp(values[0]) == pytest.approx(0.0105 / 0.0036, abs=1e-4)

    def test_identical_subpops_collapse(self):
        csv = (
            "subpop,locus,allele,freq\n"
            "a,L1,A,0.3\na,L1,B,0.7\n"
            "b,L1,A,0.3\nb,L1,B,0.7\n"
        )
        meta = kp.TableMeta(subpops=["a", "b"], proportions=[0.4, 0.6])
        table = kp.load_frequency_table(csv, meta=meta)
        p1 = profile_from([("L1", ("A", "B"))])
        b = kp.lr_all((p1, p1), kp.UNRELATED, kp.FULL_SIB, table)
        values = [b.stats[s] for s in ("LAF", "AVG", "MAX", "MIN", "RMAX", "RMIN")]
        assert all(v == pytest.approx(values[0], abs=1e-12) for v in values)

    def test_avg_max_min_hand_example(self):
        # constructed single-locus frequencies giving per-subpop LRs 2 and 8
        # for the AA,AA parent-child vs unrelated test: LR = 1/p
        csv = (
            "subpop,locus,allele,freq\n"
            "a,L1,A,0.5\na,L1,B,0.5\n"
            "b,L1,A,0.125\nb,L1,B,0.875\n"
        )
        meta = kp.TableMeta(subpops=["a", "b"], proportions=[0.25, 0.75])
        table = kp.load_frequency_table(csv, meta=meta, floor=1e-12)
        p1 = profile_from([("L1", ("A", "A"))])
        b = kp.lr_all((p1, p1), kp.UNRELATED, kp.PARENT_CHILD, table)
        assert math.exp(b.stats["MAX"]) == pytest.approx(8.0, rel=1e-9)
        assert math.exp(b.stats["MIN"]) == pytest.approx(2.0, rel=1e-9)
        assert math.exp(b.stats["AVG"]) == pytest.approx(
            0.25 * 2.0 + 0.75 * 8.0, rel=1e-9)

    def test_min_avg_max_ordering(self, synth_table):
        generator = rng(13)
        cfg = kp.SimConfig(table=synth_table, theta0=kp.UNRELATED,
                           theta1=kp.FULL_SIB, B=2000, seed=5)
        alt = kp.simulate_alt(cfg)
        assert np.all(alt.statistics["MIN"] <= alt.statistics["AVG"] + 1e-9)
        assert np.all(alt.statistics["AVG"] <= alt.statistics["MAX"] + 1e-9)

    def test_subpop_permutation_invariance(self, two_subpop_table):
        t = two_subpop_table
        flipped = kp.FrequencyTable(
            panel=t.panel, subpops=t.subpops[::-1], freqs=t.freqs, floor=t.floor)
        p1 = profile_from([("L1", ("10", "11")), ("L2", ("7", "8"))])
        p2 = profile_from([("L1", ("10", "10")), ("L2", ("7", "7"))])
        b1 = kp.lr_all((p1, p2), kp.UNRELATED, kp.FULL_SIB, t)
        b2 = kp.lr_all((p1, p2), kp.UNRELATED, kp.FULL_SIB, flipped)
        for s in STATISTICS:
            assert b1.stats[s] == pytest.approx(b2.stats[s], abs=1e-12)

    def test_duplicated_subpop_leaves_stats_unchanged(self, two_subpop_table):
        t = two_subpop_table
        split = kp.FrequencyTable(
            panel=t.panel,
            subpops=(
                kp.Subpopulation("a", 0.5),
                kp.Subpopulation("b1", 0.25),
                kp.Subpopulation("b2", 0.25),
            ),
            freqs={"a": t.freqs["a"], "b1": t.freqs["b"], "b2": t.freqs["b"]},
            floor=t.floor)
        p1 = profile_from([("L1", ("10", "11")), ("L2", ("7", "8"))])
        p2 = profile_from([("L1", ("11", "11")), ("L2", ("8", "8"))])
        b1 = kp.lr_all((p1, p2), kp.UNRELATED, kp.FULL_SIB, t, cb_weights="census")
        b2 = kp.lr_all((p1, p2), kp.UNRELATED, kp.FULL_SIB, split, cb_weights="census")
        for s in STATISTICS:
            assert b1.stats[s] == pytest.approx(b2.stats[s], abs=1e-12)

    def test_brute_force_oracle_grid(self):
        # 2-allele, 1-locus, K=2: every statistic against a linear-space
        # transliteration of its defining formula
        generator = rng(17)
        for _ in range(25):
            fa, fb = generator.uniform(0.05, 0.95, size=2)
            w = float(generator.uniform(0.1, 0.9))
            csv = (
                "subpop,locus,allele,freq\n"
                f"a,L1,A,{fa}\na,L1,B,{1 - fa}\n"
                f"b,L1,A,{fb}\nb,L1,B,{1 - fb}\n"
            )
            meta = kp.TableMeta(subpops=["a", "b"], proportions=[w, 1 - w])
            table = kp.load_frequency_table(csv, meta=meta, floor=1e-12)
            g1 = kp.LocusGenotype("L1", ("A", "B"))
            g2 = kp.LocusGenotype("L1", ("A", "A"))
            pair = (kp.Profile((g1,)), kp.Profile((g2,)))
            b = kp.lr_all(pair, kp.UNRELATED, kp.FULL_SIB, table,
                          cb_weights="census")

            dists = [table.freqs["a"]["L1"], table.freqs["b"]["L1"]]
            props = table.proportions
            l0 = [reference_pair_probs(g1, g2, d)[0] for d in dists]
            l1 = [reference_pair_probs(g1, g2, d)[2] for d in dists]
            lrs = [x / y for x, y in zip(l1, l0)]
            flocal = {a: sum(p * d[a] for p, d in zip(props, dists))
                      for a in ("A", "B")}
            ref = reference_pair_probs(g1, g2, flocal)
            expected = {
                "LAF": ref[2] / ref[0],
                "AVG": sum(p * r for p, r in zip(props, lrs)),
                "MAX": max(lrs),
                "MIN": min(lrs),
                "RMAX": max(l1) / max(l0),
                "RMIN": min(l1) / min(l0),
                "CB": ref[2] / ref[0],
            }
            for s, want in expected.items():
                assert math.exp(b.stats[s]) == pytest.approx(want, abs=1e-10), s

    def test_structurally_impossible_pair_gives_minus_inf(self, two_subpop_table):
        p1 = profile_from([("L1", ("10", "10")), ("L2", ("7", "7"))])
        p2 = profile_from([("L1", ("11", "11")), ("L2", ("7", "7"))])
        # impossible under the alternative gives -inf whether or not it is
        # possible under the null; impossible only under the null gives +inf
        cases = ((kp.UNRELATED, kp.PARENT_CHILD, -math.inf),
                 (kp.PARENT_CHILD, kp.PARENT_CHILD, -math.inf),
                 (kp.PARENT_CHILD, kp.UNRELATED, math.inf))
        for theta0, theta1, want in cases:
            b = kp.lr_all((p1, p2), theta0, theta1, two_subpop_table)
            assert b.per_subpop_log_lr == (want, want)
            for s in STATISTICS:
                assert b.stats[s] == want, (theta0, theta1, s)

    @pytest.mark.parametrize("theta1", [kp.FULL_SIB, kp.PARENT_CHILD],
                             ids=["full-sib", "parent-child"])
    @pytest.mark.parametrize("simulate", [kp.simulate_null, kp.simulate_alt])
    def test_matches_engine_exactly(self, synth_table, simulate, theta1):
        # casework and simulation must give the same bits for the same pair,
        # +-inf included (parent-child makes most null pairs impossible)
        m = simulate(kp.SimConfig(table=synth_table, theta0=kp.UNRELATED,
                                  theta1=theta1, B=200, seed=3, keep_genotypes=True))
        for i in range(m.B):
            b = kp.lr_all(pair_of(synth_table, m.genotypes, i), kp.UNRELATED, theta1,
                          synth_table)
            for s in STATISTICS:
                assert b.stats[s] == m.statistics[s][i], (i, s)

    @pytest.mark.parametrize("theta1", [kp.FULL_SIB, kp.PARENT_CHILD],
                             ids=["full-sib", "parent-child"])
    def test_matches_the_memo_path_exactly(self, synth_table, theta1):
        # a run of more than one block reads its rows from the process's
        # memo, and its second block meets rows that the first block wrote;
        # lr_all then starts from an empty memo, filled one pair at a time
        engine._memo_rows.cache_clear()
        runs = kp.simulate(kp.SimConfig(table=synth_table, theta0=kp.UNRELATED, theta1=theta1,
                                        B=BLOCK + 64, seed=3, keep_genotypes=True))
        assert engine._memo_rows.cache_info().currsize == 1
        engine._memo_rows.cache_clear()
        infinite = 0
        for phase, m in zip(("null", "alt"), runs):
            for i in range(BLOCK, m.B):
                b = kp.lr_all(pair_of(synth_table, m.genotypes, i), kp.UNRELATED, theta1,
                              synth_table)
                got = np.array([b.stats[s] for s in STATISTICS])
                want = np.array([m.statistics[s][i] for s in STATISTICS])
                assert got.tobytes() == want.tobytes(), (phase, i)
                infinite += np.isinf(want).any()
        assert infinite > 0 or theta1 is kp.FULL_SIB

    def test_panel_mismatch(self, two_subpop_table):
        p1 = profile_from([("L1", ("10", "11"))])
        with pytest.raises(errors.PanelMismatch):
            kp.lr_all((p1, p1), kp.UNRELATED, kp.FULL_SIB, two_subpop_table)

    @pytest.mark.parametrize("field, value, message", [
        ("theta0", (1, 0, 0), "theta0 must be a ThetaIBD"),
        ("table", None, "table must be a FrequencyTable"),
    ])
    def test_rejects_malformed_input_as_simconfig_does(self, worked_pair, one_locus_table,
                                                       field, value, message):
        # unchecked, a tuple theta raised AttributeError on .as_tuple and
        # table=None on .panel
        kw = dict(theta0=kp.UNRELATED, theta1=kp.FULL_SIB, table=one_locus_table)
        kw[field] = value
        with pytest.raises(errors.InvalidParameter, match=message):
            kp.lr_all(worked_pair, **kw)

    @pytest.mark.parametrize("count", [3, 1, 0])
    def test_rejects_a_pair_that_is_not_two_profiles(self, worked_pair, one_locus_table, count):
        # unchecked, three profiles dropped the third and one raised IndexError
        pair = (worked_pair * 2)[:count]
        with pytest.raises(errors.InvalidParameter, match="pair must be two Profiles"):
            kp.lr_all(pair, kp.UNRELATED, kp.FULL_SIB, one_locus_table)

    def test_rejects_a_pair_of_strings(self, one_locus_table):
        # unchecked, this raised AttributeError on the first string's .loci
        with pytest.raises(errors.InvalidParameter, match="pair must be two Profiles"):
            kp.lr_all(("a.csv", "b.csv"), kp.UNRELATED, kp.FULL_SIB, one_locus_table)

    def test_breakdown_recomputable(self, two_subpop_table):
        p1 = profile_from([("L1", ("10", "11")), ("L2", ("7", "8"))])
        b = kp.lr_all((p1, p1), kp.UNRELATED, kp.FULL_SIB, two_subpop_table)
        llr = b.per_subpop_log_lr
        assert b.stats["MAX"] == max(llr)
        assert b.stats["MIN"] == min(llr)
        assert b.stats["MIN"] <= min(llr) <= max(llr) <= b.stats["MAX"]
        avg = math.log(sum(p * math.exp(r)
                           for p, r in zip(b.proportions, llr)))
        assert b.stats["AVG"] == pytest.approx(avg, abs=1e-12)

    @pytest.mark.parametrize("name", ["sum-0.99995", "sum-1.00005"])
    def test_avg_weighs_by_the_proportions_over_their_sum(self, name):
        # AVG's weights are the LAF row's: the proportions divided by their
        # sum, also when that sum misses 1; the engine gives the same bits
        table = off_sum_tables()[name]
        w = [p / math.fsum(table.proportions) for p in table.proportions]
        for m in kp.simulate(kp.SimConfig(table=table, theta0=kp.UNRELATED, theta1=kp.FULL_SIB,
                                          B=20, seed=3, keep_genotypes=True)):
            for i in range(m.B):
                b = kp.lr_all(pair_of(table, m.genotypes, i), kp.UNRELATED, kp.FULL_SIB, table)
                want = math.log(math.fsum(wk * math.exp(r)
                                          for wk, r in zip(w, b.per_subpop_log_lr)))
                assert abs(b.stats["AVG"] - want) <= 1e-12, i
                assert b.stats["AVG"] == m.statistics["AVG"][i], i


class TestInputErrors:
    """lr_all checks both profiles' loci before it encodes either, then
    encodes profile 1 before profile 2, with the messages of the
    per-profile checks."""

    GOOD = [("L1", ("10", "11")), ("L2", ("7", "8"))]

    def run(self, table, first, second):
        return kp.lr_all((profile_from(first), profile_from(second)), kp.UNRELATED,
                         kp.FULL_SIB, table)

    @pytest.mark.parametrize("bad, number", [(0, 1), (1, 2), (None, 1)])
    def test_unknown_allele_names_the_first_profile_holding_one(self, two_subpop_table,
                                                                bad, number):
        # None: both profiles hold an unknown allele; profile 1 is named
        pairs = [[("L1", ("10", "11")), ("L2", ("7", "99"))],
                 [("L1", ("12", "10")), ("L2", ("7", "8"))]]
        if bad is not None:
            pairs[1 - bad] = self.GOOD
        where = ("'99' at locus 'L2' of profile 1" if number == 1 else
                 "'12' at locus 'L1' of profile 2")
        with pytest.raises(errors.UnknownAllele) as info:
            self.run(two_subpop_table, *pairs)
        assert str(info.value) == f"allele {where} absent from frequency support"

    @pytest.mark.parametrize("missing", [0, 1])
    def test_a_missing_locus_is_found_before_any_allele(self, two_subpop_table, missing):
        # the other profile holds an unknown allele, which is not reported
        pairs = [[("L1", ("10", "99")), ("L2", ("7", "8"))] for _ in range(2)]
        pairs[missing] = [("L1", ("10", "11"))]
        with pytest.raises(errors.PanelMismatch) as info:
            self.run(two_subpop_table, *pairs)
        assert str(info.value) == "profile loci ['L1'] do not cover panel ['L1', 'L2']"

    def test_an_extra_locus_is_a_panel_mismatch(self, two_subpop_table):
        extra = self.GOOD + [("L3", ("1", "2"))]
        with pytest.raises(errors.PanelMismatch,
                           match=r"profile loci \['L1', 'L2', 'L3'\] do not cover"):
            self.run(two_subpop_table, self.GOOD, extra)

    def test_loci_in_any_order(self, two_subpop_table):
        b = self.run(two_subpop_table, self.GOOD, self.GOOD[::-1])
        assert b == self.run(two_subpop_table, self.GOOD, self.GOOD)


class TestPerPairCost:
    def test_lr_all_builds_no_table(self, synth_table, monkeypatch):
        # the frequency layout is built once, when the table is; a casework
        # pair only reads it
        built = []
        init = kp.FrequencyTable.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(kp.FrequencyTable, "__init__", counting_init)
        p1 = profile_from([(locus, synth_table.alleles(locus)[:2])
                           for locus in synth_table.panel])
        p2 = profile_from([(locus, synth_table.alleles(locus)[1:3])
                           for locus in synth_table.panel])
        for _ in range(10):
            kp.lr_all((p1, p2), kp.UNRELATED, kp.PARENT_CHILD, synth_table)
        assert built == []

    def test_lr_all_builds_no_sampling_cdfs(self, synth_table, monkeypatch):
        # the CDFs only the samplers read are built on the simulation path
        from kinpower import engine

        def refuse(table):
            raise AssertionError("lr_all built sampling CDFs")

        monkeypatch.setattr(engine, "_sampler", refuse)
        p1 = profile_from([(locus, synth_table.alleles(locus)[:2])
                           for locus in synth_table.panel])
        kp.lr_all((p1, p1), kp.UNRELATED, kp.FULL_SIB, synth_table)
        with pytest.raises(AssertionError, match="sampling CDFs"):
            kp.simulate_null(kp.SimConfig(table=synth_table, theta0=kp.UNRELATED,
                                          theta1=kp.FULL_SIB, B=10, seed=1))
