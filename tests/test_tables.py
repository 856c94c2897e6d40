import copy
import io
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kinpower as kp
from kinpower import engine, errors
from kinpower.power import read_diff_cis_csv, read_power_curves_csv, read_power_reports_csv
from kinpower.tables import FREQ_SUM_TOL, PROPORTION_TOL, _check_counts, _pool

from conftest import off_sum_tables
from oracles import reference_pool


BASIC_CSV = (
    "subpop,locus,allele,freq\n"
    "a,L1,10,0.5\n"
    "a,L1,11,0.5\n"
)


class TestLoadFrequencyTable:
    def test_already_normalized_single_subpop(self):
        table = kp.load_frequency_table(BASIC_CSV, floor=1e-5)
        dist = table.freqs["a"]["L1"]
        assert dist == {"10": 0.5, "11": 0.5}
        assert table.n_subpops == 1 and table.n_loci == 1

    def test_floor_raises_and_renormalizes(self):
        csv = (
            "subpop,locus,allele,freq\n"
            "a,L1,10,0.999999\n"
            "a,L1,11,0.0\n"
        )
        table = kp.load_frequency_table(csv, floor=1e-5)
        dist = table.freqs["a"]["L1"]
        norm = 0.999999 + 1e-5
        assert dist["11"] == pytest.approx(1e-5 / norm)
        assert dist["10"] == pytest.approx(0.999999 / norm)
        assert abs(sum(dist.values()) - 1.0) < FREQ_SUM_TOL

    def test_union_support_floored_across_subpops(self):
        # allele 12 only typed in subpop b; it must get positive frequency in a
        csv = (
            "subpop,locus,allele,freq\n"
            "a,L1,10,0.5\n"
            "a,L1,11,0.5\n"
            "b,L1,10,0.3\n"
            "b,L1,11,0.3\n"
            "b,L1,12,0.4\n"
        )
        table = kp.load_frequency_table(csv, floor=1e-5)
        assert table.freqs["a"]["L1"]["12"] > 0.0
        assert table.alleles("L1") == ("10", "11", "12")

    def test_thai_shaped_config(self):
        table = kp.synth_frequency_table(
            n_subpops=4, n_loci=15, n_alleles=8, divergence=0.2, seed=1,
            proportions=[0.1108, 0.3695, 0.3538, 0.1659])
        assert table.n_subpops == 4
        assert table.n_loci == 15
        assert sum(table.proportions) == pytest.approx(1.0, abs=1e-12)

    def test_proportions_renormalized_within_tolerance(self):
        meta = kp.TableMeta(subpops=["a"], proportions=[0.99995])
        table = kp.load_frequency_table(BASIC_CSV, meta=meta)
        assert table.proportions == (1.0,)

    def test_proportions_out_of_tolerance(self):
        meta = kp.TableMeta(subpops=["a"], proportions=[0.9])
        with pytest.raises(errors.ProportionSumOutOfTolerance):
            kp.load_frequency_table(BASIC_CSV, meta=meta)

    def test_duplicate_allele(self):
        csv = BASIC_CSV + "a,L1,10,0.1\n"
        with pytest.raises(errors.DuplicateAllele):
            kp.load_frequency_table(csv)

    def test_missing_locus_for_subpop(self):
        csv = BASIC_CSV + "b,L2,10,1.0\n"
        meta = kp.TableMeta(subpops=["a", "b"], proportions=[0.5, 0.5])
        with pytest.raises(errors.MissingLocusForSubpop):
            kp.load_frequency_table(csv, meta=meta)

    def test_negative_frequency(self):
        csv = "subpop,locus,allele,freq\na,L1,10,-0.5\na,L1,11,1.5\n"
        with pytest.raises(errors.NonPositiveFrequency):
            kp.load_frequency_table(csv)

    def test_malformed_row(self):
        with pytest.raises(errors.MalformedRow):
            kp.load_frequency_table("subpop,locus,allele,freq\na,L1,10\n")

    def test_bad_header(self):
        with pytest.raises(errors.MalformedRow):
            kp.load_frequency_table("locus,allele,freq\nL1,10,1.0\n")

    def test_round_trip(self, two_subpop_table):
        dumped = kp.dump_frequency_table(two_subpop_table)
        meta = kp.load_table_meta(kp.dump_table_meta(two_subpop_table))
        reloaded = kp.load_frequency_table(dumped, meta=meta)
        assert reloaded == two_subpop_table
        assert kp.dump_frequency_table(reloaded) == dumped


    def test_round_trip_numpy_floats(self, two_subpop_table):
        # numpy scalars must dump as plain numbers, not as np.float64(...)
        t = two_subpop_table
        freqs = {name: {locus: {a: np.float64(f) for a, f in dist.items()}
                        for locus, dist in by_locus.items()}
                 for name, by_locus in t.freqs.items()}
        subpops = tuple(kp.Subpopulation(s.name, np.float64(s.proportion)) for s in t.subpops)
        table = kp.FrequencyTable(panel=t.panel, subpops=subpops, freqs=freqs,
                                  floor=np.float64(t.floor))
        dumped = kp.dump_frequency_table(table)
        assert dumped == kp.dump_frequency_table(t)
        meta = kp.load_table_meta(kp.dump_table_meta(table))
        assert kp.load_frequency_table(dumped, meta=meta) == t

    @pytest.mark.parametrize("floor", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_floor(self, floor):
        with pytest.raises(errors.NonPositiveFrequency):
            kp.load_frequency_table(BASIC_CSV, floor=floor)
        meta = kp.load_table_meta(f"floor = {floor!r}\n")
        with pytest.raises(errors.NonPositiveFrequency):
            kp.load_frequency_table(BASIC_CSV, meta=meta)

    @pytest.mark.parametrize("floor", [0.0, -1.0, math.nan])
    def test_bad_floor_refused_before_flooring(self, floor):
        # b lists only a zero at L1, so flooring it would divide by zero
        with pytest.raises(errors.NonPositiveFrequency):
            kp.load_frequency_table(BASIC_CSV + "b,L1,10,0\n", floor=floor)

    @pytest.mark.parametrize("meta_text, error, message", [
        ("subpops = a, c\n", errors.MissingLocusForSubpop, "'c' absent"),
        ("subpops = a, b\nproportions = 1.0\n", errors.ProportionSumOutOfTolerance,
         "1 proportions for 2"),
        ("subpops = a, b\nsample_sizes = 10, 20, 30\n", errors.MissingSampleSizes,
         "3 sample sizes for 2"),
        # a proportion fault is reported before a sample-size fault
        ("subpops = a, b\nproportions = 0.5, -0.5\nsample_sizes = 10\n",
         errors.ProportionSumOutOfTolerance, "'b' proportion -0.5"),
        ("subpops = a, b\nproportions = 0.5, 0.6\nsample_sizes = 10\n",
         errors.ProportionSumOutOfTolerance, "sum to"),
        ("subpops = a, b\nproportions = 0.5, -0.5\nsample_sizes = 0, 10\n",
         errors.ProportionSumOutOfTolerance, "'b' proportion -0.5"),
    ], ids=["absent-subpop", "proportion-count", "sample-size-count",
            "proportion-before-size-count", "sum-before-size-count",
            "proportion-before-size"])
    def test_metadata_that_does_not_fit_the_csv(self, meta_text, error, message):
        csv = BASIC_CSV + "b,L1,10,0.5\nb,L1,11,0.5\n"
        with pytest.raises(error, match=message):
            kp.load_frequency_table(csv, meta=kp.load_table_meta(meta_text))

    @pytest.mark.parametrize("meta_text, what", [
        ("subpops = \n", "subpopulation"),
        ("subpops = a, a\n", "subpopulation"),
        ("panel = \n", "locus"),
        ("panel = L1, L1\n", "locus"),
    ])
    def test_rejects_empty_or_repeated_names(self, meta_text, what):
        # a locus listed twice would count twice in every likelihood
        meta = kp.load_table_meta(meta_text)
        with pytest.raises(errors.MalformedRow, match=f"at least one {what}, each once"):
            kp.load_frequency_table(BASIC_CSV, meta=meta)

    @pytest.mark.parametrize("freq", ["nan", "inf", "-inf", "1e400"])
    def test_rejects_non_finite_frequency(self, freq):
        csv = f"subpop,locus,allele,freq\na,L1,10,0.5\na,L1,11,{freq}\n"
        with pytest.raises(errors.NonPositiveFrequency, match="line 3"):
            kp.load_frequency_table(csv)

    @pytest.mark.parametrize("size", [0, -5])
    def test_rejects_sample_size_below_one(self, size):
        csv = BASIC_CSV + "b,L1,10,0.5\nb,L1,11,0.5\n"
        meta = kp.load_table_meta(f"subpops = a, b\nsample_sizes = {size}, 10\n")
        with pytest.raises(errors.InvalidParameter, match="sample size"):
            kp.load_frequency_table(csv, meta=meta)

    @pytest.mark.parametrize("floor", [2.0, 0.5])
    def test_rejects_floor_that_replaces_the_data(self, floor):
        # BASIC_CSV has 2 alleles, so any floor >= 1/2 would lift both to it
        with pytest.raises(errors.NonPositiveFrequency, match="1/2"):
            kp.load_frequency_table(BASIC_CSV, floor=floor)

    def test_floor_checked_against_largest_locus(self):
        # L1 has 2 alleles, L2 has 5: the floor must stay below 1/5
        csv = BASIC_CSV + "".join(f"a,L2,{a},0.2\n" for a in range(5))
        just_under = 0.2 - 1e-9
        table = kp.load_frequency_table(csv, floor=just_under)
        assert min(table.freqs["a"]["L2"].values()) == pytest.approx(0.2)
        with pytest.raises(errors.NonPositiveFrequency, match="1/5"):
            kp.load_frequency_table(csv, floor=0.2)

    def test_load_independent_of_hash_seed(self, tmp_path):
        # string hashing, and with it set iteration order, changes with
        # PYTHONHASHSEED; the loaded table must not
        table = kp.synth_frequency_table(n_subpops=4, n_loci=3, n_alleles=24,
                                         divergence=0.3, seed=3)
        path = tmp_path / "freqs.csv"
        path.write_text(kp.dump_frequency_table(table), encoding="utf-8")
        script = (
            "import hashlib, sys, kinpower as kp\n"
            "with open(sys.argv[1], encoding='utf-8') as fh:\n"
            "    t = kp.load_frequency_table(fh)\n"
            "print(hashlib.sha256(kp.dump_frequency_table(t).encode()).hexdigest())\n"
        )
        src = str(Path(kp.__file__).resolve().parent.parent)
        digests = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                 capture_output=True, text=True, check=True, timeout=120)
            digests.add(out.stdout.strip())
        assert len(digests) == 1, digests


class TestFrequencyTableConstruction:
    @staticmethod
    def table(freqs, proportions=None, panel=("L1",)):
        names = list(freqs) if proportions is None else list(proportions)
        props = proportions or {name: 1.0 / len(names) for name in names}
        return kp.FrequencyTable(
            panel=panel, subpops=tuple(kp.Subpopulation(n, props[n]) for n in names),
            freqs=freqs)

    @pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
                             ids=["deepcopy", "pickle"])
    def test_a_copy_hashes_equal_read_only(self, synth_table, copy_of):
        # a copy is an equal table, so the engine's per-process caches serve
        # it what the original derived, and its matrix stays read-only
        kernel, sampler = engine._compile(synth_table, "auto"), engine._sampler(synth_table)
        other = copy_of(synth_table)
        assert other is not synth_table and other == synth_table
        assert hash(other) == hash(synth_table) and not hasattr(other, "memo")
        assert not other.matrix.flags.writeable
        assert other.matrix.tobytes() == synth_table.matrix.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            other.matrix[0, 0] = 0.5
        assert engine._compile(other, "auto") is kernel and engine._sampler(other) is sampler

    def test_equal_tables_hash_equal(self):
        # freqs in another key order and -0.0 for 0.0 give an equal table,
        # and so the same hash; another frequency gives another hash
        def table(b, c, order=(0, 1, 2)):
            freqs = [("9", 0.5), ("10", b), ("11", c)]
            return self.table({"x": {"L1": dict(freqs[i] for i in order)}})

        base = table(0.0, 0.5)
        for other in (table(0.0, 0.5, order=(2, 0, 1)), table(-0.0, 0.5)):
            assert other == base and hash(other) == hash(base)
        assert {base: 1}[table(-0.0, 0.5, order=(1, 2, 0))] == 1
        assert table(0.25, 0.25) != base and hash(table(0.25, 0.25)) != hash(base)

    def test_eq_is_the_equality_of_the_four_fields(self, two_subpop_table):
        # == compares one digest of panel, subpops, freqs and floor in their
        # place: over these variants it is their tuple's equality, and the
        # hash follows it
        t = two_subpop_table

        def variant(**change):
            return kp.FrequencyTable(**{"panel": t.panel, "subpops": t.subpops,
                                        "freqs": t.freqs, "floor": t.floor, **change})

        nudged = {**t.freqs, "a": {**t.freqs["a"], "L1": {"10": np.nextafter(0.2, 1.0),
                                                          "11": 0.8}}}
        variants = [
            t, variant(), variant(floor=2e-5), variant(panel=t.panel[::-1]), variant(freqs=nudged),
            variant(freqs={k: {locus: dict(reversed(d.items())) for locus, d in v.items()}
                           for k, v in t.freqs.items()}),
            variant(subpops=(kp.Subpopulation("a", np.float64(0.5)), kp.Subpopulation("b", 0.5))),
            variant(subpops=(kp.Subpopulation("a", 0.4), kp.Subpopulation("b", 0.6))),
            variant(subpops=tuple(kp.Subpopulation(s.name, s.proportion, 10) for s in t.subpops)),
            variant(subpops=t.subpops[::-1])]
        for u, v in itertools.product(variants, variants):
            same = (u.panel, u.subpops, u.freqs, u.floor) == (v.panel, v.subpops, v.freqs, v.floor)
            assert (u == v) == same == (hash(u) == hash(v))
        assert sum(u == t for u in variants) == 4

    def test_hash_is_the_same_in_every_process(self, synth_table):
        # a SHA-256 of the content, not Python's seeded string hash
        script = ("import kinpower as kp; print(hash(kp.synth_frequency_table(n_subpops=4, "
                  "n_loci=15, n_alleles=10, divergence=0.3, seed=11, "
                  "proportions=[0.1108, 0.3695, 0.3538, 0.1659])))")
        env = dict(os.environ, PYTHONPATH=str(Path(kp.__file__).parents[1]))
        hashes = {int(subprocess.run([sys.executable, "-c", script], capture_output=True,
                                     text=True, check=True, env={**env, "PYTHONHASHSEED": seed})
                      .stdout) for seed in ("1", "2")}
        assert hashes == {hash(synth_table)}

    def test_a_direct_table_is_not_floored(self):
        # only load_frequency_table floors; the class checks the floor's range
        t = self.table({"x": {"L1": {"9": 0.0, "10": 1.0}}})
        assert t.floor == kp.tables.DEFAULT_FLOOR and t.matrix.tolist() == [[1.0, 0.0]]

    def test_layout(self):
        t = self.table({"a": {"L1": {"9": 0.25, "10": 0.75}, "L2": {"x": 1.0}},
                        "b": {"L1": {"10": 0.5, "9": 0.5}, "L2": {"x": 1.0}}},
                       panel=("L1", "L2"))
        assert t.labels == (("10", "9"), ("x",))
        assert t.label_index == ({"10": 0, "9": 1}, {"x": 0})
        assert t.alleles("L1") == ("10", "9")
        assert t.offsets == (0, 2, 3)
        assert t.matrix.dtype == np.float64
        assert np.array_equal(t.matrix, [[0.75, 0.25, 1.0], [0.5, 0.5, 1.0]])

    def test_arrays_left_out_of_eq_and_repr(self, two_subpop_table):
        t = two_subpop_table
        same = kp.FrequencyTable(panel=t.panel, subpops=t.subpops, freqs=t.freqs,
                                 floor=t.floor)
        assert same == t
        assert repr(same) == repr(t)
        assert "matrix" not in repr(t) and "offsets" not in repr(t)
        assert "label_index" not in repr(t)

    def test_caller_dict_mutation_changes_nothing(self):
        given = {"S1": {"L1": {"A": 0.5, "B": 0.5}}}
        t = self.table(given)
        given["S1"]["L1"].update(A=0.9, B=0.1)
        fresh = self.table({"S1": {"L1": {"A": 0.5, "B": 0.5}}})
        assert t == fresh
        assert t.freqs == {"S1": {"L1": {"A": 0.5, "B": 0.5}}}
        assert kp.dump_frequency_table(t) == kp.dump_frequency_table(fresh)
        assert np.array_equal(t.matrix, [[0.5, 0.5]])

    def test_freqs_keeps_only_its_subpops_and_loci_in_order(self):
        t = kp.FrequencyTable(
            panel=("L2", "L1"), subpops=(kp.Subpopulation("b", 1.0),),
            freqs={"a": {"L1": {"x": 1.0}},
                   "b": {"L1": {"y": 0.5, "x": 0.5}, "L2": {"x": 1.0}, "L3": {"x": 1.0}}})
        assert t.freqs == {"b": {"L2": {"x": 1.0}, "L1": {"y": 0.5, "x": 0.5}}}
        assert list(t.freqs["b"]) == ["L2", "L1"]
        assert list(t.freqs["b"]["L1"]) == ["y", "x"]
        assert all(type(d) is dict for d in (t.freqs, t.freqs["b"], t.freqs["b"]["L1"]))

    def test_matrix_is_read_only(self, synth_table):
        assert not synth_table.matrix.flags.writeable
        with pytest.raises(ValueError):
            synth_table.matrix[0, 0] = 0.5

    def test_missing_subpop(self):
        with pytest.raises(errors.MissingLocusForSubpop, match="'b'"):
            self.table({"a": {"L1": {"A": 1.0}}}, proportions={"a": 0.5, "b": 0.5})

    def test_missing_locus(self):
        with pytest.raises(errors.MissingLocusForSubpop, match="'L2'"):
            self.table({"a": {"L1": {"A": 1.0}, "L2": {"A": 1.0}},
                        "b": {"L1": {"A": 1.0}}}, panel=("L1", "L2"))

    def test_different_allele_support(self):
        with pytest.raises(errors.PanelMismatch, match="'L1'"):
            self.table({"a": {"L1": {"A": 0.5, "B": 0.5}}, "b": {"L1": {"A": 1.0}}})

    def test_proportions_must_sum_to_one(self):
        with pytest.raises(errors.ProportionSumOutOfTolerance):
            self.table({"a": {"L1": {"A": 1.0}}}, proportions={"a": 0.5})

    def test_proportions_within_tolerance_accepted(self):
        t = self.table({"a": {"L1": {"A": 1.0}}, "b": {"L1": {"A": 1.0}}},
                       proportions={"a": 0.5, "b": 0.5 + 0.5 * PROPORTION_TOL})
        assert t.n_subpops == 2

    @pytest.mark.parametrize("panel, names, what", [
        ((), ("a",), "at least one locus"),
        (("L1", "L1"), ("a",), "each locus once"),
        (("L1",), ("a", "a"), "each subpopulation once"),
    ])
    def test_rejects_empty_panel_or_repeated_names(self, panel, names, what):
        # a locus listed twice would count twice in every likelihood, and two
        # subpops of one name would merge in every per-subpop report
        with pytest.raises(errors.InvalidParameter, match=what):
            kp.FrequencyTable(
                panel=panel, subpops=tuple(kp.Subpopulation(n, 1 / len(names)) for n in names),
                freqs={n: {"L1": {"1": 0.5, "2": 0.5}} for n in names})

    @pytest.mark.parametrize("floor", [0.0, -1.0, math.nan, math.inf, 0.5, 0.75])
    def test_rejects_bad_floor(self, floor):
        # L1 has 2 alleles, so the floor must stay below 1/2
        freqs = {"a": {"L1": {"A": 0.5, "B": 0.5}}}
        with pytest.raises(errors.NonPositiveFrequency, match="floor"):
            kp.FrequencyTable(panel=("L1",), subpops=(kp.Subpopulation("a", 1.0),),
                              freqs=freqs, floor=floor)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, math.inf])
    def test_negative_or_non_finite_frequency(self, bad):
        with pytest.raises(errors.NonPositiveFrequency, match="'a' at locus 'L1'"):
            self.table({"a": {"L1": {"A": 1.1, "B": bad}}})

    @pytest.mark.parametrize("total", [0.9, 1.0 + 10 * FREQ_SUM_TOL])
    def test_locus_frequencies_must_sum_to_one(self, total):
        with pytest.raises(errors.InvalidParameter, match="'b' at locus 'L2'"):
            self.table({"a": {"L1": {"A": 1.0}, "L2": {"A": 0.5, "B": 0.5}},
                        "b": {"L1": {"A": 1.0}, "L2": {"A": 0.5, "B": total - 0.5}}},
                       panel=("L1", "L2"))


class TestMetadata:
    def test_parse(self):
        text = (
            "# comment\n"
            "subpops = a, b\n"
            "proportions = 0.25, 0.75\n"
            "sample_sizes = 10, 30\n"
            "panel = L1, L2\n"
            "floor = 1e-6\n"
        )
        meta = kp.load_table_meta(text)
        assert meta.subpops == ["a", "b"]
        assert meta.proportions == [0.25, 0.75]
        assert meta.sample_sizes == [10, 30]
        assert meta.panel == ["L1", "L2"]
        assert meta.floor == 1e-6

    def test_bad_line(self):
        with pytest.raises(errors.MalformedRow):
            kp.load_table_meta("subpops a, b\n")

    def test_unknown_key_rejected(self):
        text = "subpops = a, b\nsample_size = 100, 300\n"
        with pytest.raises(errors.MalformedRow, match="line 2.*'sample_size'") as info:
            kp.load_table_meta(text)
        for key in ("subpops", "proportions", "sample_sizes", "panel", "floor"):
            assert key in str(info.value)


    def test_repeated_key_rejected(self):
        with pytest.raises(errors.MalformedRow, match="line 3: 'subpops' given twice"):
            kp.load_table_meta("subpops = a\n# b replaces a?\nsubpops = b\n")

    @pytest.mark.parametrize("key", ["subpops", "panel"])
    @pytest.mark.parametrize("name", ["a#b", "a, b", " a", "a ", "", "a\nb", "a\rb", "a\n"])
    def test_dump_refuses_name_that_reads_back_otherwise(self, key, name):
        # "a#b" would read back as "a", "a, b" as two names, " a" as "a"
        subpop, locus = (name, "L1") if key == "subpops" else ("a", name)
        table = kp.FrequencyTable(panel=(locus,), subpops=(kp.Subpopulation(subpop, 1.0),),
                                  freqs={subpop: {locus: {"10": 0.5, "11": 0.5}}})
        with pytest.raises(errors.InvalidParameter, match=re.escape(f"{key} name {name!r}")):
            kp.dump_table_meta(table)

    def test_dump_keeps_names_that_read_back(self):
        table = kp.FrequencyTable(panel=("D8S1179", "vWA"),
                                  subpops=(kp.Subpopulation("Thai North", 1.0),),
                                  freqs={"Thai North": {locus: {"10": 1.0}
                                                        for locus in ("D8S1179", "vWA")}})
        meta = kp.load_table_meta(kp.dump_table_meta(table))
        assert (meta.subpops, meta.panel) == (["Thai North"], ["D8S1179", "vWA"])


class TestSubpopulation:
    @pytest.mark.parametrize("proportion", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_proportion_not_finite_and_positive(self, proportion):
        with pytest.raises(errors.ProportionSumOutOfTolerance,
                           match=f"subpop 'a' proportion {proportion} must be finite and > 0"):
            kp.Subpopulation("a", proportion)

    def test_single_subpop_proportion_within_tolerance_accepted(self):
        # the sum rule is the table's: K=1 at 1.00005 passes, as K=2 summing to it does
        table = kp.FrequencyTable(panel=("L1",), subpops=(kp.Subpopulation("a", 1.00005),),
                                  freqs={"a": {"L1": {"10": 1.0}}})
        assert table.proportions == (1.00005,)

    @pytest.mark.parametrize("size", [0, -5])
    def test_rejects_sample_size_below_one(self, size):
        with pytest.raises(errors.InvalidParameter, match="sample size"):
            kp.Subpopulation("a", 1.0, size)

    @pytest.mark.parametrize("size", [2.5, 10.0, np.float64(10), "10", math.nan])
    def test_rejects_non_integer_sample_size(self, size):
        # a fractional size would be dumped as metadata that the loader refuses
        with pytest.raises(errors.InvalidParameter, match="subpop 'a' sample size"):
            kp.Subpopulation("a", 1.0, size)

    def test_sample_size_optional(self):
        assert kp.Subpopulation("a", 1.0).sample_size is None
        assert kp.Subpopulation("a", 1.0, 1).sample_size == 1
        assert kp.Subpopulation("a", 1.0, np.int64(7)).sample_size == 7


def pooled(table, scheme):
    """locus -> allele -> frequency of the table's ``_pool`` row under ``scheme``."""
    row = iter(_pool(table, scheme).tolist())
    return {locus: {a: next(row) for a in labels}
            for locus, labels in zip(table.panel, table.labels)}


class TestLocalAverage:
    """The local-average row: the table pooled under ``census``, its mixing proportions."""

    def test_two_subpop_mean(self):
        csv = (
            "subpop,locus,allele,freq\n"
            "a,L1,A,0.2\na,L1,B,0.8\n"
            "b,L1,A,0.4\nb,L1,B,0.6\n"
        )
        meta = kp.TableMeta(subpops=["a", "b"], proportions=[0.5, 0.5])
        table = kp.load_frequency_table(csv, meta=meta)
        local = pooled(table, "census")["L1"]
        assert local["A"] == pytest.approx(0.3)
        assert local["B"] == pytest.approx(0.7)

    def test_single_subpop_identity(self, one_locus_table):
        local = pooled(one_locus_table, "census")
        assert local == dict(one_locus_table.freqs["pop"])

    def test_three_subpop_dot_product(self):
        rows = ["subpop,locus,allele,freq"]
        for name, fa in zip("abc", (0.1, 0.2, 0.4)):
            rows += [f"{name},L1,A,{fa}", f"{name},L1,B,{1 - fa}"]
        meta = kp.TableMeta(subpops=list("abc"), proportions=[0.2, 0.3, 0.5])
        table = kp.load_frequency_table("\n".join(rows) + "\n", meta=meta)
        local = pooled(table, "census")["L1"]
        assert local["A"] == pytest.approx(0.28)

    def test_degenerate_proportions(self, two_subpop_table):
        subpops = (
            kp.Subpopulation("a", 1.0 - 1e-12),
            kp.Subpopulation("b", 1e-12),
        )
        table = kp.FrequencyTable(
            panel=two_subpop_table.panel, subpops=subpops,
            freqs=two_subpop_table.freqs, floor=two_subpop_table.floor)
        local = pooled(table, "census")
        for locus in table.panel:
            for allele, f in table.freqs["a"][locus].items():
                assert local[locus][allele] == pytest.approx(f, abs=1e-11)

    def test_sums_stay_normalized(self, synth_table):
        local = pooled(synth_table, "census")
        for locus in synth_table.panel:
            assert sum(local[locus].values()) == pytest.approx(1.0, abs=FREQ_SUM_TOL)


class TestPooledFrequencies:
    """The CB row: the table pooled with the weights of a ``--cb-weights`` scheme."""

    def test_census_weights_are_the_proportions(self, synth_table):
        # also on tables whose proportions miss a sum of 1, which
        # reference_pool divides by that sum
        for table in (synth_table, *off_sum_tables().values()):
            expected = reference_pool(table.freqs, [s.name for s in table.subpops], table.panel,
                                      table.proportions)
            assert pooled(table, "census") == expected

    def test_equal_weights(self):
        csv = (
            "subpop,locus,allele,freq\n"
            "a,L1,A,0.1\na,L1,B,0.9\n"
            "b,L1,A,0.3\nb,L1,B,0.7\n"
        )
        meta = kp.TableMeta(subpops=["a", "b"], proportions=[0.9, 0.1])
        table = kp.load_frequency_table(csv, meta=meta)
        assert pooled(table, "equal")["L1"]["A"] == pytest.approx(0.2)

    def test_sample_size_weights(self):
        csv = (
            "subpop,locus,allele,freq\n"
            "a,L1,A,0.1\na,L1,B,0.9\n"
            "b,L1,A,0.3\nb,L1,B,0.7\n"
        )
        meta = kp.TableMeta(subpops=["a", "b"], proportions=[0.5, 0.5],
                            sample_sizes=[100, 300])
        table = kp.load_frequency_table(csv, meta=meta)
        expected = (100 * 0.1 + 300 * 0.3) / 400
        assert pooled(table, "samples")["L1"]["A"] \
            == pytest.approx(expected)

    def test_missing_sample_sizes(self, two_subpop_table):
        with pytest.raises(errors.MissingSampleSizes):
            _pool(two_subpop_table, "samples")

    def test_auto_falls_back_to_equal(self, synth_table):
        # synth_table has no sample sizes and unequal proportions, so a
        # fallback to census would give another row
        assert synth_table.sample_sizes is None
        auto = _pool(synth_table, "auto")
        assert np.array_equal(auto, _pool(synth_table, "equal"))
        assert not np.array_equal(auto, _pool(synth_table, "census"))

    def test_unknown_scheme(self, two_subpop_table):
        with pytest.raises(errors.InvalidParameter, match="unknown weight scheme"):
            _pool(two_subpop_table, "Census")


class TestProfiles:
    def test_load_profile(self):
        csv = "locus,allele1,allele2\nD3S1358,14,13\nTH01,9.3,9.3\n"
        profile = kp.load_profile_csv(csv)
        assert profile.genotypes[0].alleles == ("13", "14")  # canonical order
        assert profile.genotypes[1].alleles == ("9.3", "9.3")
        assert profile.loci == ("D3S1358", "TH01")

    def test_duplicate_locus_rejected(self):
        csv = "locus,allele1,allele2\nL1,1,2\nL1,3,4\n"
        with pytest.raises(errors.MalformedRow):
            kp.load_profile_csv(csv)

    @pytest.mark.parametrize("alleles", [("", "13"), ("13", "")])
    def test_empty_allele_label_rejected(self, alleles):
        with pytest.raises(errors.MalformedRow, match="empty allele label at locus 'L1'"):
            kp.LocusGenotype("L1", alleles)

    def test_round_trip(self):
        csv = "locus,allele1,allele2\nL1,1,2\nL2,3,3\n"
        profile = kp.load_profile_csv(csv)
        assert kp.load_profile_csv(kp.dump_profile_csv(profile)) == profile


FREQ_CSV = "subpop,locus,allele,freq\na,L1,10,0.5\na,L1,11,0.5\n"
PROFILE_CSV = "locus,allele1,allele2\nL1,10,11\n"
REPORT_CSV = ("statistic,alpha,threshold,power,ci_low,ci_high\n"
              "MIN,0.001,2.5,0.75,0.7,0.8\n")
CURVE_CSV = "statistic,alpha,power\nMIN,1e-06,0.5\nMIN,2e-06,0.625\n"
DIFF_CSV = "subpop_i,subpop_j,estimate,ci_low,ci_high\nx,y,0.25,0.125,0.375\n"


READERS = {
    "frequency": (kp.load_frequency_table, FREQ_CSV),
    "profile": (kp.load_profile_csv, PROFILE_CSV),
    "power_report": (read_power_reports_csv, REPORT_CSV),
    "curve": (read_power_curves_csv, CURVE_CSV),
    "diff_ci": (read_diff_cis_csv, DIFF_CSV),
}


class TestReadRows:
    """The one CSV reader behind every loader and read_*_csv function."""

    @pytest.mark.parametrize("name", READERS)
    def test_good_file_reads(self, name):
        read, text = READERS[name]
        read(text)
        read(io.StringIO(text))

    @pytest.mark.parametrize("name", READERS)
    def test_wrong_header(self, name):
        read, text = READERS[name]
        header, body = text.split("\n", 1)
        wrong = header.replace(header.split(",")[-1], "bogus")
        with pytest.raises(errors.MalformedRow, match="expected header"):
            read(wrong + "\n" + body)
        with pytest.raises(errors.MalformedRow, match="expected header"):
            read("")

    @pytest.mark.parametrize("name", READERS)
    def test_blank_rows_skipped_and_cells_stripped(self, name):
        read, text = READERS[name]
        header, body = text.split("\n", 1)
        spaced = "\n".join(" , ".join(f" {c} " for c in line.split(","))
                           for line in body.splitlines())
        assert read(header + "\n\n" + spaced + "\n  \n , ,\n") == read(text)

    @pytest.mark.parametrize("name", READERS)
    def test_wrong_column_count(self, name):
        read, text = READERS[name]
        with pytest.raises(errors.MalformedRow, match=r"line 2: expected \d non-empty cells"):
            read(text.replace("\n", ",extra\n").replace(",extra", "", 1))

    @pytest.mark.parametrize("name", READERS)
    def test_empty_cell(self, name):
        read, text = READERS[name]
        header, first, *rest = text.split("\n")
        emptied = ",".join(first.split(",")[:-1] + ["  "])
        with pytest.raises(errors.MalformedRow, match=r"line 2: expected \d non-empty cells"):
            read("\n".join([header, emptied, *rest]))

    @pytest.mark.parametrize("name", READERS)
    def test_oversized_field(self, name):
        read, text = READERS[name]
        header, first, *rest = text.split("\n")
        huge = "x" * 200_000 + first
        with pytest.raises(errors.MalformedRow, match="line 2: field larger"):
            read("\n".join([header, huge, *rest]))

    def test_power_report_reader_rejects_curves(self):
        with pytest.raises(errors.MalformedRow, match="expected header"):
            read_power_reports_csv(CURVE_CSV)

    @pytest.mark.parametrize("name", ["power_report", "curve", "diff_ci"])
    def test_bad_number_names_the_line(self, name):
        read, text = READERS[name]
        bad = text + text.split("\n")[1].rsplit(",", 1)[0] + ",0.5x\n"
        lineno = text.count("\n") + 1
        with pytest.raises(errors.MalformedRow, match=f"line {lineno}: .*'0.5x'"):
            read(bad)

    def test_bad_frequency_names_the_line(self):
        with pytest.raises(errors.MalformedRow, match="line 4: .*'x'"):
            kp.load_frequency_table(FREQ_CSV + "a,L1,12,x\n")

    def test_line_numbers_count_physical_lines(self):
        # a quoted label spans lines 4 and 5, so the bad row is on line 6
        text = FREQ_CSV + '"a\nb",L1,12,0.5\na,L1,13,bad\n'
        with pytest.raises(errors.MalformedRow, match="line 6"):
            kp.load_frequency_table(text)

    def test_power_rows_keep_column_order_and_types(self):
        assert read_power_reports_csv(REPORT_CSV) == [
            {"statistic": "MIN", "alpha": 0.001, "threshold": 2.5, "power": 0.75,
             "ci_low": 0.7, "ci_high": 0.8}]
        assert read_diff_cis_csv(DIFF_CSV) == [
            {"subpop_i": "x", "subpop_j": "y", "estimate": 0.25, "ci_low": 0.125,
             "ci_high": 0.375}]

    def test_writer_refuses_empty_cell(self):
        # an unnamed curve would write a file the reader rejects
        from kinpower.power import PowerCurve, write_power_curves_csv
        with pytest.raises(errors.InvalidParameter, match="empty cell"):
            write_power_curves_csv([PowerCurve("", ((1e-6, 0.5),))])

    def test_writer_refuses_before_the_first_write(self):
        # every cell is checked before the header is written: a bad second
        # curve used to leave the header and the first curve's rows behind
        from kinpower.power import PowerCurve, write_power_curves_csv
        sink = io.StringIO()
        curves = [PowerCurve("good", ((1e-6, 0.5), (2e-6, 0.6))),
                  PowerCurve(" bad", ((1e-6, 0.4),))]
        with pytest.raises(errors.InvalidParameter, match="surrounding whitespace"):
            write_power_curves_csv(curves, sink)
        assert sink.getvalue() == ""

    @pytest.mark.parametrize("name", [" a", "a ", "a\n", "\ta"])
    def test_writer_refuses_cell_with_surrounding_whitespace(self, name):
        # the reader strips each cell, so " a" would read back as "a"
        table = kp.FrequencyTable(panel=("L1",), subpops=(kp.Subpopulation(name, 1.0),),
                                  freqs={name: {"L1": {"10": 0.5, "11": 0.5}}})
        with pytest.raises(errors.InvalidParameter, match="surrounding whitespace"):
            kp.dump_frequency_table(table)


class TestInputRules:
    def test_table_errors_are_invalid_parameters(self):
        # one fault keeps one type on every path, and ValueError handlers catch it
        for error in (errors.ProportionSumOutOfTolerance, errors.NonPositiveFrequency):
            assert issubclass(error, errors.InvalidParameter)
            assert issubclass(error, ValueError)

    @pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
    def test_count_accepts_python_and_numpy_integers(self, value):
        _check_counts(n=(value, 3))

    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3), "3", None, math.nan,
                                       True, np.True_])
    def test_count_must_be_an_integer(self, value):
        with pytest.raises(errors.InvalidParameter, match="n must be an integer, got"):
            _check_counts(n=(value, 0))

    @pytest.mark.parametrize("minimum", [-1, 0, 1, 2])
    def test_count_minimum_enforced(self, minimum):
        _check_counts(m=(minimum, minimum), n=(minimum + 1, minimum))
        with pytest.raises(errors.InvalidParameter,
                           match=f"n must be >= {minimum}, got {minimum - 1}"):
            _check_counts(m=(minimum, minimum), n=(minimum - 1, minimum))
