import hashlib
import itertools
import math

import numpy as np
import pytest

import kinpower as kp
from kinpower.engine import (BLOCK, GUIDE, _MAX_COLUMNS, _alleles, _compile, _derive_block,
                             _draw_block, _loglik_arrays, _sampler)
from kinpower.ibd import categorical, pair_components

from conftest import rng
from oracles import reference_block_genotypes, reference_loglik_arrays, reference_pool


class TestCompiledRows:
    """The local and pooled rows _compile builds, against a dict merge that
    shares no code with it: equal to the last bit, column for column."""

    LOADED_CSV = (
        "subpop,locus,allele,freq\n"
        "north,FGA,22,0.5\nnorth,FGA,9.3,0.12\nnorth,FGA,21,0.38\n"
        "north,TH01,7,0.3\nnorth,TH01,6,0.7\n"
        "central,FGA,21,0.31\ncentral,FGA,22,0.44\ncentral,FGA,23,0.25\n"
        "central,TH01,9.3,0.2\ncentral,TH01,7,0.33\ncentral,TH01,6,0.47\n"
        "south,TH01,6,0.55\nsouth,TH01,7,0.45\n"
        "south,FGA,23,0.35\nsouth,FGA,22,0.45\nsouth,FGA,21,0.2\n"
    )
    LOADED_META = ("subpops = north, central, south\nproportions = 0.2, 0.5, 0.3\n"
                   "sample_sizes = 202, 304, 212\npanel = TH01, FGA\n")

    @staticmethod
    def weights(table, scheme):
        if scheme == "census":
            return [s.proportion for s in table.subpops]
        if scheme == "samples":
            return [float(s.sample_size) for s in table.subpops]
        return [1.0] * len(table.subpops)

    def assert_rows_match(self, table, scheme):
        names = [s.name for s in table.subpops]
        K = len(names)
        local = reference_pool(table.freqs, names, table.panel,
                               self.weights(table, "census"))
        pooled = reference_pool(table.freqs, names, table.panel,
                                self.weights(table, scheme))
        fmat = np.split(_compile(table, scheme), table.offsets[1:-1], axis=1)
        assert len(fmat) == len(table.panel)
        for f, locus in zip(fmat, table.panel):
            labels = sorted(table.freqs[names[0]][locus])
            assert f.shape == (K + 2, len(labels))
            for k, name in enumerate(names):
                assert np.array_equal(f[k], [table.freqs[name][locus][a] for a in labels])
            assert np.array_equal(f[K], [local[locus][a] for a in labels])
            assert np.array_equal(f[K + 1], [pooled[locus][a] for a in labels])

    @pytest.mark.parametrize("scheme", ["census", "samples", "equal"])
    @pytest.mark.parametrize("n_alleles", [3, 10, 25])
    @pytest.mark.parametrize("n_subpops", [1, 4, 9, 17])
    def test_synth_rows_bit_exact(self, n_subpops, n_alleles, scheme):
        gen = rng(100 * n_subpops + n_alleles)
        table = kp.synth_frequency_table(
            n_subpops=n_subpops, n_loci=3, n_alleles=n_alleles, divergence=0.3,
            seed=n_subpops + n_alleles,
            proportions=gen.dirichlet(np.ones(n_subpops)).tolist(),
            sample_sizes=gen.integers(20, 500, n_subpops).tolist())
        self.assert_rows_match(table, scheme)

    @pytest.mark.parametrize("scheme", ["census", "samples", "equal"])
    def test_loaded_rows_bit_exact(self, scheme):
        # unsorted rows, microvariant labels, alleles a subpop lacks (floored)
        table = kp.load_frequency_table(self.LOADED_CSV,
                                        meta=kp.load_table_meta(self.LOADED_META))
        assert table.sample_sizes == (202, 304, 212)
        self.assert_rows_match(table, scheme)


def cfg_for(table, B=1000, seed=7, **kw):
    kw.setdefault("theta0", kp.UNRELATED)
    kw.setdefault("theta1", kp.FULL_SIB)
    return kp.SimConfig(table=table, B=B, seed=seed, **kw)


class TestSimConfig:
    def test_rejects_bad_B(self, two_subpop_table):
        with pytest.raises(ValueError):
            cfg_for(two_subpop_table, B=0)

    def test_rejects_empty_statistics(self, two_subpop_table):
        with pytest.raises(ValueError):
            cfg_for(two_subpop_table, statistics=())

    def test_rejects_unknown_statistic(self, two_subpop_table):
        with pytest.raises(ValueError):
            cfg_for(two_subpop_table, statistics=("LAF", "BOGUS"))

    def test_rejects_negative_seed(self, two_subpop_table):
        with pytest.raises(kp.errors.InvalidParameter, match="seed"):
            cfg_for(two_subpop_table, seed=-1)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_rejects_workers_below_one(self, two_subpop_table, workers):
        with pytest.raises(kp.errors.InvalidParameter, match="workers"):
            cfg_for(two_subpop_table, workers=workers)

    def test_rejects_unknown_cb_weights(self, two_subpop_table):
        with pytest.raises(kp.errors.InvalidParameter, match="bogus"):
            cfg_for(two_subpop_table, cb_weights="bogus")

    def test_parameter_errors_are_kinpower_and_value_errors(self, two_subpop_table):
        with pytest.raises(kp.errors.InvalidParameter) as info:
            cfg_for(two_subpop_table, B=0)
        assert isinstance(info.value, kp.errors.KinpowerError)
        assert isinstance(info.value, ValueError)


class TestDeterminism:
    @pytest.mark.parametrize("simulate", [kp.simulate_null, kp.simulate_alt])
    def test_identical_across_runs_and_workers(self, two_subpop_table, simulate):
        B = 2 * BLOCK + 123
        runs = [simulate(cfg_for(two_subpop_table, B=B, workers=w))
                for w in (1, 2, 8)]
        base = runs[0]
        for other in runs[1:]:
            assert np.array_equal(base.subpop_tags, other.subpop_tags)
            for s in base.statistics:
                assert np.array_equal(base.statistics[s], other.statistics[s],
                                      equal_nan=True)

    @pytest.mark.parametrize("workers, B, expected", [
        (8, 2 * BLOCK + 123, 3),
        (2, 2 * BLOCK + 123, 2),
        (8, BLOCK, None),
        (1, 2 * BLOCK, None),
    ])
    def test_pool_never_larger_than_block_count(self, two_subpop_table, monkeypatch,
                                                 workers, B, expected):
        # a recorder stands in for the pool, so no process is started
        from kinpower import engine
        opened = []

        class Recorder:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", Recorder)
        cfg = cfg_for(two_subpop_table, B=B, workers=workers)
        got = kp.simulate_null(cfg)
        assert opened == ([] if expected is None else [expected])
        serial = kp.simulate_null(cfg_for(two_subpop_table, B=B, workers=1))
        assert np.array_equal(got.statistics["LAF"], serial.statistics["LAF"])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_is_both_one_phase_runs(self, two_subpop_table, workers):
        cfg = cfg_for(two_subpop_table, B=2 * BLOCK + 123, workers=workers,
                      keep_genotypes=True)
        for got, want in zip(kp.simulate(cfg), (kp.simulate_null(cfg), kp.simulate_alt(cfg))):
            assert got.subpop_names == want.subpop_names
            assert got.subpop_tags.tobytes() == want.subpop_tags.tobytes()
            assert list(got.statistics) == list(want.statistics) == list(kp.STATISTICS)
            for s in want.statistics:
                assert got.statistics[s].tobytes() == want.statistics[s].tobytes()
            assert list(got.genotypes) == list(want.genotypes)
            for k in want.genotypes:
                assert got.genotypes[k].tobytes() == want.genotypes[k].tobytes()

    def test_single_replicate_reproducible(self, two_subpop_table):
        a = kp.simulate_null(cfg_for(two_subpop_table, B=1))
        b = kp.simulate_null(cfg_for(two_subpop_table, B=1))
        assert np.array_equal(a.statistics["LAF"], b.statistics["LAF"])

    def test_replicate_depends_only_on_seed_and_index(self, two_subpop_table):
        # extending B must not change earlier replicates
        short = kp.simulate_alt(cfg_for(two_subpop_table, B=500))
        long = kp.simulate_alt(cfg_for(two_subpop_table, B=BLOCK + 500))
        for s in short.statistics:
            assert np.array_equal(short.statistics[s], long.statistics[s][:500])

    def test_different_seeds_differ(self, two_subpop_table):
        a = kp.simulate_null(cfg_for(two_subpop_table, B=200, seed=1))
        b = kp.simulate_null(cfg_for(two_subpop_table, B=200, seed=2))
        assert not np.array_equal(a.statistics["LAF"], b.statistics["LAF"])


class TestSimulateNull:
    def test_k1_equal_thetas_all_zero(self, one_locus_table):
        cfg = cfg_for(one_locus_table, B=500, theta1=kp.UNRELATED)
        null = kp.simulate_null(cfg)
        for s in null.statistics:
            assert np.all(null.statistics[s] == 0.0)

    def test_null_mean_linear_lr_is_one(self, one_locus_table):
        # E[LR | H0] = 1 for a simple-vs-simple likelihood ratio
        B = 400_000
        cfg = cfg_for(one_locus_table, B=B, theta1=kp.PARENT_CHILD,
                      statistics=("LAF",))
        null = kp.simulate_null(cfg)
        lr = np.exp(null.statistics["LAF"])
        sigma = lr.std() / math.sqrt(B)
        assert abs(lr.mean() - 1.0) < 4 * sigma

    def test_tag_marginals(self, synth_table):
        B = 100_000
        null = kp.simulate_null(cfg_for(synth_table, B=B, statistics=("LAF",)))
        for k, p in enumerate(synth_table.proportions):
            observed = float((null.subpop_tags == k).mean())
            assert abs(observed - p) < 4 * math.sqrt(p * (1 - p) / B)

    def test_null_same_subpop_switch(self, two_subpop_table):
        cfg = cfg_for(two_subpop_table, B=200, null_same_subpop=True)
        forced = kp.simulate_null(cfg)
        free = kp.simulate_null(cfg_for(two_subpop_table, B=200))
        assert not np.array_equal(forced.statistics["LAF"], free.statistics["LAF"])


class TestSimulateAlt:
    def test_parent_child_shares_allele_every_locus(self, two_subpop_table):
        cfg = cfg_for(two_subpop_table, B=2000, theta1=kp.PARENT_CHILD,
                      keep_genotypes=True)
        alt = kp.simulate_alt(cfg)
        g = alt.genotypes
        shares = ((g["g1a"] == g["g2a"]) | (g["g1a"] == g["g2b"])
                  | (g["g1b"] == g["g2a"]) | (g["g1b"] == g["g2b"]))
        assert shares.all()

    def test_unrelated_alt_matches_same_subpop_null(self, two_subpop_table):
        # theta1 = UNRELATED reduces the sampler to same-subpop null pairs;
        # compare log-LR distributions (theta0 = FULL_SIB keeps them nontrivial)
        from scipy.stats import ks_2samp
        B = 100_000
        alt = kp.simulate_alt(cfg_for(two_subpop_table, B=B,
                                      theta0=kp.FULL_SIB, theta1=kp.UNRELATED,
                                      statistics=("MAX",)))
        null = kp.simulate_null(cfg_for(two_subpop_table, B=B, seed=99,
                                        theta0=kp.FULL_SIB, theta1=kp.UNRELATED,
                                        null_same_subpop=True,
                                        statistics=("MAX",)))
        result = ks_2samp(alt.statistics["MAX"], null.statistics["MAX"])
        assert result.pvalue > 1e-4

    @staticmethod
    def check_pair_frequencies(table, alt, theta):
        # every unordered genotype pair is drawn at its pair_probability under
        # theta, the unrelated one for null pairs, and no other pair is drawn
        from oracles import all_unordered_pairs, drawn_frequencies
        B = 200_000
        cfg = cfg_for(table, B=B, theta1=theta, statistics=("LAF",), keep_genotypes=True)
        g = (kp.simulate_alt if alt else kp.simulate_null)(cfg).genotypes
        locus, labels = table.panel[0], table.labels[0]
        observed = drawn_frequencies(labels, (g["g1a"], g["g1b"]), (g["g2a"], g["g2b"]))
        f = table.freqs[table.subpops[0].name][locus]
        for p1, p2 in all_unordered_pairs(labels, locus):
            expected = kp.pair_probability(p1, p2, theta, f)
            key = tuple(sorted((p1.alleles, p2.alleles)))
            sigma = math.sqrt(expected * (1 - expected) / B)
            assert abs(observed.pop(key, 0.0) - expected) <= 4 * sigma + 1e-12
        assert not observed

    def test_alt_class_frequencies_match_analytic(self, one_locus_table):
        self.check_pair_frequencies(one_locus_table, True, kp.FULL_SIB)

    @pytest.mark.parametrize("alt, theta, freqs", [
        (True, kp.PARENT_CHILD, [0.15, 0.20, 0.65]),
        (True, kp.UNRELATED, [0.15, 0.20, 0.65]),
        (True, kp.HALF_SIB_PAPER, [0.15, 0.20, 0.65]),
        (False, kp.UNRELATED, [0.15, 0.20, 0.65]),
        (True, kp.FULL_SIB, [1.0]),
    ], ids=["parent-child", "unrelated", "half-sib-paper", "null", "one-allele"])
    def test_pair_frequencies_match_analytic(self, alt, theta, freqs):
        self.check_pair_frequencies(one_locus_table(freqs), alt, theta)


class TestSampleMatrixDump:
    def test_round_trippable_csv(self, two_subpop_table):
        import csv as csvmod
        import io
        null = kp.simulate_null(cfg_for(two_subpop_table, B=10))
        text = kp.dump_samples(null)
        rows = list(csvmod.DictReader(io.StringIO(text)))
        assert len(rows) == 10
        for i, row in enumerate(rows):
            assert int(row["replicate"]) == i
            assert row["subpop_tag"] in ("a", "b")
            for s in null.statistics:
                assert float(row[s]) == null.statistics[s][i]

    def test_stream_sink(self, two_subpop_table):
        import io
        null = kp.simulate_null(cfg_for(two_subpop_table, B=10))
        buf = io.StringIO()
        assert kp.dump_samples(null, buf) is None
        assert buf.getvalue() == kp.dump_samples(null)

    def test_stream_sink_across_blocks(self, two_subpop_table):
        import io
        null = kp.simulate_null(cfg_for(two_subpop_table, B=2 * BLOCK + 5))
        buf = io.StringIO()
        assert kp.dump_samples(null, buf) is None
        assert buf.getvalue() == kp.dump_samples(null)

    def test_sink_memory_flat_in_B(self, two_subpop_table):
        """Writing to a sink holds one block of rows, whatever B is."""
        import tracemalloc

        class Discard:
            def write(self, text):
                return len(text)

        def peak(B):
            matrix = kp.simulate_null(cfg_for(two_subpop_table, B=B))
            tracemalloc.start()
            try:
                kp.dump_samples(matrix, Discard())
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * BLOCK) <= 1.5 * peak(2 * BLOCK)

    def test_path_sink_rejected(self, two_subpop_table, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        null = kp.simulate_null(cfg_for(two_subpop_table, B=10))
        with pytest.raises(TypeError):
            kp.dump_samples(null, "x.csv")
        assert list(tmp_path.iterdir()) == []


class TestPinnedOutputs:
    """SHA-256 of whole SampleMatrix outputs, recorded before any refactor of
    the kernel; a refactor that moves a single bit of any array fails here."""

    PINNED = {
        ("null", "full-sib"): "3f0c407cf3886c982eaaa1db5c9c7e043d95c93dd090c320b76f22a1540e603f",
        ("null", "parent-child"): "f714b427f07cae5df3b92056201a3deec9324f88802aa9ed2e1a4a4a346a779a",
        ("alt", "full-sib"): "2689fb10130f4f3f3e06d80dcfadec6c05d7a99c8a179d1c4c76c9c61697c524",
        ("alt", "parent-child"): "bc1e577de4a8e55268b1e2d8a92d440faf0163f1e4e3c3d3c21d341da85814f0",
    }

    @pytest.mark.parametrize("phase,test", sorted(PINNED))
    def test_digest_unchanged(self, synth_table, phase, test):
        # in-memory synthetic table, so no loader rounding can move the input;
        # B crosses a block boundary
        theta1 = {"full-sib": kp.FULL_SIB, "parent-child": kp.PARENT_CHILD}[test]
        simulate = {"null": kp.simulate_null, "alt": kp.simulate_alt}[phase]
        m = simulate(cfg_for(synth_table, B=BLOCK + 123, seed=2025, theta1=theta1,
                             keep_genotypes=True))
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(m.subpop_tags, dtype=np.int64).tobytes())
        for s in kp.STATISTICS:
            h.update(np.ascontiguousarray(m.statistics[s], dtype=np.float64).tobytes())
        for k in ("g1a", "g1b", "g2a", "g2b"):
            h.update(np.ascontiguousarray(m.genotypes[k], dtype=np.int64).tobytes())
        assert h.hexdigest() == self.PINNED[(phase, test)]


KERNEL_THETAS = {
    "full-sib": kp.FULL_SIB,
    "parent-child": kp.PARENT_CHILD,
    "half-sib-paper": kp.HALF_SIB_PAPER,
    "half-sib-standard": kp.HALF_SIB_STANDARD,
    "custom": kp.ThetaIBD(0.1, 0.3, 0.6),
}


def large_support_table():
    """A 400-allele locus (80200 genotypes) between two 3-allele loci."""
    big = kp.synth_frequency_table(n_subpops=2, n_loci=1, n_alleles=400,
                                   divergence=0.3, seed=5)
    small = kp.synth_frequency_table(n_subpops=2, n_loci=2, n_alleles=3,
                                     divergence=0.3, seed=6)
    names = [s.name for s in big.subpops]
    freqs = {name: {**{"BIG": big.freqs[name][big.panel[0]]},
                    **{locus: small.freqs[name][locus] for locus in small.panel}}
             for name in names}
    return kp.FrequencyTable(panel=(small.panel[0], "BIG", small.panel[1]),
                             subpops=big.subpops, freqs=freqs)


def assert_kernel_matches_loop(table, seed):
    """_loglik_arrays against the per-locus loop, byte for byte, on null and
    alt draws under every KERNEL_THETAS entry, at n = 1, 17 and BLOCK + 123,
    and the seven statistics _derive_block makes of each. Each draw is
    evaluated with theta0 unrelated and with theta0 full-sib, whose nonzero
    z1 and z2 weigh the theta0 row's P1 and P2 terms too."""
    full, logp = _compile(table, "auto"), np.log(table.proportions)
    B = BLOCK + 123
    draws = [("null", kp.UNRELATED, kp.simulate_null)] + [
        ("alt", theta, kp.simulate_alt) for theta in KERNEL_THETAS.values()]
    for phase, drawn_under, simulate in draws:
        g = simulate(cfg_for(table, B=B, seed=seed, theta1=drawn_under,
                             statistics=("LAF",), keep_genotypes=True)).genotypes
        for theta0, (name, theta1), n in itertools.product(
                (kp.UNRELATED, kp.FULL_SIB), KERNEL_THETAS.items(), (1, 17, B)):
            args = (full, table.offsets[:-1], *(g[k][:n] for k in ("g1a", "g1b", "g2a", "g2b")),
                    theta0, theta1)
            got, want = _loglik_arrays(*args), reference_loglik_arrays(*args)
            for x, y in zip(got, want):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), \
                    (phase, drawn_under, theta0, name, n)
            got, want = (_derive_block(*ll, logp) for ll in (got, want))
            for s in kp.STATISTICS:
                assert got[s].tobytes() == want[s].tobytes(), \
                    (phase, drawn_under, theta0, name, n, s)


class TestKernelOracle:
    """The deduplicated kernel gives the per-locus loop's bytes exactly."""

    @pytest.mark.parametrize("n_alleles", [2, 3, 10, 25])
    @pytest.mark.parametrize("n_subpops", [1, 4, 9, 17])
    def test_synth_tables(self, n_subpops, n_alleles):
        table = kp.synth_frequency_table(
            n_subpops=n_subpops, n_loci=3, n_alleles=n_alleles, divergence=0.3,
            seed=7 * n_subpops + n_alleles)
        assert_kernel_matches_loop(table, seed=n_subpops + n_alleles)

    def test_structural_zeros_give_minus_inf(self, synth_table):
        # parent-child makes most unrelated pairs impossible at some locus
        full = _compile(synth_table, "auto")
        g = kp.simulate_null(cfg_for(synth_table, B=500, keep_genotypes=True)).genotypes
        args = (full, synth_table.offsets[:-1], g["g1a"], g["g1b"], g["g2a"], g["g2b"],
                kp.UNRELATED, kp.PARENT_CHILD)
        ll0, ll1 = _loglik_arrays(*args)
        assert np.isfinite(ll0).all() and np.isneginf(ll1).any()
        assert ll1.tobytes() == reference_loglik_arrays(*args)[1].tobytes()

    def test_large_support_locus(self):
        table = large_support_table()
        assert _compile(table, "auto").shape[1] == 400 + 2 * 3
        assert_kernel_matches_loop(table, seed=400)

    def test_max_columns_is_the_largest_whose_keys_fit_int64(self):
        assert _MAX_COLUMNS ** 4 <= np.iinfo(np.int64).max < (_MAX_COLUMNS + 1) ** 4

    def test_genotype_keys_that_would_overflow_are_refused(self):
        # 78000 alleles at one locus: more than _MAX_COLUMNS columns, whose
        # four-digit cell keys pass int64
        n = 78_000
        table = kp.FrequencyTable(panel=("L",), subpops=(kp.Subpopulation("pop", 1.0),),
                                  freqs={"pop": {"L": {str(a): 1.0 / n for a in range(n)}}})
        with pytest.raises(kp.errors.InvalidParameter, match="int64"):
            _compile(table, "auto")


def assert_sampler_matches_loop(table, seed):
    """The engine's guide-table draws against the per-locus categorical loop,
    byte for byte: null with mixed subpops and with null_same_subpop, alt
    under every KERNEL_THETAS entry, each at n = 1, 17 and BLOCK + 123."""
    sampler = _sampler(table)
    runs = [(False, kp.FULL_SIB, same) for same in (False, True)] + [
        (True, theta, False) for theta in KERNEL_THETAS.values()]
    for (alt, theta1, same), n in itertools.product(runs, (1, 17, BLOCK + 123)):
        cfg = cfg_for(table, B=n, seed=seed, theta1=theta1, null_same_subpop=same)
        for block, lo in enumerate(range(0, n, BLOCK)):
            size = min(BLOCK, n - lo)
            got = _draw_block(sampler, cfg, alt, block, size)
            want = reference_block_genotypes(cfg, alt, block, size)
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and np.array_equal(x, y), (alt, theta1, same, n)


class TestSamplerOracle:
    """The guide-table sampler gives the per-locus categorical loop's draws
    exactly, and simulate_* returns those draws."""

    @pytest.mark.parametrize("n_alleles", [2, 3, 10, 25])
    @pytest.mark.parametrize("n_subpops", [1, 4, 9, 17])
    def test_synth_tables(self, n_subpops, n_alleles):
        table = kp.synth_frequency_table(
            n_subpops=n_subpops, n_loci=3, n_alleles=n_alleles, divergence=0.3,
            seed=7 * n_subpops + n_alleles,
            proportions=rng(n_subpops).dirichlet(np.ones(n_subpops)).tolist())
        assert_sampler_matches_loop(table, seed=n_subpops + n_alleles)

    def test_large_support_locus(self):
        assert_sampler_matches_loop(large_support_table(), seed=400)

    def test_floored_alleles_packed_into_buckets(self):
        # strong divergence floors many of 60 alleles at 1e-7, so several CDF
        # entries share a bucket
        table = kp.synth_frequency_table(n_subpops=4, n_loci=3, n_alleles=60,
                                         divergence=5.0, seed=3, floor=1e-7)
        assert (table.matrix < 2e-7).sum() > 60
        assert_sampler_matches_loop(table, seed=60)

    @pytest.mark.parametrize("simulate,alt", [(kp.simulate_null, False),
                                              (kp.simulate_alt, True)])
    def test_simulate_returns_the_loop_draws(self, synth_table, simulate, alt):
        cfg = cfg_for(synth_table, B=BLOCK + 123, theta1=kp.PARENT_CHILD,
                      statistics=("LAF",), keep_genotypes=True)
        m = simulate(cfg)
        blocks = [reference_block_genotypes(cfg, alt, 0, BLOCK),
                  reference_block_genotypes(cfg, alt, 1, 123)]
        assert np.array_equal(m.subpop_tags, np.concatenate([b[0] for b in blocks]))
        for i, key in enumerate(("g1a", "g1b", "g2a", "g2b"), start=1):
            assert np.array_equal(m.genotypes[key], np.concatenate([b[i] for b in blocks]))


def one_locus_table(freqs):
    labels = [f"a{i:03d}" for i in range(len(freqs))]
    return kp.FrequencyTable(panel=("L",), subpops=(kp.Subpopulation("pop", 1.0),),
                             freqs={"pop": {"L": dict(zip(labels, freqs))}})


class TestGuideTable:
    """The guide lookup against ibd.categorical on hand-built CDFs, at every
    bucket edge, at each CDF entry and its float neighbours, at 0 and at the
    largest uniform below 1."""

    CASES = {
        "entries on bucket edges": [0.25, 0.25, 0.5],
        "entries packed into one bucket": [0.5, 0.5 - 5e-7] + [1e-7] * 5,
        "last entry below 1": [0.1] * 10,
        "entry above 1 before the last": [0.6, 0.4000004, 1e-7],
    }

    @pytest.mark.parametrize("freqs", list(CASES.values()), ids=list(CASES))
    def test_lookup_is_categorical(self, freqs):
        table = one_locus_table(freqs)
        cdf = np.cumsum(table.matrix[0])
        u = np.concatenate([np.arange(GUIDE) / GUIDE, cdf, np.nextafter(cdf, 0),
                            np.nextafter(cdf, 1), [0.0, 1.0 - 2.0 ** -53]])
        u = u[u < 1.0]
        want = categorical(cdf, u)
        sampler = _sampler(table)
        guide = sampler.guide[(u * GUIDE).astype(np.intp)]
        assert np.all((guide == want) | (guide == -1))
        got = _alleles(sampler, np.zeros(u.size, dtype=np.intp), u[:, None])
        assert np.array_equal(got[:, 0], want)
        # split exactly where an entry lies strictly inside a bucket; the
        # last entry never splits one, since draws at or above it are capped
        split = {int(c * GUIDE) for c in cdf[:-1] if c < 1.0 and c * GUIDE != int(c * GUIDE)}
        assert set(np.flatnonzero(sampler.guide < 0).tolist()) == split

    def test_cases_reach_their_edge(self):
        on_edges, packed, below_one, above_one = (np.cumsum(one_locus_table(f).matrix[0])
                                                  for f in self.CASES.values())
        assert np.array_equal(on_edges * GUIDE, [1024, 2048, 4096])
        assert len({int(c * GUIDE) for c in packed[1:-1]}) == 1
        assert below_one[-1] < 1.0
        assert categorical(below_one, np.array([below_one[-1]]))[0] == 9
        assert 1.0 < above_one[1] < 1.0 + 1.0 / GUIDE


class TestKernelCallShape:
    """One pair_components call per block and per lr_all, evaluating each
    distinct (locus, genotype 1, genotype 2) once. The call goes through the
    name kinpower.engine.pair_components, which profilers wrap."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from kinpower import engine
        seen = []

        def recorder(g1a, g1b, g2a, g2b, f):
            seen.append(len(g1a))
            return pair_components(g1a, g1b, g2a, g2b, f)

        monkeypatch.setattr(engine, "pair_components", recorder)
        return seen

    @pytest.mark.parametrize("simulate", [kp.simulate_null, kp.simulate_alt])
    def test_one_call_per_block(self, synth_table, calls, simulate):
        B = 2 * BLOCK + 123
        m = simulate(cfg_for(synth_table, B=B, theta1=kp.PARENT_CHILD,
                             statistics=("LAF",), keep_genotypes=True))
        g = m.genotypes
        locus = np.broadcast_to(np.arange(synth_table.n_loci), g["g1a"].shape)
        cells = np.stack([locus] + [g[k] for k in ("g1a", "g1b", "g2a", "g2b")], axis=-1)
        distinct = [len(np.unique(cells[lo:lo + BLOCK].reshape(-1, 5), axis=0))
                    for lo in range(0, B, BLOCK)]
        assert calls == distinct
        assert all(d < BLOCK * synth_table.n_loci for d in distinct[:2])

    def test_one_call_per_lr_all(self, synth_table, calls):
        p1 = kp.Profile(tuple(kp.LocusGenotype(locus, synth_table.alleles(locus)[:2])
                              for locus in synth_table.panel))
        kp.lr_all((p1, p1), kp.UNRELATED, kp.PARENT_CHILD, synth_table)
        assert calls == [synth_table.n_loci]
