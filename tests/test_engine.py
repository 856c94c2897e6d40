import hashlib
import itertools
import math

import numpy as np
import pytest

import kinpower as kp
from kinpower.engine import BLOCK, _compile, _loglik_arrays
from kinpower.ibd import pair_components

from conftest import rng
from oracles import reference_loglik_arrays, reference_pool


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
        compiled = _compile(table, scheme)
        fmat = np.split(compiled.full, compiled.offsets[1:], axis=1)
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

    def test_alt_class_frequencies_match_analytic(self, one_locus_table):
        B = 200_000
        cfg = cfg_for(one_locus_table, B=B, theta1=kp.FULL_SIB,
                      statistics=("LAF",), keep_genotypes=True)
        alt = kp.simulate_alt(cfg)
        g = alt.genotypes
        labels = one_locus_table.alleles("D3S1358")
        f = one_locus_table.freqs["pop"]["D3S1358"]
        counts: dict = {}
        for i in range(B):
            g1 = (labels[g["g1a"][i, 0]], labels[g["g1b"][i, 0]])
            g2 = (labels[g["g2a"][i, 0]], labels[g["g2b"][i, 0]])
            key = tuple(sorted((g1, g2)))
            counts[key] = counts.get(key, 0) + 1
        from oracles import all_unordered_pairs
        for p1, p2 in all_unordered_pairs(labels, "D3S1358"):
            expected = kp.pair_probability(p1, p2, kp.FULL_SIB, f)
            key = tuple(sorted((p1.alleles, p2.alleles)))
            observed = counts.get(key, 0) / B
            sigma = math.sqrt(expected * (1 - expected) / B)
            assert abs(observed - expected) <= 4 * sigma + 1e-12


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


def assert_kernel_matches_loop(table, seed):
    """_loglik_arrays against the per-locus loop, byte for byte, on null and
    alt draws under every KERNEL_THETAS entry, at n = 1, 17 and BLOCK + 123.
    Each draw is evaluated with theta0 unrelated and with theta0 full-sib,
    whose nonzero z1 and z2 weigh the theta0 row's P1 and P2 terms too."""
    compiled = _compile(table, "auto")
    B = BLOCK + 123
    draws = [("null", kp.UNRELATED, kp.simulate_null)] + [
        ("alt", theta, kp.simulate_alt) for theta in KERNEL_THETAS.values()]
    for phase, drawn_under, simulate in draws:
        g = simulate(cfg_for(table, B=B, seed=seed, theta1=drawn_under,
                             statistics=("LAF",), keep_genotypes=True)).genotypes
        for theta0, (name, theta1), n in itertools.product(
                (kp.UNRELATED, kp.FULL_SIB), KERNEL_THETAS.items(), (1, 17, B)):
            args = (compiled, *(g[k][:n] for k in ("g1a", "g1b", "g2a", "g2b")),
                    theta0, theta1)
            got, want = _loglik_arrays(*args), reference_loglik_arrays(*args)
            for x, y in zip(got, want):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), \
                    (phase, drawn_under, theta0, name, n)


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
        compiled = _compile(synth_table, "auto")
        g = kp.simulate_null(cfg_for(synth_table, B=500, keep_genotypes=True)).genotypes
        args = (compiled, g["g1a"], g["g1b"], g["g2a"], g["g2b"],
                kp.UNRELATED, kp.PARENT_CHILD)
        ll0, ll1 = _loglik_arrays(*args)
        assert np.isfinite(ll0).all() and np.isneginf(ll1).any()
        assert ll1.tobytes() == reference_loglik_arrays(*args)[1].tobytes()

    def test_large_support_locus(self):
        # 400 alleles: 80200 genotypes, beside two small loci
        big = kp.synth_frequency_table(n_subpops=2, n_loci=1, n_alleles=400,
                                       divergence=0.3, seed=5)
        small = kp.synth_frequency_table(n_subpops=2, n_loci=2, n_alleles=3,
                                         divergence=0.3, seed=6)
        names = [s.name for s in big.subpops]
        freqs = {name: {**{"BIG": big.freqs[name][big.panel[0]]},
                        **{locus: small.freqs[name][locus] for locus in small.panel}}
                 for name in names}
        table = kp.FrequencyTable(panel=(small.panel[0], "BIG", small.panel[1]),
                                  subpops=big.subpops, freqs=freqs)
        assert _compile(table, "auto").n_genotypes == 80200 + 2 * 6
        assert_kernel_matches_loop(table, seed=400)

    def test_genotype_keys_that_would_overflow_are_refused(self):
        # 78000 alleles at one locus: about 3.04e9 genotypes, whose squared
        # pair keys pass int64
        n = 78_000
        table = kp.FrequencyTable(panel=("L",), subpops=(kp.Subpopulation("pop", 1.0),),
                                  freqs={"pop": {"L": {str(a): 1.0 / n for a in range(n)}}})
        with pytest.raises(kp.errors.InvalidParameter, match="int64"):
            _compile(table, "auto")


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
