import numpy as np
import pytest

import kinpower as kp


def tv_distance(f1, f2):
    alleles = set(f1) | set(f2)
    return 0.5 * sum(abs(f1.get(a, 0) - f2.get(a, 0)) for a in alleles)


class TestSynthFrequencyTable:
    def test_zero_divergence_identical_subpops(self):
        table = kp.synth_frequency_table(n_subpops=3, n_loci=4, divergence=0.0, seed=2)
        names = [s.name for s in table.subpops]
        for locus in table.panel:
            for name in names[1:]:
                assert table.freqs[name][locus] == table.freqs[names[0]][locus]

    def test_output_passes_validation(self):
        table = kp.synth_frequency_table(n_subpops=4, n_loci=5, seed=3)
        meta = kp.load_table_meta(kp.dump_table_meta(table))
        reloaded = kp.load_frequency_table(kp.dump_frequency_table(table), meta=meta)
        assert reloaded.n_subpops == 4
        assert reloaded.n_loci == 5

    def test_divergence_monotone_in_expectation(self):
        levels = [0.01, 0.1, 1.0]
        means = []
        for div in levels:
            dists = []
            for seed in range(20):
                table = kp.synth_frequency_table(
                    n_subpops=2, n_loci=4, divergence=div, seed=seed)
                for locus in table.panel:
                    dists.append(tv_distance(table.freqs["S1"][locus],
                                             table.freqs["S2"][locus]))
            means.append(np.mean(dists))
        assert means[0] < means[1] < means[2]

    def test_reproducible(self):
        a = kp.synth_frequency_table(seed=5)
        b = kp.synth_frequency_table(seed=5)
        assert a == b

    def test_rejects_too_few_alleles(self):
        with pytest.raises(ValueError):
            kp.synth_frequency_table(n_alleles=1)

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1},
        {"n_subpops": 0},
        {"n_loci": 0},
        {"n_subpops": 3, "proportions": [0.5, 0.5]},
        {"n_subpops": 2, "sample_sizes": [10, 20, 30]},
        {"divergence": -0.1},
        {"divergence": float("nan")},
        {"divergence": float("inf")},
        {"n_subpops": 2, "proportions": [0.0, 0.0]},
        {"n_subpops": 2, "proportions": [1.0, -1.0]},
        {"n_subpops": 2, "proportions": [float("nan"), 1.0]},
        {"n_subpops": 2, "proportions": [float("inf"), 1.0]},
        {"n_subpops": 2, "proportions": [2, -1]},
        {"n_subpops": 2, "proportions": [4, -2]},
        {"n_subpops": 2, "proportions": [1e308, 1e308]},
        {"n_subpops": 2.0},
        {"n_loci": 3.5},
        {"n_alleles": np.float64(8)},
        {"seed": 1.5},
        {"n_loci": "4"},
        {"n_loci": True},
        {"n_subpops": 2, "sample_sizes": [2.5, 3]},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(kp.errors.InvalidParameter):
            kp.synth_frequency_table(**kwargs)

    @pytest.mark.parametrize("floor", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_floor(self, floor):
        with pytest.raises(kp.errors.NonPositiveFrequency):
            kp.synth_frequency_table(floor=floor)

    @pytest.mark.parametrize("size", [0, -5])
    def test_rejects_sample_size_below_one(self, size):
        with pytest.raises(kp.errors.InvalidParameter, match="sample size"):
            kp.synth_frequency_table(n_subpops=2, sample_sizes=[size, 10])

    def test_numpy_integer_counts_accepted(self):
        table = kp.synth_frequency_table(n_subpops=np.int64(2), n_loci=np.int32(3),
                                         n_alleles=np.int16(5), seed=np.uint8(4),
                                         sample_sizes=np.array([10, 20]))
        assert table == kp.synth_frequency_table(n_subpops=2, n_loci=3, n_alleles=5, seed=4,
                                                 sample_sizes=[10, 20])

    def test_rejects_floor_at_one_over_alleles(self):
        with pytest.raises(kp.errors.NonPositiveFrequency, match="1/4"):
            kp.synth_frequency_table(n_alleles=4, floor=0.25)
        table = kp.synth_frequency_table(n_alleles=4, floor=0.2499)
        assert table.floor == 0.2499

    def test_custom_proportions_and_sizes(self):
        table = kp.synth_frequency_table(
            n_subpops=2, proportions=[0.3, 0.7], sample_sizes=[100, 200])
        assert table.proportions == pytest.approx((0.3, 0.7))
        assert table.sample_sizes == (100, 200)
