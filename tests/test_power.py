import math

import numpy as np
import pytest
from scipy import optimize
from scipy import stats as sps

import kinpower as kp
from kinpower.errors import AlphaTooSmallForB, EmptySubpopSample, SmallSampleWarning

from conftest import rng


def cp_oracle(successes, trials, level=0.95):
    """Clopper-Pearson via bisection on the binomial CDF (independent route)."""
    a = 1 - level
    if successes == 0:
        lo = 0.0
    else:
        lo = optimize.bisect(
            lambda q: sps.binom.sf(successes - 1, trials, q) - a / 2, 1e-12, 1 - 1e-12,
            xtol=1e-13)
    if successes == trials:
        hi = 1.0
    else:
        hi = optimize.bisect(
            lambda q: sps.binom.cdf(successes, trials, q) - a / 2, 1e-12, 1 - 1e-12,
            xtol=1e-13)
    return lo, hi


class TestNullThreshold:
    def test_order_statistic_by_hand(self):
        samples = np.arange(1.0, 11.0)
        with pytest.warns(AlphaTooSmallForB):
            c = kp.null_threshold(samples, 0.2)
        assert c == 8.0
        assert (samples > c).mean() == 0.2

    def test_tie_case_realized_fpr_zero(self):
        samples = np.full(100, 3.5)
        with pytest.warns(AlphaTooSmallForB):
            c = kp.null_threshold(samples, 0.05)
        assert c == 3.5
        assert (samples > c).mean() == 0.0

    def test_uniform_order_statistic_oracle(self):
        generator = rng(8)
        samples = generator.random(1_000_000)
        alpha = 0.0002
        c = kp.null_threshold(samples, alpha)
        assert c == pytest.approx(1 - alpha, abs=5e-4)
        assert (samples > c).mean() <= alpha

    def test_warns_when_alpha_times_b_small(self):
        samples = np.arange(100.0)
        with pytest.warns(AlphaTooSmallForB):
            kp.null_threshold(samples, 0.01)

    def test_realized_fpr_never_exceeds_alpha(self):
        generator = rng(9)
        for _ in range(20):
            samples = generator.normal(size=5000)
            alpha = float(generator.uniform(0.01, 0.5))
            c = kp.null_threshold(samples, alpha)
            assert (samples > c).mean() <= alpha

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            kp.null_threshold(np.arange(10.0), 0.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(kp.errors.InvalidParameter, match="null sample is empty"):
            kp.null_threshold(np.array([]), 0.1)


class TestClopperPearson:
    @pytest.mark.parametrize("k,n", [(0, 100), (1, 100), (50, 100),
                                     (99, 100), (100, 100), (781, 1000)])
    def test_matches_bisection_oracle(self, k, n):
        lo, hi = kp.clopper_pearson(k, n)
        olo, ohi = cp_oracle(k, n)
        assert lo == pytest.approx(olo, abs=1e-9)
        assert hi == pytest.approx(ohi, abs=1e-9)

    def test_50_of_100(self):
        lo, hi = kp.clopper_pearson(50, 100)
        assert (lo, hi) == pytest.approx((0.3983, 0.6017), abs=5e-5)

    def test_zero_successes_boundary(self):
        n = 1000
        lo, hi = kp.clopper_pearson(0, n)
        assert lo == 0.0
        assert hi == pytest.approx(1 - 0.025 ** (1 / n), rel=1e-12)

    @pytest.mark.parametrize("level", [1.5, 0.0, -0.5, math.nan])
    def test_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(kp.errors.InvalidParameter, match="level"):
            kp.clopper_pearson(3, 10, level=level)

    @pytest.mark.parametrize("k,n", [(3, 2), (-1, 10), (0, 0)])
    def test_bad_counts_rejected(self, k, n):
        with pytest.raises(kp.errors.InvalidParameter, match="bad counts"):
            kp.clopper_pearson(k, n)

    def test_contains_point_estimate(self):
        generator = rng(10)
        for _ in range(50):
            n = int(generator.integers(1, 10_000))
            k = int(generator.integers(0, n + 1))
            lo, hi = kp.clopper_pearson(k, n)
            assert lo <= k / n <= hi


class TestPower:
    def test_proportion_and_ci(self):
        alt = np.concatenate([np.full(781, 1.0), np.full(219, -1.0)])
        est, (lo, hi) = kp.power(alt, 0.0)
        assert est == 0.781
        assert lo < est < hi

    def test_monotone_transform_invariance(self):
        generator = rng(11)
        alt = generator.normal(size=1000)
        c = 0.3
        est_log, _ = kp.power(alt, c)
        est_lin, _ = kp.power(np.exp(alt), math.exp(c))
        assert est_log == est_lin

    def test_level_outside_unit_interval_rejected(self):
        with pytest.raises(kp.errors.InvalidParameter, match="level"):
            kp.power(np.array([1.0, -1.0, 2.0]), 0.0, level=1.5)

    def test_empty_sample_rejected(self):
        with pytest.raises(kp.errors.InvalidParameter, match="alternative sample is empty"):
            kp.power(np.array([]), 0.0)

    def test_infinite_sentinels(self):
        alt = np.array([-np.inf, 0.0, np.inf])
        est, _ = kp.power(alt, 1.0)
        assert est == pytest.approx(1 / 3)  # only +inf exceeds


class TestPowerCurve:
    def test_alpha_one_gives_power_one(self):
        null = np.arange(100.0)
        alt = np.arange(100.0) - 50
        curve = kp.power_curve(null, alt, [0.5, 1.0])
        assert curve.points[-1] == (1.0, 1.0)

    def test_self_calibration(self):
        generator = rng(12)
        null = generator.normal(size=200_000)
        alt = generator.normal(size=200_000)
        grid = [0.01, 0.05, 0.1]
        curve = kp.power_curve(null, alt, grid)
        for alpha, est in curve.points:
            sigma = math.sqrt(alpha * (1 - alpha) * 2 / 200_000)
            assert abs(est - alpha) < 4 * sigma

    def test_monotone_in_alpha(self):
        generator = rng(13)
        null = generator.normal(size=20_000)
        alt = generator.normal(loc=1.0, size=20_000)
        grid = list(np.geomspace(1e-3, 0.5, 20))
        curve = kp.power_curve(null, alt, grid)
        powers = [p for _, p in curve.points]
        assert powers == sorted(powers)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            kp.power_curve(np.arange(10.0), np.arange(10.0), [0.5, 0.1])

    @pytest.mark.parametrize("alpha", [-0.1, math.nan, -math.inf])
    def test_negative_or_nan_grid_alpha_rejected(self, alpha):
        with pytest.raises(kp.errors.InvalidParameter, match=f"got {alpha}"):
            kp.power_curve(np.arange(100.0), np.arange(100.0), [alpha, 0.5])

    def test_grid_alpha_zero_and_one(self):
        curve = kp.power_curve(np.arange(100.0), np.arange(100.0) + 0.5, [0.0, 1.0])
        assert curve.points == ((0.0, 0.01), (1.0, 1.0))

    @pytest.mark.parametrize("which", ["null", "alternative"])
    def test_empty_sample_rejected(self, which):
        samples = {"null": np.arange(10.0), "alternative": np.arange(10.0)}
        samples[which] = np.array([])
        with pytest.raises(kp.errors.InvalidParameter, match=f"{which} sample is empty"):
            kp.power_curve(samples["null"], samples["alternative"], [0.1])

    def test_curves_share_one_sort_of_the_null(self, monkeypatch):
        # each alpha's threshold is read once, however many curves use it
        import importlib
        power_module = importlib.import_module("kinpower.power")  # kp.power is a function
        generator = rng(14)
        null = generator.normal(size=5_000)
        alts = {name: generator.normal(loc=shift, size=1_000 + 7 * k)
                for k, (name, shift) in enumerate((("a", 0.0), ("b", 1.0), ("c", 2.0)))}
        grid = [0.001, 0.01, 0.1, 1.0]
        separate = [kp.power_curve(null, alt, grid, statistic=name)
                    for name, alt in alts.items()]
        reads = []
        order_statistic = power_module._order_statistic
        monkeypatch.setattr(power_module, "_order_statistic",
                            lambda *args: reads.append(1) or order_statistic(*args))
        assert kp.power_curves(null, alts, grid) == separate
        assert len(reads) == 3       # alpha = 1 needs no threshold


class TestSubpopPower:
    def test_k1_equals_global(self, one_locus_table):
        cfg = kp.SimConfig(table=one_locus_table, theta0=kp.UNRELATED,
                           theta1=kp.FULL_SIB, B=5000, seed=3)
        alt = kp.simulate_alt(cfg)
        c = float(np.median(alt.statistics["LAF"]))
        est, n, _ = kp.subpop_power(alt, "LAF", c, 0)
        global_est, _ = kp.power(alt.statistics["LAF"], c)
        assert n == 5000
        assert est == global_est

    def test_constructed_split(self):
        matrix = kp.SampleMatrix(
            statistics={"LAF": np.concatenate([np.ones(50), -np.ones(50)])},
            subpop_tags=np.concatenate([np.zeros(50, int), np.ones(50, int)]),
            subpop_names=("x", "y"))
        assert kp.subpop_power(matrix, "LAF", 0.0, 0)[0] == 1.0
        assert kp.subpop_power(matrix, "LAF", 0.0, 1)[0] == 0.0

    def test_recombination_identity(self, synth_table):
        cfg = kp.SimConfig(table=synth_table, theta0=kp.UNRELATED,
                           theta1=kp.FULL_SIB, B=20_000, seed=4,
                           statistics=("MIN",))
        alt = kp.simulate_alt(cfg)
        c = float(np.quantile(alt.statistics["MIN"], 0.4))
        global_est, _ = kp.power(alt.statistics["MIN"], c)
        parts = [kp.subpop_power(alt, "MIN", c, k)
                 for k in range(synth_table.n_subpops)]
        assert sum(n for _, n, _ in parts) == alt.B
        recombined = sum(est * n for est, n, _ in parts) / alt.B
        assert recombined == pytest.approx(global_est, abs=1e-12)

    def test_empty_subpop(self):
        matrix = kp.SampleMatrix(
            statistics={"LAF": np.ones(10)},
            subpop_tags=np.zeros(10, int),
            subpop_names=("x", "y"))
        with pytest.raises(EmptySubpopSample):
            kp.subpop_power(matrix, "LAF", 0.0, 1)


class TestPowerDiffCI:
    def test_symmetric_about_zero_when_equal(self):
        d = kp.power_diff_ci(0.6, 10_000, 0.6, 10_000)
        assert d.estimate == 0.0
        assert d.ci_low == pytest.approx(-d.ci_high)

    def test_hand_example(self):
        d = kp.power_diff_ci(0.8, 10_000, 0.7, 10_000)
        half = 1.959963984540054 * math.sqrt(0.8 * 0.2 / 1e4 + 0.7 * 0.3 / 1e4)
        assert d.estimate == pytest.approx(0.1, abs=1e-15)
        assert d.ci_high - d.estimate == pytest.approx(half, abs=1e-12)
        assert half == pytest.approx(0.01192, abs=5e-6)

    def test_extreme_level_clips(self):
        # 1 - 1e-300 rounds to level 1; 1 - 2**-53 is the nearest level below 1
        for level in (1.0 - 1e-300, 1.0 - 2.0 ** -53):
            d = kp.power_diff_ci(0.5, 100, 0.5, 100, level=level)
            assert (d.ci_low, d.ci_high) == (-1.0, 1.0)

    def test_small_sample_warning(self):
        with pytest.warns(SmallSampleWarning):
            kp.power_diff_ci(0.5, 10, 0.5, 10)

    @pytest.mark.parametrize("n_i,n_j", [(0, 10), (10, 0), (-5, 10)])
    def test_sample_size_below_one_rejected(self, n_i, n_j):
        with pytest.raises(kp.errors.InvalidParameter, match="sample sizes"):
            kp.power_diff_ci(0.5, n_i, 0.5, n_j)

    @pytest.mark.parametrize("power_i,power_j", [(1.5, 0.5), (0.5, -0.1), (math.nan, 0.5),
                                                 (0.5, math.nan)])
    def test_power_outside_unit_interval_or_nan_rejected(self, power_i, power_j):
        with pytest.raises(kp.errors.InvalidParameter, match="powers"):
            kp.power_diff_ci(power_i, 100, power_j, 100)

    @pytest.mark.parametrize("level", [1.5, 0.0, math.nan])
    def test_level_outside_unit_interval_rejected(self, level):
        with pytest.raises(kp.errors.InvalidParameter, match="level"):
            kp.power_diff_ci(0.5, 100, 0.5, 100, level=level)


class TestPowerReport:
    def test_report_invariants(self, synth_table):
        cfg = kp.SimConfig(table=synth_table, theta0=kp.UNRELATED,
                           theta1=kp.FULL_SIB, B=20_000, seed=5,
                           statistics=("LAF", "MIN"))
        null = kp.simulate_null(cfg)
        alt = kp.simulate_alt(cfg)
        report = kp.power_report(null, alt, "MIN", 0.01)
        assert 0.0 <= report.ci_low <= report.power <= report.ci_high <= 1.0
        assert report.threshold == math.exp(report.threshold_log)
        assert sum(n for _, n, _ in report.per_subpop.values()) == alt.B

    def test_subpop_without_alt_replicates_left_out(self):
        def matrix(tags):
            return kp.SampleMatrix(statistics={"LAF": np.arange(20.0)},
                                   subpop_tags=np.array(tags), subpop_names=("x", "y"))

        report = kp.power_report(matrix([0, 1] * 10), matrix([0] * 20), "LAF", 0.5)
        assert list(report.per_subpop) == ["x"]
        assert report.per_subpop["x"][:2] == (report.power, 20)

    def test_csv_json_round_trip(self, synth_table):
        from kinpower.power import (power_reports_json, read_power_reports_csv,
                                    write_power_reports_csv)
        cfg = kp.SimConfig(table=synth_table, theta0=kp.UNRELATED,
                           theta1=kp.FULL_SIB, B=5000, seed=6,
                           statistics=("LAF",))
        null = kp.simulate_null(cfg)
        alt = kp.simulate_alt(cfg)
        report = kp.power_report(null, alt, "LAF", 0.05)
        text = write_power_reports_csv([report])
        rows = read_power_reports_csv(text)
        assert rows[0]["statistic"] == "LAF"
        assert rows[0]["power"] == report.power
        assert rows[0]["threshold"] == report.threshold_log
        assert "LAF" in power_reports_json([report])
