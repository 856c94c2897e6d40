import hashlib
import importlib
import inspect
import math
import re
import warnings

import numpy as np
import pytest
from scipy import optimize
from scipy import stats as sps
from scipy.special import betaincinv

import kinpower as kp
from kinpower.errors import AlphaTooSmallForB, EmptySubpopSample, SmallSampleWarning

from conftest import rng
from oracles import (beta_quantile_ulps, clopper_pearson_within_ulps, reference_power_report,
                     within_ulps)


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

    def test_two_dimensional_sample_rejected(self):
        # unchecked, numpy raised ValueError: kth(=4) out of bounds (3)
        with pytest.raises(kp.errors.InvalidParameter,
                           match=r"null sample must be one-dimensional, got shape \(3, 3\)"):
            kp.null_threshold(np.ones((3, 3)), 0.5)


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

    @pytest.mark.parametrize("k,n", [(3, 2), (-1, 10), (0, 0), (2.5, 10), (3, 10.0),
                                     (np.float64(3), 10), ("3", 10), (True, 10)])
    def test_bad_counts_rejected(self, k, n):
        with pytest.raises(kp.errors.InvalidParameter, match="bad counts"):
            kp.clopper_pearson(k, n)

    def test_numpy_integer_counts_accepted(self):
        assert kp.clopper_pearson(np.int64(3), np.int32(10)) == kp.clopper_pearson(3, 10)

    # the n <= 60 grid: every count s of every n, both bounds
    SMALL = [(s, n) for n in range(1, 61) for s in range(n + 1)]
    # edge counts at large n, where betaincinv strays furthest (up to 84962
    # doubles at s = 2, n = 1e6)
    LARGE = [(s, n) for n in (10**4, 970554, 10**6) for s in (1, 2, n - 2, n - 1)]
    ULPS = 4

    def test_within_4_ulps_of_the_exact_bounds(self):
        power_module = importlib.import_module("kinpower.power")  # kp.power is a function
        s, n = map(np.array, zip(*self.SMALL, *self.LARGE))
        lo, hi = power_module._clopper_pearson(s, n)
        for ci, si, ni in zip(zip(lo.tolist(), hi.tolist()), s.tolist(), n.tolist()):
            assert clopper_pearson_within_ulps(ci, si, ni, self.ULPS), (si, ni, ci)

    def test_no_further_from_the_exact_bounds_than_scipy(self):
        # on the n <= 60 grid, the largest distance in doubles from the true
        # bound: 2 for the package, 58 for scipy.special.betaincinv
        power_module = importlib.import_module("kinpower.power")
        s, n = map(np.array, zip(*self.SMALL))
        a = 1.0 - power_module.CI_LEVEL
        counts = list(zip(s.tolist(), n.tolist()))
        rows = [(a / 2, si, ni - si + 1) for si, ni in counts if si > 0]
        rows += [(1 - a / 2, si + 1, ni - si) for si, ni in counts if si < ni]
        p, alpha, beta = map(np.array, zip(*rows))
        worst = [max(abs(beta_quantile_ulps(x, *row)) for x, row in zip(q.tolist(), rows))
                 for q in (power_module._beta_quantile(p, alpha, beta),
                           betaincinv(alpha, beta, p))]
        assert worst[0] <= min(worst[1], self.ULPS), worst

    def test_near_scipy_on_a_random_grid(self):
        # a sanity check, not a reference: scipy's own bounds stray by up to
        # 1.03e-11 of the bound on this grid (s = 1 of n = 898913), and by
        # 56068 doubles (beta_quantile_ulps) at s = 1 of n = 970554
        power_module = importlib.import_module("kinpower.power")
        generator = rng(31)
        n = np.concatenate([[1, 2, 3, 10, 10**6],
                            np.unique(np.rint(10 ** generator.uniform(0, 6, 2000)))])
        s = np.concatenate([np.zeros_like(n), np.minimum(n, 1), n - 1, n,
                            np.floor(generator.uniform(0, n + 1))])
        trials = np.tile(n, 5)
        a = 1.0 - power_module.CI_LEVEL
        lo, hi = power_module._clopper_pearson(s, trials)
        want_lo = np.where(s == 0, 0.0, sps.beta.ppf(a / 2, s, trials - s + 1))
        want_hi = np.where(s == trials, 1.0, sps.beta.ppf(1 - a / 2, s + 1, trials - s))
        assert lo.tolist() == pytest.approx(want_lo.tolist(), rel=5e-11, abs=0.0)
        assert hi.tolist() == pytest.approx(want_hi.tolist(), rel=5e-11, abs=0.0)
        assert np.all(lo[s == 0] == 0.0) and np.all(hi[s == trials] == 1.0)
        assert power_module._Z == sps.norm.ppf(0.975) == sps.norm.ppf(1 - a / 2)

    @pytest.mark.parametrize("p", [1e-6, 0.005, 0.3, 0.5, 0.995])
    def test_beta_quantile_at_other_levels(self, p):
        # the threshold intervals to come read other levels than 0.025 and 0.975
        power_module = importlib.import_module("kinpower.power")
        generator = rng(7)
        a = np.rint(10 ** generator.uniform(0, 4, 40))
        b = np.rint(10 ** generator.uniform(0, 4, 40))
        q = power_module._beta_quantile(p, a, b)
        for x, ai, bi in zip(q.tolist(), a.astype(int).tolist(), b.astype(int).tolist()):
            assert within_ulps(x, p, ai, bi, self.ULPS), (p, ai, bi, x)

    def test_each_bound_depends_on_its_own_count_alone(self):
        # a count's interval is the same alone, in a batch, and batched in
        # another order, so subpop_power and power_report agree to the bit
        power_module = importlib.import_module("kinpower.power")
        generator = rng(12)
        n = np.rint(10 ** generator.uniform(0, 6, 60)).astype(np.int64)
        s = np.floor(generator.uniform(0, n + 1)).astype(np.int64)
        lo, hi = power_module._clopper_pearson(s, n)
        order = generator.permutation(n.size)
        lo2, hi2 = power_module._clopper_pearson(s[order], n[order])
        assert lo2.tobytes() == lo[order].tobytes() and hi2.tobytes() == hi[order].tobytes()
        assert [kp.clopper_pearson(int(si), int(ni)) for si, ni in zip(s, n)] == list(
            zip(lo.tolist(), hi.tolist()))

    def test_bounds_and_quantiles_pinned(self):
        # the bits of every bound on SMALL + LARGE and of _beta_quantile at six
        # levels on a seeded grid with a, b up to 3e4, recorded before the
        # solver was last restructured: a rewrite must keep each to the bit
        power_module = importlib.import_module("kinpower.power")
        s, n = map(np.array, zip(*self.SMALL, *self.LARGE))
        h = hashlib.sha256()
        for bound in power_module._clopper_pearson(s, n):
            h.update(bound.tobytes())
        generator = rng(37)
        a = np.rint(10 ** generator.uniform(0, 4.5, 400))
        b = np.rint(10 ** generator.uniform(0, 4.5, 400))
        for p in (1e-6, 0.005, 0.025, 0.5, 0.975, 0.995):
            h.update(power_module._beta_quantile(p, a, b).tobytes())
        assert h.hexdigest() == (
            "ec28223a8b825d03455d89b4dfe4b299ca8431f8eaab8204e23ae118d69bb468")

    def test_a_billion_trials(self):
        for s in (1, 5 * 10**8):
            lo, hi = kp.clopper_pearson(s, 10**9)
            assert (lo, hi) == pytest.approx(
                (sps.beta.ppf(0.025, s, 10**9 - s + 1), sps.beta.ppf(0.975, s + 1, 10**9 - s)),
                rel=1e-9)

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

    def test_empty_sample_rejected(self):
        with pytest.raises(kp.errors.InvalidParameter, match="alternative sample is empty"):
            kp.power(np.array([]), 0.0)

    def test_infinite_sentinels(self):
        alt = np.array([-np.inf, 0.0, np.inf])
        est, _ = kp.power(alt, 1.0)
        assert est == pytest.approx(1 / 3)  # only +inf exceeds


class TestPowerCurve:
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
        with pytest.raises(kp.errors.InvalidParameter,
                           match=re.escape(f"alpha {alpha} not in (0, 1)")):
            kp.power_curve(np.arange(100.0), np.arange(100.0), [alpha, 0.5])

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_grid_alpha_zero_or_one_rejected(self, alpha):
        # the same (0, 1) rule as null_threshold, power_report and --alpha
        message = re.escape(f"alpha {alpha} not in (0, 1)")
        grid = [alpha, 0.5] if alpha == 0.0 else [0.5, alpha]
        with pytest.raises(kp.errors.InvalidParameter, match=message):
            kp.power_curve(np.arange(100.0), np.arange(100.0) + 0.5, grid)
        with pytest.raises(kp.errors.InvalidParameter, match=message):
            kp.null_threshold(np.arange(100.0), alpha)

    @pytest.mark.parametrize("n", [1, 9, 100, 2_001])
    def test_matches_null_threshold_then_power(self, n):
        # power_curves reads thresholds from a sorted copy, null_threshold
        # from np.partition: the two must pick the same order statistic
        generator = rng(15 + n)
        values = np.array([-np.inf, -2.0, 0.0, 0.0, 0.5, 3.0, np.inf])
        null = generator.choice(values, size=n)
        alt = generator.choice(values, size=n + 5)
        grid = sorted({1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.999,
                       *generator.uniform(0.0, 1.0, size=8).tolist()})
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AlphaTooSmallForB)
            curve = kp.power_curve(null, alt, grid)
            expected = tuple((alpha, kp.power(alt, kp.null_threshold(null, alpha))[0])
                             for alpha in grid)
        assert curve.points == expected

    @pytest.mark.parametrize("which", ["null", "alternative"])
    def test_empty_sample_rejected(self, which):
        samples = {"null": np.arange(10.0), "alternative": np.arange(10.0)}
        samples[which] = np.array([])
        with pytest.raises(kp.errors.InvalidParameter, match=f"{which} sample is empty"):
            kp.power_curve(samples["null"], samples["alternative"], [0.1])

    def test_curves_share_one_sort_of_the_null(self, monkeypatch):
        # each alpha's threshold is read once, however many curves use it
        power_module = importlib.import_module("kinpower.power")  # kp.power is a function
        generator = rng(14)
        null = generator.normal(size=5_000)
        alts = {name: generator.normal(loc=shift, size=1_000 + 7 * k)
                for k, (name, shift) in enumerate((("a", 0.0), ("b", 1.0), ("c", 2.0)))}
        grid = [0.001, 0.01, 0.1]
        separate = [kp.power_curve(null, alt, grid, statistic=name)
                    for name, alt in alts.items()]
        reads = []
        rank = power_module._rank
        monkeypatch.setattr(power_module, "_rank",
                            lambda *args: reads.append(1) or rank(*args))
        assert kp.power_curves(null, alts, grid) == separate
        assert len(reads) == 3


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

    @pytest.mark.parametrize("k", [3, 7, -1])
    def test_index_outside_subpops_rejected(self, k):
        # unchecked, an index past the K=3 subpops raised EmptySubpopSample
        matrix = kp.SampleMatrix(
            statistics={"LAF": np.ones(9)},
            subpop_tags=np.repeat(np.arange(3), 3),
            subpop_names=("x", "y", "z"))
        with pytest.raises(kp.errors.InvalidParameter, match=r"not an integer in \[0, 3\)"):
            kp.subpop_power(matrix, "LAF", 0.0, k)


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

    def test_wide_interval_clips(self):
        # one replicate each: the half width 1.96 * sqrt(0.5) passes 1
        with pytest.warns(SmallSampleWarning):
            d = kp.power_diff_ci(0.5, 1, 0.5, 1)
        assert (d.ci_low, d.ci_high) == (-1.0, 1.0)

    def test_small_sample_warning(self):
        with pytest.warns(SmallSampleWarning):
            kp.power_diff_ci(0.5, 10, 0.5, 10)

    @pytest.mark.parametrize("n_i,n_j", [(0, 10), (10, 0), (-5, 10)])
    def test_sample_size_below_one_rejected(self, n_i, n_j):
        with pytest.raises(kp.errors.InvalidParameter, match="sample sizes"):
            kp.power_diff_ci(0.5, n_i, 0.5, n_j)

    @pytest.mark.parametrize("n_i,n_j", [(40.5, 40), (40, 40.0), (np.float64(40), 40),
                                         (True, 40)])
    def test_non_integer_sample_size_rejected(self, n_i, n_j):
        with pytest.raises(kp.errors.InvalidParameter, match="sample sizes"):
            kp.power_diff_ci(0.5, n_i, 0.4, n_j)

    def test_numpy_integer_sample_sizes_accepted(self):
        assert kp.power_diff_ci(0.5, np.int64(40), 0.4, np.int32(40)) == \
            kp.power_diff_ci(0.5, 40, 0.4, 40)

    @pytest.mark.parametrize("power_i,power_j", [(1.5, 0.5), (0.5, -0.1), (math.nan, 0.5),
                                                 (0.5, math.nan)])
    def test_power_outside_unit_interval_or_nan_rejected(self, power_i, power_j):
        with pytest.raises(kp.errors.InvalidParameter, match="powers"):
            kp.power_diff_ci(power_i, 100, power_j, 100)

    @pytest.mark.parametrize("function", [kp.clopper_pearson, kp.power, kp.subpop_power,
                                          kp.power_diff_ci, kp.power_report])
    def test_every_interval_is_95_percent(self, function):
        # the level is the power module's CI_LEVEL, not a parameter
        assert "level" not in inspect.signature(function).parameters


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


def subpop_power_of_each(alt, statistic, threshold_log):
    return [kp.subpop_power(alt, statistic, threshold_log, k)
            for k in range(len(alt.subpop_names))]


class TestMalformedMatrixRefused:
    """power_report and subpop_power count every subpop through one check of
    the alternative matrix, as dump_samples does."""

    @staticmethod
    def matrices(tags, values):
        names = ("x", "y")
        null = kp.SampleMatrix(statistics={"LAF": np.arange(100.0)},
                               subpop_tags=np.arange(100) % 2, subpop_names=names)
        alt = kp.SampleMatrix(statistics={"LAF": values}, subpop_tags=tags, subpop_names=names)
        return null, alt

    @pytest.mark.parametrize("report", [
        lambda null, alt: kp.power_report(null, alt, "LAF", 0.5),
        lambda null, alt: subpop_power_of_each(alt, "LAF", 50.0)], ids=["report", "subpop"])
    @pytest.mark.parametrize("bad_tag, dtype, tag_range", [
        (5, int, "int64 from 0 to 5"), (-1, int, "int64 from -1 to 1"),
        (1, float, "float64 from 0.0 to 1.0")], ids=["5", "-1", "float"])
    def test_tag_outside_subpops(self, report, bad_tag, dtype, tag_range):
        # unchecked, a tag of 5 or -1 was left out of every subpop but counted
        # in the overall power, so the subpop counts summed to 99 of 100
        tags = (np.arange(100) % 2).astype(dtype)
        tags[17] = bad_tag
        null, alt = self.matrices(tags, np.arange(100.0))
        with pytest.raises(kp.errors.InvalidParameter,
                           match=rf"integers in \[0, 2\), .*; they are {tag_range}$"):
            report(null, alt)

    @pytest.mark.parametrize("report", [
        lambda null, alt: kp.power_report(null, alt, "LAF", 0.5),
        lambda null, alt: subpop_power_of_each(alt, "LAF", 50.0)], ids=["report", "subpop"])
    def test_column_shorter_than_tags(self, report):
        # unchecked, the subpop mask of 100 tags raised a bare IndexError
        null, alt = self.matrices(np.arange(100) % 2, np.arange(90.0))
        with pytest.raises(kp.errors.InvalidParameter, match=r"shape \(90,\), not the \(100,\)"):
            report(null, alt)

    @pytest.mark.parametrize("report, missing", [
        (lambda null, alt: kp.power_report(null, alt, "MIN", 0.5), "null"),
        (lambda null, alt: kp.power_report(null, alt, "MIN", 0.5), "alt"),
        (lambda null, alt: subpop_power_of_each(alt, "MIN", 50.0), "alt")],
        ids=["report-null", "report-alt", "subpop-alt"])
    def test_statistic_not_in_matrix(self, report, missing):
        # unchecked, a statistic a LAF-only run did not compute raised a bare
        # KeyError: 'MIN'; the other matrix holds it, so the message names
        # the matrix that does not
        null, alt = self.matrices(np.arange(100) % 2, np.arange(100.0))
        other = alt if missing == "null" else null
        other.statistics["MIN"] = np.arange(100.0)
        with pytest.raises(kp.errors.InvalidParameter,
                           match=r"^statistic 'MIN' is not in the matrix, which holds LAF$"):
            report(null, alt)


class TestPowerReportOracle:
    """power_report's threshold, power and every per_subpop (power, n) equal
    reference_power_report's per-subpop masks to the bit, for all seven
    statistics, and each CI bound lies within 4 doubles of the exact
    Clopper-Pearson bound of its hit count."""

    @staticmethod
    def assert_matches(null, alt, alpha):
        for stat in kp.STATISTICS:
            r = kp.power_report(null, alt, stat, alpha)
            c, power, hits, per_subpop = reference_power_report(null, alt, stat, alpha)
            assert repr((r.threshold_log, r.power)) == repr((c, power)), stat
            assert repr({name: v[:2] for name, v in r.per_subpop.items()}) == repr(
                {name: v[:2] for name, v in per_subpop.items()}), stat
            assert clopper_pearson_within_ulps((r.ci_low, r.ci_high), hits, alt.B, 4), stat
            for name, (_, n, ci) in r.per_subpop.items():
                assert clopper_pearson_within_ulps(ci, per_subpop[name][2], n, 4), (stat, name)

    @pytest.mark.parametrize("alpha", [0.01, 0.3])
    def test_simulated_k4(self, synth_table, alpha):
        cfg = kp.SimConfig(table=synth_table, theta0=kp.UNRELATED, theta1=kp.FULL_SIB,
                           B=3000, seed=8)
        self.assert_matches(*kp.simulate(cfg), alpha)

    def test_simulated_k4_at_benchmark_scale(self, synth_table):
        # counts of thousands, where scipy's betaincinv is off by up to 2 doubles
        cfg = kp.SimConfig(table=synth_table, theta0=kp.UNRELATED, theta1=kp.FULL_SIB,
                           B=65536, seed=5)
        self.assert_matches(*kp.simulate(cfg), 0.001)

    def test_simulated_k1(self, one_locus_table):
        cfg = kp.SimConfig(table=one_locus_table, theta0=kp.UNRELATED, theta1=kp.FULL_SIB,
                           B=500, seed=9)
        null, alt = kp.simulate(cfg)
        assert alt.subpop_names == ("pop",)
        self.assert_matches(null, alt, 0.2)

    def test_no_hits_all_hits_and_a_subpop_without_alt_replicates(self):
        # per statistic, every alternative pair, none, or all of one subpop
        # and none of the other lies above the threshold; no pair is in z
        B = 40
        tags = np.arange(B) % 2
        line = np.linspace(-1.0, 1.0, B)
        alt_values = dict(zip(kp.STATISTICS, (
            line + 5, line - 5, line, np.where(tags == 0, 5.0, -5.0), np.full(B, np.inf),
            np.full(B, -np.inf), line + 0.5)))
        names = ("x", "y", "z")
        null = kp.SampleMatrix(statistics={s: line for s in kp.STATISTICS},
                               subpop_tags=np.arange(B) % 3, subpop_names=names)
        alt = kp.SampleMatrix(statistics=alt_values, subpop_tags=tags, subpop_names=names)
        self.assert_matches(null, alt, 0.25)
        reports = {s: kp.power_report(null, alt, s, 0.25) for s in kp.STATISTICS}
        assert (reports["LAF"].power, reports["LAF"].ci_high) == (1.0, 1.0)
        assert (reports["AVG"].power, reports["AVG"].ci_low) == (0.0, 0.0)
        assert [v[0] for v in reports["MIN"].per_subpop.values()] == [1.0, 0.0]
        assert all(list(r.per_subpop) == ["x", "y"] for r in reports.values())

    @pytest.mark.parametrize("k,n", [(np.array([3]), 10), (3, np.array([10])), (11, 10),
                                     (-1, 10), (0, 0)])
    def test_clopper_pearson_refuses_bad_counts(self, k, n):
        with pytest.raises(kp.errors.InvalidParameter, match="bad counts"):
            kp.clopper_pearson(k, n)
