"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
``criterion N (<name>): PASS/FAIL`` line (run with ``pytest -s`` to see
them as they complete). Tolerances are stated inline; the heavier
simulations keep their runtime budgets explicit.
"""

import math
import os
import time
from contextlib import contextmanager
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize
from scipy import stats as sps

import kinpower as kp
from kinpower.cli import main
from conftest import drawn_pairs
from oracles import reference_pair_probs

P2_ONLY = kp.ThetaIBD(0.0, 0.0, 1.0)


@contextmanager
def criterion(num, name):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({name}): FAIL "
              f"[{time.perf_counter() - t0:.1f}s]", flush=True)
        raise
    print(f"criterion {num} ({name}): PASS "
          f"[{time.perf_counter() - t0:.1f}s]", flush=True)


def random_freqs(generator, n_alleles):
    raw = generator.dirichlet(np.ones(n_alleles))
    labels = [str(10 + i) for i in range(n_alleles)]
    return dict(zip(labels, raw.tolist()))


def genotype_pairs(labels, locus="L"):
    gs = [kp.LocusGenotype(locus, pair)
          for pair in combinations_with_replacement(sorted(labels), 2)]
    return list(combinations_with_replacement(gs, 2))


def test_01_worked_example():
    with criterion(1, "single-locus worked example"):
        f = {"13": 0.15, "14": 0.20, "15": 0.65}
        g = kp.LocusGenotype("D3S1358", ("13", "14"))
        pc = kp.pair_probability(g, g, kp.PARENT_CHILD, f)
        un = kp.pair_probability(g, g, kp.UNRELATED, f)
        assert pc == pytest.approx(0.0105, abs=1e-4)
        assert un == pytest.approx(0.0036, abs=1e-4)
        assert pc / un == pytest.approx(2.9167, abs=1e-4)


def test_02_closed_form_grid():
    with criterion(2, "closed-form pair probabilities, 1000 freq grids"):
        generator = np.random.Generator(np.random.Philox(20240817))
        for trial in range(1000):
            n = int(generator.integers(2, 6))
            f = random_freqs(generator, n)
            for g1, g2 in genotype_pairs(f):
                un, pc, fs = reference_pair_probs(g1, g2, f)
                got_un = kp.pair_probability(g1, g2, kp.UNRELATED, f)
                got_pc = kp.pair_probability(g1, g2, kp.PARENT_CHILD, f)
                got_fs = kp.pair_probability(g1, g2, kp.FULL_SIB, f)
                assert abs(got_un - un) <= 1e-12
                assert abs(got_pc - pc) <= 1e-12
                assert abs(got_fs - fs) <= 1e-12
                got_p2 = kp.pair_probability(g1, g2, P2_ONLY, f)
                assert got_fs == 0.25 * got_un + 0.5 * got_pc + 0.25 * got_p2


def test_03_normalization():
    with criterion(3, "pair probabilities sum to 1"):
        generator = np.random.Generator(np.random.Philox(7))
        thetas = [kp.UNRELATED, kp.PARENT_CHILD, kp.FULL_SIB,
                  kp.HALF_SIB_PAPER, kp.HALF_SIB_STANDARD, P2_ONLY]
        for _ in range(20):
            z = generator.dirichlet(np.ones(3))
            thetas.append(kp.ThetaIBD(*(z / z.sum()).tolist()))
        for n_alleles in range(2, 9):
            f = random_freqs(generator, n_alleles)
            pairs = genotype_pairs(f)
            for theta in thetas:
                total = sum(kp.pair_probability(g1, g2, theta, f)
                            for g1, g2 in pairs)
                assert abs(total - 1.0) <= 1e-10


def _pair_counts(g, n_alleles):
    """Empirical counts of unordered single-locus genotype pairs."""
    key1 = g["g1a"][:, 0].astype(np.int64) * n_alleles + g["g1b"][:, 0]
    key2 = g["g2a"][:, 0].astype(np.int64) * n_alleles + g["g2b"][:, 0]
    lo = np.minimum(key1, key2)
    hi = np.maximum(key1, key2)
    code = lo * n_alleles * n_alleles + hi
    return np.bincount(code, minlength=(n_alleles ** 2) ** 2)


def test_04_sampler_matches_analytic(one_locus_table):
    with criterion(4, "sampled pair frequencies vs analytic, B=1e6"):
        B = 1_000_000
        labels = one_locus_table.alleles("D3S1358")
        n = len(labels)
        index = {a: i for i, a in enumerate(labels)}
        f = one_locus_table.freqs["pop"]["D3S1358"]
        for seed, theta in ((31, kp.UNRELATED), (32, kp.PARENT_CHILD),
                            (33, kp.FULL_SIB)):
            cfg = kp.SimConfig(table=one_locus_table, theta0=kp.UNRELATED,
                               theta1=theta, B=B, seed=seed,
                               statistics=("LAF",))
            counts = _pair_counts(drawn_pairs(cfg, alt=True), n)
            for g1, g2 in genotype_pairs(labels, "D3S1358"):
                expected = kp.pair_probability(g1, g2, theta, f)
                k1 = index[g1.alleles[0]] * n + index[g1.alleles[1]]
                k2 = index[g2.alleles[0]] * n + index[g2.alleles[1]]
                code = min(k1, k2) * n * n + max(k1, k2)
                observed = counts[code] / B
                sigma = math.sqrt(expected * (1 - expected) / B)
                assert abs(observed - expected) <= 4 * sigma + 1e-12


def test_05_null_calibration():
    with criterion(5, "null self-calibration at alpha 0.01 and 0.001"):
        B = 1_000_000
        table = kp.synth_frequency_table(
            n_subpops=2, n_loci=15, n_alleles=8, divergence=0.2, seed=40)
        runs = []
        for seed in (41, 42):
            cfg = kp.SimConfig(table=table, theta0=kp.UNRELATED,
                               theta1=kp.FULL_SIB, B=B, seed=seed,
                               statistics=("LAF",), workers=8)
            runs.append(kp.simulate_null(cfg).statistics["LAF"])
        for alpha in (0.01, 0.001):
            c = kp.null_threshold(runs[0], alpha)
            est, _ = kp.power(runs[1], c)
            sigma = math.sqrt(alpha * (1 - alpha) * 2 / B)
            assert abs(est - alpha) < 4 * sigma


def test_06_structured_population_rankings(synth_table, one_locus_table):
    with criterion(6, "structural facts on a synthetic 4-subpop panel"):
        alpha = 0.0002
        cfg = kp.SimConfig(table=synth_table, theta0=kp.UNRELATED,
                           theta1=kp.FULL_SIB, B=100_000, seed=50, workers=8)
        null = kp.simulate_null(cfg)
        alt = kp.simulate_alt(cfg)

        # MIN <= AVG <= MAX on every simulated pair (log scale is monotone)
        for matrix in (null, alt):
            s = matrix.statistics
            assert np.all(s["MIN"] <= s["AVG"] + 1e-12)
            assert np.all(s["AVG"] <= s["MAX"] + 1e-12)

        # single-subpopulation collapse: all statistics coincide
        collapse = kp.simulate_alt(kp.SimConfig(
            table=one_locus_table, theta0=kp.UNRELATED, theta1=kp.FULL_SIB,
            B=2000, seed=51))
        base = collapse.statistics["LAF"]
        for name, values in collapse.statistics.items():
            np.testing.assert_allclose(values, base, rtol=1e-12,
                                       err_msg=name)

        # fixed seed reproduces every output array
        again = kp.simulate_alt(cfg)
        for name in alt.statistics:
            assert np.array_equal(alt.statistics[name],
                                  again.statistics[name], equal_nan=True)
        assert np.array_equal(alt.subpop_tags, again.subpop_tags)

        # soft expectation, reported but not asserted: LAF/AVG/MIN beat MAX
        lines = []
        powers = {}
        for name in ("LAF", "AVG", "MIN", "MAX"):
            c = kp.null_threshold(null.statistics[name], alpha)
            powers[name], _ = kp.power(alt.statistics[name], c)
        for name in ("LAF", "AVG", "MIN"):
            verdict = "holds" if powers[name] >= powers["MAX"] else "violated"
            lines.append(f"  power({name})={powers[name]:.4f} vs "
                         f"power(MAX)={powers['MAX']:.4f}: {verdict}")
        print("\n".join(["soft ranking report (not asserted):"] + lines),
              flush=True)


THAI_REFERENCE = {
    # full-sibling test at alpha = 0.0002, B = 1e6: reference power values
    "LAF": 0.781, "MIN": 0.775, "AVG": 0.757,
    "MAX": 0.741, "RMAX": 0.662, "RMIN": 0.607,
}


@pytest.mark.skipif("KINPOWER_THAI_FREQS" not in os.environ,
                    reason="set KINPOWER_THAI_FREQS (and optionally "
                           "KINPOWER_THAI_META) to run against the "
                           "published Thai allele frequency table")
def test_06b_thai_reference_power_ordering():
    with criterion("6b", "Thai reference power ordering (data-gated)"):
        meta_path = os.environ.get(
            "KINPOWER_THAI_META",
            str(Path(__file__).resolve().parents[1] / "configs" / "thai.meta"))
        with open(meta_path, encoding="utf-8") as fh:
            meta = kp.load_table_meta(fh)
        with open(os.environ["KINPOWER_THAI_FREQS"], encoding="utf-8") as fh:
            table = kp.load_frequency_table(fh, meta=meta)
        B = 1_000_000
        stats = tuple(THAI_REFERENCE)
        cfg = kp.SimConfig(table=table, theta0=kp.UNRELATED,
                           theta1=kp.FULL_SIB, B=B, seed=60,
                           statistics=stats, workers=8)
        null = kp.simulate_null(cfg)
        alt = kp.simulate_alt(cfg)
        powers = {}
        for name in stats:
            report = kp.power_report(null, alt, name, 0.0002)
            powers[name] = report.power
            lo, hi = report.ci_low, report.ci_high
            ref = THAI_REFERENCE[name]
            print(f"  {name}: power={report.power:.4f} "
                  f"CI=({lo:.4f}, {hi:.4f}) reference={ref}", flush=True)
            assert lo - 0.01 <= ref <= hi + 0.01
        ordered = sorted(powers, key=powers.get, reverse=True)
        assert ordered == ["LAF", "MIN", "AVG", "MAX", "RMAX", "RMIN"]


def cp_oracle(successes, trials, level=0.95):
    a = 1 - level
    lo = 0.0 if successes == 0 else optimize.bisect(
        lambda q: sps.binom.sf(successes - 1, trials, q) - a / 2,
        1e-12, 1 - 1e-12, xtol=1e-13)
    hi = 1.0 if successes == trials else optimize.bisect(
        lambda q: sps.binom.cdf(successes, trials, q) - a / 2,
        1e-12, 1 - 1e-12, xtol=1e-13)
    return lo, hi


def test_07_interval_math():
    with criterion(7, "Clopper-Pearson and Wald difference intervals"):
        lo, hi = kp.clopper_pearson(50, 100)
        olo, ohi = cp_oracle(50, 100)
        assert abs(lo - olo) <= 1e-9
        assert abs(hi - ohi) <= 1e-9

        d = kp.power_diff_ci(0.8, 10_000, 0.7, 10_000)
        z975 = 1.959963984540054
        half = z975 * math.sqrt(0.8 * 0.2 / 1e4 + 0.7 * 0.3 / 1e4)
        assert abs(d.estimate - 0.1) <= 1e-12
        assert abs((d.ci_high - d.estimate) - half) <= 1e-12
        assert abs((d.estimate - d.ci_low) - half) <= 1e-12


def test_08_determinism(synth_table, tmp_path):
    with criterion(8, "bit-identical parallel runs and byte-identical files"):
        B = 100_000
        runs = []
        for workers in (1, 2, 8):
            cfg = kp.SimConfig(table=synth_table, theta0=kp.UNRELATED,
                               theta1=kp.FULL_SIB, B=B, seed=70,
                               workers=workers)
            runs.append(kp.simulate_null(cfg))
        base = runs[0]
        for other in runs[1:]:
            assert np.array_equal(base.subpop_tags, other.subpop_tags)
            for name in base.statistics:
                assert np.array_equal(base.statistics[name],
                                      other.statistics[name], equal_nan=True)

        synth_dir = tmp_path / "synth"
        assert main(["synth-freqs", "--subpops", "3", "--loci", "6",
                     "--alleles", "8", "--seed", "71",
                     "--out", str(synth_dir)]) == 0
        payloads = []
        for run in ("r1", "r2"):
            out = tmp_path / run
            assert main(["power", "--freqs", str(synth_dir / "freqs.csv"),
                         "--meta", str(synth_dir / "meta.txt"),
                         "--test", "full-sib", "--alpha", "0.01",
                         "--B", "20000", "--seed", "72",
                         "--out", str(out)]) == 0
            payloads.append(
                (out / "power_report.csv").read_bytes()
                + (out / "power_report.json").read_bytes())
        assert payloads[0] == payloads[1]


def test_09_performance_envelope(synth_table):
    with criterion(9, "1e6-replicate full-sibling run under 10 minutes"):
        B = 1_000_000
        cfg = kp.SimConfig(table=synth_table, theta0=kp.UNRELATED,
                           theta1=kp.FULL_SIB, B=B, seed=80, workers=8)
        t0 = time.perf_counter()
        null = kp.simulate_null(cfg)
        alt = kp.simulate_alt(cfg)
        kp.power_report(null, alt, "LAF", 0.0002)
        elapsed = time.perf_counter() - t0
        print(f"  B=1e6 null+alt+report wall time: {elapsed:.1f}s", flush=True)
        assert elapsed < 600.0
        assert all(v.shape == (B,) for v in alt.statistics.values())
