"""The benchmark's inputs and its three workloads.

Every workload shares one synthetic panel shaped like the Thai setting in
``configs/thai.meta``: its 4 subpopulations, proportions, sample sizes and
15 locus names, with realistic allele counts per locus (8 at TPOX up to
24 at FGA and D21S11). The panel is generated from the seed, written as
frequency CSV plus metadata, and loaded back through the package's own
loaders, so the program sees only generated files.

A workload has a ``setup`` that builds its inputs, an ``op`` that is one
closed-loop request (the caller waits for it before sending the next),
and a ``check`` that returns the correctness failures of one op's output.
Kinpower is always called through its module objects (``E.simulate_null``,
never a from-import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
META_FILE = ROOT / "configs" / "thai.meta"

# Allele counts per locus of the panel; one synth call is made per count.
ALLELE_COUNTS = {
    "FGA": 24, "TH01": 9, "TPOX": 8, "CSF1PO": 10, "vWA": 12,
    "D2S1338": 14, "D3S1358": 10, "D5S818": 10, "D7S820": 11, "D8S1179": 12,
    "D13S317": 9, "D16S539": 9, "D18S51": 18, "D19S433": 14, "D21S11": 24,
}
DIVERGENCE = 0.1
ALPHA = 2e-4           # full-sib default alpha (DEFAULT_TEST_ALPHAS)
FINITE_TOL = 1e-9      # lr_all vs engine, finite values

kp = importlib.import_module("kinpower")
E = importlib.import_module("kinpower.engine")
I = importlib.import_module("kinpower.ibd")
L = importlib.import_module("kinpower.lrstats")
P = importlib.import_module("kinpower.power")   # the module; kinpower.power is a function
T = importlib.import_module("kinpower.tables")
S = importlib.import_module("kinpower.synth")

STATISTICS = L.STATISTICS


def build_panel(seed: int, workdir: Path):
    """Generate the panel for ``seed``, write it out and load it back."""
    meta_text = META_FILE.read_text(encoding="utf-8")
    meta = T.load_table_meta(meta_text)
    groups: dict[int, list[str]] = defaultdict(list)
    for locus in meta.panel:
        groups[ALLELE_COUNTS[locus]].append(locus)

    lines = ["subpop,locus,allele,freq"]
    rows: dict[str, list[str]] = {name: [] for name in meta.subpops}
    for n_alleles, loci in sorted(groups.items()):
        synth = S.synth_frequency_table(
            n_subpops=len(meta.subpops), n_loci=len(loci), n_alleles=n_alleles,
            divergence=DIVERGENCE, seed=seed * 100 + n_alleles,
            proportions=meta.proportions, sample_sizes=meta.sample_sizes,
            floor=meta.floor)
        for sp, name in zip(synth.subpops, meta.subpops):
            for synth_locus, locus in zip(synth.panel, loci):
                for allele, f in synth.freqs[sp.name][synth_locus].items():
                    rows[name].append(f"{name},{locus},{allele},{f!r}")
    for name in meta.subpops:
        lines.extend(rows[name])

    workdir.mkdir(parents=True, exist_ok=True)
    freqs_path, meta_path = workdir / "panel.csv", workdir / "panel.meta"
    freqs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta_path.write_text(meta_text, encoding="utf-8")
    with open(meta_path, encoding="utf-8") as fh:
        loaded_meta = T.load_table_meta(fh)
    with open(freqs_path, encoding="utf-8") as fh:
        table = T.load_frequency_table(fh, meta=loaded_meta)
    return table


def allele_counts(table) -> dict[str, int]:
    return {locus: len(table.alleles(locus)) for locus in table.panel}


def table_digest(table) -> str:
    """SHA-256 of the loaded table in the package's canonical CSV form."""
    return hashlib.sha256(T.dump_frequency_table(table).encode("utf-8")).hexdigest()


def digest_key(seed: int, B: int, table_sha: str) -> str:
    # The engine is deterministic given its table, so outputs are pinned per
    # loaded table: load_frequency_table's renormalisation sums in set order,
    # so the same files can load to tables that differ in the last bit.
    return f"{seed}:{B}:{table_sha[:16]}"


def sample_digest(*matrices) -> str:
    """SHA-256 of the subpopulation tags and statistic arrays."""
    h = hashlib.sha256()
    for m in matrices:
        h.update(np.ascontiguousarray(m.subpop_tags, dtype=np.int64).tobytes())
        for stat in STATISTICS:
            h.update(np.ascontiguousarray(m.statistics[stat], dtype=np.float64).tobytes())
    return h.hexdigest()


def _report_failures(null, alt, reports) -> list[str]:
    """Realised null FPR <= alpha and no NaN, per power report."""
    out = []
    for r in reports:
        values = (r.threshold_log, r.power, r.ci_low, r.ci_high)
        if any(math.isnan(v) for v in values):
            out.append(f"{r.statistic}: NaN in power report")
        fpr = np.count_nonzero(null.statistics[r.statistic] > r.threshold_log) / null.B
        if fpr > r.alpha:
            out.append(f"{r.statistic}: realised null FPR {fpr} > alpha {r.alpha}")
    return out


@dataclass
class Op:
    """One request's output and how many items (replicates, pairs, rows) it covers."""

    items: int
    output: Any


class SimFullSib:
    """Full sibling vs unrelated power run: null + alt + seven power reports."""

    name = "sim_fullsib"
    B = 65536
    item = "replicate"

    def __init__(self, workers: int, digests: dict):
        self.workers = workers
        self.digests = digests      # digest_key -> digest seen in this or an earlier run

    def setup(self, seed: int, workdir: Path) -> dict:
        table = build_panel(seed, workdir)
        return {"seed": seed, "table": table}

    def pass_args(self, state) -> list:
        return [None]

    def op(self, state, arg, workdir, workers=None) -> Op:
        cfg = E.SimConfig(table=state["table"], theta0=I.UNRELATED, theta1=I.FULL_SIB,
                          B=self.B, seed=state["seed"],
                          workers=self.workers if workers is None else workers)
        null = E.simulate_null(cfg)
        alt = E.simulate_alt(cfg)
        reports = [P.power_report(null, alt, stat, ALPHA) for stat in STATISTICS]
        return Op(items=null.B + alt.B, output=(null, alt, reports))

    def check(self, state, op: Op, arg, workdir) -> list[str]:
        null, alt, reports = op.output
        failures = _report_failures(null, alt, reports)
        if null.B != self.B or alt.B != self.B:
            failures.append(f"sample sizes {null.B}, {alt.B} != B={self.B}")
            return failures
        for m in (null, alt):
            for stat in STATISTICS:
                if np.isnan(m.statistics[stat]).any():
                    failures.append(f"{stat}: NaN in samples")
        digest = sample_digest(null, alt)
        key = digest_key(state["seed"], self.B, table_digest(state["table"]))
        expected = self.digests.setdefault(key, digest)
        if digest != expected:
            failures.append(f"sample digest {digest[:12]} != {expected[:12]} "
                            f"seen before for seed {state['seed']} and this table")
        return failures


class CaseworkLR:
    """Single-pair LR: two profile CSV loads plus one parent-child lr_all."""

    name = "casework_lr"
    PAIRS = 100          # half parent-child, half unrelated
    item = "pair"

    def __init__(self, workers: int, digests: dict):
        pass                 # one process, no digests: same constructor as the others

    def setup(self, seed: int, workdir: Path) -> dict:
        table = build_panel(seed, workdir)
        cfg = E.SimConfig(table=table, theta0=I.UNRELATED, theta1=I.PARENT_CHILD,
                          B=self.PAIRS // 2, seed=seed, workers=1, keep_genotypes=True)
        related, unrelated = E.simulate_alt(cfg), E.simulate_null(cfg)
        labels = [table.alleles(locus) for locus in table.panel]

        def profile_text(g, first: bool, i: int) -> str:
            a, b = (g["g1a"], g["g1b"]) if first else (g["g2a"], g["g2b"])
            genotypes = tuple(
                T.LocusGenotype(locus, (labels[ell][a[i, ell]], labels[ell][b[i, ell]]))
                for ell, locus in enumerate(table.panel))
            return T.dump_profile_csv(T.Profile(genotypes))

        pairs = []
        for i in range(cfg.B):        # interleave related and unrelated pairs
            for m in (related, unrelated):
                expected = {stat: float(m.statistics[stat][i]) for stat in STATISTICS}
                pairs.append((profile_text(m.genotypes, True, i),
                              profile_text(m.genotypes, False, i), expected))
        return {"seed": seed, "table": table, "pairs": pairs}

    def pass_args(self, state) -> list:
        return state["pairs"]

    def op(self, state, pair, workdir) -> Op:
        text1, text2, _ = pair
        p1 = T.load_profile_csv(text1)
        p2 = T.load_profile_csv(text2)
        breakdown = L.lr_all((p1, p2), I.UNRELATED, I.PARENT_CHILD, state["table"])
        return Op(items=1, output=breakdown.stats)

    def check(self, state, op: Op, pair, workdir) -> list[str]:
        expected = pair[2]
        failures = []
        for stat in STATISTICS:
            got, want = op.output[stat], expected[stat]
            if math.isnan(got):
                failures.append(f"{stat}: NaN")
            elif math.isinf(got) or math.isinf(want):
                if got != want:
                    failures.append(f"{stat}: lr_all {got} != engine {want}")
            elif abs(got - want) > FINITE_TOL:
                failures.append(f"{stat}: lr_all {got!r} differs from engine {want!r}")
        return failures


class ReportDump:
    """Report writing after a simulation: power, curves, subpop bias, sample dumps."""

    name = "report_dump"
    B = 32768
    item = "row"
    writes_files = True

    def __init__(self, workers: int, digests: dict):
        self.workers = workers

    def setup(self, seed: int, workdir: Path) -> dict:
        table = build_panel(seed, workdir)
        cfg = E.SimConfig(table=table, theta0=I.UNRELATED, theta1=I.FULL_SIB,
                          B=self.B, seed=seed, workers=self.workers)
        null, alt = E.simulate_null(cfg), E.simulate_alt(cfg)
        return {"seed": seed, "table": table, "null": null, "alt": alt}

    def pass_args(self, state) -> list:
        return [None]

    def op(self, state, arg, workdir: Path) -> Op:
        """The work of ``power --dump-samples``, ``power-curve`` and ``subpop-bias``."""
        null, alt = state["null"], state["alt"]
        grid = list(P.DEFAULT_CURVE_GRID)
        names = alt.subpop_names
        reports = [P.power_report(null, alt, stat, ALPHA) for stat in STATISTICS]
        (workdir / "power_report.csv").write_text(
            P.write_power_reports_csv(reports), encoding="utf-8")
        (workdir / "power_report.json").write_text(
            P.power_reports_json(reports), encoding="utf-8")

        curves = [P.power_curve(null.statistics[s], alt.statistics[s], grid, statistic=s)
                  for s in STATISTICS]
        (workdir / "power_curves.csv").write_text(
            P.write_power_curves_csv(curves), encoding="utf-8")

        subpop = {}
        for stat in STATISTICS:
            sub_curves = [
                P.power_curve(null.statistics[stat], alt.statistics[stat][alt.subpop_tags == k],
                              grid, statistic=name)
                for k, name in enumerate(names)]
            (workdir / f"subpop_curves_{stat}.csv").write_text(
                P.write_power_curves_csv(sub_curves), encoding="utf-8")
            c = P.null_threshold(null.statistics[stat], ALPHA)
            per = [P.subpop_power(alt, stat, c, k) for k in range(len(names))]
            diffs = [P.power_diff_ci(per[i][0], per[i][1], per[j][0], per[j][1],
                                     subpop_i=names[i], subpop_j=names[j])
                     for i in range(len(names)) for j in range(i + 1, len(names))]
            (workdir / f"diff_ci_{stat}.csv").write_text(
                P.write_diff_cis_csv(diffs), encoding="utf-8")
            subpop[stat] = (sub_curves, c, per, diffs)

        (workdir / "null_samples.csv").write_text(E.dump_samples(null), encoding="utf-8")
        (workdir / "alt_samples.csv").write_text(E.dump_samples(alt), encoding="utf-8")
        return Op(items=null.B + alt.B, output=(reports, curves, subpop))

    def check(self, state, op: Op, arg, workdir: Path) -> list[str]:
        null, alt = state["null"], state["alt"]
        reports, curves, subpop = op.output
        failures = _report_failures(null, alt, reports)

        def read(name):
            return (workdir / name).read_text(encoding="utf-8")

        rows = P.read_power_reports_csv(read("power_report.csv"))
        want = [{"statistic": r.statistic, "alpha": r.alpha, "threshold": r.threshold_log,
                 "power": r.power, "ci_low": r.ci_low, "ci_high": r.ci_high} for r in reports]
        if rows != want:
            failures.append("power_report.csv does not read back to the reports")
        as_json = json.loads(read("power_report.json"))
        if [(d["statistic"], d["power"], d["threshold_log"]) for d in as_json] != \
                [(r.statistic, r.power, r.threshold_log) for r in reports]:
            failures.append("power_report.json does not read back to the reports")
        failures += _curve_failures(P.read_power_curves_csv(read("power_curves.csv")),
                                    curves, "power_curves.csv")

        for stat, (sub_curves, c, per, diffs) in subpop.items():
            failures += _curve_failures(
                P.read_power_curves_csv(read(f"subpop_curves_{stat}.csv")),
                sub_curves, f"subpop_curves_{stat}.csv")
            got = P.read_diff_cis_csv(read(f"diff_ci_{stat}.csv"))
            want = [{"subpop_i": d.subpop_i, "subpop_j": d.subpop_j, "estimate": d.estimate,
                     "ci_low": d.ci_low, "ci_high": d.ci_high} for d in diffs]
            if got != want or any(math.isnan(d.estimate) for d in diffs):
                failures.append(f"diff_ci_{stat}.csv does not read back to the CIs")
            global_power = np.count_nonzero(alt.statistics[stat] > c) / alt.B
            recombined = sum(est * n for est, n, _ in per) / alt.B
            if not abs(recombined - global_power) < 1e-9:
                failures.append(f"{stat}: subpop powers recombine to {recombined}, "
                                f"global power {global_power}")

        for fname, m in (("null_samples.csv", null), ("alt_samples.csv", alt)):
            failures += _dump_failures(read(fname), m, fname)
        return failures


def _curve_failures(rows, curves, fname) -> list[str]:
    want = [{"statistic": c.statistic, "alpha": a, "power": p}
            for c in curves for a, p in c.points]
    if rows != want or any(math.isnan(r["power"]) for r in rows):
        return [f"{fname} does not read back to the curves"]
    return []


def _dump_failures(text: str, m, fname) -> list[str]:
    """Parse a dump_samples CSV back and compare it with the matrix."""
    lines = text.split("\n")
    header = ["replicate", "subpop_tag"] + list(m.statistics)
    if lines[0].split(",") != header or lines[-1] != "" or len(lines) != m.B + 2:
        return [f"{fname}: bad header or row count"]
    cols = list(zip(*(line.split(",") for line in lines[1:-1])))
    failures = []
    if not np.array_equal(np.array(cols[0], dtype=np.int64), np.arange(m.B)):
        failures.append(f"{fname}: replicate column")
    if not np.array_equal(np.array(cols[1]), np.array(m.subpop_names)[m.subpop_tags]):
        failures.append(f"{fname}: subpop_tag column")
    for j, stat in enumerate(m.statistics):
        values = np.array(cols[2 + j], dtype=np.float64)
        if np.isnan(values).any() or not np.array_equal(values, m.statistics[stat]):
            failures.append(f"{fname}: column {stat} does not read back")
    return failures


WORKLOADS = {w.name: w for w in (SimFullSib, CaseworkLR, ReportDump)}
