"""Self-tests of the benchmark: tracing coverage, missing names, and gates.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

SPEC = run.load_spec()
SEED = 3

# A synthesised table never passes through load_frequency_table, so its
# engine output does not depend on the interpreter's hash seed.
PINNED_SYNTH = {"B": 2 * 8192 + 100, "seed": 7,
                "sha256": "b8b547e1484393d3f549470236cb07aa9faf93d41e985974dcc058268aaf2055"}

pytestmark = pytest.mark.filterwarnings("ignore::kinpower.errors.AlphaTooSmallForB")


def small(name: str, digests=None):
    """The workload at a size that runs in a second or two."""
    wl = W.WORKLOADS[name](1, {} if digests is None else digests)
    if name == "casework_lr":
        wl.PAIRS = 6
    else:
        wl.B = 2048
    return wl


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    return tmp_path


def traced(name, out_dir, spec=SPEC):
    return run.measure_traced(small(name), SEED, 0.0, out_dir, spec, workers=1)


def test_every_traced_name_exists():
    for name in SPEC["traced"]:
        modname, attr = name.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(modname), attr, None)), name


def test_kinpower_power_is_the_function_not_the_module():
    import kinpower
    assert callable(kinpower.power) and not hasattr(kinpower.power, "power_report")
    assert W.P is importlib.import_module("kinpower.power")


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_each_name_records_a_span_on_its_workload(name, out_dir):
    result = traced(name, out_dir)
    counts = result["info"]["span_counts"]
    listed = [n for n, info in SPEC["traced"].items() if name in info["workloads"]]
    assert listed
    assert all(counts[n] > 0 for n in listed), {n: counts[n] for n in listed}
    assert result["info"]["missing_spans"] == []
    assert result["metrics"]["trace.missing_spans"][0] == 0
    assert result["run"].failed == 0


def test_layer_counts_on_this_commit(out_dir):
    sim = traced("sim_fullsib", out_dir)["metrics"]
    assert sim["ibd.kernel_evals_per_rep"][0] == 90        # 15 loci x (K+2)
    assert sim["engine.blocks"][0] == 2                    # one block each for null and alt
    case = traced("casework_lr", out_dir)["metrics"]
    assert case["ibd.pair_prob_calls"][0] == 180
    assert case["ibd.kernel_calls"][0] == 180
    assert case["tables.pool_calls"][0] == 2
    dump = traced("report_dump", out_dir)["metrics"]
    assert dump["engine.dump_rows"][0] == 2 * 2048


def test_removed_name_is_a_missing_span_not_a_crash(out_dir):
    spec = json.loads(json.dumps(SPEC))
    spec["traced"]["kinpower.lrstats.removed_by_refactor"] = {
        "group": "ibd.pair_prob", "workloads": ["casework_lr"]}
    result = traced("casework_lr", out_dir, spec)
    assert "kinpower.lrstats.removed_by_refactor" in result["info"]["missing_spans"]
    assert result["metrics"]["trace.missing_spans"][0] == 1
    assert result["run"].failed == 0


def test_tracer_restores_the_original_functions():
    import kinpower.ibd as ibd
    original = ibd.pair_components
    tracer = tracing.Tracer({"kinpower.ibd.pair_components": {"group": "ibd.kernel"}})
    tracer.install()
    assert ibd.pair_components is not original
    tracer.uninstall()
    assert ibd.pair_components is original


def test_self_time_subtracts_children():
    tracer = tracing.Tracer({"a": {"group": "outer"}, "b": {"group": "inner"}})
    tracer.run_id = "op-0"
    tracer.spans[:] = [tracing.Span("a", 0.0, 10.0, -1, "op-0", 0, 0),
                       tracing.Span("b", 1.0, 4.0, 0, "op-0", 0, 0),
                       tracing.Span("a", 5.0, 6.0, 0, "op-0", 0, 0)]
    s = tracing.Summary(tracer, "op-")
    assert s.time["outer"] == 10.0          # the nested "a" is not counted twice
    assert s.calls["outer"] == 2
    assert s.self_time["outer"] == (10.0 - 4.0) + 1.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(1000)))[:2] == (989, 99.0)
    assert run.tail_percentile(list(range(100)))[:2] == (89, 90.0)
    assert run.tail_percentile(list(range(20))) == (9, 50.0, 20)
    assert run.tail_percentile([3.0, 1.0, 2.0, 4.0]) == (2.0, 50.0, 4)


# --- gates: a corrupted output must fail -----------------------------------

def runner(name, wl, tmp_path):
    r = run.Runner(wl, SEED, tmp_path)
    state, _ = r.setup(1)
    return r, state


def test_sim_gate_passes_then_fails_on_flipped_digest(tmp_path):
    digests = {}
    wl = small("sim_fullsib", digests)
    r, state = runner("sim_fullsib", wl, tmp_path)
    r.one(state, None)
    assert r.failed == 0 and len(digests) == 1
    key, value = next(iter(digests.items()))
    digests[key] = value[:-1] + ("0" if value[-1] != "0" else "1")
    r.one(state, None)
    assert r.failed == 1 and "digest" in r.failures[0]


def test_sim_gate_fails_on_perturbed_statistic(tmp_path):
    wl = small("sim_fullsib")
    r, state = runner("sim_fullsib", wl, tmp_path)
    op = wl.op(state, None, None)
    assert wl.check(state, op, None, None) == []
    op.output[1].statistics["MIN"][5] += 1e-6
    assert any("digest" in f for f in wl.check(state, op, None, None))


def test_sim_worker_count_does_not_change_the_digest(tmp_path):
    wl = small("sim_fullsib")
    wl.B = 3 * 8192 // 2
    r, state = runner("sim_fullsib", wl, tmp_path)
    r.one(state, None, workers=1)
    r.one(state, None, workers=2)
    assert r.failed == 0


def test_casework_gate_fails_on_perturbed_statistic(tmp_path):
    wl = small("casework_lr")
    r, state = runner("casework_lr", wl, tmp_path)
    related, unrelated = state["pairs"][0], state["pairs"][1]
    assert np.isfinite(related[2]["LAF"]) and unrelated[2]["LAF"] == -np.inf
    for pair in (related, unrelated):
        op = wl.op(state, pair, None)
        assert wl.check(state, op, pair, None) == []
    op = wl.op(state, related, None)
    op.output["AVG"] += 1e-6
    assert wl.check(state, op, related, None) == ["AVG: lr_all "
                                                  f"{op.output['AVG']!r} differs from engine "
                                                  f"{related[2]['AVG']!r}"]
    op = wl.op(state, unrelated, None)
    op.output["CB"] = 0.0
    assert len(wl.check(state, op, unrelated, None)) == 1


@pytest.mark.parametrize("fname", ["power_report.csv", "power_curves.csv",
                                   "diff_ci_MAX.csv", "alt_samples.csv"])
def test_report_gate_fails_on_corrupted_file(fname, tmp_path):
    wl = small("report_dump")
    r, state = runner("report_dump", wl, tmp_path)
    workdir = tmp_path / "pass"
    workdir.mkdir()
    op = wl.op(state, None, workdir)
    assert wl.check(state, op, None, workdir) == []
    path = workdir / fname
    lines = path.read_text().split("\n")
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) + 1e-6)
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines))
    failures = wl.check(state, op, None, workdir)
    assert failures and fname in failures[0]


def test_report_gate_fails_on_nan(tmp_path):
    wl = small("report_dump")
    r, state = runner("report_dump", wl, tmp_path)
    workdir = tmp_path / "pass"
    workdir.mkdir()
    state["alt"].statistics["LAF"][0] = np.nan
    op = wl.op(state, None, workdir)
    assert wl.check(state, op, None, workdir)


def test_failed_op_counts_and_run_goes_on(tmp_path):
    wl = small("casework_lr")
    r, state = runner("casework_lr", wl, tmp_path)
    pair = state["pairs"][0]
    before = r.attempted
    r.one(state, (pair[0], "locus,allele1,allele2\nFGA,x,y\n", pair[2]))
    r.one(state, pair)
    assert (r.attempted - before, r.failed) == (2, 1)


def test_synth_table_digest_is_pinned():
    table = W.S.synth_frequency_table(n_subpops=4, n_loci=15, n_alleles=12, seed=5,
                                      proportions=[0.1108, 0.3695, 0.3538, 0.1659],
                                      sample_sizes=[202, 304, 212, 211])
    cfg = W.E.SimConfig(table=table, theta0=W.I.UNRELATED, theta1=W.I.FULL_SIB,
                        B=PINNED_SYNTH["B"], seed=PINNED_SYNTH["seed"])
    digest = W.sample_digest(W.E.simulate_null(cfg), W.E.simulate_alt(cfg))
    assert digest == PINNED_SYNTH["sha256"]


def test_panel_shape(tmp_path):
    table = W.build_panel(SEED, tmp_path)
    counts = W.allele_counts(table)
    assert [s.name for s in table.subpops] == ["North", "Northeast", "Central", "South"]
    assert min(counts.values()) == 8 and max(counts.values()) == 24
    assert counts == W.ALLELE_COUNTS
