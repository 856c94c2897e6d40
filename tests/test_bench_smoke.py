"""The benchmark's correctness gates at a small size.

Each workload in ``bench/workloads.py`` runs setup -> op -> check at the
sizes of the benchmark's own self-tests, so a change to the package that
breaks a gate of the benchmark (lr_all against the engine, report
read-back, realised null FPR, sample dumps) fails here too.
"""

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
sys.path[:0] = [str(BENCH_DIR)]

import workloads as W  # noqa: E402

SEED = 3
pytestmark = pytest.mark.filterwarnings("ignore::kinpower.errors.AlphaTooSmallForB")


@pytest.mark.parametrize("name, B", [pytest.param(n, 2048, id=n) for n in sorted(W.WORKLOADS)] + [
    # three dump blocks, the last partial, through the dump read-back gate
    pytest.param("report_dump", 2 * W.E.BLOCK + 5, id="report_dump-across-blocks")])
def test_gates_pass(name, B, tmp_path):
    wl = W.WORKLOADS[name](1, {})
    if name == "casework_lr":
        wl.PAIRS = 6
    else:
        wl.B = B
    state = wl.setup(SEED, tmp_path)
    args = wl.pass_args(state)
    assert args
    for arg in args:
        op = wl.op(state, arg, tmp_path)
        assert wl.check(state, op, arg, tmp_path) == []


def test_sim_fullsib_gates_pass_pooled_across_blocks(tmp_path):
    # three blocks a phase, the last partial, at two workers: the reports'
    # FPR and NaN gates run over blocks that the warm pool evaluated
    # through the kernel memo
    wl = W.WORKLOADS["sim_fullsib"](2, {})
    wl.B = 2 * W.E.BLOCK + 5
    state = wl.setup(SEED, tmp_path)
    for arg in wl.pass_args(state):
        op = wl.op(state, arg, tmp_path)
        assert wl.check(state, op, arg, tmp_path) == []


def test_report_dump_gates_pass_pooled_across_blocks(tmp_path):
    # three dump blocks, the last partial, at two workers: on a host with two
    # CPUs or more, the dump read-back gate parses text that the warm pool's
    # workers formatted
    wl = W.WORKLOADS["report_dump"](2, {})
    wl.B = 2 * W.E.BLOCK + 5
    state = wl.setup(SEED, tmp_path)
    for arg in wl.pass_args(state):
        op = wl.op(state, arg, tmp_path)
        assert wl.check(state, op, arg, tmp_path) == []


# Seed-0 benchmark panel and the sim_fullsib run's tags and statistics, as
# the benchmark's sample_digest hashes them, recorded before the engine's
# guide-table sampler: any change that moves a bit of a paper-scale block
# (15 loci, 8 to 24 alleles, K=4, BLOCK-sized blocks) fails here.
PANEL_SHA256 = "dbbfc3ea43dbc0bcd61aadc51cc2041c963448e5b2fe6aafa0fc848b5e0d3976"
SIM_FULLSIB_SHA256 = "b73851ee18be477354eb0c2ce2ab956edb675696b9a8f43b35ef9fe6c9eabde9"


def test_sim_fullsib_pinned_at_benchmark_scale(tmp_path):
    table = W.build_panel(0, tmp_path)
    assert W.table_digest(table) == PANEL_SHA256
    cfg = W.E.SimConfig(table=table, theta0=W.I.UNRELATED, theta1=W.I.FULL_SIB,
                        B=W.SimFullSib.B, seed=0, workers=1)
    assert W.sample_digest(W.E.simulate_null(cfg), W.E.simulate_alt(cfg)) == SIM_FULLSIB_SHA256
