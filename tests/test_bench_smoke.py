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


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_gates_pass(name, tmp_path):
    wl = W.WORKLOADS[name](1, {})
    if name == "casework_lr":
        wl.PAIRS = 6
    else:
        wl.B = 2048
    state = wl.setup(SEED, tmp_path)
    args = wl.pass_args(state)
    assert args
    for arg in args:
        op = wl.op(state, arg, tmp_path)
        assert wl.check(state, op, arg, tmp_path) == []
