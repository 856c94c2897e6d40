import collections
import threading
from concurrent.futures import Future

import numpy as np
import pytest

import kinpower as kp
from kinpower import engine
from kinpower.engine import _draws, _sampler


@pytest.fixture
def one_locus_table():
    """K=1, single locus, the worked-example frequencies."""
    csv = (
        "subpop,locus,allele,freq\n"
        "pop,D3S1358,13,0.15\n"
        "pop,D3S1358,14,0.20\n"
        "pop,D3S1358,15,0.65\n"
    )
    return kp.load_frequency_table(csv)


@pytest.fixture
def two_subpop_table():
    csv = (
        "subpop,locus,allele,freq\n"
        "a,L1,10,0.2\n"
        "a,L1,11,0.8\n"
        "a,L2,7,0.5\n"
        "a,L2,8,0.5\n"
        "b,L1,10,0.4\n"
        "b,L1,11,0.6\n"
        "b,L2,7,0.1\n"
        "b,L2,8,0.9\n"
    )
    meta = kp.TableMeta(subpops=["a", "b"], proportions=[0.5, 0.5])
    return kp.load_frequency_table(csv, meta=meta)


@pytest.fixture
def synth_table():
    return kp.synth_frequency_table(
        n_subpops=4, n_loci=15, n_alleles=10, divergence=0.3, seed=11,
        proportions=[0.1108, 0.3695, 0.3538, 0.1659],
    )


@pytest.fixture
def pool_events(monkeypatch):
    """Every pool the engine opens or shuts down, in order, as ("open", size)
    and ("shut", size), or ("shut in use", size) for a pool shut down while
    another thread's run has not yet read all of its jobs. A recorder stands
    in for the pool and runs each job as it is submitted, so no process is
    started; the engine's pool slot is emptied before and after the test."""
    events = []

    class Done(Future):
        """A job counted unread by the thread that submitted it until its
        result is taken."""

        def __init__(self, unread):
            super().__init__()
            self.unread, self.thread = unread, threading.get_ident()
            unread[self.thread] += 1

        def result(self, timeout=None):
            self.unread[self.thread] -= 1
            return super().result(timeout)

    class Recorder:
        def __init__(self, max_workers):
            self.size, self.unread = max_workers, collections.Counter()
            events.append(("open", max_workers))

        def submit(self, fn, *args):
            future = Done(self.unread)
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

        def shutdown(self, wait=True, **kwargs):
            # a run that fails shuts its own pool down with jobs still unread
            assert wait
            me = threading.get_ident()
            busy = any(n for thread, n in self.unread.items() if thread != me)
            events.append(("shut in use" if busy else "shut", self.size))

    engine._close_pool()
    monkeypatch.setattr(engine, "ProcessPoolExecutor", Recorder)
    yield events
    engine._close_pool()


def drawn_pairs(cfg, alt):
    """The int64 (B, loci) allele-index arrays of the pairs that cfg's alt
    (or null) phase draws, keyed g1a, g1b, g2a, g2b as in
    SampleMatrix.genotypes."""
    return dict(zip(("g1a", "g1b", "g2a", "g2b"), _draws(_sampler(cfg.table), cfg, alt)[1:]))


def rng(seed=0):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
