import hashlib
import itertools
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import kinpower as kp
from kinpower import engine
from kinpower.engine import (BLOCK, GUIDE, _MAX_COLUMNS, _alleles, _block_rng, _compile,
                             _derive_block, _draws, _loglik_arrays, _sampler)
from kinpower.ibd import categorical, pair_components

from conftest import drawn_pairs, rng
from oracles import (reference_block_genotypes, reference_dump, reference_loglik_arrays,
                     reference_pool)


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
        fmat = np.split(_compile(table, scheme), table.offsets[1:-1], axis=1)
        assert len(fmat) == len(table.panel)
        for f, locus in zip(fmat, table.panel):
            labels = sorted(table.freqs[names[0]][locus])
            assert f.shape == (K + 2, len(labels))
            for k, name in enumerate(names):
                assert np.array_equal(f[k], [table.freqs[name][locus][a] for a in labels])
            assert np.array_equal(f[K], [local[locus][a] for a in labels])
            assert np.array_equal(f[K + 1], [pooled[locus][a] for a in labels])
            # only census (or a lone subpop) makes the CB row the LAF row
            assert np.array_equal(f[K], f[K + 1]) == (scheme == "census" or K == 1)

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

    @pytest.mark.parametrize("field, value", [("B", 2.5), ("B", 1000.0), ("seed", 1.5),
                                              ("workers", 2.5), ("workers", "2")])
    def test_rejects_non_integer(self, two_subpop_table, field, value):
        # unchecked, B=2.5 and seed=1.5 failed inside numpy and workers=2.5 ran
        with pytest.raises(kp.errors.InvalidParameter, match=f"{field} must be an integer"):
            cfg_for(two_subpop_table, **{field: value})

    def test_accepts_numpy_integers(self, two_subpop_table):
        cfg = cfg_for(two_subpop_table, B=np.int64(1000), seed=np.uint32(7),
                      workers=np.int32(2))
        assert (cfg.B, cfg.seed, cfg.workers) == (1000, 7, 2)

    @pytest.mark.parametrize("field, value, message", [
        ("statistics", "MIN", "statistics must be a sequence of names, not one string"),
        ("theta0", (1, 0, 0), "theta0 must be a ThetaIBD"),
        ("theta1", [0.25, 0.5, 0.25], "theta1 must be a ThetaIBD"),
        ("table", None, "table must be a FrequencyTable"),
        ("B", True, "B must be an integer"),
        ("workers", True, "workers must be an integer"),
        ("null_same_subpop", "no", "null_same_subpop must be a bool"),
        ("keep_genotypes", 0.0, "keep_genotypes must be a bool"),
    ])
    def test_rejects_malformed_field(self, two_subpop_table, field, value, message):
        # unchecked, "MIN" was read as the names M, I, N; a tuple theta failed in the
        # first block, after the pool had started; table=None raised AttributeError;
        # B=True ran one replicate and null_same_subpop="no" drew every null pair
        # from one subpop
        kw = dict(table=two_subpop_table, theta0=kp.UNRELATED, theta1=kp.FULL_SIB, B=1000, seed=7)
        kw[field] = value
        with pytest.raises(kp.errors.InvalidParameter, match=message):
            kp.SimConfig(**kw)

    def test_accepts_numpy_bool_flags(self, two_subpop_table):
        cfg = cfg_for(two_subpop_table, null_same_subpop=np.True_, keep_genotypes=np.False_)
        assert (cfg.null_same_subpop, cfg.keep_genotypes) == (True, False)

    def test_rejects_unknown_cb_weights(self, two_subpop_table):
        with pytest.raises(kp.errors.InvalidParameter, match="bogus"):
            cfg_for(two_subpop_table, cb_weights="bogus")

    def test_parameter_errors_are_kinpower_and_value_errors(self, two_subpop_table):
        with pytest.raises(kp.errors.InvalidParameter) as info:
            cfg_for(two_subpop_table, B=0)
        assert isinstance(info.value, kp.errors.KinpowerError)
        assert isinstance(info.value, ValueError)


class TestCensusCbIsLaf:
    """The LAF row is the census pool, so CB under census is LAF to the bit in
    both phases of simulate and in lr_all. Under auto, on a table whose sample
    sizes weigh its subpops otherwise than its proportions, the columns differ."""

    @pytest.mark.parametrize("cb_weights, same", [("census", True), ("auto", False)])
    def test_cb_is_laf_under_census_only(self, cb_weights, same):
        table = kp.load_frequency_table(TestCompiledRows.LOADED_CSV,
                                        meta=kp.load_table_meta(TestCompiledRows.LOADED_META))
        cfg = cfg_for(table, B=64, cb_weights=cb_weights)
        for phase in kp.simulate(cfg):
            assert (phase.statistics["LAF"].tobytes()
                    == phase.statistics["CB"].tobytes()) is same
        p = kp.Profile(tuple(kp.LocusGenotype(locus, (labels[0], labels[-1]))
                             for locus, labels in zip(table.panel, table.labels)))
        stats = kp.lr_all((p, p), cfg.theta0, cfg.theta1, table, cb_weights=cb_weights).stats
        assert (stats["LAF"] == stats["CB"]) is same


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

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the CPUs the engine sees: os.sched_getaffinity's count where the
        platform has it, os.cpu_count() (None when it cannot tell) otherwise."""
        def set_cpus(affinity, count):
            if affinity is None:
                monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            else:
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)),
                                    raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: count)
        return set_cpus

    @pytest.mark.parametrize("workers, B, expected", [
        (8, 2 * BLOCK + 123, 3),
        (2, 2 * BLOCK + 123, 2),
        (8, BLOCK, None),
        (1, 2 * BLOCK, None),
    ])
    def test_pool_never_larger_than_block_count(self, two_subpop_table, cpus, pool_events,
                                                 workers, B, expected):
        cpus(None, 64)
        cfg = cfg_for(two_subpop_table, B=B, workers=workers)
        got = kp.simulate_null(cfg)
        assert pool_events == ([] if expected is None else [("open", expected)])
        serial = kp.simulate_null(cfg_for(two_subpop_table, B=B, workers=1))
        assert np.array_equal(got.statistics["LAF"], serial.statistics["LAF"])

    @pytest.mark.parametrize("count, expected", [(2, 2), (1, None), (None, None)])
    def test_pool_never_larger_than_cpu_count(self, two_subpop_table, cpus, pool_events,
                                              count, expected):
        # os.cpu_count() gives None when it cannot tell; that counts as one CPU
        cpus(None, count)
        kp.simulate_null(cfg_for(two_subpop_table, B=2 * BLOCK + 123, workers=100_000))
        assert pool_events == ([] if expected is None else [("open", expected)])

    def test_pool_never_larger_than_cpu_affinity(self, two_subpop_table, cpus, pool_events):
        # a process pinned to 2 of 64 CPUs gets a pool of 2
        cpus(2, 64)
        kp.simulate_null(cfg_for(two_subpop_table, B=2 * BLOCK + 123, workers=8))
        assert pool_events == [("open", 2)]

    def test_runs_at_one_size_share_one_pool(self, two_subpop_table, cpus, pool_events):
        cpus(None, 64)
        cfg = cfg_for(two_subpop_table, B=2 * BLOCK + 123, workers=2)
        kp.simulate_null(cfg)
        kp.simulate(cfg)
        kp.simulate_null(cfg_for(two_subpop_table, B=BLOCK, workers=2))  # serial
        kp.simulate_alt(cfg)
        assert pool_events == [("open", 2)]

    def test_another_size_shuts_the_old_pool_first(self, two_subpop_table, cpus, pool_events):
        cpus(None, 64)
        for workers in (2, 3, 3, 2):
            kp.simulate_null(cfg_for(two_subpop_table, B=2 * BLOCK + 123, workers=workers))
        assert pool_events == [("open", 2), ("shut", 2), ("open", 3), ("shut", 3),
                               ("open", 2)]

    def test_pool_of_another_process_is_left_alone(self, two_subpop_table, cpus, pool_events):
        # the fork hook empties a forked child's pool slot: the child opens
        # its own pool and never shuts down its parent's
        cpus(None, 64)
        cfg = cfg_for(two_subpop_table, B=2 * BLOCK + 123, workers=2)
        kp.simulate_null(cfg)
        engine._forget_pool()
        kp.simulate_null(cfg)
        assert pool_events == [("open", 2), ("open", 2)]

    def test_failed_run_shuts_its_pool(self, two_subpop_table, cpus, pool_events, monkeypatch):
        def broken(*args):
            raise ValueError("raised mid-run")

        cpus(None, 64)
        monkeypatch.setattr(engine, "_run_block", broken)
        with pytest.raises(ValueError, match="raised mid-run"):
            kp.simulate_null(cfg_for(two_subpop_table, B=2 * BLOCK + 123, workers=2))
        assert pool_events == [("open", 2), ("shut", 2)]

    def test_threads_never_shut_a_pool_in_use(self, two_subpop_table, cpus, pool_events):
        # runs of two sizes from four threads and dumps from a fifth at once,
        # switching threads as often as the interpreter allows
        cpus(None, 64)
        B = 2 * BLOCK + 123
        serial = kp.simulate_null(cfg_for(two_subpop_table, B=B, workers=1))
        serial_dump = kp.dump_samples(serial)
        same, dumped = [], []

        def runs(workers):
            for _ in range(5):
                got = kp.simulate_null(cfg_for(two_subpop_table, B=B, workers=workers))
                same.append(_same_samples(got, serial))

        def dumps():
            for _ in range(5):
                dumped.append(kp.dump_samples(serial) == serial_dump)

        threads = [threading.Thread(target=runs, args=(2 + i % 2,)) for i in range(4)]
        threads.append(threading.Thread(target=dumps))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert same == [True] * 20
        assert dumped == [True] * 5
        assert {event for event, _ in pool_events} == {"open", "shut"}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_is_both_one_phase_runs(self, two_subpop_table, workers):
        cfg = cfg_for(two_subpop_table, B=2 * BLOCK + 123, workers=workers,
                      keep_genotypes=True)
        for got, want in zip(kp.simulate(cfg), (kp.simulate_null(cfg), kp.simulate_alt(cfg))):
            assert got.subpop_names == want.subpop_names
            assert got.subpop_tags.tobytes() == want.subpop_tags.tobytes()
            assert list(got.statistics) == list(want.statistics) == list(kp.STATISTICS)
            for s in want.statistics:
                assert got.statistics[s].tobytes() == want.statistics[s].tobytes()
            assert list(got.genotypes) == list(want.genotypes)
            for k in want.genotypes:
                assert got.genotypes[k].tobytes() == want.genotypes[k].tobytes()

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


def _same_samples(a, b):
    return (a.subpop_tags.tobytes() == b.subpop_tags.tobytes()
            and all(a.statistics[s].tobytes() == b.statistics[s].tobytes()
                    for s in b.statistics))


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _run_script(script, timeout=120):
    """Run ``script`` in a new interpreter in its own session, and kill its
    whole process group on ``timeout``. Returns its exit code, its stderr,
    the pids it printed and those of them still alive after it ended, which
    are then killed, so that no process it started outlives the test."""
    env = dict(os.environ, PYTHONPATH=str(Path(kp.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-c", textwrap.dedent(script)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    pids = [int(word) for word in out.split()]
    alive = [pid for pid in pids if _alive(pid)]
    for pid in alive:
        os.kill(pid, signal.SIGKILL)
    return proc.returncode, err, pids, alive


class TestWarmPool:
    """The real pool: replaced when broken, never shared with a forked child,
    and gone with the interpreter that opened it."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        # two CPUs, so that a pool opens on a one-CPU host too
        monkeypatch.setattr(engine, "_cpus", lambda: 2)
        engine._close_pool()
        yield
        engine._close_pool()

    @staticmethod
    def broken_warm_pool(table):
        """The serial null run of 2 * BLOCK + 123 replicates, after a 2-worker
        run of the same left a warm pool, and the executor of that pool once
        one of its workers is killed."""
        serial = kp.simulate_null(cfg_for(table, B=2 * BLOCK + 123, workers=1))
        assert _same_samples(kp.simulate_null(cfg_for(table, B=2 * BLOCK + 123, workers=2)),
                             serial)
        pool = engine._POOL.executor
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        deadline = time.monotonic() + 60
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        return serial, pool

    def test_broken_pool_is_replaced(self, two_subpop_table):
        cfg = cfg_for(two_subpop_table, B=2 * BLOCK + 123, workers=2)
        serial, pool = self.broken_warm_pool(two_subpop_table)
        # the CLI maps this error, as any other failure of a run, to exit 3
        with pytest.raises(BrokenProcessPool):
            kp.simulate_null(cfg)
        assert engine._POOL is None
        assert _same_samples(kp.simulate_null(cfg), serial)
        assert engine._POOL.executor is not pool

    def test_dump_on_a_broken_pool_shuts_it(self, two_subpop_table):
        # one dead worker costs the one call that meets it, a dump included
        serial, pool = self.broken_warm_pool(two_subpop_table)
        with pytest.raises(BrokenProcessPool):
            kp.dump_samples(serial)
        assert engine._POOL is None
        cfg = cfg_for(two_subpop_table, B=2 * BLOCK + 123, workers=2)
        assert _same_samples(kp.simulate_null(cfg), serial)
        assert engine._POOL.executor is not pool

    def test_child_forked_mid_run_has_a_free_lock(self):
        # a child forked while another thread runs a pooled simulate inherits
        # the pool lock as that thread held it; it must dump and run its own
        # pool all the same, with the serial run's bits
        code, err, pids, alive = _run_script("""
            import os, sys, threading, time
            import kinpower as kp
            from kinpower import engine

            engine._cpus = lambda: 2
            table = kp.synth_frequency_table(n_subpops=2, n_loci=3, n_alleles=4,
                                             divergence=0.3, seed=1)

            def run(workers, B=2 * kp.BLOCK + 5):
                return kp.simulate_null(kp.SimConfig(
                    table=table, theta0=kp.UNRELATED, theta1=kp.FULL_SIB,
                    B=B, seed=7, workers=workers))

            def same(a, b):
                return (a.subpop_tags.tobytes() == b.subpop_tags.tobytes()
                        and all(a.statistics[s].tobytes() == b.statistics[s].tobytes()
                                for s in b.statistics))

            serial, small = run(1), run(1, B=10)
            # warm the pool first: a fork while the busy thread still imports would
            # hang the child on that import's lock, not on the pool's
            assert same(run(2), serial)
            text = kp.dump_samples(small)
            busy = threading.Thread(target=run, args=(2, 40 * kp.BLOCK))
            busy.start()
            while busy.is_alive() and not engine._POOL_LOCK.locked():
                time.sleep(0.001)
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    code = 0 if kp.dump_samples(small) == text and same(run(2), serial) else 1
                    print(*engine._POOL.executor._processes, flush=True)
                finally:
                    engine._close_pool()
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
            busy.join()
            sys.exit(os.waitstatus_to_exitcode(status))
        """)
        assert code == 0, err
        assert len(pids) == 2 and not alive

    def test_workers_end_with_the_interpreter_and_a_forked_child_opens_its_own(self):
        script = """
            import multiprocessing, os, sys
            import kinpower as kp
            from kinpower import engine

            engine._cpus = lambda: 2
            table = kp.synth_frequency_table(n_subpops=2, n_loci=3, n_alleles=4,
                                             divergence=0.3, seed=1)

            def run(workers):
                return kp.simulate_null(kp.SimConfig(
                    table=table, theta0=kp.UNRELATED, theta1=kp.FULL_SIB,
                    B=2 * kp.BLOCK + 5, seed=7, workers=workers))

            def same(a, b):
                return (a.subpop_tags.tobytes() == b.subpop_tags.tobytes()
                        and all(a.statistics[s].tobytes() == b.statistics[s].tobytes()
                                for s in b.statistics))

            serial = run(1)
            assert same(run(2), serial)
            parents = engine._POOL.executor
            print(*parents._processes, flush=True)

            def child():
                ok = same(run(2), serial) and engine._POOL.executor is not parents
                print(*engine._POOL.executor._processes, flush=True)
                sys.exit(0 if ok else 1)

            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
            proc.join()
            assert same(run(2), serial) and engine._POOL.executor is parents
            sys.exit(proc.exitcode)
        """
        code, err, pids, alive = _run_script(script)
        assert code == 0, err
        assert len(pids) == 4 and not alive


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
        g = drawn_pairs(cfg_for(two_subpop_table, B=2000, theta1=kp.PARENT_CHILD), alt=True)
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

    @staticmethod
    def check_pair_frequencies(table, alt, theta):
        # every unordered genotype pair is drawn at its pair_probability under
        # theta, the unrelated one for null pairs, and no other pair is drawn
        from oracles import all_unordered_pairs, drawn_frequencies
        B = 200_000
        g = drawn_pairs(cfg_for(table, B=B, theta1=theta, statistics=("LAF",)), alt)
        locus, labels = table.panel[0], table.labels[0]
        observed = drawn_frequencies(labels, (g["g1a"], g["g1b"]), (g["g2a"], g["g2b"]))
        f = table.freqs[table.subpops[0].name][locus]
        for p1, p2 in all_unordered_pairs(labels, locus):
            expected = kp.pair_probability(p1, p2, theta, f)
            key = tuple(sorted((p1.alleles, p2.alleles)))
            sigma = math.sqrt(expected * (1 - expected) / B)
            assert abs(observed.pop(key, 0.0) - expected) <= 4 * sigma + 1e-12
        assert not observed

    def test_alt_class_frequencies_match_analytic(self, one_locus_table):
        self.check_pair_frequencies(one_locus_table, True, kp.FULL_SIB)

    @pytest.mark.parametrize("alt, theta, freqs", [
        (True, kp.PARENT_CHILD, [0.15, 0.20, 0.65]),
        (True, kp.UNRELATED, [0.15, 0.20, 0.65]),
        (True, kp.HALF_SIB_PAPER, [0.15, 0.20, 0.65]),
        (False, kp.UNRELATED, [0.15, 0.20, 0.65]),
        (True, kp.FULL_SIB, [1.0]),
    ], ids=["parent-child", "unrelated", "half-sib-paper", "null", "one-allele"])
    def test_pair_frequencies_match_analytic(self, alt, theta, freqs):
        self.check_pair_frequencies(one_locus_table(freqs), alt, theta)


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

    @pytest.fixture
    def warm_pool(self):
        """This process's warm pool, at two workers that have run a task."""
        with engine._pooled(2) as run:
            assert list(run(abs, [(-1,), (-2,)])) == [1, 2]
        return engine._POOL

    @staticmethod
    def sink_peak(table, B):
        """The most memory a dump of a B-replicate null run into a sink that
        keeps nothing takes, by tracemalloc."""
        import tracemalloc

        class Discard:
            def write(self, text):
                return len(text)

        matrix = kp.simulate_null(cfg_for(table, B=B))
        tracemalloc.start()
        try:
            kp.dump_samples(matrix, Discard())
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sink_memory_flat_in_B(self, two_subpop_table):
        """Writing to a sink holds one block of rows, whatever B is."""
        engine._close_pool()
        assert (self.sink_peak(two_subpop_table, 8 * BLOCK)
                <= 1.5 * self.sink_peak(two_subpop_table, 2 * BLOCK))

    def test_sink_memory_flat_in_B_pooled(self, two_subpop_table, warm_pool):
        """With the pool's workers formatting, a few blocks in flight, whatever B is."""
        assert (self.sink_peak(two_subpop_table, 8 * BLOCK)
                <= 1.5 * self.sink_peak(two_subpop_table, 2 * BLOCK))
        assert engine._POOL is warm_pool

    def test_path_sink_rejected(self, two_subpop_table, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        null = kp.simulate_null(cfg_for(two_subpop_table, B=10))
        with pytest.raises(TypeError):
            kp.dump_samples(null, "x.csv")
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def direct_matrix(B):
        """A SampleMatrix built without the engine: float edge values first,
        names that csv must quote and a third name that no tag uses."""
        r = np.random.default_rng(B)
        edges = [math.inf, -math.inf, -0.0, 1e-05, 1e16, 5e-324, 1 / 3]
        values = np.concatenate([edges, r.standard_normal(B) * 10.0 ** r.integers(-300, 300, B)])
        return kp.SampleMatrix(statistics={"LAF": values[:B], "CB": values[:B][::-1].copy()},
                               subpop_tags=r.integers(0, 2, B),
                               subpop_names=("a,b", 'q"x', "unused"))

    @pytest.mark.parametrize("B", [2 * BLOCK + 5, 0], ids=["partial-last-block", "header-only"])
    def test_bytes_match_the_row_by_row_reference(self, B):
        import io
        matrix = self.direct_matrix(B)
        want = reference_dump(matrix)
        buf = io.StringIO()
        assert kp.dump_samples(matrix, buf) is None
        assert buf.getvalue() == want
        assert kp.dump_samples(matrix) == want
        if B:
            assert '\n0,"a,b",inf,' in want or '\n0,"q""x",inf,' in want
            assert "unused" not in want

    @pytest.mark.parametrize("B", [2 * BLOCK + 5, 0], ids=["partial-last-block", "header-only"])
    def test_pooled_bytes_match_the_row_by_row_reference(self, B, warm_pool, monkeypatch):
        # the pool's workers format every block: this process formats no float
        import io
        formatted = []
        monkeypatch.setattr(engine, "_float_cells",
                            lambda values: formatted.append(len(values)) or iter(()))
        matrix = self.direct_matrix(B)
        want = reference_dump(matrix)
        buf = io.StringIO()
        assert kp.dump_samples(matrix, buf) is None
        assert buf.getvalue() == want
        assert kp.dump_samples(matrix) == want
        assert formatted == []
        assert engine._POOL is warm_pool

    def test_at_most_two_blocks_per_worker_in_flight(self, two_subpop_table, monkeypatch):
        # a stand-in pool of three workers that runs each block as it is
        # submitted: a dump's sink, when it gets a block, and a simulate
        # run, whenever it submits one, have at most six submitted and not
        # yet written or read
        import io
        from concurrent.futures import Future
        submitted, seen, unread = [], [], []

        class Done(Future):
            def result(self, timeout=None):
                unread.append(unread[-1] - 1)
                return super().result(timeout)

        class Executor:
            def submit(self, fn, *args):
                submitted.append(args[0])
                unread.append((unread[-1] if unread else 0) + 1)
                future = Done()
                future.set_result(fn(*args))
                return future

        class Sink(io.StringIO):
            def write(self, text):
                seen.append(len(submitted))
                return super().write(text)

        stand_in = engine._Pool(3, Executor(), None)
        monkeypatch.setattr(engine, "_POOL", stand_in)
        matrix = self.direct_matrix(10 * BLOCK + 5)
        sink = Sink()
        assert kp.dump_samples(matrix, sink) is None
        assert sink.getvalue() == reference_dump(matrix)
        assert submitted == list(range(0, matrix.B, BLOCK))
        assert seen[0] == 0   # the header, before any block is submitted
        assert max(n - k for k, n in enumerate(seen[1:])) == 6

        monkeypatch.setattr(engine, "_cpus", lambda: 3)
        submitted.clear()
        unread.clear()
        B = 8 * BLOCK + 5
        got = kp.simulate_null(cfg_for(two_subpop_table, B=B, workers=3))
        assert len(submitted) == 9
        assert max(unread) == 6 and unread[-1] == 0
        assert _same_samples(got, kp.simulate_null(cfg_for(two_subpop_table, B=B, workers=1)))
        assert engine._POOL is stand_in

    def test_dump_opens_no_pool(self):
        engine._close_pool()
        matrix = self.direct_matrix(2 * BLOCK + 5)
        assert kp.dump_samples(matrix) == reference_dump(matrix)
        assert engine._POOL is None

    def test_pool_of_another_process_ignored(self, monkeypatch):
        # a forked child's inherited pool belongs to its parent: the fork
        # hook drops it, so the child formats every block itself and never
        # uses or shuts that pool (its stand-in executor would raise)
        monkeypatch.setattr(engine, "_POOL", engine._Pool(2, None, None))
        engine._forget_pool()
        matrix = self.direct_matrix(2 * BLOCK + 5)
        assert kp.dump_samples(matrix) == reference_dump(matrix)
        assert engine._POOL is None

    @pytest.mark.parametrize("columns, tags, names", [
        ([0.5, 1.5], [0, 1, 0], ("a", "b")),
        ([0.5, 1.5, 2.5, 3.5], [0, 1, 0], ("a", "b")),
        ([0.5, 1.5, 2.5], [0, 5, 0], ("a", "b")),
        ([0.5, 1.5, 2.5], [0, -1, 0], ("a", "b")),
        ([0.5, 1.5, 2.5], [0, 1, 0], ("a", " b")),
    ], ids=["short-column", "long-column", "tag-past-names", "negative-tag", "bad-name"])
    def test_bad_matrix_refused_before_the_first_write(self, columns, tags, names):
        import io
        matrix = kp.SampleMatrix(statistics={"LAF": np.array(columns)},
                                 subpop_tags=np.array(tags), subpop_names=names)
        buf = io.StringIO()
        with pytest.raises(kp.errors.InvalidParameter):
            kp.dump_samples(matrix, buf)
        assert buf.getvalue() == ""


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


def large_support_table():
    """A 400-allele locus (80200 genotypes) between two 3-allele loci."""
    big = kp.synth_frequency_table(n_subpops=2, n_loci=1, n_alleles=400,
                                   divergence=0.3, seed=5)
    small = kp.synth_frequency_table(n_subpops=2, n_loci=2, n_alleles=3,
                                     divergence=0.3, seed=6)
    names = [s.name for s in big.subpops]
    freqs = {name: {**{"BIG": big.freqs[name][big.panel[0]]},
                    **{locus: small.freqs[name][locus] for locus in small.panel}}
             for name in names}
    return kp.FrequencyTable(panel=(small.panel[0], "BIG", small.panel[1]),
                             subpops=big.subpops, freqs=freqs)


def assert_kernel_matches_loop(table, seed):
    """_loglik_arrays against the per-locus loop, byte for byte, on null and
    alt draws under every KERNEL_THETAS entry, at n = 1, 17 and BLOCK + 123,
    and the seven statistics _derive_block makes of each. Each draw is
    evaluated with theta0 unrelated and with theta0 full-sib, whose nonzero
    z1 and z2 weigh the theta0 row's P1 and P2 terms too."""
    full, logp = _compile(table, "auto"), np.log(table.proportions)
    B = BLOCK + 123
    draws = [("null", kp.UNRELATED, False)] + [
        ("alt", theta, True) for theta in KERNEL_THETAS.values()]
    for phase, drawn_under, alt in draws:
        g = drawn_pairs(cfg_for(table, B=B, seed=seed, theta1=drawn_under,
                                statistics=("LAF",)), alt)
        for theta0, (name, theta1), n in itertools.product(
                (kp.UNRELATED, kp.FULL_SIB), KERNEL_THETAS.items(), (1, 17, B)):
            args = (full, table.offsets[:-1], *(g[k][:n] for k in ("g1a", "g1b", "g2a", "g2b")),
                    theta0, theta1)
            got, want = _loglik_arrays(*args), reference_loglik_arrays(*args)
            for x, y in zip(got, want):
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), \
                    (phase, drawn_under, theta0, name, n)
            got, want = (_derive_block(*ll, logp) for ll in (got, want))
            for s in kp.STATISTICS:
                assert got[s].tobytes() == want[s].tobytes(), \
                    (phase, drawn_under, theta0, name, n, s)


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
        full = _compile(synth_table, "auto")
        g = drawn_pairs(cfg_for(synth_table, B=500), alt=False)
        args = (full, synth_table.offsets[:-1], g["g1a"], g["g1b"], g["g2a"], g["g2b"],
                kp.UNRELATED, kp.PARENT_CHILD)
        ll0, ll1 = _loglik_arrays(*args)
        assert np.isfinite(ll0).all() and np.isneginf(ll1).any()
        assert ll1.tobytes() == reference_loglik_arrays(*args)[1].tobytes()

    def test_large_support_locus(self):
        table = large_support_table()
        assert _compile(table, "auto").shape[1] == 400 + 2 * 3
        assert_kernel_matches_loop(table, seed=400)

    def test_max_columns_is_the_largest_whose_keys_fit_int64(self):
        assert _MAX_COLUMNS ** 4 <= np.iinfo(np.int64).max < (_MAX_COLUMNS + 1) ** 4

    def test_genotype_keys_that_would_overflow_are_refused(self):
        # 78000 alleles at one locus: more than _MAX_COLUMNS columns, whose
        # four-digit cell keys pass int64
        n = 78_000
        table = kp.FrequencyTable(panel=("L",), subpops=(kp.Subpopulation("pop", 1.0),),
                                  freqs={"pop": {"L": {str(a): 1.0 / n for a in range(n)}}})
        with pytest.raises(kp.errors.InvalidParameter, match="int64"):
            _compile(table, "auto")


def assert_sampler_matches_loop(table, seed):
    """The engine's guide-table draws against the per-locus categorical loop,
    byte for byte: null with mixed subpops and with null_same_subpop, alt
    under every KERNEL_THETAS entry, each at n = 1, 17 and BLOCK + 123."""
    sampler = _sampler(table)
    runs = [(False, kp.FULL_SIB, same) for same in (False, True)] + [
        (True, theta, False) for theta in KERNEL_THETAS.values()]
    for (alt, theta1, same), n in itertools.product(runs, (1, 17, BLOCK + 123)):
        cfg = cfg_for(table, B=n, seed=seed, theta1=theta1, null_same_subpop=same)
        blocks = [reference_block_genotypes(cfg, alt, block, min(BLOCK, n - lo))
                  for block, lo in enumerate(range(0, n, BLOCK))]
        got, want = _draws(sampler, cfg, alt), map(np.concatenate, zip(*blocks))
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y), (alt, theta1, same, n)


class TestSamplerOracle:
    """The guide-table sampler gives the per-locus categorical loop's draws
    exactly, and simulate_* returns those draws."""

    @pytest.mark.parametrize("n_alleles", [2, 3, 10, 25])
    @pytest.mark.parametrize("n_subpops", [1, 4, 9, 17])
    def test_synth_tables(self, n_subpops, n_alleles):
        table = kp.synth_frequency_table(
            n_subpops=n_subpops, n_loci=3, n_alleles=n_alleles, divergence=0.3,
            seed=7 * n_subpops + n_alleles,
            proportions=rng(n_subpops).dirichlet(np.ones(n_subpops)).tolist())
        assert_sampler_matches_loop(table, seed=n_subpops + n_alleles)

    def test_large_support_locus(self):
        assert_sampler_matches_loop(large_support_table(), seed=400)

    def test_floored_alleles_packed_into_buckets(self):
        # strong divergence floors many of 60 alleles at 1e-7, so several CDF
        # entries share a bucket
        table = kp.synth_frequency_table(n_subpops=4, n_loci=3, n_alleles=60,
                                         divergence=5.0, seed=3, floor=1e-7)
        assert (table.matrix < 2e-7).sum() > 60
        assert_sampler_matches_loop(table, seed=60)
        # its first null block draws from split buckets at several loci and
        # subpops, so the loop checks where _alleles maps each flat split hit
        sampler, m = _sampler(table), table.n_loci
        u = _block_rng(60, 0, 0).random((BLOCK, 2 + 4 * m))
        k = categorical(sampler.prop_cdf, u[:, :2].ravel()).reshape(-1, 2)  # k1, k2 per pair
        cols = np.arange(4 * m)   # uniform j of locus ell is column 4 * ell + j after the head
        subpop = k[:, cols % 4 // 2]
        locus = np.broadcast_to(cols // 4, subpop.shape)
        split = sampler.guide[(subpop * m + locus) * GUIDE + (u[:, 2:] * GUIDE).astype(np.intp)] < 0
        assert len(set(locus[split].tolist())) >= 2 and len(set(subpop[split].tolist())) >= 2

    @pytest.mark.parametrize("simulate,alt", [(kp.simulate_null, False),
                                              (kp.simulate_alt, True)])
    def test_simulate_returns_the_loop_draws(self, synth_table, simulate, alt):
        cfg = cfg_for(synth_table, B=BLOCK + 123, theta1=kp.PARENT_CHILD,
                      statistics=("LAF",), keep_genotypes=True)
        m = simulate(cfg)
        blocks = [reference_block_genotypes(cfg, alt, 0, BLOCK),
                  reference_block_genotypes(cfg, alt, 1, 123)]
        assert np.array_equal(m.subpop_tags, np.concatenate([b[0] for b in blocks]))
        for i, key in enumerate(("g1a", "g1b", "g2a", "g2b"), start=1):
            assert np.array_equal(m.genotypes[key], np.concatenate([b[i] for b in blocks]))


def one_locus_table(freqs):
    labels = [f"a{i:03d}" for i in range(len(freqs))]
    return kp.FrequencyTable(panel=("L",), subpops=(kp.Subpopulation("pop", 1.0),),
                             freqs={"pop": {"L": dict(zip(labels, freqs))}})


class TestGuideTable:
    """The guide lookup against ibd.categorical on hand-built CDFs, at every
    bucket edge, at each CDF entry and its float neighbours, at 0 and at the
    largest uniform below 1."""

    CASES = {
        "entries on bucket edges": [0.25, 0.25, 0.5],
        "entries packed into one bucket": [0.5, 0.5 - 5e-7] + [1e-7] * 5,
        "last entry below 1": [0.1] * 10,
        "entry above 1 before the last": [0.6, 0.4000004, 1e-7],
    }

    @pytest.mark.parametrize("freqs", list(CASES.values()), ids=list(CASES))
    def test_lookup_is_categorical(self, freqs):
        table = one_locus_table(freqs)
        cdf = np.cumsum(table.matrix[0])
        u = np.concatenate([np.arange(GUIDE) / GUIDE, cdf, np.nextafter(cdf, 0),
                            np.nextafter(cdf, 1), [0.0, 1.0 - 2.0 ** -53]])
        u = u[u < 1.0]
        want = categorical(cdf, u)
        sampler = _sampler(table)
        guide = sampler.guide[(u * GUIDE).astype(np.intp)]
        assert np.all((guide == want) | (guide == -1))
        got = _alleles(sampler, np.zeros((u.size, 1), dtype=np.intp), u[:, None])
        assert np.array_equal(got[:, 0], want)
        # split exactly where an entry lies strictly inside a bucket; the
        # last entry never splits one, since draws at or above it are capped
        split = {int(c * GUIDE) for c in cdf[:-1] if c < 1.0 and c * GUIDE != int(c * GUIDE)}
        assert set(np.flatnonzero(sampler.guide < 0).tolist()) == split

    def test_cases_reach_their_edge(self):
        on_edges, packed, below_one, above_one = (np.cumsum(one_locus_table(f).matrix[0])
                                                  for f in self.CASES.values())
        assert np.array_equal(on_edges * GUIDE, [1024, 2048, 4096])
        assert len({int(c * GUIDE) for c in packed[1:-1]}) == 1
        assert below_one[-1] < 1.0
        assert categorical(below_one, np.array([below_one[-1]]))[0] == 9
        assert 1.0 < above_one[1] < 1.0 + 1.0 / GUIDE


class TestKernelCallShape:
    """At one worker, a run of more than one block a phase evaluates each of
    its distinct (locus, genotype 1, genotype 2) cells once, through the
    process's memo, so a second identical run evaluates none; a one-block
    run and lr_all make one call over their own distinct cells. The calls go
    through the name kinpower.engine.pair_components, which profilers wrap."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def recorder(g1a, g1b, g2a, g2b, f):
            seen.append(len(g1a))
            return pair_components(g1a, g1b, g2a, g2b, f)

        monkeypatch.setattr(engine, "pair_components", recorder)
        engine._memo_rows.cache_clear()
        return seen

    @staticmethod
    def distinct_cells(table, m):
        g = m.genotypes
        locus = np.broadcast_to(np.arange(table.n_loci), g["g1a"].shape)
        cells = np.stack([locus] + [g[k] for k in ("g1a", "g1b", "g2a", "g2b")], axis=-1)
        return len(np.unique(cells.reshape(-1, 5), axis=0))

    @pytest.mark.parametrize("simulate", [kp.simulate_null, kp.simulate_alt])
    def test_each_cell_once_per_run(self, synth_table, calls, simulate):
        cfg = cfg_for(synth_table, B=2 * BLOCK + 123, theta1=kp.PARENT_CHILD,
                      statistics=("LAF",), keep_genotypes=True)
        m = simulate(cfg)
        assert 1 < len(calls) <= 3
        assert sum(calls) == self.distinct_cells(synth_table, m)
        assert sum(calls) < BLOCK * synth_table.n_loci
        del calls[:]
        assert _same_samples(simulate(cfg), m)
        assert calls == []

    def test_one_call_per_one_block_run(self, synth_table, calls):
        cfg = cfg_for(synth_table, B=BLOCK, theta1=kp.PARENT_CHILD, statistics=("LAF",),
                      keep_genotypes=True)
        for _ in range(2):
            m = kp.simulate_null(cfg)
            assert calls == [self.distinct_cells(synth_table, m)]
            del calls[:]
        assert engine._memo_rows.cache_info().currsize == 0

    def test_one_call_per_lr_all(self, synth_table, calls):
        p1 = kp.Profile(tuple(kp.LocusGenotype(locus, synth_table.alleles(locus)[:2])
                              for locus in synth_table.panel))
        kp.lr_all((p1, p1), kp.UNRELATED, kp.PARENT_CHILD, synth_table)
        assert calls == [synth_table.n_loci]


class TestKernelMemo:
    """The per-process memo of cell rows never serves one kernel's rows to
    another, a panel over its cap takes the per-call path, and the calls
    that take that path leave a warm entry in place."""

    B = 2 * BLOCK + 123

    @pytest.fixture
    def tables(self):
        return [kp.synth_frequency_table(n_subpops=3, n_loci=4, n_alleles=6, divergence=0.3,
                                         seed=seed, sample_sizes=[50, 80, 120])
                for seed in (1, 2)]

    def configs(self, tables, workers):
        """Runs that differ from the first in one part of the memo's key
        each: the table (same shape), theta1 and the CB row's scheme."""
        base = dict(table=tables[0], theta1=kp.FULL_SIB, cb_weights="samples")
        changes = [{}, {"table": tables[1]}, {"theta1": kp.PARENT_CHILD},
                   {"cb_weights": "equal"}]
        return [cfg_for(B=self.B, workers=workers, **{**base, **change})
                for change in changes]

    @staticmethod
    def fresh(cfg):
        engine._memo_rows.cache_clear()
        return kp.simulate(cfg)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_alternating_runs_read_no_stale_rows(self, tables, monkeypatch, workers):
        monkeypatch.setattr(engine, "_cpus", lambda: 2)
        want = [self.fresh(cfg) for cfg in self.configs(tables, 1)]
        configs = self.configs(tables, workers)
        try:
            for i in (0, 1, 0, 2, 0, 3, 1, 2, 3, 0):
                got = kp.simulate(configs[i])
                assert all(_same_samples(g, w) for g, w in zip(got, want[i])), i
        finally:
            engine._close_pool()

    def test_large_support_table_runs_over_the_cap(self):
        table = large_support_table()
        engine._memo_rows.cache_clear()
        cfg = cfg_for(table, B=self.B, statistics=kp.STATISTICS, keep_genotypes=True)
        logp = np.log(table.proportions)
        for m in kp.simulate(cfg):
            g = m.genotypes
            args = (_compile(table, "auto"), table.offsets[:-1],
                    *(g[k] for k in ("g1a", "g1b", "g2a", "g2b")), cfg.theta0, cfg.theta1)
            want = reference_loglik_arrays(*args)
            got = _loglik_arrays(*args, memo=True)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
            stats = _derive_block(*want, logp)
            for s in kp.STATISTICS:
                assert m.statistics[s].tobytes() == stats[s].tobytes(), s
        assert engine._memo_rows.cache_info().currsize == 0

    @pytest.mark.parametrize("over", [False, True])
    def test_either_side_of_the_cap(self, synth_table, monkeypatch, over):
        full = _compile(synth_table, "auto")
        layout = engine._layout(full.shape[1], synth_table.offsets[:-1])
        monkeypatch.setattr(engine, "_MEMO_BYTES", layout.codes * 2 * len(full) * 8 - over)
        engine._memo_rows.cache_clear()
        g = drawn_pairs(cfg_for(synth_table, B=BLOCK + 123), alt=False)
        args = (full, synth_table.offsets[:-1], *(g[k] for k in ("g1a", "g1b", "g2a", "g2b")),
                kp.UNRELATED, kp.FULL_SIB)
        got, want = _loglik_arrays(*args, memo=True), reference_loglik_arrays(*args)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
        assert engine._memo_rows.cache_info().currsize == (not over)

    def test_a_warm_entry_survives_the_paths_that_must_not_touch_it(self, tables,
                                                                     monkeypatch):
        # a one-block run and lr_all on another table, and an over-cap run,
        # take the per-call path and neither read nor replace the entry
        calls = []

        def recorder(*args):
            calls.append(len(args[0]))
            return pair_components(*args)

        monkeypatch.setattr(engine, "pair_components", recorder)
        a, b = tables
        cfg = cfg_for(a, B=self.B)
        want = self.fresh(cfg)
        kp.simulate(cfg_for(b, B=BLOCK))
        p1 = kp.Profile(tuple(kp.LocusGenotype(locus, b.alleles(locus)[:2]) for locus in b.panel))
        kp.lr_all((p1, p1), kp.UNRELATED, kp.FULL_SIB, b)
        full = _compile(a, "auto")
        size = engine._layout(full.shape[1], a.offsets[:-1]).codes * 2 * len(full) * 8
        with monkeypatch.context() as capped:
            capped.setattr(engine, "_MEMO_BYTES", size - 1)
            over = kp.simulate(cfg)
        assert all(_same_samples(g, w) for g, w in zip(over, want))
        del calls[:]
        assert all(_same_samples(g, w) for g, w in zip(kp.simulate(cfg), want))
        assert calls == []

    def test_threads_on_two_tables_get_their_serial_bytes(self, tables):
        serial = [self.fresh(cfg_for(t, B=self.B))[0] for t in tables]
        same = []

        def runs(i):
            for _ in range(3):
                same.append(_same_samples(kp.simulate_null(cfg_for(tables[i], B=self.B)),
                                          serial[i]))

        threads = [threading.Thread(target=runs, args=(i % 2,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert same == [True] * 12
