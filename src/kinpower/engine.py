"""Reproducible, parallel Monte Carlo generation of null/alt log-LR samples.

Replicates are processed in fixed-size blocks of ``BLOCK`` regardless of
the worker count. Block ``b`` of a run draws from a dedicated Philox
stream seeded by ``SeedSequence(seed, spawn_key=(phase, b))``, and every
replicate consumes a fixed number of uniforms at a fixed offset within
its block. A replicate's value is therefore a pure function of
``(seed, replicate_index)``, and the assembled SampleMatrix is
bit-identical for any number of workers.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import multiprocessing.util
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, TextIO

import numpy as np

from .errors import InvalidParameter
from .ibd import ThetaIBD, categorical, pair_components, related_from_uniforms
from .tables import (FrequencyTable, _check_counts, _float_cells, _pool, _quoted_cell,
                     _write_blocks)

BLOCK = 8192
# buckets of each guide table; a power of two, so that u * GUIDE and its floor
# are exact and a bucket's edges b / GUIDE are exact too
GUIDE = 4096
STATISTICS = ("LAF", "AVG", "MAX", "MIN", "RMAX", "RMIN", "CB")


def _check_inputs(table, theta0, theta1) -> None:
    """The type rule of a run's and of one pair's inputs (SimConfig,
    lrstats.lr_all): InvalidParameter naming the first that is not a
    FrequencyTable or a ThetaIBD."""
    for name, value, kind in (("table", table, FrequencyTable), ("theta0", theta0, ThetaIBD),
                              ("theta1", theta1, ThetaIBD)):
        if not isinstance(value, kind):
            raise InvalidParameter(f"{name} must be a {kind.__name__}")


@dataclass(frozen=True)
class SimConfig:
    table: FrequencyTable
    theta0: ThetaIBD
    theta1: ThetaIBD
    B: int
    seed: int
    statistics: tuple[str, ...] = STATISTICS
    workers: int = 1
    cb_weights: str = "auto"
    null_same_subpop: bool = False
    keep_genotypes: bool = False

    def __post_init__(self):
        _check_counts(B=(self.B, 1), seed=(self.seed, 0), workers=(self.workers, 1))
        _check_inputs(self.table, self.theta0, self.theta1)
        for name in ("null_same_subpop", "keep_genotypes"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):  # else "no" reads as True
                raise InvalidParameter(f"{name} must be a bool, got {getattr(self, name)!r}")
        if isinstance(self.statistics, str):  # else "MIN" reads as the names M, I, N
            raise InvalidParameter("statistics must be a sequence of names, not one string")
        if not self.statistics:
            raise InvalidParameter("at least one statistic must be requested")
        if len(set(self.statistics)) != len(self.statistics):
            raise InvalidParameter(f"statistics requested more than once: {list(self.statistics)}")
        unknown = set(self.statistics) - set(STATISTICS)
        if unknown:
            raise InvalidParameter(f"unknown statistics {sorted(unknown)}")
        _compile(self.table, self.cb_weights)  # a bad scheme fails before any run


@dataclass
class SampleMatrix:
    """Per-statistic log-LR arrays, per-replicate subpopulation tags and, under
    ``SimConfig.keep_genotypes``, the int64 allele indices redrawn by ``_draws``."""

    statistics: dict[str, np.ndarray]
    subpop_tags: np.ndarray
    subpop_names: tuple[str, ...]
    genotypes: Optional[dict[str, np.ndarray]] = field(default=None)

    @property
    def B(self) -> int:
        return len(self.subpop_tags)


class _Sampler(NamedTuple):
    """Sampling tables of a FrequencyTable, built only by the simulation path.

    ``cdf[k, ell]`` is subpop k's CDF row at locus ell with its last allele's
    entry and the padding past it set to +inf. ``categorical`` on that row
    gives what it gives on the plain row: a uniform at or above the last
    entry counts every earlier entry and is capped at A - 1 either way.
    ``guide`` caches those draws over GUIDE equal buckets of [0, 1): entry
    ``(k * loci + ell) * GUIDE + b`` is the draw of every u in
    [b / GUIDE, (b + 1) / GUIDE), or -1 when a CDF entry lies strictly
    inside that bucket, so that the draw depends on where u falls in it.
    Its dtype is the narrowest signed one that holds those values (int8 for
    up to 127 alleles), so a pickled sampler and the draws stay small.
    """

    prop_cdf: np.ndarray          # (K,)
    cdf: np.ndarray               # (K, loci, max A) padded per-subpop sampling CDFs
    guide: np.ndarray             # (K * loci * GUIDE,) draw per bucket, -1 if split


# Largest column count S whose cell codes surely fit int64: a locus of A
# alleles has G = A(A+1)/2 genotypes and G^2 ordered genotype pairs, and over
# the loci sum G^2 <= (S(S+1)/2)^2 < S^4.
_MAX_COLUMNS = math.isqrt(math.isqrt(np.iinfo(np.int64).max))
# Largest per-process memo of cell rows (see _loglik_arrays), in bytes.
_MEMO_BYTES = 64 << 20


def _compile(table: FrequencyTable, cb_weights: str) -> np.ndarray:
    """The kernel's read-only (K+2, sum of A) frequency sets: the table's K
    subpop rows, the local-average row (K) and the ``cb_weights`` pooled row
    (K+1), with the loci side by side as in ``FrequencyTable.matrix``. Built
    once per table and scheme, and kept in the table's ``memo``."""
    full = table.memo.get(("compile", cb_weights))
    if full is None:
        if table.offsets[-1] > _MAX_COLUMNS:
            raise InvalidParameter(
                f"table has {table.offsets[-1]} alleles over its loci; at most {_MAX_COLUMNS} "
                "fit the kernel's int64 cell codes")
        full = np.vstack([table.matrix, _pool(table, "census"), _pool(table, cb_weights)])
        full.setflags(write=False)
        table.memo[("compile", cb_weights)] = full
    return full


class _Layout(NamedTuple):
    """Where the cell codes of a (K+2, S) ``full`` with loci starting at
    ``offsets`` lie: locus ell's genotype g1 = (a1, b1), a1 <= b1, and g2 give
    code ``goff[ell] + c1 * G[ell] + c2``, with c = b(b+1)/2 + a the index of
    a genotype among the G = A(A+1)/2 of its locus."""

    offsets: np.ndarray   # (loci,) int64 first column of each locus
    goff: np.ndarray      # (loci,) int64 first code of each locus
    G: np.ndarray         # (loci,) int64 genotypes at each locus
    codes: int            # sum of G^2, the number of codes


@functools.lru_cache(maxsize=16)
def _layout(columns: int, offsets: tuple[int, ...]) -> _Layout:
    offs = np.array(offsets, dtype=np.int64)
    A = np.diff(offs, append=columns)
    G = A * (A + 1) // 2
    goff = np.concatenate(([0], np.cumsum(G * G)))
    for shared in (offs, G, goff):  # every caller gets these very arrays
        shared.setflags(write=False)
    return _Layout(offs, goff[:-1], G, int(goff[-1]))


def _sampler(table: FrequencyTable) -> _Sampler:
    K, m = table.n_subpops, table.n_loci
    cdf = np.full((K, m, max(map(len, table.labels))), np.inf)
    for ell, (lo, hi) in enumerate(zip(table.offsets, table.offsets[1:])):
        cdf[:, ell, :hi - lo - 1] = np.cumsum(table.matrix[:, lo:hi], axis=1)[:, :-1]

    # The draw of u is the count of CDF entries at or below it. The entries
    # at or below a bucket's lower edge b / GUIDE are those with
    # ceil(entry * GUIDE) <= b, so with these edges nondecreasing along a
    # row, draw c fills buckets edge[c - 1] to edge[c] - 1 (edge[-1] = 0).
    # An entry with entry * GUIDE non-integer and below GUIDE lies strictly
    # inside bucket floor(entry * GUIDE), whose draw then depends on u.
    scaled = (cdf * GUIDE).reshape(K * m, -1)
    edge = np.minimum(np.ceil(scaled), GUIDE).astype(np.intp)
    amax = scaled.shape[1]
    dtype = np.min_scalar_type(-amax - 1)  # holds -1 and every count, 0 to amax
    guide = np.repeat(np.tile(np.arange(amax + 1, dtype=dtype), K * m),
                      np.diff(edge, axis=1, prepend=0, append=GUIDE).ravel())
    inside = np.floor(scaled)
    r, c = np.nonzero((scaled != inside) & (inside < GUIDE))
    guide[r * GUIDE + inside[r, c].astype(np.intp)] = -1
    return _Sampler(prop_cdf=np.cumsum(table.proportions), cdf=cdf, guide=guide)


def _alleles(sampler: _Sampler, base: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Allele indices of the (n, loci) uniforms u, row i drawn in the subpop
    whose guide rows start at ``base[i]``: ``categorical`` of each uniform on
    its CDF row, read from the guide but where one flat scan finds a split."""
    idx = (u * GUIDE).astype(np.intp)
    idx += base
    a = sampler.guide.take(idx)
    i, ell = np.divmod(np.flatnonzero(a < 0), u.shape[1])
    cdf = sampler.cdf.reshape(-1, sampler.cdf.shape[2])  # row k * loci + ell
    a[i, ell] = categorical(cdf[base[i, ell] // GUIDE], u[i, ell])
    return a


def _genotype(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int64 index b(b+1)/2 + a of each genotype (a <= b) among its locus's."""
    c = b.astype(np.int64)
    c *= c + 1
    c //= 2
    c += a
    return c


@functools.lru_cache(maxsize=1)
def _memo_rows(key: tuple, codes: int, sets: int):
    """The (codes, 2, sets) rows and the filled mask of this process's one
    memo entry, keyed by compiled rows, offsets and thetas (_loglik_arrays).
    A call with another key replaces the entry by a new, empty one. Threads
    need no lock: a call keeps the entry it got even when another replaces
    it, and two calls on one entry write the same bytes to a row."""
    return np.empty((codes, 2, sets)), np.zeros(codes, dtype=bool)


def _loglik_arrays(full, offsets, g1a, g1b, g2a, g2b, theta0, theta1, memo=False):
    """Per-replicate log-likelihoods, shape (n, K+2), under both thetas.

    ``full`` is ``_compile``'s (K+2, S) array and locus i's alleles start at
    its column ``offsets[i]``. The (n, loci) allele-index arrays give
    n * loci cells, each an ordered genotype pair at one locus, keyed by its
    code (``_Layout``). A cell's row holds its (2, K+2) log-probabilities:
    one pair_components call evaluates cells over all K+2 frequency sets,
    the rows of ``full``, on the columns read at each code's first
    occurrence, and both thetas weigh those components at once, stacked on
    a leading axis. Each replicate then adds the rows of its cells locus by
    locus in panel order, so every cell and every sum is what a per-locus
    evaluation would give, to the last bit.

    Without ``memo``, or when the memo would pass ``_MEMO_BYTES``, the rows
    are those of the call's distinct codes, found by one ``np.unique`` (a
    one-replicate call's codes are already distinct and in order). With
    it, they are this process's memo: one row per code, each evaluated the
    first time a call meets it, and kept for every later call with the same
    ``full``, offsets and thetas. A call then evaluates only the distinct
    codes that are not yet filled in, and makes no pair_components call when
    none is. A row is written before it is marked filled, so a concurrent
    call never reads a row that is marked but unwritten.
    """
    n, m = g1a.shape
    offsets = tuple(offsets)
    layout = _layout(full.shape[1], offsets)
    codes = _genotype(g1a, g1b)
    codes *= layout.G
    codes += layout.goff
    codes += _genotype(g2a, g2b)
    codes = codes.ravel()   # cell i * loci + ell is replicate i at locus ell
    z = np.array([theta0.as_tuple(), theta1.as_tuple()])[:, :, None, None]

    def evaluate(first):
        """(cells, 2, K+2) rows of the cells at flat positions ``first``."""
        base = layout.offsets.take(first % m)
        p0, p1, p2, mult = pair_components(*(g.ravel().take(first) + base
                                             for g in (g1a, g1b, g2a, g2b)), full)
        with np.errstate(divide="ignore"):
            v = np.log(mult * (z[:, 0] * p0 + z[:, 1] * p1 + z[:, 2] * p2))  # (2, K+2, cells)
        return np.moveaxis(v, 2, 0)

    if memo and layout.codes * 2 * len(full) * 8 <= _MEMO_BYTES:
        key = (full.shape, full.tobytes(), offsets, theta0, theta1)
        rows, filled = _memo_rows(key, layout.codes, len(full))
        todo = np.flatnonzero(~filled.take(codes))
        new, first = np.unique(codes.take(todo), return_index=True)
        if new.size:
            rows[new] = evaluate(todo.take(first))
            filled[new] = True
        index = codes
    else:
        if n == 1:
            # one row's codes are distinct and ascending, locus ell's lying in
            # [goff[ell], goff[ell + 1]), so np.unique would find them in place
            first = index = np.arange(m)
        else:
            _, first, index = np.unique(codes, return_index=True, return_inverse=True)
        rows = np.ascontiguousarray(evaluate(first))
    index = np.ascontiguousarray(index.reshape(n, m).T)   # locus-major

    # one contiguous (2, K+2) row per code, gathered per locus in panel order
    ll = np.zeros((n, 2, len(full)))
    for ell in range(m):
        ll += rows.take(index[ell], axis=0)
    # (n, K+2) views with contiguous columns: the statistics reduce over the
    # K+2 axis, about 5 times slower when that is the short contiguous one
    ll = np.ascontiguousarray(ll.transpose(1, 2, 0))
    return ll[0].T, ll[1].T


def _diff(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Log-ratio num - den under the package's one infinity rule.

    A -inf numerator gives -inf (the pair is impossible under the
    alternative); a finite numerator over a -inf denominator gives +inf;
    both -inf gives -inf.
    """
    with np.errstate(invalid="ignore"):
        out = num - den
    out[np.isnan(out)] = -np.inf
    return out


def _logsumexp_rows(x: np.ndarray) -> np.ndarray:
    m = np.max(x, axis=1)
    out = m.copy()
    finite = np.isfinite(m)
    xf = x[finite] - m[finite, None]
    out[finite] = m[finite] + np.log(np.exp(xf).sum(axis=1))
    return out


def _derive_block(ll0, ll1, logp):
    """The seven statistics, keyed in STATISTICS order, of (n, K+2)
    log-likelihoods under theta0 and theta1 with K log proportions ``logp``.

    LAF and CB are the local-average and pooled columns of the one log-LR
    array ``_diff(ll1, ll0)``, and AVG, MAX and MIN reduce its K subpop
    columns. RMAX and RMIN apply the same infinity rule to the extreme
    subpop log-likelihoods under each theta.
    """
    K = len(logp)
    llr = _diff(ll1, ll0)
    sub = llr[:, :K]
    return {
        "LAF": llr[:, K],
        "AVG": _logsumexp_rows(sub + logp),
        "MAX": sub.max(axis=1),
        "MIN": sub.min(axis=1),
        "RMAX": _diff(ll1[:, :K].max(axis=1), ll0[:, :K].max(axis=1)),
        "RMIN": _diff(ll1[:, :K].min(axis=1), ll0[:, :K].min(axis=1)),
        "CB": llr[:, K + 1],
    }


def _block_rng(seed: int, phase: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(phase, block))
    return np.random.Generator(np.random.Philox(ss))


def _ordered(x: np.ndarray, y: np.ndarray):
    """Two draws as a canonically ordered allele pair (a <= b)."""
    return np.minimum(x, y), np.maximum(x, y)


def _draw_block(sampler: _Sampler, cfg: SimConfig, alt: bool, block: int):
    """Subpop tags of individual 1 and the (n, loci) allele-index arrays
    (g1a, g1b, g2a, g2b), in the guide's narrow dtype, of the block's n pairs.

    Pair i reads row i of one (n, head + width * loci) uniform matrix: the
    subpop of individual 1, that of individual 2 (null only), then per locus
    two uniforms for individual 1 and two (null, HWE in its own subpop) or
    three (alt, related under theta1) for individual 2. Each of those
    columns is drawn for every locus at once.
    """
    n, m = min(BLOCK, cfg.B - block * BLOCK), cfg.table.n_loci
    head, width = (1, 5) if alt else (2, 4)
    u = _block_rng(cfg.seed, 1 if alt else 0, block).random((n, head + width * m))
    k1 = categorical(sampler.prop_cdf, u[:, 0])
    k2 = k1 if alt or cfg.null_same_subpop else categorical(sampler.prop_cdf, u[:, 1])
    # uj[j][:, ell] is uniform j of locus ell, for every pair
    uj = np.moveaxis(u[:, head:].reshape(n, m, width), 2, 0)
    # (n, loci) first guide entry of each pair's subpop at each locus
    base = (k1[:, None] * m + np.arange(m)) * GUIDE

    g1a, g1b = _ordered(_alleles(sampler, base, uj[0]), _alleles(sampler, base, uj[1]))
    if alt:
        g2a, g2b = related_from_uniforms(g1a, g1b, cfg.theta1, uj[2], uj[3],
                                         _alleles(sampler, base, uj[3]),
                                         _alleles(sampler, base, uj[4]))
    else:  # k2's base replaces k1's: both kept alive made each warm null block page-fault
        base = base if k2 is k1 else (k2[:, None] * m + np.arange(m)) * GUIDE
        g2a, g2b = _ordered(_alleles(sampler, base, uj[2]), _alleles(sampler, base, uj[3]))
    return k1, g1a, g1b, g2a, g2b


def _draws(sampler: _Sampler, cfg: SimConfig, alt: bool):
    """``_draw_block``'s (k1, g1a, g1b, g2a, g2b) over every block of one
    phase, concatenated and widened to the int64 of SampleMatrix.genotypes."""
    blocks = [_draw_block(sampler, cfg, alt, b) for b in range((cfg.B + BLOCK - 1) // BLOCK)]
    return tuple(np.concatenate(column).astype(np.int64) for column in zip(*blocks))


def _run_block(full: np.ndarray, sampler: _Sampler, cfg: SimConfig, alt: bool, block: int):
    """Subpop tags and requested statistics of one block's pairs. A run of
    more than one block a phase evaluates its cells through the memo."""
    k1, *g = _draw_block(sampler, cfg, alt, block)
    ll0, ll1 = _loglik_arrays(full, cfg.table.offsets[:-1], *g, cfg.theta0, cfg.theta1,
                              memo=cfg.B > BLOCK)
    values = _derive_block(ll0, ll1, np.log(cfg.table.proportions))
    return k1, {s: values[s] for s in cfg.statistics}


class _Pool(NamedTuple):
    """The warm process pool, as opened by ``_pooled``."""

    size: int
    executor: ProcessPoolExecutor
    exit_hook: multiprocessing.util.Finalize


_POOL: Optional[_Pool] = None
# held through each pooled run, so that no run shuts down a pool another uses
_POOL_LOCK = threading.Lock()


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _close_pool() -> None:
    """Shut the warm pool down and wait for its workers to exit."""
    global _POOL
    pool, _POOL = _POOL, None
    if pool is not None:
        pool.exit_hook.cancel()
        pool.executor.shutdown(wait=True, cancel_futures=True)


def _forget_pool() -> None:
    """In a forked child: drop the parent's pool, and the lock a parent thread may hold."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@contextmanager
def _pooled(workers: Optional[int] = None):
    """``run(fn, jobs)``: ``fn(*job)`` for each of ``jobs``, in order. The one
    rule of every use of this process's warm pool.

    One worker runs serially (``itertools.starmap``) and takes no lock. Any
    other run holds ``_POOL_LOCK`` throughout, so threads take turns.
    ``workers`` > 1 reuses the pool of that size, else shuts the open one
    down and opens its own, so at most one is alive. None (a dump) uses the
    open pool and opens none; with none open, it releases the lock and runs
    serially. A pooled run keeps at most two jobs per worker submitted and
    not yet given; one that raises (``BrokenProcessPool``, a failing sink)
    shuts the pool down. A forked child starts with no pool and a free lock
    (``_forget_pool``). The exit hook shuts the pool down before a
    multiprocessing child waits for its children at exit, and before the
    hooks (priority 10) that stop multiprocessing queues' feeder threads.
    """
    global _POOL
    if workers != 1:
        with _POOL_LOCK:
            if workers is not None and (_POOL is None or _POOL.size != workers):
                _close_pool()
                _POOL = _Pool(workers, ProcessPoolExecutor(max_workers=workers),
                              multiprocessing.util.Finalize(None, _close_pool, exitpriority=100))
            pool = _POOL
            if pool is not None:
                def run(fn, jobs):
                    pending = collections.deque()
                    for job in jobs:
                        if len(pending) == 2 * pool.size:
                            yield pending.popleft().result()
                        pending.append(pool.executor.submit(fn, *job))
                    while pending:
                        yield pending.popleft().result()
                try:
                    yield run
                except BaseException:
                    _close_pool()
                    raise
                return
    yield itertools.starmap


def _simulate(cfg: SimConfig, alts: tuple[bool, ...]) -> tuple[SampleMatrix, ...]:
    """One SampleMatrix per phase in ``alts`` (True for alt), all their blocks
    run from one compile and one sampler, through ``_pooled`` with at most
    one worker per block of a phase and per CPU this process may run on."""
    full = _compile(cfg.table, cfg.cb_weights)
    sampler = _sampler(cfg.table)
    nblocks = (cfg.B + BLOCK - 1) // BLOCK
    names = tuple(s.name for s in cfg.table.subpops)
    out = {alt: SampleMatrix(statistics={s: np.empty(cfg.B) for s in cfg.statistics},
                             subpop_tags=np.empty(cfg.B, dtype=np.int64), subpop_names=names)
           for alt in alts}

    tasks = list(itertools.product(alts, range(nblocks)))
    run_block = functools.partial(_run_block, full, sampler, cfg)
    with _pooled(min(cfg.workers, nblocks, _cpus())) as run:
        for (alt, block), (btags, bvalues) in zip(tasks, run(run_block, tasks)):
            matrix, rows = out[alt], slice(block * BLOCK, block * BLOCK + len(btags))
            matrix.subpop_tags[rows] = btags
            for s in cfg.statistics:
                matrix.statistics[s][rows] = bvalues[s]
    if cfg.keep_genotypes:
        for alt, matrix in out.items():
            matrix.genotypes = dict(zip(("g1a", "g1b", "g2a", "g2b"),
                                        _draws(sampler, cfg, alt)[1:]))
    return tuple(out.values())


def simulate(cfg: SimConfig) -> tuple[SampleMatrix, SampleMatrix]:
    """``(simulate_null(cfg), simulate_alt(cfg))``, from one compile, one
    sampler and at most one pool."""
    return _simulate(cfg, (False, True))


def simulate_null(cfg: SimConfig) -> SampleMatrix:
    """Log-LR samples for unrelated pairs with multinomial subpop draws."""
    return _simulate(cfg, (False,))[0]


def simulate_alt(cfg: SimConfig) -> SampleMatrix:
    """Log-LR samples for related pairs; both individuals share one subpop."""
    return _simulate(cfg, (True,))[0]


def _checked_tags(matrix: SampleMatrix, statistics) -> np.ndarray:
    """``matrix``'s subpop tags, checked to lie in [0, K), and each of its
    ``statistics`` to hold B values: else an InvalidParameter naming them."""
    for s in statistics:
        if np.shape(matrix.statistics[s]) != (matrix.B,):
            raise InvalidParameter(f"statistic {s!r} has shape {np.shape(matrix.statistics[s])}, "
                                   f"not the ({matrix.B},) of the subpop tags")
    tags = np.asarray(matrix.subpop_tags)
    K = len(matrix.subpop_names)
    if matrix.B and not (np.can_cast(tags.dtype, np.intp) and tags.min() >= 0 and tags.max() < K):
        raise InvalidParameter(f"subpop tags must be integers in [0, {K}), the {K} subpop "
                               f"names; they are {tags.dtype} from {tags.min()} to {tags.max()}")
    return tags


def _block_text(lo: int, cells: list, tags: np.ndarray, *columns) -> str:
    """The CSV rows of replicates ``lo``, ``lo + 1``, ...: each one's index,
    ``cells[tag]`` and repr(float) of its value in each of ``columns``,
    formatted column by column. The one rule of every ``dump_samples``
    block, run in this process or in a warm pool worker."""
    rows = zip(map(str, range(lo, lo + len(tags))), map(cells.__getitem__, tags.tolist()),
               *map(_float_cells, columns))
    return "\n".join(map(",".join, rows)) + "\n"


def dump_samples(matrix: SampleMatrix, sink: Optional[TextIO] = None) -> Optional[str]:
    """Write a SampleMatrix as CSV (log-scale statistic columns); returns the
    text when ``sink`` is None, else writes it to that stream.

    The matrix is checked before the first write: a statistic column that
    does not hold B values, a tag outside ``subpop_names`` or a name a tag
    uses that is not a valid text cell is an InvalidParameter, with nothing
    written. Each used name is formatted once per call; each ``BLOCK`` of
    replicates is formatted column by column by ``_block_text`` and sent in
    one write, in order, through ``_pooled()``: by the open warm pool's
    workers, at most two blocks' text per worker in flight, else by this
    process, one block's. The bytes are the same either way."""
    names = list(matrix.statistics)
    tags = _checked_tags(matrix, names)
    K = len(matrix.subpop_names)
    cells = [None] * K
    for k in np.flatnonzero(np.bincount(tags, minlength=K)).tolist() if matrix.B else ():
        cells[k] = _quoted_cell(matrix.subpop_names[k], "subpop name")
    header = ["replicate", "subpop_tag"] + names
    jobs = ((lo, cells, tags[lo:lo + BLOCK], *(matrix.statistics[s][lo:lo + BLOCK] for s in names))
            for lo in range(0, matrix.B, BLOCK))
    with _pooled() as run:
        return _write_blocks(header, run(_block_text, jobs), sink)
