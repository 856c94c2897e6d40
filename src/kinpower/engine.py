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

import functools
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, TextIO

import numpy as np

from .errors import InvalidParameter
from .ibd import ThetaIBD, categorical, pair_components, related_from_uniforms
from .tables import FrequencyTable, _check_counts, _pool, _pool_weights, _write_rows

BLOCK = 8192
# buckets of each guide table; a power of two, so that u * GUIDE and its floor
# are exact and a bucket's edges b / GUIDE are exact too
GUIDE = 4096
STATISTICS = ("LAF", "AVG", "MAX", "MIN", "RMAX", "RMIN", "CB")


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
        if not self.statistics:
            raise InvalidParameter("at least one statistic must be requested")
        if len(set(self.statistics)) != len(self.statistics):
            raise InvalidParameter(f"statistics requested more than once: {list(self.statistics)}")
        unknown = set(self.statistics) - set(STATISTICS)
        if unknown:
            raise InvalidParameter(f"unknown statistics {sorted(unknown)}")
        _pool_weights(self.table, self.cb_weights)  # a bad scheme fails before any run


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


# largest column count S whose base-S four-digit cell keys fit int64
_MAX_COLUMNS = math.isqrt(math.isqrt(np.iinfo(np.int64).max))


def _compile(table: FrequencyTable, cb_weights: str) -> np.ndarray:
    """The kernel's (K+2, sum of A) frequency sets: the table's K subpop rows,
    the local-average row (K) and the ``cb_weights`` pooled row (K+1), with
    the loci side by side as in ``FrequencyTable.matrix``."""
    if table.offsets[-1] > _MAX_COLUMNS:
        raise InvalidParameter(
            f"table has {table.offsets[-1]} alleles over its loci; at most {_MAX_COLUMNS} "
            "fit the kernel's int64 cell keys")
    return np.vstack([table.matrix, _pool(table, table.proportions),
                      _pool(table, _pool_weights(table, cb_weights))])


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


def _alleles(sampler: _Sampler, k: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Allele indices of the (n, loci) uniforms u, row i drawn in subpop
    k[i]: ``categorical`` of each uniform on its CDF row. The guide answers
    every draw but those in split buckets, which go to ``categorical``."""
    m = u.shape[1]
    idx = (u * GUIDE).astype(np.intp)
    idx += (k[:, None] * m + np.arange(m)) * GUIDE
    a = sampler.guide.take(idx)
    i, ell = np.nonzero(a < 0)
    a[i, ell] = categorical(sampler.cdf[k[i], ell], u[i, ell])
    return a


def _loglik_arrays(full, offsets, g1a, g1b, g2a, g2b, theta0, theta1):
    """Per-replicate log-likelihoods, shape (n, K+2), under both thetas.

    ``full`` is ``_compile``'s (K+2, S) array and locus i's alleles start at
    its column ``offsets[i]``. The (n, loci) allele-index arrays give
    n * loci cells, each an ordered genotype pair at one locus. A cell's key
    is its four global allele columns in ``full`` read as the digits of one
    base-S number, and one ``np.unique`` finds the distinct keys. One
    pair_components call evaluates each distinct key once, on the columns
    ``np.unravel_index`` decodes from it, over all K+2 frequency sets, the
    rows of ``full``, and both thetas weigh those components at once,
    stacked on a leading axis. Each key's (2, K+2) values then form one
    contiguous row, and each replicate adds the rows of its cells locus by
    locus in panel order, so every cell and every sum is what a per-locus
    evaluation would give, to the last bit.
    """
    n, m = g1a.shape
    digits = (full.shape[1],) * 4
    # cell i * loci + ell is replicate i at locus ell
    keys = np.ravel_multi_index([(g + offsets).ravel() for g in (g1a, g1b, g2a, g2b)], digits)
    distinct, inv = np.unique(keys, return_inverse=True)
    p0, p1, p2, mult = pair_components(*np.unravel_index(distinct, digits), full)
    z = np.array([theta0.as_tuple(), theta1.as_tuple()])[:, :, None, None]
    with np.errstate(divide="ignore"):
        v = np.log(mult * (z[:, 0] * p0 + z[:, 1] * p1 + z[:, 2] * p2))  # (2, K+2, keys)

    # one contiguous (2, K+2) row per key, gathered per locus in panel order
    rows = np.ascontiguousarray(np.moveaxis(v, 2, 0))
    inv = inv.reshape(n, m)
    ll = np.zeros((n, 2, len(full)))
    for ell in range(m):
        ll += rows.take(inv[:, ell], axis=0)
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

    g1a, g1b = _ordered(_alleles(sampler, k1, uj[0]), _alleles(sampler, k1, uj[1]))
    if alt:
        g2a, g2b = related_from_uniforms(g1a, g1b, cfg.theta1, uj[2], uj[3],
                                         _alleles(sampler, k1, uj[3]),
                                         _alleles(sampler, k1, uj[4]))
    else:
        g2a, g2b = _ordered(_alleles(sampler, k2, uj[2]), _alleles(sampler, k2, uj[3]))
    return k1, g1a, g1b, g2a, g2b


def _draws(sampler: _Sampler, cfg: SimConfig, alt: bool):
    """``_draw_block``'s (k1, g1a, g1b, g2a, g2b) over every block of one
    phase, concatenated and widened to the int64 of SampleMatrix.genotypes."""
    blocks = [_draw_block(sampler, cfg, alt, b) for b in range((cfg.B + BLOCK - 1) // BLOCK)]
    return tuple(np.concatenate(column).astype(np.int64) for column in zip(*blocks))


def _run_block(full: np.ndarray, sampler: _Sampler, cfg: SimConfig, alt: bool, block: int):
    """Subpop tags and requested statistics of one block's pairs."""
    k1, *g = _draw_block(sampler, cfg, alt, block)
    ll0, ll1 = _loglik_arrays(full, cfg.table.offsets[:-1], *g, cfg.theta0, cfg.theta1)
    values = _derive_block(ll0, ll1, np.log(cfg.table.proportions))
    return k1, {s: values[s] for s in cfg.statistics}


def _simulate(cfg: SimConfig, alts: tuple[bool, ...]) -> tuple[SampleMatrix, ...]:
    """One SampleMatrix per phase in ``alts`` (True for alt), all their blocks
    run from one compile and one sampler, through at most one pool of at most
    one worker per block and per CPU."""
    full = _compile(cfg.table, cfg.cb_weights)
    sampler = _sampler(cfg.table)
    nblocks = (cfg.B + BLOCK - 1) // BLOCK
    names = tuple(s.name for s in cfg.table.subpops)
    out = {alt: SampleMatrix(statistics={s: np.empty(cfg.B) for s in cfg.statistics},
                             subpop_tags=np.empty(cfg.B, dtype=np.int64), subpop_names=names)
           for alt in alts}

    tasks = list(itertools.product(alts, range(nblocks)))
    run = functools.partial(_run_block, full, sampler, cfg)
    workers = min(cfg.workers, nblocks, os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = (map if pool is None else pool.map)(run, *zip(*tasks))
        for (alt, block), (btags, bvalues) in zip(tasks, results):
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


def dump_samples(matrix: SampleMatrix, sink: Optional[TextIO] = None) -> Optional[str]:
    """Write a SampleMatrix as CSV (log-scale statistic columns); returns the
    text when ``sink`` is None, else writes it to that stream. Rows are built
    ``BLOCK`` replicates at a time, so a sink costs one block's rows of memory."""
    names = list(matrix.statistics)
    rows = itertools.chain.from_iterable(
        zip(map(str, range(lo, lo + BLOCK)),
            [matrix.subpop_names[t] for t in matrix.subpop_tags[lo:lo + BLOCK].tolist()],
            *(matrix.statistics[s][lo:lo + BLOCK].tolist() for s in names))
        for lo in range(0, matrix.B, BLOCK))
    return _write_rows(["replicate", "subpop_tag"] + names, rows, sink)
