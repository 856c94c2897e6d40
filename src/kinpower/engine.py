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
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, TextIO

import numpy as np

from .errors import InvalidParameter
from .ibd import (ThetaIBD, categorical, genotypes_from_uniforms, pair_components,
                  related_from_uniforms)
from .tables import FrequencyTable, _pool, _pool_weights, _write_rows

BLOCK = 8192
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
        if self.B < 1:
            raise InvalidParameter("B must be >= 1")
        if self.seed < 0:
            raise InvalidParameter(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise InvalidParameter(f"workers must be >= 1, got {self.workers}")
        if not self.statistics:
            raise InvalidParameter("at least one statistic must be requested")
        unknown = set(self.statistics) - set(STATISTICS)
        if unknown:
            raise InvalidParameter(f"unknown statistics {sorted(unknown)}")


@dataclass
class SampleMatrix:
    """Per-statistic log-LR arrays plus per-replicate subpopulation tags."""

    statistics: dict[str, np.ndarray]
    subpop_tags: np.ndarray
    subpop_names: tuple[str, ...]
    genotypes: Optional[dict[str, np.ndarray]] = field(default=None)

    @property
    def B(self) -> int:
        return len(self.subpop_tags)


class _Compiled(NamedTuple):
    """Numeric view of a FrequencyTable for the log-likelihood kernel.

    ``full`` stacks the K subpop rows, the local-average row (K) and the
    pooled row (K+1) over the loci laid side by side in panel order, as in
    ``FrequencyTable.matrix``, locus i from column ``offsets[i]`` on; the
    view holds only what the kernel reads. A genotype a <= b at locus i has
    the global code ``geno_offsets[i] + b(b+1)/2 + a``, below ``n_genotypes``
    (the sum of A(A+1)/2 over loci), so an ordered genotype pair at a locus
    has a key ``code1 * n_genotypes + code2`` that fits int64.
    """

    K: int
    logp: np.ndarray              # (K,) log proportions
    full: np.ndarray              # (K+2, sum of A)
    offsets: np.ndarray           # (loci,) first column of each locus in full
    geno_offsets: np.ndarray      # (loci,) first global genotype code of each locus
    n_genotypes: int


class _Sampler(NamedTuple):
    """Sampling CDFs of a FrequencyTable, built only by the simulation path."""

    prop_cdf: np.ndarray          # (K,)
    cdf: tuple[np.ndarray, ...]   # per locus (K, A) per-subpop sampling CDFs


# largest genotype count whose squared pair keys fit int64
_MAX_GENOTYPES = math.isqrt(np.iinfo(np.int64).max)


def _compile(table: FrequencyTable, cb_weights: str) -> _Compiled:
    n_geno = [a * (a + 1) // 2 for a in map(len, table.labels)]
    n_genotypes = sum(n_geno)
    if n_genotypes > _MAX_GENOTYPES:
        raise InvalidParameter(
            f"table has {n_genotypes} genotypes over its loci; at most {_MAX_GENOTYPES} "
            "fit the kernel's int64 genotype-pair keys")
    full = np.vstack([table.matrix, _pool(table, table.proportions),
                      _pool(table, _pool_weights(table, cb_weights))])
    return _Compiled(
        K=table.n_subpops,
        logp=np.log(np.array(table.proportions)),
        full=full,
        offsets=np.array(table.offsets[:-1], dtype=np.int64),
        geno_offsets=np.array([0, *itertools.accumulate(n_geno)][:-1], dtype=np.int64),
        n_genotypes=n_genotypes,
    )


def _sampler(table: FrequencyTable) -> _Sampler:
    return _Sampler(
        prop_cdf=np.cumsum(table.proportions),
        cdf=tuple(np.cumsum(table.matrix[:, lo:hi], axis=1)
                  for lo, hi in zip(table.offsets, table.offsets[1:])),
    )


def _loglik_arrays(compiled: _Compiled, g1a, g1b, g2a, g2b, theta0, theta1):
    """Per-replicate log-likelihoods, shape (n, K+2), under both thetas.

    The (n, loci) allele-index arrays give n * loci cells, each an ordered
    genotype pair at one locus. Cells are keyed by their two global genotype
    codes, and the distinct keys are found with one argsort. One
    pair_components call evaluates one cell per key over all K+2 frequency
    sets, the rows of ``compiled.full``, and both thetas weigh those
    components at once, stacked on a leading axis. Each locus's values are
    then gathered back and added in panel order, so every cell and every sum
    is what a per-locus evaluation would give, to the last bit.
    """
    n, m = g1a.shape

    def code(a, b):  # (n, loci) global genotype codes
        return compiled.geno_offsets + ((b * (b + 1)) >> 1) + a

    # cell ell * n + i is replicate i at locus ell
    key = (code(g1a, g1b) * compiled.n_genotypes + code(g2a, g2b)).T.ravel()
    order = np.argsort(key)
    first = np.empty(key.size, dtype=bool)
    first[:1] = True
    np.not_equal(key[order[1:]], key[order[:-1]], out=first[1:])
    rep = order[first]                     # one cell per distinct key
    inv = np.empty(key.size, dtype=np.intp)
    inv[order] = np.cumsum(first) - 1      # cell -> its key's column

    i, ell = rep % n, rep // n
    col = compiled.offsets[ell]
    p0, p1, p2, mult = pair_components(g1a[i, ell] + col, g1b[i, ell] + col,
                                       g2a[i, ell] + col, g2b[i, ell] + col, compiled.full)
    z = np.array([theta0.as_tuple(), theta1.as_tuple()])[:, :, None, None]
    with np.errstate(divide="ignore"):
        v = np.log(mult * (z[:, 0] * p0 + z[:, 1] * p1 + z[:, 2] * p2))  # (2, K+2, keys)

    ll = np.zeros((2, compiled.K + 2, n))
    for lo in range(0, key.size, n):
        ll += v.take(inv[lo:lo + n], axis=2)
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
    if finite.any():
        xf = x[finite] - m[finite, None]
        out[finite] = m[finite] + np.log(np.exp(xf).sum(axis=1))
    return out


def _derive_block(compiled: _Compiled, ll0, ll1, statistics):
    K = compiled.K
    values = {}
    llr_sub = _diff(ll1[:, :K], ll0[:, :K])
    for stat in statistics:
        if stat == "LAF":
            values[stat] = _diff(ll1[:, K], ll0[:, K])
        elif stat == "CB":
            values[stat] = _diff(ll1[:, K + 1], ll0[:, K + 1])
        elif stat == "AVG":
            values[stat] = _logsumexp_rows(llr_sub + compiled.logp[None, :])
        elif stat == "MAX":
            values[stat] = llr_sub.max(axis=1)
        elif stat == "MIN":
            values[stat] = llr_sub.min(axis=1)
        elif stat == "RMAX":
            values[stat] = _diff(ll1[:, :K].max(axis=1), ll0[:, :K].max(axis=1))
        elif stat == "RMIN":
            values[stat] = _diff(ll1[:, :K].min(axis=1), ll0[:, :K].min(axis=1))
    return values


def _block_rng(seed: int, phase: int, block: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(phase, block))
    return np.random.Generator(np.random.Philox(ss))


def _run_block(compiled: _Compiled, sampler: _Sampler, cfg: SimConfig, alt: bool,
               block: int, n: int):
    """Subpop tags, statistics and (if kept) genotypes of one block's n pairs.

    Pair i reads row i of one (n, head + width * loci) uniform matrix: the
    subpop of individual 1, that of individual 2 (null only), then per locus
    two uniforms for individual 1 and two (null, HWE in its own subpop) or
    three (alt, related under theta1) for individual 2.
    """
    m = cfg.table.n_loci
    head, width = (1, 5) if alt else (2, 4)
    u = _block_rng(cfg.seed, 1 if alt else 0, block).random((n, head + width * m))
    k1 = categorical(sampler.prop_cdf, u[:, 0])
    k2 = k1 if alt or cfg.null_same_subpop else categorical(sampler.prop_cdf, u[:, 1])

    g = np.empty((4, n, m), dtype=np.int64)
    g1a, g1b, g2a, g2b = g
    for ell in range(m):
        c = head + width * ell
        rows = sampler.cdf[ell][k1]
        g1a[:, ell], g1b[:, ell] = genotypes_from_uniforms(rows, u[:, c], u[:, c + 1])
        if alt:
            g2a[:, ell], g2b[:, ell] = related_from_uniforms(
                g1a[:, ell], g1b[:, ell], cfg.theta1, rows,
                u[:, c + 2], u[:, c + 3], u[:, c + 4])
        else:
            g2a[:, ell], g2b[:, ell] = genotypes_from_uniforms(
                sampler.cdf[ell][k2], u[:, c + 2], u[:, c + 3])

    ll0, ll1 = _loglik_arrays(compiled, g1a, g1b, g2a, g2b, cfg.theta0, cfg.theta1)
    values = _derive_block(compiled, ll0, ll1, cfg.statistics)
    genos = None
    if cfg.keep_genotypes:
        genos = {"g1a": g1a, "g1b": g1b, "g2a": g2a, "g2b": g2b}
    return k1, values, genos


def _simulate(cfg: SimConfig, alt: bool) -> SampleMatrix:
    compiled = _compile(cfg.table, cfg.cb_weights)
    sampler = _sampler(cfg.table)
    m = cfg.table.n_loci
    nblocks = (cfg.B + BLOCK - 1) // BLOCK
    sizes = [min(BLOCK, cfg.B - b * BLOCK) for b in range(nblocks)]

    tags = np.empty(cfg.B, dtype=np.int64)
    stats = {s: np.empty(cfg.B) for s in cfg.statistics}
    genos = None
    if cfg.keep_genotypes:
        genos = {k: np.empty((cfg.B, m), dtype=np.int64)
                 for k in ("g1a", "g1b", "g2a", "g2b")}

    run = functools.partial(_run_block, compiled, sampler, cfg, alt)
    workers = min(cfg.workers, nblocks)
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        results = (map(run, range(nblocks), sizes) if pool is None else
                   pool.map(run, range(nblocks), sizes,
                            chunksize=max(1, nblocks // (4 * workers))))
        for lo, (btags, bvalues, bgenos) in zip(range(0, cfg.B, BLOCK), results):
            hi = lo + len(btags)
            tags[lo:hi] = btags
            for s in cfg.statistics:
                stats[s][lo:hi] = bvalues[s]
            if genos is not None:
                for k in genos:
                    genos[k][lo:hi] = bgenos[k]

    names = tuple(s.name for s in cfg.table.subpops)
    return SampleMatrix(statistics=stats, subpop_tags=tags,
                        subpop_names=names, genotypes=genos)


def simulate_null(cfg: SimConfig) -> SampleMatrix:
    """Log-LR samples for unrelated pairs with multinomial subpop draws."""
    return _simulate(cfg, alt=False)


def simulate_alt(cfg: SimConfig) -> SampleMatrix:
    """Log-LR samples for related pairs; both individuals share one subpop."""
    return _simulate(cfg, alt=True)


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
