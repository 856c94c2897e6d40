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

from concurrent.futures import ProcessPoolExecutor
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
    """Numeric view of a FrequencyTable for vectorized simulation."""

    K: int
    logp: np.ndarray              # (K,) log proportions
    prop_cdf: np.ndarray          # (K,)
    fmat: tuple[np.ndarray, ...]  # per locus (K+2, A); rows K=local, K+1=pooled
    cdf: tuple[np.ndarray, ...]   # per locus (K, A) per-subpop sampling CDFs


def _compile(table: FrequencyTable, cb_weights: str) -> _Compiled:
    props = np.array(table.proportions)
    full = np.vstack([table.matrix, _pool(table, table.proportions),
                      _pool(table, _pool_weights(table, cb_weights))])
    fmat = tuple(full[:, lo:hi] for lo, hi in zip(table.offsets, table.offsets[1:]))
    return _Compiled(
        K=table.n_subpops,
        logp=np.log(props),
        prop_cdf=np.cumsum(props),
        fmat=fmat,
        cdf=tuple(np.cumsum(f[:table.n_subpops], axis=1) for f in fmat),
    )


def _loglik_arrays(compiled: _Compiled, g1a, g1b, g2a, g2b, theta0, theta1):
    """Per-replicate log-likelihoods, shape (n, K+2), under both thetas.

    One pair_components call per locus evaluates all K+2 frequency sets,
    the rows of ``compiled.fmat[ell]``, as (K+2, n) arrays; loci are summed
    in panel order.
    """
    ll0 = np.zeros((compiled.K + 2, g1a.shape[0]))
    ll1 = np.zeros_like(ll0)
    for ell, f in enumerate(compiled.fmat):
        p0, p1, p2, mult = pair_components(g1a[:, ell], g1b[:, ell],
                                           g2a[:, ell], g2b[:, ell], f)
        with np.errstate(divide="ignore"):
            ll0 += np.log(mult * (theta0.z0 * p0 + theta0.z1 * p1 + theta0.z2 * p2))
            ll1 += np.log(mult * (theta1.z0 * p0 + theta1.z1 * p1 + theta1.z2 * p2))
    return ll0.T, ll1.T


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


def _run_block(compiled: _Compiled, cfg: SimConfig, alt: bool, block: int, n: int):
    m = cfg.table.n_loci
    rng = _block_rng(cfg.seed, 1 if alt else 0, block)
    shape = (n, 1 + 5 * m) if alt else (n, 2 + 4 * m)
    u = rng.random(shape)

    g1a = np.empty((n, m), dtype=np.int64)
    g1b = np.empty((n, m), dtype=np.int64)
    g2a = np.empty((n, m), dtype=np.int64)
    g2b = np.empty((n, m), dtype=np.int64)

    k1 = categorical(compiled.prop_cdf, u[:, 0])
    if alt:
        for ell in range(m):
            c = 1 + 5 * ell
            rows = compiled.cdf[ell][k1]
            g1a[:, ell], g1b[:, ell] = genotypes_from_uniforms(rows, u[:, c], u[:, c + 1])
            g2a[:, ell], g2b[:, ell] = related_from_uniforms(
                g1a[:, ell], g1b[:, ell], cfg.theta1, rows,
                u[:, c + 2], u[:, c + 3], u[:, c + 4])
    else:
        k2 = k1 if cfg.null_same_subpop else categorical(compiled.prop_cdf, u[:, 1])
        for ell in range(m):
            c = 2 + 4 * ell
            g1a[:, ell], g1b[:, ell] = genotypes_from_uniforms(
                compiled.cdf[ell][k1], u[:, c], u[:, c + 1])
            g2a[:, ell], g2b[:, ell] = genotypes_from_uniforms(
                compiled.cdf[ell][k2], u[:, c + 2], u[:, c + 3])

    ll0, ll1 = _loglik_arrays(compiled, g1a, g1b, g2a, g2b, cfg.theta0, cfg.theta1)
    values = _derive_block(compiled, ll0, ll1, cfg.statistics)
    genos = None
    if cfg.keep_genotypes:
        genos = {"g1a": g1a, "g1b": g1b, "g2a": g2a, "g2b": g2b}
    return k1, values, genos


def _simulate(cfg: SimConfig, alt: bool) -> SampleMatrix:
    compiled = _compile(cfg.table, cfg.cb_weights)
    m = cfg.table.n_loci
    nblocks = (cfg.B + BLOCK - 1) // BLOCK
    sizes = [min(BLOCK, cfg.B - b * BLOCK) for b in range(nblocks)]

    tags = np.empty(cfg.B, dtype=np.int64)
    stats = {s: np.empty(cfg.B) for s in cfg.statistics}
    genos = None
    if cfg.keep_genotypes:
        genos = {k: np.empty((cfg.B, m), dtype=np.int64)
                 for k in ("g1a", "g1b", "g2a", "g2b")}

    def store(block: int, result):
        btags, bvalues, bgenos = result
        lo = block * BLOCK
        hi = lo + sizes[block]
        tags[lo:hi] = btags
        for s in cfg.statistics:
            stats[s][lo:hi] = bvalues[s]
        if genos is not None:
            for k in genos:
                genos[k][lo:hi] = bgenos[k]

    workers = min(cfg.workers, nblocks)
    if workers == 1:
        for b in range(nblocks):
            store(b, _run_block(compiled, cfg, alt, b, sizes[b]))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(
                _run_block,
                [compiled] * nblocks,
                [cfg] * nblocks,
                [alt] * nblocks,
                range(nblocks),
                sizes,
                chunksize=max(1, nblocks // (4 * workers)),
            )
            for b, result in enumerate(results):
                store(b, result)

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
    text when ``sink`` is None, else writes it to that stream."""
    names = list(matrix.statistics)
    labels = [matrix.subpop_names[t] for t in matrix.subpop_tags.tolist()]
    rows = zip(map(str, range(matrix.B)), labels,
               *(matrix.statistics[s].tolist() for s in names))
    return _write_rows(["replicate", "subpop_tag"] + names, rows, sink)
