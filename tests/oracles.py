"""Independent reference implementations used as test oracles.

These transliterate the published closed-form cells for the 7 genotype
combination classes and stay independent of the production kernel.
``reference_loglik_arrays`` is the exception: it keeps the engine's earlier
per-locus loop, which shares ``pair_components`` with the engine, so it
checks the engine's deduplication and gather rather than the cell formulas.
``reference_sequential_sums`` adds those per-locus rows once more, one
replicate at a time in plain Python floats, ``0.0 + row_0 + row_1 + ...``
in panel order, so that it pins the order of the engine's sums.
``reference_pair_components`` keeps the kernel's earlier component formula,
whose P1 picks each transition term with ``np.where``, so that a change to
the production formula is checked against code that shares none of it.
``reference_block_genotypes`` likewise keeps the engine's earlier per-locus
sampler, which shares ``categorical`` and the block's uniform stream with
the engine, so it checks the guide tables rather than the draw rule.
``reference_dump`` keeps the sample dump's earlier row-by-row rule, one
``csv.writer`` row per replicate and ``repr(float(v))`` per statistic cell.
``reference_power_report`` keeps the power report's earlier rule, one
boolean mask per subpop, and gives each cell's hit count in place of its
interval. ``beta_quantile_ulps`` and ``within_ulps`` place a double against
Beta(a, b)'s true quantile through the exact binomial tail
(``binomial_tail_sign``): in integers for n <= 60, else as a 50-digit decimal
sum, so that no interval is checked against another library's rounding.
"""

import csv
import functools
import io
import math
import struct
from decimal import Decimal, localcontext
from itertools import combinations_with_replacement

import numpy as np

from kinpower import LocusGenotype
from kinpower.engine import _block_rng
from kinpower.ibd import categorical, pair_components


def reference_pair_probs(g1: LocusGenotype, g2: LocusGenotype, p: dict):
    """(unrelated, parent-child, full-sib) probabilities for one pair."""
    a, b = g1.alleles
    c, d = g2.alleles
    hom1, hom2 = a == b, c == d
    if hom1 and hom2:
        if a == c:  # AA,AA
            pa = p[a]
            return pa ** 4, pa ** 3, pa ** 2 * (1 + pa) ** 2 / 4
        pa, pb = p[a], p[c]  # AA,BB
        return 2 * pa ** 2 * pb ** 2, 0.0, pa ** 2 * pb ** 2 / 2
    if hom1 or hom2:
        hom, het = (g1, g2) if hom1 else (g2, g1)
        pa = p[hom.alleles[0]]
        others = set(het.alleles) - {hom.alleles[0]}
        if len(others) == 1:  # AA,AB
            pb = p[others.pop()]
            return 4 * pa ** 3 * pb, 2 * pa ** 2 * pb, pa ** 2 * pb * (1 + pa)
        pb, pc = (p[x] for x in others)  # AA,BC
        return 4 * pa ** 2 * pb * pc, 0.0, pa ** 2 * pb * pc
    shared = set(g1.alleles) & set(g2.alleles)
    if len(shared) == 2:  # AB,AB
        pa, pb = p[a], p[b]
        return (4 * pa ** 2 * pb ** 2,
                pa * pb * (pa + pb),
                pa * pb * (2 * pa * pb + pa + pb + 1) / 2)
    if len(shared) == 1:  # AB,AC
        sa = shared.pop()
        pa = p[sa]
        pb = p[(set(g1.alleles) - {sa}).pop()]
        pc = p[(set(g2.alleles) - {sa}).pop()]
        return (8 * pa ** 2 * pb * pc,
                2 * pa * pb * pc,
                pa * pb * pc * (2 * pa + 1))
    pa, pb, pc, pd = p[a], p[b], p[c], p[d]  # AB,CD
    return (8 * pa * pb * pc * pd, 0.0, 2 * pa * pb * pc * pd)


def hwe_prob(g: LocusGenotype, p: dict) -> float:
    a, b = g.alleles
    return p[a] * p[b] * (1 if a == b else 2)


def all_genotypes(alleles, locus="L"):
    return [LocusGenotype(locus, pair)
            for pair in combinations_with_replacement(sorted(alleles), 2)]


def all_unordered_pairs(alleles, locus="L"):
    gs = all_genotypes(alleles, locus)
    return list(combinations_with_replacement(gs, 2))


def drawn_frequencies(labels, *genotypes) -> dict:
    """Frequencies of the unordered genotype tuples among kept one-locus draws.

    Each genotype is an (a, b) pair of allele-index arrays with a <= b, of
    shape (n,) or (n, 1). A key is the sorted tuple of the genotypes'
    sorted allele-label pairs, so a key of two genotypes matches
    ``tuple(sorted((g1.alleles, g2.alleles)))`` for a pair of
    ``all_unordered_pairs``.
    """
    codes = np.sort(np.column_stack([np.ravel(b * (b + 1) // 2 + a) for a, b in genotypes]),
                    axis=1)
    rows, counts = np.unique(codes, axis=0, return_counts=True)
    alleles = {b * (b + 1) // 2 + a: tuple(sorted((labels[a], labels[b])))
               for b in range(len(labels)) for a in range(b + 1)}
    return {tuple(sorted(alleles[c] for c in row)): k / len(codes)
            for row, k in zip(rows.tolist(), counts.tolist())}


def reference_pool(freqs: dict, subpops, panel, weights) -> dict:
    """locus -> allele -> pooled frequency, the weighted mean of the
    subpops' dicts. Adds in subpop order, one ``w_k * f`` at a time, as a
    dict merge over the raw ``freqs`` mapping."""
    total = float(sum(weights))
    w = [x / total for x in weights]
    pooled = {}
    for locus in panel:
        merged = {}
        for wk, name in zip(w, subpops):
            for allele, f in freqs[name][locus].items():
                merged[allele] = merged.get(allele, 0.0) + wk * f
        pooled[locus] = merged
    return pooled


def reference_pair_components(g1a, g1b, g2a, g2b, f):
    """(P0, P1, P2, mult) for canonically ordered index arrays, as
    ``ibd.pair_components`` gives them, with P1's transition terms chosen by
    ``np.where`` on each slot of g1."""
    fa1, fb1 = f[..., g1a], f[..., g1b]
    fa2, fb2 = f[..., g2a], f[..., g2b]
    het1 = g1a != g1b
    het2 = g2a != g2b
    pg1 = fa1 * fb1 * np.where(het1, 2.0, 1.0)
    pg2 = fa2 * fb2 * np.where(het2, 2.0, 1.0)
    p0 = pg1 * pg2

    # trans(t) = P(drawing genotype g2 when one slot is the shared allele t)
    def trans(t):
        hom_case = np.where(t == g2a, fa2, 0.0)
        het_case = np.where(t == g2a, fb2, 0.0) + np.where(t == g2b, fa2, 0.0)
        return np.where(het2, het_case, hom_case)

    p1 = pg1 * 0.5 * (trans(g1a) + trans(g1b))
    same = (g1a == g2a) & (g1b == g2b)
    p2 = pg1 * same
    mult = np.where(same, 1.0, 2.0)
    return p0, p1, p2, mult


def reference_loglik_arrays(full, offsets, g1a, g1b, g2a, g2b, theta0, theta1):
    """(ll0, ll1) stacked, shape (2, n, K+2): the kernel evaluated one locus
    at a time.

    One pair_components call per locus over that locus's (K+2, A) frequency
    rows, every cell evaluated, logs added in panel order.
    """
    ll0 = np.zeros((full.shape[0], g1a.shape[0]))
    ll1 = np.zeros_like(ll0)
    for ell, f in enumerate(np.split(full, offsets[1:], axis=1)):
        p0, p1, p2, mult = pair_components(g1a[:, ell], g1b[:, ell],
                                           g2a[:, ell], g2b[:, ell], f)
        with np.errstate(divide="ignore"):
            ll0 += np.log(mult * (theta0.z0 * p0 + theta0.z1 * p1 + theta0.z2 * p2))
            ll1 += np.log(mult * (theta1.z0 * p0 + theta1.z1 * p1 + theta1.z2 * p2))
    return np.stack((ll0.T, ll1.T))


def reference_sequential_sums(full, offsets, g1a, g1b, g2a, g2b, theta0, theta1):
    """(2, n, K+2) sums of each replicate's cell rows, ``0.0 + row_0 + row_1
    + ...`` over the loci in panel order, added in plain Python floats. Locus
    ell's rows are reference_loglik_arrays on that locus's columns alone."""
    ends = list(offsets[1:]) + [full.shape[1]]
    parts = [reference_loglik_arrays(full[:, lo:hi], (0,),
                                     *(g[:, [ell]] for g in (g1a, g1b, g2a, g2b)),
                                     theta0, theta1).tolist()
             for ell, (lo, hi) in enumerate(zip(offsets, ends))]
    sums = []
    for t in range(2):
        for i in range(len(g1a)):
            acc = [0.0] * full.shape[0]
            for part in parts:
                acc = [total + value for total, value in zip(acc, part[t][i])]
            sums.append(acc)
    return np.array(sums).reshape(2, len(g1a), full.shape[0])


def reference_block_genotypes(cfg, alt: bool, block: int, n: int):
    """(k1, g1a, g1b, g2a, g2b) of one engine block, drawn one locus at a time.

    Each pair's CDF row is gathered per locus from the per-subpop cumulative
    sums, its subpops are drawn by the proportions over their sum, and every
    uniform goes through ``categorical``. Pair i reads row i
    of the block's (n, head + width * loci) uniform matrix: subpop 1, subpop
    2 (null only), then per locus two uniforms for individual 1 and two
    (null) or three (alt: J, slot and first allele, other allele) for
    individual 2.
    """
    table, theta = cfg.table, cfg.theta1
    cdf = [np.cumsum(table.matrix[:, lo:hi], axis=1)
           for lo, hi in zip(table.offsets, table.offsets[1:])]
    prop_cdf = np.cumsum(np.array(table.proportions) / sum(table.proportions))
    m = table.n_loci
    head, width = (1, 5) if alt else (2, 4)
    u = _block_rng(cfg.seed, 1 if alt else 0, block).random((n, head + width * m))
    k1 = categorical(prop_cdf, u[:, 0])
    k2 = k1 if alt or cfg.null_same_subpop else categorical(prop_cdf, u[:, 1])

    def ordered(rows, ua, ub):
        i, j = categorical(rows, ua), categorical(rows, ub)
        return np.minimum(i, j), np.maximum(i, j)

    g1a, g1b, g2a, g2b = np.empty((4, n, m), dtype=np.int64)
    for ell in range(m):
        c = head + width * ell
        rows = cdf[ell][k1]
        g1a[:, ell], g1b[:, ell] = ordered(rows, u[:, c], u[:, c + 1])
        if not alt:
            g2a[:, ell], g2b[:, ell] = ordered(cdf[ell][k2], u[:, c + 2], u[:, c + 3])
            continue
        uj, u1, u2 = u[:, c + 2], u[:, c + 3], u[:, c + 4]
        j = (uj >= theta.z0).astype(np.int8) + (uj >= theta.z0 + theta.z1)
        first, other = categorical(rows, u1), categorical(rows, u2)
        shared = np.where(u1 < 0.5, g1a[:, ell], g1b[:, ell])
        g2a[:, ell] = np.where(j == 0, np.minimum(first, other),
                               np.where(j == 1, np.minimum(shared, other), g1a[:, ell]))
        g2b[:, ell] = np.where(j == 0, np.maximum(first, other),
                               np.where(j == 1, np.maximum(shared, other), g1b[:, ell]))
    return k1, g1a, g1b, g2a, g2b


def reference_dump(matrix) -> str:
    """A SampleMatrix as engine.dump_samples writes it, one csv.writer row
    per replicate: its index, its subpop name and repr(float(v)) of each
    statistic."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["replicate", "subpop_tag", *matrix.statistics])
    for i, tag in enumerate(matrix.subpop_tags.tolist()):
        writer.writerow([str(i), matrix.subpop_names[tag],
                         *(repr(float(v[i])) for v in matrix.statistics.values())])
    return buf.getvalue()


def reference_power_report(null, alt, statistic: str, alpha: float):
    """(threshold_log, power, hits, per_subpop) of power.power_report, by its
    earlier rule: the threshold is the ceil(B(1 - alpha))-th smallest null
    value, and each subpop with alternative replicates is counted through its
    own mask into (power, n, hits)."""
    x = np.sort(np.asarray(null.statistics[statistic], dtype=np.float64))
    c = float(x[math.ceil(x.size * (1.0 - alpha)) - 1])

    def cell(values):
        hits, n = int(np.count_nonzero(values > c)), values.size
        return hits / n, n, hits

    y = np.asarray(alt.statistics[statistic], dtype=np.float64)
    power, _, hits = cell(y)
    tags = np.asarray(alt.subpop_tags)
    per_subpop = {name: cell(y[tags == k]) for k, name in enumerate(alt.subpop_names)
                  if np.any(tags == k)}
    return c, power, hits, per_subpop


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@functools.lru_cache(maxsize=64)
def _binomial_coefficient(n: int, k: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return +Decimal(math.comb(n, k))


def binomial_tail_sign(n: int, k: int, x: float, t: float, upper: bool) -> int:
    """The sign of P(Bin(n, x) >= k) - t (upper) or of P(Bin(n, x) <= k) - t,
    at the exact values of the doubles x in (0, 1) and t. For n <= 60 the tail
    is summed in integers. Above that it is a 50-digit decimal sum from k
    outward, stopped once a term falls below 1e-55 of the sum, which is exact
    for any comparison not within 1e-45 of a tie."""
    js = range(k, n + 1) if upper else range(k, -1, -1)
    if n <= 60:
        num, den = x.as_integer_ratio()
        tn, td = t.as_integer_ratio()
        total = sum(math.comb(n, j) * num ** j * (den - num) ** (n - j) for j in js)
        return _sign(total * td - tn * den ** n)
    with localcontext() as ctx:
        ctx.prec = 50
        X = Decimal(x)
        Y = 1 - X
        term = _binomial_coefficient(n, k) * X ** k * Y ** (n - k)
        total = Decimal(0)
        for j in js:
            total += term
            if term < total.scaleb(-55):
                break
            term = (term * (n - j) * X / ((j + 1) * Y) if upper
                    else term * j * Y / ((n - j + 1) * X))
        return _sign(total - Decimal(t))


def beta_cdf_sign(v: float, p: float, a: int, b: int) -> int:
    """The sign of I_v(a, b) - p, where I_v(a, b) = P(Bin(a + b - 1, v) >= a).
    For p > 1/2 it compares the lower tail P(Bin <= a - 1) with 1 - p, which
    is exact in doubles, so that no tail near 1 is summed."""
    if not 0.0 < v < 1.0:
        return -1 if v <= 0.0 else 1
    if p <= 0.5:
        return binomial_tail_sign(a + b - 1, a, v, p, True)
    return -binomial_tail_sign(a + b - 1, a - 1, v, 1.0 - p, False)


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def beta_quantile_ulps(x: float, p: float, a: int, b: int) -> int:
    """How many doubles x lies from Beta(a, b)'s true p-quantile q: the fewest
    k with q within k doubles of x, positive where x > q. A correctly rounded
    quantile scores 1, and 0 only where q is a double."""
    side = beta_cdf_sign(x, p, a, b)
    if side == 0:
        return 0
    bits = struct.unpack("<q", struct.pack("<d", x))[0]

    def reached(k: int) -> bool:
        return side * beta_cdf_sign(_double(bits - side * k), p, a, b) <= 0

    hi = 1
    while not reached(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reached(mid) else (mid, hi)
    return side * hi


def within_ulps(x: float, p: float, a: int, b: int, ulps: int) -> bool:
    """Whether Beta(a, b)'s true p-quantile lies within ``ulps`` doubles of x."""
    below = above = x
    for _ in range(ulps):
        below, above = math.nextafter(below, 0.0), math.nextafter(above, 1.0)
    return beta_cdf_sign(below, p, a, b) <= 0 <= beta_cdf_sign(above, p, a, b)


def clopper_pearson_within_ulps(ci, hits: int, n: int, ulps: int, level: float = 0.95) -> bool:
    """Whether each bound of ``ci`` lies within ``ulps`` doubles of the exact
    Clopper-Pearson bound for hits of n: Beta(hits, n - hits + 1)'s and
    Beta(hits + 1, n - hits)'s quantiles at (1 -+ level) / 2, or exactly 0.0 at
    no hits and 1.0 at n hits."""
    a = 1.0 - level
    lo, hi = ci
    if not (lo == 0.0 if hits == 0 else within_ulps(lo, a / 2, hits, n - hits + 1, ulps)):
        return False
    return hi == 1.0 if hits == n else within_ulps(hi, 1 - a / 2, hits + 1, n - hits, ulps)
