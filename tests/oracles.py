"""Independent reference implementations used as test oracles.

These transliterate the published closed-form cells for the 7 genotype
combination classes and stay independent of the production kernel.
``reference_loglik_arrays`` is the exception: it keeps the engine's earlier
per-locus loop, which shares ``pair_components`` with the engine, so it
checks the engine's deduplication and gather rather than the cell formulas.
"""

from itertools import combinations_with_replacement

import numpy as np

from kinpower import LocusGenotype
from kinpower.ibd import pair_components


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


def reference_loglik_arrays(compiled, g1a, g1b, g2a, g2b, theta0, theta1):
    """(ll0, ll1), shape (n, K+2): the kernel evaluated one locus at a time.

    One pair_components call per locus over that locus's (K+2, A) frequency
    rows, every cell evaluated, logs added in panel order.
    """
    ll0 = np.zeros((compiled.K + 2, g1a.shape[0]))
    ll1 = np.zeros_like(ll0)
    for ell, f in enumerate(np.split(compiled.full, compiled.offsets[1:], axis=1)):
        p0, p1, p2, mult = pair_components(g1a[:, ell], g1b[:, ell],
                                           g2a[:, ell], g2b[:, ell], f)
        with np.errstate(divide="ignore"):
            ll0 += np.log(mult * (theta0.z0 * p0 + theta0.z1 * p1 + theta0.z2 * p2))
            ll1 += np.log(mult * (theta1.z0 * p0 + theta1.z1 * p1 + theta1.z2 * p2))
    return ll0.T, ll1.T
