"""Genotype-pair probabilities under an IBD relationship, and samplers.

The kernel evaluates the probability of an unordered pair of single-locus
genotypes as the convex combination

    z0 * P0 + z1 * P1 + z2 * P2

where P0 is the product of the two HWE genotype probabilities, P1 the
one-shared-allele transition term, and P2 the probability of drawing the
first genotype times an indicator that the two genotypes are identical.
Classes containing two distinct genotypes carry a factor 2 so that the
values are probabilities of *unordered* pairs and sum to 1 over all such
pairs. The factor is constant in the relationship parameters, so it
cancels in every likelihood ratio.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from .errors import InvalidParameter, UnknownAllele
from .tables import Allele, LocusGenotype

THETA_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ThetaIBD:
    """Probabilities of a pair sharing 0, 1, or 2 alleles IBD."""

    z0: float
    z1: float
    z2: float

    def __post_init__(self):
        if not all(map(math.isfinite, self.as_tuple())):
            raise InvalidParameter(f"non-finite IBD coefficient in {self}")
        if min(self.z0, self.z1, self.z2) < 0.0:
            raise InvalidParameter(f"negative IBD coefficient in {self}")
        if abs(self.z0 + self.z1 + self.z2 - 1.0) > THETA_SUM_TOL:
            raise InvalidParameter(f"IBD coefficients must sum to 1, got {self}")

    def as_tuple(self) -> Tuple[float, float, float]:
        return (self.z0, self.z1, self.z2)


UNRELATED = ThetaIBD(1.0, 0.0, 0.0)
PARENT_CHILD = ThetaIBD(0.0, 1.0, 0.0)
FULL_SIB = ThetaIBD(0.25, 0.5, 0.25)
# Two half-sibling variants are shipped on purpose: the source methodology
# states (0, 1/2, 1/2) for the half-sibling test, while the textbook
# coefficients are (1/2, 1/2, 0). Reports must say which one was used.
HALF_SIB_PAPER = ThetaIBD(0.0, 0.5, 0.5)
HALF_SIB_STANDARD = ThetaIBD(0.5, 0.5, 0.0)


class GenotypeCombination(enum.Enum):
    """The 7 classes of unordered genotype pairs at a multi-allelic locus."""

    AA_AA = "AA,AA"
    AA_AB = "AA,AB"
    AA_BB = "AA,BB"
    AB_AB = "AB,AB"
    AA_BC = "AA,BC"
    AB_AC = "AB,AC"
    AB_CD = "AB,CD"


def classify(g1: LocusGenotype, g2: LocusGenotype) -> GenotypeCombination:
    """Classify an unordered pair of genotypes; symmetric in (g1, g2)."""
    s1, s2 = set(g1.alleles), set(g2.alleles)
    shared = len(s1 & s2)
    if g1.is_homozygote and g2.is_homozygote:
        return GenotypeCombination.AA_AA if shared else GenotypeCombination.AA_BB
    if g1.is_homozygote or g2.is_homozygote:
        return GenotypeCombination.AA_AB if shared else GenotypeCombination.AA_BC
    if shared == 2:
        return GenotypeCombination.AB_AB
    return GenotypeCombination.AB_AC if shared == 1 else GenotypeCombination.AB_CD


def pair_components(g1a, g1b, g2a, g2b, f):
    """Vectorized (P0, P1, P2, mult) for canonically ordered index arrays.

    g1a <= g1b and g2a <= g2b are (n,) integer allele indices into the last
    axis of ``f``. An (A,) frequency vector gives (n,) components; an (S, A)
    stack of S frequency sets gives (S, n), row s being what row s alone
    gives. ``mult`` depends only on the indices and is always (n,).
    Every output cell depends only on its own four indices, so ``f`` may
    hold several loci side by side, indexed by global column: the engine
    evaluates the distinct genotype pairs of all loci in one call.
    """
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


def _support(f: Mapping[Allele, float]):
    """The sorted allele labels of f and their frequencies in that order."""
    labels = sorted(f)
    return labels, np.array([f[a] for a in labels], dtype=np.float64)


def _positions(index: Mapping[Allele, int], alleles) -> list[int]:
    """Indices of the given alleles under a label -> index map; UnknownAllele
    for a label outside it."""
    try:
        return [index[a] for a in alleles]
    except KeyError as exc:
        raise UnknownAllele(f"allele {exc.args[0]!r} absent from frequency support") from exc


def pair_probability(
    g1: LocusGenotype,
    g2: LocusGenotype,
    theta: ThetaIBD,
    f: Mapping[Allele, float],
) -> float:
    """Probability of the unordered genotype pair under the relationship."""
    labels, vec = _support(f)
    index = {label: i for i, label in enumerate(labels)}
    pos = _positions(index, g1.alleles + g2.alleles)
    pair1, pair2 = tuple(pos[:2]), tuple(pos[2:])
    # evaluate in a fixed orientation so the result is bitwise symmetric
    if pair1 > pair2:
        pair1, pair2 = pair2, pair1
    idx = np.array([[*pair1, *pair2]]).T
    p0, p1, p2, mult = pair_components(idx[0], idx[1], idx[2], idx[3], vec)
    value = mult * (theta.z0 * p0 + theta.z1 * p1 + theta.z2 * p2)
    return float(value[0])


def log_pair_probability(
    g1: LocusGenotype,
    g2: LocusGenotype,
    theta: ThetaIBD,
    f: Mapping[Allele, float],
) -> float:
    """log of pair_probability; -inf when the pair is structurally impossible."""
    p = pair_probability(g1, g2, theta, f)
    return math.log(p) if p > 0.0 else -math.inf


def categorical(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Category index of each uniform draw: the number of CDF entries at or
    below it, capped at the last category. ``cdf`` is (A,) or per-draw (n, A).
    """
    return np.minimum((u[:, None] >= cdf).sum(axis=1), cdf.shape[-1] - 1)


def genotypes_from_uniforms(cdf_rows: np.ndarray, u1: np.ndarray, u2: np.ndarray):
    """Map two uniform draws to canonically ordered allele index pairs.

    ``cdf_rows`` is the per-draw cumulative distribution, shape (n, A) or
    (A,); the same rows are used for both draws (HWE).
    """
    i = categorical(cdf_rows, u1)
    j = categorical(cdf_rows, u2)
    return np.minimum(i, j), np.maximum(i, j)


def related_from_uniforms(
    g1a: np.ndarray,
    g1b: np.ndarray,
    theta: ThetaIBD,
    cdf_rows: np.ndarray,
    uj: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
):
    """Second genotype of a related pair, from three uniforms per draw.

    Draws the IBD count J from (z0, z1, z2); J=0 takes a fresh HWE
    genotype, J=1 copies one uniformly chosen slot of g1 and draws the
    other allele, J=2 copies g1. Consumes a fixed number of uniforms per
    draw so replicate streams stay position-independent. The allele drawn
    from u2 is both the second fresh allele (J=0) and the new allele (J=1).
    """
    j = (uj >= theta.z0).astype(np.int8) + (uj >= theta.z0 + theta.z1)
    first = categorical(cdf_rows, u1)
    other = categorical(cdf_rows, u2)
    shared = np.where(u1 < 0.5, g1a, g1b)
    g2a = np.where(j == 0, np.minimum(first, other),
                   np.where(j == 1, np.minimum(shared, other), g1a))
    g2b = np.where(j == 0, np.maximum(first, other),
                   np.where(j == 1, np.maximum(shared, other), g1b))
    return g2a, g2b


def sample_genotype(
    f: Mapping[Allele, float], locus: str, rng: np.random.Generator
) -> LocusGenotype:
    """Draw one HWE genotype from a single-locus distribution."""
    labels, vec = _support(f)
    u = rng.random(2)
    a, b = genotypes_from_uniforms(np.cumsum(vec), u[:1], u[1:])
    return LocusGenotype(locus, (labels[int(a[0])], labels[int(b[0])]))


def sample_related(
    g1: LocusGenotype,
    theta: ThetaIBD,
    f: Mapping[Allele, float],
    rng: np.random.Generator,
) -> LocusGenotype:
    """Draw the relative's genotype at one locus, conditional on g1."""
    labels, vec = _support(f)
    index = {label: i for i, label in enumerate(labels)}
    a, b = (np.array([i]) for i in _positions(index, g1.alleles))
    u = rng.random(3)
    g2a, g2b = related_from_uniforms(a, b, theta, np.cumsum(vec), u[:1], u[1:2], u[2:])
    return LocusGenotype(g1.locus, (labels[int(g2a[0])], labels[int(g2b[0])]))
