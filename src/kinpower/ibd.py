"""Genotype-pair probabilities under an IBD relationship, and the draw rules.

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

P1 averages, over the two slots of the first genotype (a, b), the chance
of drawing the second genotype (c, d) when that slot's allele is the one
shared: f_d when the slot holds c, f_c when it holds d (c != d), f_c for
a homozygous (c, c), and 0 otherwise. ``pair_components`` picks those
terms without a branch: it counts the slots equal to c (nc) and, for a
heterozygous second genotype only, those equal to d (nd), and sums
f_d * nc + f_c * nd. Multiplying by a count of 0, 1 or 2 is exact, so this
is the sum of the per-slot terms to the last bit.

The module also holds the two rules the engine's sampler is built from:
``categorical``, the one definition of an allele draw, and
``related_from_uniforms``, the step that draws a relative's genotype.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from .errors import InvalidParameter, PanelMismatch, UnknownAllele
from .tables import Allele, LocusGenotype, _check_frequencies

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
    het1 = g1a != g1b
    het2 = g2a != g2b
    pg1 = f.take(g1a, axis=-1) * f.take(g1b, axis=-1) * np.where(het1, 2.0, 1.0)
    fa2, fb2 = f.take(g2a, axis=-1), f.take(g2b, axis=-1)
    p0 = pg1 * (fa2 * fb2 * np.where(het2, 2.0, 1.0))

    # slots of g1 holding g2's first allele (nc) and, for a heterozygous g2,
    # its second (nd); P1 from these counts as in the module docstring. The
    # float operand makes the sums counts, where bool + bool would be an or.
    nc = (g1a == g2a) + (g1b == g2a) * 1.0
    nd = ((g1a == g2b) + (g1b == g2b) * 1.0) * het2
    p1 = pg1 * 0.5 * (fb2 * nc + fa2 * nd)
    same = (g1a == g2a) & (g1b == g2b)
    p2 = pg1 * same
    mult = np.where(same, 1.0, 2.0)
    return p0, p1, p2, mult


def _positions(index: Mapping[Allele, int], alleles, locus: str, profile: int = 0) -> list[int]:
    """Indices of the given alleles under a label -> index map; UnknownAllele
    for a label outside it, naming its locus and, if nonzero, the number of
    its profile in a pair."""
    try:
        return [index[a] for a in alleles]
    except KeyError as exc:
        where = f"locus {locus!r}" + (f" of profile {profile}" if profile else "")
        raise UnknownAllele(f"allele {exc.args[0]!r} at {where} absent from frequency "
                            "support") from exc


def pair_probability(
    g1: LocusGenotype,
    g2: LocusGenotype,
    theta: ThetaIBD,
    f: Mapping[Allele, float],
) -> float:
    """Probability of the unordered genotype pair under the relationship.

    Both genotypes must be at one locus, else PanelMismatch. ``f`` maps each
    allele to its frequency under a FrequencyTable's rule: every one finite
    and >= 0 (else NonPositiveFrequency), the sum 1 within FREQ_SUM_TOL (else
    InvalidParameter)."""
    if g1.locus != g2.locus:
        raise PanelMismatch(f"genotypes at two loci, {g1.locus!r} and {g2.locus!r}")
    labels = sorted(f)
    vec = np.array([f[a] for a in labels], dtype=np.float64)
    _check_frequencies(vec[None], lambda _: f"locus {g1.locus!r}, given {dict(f)}")
    index = {label: i for i, label in enumerate(labels)}
    pair1, pair2 = (tuple(_positions(index, g.alleles, g.locus)) for g in (g1, g2))
    # evaluate in a fixed orientation so the result is bitwise symmetric
    if pair1 > pair2:
        pair1, pair2 = pair2, pair1
    idx = np.array([[*pair1, *pair2]]).T
    p0, p1, p2, mult = pair_components(idx[0], idx[1], idx[2], idx[3], vec)
    value = mult * (theta.z0 * p0 + theta.z1 * p1 + theta.z2 * p2)
    return float(value[0])


def categorical(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Category index of each uniform draw: the number of CDF entries at or
    below it, capped at the last category. ``cdf`` is (A,) or per-draw (n, A).

    This is the package's one definition of a draw. The engine reads most
    draws from a guide table that caches these values per bucket of [0, 1)
    and passes the rest here (``engine._sampler``).
    """
    return np.minimum((u[:, None] >= cdf).sum(axis=1), cdf.shape[-1] - 1)


def related_from_uniforms(
    g1a: np.ndarray,
    g1b: np.ndarray,
    theta: ThetaIBD,
    uj: np.ndarray,
    u1: np.ndarray,
    first: np.ndarray,
    other: np.ndarray,
):
    """Second genotype of a related pair, from three uniforms per draw.

    ``first`` and ``other`` are the alleles ``categorical`` draws from u1
    and from a third uniform. J, the number of alleles shared IBD, is 0 for
    uj < z0, 2 for uj >= z0 + z1 and 1 between: J=0 takes the fresh
    genotype (first, other), J=1 keeps the slot of g1 that u1 picks (a if
    u1 < 0.5, else b) beside ``other``, and J=2 copies g1. Consuming a fixed
    number of uniforms per draw keeps replicate streams position-independent.
    Arrays of any one shape work elementwise; the result is canonically
    ordered (a <= b).
    """
    # choices are 0/1 masks times differences: on masks as random as these,
    # np.where is 3 (int64) to 20 (int8) times slower
    shared = g1b + (u1 < 0.5) * (g1a - g1b)
    kept = shared + (uj < theta.z0) * (first - shared)
    g2a, g2b = np.minimum(kept, other), np.maximum(kept, other)
    ibd2 = uj >= theta.z0 + theta.z1
    g2a += ibd2 * (g1a - g2a)
    g2b += ibd2 * (g1b - g2b)
    return g2a, g2b
