"""Synthetic allele-frequency tables for desk-scale experiments.

The published Southeast Asian frequency tables are external data; this
generator produces structurally equivalent stand-ins. Per locus a base
distribution is drawn from a flat Dirichlet, and each subpopulation's
distribution is a Dirichlet perturbation around that base. ``divergence``
controls the perturbation scale: 0 makes all subpopulations identical,
larger values increase the expected total-variation distance between
them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameter
from .tables import DEFAULT_FLOOR, FrequencyTable, Subpopulation, _check_counts, _check_floor


def synth_frequency_table(
    n_subpops: int = 4,
    n_loci: int = 15,
    n_alleles: int = 8,
    divergence: float = 0.1,
    seed: int = 0,
    proportions: Optional[Sequence[float]] = None,
    sample_sizes: Optional[Sequence[int]] = None,
    floor: float = DEFAULT_FLOOR,
) -> FrequencyTable:
    """Generate a valid FrequencyTable with controllable substructure.

    Counts are checked by _check_counts (``n_alleles`` >= 2, ``seed`` >= 0,
    the others >= 1), proportions (equal by default) and sample sizes as
    given by Subpopulation; the proportions need a finite sum, by which they
    are scaled."""
    _check_counts(n_subpops=(n_subpops, 1), n_loci=(n_loci, 1), n_alleles=(n_alleles, 2),
                  seed=(seed, 0))
    if not (math.isfinite(divergence) and divergence >= 0):
        raise InvalidParameter(f"divergence must be finite and >= 0, got {divergence}")
    for what, given in (("proportions", proportions), ("sample sizes", sample_sizes)):
        if given is not None and len(given) != n_subpops:
            raise InvalidParameter(f"{len(given)} {what} for {n_subpops} subpops")
    _check_floor(floor, n_alleles)
    names = [f"S{k + 1}" for k in range(n_subpops)]
    subpops = tuple(map(
        Subpopulation, names,
        proportions if proportions is not None else [1.0 / n_subpops] * n_subpops,
        sample_sizes if sample_sizes is not None else [None] * n_subpops))
    total = float(sum(s.proportion for s in subpops))
    if not math.isfinite(total):
        raise InvalidParameter(f"proportions must have a finite sum, got {list(proportions)}")
    subpops = tuple(replace(s, proportion=s.proportion / total) for s in subpops)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    loci = [f"L{i + 1:02d}" for i in range(n_loci)]
    labels = [str(8 + a) for a in range(n_alleles)]  # STR-style repeat labels

    freqs: dict[str, dict[str, dict[str, float]]] = {name: {} for name in names}
    for locus in loci:
        base = rng.dirichlet(np.full(n_alleles, 2.0))
        for name in names:
            if divergence == 0.0:
                f = base
            else:
                f = rng.dirichlet(np.maximum(base / divergence, 1e-12))
            f = np.maximum(f, floor)
            f = f / f.sum()
            freqs[name][locus] = {a: float(x) for a, x in zip(labels, f)}
    return FrequencyTable(panel=tuple(loci), subpops=subpops,
                          freqs=freqs, floor=floor)
