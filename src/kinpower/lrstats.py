"""Likelihood-ratio statistics for one profile pair over a frequency table.

Seven statistics are computed, all in log scale:

* ``LAF``  - LR under the proportion-weighted local-average frequencies
* ``AVG``  - proportion-weighted mean of the per-subpop LRs
* ``MAX`` / ``MIN`` - extreme per-subpop LR
* ``RMAX`` / ``RMIN`` - ratio of the extreme likelihoods taken separately
  under the alternative and the null
* ``CB``   - LR under frequencies pooled into one homogeneous group

``lr_all`` is the simulation engine's kernel run on a single replicate
(B=1): both profiles are encoded in one pass, as allele indices in the
table's label order read from its ``label_index``, and go through the same
log-likelihood, chunked gather and sum, infinity rule and statistic code
as every simulated pair, so casework and simulation agree bit for bit.
It reads the table's compiled kernel (``engine._compile``: frequency
sets, AVG's log weights and memo key, built once per table and scheme),
and its cells go through the kernel's memo, as a run's do, so a pair
evaluates only cells that no earlier pair or run on the same table and
thetas has met; it builds none of the sampling CDFs the simulation path
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from .engine import STATISTICS, _check_inputs, _compile, _derive_block, _diff, _loglik_arrays
from .errors import InvalidParameter, PanelMismatch
from .ibd import ThetaIBD, _positions
from .tables import FrequencyTable, Profile


@dataclass(frozen=True)
class LrBreakdown:
    """Per-subpopulation log-likelihoods and all derived statistics."""

    subpops: tuple[str, ...]
    proportions: tuple[float, ...]
    loglik0: tuple[float, ...]        # per-subpop, null relationship
    loglik1: tuple[float, ...]        # per-subpop, alternative relationship
    loglik0_local: float
    loglik1_local: float
    loglik0_pooled: float
    loglik1_pooled: float
    stats: Mapping[str, float]        # log-scale statistic values

    @property
    def per_subpop_log_lr(self) -> tuple[float, ...]:
        with np.errstate(invalid="ignore"):
            return tuple(_diff(np.array(self.loglik1), np.array(self.loglik0)).tolist())


def _encode(alleles, table: FrequencyTable):
    """The (1, loci) label-order allele indices g1a, g1b, g2a, g2b of a pair of
    locus -> alleles maps, as one array filled in one pass; a label outside
    the table is an UnknownAllele naming its locus and profile, 1 before 2."""
    loci = tuple(zip(table.panel, table.label_index))
    try:
        idx = [index[by_locus[locus][j]]
               for by_locus in alleles for j in (0, 1) for locus, index in loci]
    except KeyError:
        for number, by_locus in enumerate(alleles, 1):
            for locus, index in loci:
                _positions(index, by_locus[locus], locus, number)
        raise
    return np.array(idx).reshape(4, 1, -1)


def lr_all(
    pair: Tuple[Profile, Profile],
    theta0: ThetaIBD,
    theta1: ThetaIBD,
    table: FrequencyTable,
    cb_weights: str = "auto",
) -> LrBreakdown:
    """Compute all seven statistics for one profile pair."""
    _check_inputs(table, theta0, theta1)
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2
            and all(isinstance(p, Profile) for p in pair)):
        raise InvalidParameter("pair must be two Profiles")
    alleles = [{g.locus: g.alleles for g in profile.genotypes} for profile in pair]
    for by_locus, profile in zip(alleles, pair):
        if by_locus.keys() != set(table.panel):
            raise PanelMismatch(
                f"profile loci {sorted(profile.loci)} do not cover panel {sorted(table.panel)}")

    kernel = _compile(table, cb_weights)
    ll = _loglik_arrays(kernel, *_encode(alleles, table), theta0, theta1)
    values = _derive_block(ll, kernel.logp)

    K = table.n_subpops
    row0, row1 = ll[:, 0].tolist()
    return LrBreakdown(subpops=tuple(s.name for s in table.subpops), proportions=table.proportions,
                       loglik0=tuple(row0[:K]), loglik1=tuple(row1[:K]),
                       loglik0_local=row0[K], loglik1_local=row1[K],
                       loglik0_pooled=row0[K + 1], loglik1_pooled=row1[K + 1],
                       stats={s: v.item() for s, v in values.items()})
