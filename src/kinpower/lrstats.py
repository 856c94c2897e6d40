"""Likelihood-ratio statistics for one profile pair over a frequency table.

Seven statistics are computed, all in log scale:

* ``LAF``  - LR under the proportion-weighted local-average frequencies
* ``AVG``  - proportion-weighted mean of the per-subpop LRs
* ``MAX`` / ``MIN`` - extreme per-subpop LR
* ``RMAX`` / ``RMIN`` - ratio of the extreme likelihoods taken separately
  under the alternative and the null
* ``CB``   - LR under frequencies pooled into one homogeneous group

``lr_all`` is the simulation engine's kernel run on a single replicate
(B=1): the pair is encoded as allele indices in the table's label order,
read from the table's ``label_index``, and goes through the same
log-likelihood, infinity rule and statistic code as every simulated pair,
so casework and simulation agree bit for bit. Its loci go to the kernel
in one ``pair_components`` call, and it builds none of the sampling CDFs
the simulation path needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

import numpy as np

from .engine import STATISTICS, _compile, _derive_block, _diff, _loglik_arrays
from .errors import PanelMismatch
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
        return tuple(_diff(np.array(self.loglik1), np.array(self.loglik0)).tolist())


def _encode(profile: Profile, table: FrequencyTable):
    """(1, loci) allele-index arrays of one profile, in the table's label order."""
    alleles = {g.locus: g.alleles for g in profile.genotypes}
    idx = np.array([_positions(index, alleles[locus])
                    for locus, index in zip(table.panel, table.label_index)],
                   dtype=np.int64).reshape(1, -1, 2)
    return idx[..., 0], idx[..., 1]


def lr_all(
    pair: Tuple[Profile, Profile],
    theta0: ThetaIBD,
    theta1: ThetaIBD,
    table: FrequencyTable,
    cb_weights: str = "auto",
) -> LrBreakdown:
    """Compute all seven statistics for one profile pair."""
    for profile in pair:
        if set(profile.loci) != set(table.panel):
            raise PanelMismatch(
                f"profile loci {sorted(profile.loci)} do not cover panel {sorted(table.panel)}")

    full = _compile(table, cb_weights)
    g1a, g1b = _encode(pair[0], table)
    g2a, g2b = _encode(pair[1], table)
    ll0, ll1 = _loglik_arrays(full, table.offsets[:-1], g1a, g1b, g2a, g2b, theta0, theta1)
    values = _derive_block(ll0, ll1, np.log(table.proportions))

    K = table.n_subpops
    return LrBreakdown(
        subpops=tuple(s.name for s in table.subpops),
        proportions=table.proportions,
        loglik0=tuple(ll0[0, :K].tolist()),
        loglik1=tuple(ll1[0, :K].tolist()),
        loglik0_local=float(ll0[0, K]),
        loglik1_local=float(ll1[0, K]),
        loglik0_pooled=float(ll0[0, K + 1]),
        loglik1_pooled=float(ll1[0, K + 1]),
        stats={s: float(v[0]) for s, v in values.items()},
    )
