"""Null thresholds, power estimates, exact CIs, power curves, and
subpopulation bias analysis over simulated log-LR samples.

Threshold convention: rejection uses the strict inequality ``LR > c``.
The threshold for a false positive rate alpha is the ceil(B*(1-alpha))-th
order statistic of the null sample, so the realized FPR on the null
sample never exceeds alpha (ties count as non-rejections). Every alpha, in
a report or on a curve's grid, lies in (0, 1), and every interval is a 95%
one (``CI_LEVEL``). Success counts and sample sizes are integers.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from .engine import SampleMatrix, _checked_tags
from .errors import (AlphaTooSmallForB, EmptySubpopSample, InvalidParameter,
                     SmallSampleWarning)
from .tables import _is_integer, _read_rows, _write_rows

DEFAULT_CURVE_GRID = tuple(np.geomspace(1e-6, 4e-5, 30))
CI_LEVEL = 0.95
_Z = 1.959963984540054  # the Wald intervals' normal quantile, ndtri(0.975) at CI_LEVEL

_REPORT_COLUMNS = ("statistic", "alpha", "threshold", "power", "ci_low", "ci_high")
_CURVE_COLUMNS = ("statistic", "alpha", "power")
_DIFF_CI_COLUMNS = ("subpop_i", "subpop_j", "estimate", "ci_low", "ci_high")


@dataclass(frozen=True)
class PowerReport:
    statistic: str
    alpha: float
    threshold_log: float
    power: float
    ci_low: float
    ci_high: float
    per_subpop: dict[str, tuple[float, int, tuple[float, float]]]

    @property
    def threshold(self) -> float:
        """Linear-scale threshold (matches published table conventions)."""
        return _linear(self.threshold_log)


@dataclass(frozen=True)
class PowerCurve:
    statistic: str
    points: tuple[tuple[float, float], ...]  # (alpha, power)


@dataclass(frozen=True)
class DiffCI:
    subpop_i: str
    subpop_j: str
    estimate: float
    ci_low: float
    ci_high: float


def _linear(log_value: float) -> float:
    """exp(log_value) for display, or inf where that passes float range."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return math.inf


def _check_alpha(alpha: float) -> float:
    """``alpha``, which as a false positive rate must lie in (0, 1); NaN does not."""
    if not 0.0 < alpha < 1.0:
        raise InvalidParameter(f"alpha {alpha} not in (0, 1)")
    return alpha


def _rank(n: int, alpha: float) -> int:
    """0-based rank ceil(n*(1-alpha)) - 1 of the threshold among n sorted null
    values, at least 0 for alpha < 1."""
    if alpha * n < 10:
        warnings.warn(
            f"alpha*B = {alpha * n:.3g} < 10; threshold estimate is unstable",
            AlphaTooSmallForB,
        )
    return math.ceil(n * (1.0 - alpha)) - 1


def _sample(samples: np.ndarray, which: str) -> np.ndarray:
    """``samples`` as float64; one that is empty or not one-dimensional is an
    InvalidParameter."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidParameter(f"{which} sample must be one-dimensional, got shape {x.shape}")
    if x.size == 0:
        raise InvalidParameter(f"{which} sample is empty")
    return x


def null_threshold(null_samples: np.ndarray, alpha: float) -> float:
    """Empirical threshold c with realized P(x > c) <= alpha on the sample."""
    _check_alpha(alpha)
    x = _sample(null_samples, "null")
    i = _rank(x.size, alpha)
    return float(np.partition(x, i)[i])


def _clopper_pearson(successes, trials):
    """(lo, hi) arrays of clopper_pearson's interval for each pair of checked
    counts, from one betaincinv call; lo is 0.0 at 0 and hi 1.0 at ``trials``."""
    from scipy.special import betaincinv  # here, so that `import kinpower` loads no scipy
    s = np.asarray(successes, dtype=np.float64)
    f = np.asarray(trials, dtype=np.float64) - s
    a = 1.0 - CI_LEVEL
    lo, hi = betaincinv([s, s + 1], [f + 1, f], [[a / 2], [1 - a / 2]])
    return np.where(s == 0, 0.0, lo), np.where(f == 0, 1.0, hi)


def clopper_pearson(successes: int, trials: int):
    """Exact binomial 95% confidence interval from beta quantiles."""
    if not (_is_integer(successes) and _is_integer(trials)
            and 0 <= successes <= trials and trials > 0):
        raise InvalidParameter(f"bad counts ({successes}, {trials})")
    lo, hi = _clopper_pearson([successes], [trials])
    return float(lo[0]), float(hi[0])


def power(alt_samples: np.ndarray, threshold_log: float):
    """Exceedance proportion over the threshold plus its exact 95% CI."""
    x = _sample(alt_samples, "alternative")
    hits = int(np.count_nonzero(x > threshold_log))
    est = hits / x.size
    return est, clopper_pearson(hits, x.size)


def power_curves(
    null_samples: np.ndarray,
    alt_samples: Mapping[str, np.ndarray],
    alpha_grid: Sequence[float],
) -> list[PowerCurve]:
    """One curve per named alternative sample, in mapping order, each an
    (alpha, power) point per grid entry. The null sample is sorted once and
    each alpha's threshold read from it once, for every curve."""
    grid = [_check_alpha(alpha) for alpha in alpha_grid]
    if grid != sorted(grid):
        raise InvalidParameter("alpha grid must be sorted ascending")
    x = np.sort(_sample(null_samples, "null"))
    alts = {name: _sample(alt, "alternative") for name, alt in alt_samples.items()}
    thresholds = [float(x[_rank(x.size, alpha)]) for alpha in grid]
    return [PowerCurve(statistic=name, points=tuple(
                (alpha, float(np.count_nonzero(alt > c)) / alt.size)
                for alpha, c in zip(grid, thresholds)))
            for name, alt in alts.items()]


def power_curve(
    null_samples: np.ndarray,
    alt_samples: np.ndarray,
    alpha_grid: Sequence[float],
    statistic: str = "",
) -> PowerCurve:
    """One (alpha, power) point per grid entry; see power_curves."""
    return power_curves(null_samples, {statistic: alt_samples}, alpha_grid)[0]


def _subpop_counts(alt: SampleMatrix, statistic: str, threshold_log: float):
    """(hits, n) over alt's K subpops, one bincount of the tags each: the
    replicates whose ``statistic`` lies above ``threshold_log``, and all. A
    bad column or tag is an InvalidParameter (``_sample``, ``_checked_tags``)."""
    over = _sample(alt.statistics[statistic], "alternative") > threshold_log
    tags = _checked_tags(alt, (statistic,))
    K = len(alt.subpop_names)
    return np.bincount(tags[over], minlength=K), np.bincount(tags, minlength=K)


def subpop_power(alt: SampleMatrix, statistic: str, threshold_log: float, k: int):
    """Power restricted to alternative pairs tagged with subpopulation k, an
    integer in [0, K)."""
    K = len(alt.subpop_names)
    if not (_is_integer(k) and 0 <= k < K):
        raise InvalidParameter(f"subpop index {k!r} not an integer in [0, {K})")
    hits, n = (int(counts[k]) for counts in _subpop_counts(alt, statistic, threshold_log))
    if n == 0:
        raise EmptySubpopSample(f"no alternative replicates tagged subpop {k}")
    return hits / n, n, clopper_pearson(hits, n)


def power_diff_ci(power_i: float, n_i: int, power_j: float, n_j: int,
                  subpop_i: str = "", subpop_j: str = "") -> DiffCI:
    """Wald 95% interval for a difference of two power estimates."""
    if not (_is_integer(n_i) and _is_integer(n_j) and min(n_i, n_j) >= 1):
        raise InvalidParameter(f"sample sizes must be integers >= 1, got ({n_i}, {n_j})")
    if not (0.0 <= power_i <= 1.0 and 0.0 <= power_j <= 1.0):
        raise InvalidParameter(f"powers must be in [0, 1], got ({power_i}, {power_j})")
    if min(n_i, n_j) < 30:
        warnings.warn(
            f"sample sizes ({n_i}, {n_j}) too small for the normal approximation",
            SmallSampleWarning,
        )
    est = power_i - power_j
    half = _Z * math.sqrt(power_i * (1 - power_i) / n_i + power_j * (1 - power_j) / n_j)
    return DiffCI(
        subpop_i=subpop_i,
        subpop_j=subpop_j,
        estimate=est,
        ci_low=max(-1.0, est - half),
        ci_high=min(1.0, est + half),
    )


def power_report(
    null: SampleMatrix,
    alt: SampleMatrix,
    statistic: str,
    alpha: float,
) -> PowerReport:
    """Threshold, power, exact CI and per-subpop (power, n, CI) for one cell,
    leaving out subpops with no alternative replicate: one ``_subpop_counts``
    pass counts every subpop, one ``_clopper_pearson`` gives every CI."""
    c = null_threshold(null.statistics[statistic], alpha)
    hits, n = _subpop_counts(alt, statistic, c)
    used = np.flatnonzero(n)
    successes = np.concatenate(([hits.sum()], hits[used]))
    trials = np.concatenate(([alt.B], n[used]))
    lo, hi = _clopper_pearson(successes, trials)
    (est, _, ci), *by_subpop = zip((successes / trials).tolist(), trials.tolist(),
                                   zip(lo.tolist(), hi.tolist()))
    names = (alt.subpop_names[k] for k in used.tolist())
    return PowerReport(statistic=statistic, alpha=alpha, threshold_log=c, power=est,
                       ci_low=ci[0], ci_high=ci[1], per_subpop=dict(zip(names, by_subpop)))


# ---------------------------------------------------------------------------
# plot-ready emitters and their readers

def _read_dicts(source: Union[str, TextIO], columns: Sequence[str], text: int) -> list[dict]:
    return [dict(zip(columns, cells)) for _, cells in _read_rows(source, columns, text)]


def write_power_reports_csv(reports: Sequence[PowerReport],
                            sink: Optional[TextIO] = None) -> Optional[str]:
    return _write_rows(
        _REPORT_COLUMNS,
        ([r.statistic, r.alpha, r.threshold_log, r.power, r.ci_low, r.ci_high]
         for r in reports),
        sink)


def read_power_reports_csv(source: Union[str, TextIO]) -> list[dict]:
    return _read_dicts(source, _REPORT_COLUMNS, 1)


def power_reports_json(reports: Sequence[PowerReport]) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2, sort_keys=True)


def write_power_curves_csv(curves: Sequence[PowerCurve],
                           sink: Optional[TextIO] = None) -> Optional[str]:
    return _write_rows(
        _CURVE_COLUMNS,
        ([curve.statistic, alpha, est] for curve in curves for alpha, est in curve.points),
        sink)


def read_power_curves_csv(source: Union[str, TextIO]) -> list[dict]:
    return _read_dicts(source, _CURVE_COLUMNS, 1)


def write_diff_cis_csv(diffs: Sequence[DiffCI],
                       sink: Optional[TextIO] = None) -> Optional[str]:
    return _write_rows(
        _DIFF_CI_COLUMNS,
        ([d.subpop_i, d.subpop_j, d.estimate, d.ci_low, d.ci_high] for d in diffs),
        sink)


def read_diff_cis_csv(source: Union[str, TextIO]) -> list[dict]:
    return _read_dicts(source, _DIFF_CI_COLUMNS, 2)
