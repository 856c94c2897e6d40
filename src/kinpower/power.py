"""Null thresholds, power estimates, exact CIs, power curves, and
subpopulation bias analysis over simulated log-LR samples.

Threshold convention: rejection uses the strict inequality ``LR > c``.
The threshold for a false positive rate alpha is the ceil(B*(1-alpha))-th
order statistic of the null sample, so the realized FPR on the null
sample never exceeds alpha (ties count as non-rejections).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass
from typing import Mapping, Optional, Sequence, TextIO, Union

import numpy as np
from scipy import stats as sps

from .engine import SampleMatrix
from .errors import (AlphaTooSmallForB, EmptySubpopSample, InvalidParameter,
                     SmallSampleWarning)
from .tables import _read_rows, _write_rows

DEFAULT_CURVE_GRID = tuple(np.geomspace(1e-6, 4e-5, 30))

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


def _order_statistic(x: np.ndarray, alpha: float, select) -> float:
    """The ceil(n*(1-alpha))-th smallest of the n values in x, or -inf when
    that rank is 0; ``select(i)`` returns the value of 0-based rank i."""
    if alpha * x.size < 10:
        warnings.warn(
            f"alpha*B = {alpha * x.size:.3g} < 10; threshold estimate is unstable",
            AlphaTooSmallForB,
        )
    k = math.ceil(x.size * (1.0 - alpha))
    return -math.inf if k <= 0 else float(select(k - 1))


def null_threshold(null_samples: np.ndarray, alpha: float) -> float:
    """Empirical threshold c with realized P(x > c) <= alpha on the sample."""
    if not (0.0 < alpha < 1.0):
        raise InvalidParameter(f"alpha must be in (0, 1), got {alpha}")
    x = np.asarray(null_samples, dtype=np.float64)
    if x.size == 0:
        raise InvalidParameter("null sample is empty")
    return _order_statistic(x, alpha, lambda i: np.partition(x, i)[i])


def clopper_pearson(successes: int, trials: int, level: float = 0.95):
    """Exact binomial confidence interval from beta quantiles."""
    if not (0 <= successes <= trials) or trials <= 0:
        raise InvalidParameter(f"bad counts ({successes}, {trials})")
    a = 1.0 - level
    lo = 0.0 if successes == 0 else float(
        sps.beta.ppf(a / 2, successes, trials - successes + 1))
    hi = 1.0 if successes == trials else float(
        sps.beta.ppf(1 - a / 2, successes + 1, trials - successes))
    return lo, hi


def power(alt_samples: np.ndarray, threshold_log: float, level: float = 0.95):
    """Exceedance proportion over the threshold plus its exact 95% CI."""
    x = np.asarray(alt_samples, dtype=np.float64)
    if x.size == 0:
        raise InvalidParameter("alternative sample is empty")
    hits = int(np.count_nonzero(x > threshold_log))
    est = hits / x.size
    return est, clopper_pearson(hits, x.size, level)


def power_curves(
    null_samples: np.ndarray,
    alt_samples: Mapping[str, np.ndarray],
    alpha_grid: Sequence[float],
) -> list[PowerCurve]:
    """One curve per named alternative sample, in mapping order, each an
    (alpha, power) point per grid entry. The null sample is sorted once and
    each alpha's threshold read from it once, for every curve."""
    grid = list(alpha_grid)
    for alpha in grid:
        if not alpha >= 0.0:
            raise InvalidParameter(f"alpha grid values must be >= 0, got {alpha}")
    if grid != sorted(grid):
        raise InvalidParameter("alpha grid must be sorted ascending")
    x = np.sort(np.asarray(null_samples, dtype=np.float64))
    alts = {name: np.asarray(alt, dtype=np.float64) for name, alt in alt_samples.items()}
    if x.size == 0:
        raise InvalidParameter("null sample is empty")
    if any(alt.size == 0 for alt in alts.values()):
        raise InvalidParameter("alternative sample is empty")
    thresholds = [-math.inf if alpha >= 1.0 else _order_statistic(x, alpha, lambda i: x[i])
                  for alpha in grid]
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


def subpop_power(alt: SampleMatrix, statistic: str, threshold_log: float, k: int,
                 level: float = 0.95):
    """Power restricted to alternative pairs tagged with subpopulation k."""
    mask = alt.subpop_tags == k
    n = int(mask.sum())
    if n == 0:
        raise EmptySubpopSample(f"no alternative replicates tagged subpop {k}")
    est, ci = power(alt.statistics[statistic][mask], threshold_log, level)
    return est, n, ci


def power_diff_ci(power_i: float, n_i: int, power_j: float, n_j: int,
                  level: float = 0.95,
                  subpop_i: str = "", subpop_j: str = "") -> DiffCI:
    """Wald interval for a difference of two power estimates."""
    if min(n_i, n_j) < 30:
        warnings.warn(
            f"sample sizes ({n_i}, {n_j}) too small for the normal approximation",
            SmallSampleWarning,
        )
    est = power_i - power_j
    z = sps.norm.ppf(1 - (1 - level) / 2)
    half = z * math.sqrt(power_i * (1 - power_i) / n_i + power_j * (1 - power_j) / n_j)
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
    level: float = 0.95,
) -> PowerReport:
    """Threshold, power, exact CI and per-subpop (power, n, CI) for one cell."""
    c = null_threshold(null.statistics[statistic], alpha)
    est, ci = power(alt.statistics[statistic], c, level)
    by_subpop = {}
    for k, name in enumerate(alt.subpop_names):
        try:
            by_subpop[name] = subpop_power(alt, statistic, c, k, level)
        except EmptySubpopSample:
            continue
    return PowerReport(
        statistic=statistic,
        alpha=alpha,
        threshold_log=c,
        power=est,
        ci_low=ci[0],
        ci_high=ci[1],
        per_subpop=by_subpop,
    )


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
