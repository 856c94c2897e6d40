"""Null thresholds, power estimates, exact CIs, power curves, and
subpopulation bias analysis over simulated log-LR samples.

Threshold convention: rejection uses the strict inequality ``LR > c``.
The threshold for a false positive rate alpha is the ceil(B*(1-alpha))-th
order statistic of the null sample, so the realized FPR on the null
sample never exceeds alpha (ties count as non-rejections). Every alpha, in
a report or on a curve's grid, lies in (0, 1), and every interval is a 95%
one (``CI_LEVEL``). Success counts and sample sizes are integers.

A power's exact interval is Clopper and Pearson's (1934). Its bounds are beta
quantiles, computed here by ``_beta_quantile`` without scipy: each solves an
exact binomial tail, taken as one pmf value times a sum of term ratios, with
the pmf from Loader's (2000) saddle-point form or, for small counts, from the
binomial coefficient itself. Checked against that tail in exact arithmetic
(tests/oracles.py), every bound checked lies within 3 doubles of the true
one, and within 2 on the n <= 60 and million-trial grids, where scipy's
betaincinv strays by up to 58 and 84962 doubles.
"""

from __future__ import annotations

import functools
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


# ---------------------------------------------------------------------------
# beta quantiles for exact binomial intervals
#
# For positive integers a and b, Beta(a, b)'s CDF is a binomial tail:
# I_x(a, b) = P(Bin(a + b - 1, x) >= a). So its p-quantile is the x at which
# the smaller of the two tails, P(Bin >= a) = p or P(Bin <= a - 1) = 1 - p,
# takes its value. That tail is pmf(k) * (1 + S), where S sums the ratios
# pmf(k +- j) / pmf(k) away from k. Its log is solved for x by a safeguarded
# fourth-order Newton-type step, in log x, from Paulson's approximation.

# Loader's stirlerr(n) = log(n!) - log(sqrt(2 pi n) (n / e)^n) for n = 0..15
# (0 at n = 0 by convention); past 15 the Stirling series in _stirlerr is
# accurate to the last bit
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801)
_LN_2PI = math.log(2.0 * math.pi)
_MAX_STEPS = 200


def _stirlerr(n: float) -> float:
    if n < len(_STIRLERR):
        return _STIRLERR[int(n)]
    w = 1.0 / (n * n)
    return (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w * (
        1 / 1188 - w * (691 / 360360 - w / 156)))))) / n


def _bd0(x: float, M: float) -> float:
    """x log(x / M) + M - x, by its series in v = (x - M) / (x + M) where x is
    near M, so that it does not cancel (Loader 2000)."""
    d = x - M
    if abs(d) >= 0.1 * (x + M):
        return x * math.log(x / M) - d
    v = d / (x + M)
    w = v * v
    s, term, j = d * v, 2.0 * x * v, 3
    while True:
        term *= w
        nxt = s + term / j
        if nxt == s:
            return s
        s, j = nxt, j + 2


@functools.lru_cache(maxsize=16)
def _ndtri(p: float) -> float:
    """The standard normal p-quantile: a rational start (Abramowitz & Stegun
    26.2.23, within 4.5e-4) refined by Halley steps on ``math.erfc``."""
    r = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = r - (2.515517 + r * (0.802853 + r * 0.010328)) / (
        1.0 + r * (1.432788 + r * (0.189269 + r * 0.001308)))
    z = z if p > 0.5 else -z
    for _ in range(3):
        e = 0.5 * math.erfc(-z / math.sqrt(2.0)) - p
        u = e * math.sqrt(2.0 * math.pi) * math.exp(0.5 * z * z)
        z -= u / (1.0 + 0.5 * z * u)
    return z


class _Tail:
    """One quantile in the making: the y in (0, 1) at which P(Bin(m, y) >= k)
    (``upper``) or P(Bin(m, y) <= k) equals t <= 1/2. y is the quantile, or one
    minus it where ``flip`` reflects a quantile above 1/2; [lo, hi] brackets
    the root."""

    __slots__ = ("m", "k", "upper", "t", "flip", "y", "lo", "hi", "comb", "reach")

    def __init__(self, p: float, a: float, b: float):
        m = a + b - 1.0
        self.upper = p <= 0.5
        self.t, k = (p, a) if self.upper else (1.0 - p, a - 1.0)
        z = _ndtri(p)
        # Paulson's start: the cube root of an F(2a, 2b) variate is nearly normal
        c1, c2 = 1.0 / (9.0 * a), 1.0 / (9.0 * b)
        A, C, zz = 1.0 - c2, 1.0 - c1, z * z
        qa = A * A - zz * c2
        disc = zz * (A * A * c1 + C * C * c2 - zz * c1 * c2)
        u = 0.0
        if qa > 0.0 and disc >= 0.0:
            u = (A * C + math.copysign(math.sqrt(disc), z)) / qa
        if u > 0.0:
            F = a * u * u * u
            y = F / (F + b)
        else:   # far in a tail: I_y(a, b) ~ y^a / (a B(a, b)), or its mirror
            log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            y = (math.exp((math.log(p * a) + log_beta) / a) if p < 0.5
                 else -math.expm1((math.log((1.0 - p) * b) + log_beta) / b))
        # an iterate near 1 keeps few bits of 1 - y, so a quantile above 1/2
        # is found as 1 - y, by P(Bin(m, y) >= k) = P(Bin(m, 1 - y) <= m - k)
        self.flip = y > 0.5
        if self.flip:
            y, self.upper, k = 1.0 - y, not self.upper, m - k
        self.m, self.k, self.y, self.lo, self.hi = m, k, y, 0.0, 1.0
        # pmf(k): for k <= 30 or m <= 1000, C(m, k) y^k (1 - y)^(m - k) in
        # doubles, with C(m, k) from the exact math.comb; otherwise, or where
        # that product falls below the normal range, its log by Loader's
        # saddle-point form, whose error of about an ulp of 2 shrinks against
        # the tail's slope as k grows
        self.comb = None
        if k <= 30.0 or m <= 1000.0:
            self.comb = float(math.comb(int(m), int(k)))
        # terms fall below 2^-54 within about reach * sd of k, a normal tail
        # being z sd from the mean
        z = abs(z)
        self.reach = math.sqrt(z * z + 75.0) - z

    def log_ratio(self, y: float, S: float) -> float:
        """log(tail / t) at y, the tail being pmf(k) (1 + S)."""
        m, k = self.m, self.k
        q = 1.0 - y
        if self.comb is not None:
            # (1 - y)^(m - k) from the rounded q, times exp((m - k) * its error)
            pmf = self.comb * y ** k * q ** (m - k) * math.exp((m - k) * ((1.0 - q) - y) / q)
            if pmf > 1e-290:
                return math.log(pmf * (1.0 + S) / self.t)
        log_pmf = (_stirlerr(m) - _stirlerr(k) - _stirlerr(m - k) - _bd0(k, m * y)
                   - _bd0(m - k, m * q) - 0.5 * (_LN_2PI + math.log(k) + math.log1p(-k / m)))
        return log_pmf + math.log1p(S) - math.log(self.t)

    def terms(self) -> tuple[int, float, float, float]:
        """(count, rest, start, odds): the tail has rest terms after pmf(k),
        and the ratio pmf(k +- j) / pmf(k +- (j - 1)) of its j-th is
        (rest + 1 - j) odds / (start + j); the sum takes the first count."""
        y, m, k = self.y, self.m, self.k
        q = 1.0 - y
        rest, start, odds = (m - k, k, y / q) if self.upper else (k, m - k, q / y)
        return (min(int(rest), math.ceil(math.sqrt(m * y * q) * self.reach) + 16),
                rest, start, odds)

    def step(self, S: float, complete: bool) -> bool:
        """Moves y towards the root, given S, the sum of the terms' ratios to
        pmf(k), and whether the terms left out are negligible; True once y is
        the quantile."""
        y, m, k = self.y, self.m, self.k
        q = 1.0 - y
        # g = log(tail / t), increasing in y for the upper tail; terms still
        # rising put most of the mass in the tail
        g = self.log_ratio(y, S) if complete else math.inf
        if (g > 0.0) == self.upper:
            self.hi = y
        else:
            self.lo = y
        if math.isfinite(g):
            # g's derivatives in u = log y. With D = d tail / dy, r = y / (1 - y):
            # H = y D / tail is k / (1 + S) (upper) or -(m - k) r / (1 + S);
            # R1 = y D' / D and R2 = y^2 (D' / D)'; then g_u = H,
            # g_uu = H + G2 and g_uuu = H + 3 G2 + G3
            r = y / q
            if self.upper:
                H = k / (1.0 + S)
                R1, R2 = (k - 1.0) - (m - k) * r, -(k - 1.0) - (m - k) * r * r
            else:
                H = -(m - k) * r / (1.0 + S)
                R1, R2 = k - (m - k - 1.0) * r, -k - (m - k - 1.0) * r * r
            G2 = H * (R1 - H)
            G3 = G2 * (R1 - 2.0 * H) + H * R2
            # a step inverts g's cubic Taylor polynomial in u
            b2 = (H + G2) / (2.0 * H)
            b3 = (H + 3.0 * G2 + G3) / (6.0 * H)
            e = -g / H      # a Newton step in u, taken as it is while far off
            du = e if abs(e) > 0.5 else e * (1.0 + e * (2.0 * b2 * b2 * e - b3 * e - b2))
            y_new = y * math.exp(min(du, 700.0)) if abs(du) > 0.5 else y + y * math.expm1(du)
            if self.lo < y_new < self.hi or y_new == y:
                self.y = y_new
                # the step's error is of order g^4: below g's own rounding
                return abs(g) <= 1e-4
        self.y = math.sqrt(self.lo * self.hi) if self.lo > 0.0 else 0.5 * self.hi
        return False


def _tail_sums(tails: list[_Tail]) -> list[tuple[float, bool]]:
    """(S, complete) per tail: S sums its first count terms' ratios to
    pmf(k), a cumulative product and a sum over its own terms alone, so that
    a tail's S does not depend on the others; complete unless its last term
    is still above 2^-54 of the sum with terms left."""
    counts, rests, starts, odds = zip(*(t.terms() for t in tails))
    j = np.arange(1.0, max(counts) + 1.0)
    out = []
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        ratios = (np.array(rests) + 1.0)[:, None] - j     # past a tail's count: unread
        ratios *= np.array(odds)[:, None]
        ratios /= np.array(starts)[:, None] + j
        for row, count, rest in zip(ratios, counts, rests):
            terms = np.multiply.accumulate(row[:count], out=row[:count])
            S = float(np.add.reduce(terms))
            out.append((S, count == rest or float(terms[-1]) <= 2.0 ** -54 * (1.0 + S)))
    return out


def _beta_quantile(p, a, b) -> np.ndarray:
    """Beta(a, b)'s p-quantile, elementwise over the broadcast arrays, for
    positive integers a and b and p in (0, 1). a = 1 and b = 1 have closed
    forms. Against the exact binomial tails (tests/oracles.py) every quantile
    checked lies within 3 doubles of the true one; each value depends on its
    own (p, a, b) alone. Memory and time grow as sqrt(a + b): 4 ms at a + b =
    1e9."""
    p, a, b = np.broadcast_arrays(*(np.asarray(v, dtype=np.float64) for v in (p, a, b)))
    out = []
    for pi, ai, bi in zip(p.ravel().tolist(), a.ravel().tolist(), b.ravel().tolist()):
        if bi == 1.0:
            out.append(math.exp(math.log(pi) / ai))
        elif ai == 1.0:
            out.append(-math.expm1(math.log1p(-pi) / bi))
        else:
            out.append(_Tail(pi, ai, bi))
    tails = [t for t in out if type(t) is _Tail]
    for _ in range(_MAX_STEPS):
        if not tails:
            break
        tails = [t for t, s in zip(tails, _tail_sums(tails)) if not t.step(*s)]
    for t in tails:     # never seen with finite p: a NaN, not a hang
        t.y = math.nan
    return np.array([v if type(v) is float else 1.0 - v.y if v.flip else v.y
                     for v in out]).reshape(p.shape)


def _clopper_pearson(successes, trials):
    """(lo, hi) arrays of clopper_pearson's interval for each pair of checked
    counts s of n, from one ``_beta_quantile`` call: lo is Beta(s, n - s + 1)'s
    and hi Beta(s + 1, n - s)'s quantile at (1 -+ CI_LEVEL) / 2, lo is 0.0 at
    s = 0 and hi 1.0 at s = n."""
    s = np.asarray(successes, dtype=np.float64)
    f = np.asarray(trials, dtype=np.float64) - s
    a = 1.0 - CI_LEVEL
    lo, hi = _beta_quantile([[a / 2], [1 - a / 2]], [np.maximum(s, 1.0), s + 1.0],
                            [f + 1.0, np.maximum(f, 1.0)])
    return np.where(s == 0, 0.0, lo), np.where(f == 0, 1.0, hi)


def clopper_pearson(successes: int, trials: int):
    """Exact binomial 95% confidence interval from beta quantiles: 0.0 and
    1.0 at no and all successes, else each bound within a few doubles of the
    true quantile (``_beta_quantile``)."""
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
