"""Allele frequency tables, STR profiles, and their ingestion/validation.

Frequency CSV schema (UTF-8, header row)::

    subpop,locus,allele,freq

one row per (subpop, locus, allele). A companion metadata file (plain
``key = value`` text, ``#`` comments allowed) carries the subpopulation
names, mixing proportions, optional sample sizes, the panel locus order,
and the frequency floor; any other key, or a key given twice, is an error::

    subpops      = North, Northeast, Central, South
    proportions  = 0.1108, 0.3695, 0.3538, 0.1659
    sample_sizes = 202, 304, 212, 211
    panel        = FGA, TH01, TPOX
    floor        = 1e-5

Profile CSV schema: ``locus,allele1,allele2`` per row.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Mapping, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import (
    DuplicateAllele,
    InvalidParameter,
    MalformedRow,
    MissingLocusForSubpop,
    MissingSampleSizes,
    NonPositiveFrequency,
    PanelMismatch,
    ProportionSumOutOfTolerance,
)

DEFAULT_FLOOR = 1e-5
PROPORTION_TOL = 1e-4
FREQ_SUM_TOL = 1e-6

_FREQ_COLUMNS = ("subpop", "locus", "allele", "freq")
_PROFILE_COLUMNS = ("locus", "allele1", "allele2")
# Each metadata key, in file order: the type of its values, and whether it
# holds a comma-separated list of them (floor is one number).
_META_KEYS = {"subpops": (str, True), "proportions": (float, True),
              "sample_sizes": (int, True), "panel": (str, True), "floor": (float, False)}
# the CB pooling schemes of _pool_weights
CB_WEIGHTS = ("auto", "census", "samples", "equal")

# An allele is an opaque string token; STR nomenclature includes
# microvariants such as "9.3", so labels are never parsed as numbers.
Allele = str


@dataclass(frozen=True, order=True)
class LocusGenotype:
    """Unordered genotype at one locus, stored in canonical sorted order."""

    locus: str
    alleles: tuple[Allele, Allele]

    def __post_init__(self):
        a, b = self.alleles
        if not a or not b:
            raise MalformedRow(f"empty allele label at locus {self.locus!r}")
        if a > b:
            object.__setattr__(self, "alleles", (b, a))

    @property
    def is_homozygote(self) -> bool:
        return self.alleles[0] == self.alleles[1]


@dataclass(frozen=True)
class Profile:
    """A multi-locus genotype; loci must be distinct."""

    genotypes: tuple[LocusGenotype, ...]

    def __post_init__(self):
        loci = [g.locus for g in self.genotypes]
        if len(set(loci)) != len(loci):
            raise MalformedRow("profile contains duplicate loci")

    @property
    def loci(self) -> tuple[str, ...]:
        return tuple(g.locus for g in self.genotypes)

    def genotype(self, locus: str) -> LocusGenotype:
        for g in self.genotypes:
            if g.locus == locus:
                return g
        raise PanelMismatch(f"profile has no genotype for locus {locus!r}")


def _is_integer(value) -> bool:
    """True for an int or a numpy integer: whatever operator.index accepts."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


def _check_counts(**counts) -> None:
    """The one count rule: each keyword names a (value, minimum) pair whose
    value must be an integer (see _is_integer) no smaller than the minimum;
    InvalidParameter otherwise."""
    for name, (value, minimum) in counts.items():
        if not _is_integer(value):
            raise InvalidParameter(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise InvalidParameter(f"{name} must be >= {minimum}, got {value}")


@dataclass(frozen=True)
class Subpopulation:
    """A name, a mixing proportion (finite and > 0, else a
    ProportionSumOutOfTolerance; their sum is the table's rule) and an
    optional sample size (an integer >= 1, see _check_counts)."""

    name: str
    proportion: float
    sample_size: Optional[int] = None

    def __post_init__(self):
        if not (math.isfinite(self.proportion) and self.proportion > 0.0):
            raise ProportionSumOutOfTolerance(
                f"subpop {self.name!r} proportion {self.proportion} must be finite and > 0")
        if self.sample_size is not None:
            _check_counts(**{f"subpop {self.name!r} sample size": (self.sample_size, 1)})


def _check_proportion_sum(subpops: Sequence[Subpopulation]) -> float:
    """The subpops' proportions summed in order; ProportionSumOutOfTolerance
    when the sum misses 1 by more than PROPORTION_TOL."""
    total = sum(s.proportion for s in subpops)
    if abs(total - 1.0) > PROPORTION_TOL:
        raise ProportionSumOutOfTolerance(
            f"proportions sum to {total}, outside tolerance {PROPORTION_TOL}")
    return total


def _check_frequencies(block: np.ndarray, where: Callable[[int], str]) -> None:
    """The one frequency rule: each row of ``block`` (named ``where(row)``)
    is finite and >= 0, else NonPositiveFrequency, and sums to 1 within
    FREQ_SUM_TOL, else InvalidParameter."""
    valid = (np.isfinite(block) & (block >= 0.0)).all(axis=1).tolist()
    for k, (ok, total) in enumerate(zip(valid, block.sum(axis=1).tolist())):
        if not ok:
            raise NonPositiveFrequency(f"{where(k)}: frequencies must be finite and >= 0")
        if abs(total - 1.0) > FREQ_SUM_TOL:
            raise InvalidParameter(f"{where(k)}: frequencies sum to {total}, outside "
                                   f"tolerance {FREQ_SUM_TOL}")


@dataclass(frozen=True)
class FrequencyTable:
    """Validated, floored, renormalized per-subpopulation allele frequencies.

    ``freqs`` is a copy, in plain dicts, of the constructor argument's
    entries for the table's subpops and panel loci, each distribution in its
    given key order; entries outside them are dropped, so ``==`` ignores
    them, and a later change to the argument changes nothing here.
    Everything else is derived from the copy, laid out once and left out of
    ``==`` and ``repr``: ``labels``, the sorted allele labels per panel
    locus; ``label_index``, per panel locus the map from a label to its
    position in ``labels``; ``matrix``, a read-only float64 (K, sum of A)
    array with a row per subpop and the loci side by side in panel order,
    columns in ``labels`` order; and ``offsets``, so that locus i is
    ``matrix[:, offsets[i]:offsets[i + 1]]``. Construction raises
    MissingLocusForSubpop when ``freqs`` lacks a subpop or panel locus,
    PanelMismatch when subpops list different alleles at a locus,
    ProportionSumOutOfTolerance when the proportions miss 1 by more than
    PROPORTION_TOL, NonPositiveFrequency on a floor outside
    :func:`_check_floor`'s range or a non-finite or negative frequency, and
    InvalidParameter when the panel is empty, a panel locus or subpop name
    is repeated, or a subpop's frequencies at a locus miss 1 by more than
    FREQ_SUM_TOL.

    Immutable after construction; safe for shared read access from any
    number of concurrent workers.
    """

    panel: tuple[str, ...]
    subpops: tuple[Subpopulation, ...]
    freqs: Mapping[str, Mapping[str, Mapping[Allele, float]]]  # subpop -> locus -> allele -> freq
    floor: float = DEFAULT_FLOOR
    labels: tuple[tuple[Allele, ...], ...] = field(init=False, compare=False, repr=False)
    label_index: tuple[Mapping[Allele, int], ...] = field(init=False, compare=False, repr=False)
    matrix: np.ndarray = field(init=False, compare=False, repr=False)
    offsets: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.panel:
            raise InvalidParameter("a frequency table needs at least one locus")
        subpop_names = [s.name for s in self.subpops]
        for what, names in (("locus", self.panel), ("subpopulation", subpop_names)):
            if len(set(names)) != len(names):
                raise InvalidParameter(f"a frequency table names each {what} once; "
                                       f"got {list(names)}")
        _check_proportion_sum(self.subpops)
        try:
            freqs = {s.name: {locus: dict(self.freqs[s.name][locus]) for locus in self.panel}
                     for s in self.subpops}
        except KeyError as exc:
            raise MissingLocusForSubpop(f"freqs has no entry for {exc.args[0]!r}") from None
        dists = [list(freqs[s.name].values()) for s in self.subpops]
        labels = tuple(tuple(sorted(d)) for d in dists[0])
        for sp, by_locus in zip(self.subpops, dists):
            for locus, support, d in zip(self.panel, labels, by_locus):
                if tuple(sorted(d)) != support:
                    raise PanelMismatch(f"subpop {sp.name!r} lists other alleles at locus "
                                        f"{locus!r} than subpop {self.subpops[0].name!r}")
        _check_floor(self.floor, max(map(len, labels)))
        matrix = np.array([[d[a] for support, d in zip(labels, by_locus) for a in support]
                           for by_locus in dists], dtype=np.float64)
        offsets = (0, *itertools.accumulate(map(len, labels)))
        for locus, lo, hi in zip(self.panel, offsets, offsets[1:]):
            _check_frequencies(matrix[:, lo:hi],
                               lambda k: f"subpop {subpop_names[k]!r} at locus {locus!r}")
        matrix.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "label_index", tuple(
            {a: i for i, a in enumerate(support)} for support in labels))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offsets", offsets)

    @property
    def n_subpops(self) -> int:
        return len(self.subpops)

    @property
    def n_loci(self) -> int:
        return len(self.panel)

    @property
    def proportions(self) -> tuple[float, ...]:
        return tuple(s.proportion for s in self.subpops)

    @property
    def sample_sizes(self) -> Optional[tuple[int, ...]]:
        sizes = tuple(s.sample_size for s in self.subpops)
        if any(n is None for n in sizes):
            return None
        return sizes

    def alleles(self, locus: str) -> tuple[Allele, ...]:
        """Allele support of a locus, in sorted label order."""
        return self.labels[self.panel.index(locus)]


@dataclass
class TableMeta:
    """Companion metadata for a frequency CSV."""

    subpops: Optional[list[str]] = None
    proportions: Optional[list[float]] = None
    sample_sizes: Optional[list[int]] = None
    panel: Optional[list[str]] = None
    floor: Optional[float] = None


def _as_stream(source: Union[str, TextIO]) -> TextIO:
    if isinstance(source, str):
        return io.StringIO(source)
    return source


def _text_cell(text: str, what: str = "cell") -> str:
    """``text`` as a written cell; empty text, or text with surrounding
    whitespace, is an InvalidParameter naming ``what`` and the text, since
    both readers refuse it or read it back stripped."""
    if not text or text != text.strip():
        raise InvalidParameter(f"cannot write {what} {text!r}: an empty cell, or one with "
                               "surrounding whitespace, would not read back as written")
    return text


def _write_rows(header: Sequence[str], rows, sink: Optional[TextIO]) -> Optional[str]:
    """CSV with text cells as _text_cell gives them and every other cell as
    repr(float), which is never empty; returns the text when ``sink`` is
    None, else writes it there."""
    buf = sink if sink is not None else io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_text_cell(v) if isinstance(v, str) else repr(float(v)) for v in row])
    return None if sink is not None else buf.getvalue()


def _read_rows(source: Union[str, TextIO], columns: Sequence[str],
               text: int) -> Iterator[tuple[int, list]]:
    """(line number, cells) per data row of a CSV headed ``columns``: cells
    stripped, rows with no text skipped, the cells after the first ``text``
    parsed as floats. Any other shape is a MalformedRow naming the line."""
    reader = csv.reader(_as_stream(source))
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != list(columns):
            raise MalformedRow(f"expected header {','.join(columns)!r}, got {header}")
        for row in reader:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if len(cells) != len(columns) or not all(cells):
                raise MalformedRow(f"line {reader.line_num}: expected {len(columns)} "
                                   f"non-empty cells, got {row}")
            try:
                cells[text:] = map(float, cells[text:])
            except ValueError as exc:
                raise MalformedRow(f"line {reader.line_num}: {exc}") from None
            yield reader.line_num, cells
    except csv.Error as exc:
        raise MalformedRow(f"line {reader.line_num}: {exc}") from None


def load_table_meta(source: Union[str, TextIO]) -> TableMeta:
    """Parse a ``key = value`` metadata file."""
    meta = TableMeta()
    for lineno, raw in enumerate(_as_stream(source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedRow(f"metadata line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _META_KEYS:
            raise MalformedRow(f"metadata line {lineno}: unknown key {key!r}; "
                               f"expected one of {', '.join(_META_KEYS)}")
        if getattr(meta, key) is not None:
            raise MalformedRow(f"metadata line {lineno}: {key!r} given twice")
        item, is_list = _META_KEYS[key]
        try:
            parsed = ([item(tok.strip()) for tok in value.split(",") if tok.strip()]
                      if is_list else item(value))
        except ValueError as exc:
            raise MalformedRow(f"metadata line {lineno}: {exc}") from exc
        setattr(meta, key, parsed)
    return meta


def dump_table_meta(table: FrequencyTable) -> str:
    """``table``'s metadata as load_table_meta reads it, one line per key in
    _META_KEYS order; no sample_sizes line when the table has none. A name that
    would read back otherwise (empty, with surrounding whitespace, or holding
    ',', '#' or a line break) is an InvalidParameter."""
    values = ([s.name for s in table.subpops], table.proportions, table.sample_sizes,
              table.panel, table.floor)
    lines = []
    for key, value in zip(_META_KEYS, values):
        if value is None:
            continue
        item, is_list = _META_KEYS[key]
        cells = [repr(float(v)) if item is float else str(v)
                 for v in (value if is_list else [value])]
        for cell in cells:
            if item is str:
                _text_cell(cell, f"{key} name")
                if cell.splitlines() != [cell] or "," in cell or "#" in cell:
                    raise InvalidParameter(f"cannot write {key} name {cell!r}: a ',', '#' "
                                           "or line break would not read back as written")
        lines.append(f"{key} = " + ", ".join(cells))
    return "\n".join(lines) + "\n"


def _check_floor(floor: float, n_alleles: int) -> None:
    """The one floor rule: a frequency floor must be finite, > 0 and below
    1/A, where A (``n_alleles``) is the largest allele count of any locus,
    so flooring can never lift every allele of a locus to the floor."""
    if not (math.isfinite(floor) and floor > 0.0):
        raise NonPositiveFrequency(f"floor must be finite and > 0, got {floor}")
    if floor * n_alleles >= 1.0:
        raise NonPositiveFrequency(
            f"floor {floor} is not below 1/{n_alleles}, one over the largest "
            f"allele count of a locus")


def _floor_and_normalize(dist: dict[Allele, float], floor: float) -> dict[Allele, float]:
    raised = {a: max(f, floor) for a, f in dist.items()}
    total = sum(raised.values())
    return {a: f / total for a, f in raised.items()}


def load_frequency_table(
    source: Union[str, TextIO],
    meta: Optional[TableMeta] = None,
    floor: Optional[float] = None,
) -> FrequencyTable:
    """Load and validate a frequency CSV.

    Frequencies must be finite and >= 0. Frequencies below the floor
    (including alleles entirely absent from a subpopulation but present in
    another at the same locus) are raised to the floor and the per-(subpop,
    locus) distribution renormalized; see :func:`_check_floor` for the
    floor's range.
    Proportions (equal by default) and sample sizes are checked as given by
    :class:`Subpopulation`; the proportions must then sum to 1 within
    PROPORTION_TOL (:class:`ProportionSumOutOfTolerance` naming the sum) and
    are renormalized to sum exactly to 1.
    """
    if meta is None:
        meta = TableMeta()
    if floor is None:
        floor = meta.floor if meta.floor is not None else DEFAULT_FLOOR

    raw: dict[str, dict[str, dict[Allele, float]]] = {}
    locus_order: list[str] = []
    for lineno, (subpop, locus, allele, freq) in _read_rows(source, _FREQ_COLUMNS, 3):
        if not (freq >= 0.0 and math.isfinite(freq)):
            raise NonPositiveFrequency(
                f"line {lineno}: frequency must be finite and >= 0, got {freq}")
        if subpop not in raw:
            raw[subpop] = {}
        by_locus = raw[subpop]
        if locus not in by_locus:
            by_locus[locus] = {}
            if locus not in locus_order:
                locus_order.append(locus)
        if allele in by_locus[locus]:
            raise DuplicateAllele(f"line {lineno}: duplicate allele {allele!r} for "
                                  f"({subpop!r}, {locus!r})")
        by_locus[locus][allele] = freq

    if not raw:
        raise MalformedRow("frequency CSV contains no data rows")

    subpop_names = meta.subpops if meta.subpops is not None else list(raw)
    panel = tuple(meta.panel) if meta.panel is not None else tuple(locus_order)
    for what, names in (("subpopulation", subpop_names), ("locus", panel)):
        if not names or len(set(names)) != len(names):
            raise MalformedRow(f"metadata must name at least one {what}, each once; "
                               f"got {list(names)}")
    for name in subpop_names:
        if name not in raw:
            raise MissingLocusForSubpop(f"subpop {name!r} absent from frequency CSV")
        for locus in panel:
            if locus not in raw[name]:
                raise MissingLocusForSubpop(f"subpop {name!r} missing locus {locus!r}")

    K = len(subpop_names)
    props = meta.proportions if meta.proportions is not None else [1.0 / K] * K
    if len(props) != K:
        raise ProportionSumOutOfTolerance(f"{len(props)} proportions for {K} subpops")
    subpops = tuple(map(Subpopulation, subpop_names, props))
    total = _check_proportion_sum(subpops)
    sizes = meta.sample_sizes if meta.sample_sizes is not None else [None] * K
    if len(sizes) != K:
        raise MissingSampleSizes(f"{len(sizes)} sample sizes for {K} subpops")
    subpops = tuple(replace(s, proportion=s.proportion / total, sample_size=n)
                    for s, n in zip(subpops, sizes))

    # Floor over the union support so every allele seen anywhere at a locus
    # gets positive frequency in every subpopulation. The support is sorted
    # so the renormalising sum adds in the same order in every process; set
    # order follows string hashing, which changes with PYTHONHASHSEED.
    union: dict[str, list[Allele]] = {
        locus: sorted(set().union(*(raw[name][locus].keys() for name in subpop_names)))
        for locus in panel
    }
    # checked again by FrequencyTable, but first here: flooring a locus whose
    # listed frequencies are all 0 divides by zero under a floor <= 0 or NaN
    _check_floor(floor, max(len(labels) for labels in union.values()))
    freqs: dict[str, dict[str, dict[Allele, float]]] = {}
    for name in subpop_names:
        freqs[name] = {}
        for locus in panel:
            dist = {a: raw[name][locus].get(a, 0.0) for a in union[locus]}
            freqs[name][locus] = _floor_and_normalize(dist, floor)
    return FrequencyTable(panel=panel, subpops=subpops, freqs=freqs, floor=floor)


def dump_frequency_table(table: FrequencyTable,
                         sink: Optional[TextIO] = None) -> Optional[str]:
    """Serialize to the frequency CSV schema (round-trips through load);
    returns the text when ``sink`` is None, else writes it there."""
    rows = ([sp.name, locus, allele, table.freqs[sp.name][locus][allele]]
            for sp in table.subpops
            for locus, labels in zip(table.panel, table.labels) for allele in labels)
    return _write_rows(_FREQ_COLUMNS, rows, sink)


def _pool(table: FrequencyTable, weights: Sequence[float]) -> np.ndarray:
    """The ``weights``-weighted mean of the table's rows, added one row at a
    time in subpop order: ((0 + w_1 f_1) + w_2 f_2) + ..., w_k = weights[k] / total."""
    total = float(sum(weights))
    acc = np.zeros(table.matrix.shape[1])
    for w, row in zip(weights, table.matrix):
        acc = acc + (w / total) * row
    return acc


def _pool_weights(table: FrequencyTable, scheme: str) -> Sequence[float]:
    """The per-subpop weights of a pooling scheme, for ``_pool``: ``census``
    gives the mixing proportions, ``samples`` the per-subpop sample sizes
    (MissingSampleSizes when the table has none), ``equal`` one weight per
    subpop, and ``auto`` samples when the table carries them, else equal.
    A scheme not in CB_WEIGHTS is an InvalidParameter."""
    if scheme not in CB_WEIGHTS:
        raise InvalidParameter(f"unknown weight scheme {scheme!r}")
    if scheme == "auto":
        scheme = "samples" if table.sample_sizes is not None else "equal"
    if scheme == "census":
        return table.proportions
    if scheme == "samples":
        if table.sample_sizes is None:
            raise MissingSampleSizes("table carries no per-subpop sample sizes")
        return [float(n) for n in table.sample_sizes]
    return [1.0] * table.n_subpops


def load_profile_csv(source: Union[str, TextIO]) -> Profile:
    """Read a ``locus,allele1,allele2`` CSV into a Profile."""
    return Profile(tuple(LocusGenotype(locus, (a, b))
                         for _, (locus, a, b) in _read_rows(source, _PROFILE_COLUMNS, 3)))


def dump_profile_csv(profile: Profile) -> str:
    return _write_rows(_PROFILE_COLUMNS, ([g.locus, *g.alleles] for g in profile.genotypes), None)
