"""Property tests for the three loaders: whatever text they are given, they
either return or raise a KinpowerError (exit 2 in the CLI), never anything
else. Examples are derandomized, so the suite stays deterministic."""

import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

import kinpower as kp
from kinpower.errors import KinpowerError

FUZZ = settings(max_examples=200, derandomize=True, deadline=None, database=None)

OVERSIZED = "subpop,locus,allele,freq\na,L1," + "9" * 200_000 + ",0.5\n"

LABELS = st.sampled_from(
    ["9", "9.3", "10", "13.2", "OL", "x", " 11 ", "", '"12"', '"1,2"', 'a"b', "\ufeff8"])
NUMBERS = st.one_of(
    st.sampled_from(["0.5", "0.25", "0", "1e-3", "-0.1", "nan", "inf", "-inf", "1e400",
                     "", "abc", " 0.2 ", '"0.5"']),
    st.floats().map(repr),
)
NAMES = st.sampled_from(["a", "b", "S1", "", " a "])
LOCI = st.sampled_from(["L1", "L2", "TH01", ""])


def document(header, rows, newline, bom):
    """CSV text with the given header, optional BOM and line ending."""
    text = newline.join([header] + [",".join(row) for row in rows]) + newline
    return ("\ufeff" if bom else "") + text


def documents(headers, row):
    return st.builds(
        document,
        header=st.sampled_from(headers),
        rows=st.lists(st.one_of(row, st.lists(LABELS, max_size=6), st.just([])),
                      max_size=12),
        newline=st.sampled_from(["\n", "\r\n"]),
        bom=st.booleans(),
    )


FREQ_DOCS = documents(
    ["subpop,locus,allele,freq", " subpop , locus,allele,freq", "subpop,locus,allele",
     "locus,allele1,allele2"],
    st.tuples(NAMES, LOCI, LABELS, NUMBERS).map(list))
PROFILE_DOCS = documents(
    ["locus,allele1,allele2", "locus, allele1 ,allele2", "locus,allele1"],
    st.tuples(LOCI, LABELS, LABELS).map(list))

META_LINE = st.one_of(
    st.builds("{} = {}".format,
              st.sampled_from(["subpops", "proportions", "sample_sizes", "panel", "floor",
                               "sample_size", ""]),
              st.lists(st.one_of(NAMES, LOCI, NUMBERS, st.sampled_from(["10", "0", "-5"])),
                       max_size=4).map(", ".join)),
    st.sampled_from(["# comment", "", "subpops a, b", "= 1", "floor = 1 # note"]),
)
META_DOCS = st.lists(META_LINE, max_size=6).map(lambda lines: "\n".join(lines) + "\n")


def returns_or_rejects(load, *args, **kwargs):
    try:
        load(*args, **kwargs)
    except KinpowerError:
        pass


class TestArbitraryText:
    @FUZZ
    @given(st.text())
    @example(OVERSIZED)
    @example("subpop,locus,allele,freq\r\na,L1,9.3,\"0.5\"\r\n")
    def test_frequency_table(self, text):
        returns_or_rejects(kp.load_frequency_table, text)

    @FUZZ
    @given(st.text())
    @example("locus,allele1,allele2\nL1," + "1" * 200_000 + ",2\n")
    def test_profile(self, text):
        returns_or_rejects(kp.load_profile_csv, text)

    @FUZZ
    @given(st.text())
    def test_metadata(self, text):
        returns_or_rejects(kp.load_table_meta, text)


class TestNearValid:
    @FUZZ
    @given(FREQ_DOCS, META_DOCS, st.sampled_from([None, 1e-5, 0.2, 0.6]))
    @example(OVERSIZED, "", None)
    @example("subpop,locus,allele,freq\na,L1,9,1\n", "subpops = \n", None)
    @example("subpop,locus,allele,freq\na,L1,9,1\n", "panel = \n", None)
    def test_frequency_table_with_metadata(self, text, meta_text, floor):
        try:
            meta = kp.load_table_meta(io.StringIO(meta_text))
        except KinpowerError:
            meta = None
        returns_or_rejects(kp.load_frequency_table, io.StringIO(text), meta=meta,
                           floor=floor)

    @FUZZ
    @given(PROFILE_DOCS)
    def test_profile(self, text):
        returns_or_rejects(kp.load_profile_csv, io.StringIO(text))

    @FUZZ
    @given(META_DOCS)
    def test_metadata(self, text):
        returns_or_rejects(kp.load_table_meta, text)
