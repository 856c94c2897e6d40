"""Likelihood-ratio kinship testing and Monte Carlo power analysis for
STR profiles in structured populations."""

from . import errors
from .engine import (BLOCK, SampleMatrix, SimConfig, dump_samples, simulate, simulate_alt,
                     simulate_null)
from .ibd import (
    FULL_SIB,
    HALF_SIB_PAPER,
    HALF_SIB_STANDARD,
    PARENT_CHILD,
    UNRELATED,
    ThetaIBD,
    pair_probability,
)
from .lrstats import STATISTICS, LrBreakdown, lr_all
from .power import (
    DiffCI,
    PowerCurve,
    PowerReport,
    clopper_pearson,
    null_threshold,
    power,
    power_curve,
    power_curves,
    power_diff_ci,
    power_report,
    subpop_power,
)
from .synth import synth_frequency_table
from .tables import (
    FrequencyTable,
    LocusGenotype,
    Profile,
    Subpopulation,
    TableMeta,
    dump_frequency_table,
    dump_profile_csv,
    dump_table_meta,
    load_frequency_table,
    load_profile_csv,
    load_table_meta,
)

__version__ = "0.1.0"
