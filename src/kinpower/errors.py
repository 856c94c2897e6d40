"""Exception and warning types shared across the package."""


class KinpowerError(Exception):
    """Base class for all validation and data errors raised by kinpower."""


class InvalidParameter(KinpowerError, ValueError):
    """A parameter outside its domain; also a ValueError for callers catching one."""


class MalformedRow(KinpowerError):
    pass


class DuplicateAllele(KinpowerError):
    pass


class MissingLocusForSubpop(KinpowerError):
    pass


class ProportionSumOutOfTolerance(KinpowerError):
    pass


class NonPositiveFrequency(KinpowerError):
    pass


class MissingSampleSizes(KinpowerError):
    pass


class UnknownAllele(KinpowerError):
    pass


class PanelMismatch(KinpowerError):
    pass


class EmptySubpopSample(KinpowerError):
    pass


class AlphaTooSmallForB(UserWarning):
    """Empirical quantile is unstable when alpha * n_samples < 10."""


class SmallSampleWarning(UserWarning):
    """Normal-approximation interval requested with fewer than 30 samples."""
