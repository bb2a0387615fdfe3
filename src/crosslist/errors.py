"""Exception hierarchy shared by all crosslist modules."""


class CrosslistError(Exception):
    """Base class for every error raised by this package."""


# --- manifest / price-file ingestion ---------------------------------------

class MissingField(CrosslistError):
    """A required column or cell is absent or malformed; message names the row."""


class UndecodableFile(CrosslistError):
    """An input file is not valid UTF-8 text; message names the file."""


class NonPositiveMarketCap(CrosslistError):
    pass


class DuplicateCode(CrosslistError):
    pass


class UnparsableDate(CrosslistError):
    pass


class DuplicateDate(CrosslistError):
    pass


class NonPositivePrice(CrosslistError):
    pass


class UnsortedInputAfterParse(CrosslistError):
    """Rows parsed cleanly but their dates are not in ascending order."""


class InvalidSeries(CrosslistError, ValueError):
    """A dated series breaks the contract every series keeps (lengths, date order, finite values)."""


class EmptyIntersection(CrosslistError):
    """No trading date is shared by every input series."""


class EventAfterPanelEnd(CrosslistError):
    pass


# --- elementary statistics ---------------------------------------------------

class SeriesTooShort(CrosslistError):
    pass


class DegenerateSample(CrosslistError):
    """Sample has fewer than two observations or zero variance."""


# --- regression / diagnostics ------------------------------------------------

class RankDeficient(CrosslistError):
    pass


class TooFewObservations(CrosslistError):
    pass


class AllZeroResiduals(CrosslistError):
    pass


class TooManyLags(CrosslistError):
    pass


class ExactFitNoVariance(CrosslistError):
    """The fit is exact (zero residual variance); standardization is refused."""


# --- GARCH estimation ----------------------------------------------------------

class NonFiniteLikelihood(CrosslistError):
    """The likelihood is unbounded (an exact OLS fit) or not finite at the starting point."""


class NonStationaryParameters(CrosslistError):
    pass


# --- event study ----------------------------------------------------------------

class WindowOutOfData(CrosslistError):
    """A requested event-time window is not covered by the available data."""


class MisalignedOffsets(CrosslistError):
    """Vectors that must pair day for day in event time have different lengths."""


class UnknownFirm(CrosslistError):
    pass
