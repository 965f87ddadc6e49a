"""Exception and warning types shared across the package."""


class HessplitError(Exception):
    """Base class for all errors raised by this package."""


# --- ingestion ---

class EmptyInputError(HessplitError):
    """Input stream contains no data rows."""


class MalformedRowError(HessplitError):
    """A CSV row could not be parsed as (timestamp, power_kw)."""

    def __init__(self, row_number, message):
        super().__init__(f"row {row_number}: {message}")
        self.row_number = row_number


class NonUniformGridError(HessplitError):
    """Timestamps deviate from a uniform sample interval."""


class NegativePowerError(HessplitError):
    """A power value is negative and clamping was not requested."""


class NotAMultipleError(HessplitError):
    """Resampling target interval is not an integer multiple of the source."""


class UpsamplingForbiddenError(HessplitError):
    """Resampling to an equal or finer interval would fabricate resolution."""


class InvalidProfileError(HessplitError):
    """Series violates the load-profile invariants (length, sign, finiteness)."""


# --- normalization / metrics ---

class AllZeroProfileError(HessplitError):
    """Profile maximum is zero; per-unit normalization is undefined."""


class DegenerateBaseLoadWarning(UserWarning):
    """No histogram mass below the peak band; base-load estimate is degenerate."""


# --- transient analysis ---

class EmptyValuesError(HessplitError):
    """Histogram input is empty."""


class NonFiniteValuesError(HessplitError):
    """Histogram input is not all finite real numbers, or its bin range overflows a float."""


class NotSymmetricHistogramError(HessplitError):
    """Operation requires a histogram built with symmetric bins about zero."""


# --- classification / reports ---

class InconsistentInputsError(HessplitError):
    """Summaries passed to the classifier come from different series."""


class MalformedReportError(HessplitError):
    """JSON read as an analysis report is not one: not JSON, or a field missing or bad."""


# --- energy management ---

class InvalidConfigError(HessplitError):
    """EMS configuration or device parameters violate their bounds."""


class IncompatibleResolutionError(HessplitError):
    """Supercapacitor dispatch requested on a profile too coarse for it."""


class WindowOutOfRangeError(HessplitError):
    """Outage window does not lie within the profile's time span."""


class ResolutionTooCoarseError(HessplitError):
    """Profile resolution is too coarse for the requested scenario."""


# --- synthesis / CLI ---

class InvalidSpecError(HessplitError):
    """Synthetic-profile specification violates its parameter bounds."""


class InvalidRangeError(HessplitError):
    """Threshold range specification is malformed."""
