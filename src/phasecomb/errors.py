"""Exception types shared across the package."""


class PhasecombError(Exception):
    """Base class for all library-specific failures."""


class InvalidRequest(PhasecombError, ValueError):
    """Request of the wrong shape: an empty grid, no or unknown paths, no slopes."""


class DegenerateGeometry(PhasecombError):
    """Scenario geometry collapses (transmitter on the array, vanishing radical)."""


class NonPositiveDistance(PhasecombError):
    """Path gain queried at a distance <= 0."""


class EmptyPattern(PhasecombError):
    """Antenna pattern holds no samples."""


class MalformedRow(PhasecombError):
    """Antenna pattern CSV row or header failed to parse."""


class NonMonotonicAzimuth(PhasecombError):
    """Antenna pattern azimuth grid is not strictly increasing."""


class ZeroGain(PhasecombError):
    """Both antenna patterns have zero gain at their worst-case AOA, so the
    phi mode has nothing to normalise the burst by."""


class DegenerateSamples(PhasecombError):
    """Affine fit requested on fewer than two distinct sample times."""


class ValidityViolation(PhasecombError):
    """Scenario leaves the range where the pathloss model may be linearized."""


class PositivityViolation(PhasecombError):
    """Affine per-packet weights are not strictly positive over the burst."""


class DomainX(PhasecombError):
    """Kernel evaluated within tolerance of a pole of 1/sin (x in the severe set)."""


class NonFiniteX(PhasecombError, ValueError):
    """Kernel evaluated at a half slope-offset x that is NaN, infinite or at
    least 2**53 in magnitude, where floats are spaced 2 apart and x holds no phase."""


class NonPositiveC1(PhasecombError):
    """Mean per-packet weight c1 must be strictly positive."""


class TooFewPackets(PhasecombError, ValueError):
    """A burst quantity asked for fewer than two packets."""
