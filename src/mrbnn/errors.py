"""Exception hierarchy shared across the toolkit.

The CLI maps these onto process exit codes: config/usage problems exit 2,
data/file problems exit 3, physical-constraint violations exit 4.
"""


class MrbnnError(Exception):
    """Base class for all toolkit errors."""


class DomainError(MrbnnError, ValueError):
    """An operation was called with inputs outside its mathematical domain."""


class DegenerateResonatorError(DomainError):
    """Ring parameters give r*a >= 1, which has no finite linewidth."""


class ConfigError(MrbnnError):
    """Configuration file or option is malformed or inconsistent."""


class PhysicalConstraintError(MrbnnError):
    """A physically impossible configuration was requested (e.g. a wavelength
    comb wider than the broadband passband)."""


class IllConditionedLayoutError(PhysicalConstraintError):
    """Thermal crosstalk matrix is not diagonally dominant: the ring layout
    is too dense to tune (exit 4)."""


class DataFormatError(MrbnnError):
    """A data file is corrupt or does not match its declared layout."""
