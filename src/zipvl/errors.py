"""Exception classes shared across the package.

Each class corresponds to one failure category and maps to a distinct CLI
exit code (see cli.EXIT_CODES).
"""


class ZipvlError(Exception):
    """Base class for all package errors."""


class ShapeError(ZipvlError, ValueError):
    """Operand dimensions are incompatible."""


class DomainError(ZipvlError, ValueError):
    """A numeric argument is outside its valid domain."""


class BoundsError(ZipvlError, IndexError):
    """An index or count is out of range."""


class DegenerateMaskError(ZipvlError, ValueError):
    """A mask row has no visible column."""


class EmptySequenceError(ZipvlError, ValueError):
    """An operation received an empty sequence."""


class VocabError(ZipvlError, ValueError):
    """A token id is outside the model vocabulary."""


class OrderingError(ZipvlError, ValueError):
    """An index set was supplied out of the required strictly ascending order."""


class FormatError(ZipvlError, ValueError):
    """A workload CSV is malformed."""


class ConfigError(ZipvlError, ValueError):
    """A configuration file or value is invalid."""
