"""Exception hierarchy shared across the package.

Every error raised by qfit derives from QfitError so the CLI can map any
failure to a machine-readable error report with a single handler.
"""


class QfitError(Exception):
    """Base class for all qfit errors."""


class DimensionError(QfitError):
    """Operand dimensions are invalid or exceed the simulator cap."""


class SingularMatrixError(QfitError):
    """A matrix required to be invertible is singular to working precision."""


class ConfigError(QfitError):
    """A phase-estimation or run configuration violates its preconditions."""


class PostselectionError(QfitError):
    """Attempted to postselect a branch with zero probability."""


class GenerationError(QfitError):
    """A synthetic problem specification is infeasible."""


class TomographyError(QfitError):
    """State reconstruction is ill-conditioned for the given state."""


class SchemaError(QfitError):
    """A JSON artifact does not match the expected schema."""


class InvariantError(QfitError):
    """A numerical identity the pipeline relies on failed to hold."""
