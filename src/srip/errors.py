"""Exception types raised by contract violations across the package."""


class SripError(Exception):
    """Base class for all package-specific errors."""


class NotHermitianError(SripError):
    """Input matrix fails the Hermitian symmetry check."""


class DegenerateSpectrumError(SripError):
    """A unitary operator did not yield a clean eigenbasis after all retries."""


class DimensionMismatchError(SripError):
    """Vector or matrix dimensions are inconsistent."""


class CoherenceViolationError(SripError):
    """A dictionary pair exceeds its declared coherence bound."""


class TorusCountError(SripError):
    """Torus enumeration did not produce the expected number of subgroups."""


class SupportTooLargeError(SripError):
    """Requested support size exceeds the dictionary size."""


class BudgetExceededError(SripError):
    """A combinatorial computation exceeds its hard-coded budget."""


class NotATreeError(SripError):
    """Path class is not a tree, so the tree encoding is undefined."""


class NotUnimodularError(SripError):
    """2x2 matrix entries do not satisfy det = 1 mod p."""


class FormatError(SripError):
    """Dictionary file is malformed or truncated."""


class VersionMismatchError(FormatError):
    """Dictionary file uses an unsupported format version."""


class IntegrityError(SripError):
    """Decoded or constructed data failed its validity check."""
