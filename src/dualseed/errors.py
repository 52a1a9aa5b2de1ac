"""Exception types shared across the package."""


class DualseedError(Exception):
    """Base class for all package-specific errors."""


class NonSquare(DualseedError):
    """Cost matrix is not square."""


class NonFinite(DualseedError):
    """Input contains NaN or infinity where finite values are required."""


class TooLarge(DualseedError):
    """Instance exceeds the size limit of the requested operation."""


class InfeasibleSeed(DualseedError):
    """Injected dual seed violates u_i + v_j <= C_ij beyond tolerance."""


class ShapeMismatch(DualseedError):
    """Array shapes disagree with the instance or model dimensions."""


class EmptyDataset(DualseedError):
    """Training or fitting was asked to run on zero instances."""


class CorruptCheckpoint(DualseedError):
    """Checkpoint bytes do not parse (bad magic, truncation, garbage)."""


class VersionMismatch(DualseedError):
    """Checkpoint is valid but its version or shape does not fit the caller."""


class BadMagic(DualseedError):
    """File does not start with the expected magic bytes."""


class TruncatedFile(DualseedError):
    """File ended before the declared payload was read."""


class InfeasibleMask(DualseedError):
    """Requested sparsity cannot keep one real edge per row and column."""


class SingularSystem(DualseedError):
    """Normal equations are singular and ridge regularization is disabled."""


class InsufficientTrials(DualseedError):
    """A summary cell has fewer trials than the statistic requires."""


class InvalidSetting(DualseedError, ValueError):
    """A setting is malformed or out of range: a spec-file line, a config field."""


class MalformedCsv(DualseedError):
    """CSV matrix has a cell that is not a number or rows of unequal length."""
