"""Exception types shared across the package.

Every type also derives from ``HsclError``, so a caller can tell a failure
the library reports on purpose (bad input, a corrupt checkpoint, a diverged
run) from a programming error such as a ``TypeError``.
"""


class HsclError(Exception):
    """Base class of every error the package raises on purpose."""


class ShapeError(HsclError, ValueError):
    """Operand shapes incompatible with the requested operation."""


class DomainError(HsclError, ValueError):
    """Input outside an operation's mathematical domain."""


class GraphStateError(HsclError, RuntimeError):
    """Autodiff graph used in an invalid state (e.g. backward called twice)."""


class ConfigError(HsclError, ValueError):
    """Invalid run, training, or generator configuration."""


class DatasetError(HsclError, ValueError):
    """Malformed dataset file or inconsistent records."""


class CheckpointError(HsclError, RuntimeError):
    """Base class for checkpoint persistence failures."""


class CheckpointIntegrityError(CheckpointError):
    """Checkpoint file is truncated or fails its checksum."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version is not supported by this build."""


class TrainingAbort(HsclError, RuntimeError):
    """Training stopped because the loss became non-finite."""
