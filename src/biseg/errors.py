"""Exception taxonomy shared across the engine.

Every error raised on purpose derives from EngineError so callers (and the
CLI exit-code mapping) can distinguish engine failures from genuine bugs.
"""


class EngineError(Exception):
    """Base class for all deliberate engine errors."""


class ShapeError(EngineError):
    """Operands disagree in shape, or an op would produce an empty output."""


class ArgumentError(EngineError):
    """A scalar argument violates its documented range."""


class GraphError(EngineError):
    """A layer graph is malformed: empty, unbound input, duplicate output."""


class ConsistencyError(EngineError):
    """Caller-supplied state disagrees with stored state (e.g. missing grads)."""


class FormatError(EngineError):
    """A binary or text file does not follow its documented format.

    Carries the byte offset of the first offending byte when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class DataError(EngineError):
    """Input data (images, labels, manifests) is unusable."""


class ConfigError(EngineError):
    """Engine configuration is unparseable or violates an invariant."""


class NumericAbort(EngineError):
    """Training produced a non-finite loss and was stopped.

    Carries the iteration and the batch sample indices for diagnostics.
    """

    def __init__(self, message: str, iteration: int, batch_indices=()):
        super().__init__(message)
        self.iteration = iteration
        self.batch_indices = tuple(batch_indices)
