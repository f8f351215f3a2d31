"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A configuration object violates its invariants."""


class ContainerFormatError(ValueError):
    """A tensor container file is malformed.

    ``offset`` is the byte position at which the problem was detected;
    ``message`` is the text without it.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.message, self.offset = message, offset


class ChunkRejected(Exception):
    """No legal manipulation chunk exists for the given sequence length.

    Callers are expected to skip augmentation for the affected sample.
    """


class DonorError(ValueError):
    """A replacement donor sequence is missing or too short."""


class ShapeError(ValueError):
    """Tensor operands have incompatible shapes."""


class MetricError(ValueError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""
