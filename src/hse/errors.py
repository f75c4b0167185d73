"""Exception types shared across the package."""


class HseError(Exception):
    """Base class for all library errors."""


class ShapeError(HseError):
    """Operands have incompatible shapes or an axis is out of range."""


class ContractError(HseError):
    """An operation was invoked outside its documented contract."""


class DegenerateInputError(HseError):
    """Numerically degenerate input, e.g. a zero-norm embedding."""


class CorpusError(HseError):
    """Corpus file parsing or validation failure."""


class LabelsError(HseError):
    """Labels sidecar parsing or validation failure."""


class CheckpointError(HseError):
    """Checkpoint file format failure."""


class ConfigError(HseError):
    """Invalid run configuration."""


class TrainingDiverged(HseError):
    """An embedding, a loss component or a weight went non-finite in training."""
