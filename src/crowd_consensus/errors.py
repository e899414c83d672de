"""Exception types shared across the toolkit."""


class CrowdConsensusError(Exception):
    """Base class for all toolkit-specific errors."""


class InvalidArgument(CrowdConsensusError, ValueError):
    """A caller's argument or a CLI flag's value is refused; also a ValueError."""


class ParseError(CrowdConsensusError):
    """An input file is malformed for its declared format."""


class MissingAnnotation(CrowdConsensusError):
    """A question has no matching answer record."""


class AnswerCountMismatch(CrowdConsensusError):
    """A question's answer list does not match the corpus answer count."""


class InvalidProbability(CrowdConsensusError):
    """A saliency row has a negative component or sums too far from 1."""


class EmptyQuestion(CrowdConsensusError):
    """Question text contains no tokens after cleanup."""


class EmptyTrainingSet(CrowdConsensusError):
    """Too few training examples to fit a model."""


class DimensionMismatch(CrowdConsensusError):
    """Feature vector width incompatible with the model or data."""


class FormatVersionMismatch(CrowdConsensusError):
    """A model file is corrupt or written by an incompatible version."""


class NoPositives(CrowdConsensusError):
    """Ranking metrics need at least one disagreement-labeled item."""


class LengthMismatch(CrowdConsensusError):
    """Parallel input lists have different lengths."""


class KeyMismatch(CrowdConsensusError):
    """Question ids or an ordering of rows do not match the corpus they index."""
