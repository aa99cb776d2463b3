"""Exception types shared across the toolkit."""


class TopoleakError(Exception):
    """Base class for all toolkit errors."""


class InvalidSize(TopoleakError):
    """Node count outside the generator's valid range."""


class InvalidProbability(TopoleakError):
    """Edge probability outside (0, 1]."""


class GenerationFailed(TopoleakError):
    """Random generator exhausted its retry budget without a valid graph."""


class ParseError(TopoleakError):
    """Malformed input document; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DisconnectedGraph(TopoleakError):
    """Topology is not connected."""


class InvalidConfig(TopoleakError):
    """Configuration violates a documented precondition."""


class DivergedTraining(TopoleakError):
    """Local training left a node with non-finite parameters after a round."""

    def __init__(self, node: int, round: int):
        super().__init__(f"node {node} has non-finite parameters after round {round}")
        self.node = node
        self.round = round


class PartitionFailed(TopoleakError):
    """Dirichlet partition retry budget exhausted."""


class ShapeError(TopoleakError):
    """Dimension mismatch between parameters and inputs."""


class InvalidTrace(TopoleakError):
    """Simulation trace inconsistent with the requested computation."""


class KnowledgeViolation(TopoleakError):
    """Attacker knowledge does not match the requested scenario."""


class DegenerateModel(TopoleakError):
    """Model parameters unusable for the requested metric (e.g. zero norm)."""


class DegenerateLabels(TopoleakError):
    """Labeled set contains a single class."""


class ConstantMetric(TopoleakError):
    """Metric matrix carries no off-diagonal variation; attack cannot proceed."""


class InvalidEvalSet(TopoleakError):
    """Evaluation pair set is empty."""


class Unsupported(TopoleakError):
    """Requested capability is out of scope."""
