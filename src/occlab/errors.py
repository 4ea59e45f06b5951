"""Semantic exception hierarchy for occlab.

Every failure mode that callers may reasonably branch on gets its own
class; plain ValueError/RuntimeError are reserved for programming errors.
"""


class OcclabError(Exception):
    """Base class for all occlab errors."""


class DomainError(OcclabError):
    """An argument lies outside the solid hypercube (beyond tolerance)."""


class RangeError(OcclabError):
    """A rule returned a value outside [0, 1] beyond tolerance (malformed model)."""


class TooLargeError(OcclabError):
    """Problem size exceeds the cap of an exact (enumerative) algorithm."""


class DegenerateSigmaError(OcclabError):
    """A required one-step projected standard deviation is numerically zero."""


class SingularMatrixError(OcclabError):
    """A linear system that the theory requires to be solvable is singular."""


class NotConvergedError(OcclabError):
    """An iterative solver exhausted its budget without reaching tolerance."""


class SchemaError(OcclabError):
    """An experiment configuration failed schema validation."""
