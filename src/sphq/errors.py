"""Exception hierarchy shared across the engine."""


class SphqError(Exception):
    """Base class for all engine errors."""


class SchemaError(SphqError):
    """Malformed input file or descriptor."""


class NotAdmissible(SphqError):
    """Relation is not a combination of parallel paths of length >= 2."""


class CapInsufficient(SphqError):
    """The length cap does not certify finite-dimensionality."""


class UnknownVertex(SphqError):
    pass


class UnknownArrow(SphqError):
    pass


class AlgebraMismatch(SphqError):
    """Operands live over different algebras."""


class GlobalDimensionExceeded(SphqError):
    """Projective resolution did not terminate within ``limit`` steps."""

    def __init__(self, limit, what=""):
        self.limit = limit
        super().__init__("resolution exceeded bound %d%s"
                         % (limit, " (%s)" % what if what else ""))


class NotChainMap(SphqError):
    pass


class NotElementValued(SphqError):
    """Operation needs element-valued (perfect) differentials."""


class DZeroUnsupported(SphqError):
    """Asphericality for d = 0 is not computed."""


class NonUniqueMap(SphqError):
    """The canonical-map space did not have dimension 1."""


class NotASink(SphqError):
    pass


class NotAcyclic(SphqError):
    pass


class FamilyParameterError(SphqError):
    """Family parameters outside the allowed range."""


class UnsupportedFamily(SphqError):
    pass


class UnsupportedCandidateSet(SphqError):
    pass


class WitnessFailed(SphqError):
    """A stored poset witness failed re-verification."""


class IncompatibleKinds(SphqError):
    """Subcategory signatures of kinds that cannot be compared directly."""


class EngineInvariantViolation(SphqError):
    """An internal consistency guarantee was violated; indicates a bug."""
