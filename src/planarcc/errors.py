"""Exception types shared across the package."""


class PlanarCCError(Exception):
    """Base class for all library errors."""


class SizeMismatchError(PlanarCCError, ValueError):
    """An assignment or parameter vector does not match the model size."""


class WeightRangeError(PlanarCCError, ValueError):
    """Integer weights exceed the range the matching solver can handle safely."""


class NotPlanarEmbeddingError(PlanarCCError, ValueError):
    """A rotation system is inconsistent or fails the Euler check."""


class NoPerfectMatchingError(PlanarCCError, ValueError):
    """The graph admits no perfect matching (or has an odd vertex count)."""


class TooLargeError(PlanarCCError, ValueError):
    """An instance exceeds a brute-force solver's hard size cap."""
