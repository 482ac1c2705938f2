"""Exception types shared across the library."""


class ConjChernError(Exception):
    """Base class for every error raised by this package."""


class RingMismatch(ConjChernError):
    """Operands belong to different rings or fields."""


class ArityMismatch(ConjChernError):
    """A vector or substitution has the wrong number of entries."""


class NotSquare(ConjChernError):
    """A determinant was requested of a non-square matrix."""


class SizeGuard(ConjChernError):
    """A computation was refused because it exceeds the configured size limits."""


class IndexOutOfRange(ConjChernError):
    """An index parameter lies outside its documented range."""


class PrimeMismatch(ConjChernError):
    """Cyclotomic operands were built over different primes."""


class NotMonomial(ConjChernError):
    """A matrix expected to be monomial (one root-of-unity entry per row and
    column) is not."""


class ContextMismatch(ConjChernError):
    """Cohomology classes live over different (p, m) contexts."""


class OddPartPresent(ConjChernError):
    """A purely even class was required but an exterior factor is present."""


class DepthGuard(ConjChernError):
    """The Milnor operation recursion depth limit was exceeded."""


class SamePartition(ConjChernError):
    """The slash pairing needs two distinct partitions."""


class VerificationFailure(ConjChernError):
    """An identity that a verifier promises unconditionally did not hold."""

