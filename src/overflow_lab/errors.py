"""Exception hierarchy shared by all modules.

Domain errors (bad inputs, violated preconditions) map to CLI exit code 2,
numerical non-convergence to exit code 3.
"""


class OverflowLabError(Exception):
    """Base class for all package errors."""


class DomainError(OverflowLabError):
    """Invalid input or violated precondition (CLI exit 2)."""


class NumericalError(OverflowLabError):
    """A numerical procedure failed to meet its contract (CLI exit 3)."""


# -- series ------------------------------------------------------------------

class NonzeroConstantTerm(DomainError):
    """Inner series of a composition must have vanishing constant term."""


class NotInvertible(DomainError):
    """Compositional inverse requires a nonzero linear coefficient."""


class AllZero(DomainError):
    """Series is zero (to its order) where a nonzero coefficient is required."""


# -- quadrature --------------------------------------------------------------

class NoConvergence(NumericalError):
    """Grid refinement exhausted without meeting the tolerance."""


class PoleAtOrigin(DomainError):
    """Map has a pole at the disk center."""


# -- overflow ----------------------------------------------------------------

class ConstantMap(DomainError):
    """Overflow invariants are defined for nonconstant maps only."""


class RootConditioning(NumericalError):
    """Root set too close to the boundary circle; value unreliable."""


class UnsupportedDegree(DomainError):
    """Definitional oracle is restricted to small polynomial degrees."""


# -- arithmetic --------------------------------------------------------------

class NotIntegral(DomainError):
    """Composed series has a non-integer coefficient at the reported index."""

    def __init__(self, index, coefficient):
        self.index = index
        self.coefficient = coefficient
        super().__init__(
            f"coefficient at index {index} is not an integer: {coefficient}"
        )


class NotPseudoconcave(DomainError):
    """Operation requires a surface of positive capacitary degree."""


class CertificateViolation(OverflowLabError):
    """An exact certificate failed; indicates an implementation bug."""


# -- lattice -----------------------------------------------------------------

class NotNegativeDefinite(DomainError):
    """Intersection matrix must be negative definite."""


class CandidateNotCNB(DomainError):
    """Candidate divisor fails the nef-and-big component checks."""


# -- diffeo ------------------------------------------------------------------

class LevelMismatch(DomainError):
    """Group elements of different truncation levels cannot be combined."""


class StepTooSmall(NumericalError):
    """Finite-difference Jacobian unstable across step halving."""


class EnumerationTooLarge(DomainError):
    """Fundamental-domain enumeration exceeds the configured cap."""


# -- cli ---------------------------------------------------------------------

class ConfigError(DomainError):
    """Malformed configuration or unknown keys."""


class ParseError(DomainError):
    """Malformed literal; carries the offending position."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")
