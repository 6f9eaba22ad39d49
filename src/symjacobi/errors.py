"""Exception types raised by the library."""


class SymJacobiError(ValueError):
    """Base of every error the library raises on input it cannot accept."""


class DomainError(SymJacobiError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularPointError(DomainError):
    """Evaluation was requested at a point where the function is singular."""


class GridError(SymJacobiError):
    """A quadrature grid is malformed or incompatible with the operation."""


class UnsupportedParametersError(SymJacobiError):
    """The type parameters exclude this operator family (e.g. zero bottom eigenvalue)."""


class AdmissibilityError(SymJacobiError):
    """An exponent falls outside the admissible range for the given parameters."""


class EnsembleError(SymJacobiError):
    """A random ensemble is degenerate or otherwise unusable."""


class ConfigError(SymJacobiError):
    """An experiment configuration is invalid."""
