"""Exception hierarchy for walg.

Every failure that carries mathematical meaning gets its own class so
callers (and the CLI report writer) can attach a minimal witness.
"""


class WalgError(Exception):
    """Base class for all walg errors."""


class ConfigError(WalgError):
    """Invalid job configuration."""


# -- linear algebra ---------------------------------------------------------

class AmbientMismatch(WalgError):
    """Subspace operation on spaces of different ambient dimension."""


# -- Lie algebra construction and validation --------------------------------

class JacobiViolation(WalgError):
    def __init__(self, triple, residual):
        self.triple = triple
        self.residual = residual
        super().__init__(f"Jacobi identity fails on basis triple {triple}")


class DegenerateKillingForm(WalgError):
    """Killing form is singular; the algebra is not semisimple."""


class NotNilpotent(WalgError):
    """Element whose adjoint action is not nilpotent."""


class NoTripleFound(WalgError):
    """sl2-triple completion failed (internal inconsistency)."""


class NonIntegerEigenvalue(WalgError):
    """ad h eigenspaces do not exhaust the algebra over the integers."""


class NotInsideGm1(WalgError):
    """Prescribed isotropic vector lies outside the weight -1 space."""


class NotIsotropic(WalgError):
    """Prescribed subspace is not isotropic for the symplectic form."""


class DegenerateOmega(WalgError):
    """The skew form on the weight -1 space is degenerate."""


class DecompositionFailure(WalgError):
    def __init__(self, message, dims=None):
        self.dims = dims or {}
        super().__init__(message)


# -- enveloping algebra / filtration ----------------------------------------

class DegreeOverflow(WalgError):
    """Operation needs data beyond the computed degree range."""


# -- reduction pipeline ------------------------------------------------------

class ChartMismatch(WalgError):
    """Polynomial operands live on different coordinate charts."""


class LiftFailure(WalgError):
    """No invariant lift exists; signals a bug, existence is guaranteed."""


class NotNilpotentCoadjoint(WalgError):
    """Coadjoint flow generator is not nilpotent."""


class TheoremFailure(WalgError):
    def __init__(self, message, degree=None):
        self.degree = degree
        super().__init__(message)


class ComparisonFailure(WalgError):
    def __init__(self, message, degree=None):
        self.degree = degree
        super().__init__(message)


class CenterCheckFailure(WalgError):
    """Casimir image fails a check; `degree` is the image's Kazhdan degree."""

    def __init__(self, message, degree):
        self.degree = degree
        super().__init__(message)
