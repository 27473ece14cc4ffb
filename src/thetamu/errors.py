"""Exception hierarchy of the verdict path; oracle modules define their own."""


class ThetamuError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(ThetamuError):
    """One or more invariants of a polarized abelian variety are violated.

    ``violations`` holds the individual named errors so callers can report
    every problem at once.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class NotSymmetric(ValidationError):
    def __init__(self, i, j, deviation):
        self.entry = (i, j)
        self.deviation = deviation
        ThetamuError.__init__(
            self, f"period matrix not symmetric at ({i},{j}): |dev| = {deviation:.3e}"
        )
        self.violations = [self]


class NotPositiveDefinite(ValidationError):
    def __init__(self, lambda_min):
        self.lambda_min = lambda_min
        ThetamuError.__init__(
            self, f"Im(omega) is not positive definite: lambda_min = {lambda_min:.3e}"
        )
        self.violations = [self]


class BadDivisorChain(ValidationError):
    def __init__(self, index, detail):
        self.index = index
        ThetamuError.__init__(self, f"divisor chain broken at position {index}: {detail}")
        self.violations = [self]


class SizeLimit(ThetamuError):
    """A requested enumeration, matrix or lattice sum exceeds its size guard,
    a module constant such as ``mult.DEFAULT_CELL_CAP``."""


class TruncationOverflow(ThetamuError):
    """A lattice sum needs more box cells, (2R+1)^g points times g, than
    ``theta.DEFAULT_CAPACITY``, or a radius or binning beyond double-precision
    range, or a value whose log envelope is not within ``theta._LOG_MAX``."""


class IllConditioned(ThetamuError):
    """Sample matrix condition number exceeded the cap."""


class NotInSpan(ThetamuError):
    """Least-squares expansion left a residual above tolerance.

    Mathematically every admissible section lies in the span of the basis,
    so this signals a numerical fault, not a geometric one.
    """


class FitResidualTooLarge(ThetamuError):
    """The sampled check of the Wirtinger theta relation left a misfit above tolerance."""
